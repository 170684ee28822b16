//! Elements and the string-label interner.
//!
//! Algorithms operate on dense integer ids (`Element(0..n)`); human-readable
//! labels live at the edges, in a [`Universe`]. This keeps every hot loop
//! free of hashing and string handling.

use std::collections::HashMap;
use std::fmt;

/// A ranked element, identified by a dense integer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Element(pub u32);

impl Element {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Element {
    #[inline]
    fn from(v: u32) -> Self {
        Element(v)
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Bidirectional mapping between element labels and dense ids.
///
/// ```
/// use rank_core::Universe;
/// let mut u = Universe::new();
/// let a = u.intern("Ascari");
/// let b = u.intern("Brabham");
/// assert_eq!(u.intern("Ascari"), a); // idempotent
/// assert_eq!(u.name(b), "Brabham");
/// assert_eq!(u.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Universe {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Universe {
    /// An empty universe.
    pub fn new() -> Self {
        Universe::default()
    }

    /// Intern `name`, returning its element id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Element {
        if let Some(&id) = self.index.get(name) {
            return Element(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        Element(id)
    }

    /// Forget every label interned after the first `len` (undoes the
    /// interning of a rejected line).
    pub(crate) fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len..) {
            self.index.remove(&name);
        }
    }

    /// Look up an already-interned label.
    pub fn get(&self, name: &str) -> Option<Element> {
        self.index.get(name).map(|&id| Element(id))
    }

    /// The label of `e`.
    ///
    /// # Panics
    /// Panics if `e` was not interned in this universe.
    pub fn name(&self, e: Element) -> &str {
        &self.names[e.index()]
    }

    /// Number of interned elements.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` iff no element has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(element, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Element, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Element(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut u = Universe::new();
        let ids: Vec<Element> = ["x", "y", "z", "y", "x"]
            .iter()
            .map(|s| u.intern(s))
            .collect();
        assert_eq!(
            ids,
            vec![Element(0), Element(1), Element(2), Element(1), Element(0)]
        );
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut u = Universe::new();
        let e = u.intern("gene-TP53");
        assert_eq!(u.get("gene-TP53"), Some(e));
        assert_eq!(u.get("gene-BRCA1"), None);
        assert_eq!(u.name(e), "gene-TP53");
    }

    #[test]
    fn iter_in_id_order() {
        let mut u = Universe::new();
        u.intern("b");
        u.intern("a");
        let pairs: Vec<_> = u.iter().collect();
        assert_eq!(pairs, vec![(Element(0), "b"), (Element(1), "a")]);
    }

    #[test]
    fn element_display_and_index() {
        assert_eq!(Element(17).to_string(), "17");
        assert_eq!(Element(17).index(), 17);
        assert_eq!(Element::from(3u32), Element(3));
    }
}
