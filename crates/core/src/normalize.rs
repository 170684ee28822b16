//! Normalization processes (§5.1, Table 3).
//!
//! Real datasets rarely rank the same elements everywhere; aggregation
//! algorithms require them to. The literature uses two conversions, both
//! implemented here together with the top-k retention of §6.1.3 and the
//! intermediate `k`-of-`m` process the paper proposes as future work (§8):
//!
//! * **Projection** removes every element absent from at least one ranking
//!   — it can silently drop highly relevant elements (the paper's example:
//!   the 1970 F1 champion).
//! * **Unification** appends to each ranking a final bucket holding the
//!   elements it is missing; **unification-broken** then splits that bucket
//!   into singletons (arbitrary order) for permutation-only algorithms.
//!
//! All functions return a dense [`Dataset`] plus the mapping from dense ids
//! back to the original elements.

use crate::dataset::Dataset;
use crate::element::Element;
use crate::ranking::Ranking;

/// A normalized dataset plus the id mapping: `mapping[dense_id]` is the
/// original element.
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The dense dataset ready for aggregation.
    pub dataset: Dataset,
    /// Dense id → original element.
    pub mapping: Vec<Element>,
}

impl Normalized {
    /// Translate a consensus over the dense ids back to original ids.
    pub fn denormalize(&self, r: &Ranking) -> Ranking {
        r.map_elements(|e| self.mapping[e.index()])
            .expect("mapping is injective")
    }
}

/// Marks an original id that a normalization drops.
const DROPPED: u32 = u32::MAX;

/// The elements a normalization keeps, with the remap both ways.
struct Kept {
    /// Dense id → original element, ascending.
    mapping: Vec<Element>,
    /// Original id → dense id, or [`DROPPED`].
    dense: Vec<u32>,
}

/// The elements ranked by at least `min_rankings` inputs (and by at least
/// one), from one pass over the position tables that counts how many
/// inputs rank each id.
fn keep(raw: &[Ranking], min_rankings: usize) -> Kept {
    let len = raw.iter().map(|r| r.positions().len()).max().unwrap_or(0);
    let mut count = vec![0usize; len];
    for r in raw {
        for (c, &p) in count.iter_mut().zip(r.positions()) {
            *c += usize::from(p != u32::MAX);
        }
    }
    let min = min_rankings.max(1);
    let mut mapping = Vec::new();
    let dense = count
        .iter()
        .enumerate()
        .map(|(id, &c)| {
            if c < min {
                return DROPPED;
            }
            mapping.push(Element(id as u32));
            mapping.len() as u32 - 1
        })
        .collect();
    Kept { mapping, dense }
}

impl Kept {
    /// The kept elements of `r`, in its buckets (emptied ones dropped),
    /// remapped to dense ids. The buckets end up inside a `Ranking`, so
    /// they are sized to the input's, not grown by pushes.
    fn restrict(&self, r: &Ranking) -> Vec<Vec<Element>> {
        let mut buckets = Vec::with_capacity(r.n_buckets());
        for b in r.buckets() {
            let mut kept = Vec::with_capacity(b.len());
            kept.extend(b.iter().filter_map(|e| match self.dense[e.index()] {
                DROPPED => None,
                d => Some(Element(d)),
            }));
            if !kept.is_empty() {
                buckets.push(kept);
            }
        }
        buckets
    }
}

/// **Projection** (§5.1): drop every element absent from at least one
/// ranking. Returns `None` when the intersection is empty.
pub fn projection(raw: &[Ranking]) -> Option<Normalized> {
    let kept = keep(raw, raw.len());
    if kept.mapping.is_empty() {
        return None;
    }
    let rankings: Vec<Ranking> = raw
        .iter()
        .map(|r| Ranking::from_buckets(kept.restrict(r)).expect("projection preserves validity"))
        .collect();
    Some(Normalized {
        dataset: Dataset::new(rankings).expect("projected rankings share the support"),
        mapping: kept.mapping,
    })
}

/// Core of unification: restrict each ranking to `kept` and append its
/// missing kept elements as one final bucket; with `broken`, split every
/// bucket into singletons.
fn unify(raw: &[Ranking], kept: Kept, broken: bool) -> Option<Normalized> {
    if kept.mapping.is_empty() {
        return None;
    }
    let rankings: Vec<Ranking> = raw
        .iter()
        .map(|r| {
            let mut buckets = kept.restrict(r);
            let missing: Vec<Element> = (0..kept.mapping.len() as u32)
                .filter(|&d| !r.contains(kept.mapping[d as usize]))
                .map(Element)
                .collect();
            if !missing.is_empty() {
                buckets.push(missing);
            }
            if broken {
                // Table 3's d_b is made of permutations only: *every*
                // bucket (pre-existing ties included) is broken,
                // "arbitrarily" = ascending id.
                buckets = buckets
                    .into_iter()
                    .flat_map(|mut b| {
                        b.sort_unstable();
                        b.into_iter().map(|e| vec![e]).collect::<Vec<_>>()
                    })
                    .collect();
            }
            Ranking::from_buckets(buckets).expect("unification preserves validity")
        })
        .collect();
    Some(Normalized {
        dataset: Dataset::new(rankings).expect("unified rankings share the support"),
        mapping: kept.mapping,
    })
}

/// **Unification** (§5.1): each ranking gets a final *unification bucket*
/// with the elements it is missing. Returns `None` for an empty input.
pub fn unification(raw: &[Ranking]) -> Option<Normalized> {
    unify(raw, keep(raw, 1), false)
}

/// **Unification broken** (§5.1): like [`unification`] but the unification
/// bucket is broken into singletons, so permutation inputs stay
/// permutations (used by [Ali & Meilă 2012]).
pub fn unification_broken(raw: &[Ranking]) -> Option<Normalized> {
    unify(raw, keep(raw, 1), true)
}

/// Top-k retention (§6.1.3, Figure 1): keep whole buckets until at least
/// `k` elements are retained.
pub fn top_k(r: &Ranking, k: usize) -> Ranking {
    let mut buckets = Vec::new();
    let mut count = 0usize;
    for b in r.buckets() {
        if count >= k {
            break;
        }
        buckets.push(b.to_vec());
        count += b.len();
    }
    Ranking::from_buckets(buckets).expect("prefix of a valid ranking")
}

/// The §8 future-work intermediate process: drop elements appearing in
/// fewer than `min_rankings` inputs, then unify the rest. `min_rankings =
/// m` degenerates to projection's element set; `min_rankings = 1` to
/// unification.
pub fn threshold_k(raw: &[Ranking], min_rankings: usize) -> Option<Normalized> {
    unify(raw, keep(raw, min_rankings), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking_labeled;
    use crate::Universe;

    /// The paper's Table 3 raw dataset d_r.
    fn table3() -> (Vec<Ranking>, Universe) {
        let mut u = Universe::new();
        let raw = ["[{A},{D},{B}]", "[{B},{E,A}]", "[{D},{A,B},{C}]"]
            .iter()
            .map(|l| parse_ranking_labeled(l, &mut u).unwrap())
            .collect();
        (raw, u)
    }

    fn show(norm: &Normalized, u: &Universe, i: usize) -> String {
        norm.denormalize(norm.dataset.ranking(i)).display_with(u)
    }

    #[test]
    fn table3_projection() {
        let (raw, u) = table3();
        let p = projection(&raw).unwrap();
        assert_eq!(show(&p, &u, 0), "[{A},{B}]");
        assert_eq!(show(&p, &u, 1), "[{B},{A}]");
        assert_eq!(show(&p, &u, 2), "[{A,B}]");
        assert_eq!(p.dataset.n(), 2);
    }

    #[test]
    fn table3_unification() {
        // Paper (up to the arbitrary order inside the unification bucket):
        // du = [{A},{D},{B},{C,E}], [{B},{E,A},{C,D}], [{D},{A,B},{C},{E}].
        // Interning order is A=0, D=1, B=2, E=3, C=4, so tied elements
        // render in id order (e.g. {E,C} instead of {C,E}).
        let (raw, u) = table3();
        let n = unification(&raw).unwrap();
        assert_eq!(show(&n, &u, 0), "[{A},{D},{B},{E,C}]");
        assert_eq!(show(&n, &u, 1), "[{B},{A,E},{D,C}]");
        assert_eq!(show(&n, &u, 2), "[{D},{A,B},{C},{E}]");
        assert_eq!(n.dataset.n(), 5);
    }

    #[test]
    fn table3_unification_broken() {
        // Paper's d_b: all rankings become permutations; the break order is
        // arbitrary (we use ascending id).
        let (raw, u) = table3();
        let n = unification_broken(&raw).unwrap();
        assert_eq!(show(&n, &u, 0), "[{A},{D},{B},{E},{C}]");
        assert_eq!(show(&n, &u, 1), "[{B},{A},{E},{D},{C}]");
        assert_eq!(show(&n, &u, 2), "[{D},{A},{B},{C},{E}]");
        assert!(n.dataset.all_permutations());
    }

    #[test]
    fn projection_empty_intersection_is_none() {
        let mut u = Universe::new();
        let raw: Vec<Ranking> = ["[{A}]", "[{B}]"]
            .iter()
            .map(|l| parse_ranking_labeled(l, &mut u).unwrap())
            .collect();
        assert!(projection(&raw).is_none());
        // Unification still works.
        assert_eq!(unification(&raw).unwrap().dataset.n(), 2);
    }

    #[test]
    fn top_k_keeps_whole_buckets() {
        // Figure 1: [{A},{B,C},{F},{D},{E}] with k=2 → [{A},{B,C}].
        let mut u = Universe::new();
        let r = parse_ranking_labeled("[{A},{B,C},{F},{D},{E}]", &mut u).unwrap();
        let t = top_k(&r, 2);
        assert_eq!(t.display_with(&u), "[{A},{B,C}]");
        assert_eq!(top_k(&r, 1).display_with(&u), "[{A}]");
        assert_eq!(top_k(&r, 100), r);
    }

    #[test]
    fn threshold_k_interpolates() {
        let (raw, _) = table3();
        // m = 3; k = 3 keeps elements in all rankings = projection's set,
        // k = 1 keeps everything = unification's set.
        let t3 = threshold_k(&raw, 3).unwrap();
        assert_eq!(t3.dataset.n(), projection(&raw).unwrap().dataset.n());
        let t1 = threshold_k(&raw, 1).unwrap();
        assert_eq!(t1.dataset.n(), unification(&raw).unwrap().dataset.n());
        // k = 2: A, B, D appear ≥ 2 times; C, E once each.
        let t2 = threshold_k(&raw, 2).unwrap();
        assert_eq!(t2.dataset.n(), 3);
    }

    #[test]
    fn denormalize_roundtrip() {
        let (raw, _) = table3();
        let n = unification(&raw).unwrap();
        let consensus = n.dataset.ranking(0).clone();
        let denorm = n.denormalize(&consensus);
        assert_eq!(denorm.n_elements(), consensus.n_elements());
        // Re-normalizing the denormalized ranking gives back the original.
        let back = denorm.map_elements(|e| Element(n.mapping.binary_search(&e).unwrap() as u32));
        assert_eq!(back.unwrap(), consensus);
    }
}
