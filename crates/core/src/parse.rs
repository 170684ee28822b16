//! Text format for rankings and datasets.
//!
//! The grammar mirrors the paper's notation:
//!
//! ```text
//! ranking  :=  '[' bucket (',' bucket)* ']'
//! bucket   :=  '{' label (',' label)* '}'
//! ```
//!
//! Labels are either raw numeric ids ([`parse_ranking`]) or arbitrary
//! whitespace-trimmed strings interned into a [`Universe`]
//! ([`parse_ranking_labeled`]). A dataset file is one ranking per non-empty,
//! non-`#`-comment line.

use crate::{Element, Ranking, RankingError, Universe};
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input did not follow the `[{..},{..}]` grammar.
    Syntax {
        /// Byte offset of the offending character.
        offset: usize,
        /// What the parser expected there.
        message: String,
    },
    /// A numeric label did not fit in `u32`.
    BadNumber {
        /// The offending token, verbatim.
        token: String,
    },
    /// Structurally invalid ranking (empty/duplicate buckets).
    Invalid(RankingError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            ParseError::BadNumber { token } => write!(f, "invalid element id: {token:?}"),
            ParseError::Invalid(e) => write!(f, "invalid ranking: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<RankingError> for ParseError {
    fn from(e: RankingError) -> Self {
        ParseError::Invalid(e)
    }
}

/// Scan `[{a,b},{c}]` once, mapping each label through `label` as it is
/// read. A `label` error is held back until the whole line has passed the
/// syntax check, so a syntax error always wins, wherever it sits.
fn scan(
    input: &str,
    mut label: impl FnMut(&str) -> Result<Element, ParseError>,
) -> Result<Vec<Vec<Element>>, ParseError> {
    let s = input.trim();
    let err = |offset: usize, message: &str| ParseError::Syntax {
        offset,
        message: message.to_owned(),
    };
    let inner = s
        .strip_prefix('[')
        .ok_or_else(|| err(0, "expected '['"))?
        .strip_suffix(']')
        .ok_or_else(|| err(s.len(), "expected ']'"))?
        .trim();
    let mut buckets = Vec::new();
    if inner.is_empty() {
        return Ok(buckets);
    }
    let mut held: Option<ParseError> = None;
    let mut rest = inner;
    loop {
        let offset = input.len() - rest.len();
        rest = rest
            .trim_start()
            .strip_prefix('{')
            .ok_or_else(|| err(offset, "expected '{'"))?;
        let close = rest
            .find('}')
            .ok_or_else(|| err(input.len() - rest.len(), "expected '}'"))?;
        let body = &rest[..close];
        // Sized exactly: the bucket is stored as is inside the `Ranking`.
        let mut bucket = Vec::with_capacity(body.matches(',').count() + 1);
        for l in body.split(',').map(str::trim) {
            if l.is_empty() {
                return Err(err(input.len() - rest.len(), "empty label"));
            }
            match label(l) {
                Ok(e) => bucket.push(e),
                Err(e) => {
                    held.get_or_insert(e);
                }
            }
        }
        buckets.push(bucket);
        rest = rest[close + 1..].trim_start();
        if rest.is_empty() {
            return match held {
                Some(e) => Err(e),
                None => Ok(buckets),
            };
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| err(input.len() - rest.len(), "expected ',' between buckets"))?;
    }
}

/// Parse a ranking with numeric element ids, e.g. `[{0},{1,2}]`.
pub fn parse_ranking(input: &str) -> Result<Ranking, ParseError> {
    let buckets = scan(input, |l| {
        l.parse().map(Element).map_err(|_| ParseError::BadNumber {
            token: l.to_owned(),
        })
    })?;
    Ok(Ranking::from_buckets(buckets)?)
}

/// Parse a ranking with arbitrary string labels, interning them into
/// `universe`, e.g. `[{A},{B,C}]`. A line that fails the syntax check
/// leaves `universe` as it was.
pub fn parse_ranking_labeled(input: &str, universe: &mut Universe) -> Result<Ranking, ParseError> {
    let before = universe.len();
    let buckets =
        scan(input, |l| Ok(universe.intern(l))).inspect_err(|_| universe.truncate(before))?;
    Ok(Ranking::from_buckets(buckets)?)
}

/// Parse a multi-line dataset file: one labeled ranking per line; blank
/// lines and lines starting with `#` are skipped. Returns the raw rankings
/// (possibly over different elements — normalize before aggregating).
pub fn parse_dataset_lines(
    input: &str,
    universe: &mut Universe,
) -> Result<Vec<Ranking>, ParseError> {
    let mut out = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_ranking_labeled(line, universe)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric() {
        for text in ["[{0}]", "[{0},{1,2}]", "[{3},{0,2},{1}]"] {
            let r = parse_ranking(text).unwrap();
            assert_eq!(r.to_string(), text);
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let r = parse_ranking("  [ {0} , { 2 , 1 } ]  ").unwrap();
        assert_eq!(r.to_string(), "[{0},{1,2}]");
    }

    #[test]
    fn labeled_parse_interns() {
        let mut u = Universe::new();
        let r = parse_ranking_labeled("[{A},{B,C}]", &mut u).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(r.display_with(&u), "[{A},{B,C}]");
    }

    #[test]
    fn paper_table3_raw_dataset_parses() {
        // Table 3's raw dataset d_r.
        let mut u = Universe::new();
        let rankings = parse_dataset_lines(
            "# raw dataset dr\n\
             [{A},{D},{B}]\n\
             \n\
             [{B},{E,A}]\n\
             [{D},{A,B},{C}]\n",
            &mut u,
        )
        .unwrap();
        assert_eq!(rankings.len(), 3);
        assert_eq!(u.len(), 5);
        assert_eq!(rankings[1].n_elements(), 3);
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(matches!(
            parse_ranking("{0}"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0}"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{}]"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0}{1}]"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_ranking("[{x}]"),
            Err(ParseError::BadNumber { .. })
        ));
        assert!(matches!(
            parse_ranking("[{0},{0}]"),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn syntax_error_leaves_universe_unchanged() {
        let mut u = Universe::new();
        parse_ranking_labeled("[{A},{B}]", &mut u).unwrap();
        // Fresh labels C and D are read before each line's syntax error.
        for bad in ["[{C},{D,}]", "[{C},{D}{A}]", "[{C},{D},]", "[{C},{D},{A]"] {
            assert!(
                matches!(
                    parse_ranking_labeled(bad, &mut u),
                    Err(ParseError::Syntax { .. })
                ),
                "{bad}"
            );
            assert_eq!(u.len(), 2, "{bad}");
            assert_eq!(u.get("C"), None, "{bad}");
            assert_eq!(u.get("D"), None, "{bad}");
        }
        // The next fresh label still gets the next dense id.
        assert_eq!(u.intern("E"), Element(2));
    }

    #[test]
    fn syntax_errors_win_over_bad_numbers() {
        // A bad number before a syntax error reports the syntax error, at
        // the same byte offset a syntax-only pass reports.
        assert_eq!(
            parse_ranking("[{x},{}]"),
            Err(ParseError::Syntax {
                offset: 7,
                message: "empty label".to_owned()
            })
        );
        assert_eq!(
            parse_ranking("[{x},{1}{2}]"),
            Err(ParseError::Syntax {
                offset: 9,
                message: "expected ',' between buckets".to_owned()
            })
        );
        assert_eq!(
            parse_ranking("[{0},{x},{y}]"),
            Err(ParseError::BadNumber {
                token: "x".to_owned()
            })
        );
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut u = Universe::new();
        assert!(matches!(
            parse_ranking_labeled("[{A},{A}]", &mut u),
            Err(ParseError::Invalid(_))
        ));
    }
}
