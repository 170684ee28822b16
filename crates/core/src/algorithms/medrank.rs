//! MEDRank (§3.3, [Fagin, Kumar, Sivakumar 2003]), tie-adapted per §4.1.3.
//!
//! A Top-k strategy with no sorting step: the input rankings are read in
//! parallel, one bucket depth at a time. As soon as an element has been
//! seen in at least `h·m` rankings it is appended to the consensus; the
//! §4.1.3 tie adaptation reads whole buckets at once, and all elements
//! crossing the threshold at the same depth form a single consensus bucket.
//! Runs in `O(nm)`: an element's sighting count only grows, so it crosses
//! the threshold exactly once and is placed at that moment. Each input
//! bucket is read once and no depth rescans the element set, so the cost
//! does not grow with the number of buckets (near-permutations have about
//! `n` of them).
//!
//! §7.1.1 (fourth observation) finds MEDRank very sensitive to the
//! threshold: 0.5 is the value to prefer; the paper's tables report both
//! `MEDRank(0.5)` and `MEDRank(0.7)`.

use super::{AlgoContext, ConsensusAlgorithm};
use crate::dataset::Dataset;
use crate::element::Element;
use crate::ranking::Ranking;

/// MEDRank with threshold `h ∈ (0, 1)`.
#[derive(Debug, Clone, Copy)]
pub struct MedRank {
    h: f64,
}

impl MedRank {
    /// Create a MEDRank instance with the given threshold.
    ///
    /// # Panics
    /// Panics unless `0 < h < 1` (the paper's `h ∈ ]0; 1[`).
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0 && h < 1.0, "MEDRank threshold must be in (0, 1)");
        MedRank { h }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.h
    }
}

impl ConsensusAlgorithm for MedRank {
    fn name(&self) -> String {
        format!("MEDRank({})", self.h)
    }

    fn produces_ties(&self) -> bool {
        true
    }

    fn run(&self, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
        // One-shot kernel: the checkpoint records a pre-expired deadline
        // or pending cancel so the report's outcome is honest.
        let _ = ctx.checkpoint();
        let n = data.n();
        let m = data.m() as f64;
        // "as soon as an element has been read in h×m rankings": smallest
        // integer count ≥ h·m, at least 1.
        let need = (self.h * m).ceil().max(1.0) as u32;
        let max_depth = data
            .rankings()
            .iter()
            .map(|r| r.n_buckets())
            .max()
            .unwrap_or(0);

        let mut seen = vec![0u32; n];
        let mut buckets: Vec<Vec<Element>> = Vec::new();
        let mut remaining = n;

        for depth in 0..max_depth {
            // A count only grows, so each element reaches `need` exactly
            // once and is placed at that moment; `Ranking::from_buckets`
            // sorts each bucket.
            let mut new_bucket = Vec::new();
            for r in data.rankings() {
                if depth < r.n_buckets() {
                    for &e in r.bucket(depth) {
                        seen[e.index()] += 1;
                        if seen[e.index()] == need {
                            new_bucket.push(e);
                        }
                    }
                }
            }
            if !new_bucket.is_empty() {
                remaining -= new_bucket.len();
                buckets.push(new_bucket);
            }
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0, "every element reaches count m >= h*m");
        Ranking::from_buckets(buckets).expect("buckets partition the elements")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking;

    fn data(lines: &[&str]) -> Dataset {
        Dataset::new(lines.iter().map(|l| parse_ranking(l).unwrap()).collect()).unwrap()
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_must_be_fractional() {
        let _ = MedRank::new(1.0);
    }

    #[test]
    fn name_matches_paper_spelling() {
        assert_eq!(MedRank::new(0.5).name(), "MEDRank(0.5)");
        assert_eq!(MedRank::new(0.7).name(), "MEDRank(0.7)");
    }

    #[test]
    fn unanimous_inputs_reproduced() {
        let d = data(&["[{1},{0},{2}]", "[{1},{0},{2}]", "[{1},{0},{2}]"]);
        let r = MedRank::new(0.5).run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(r, parse_ranking("[{1},{0},{2}]").unwrap());
    }

    #[test]
    fn majority_threshold_on_three_rankings() {
        // m = 3, h = 0.5 → need 2 sightings. Depth 1: 0 seen twice (r1, r2),
        // 1 seen once → consensus starts with {0}.
        let d = data(&["[{0},{1},{2}]", "[{0},{2},{1}]", "[{1},{0},{2}]"]);
        let r = MedRank::new(0.5).run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(r.bucket(0), &[Element(0)]);
        assert!(d.is_complete_ranking(&r));
    }

    #[test]
    fn reads_whole_buckets_with_ties() {
        // The tie adaptation: {0,1} read together at depth 1 in both inputs
        // → they cross the threshold simultaneously and stay tied.
        let d = data(&["[{0,1},{2}]", "[{0,1},{2}]"]);
        let r = MedRank::new(0.5).run(&d, &mut AlgoContext::seeded(0));
        assert_eq!(r, parse_ranking("[{0,1},{2}]").unwrap());
    }

    #[test]
    fn higher_threshold_waits_longer() {
        // m = 4; h=0.7 → need 3. Element 0 leads in 2 rankings only, so at
        // depth 1 it has 2 < 3 sightings and cannot be placed yet.
        let d = data(&[
            "[{0},{1},{2}]",
            "[{0},{1},{2}]",
            "[{1},{0},{2}]",
            "[{1},{0},{2}]",
        ]);
        let r5 = MedRank::new(0.5).run(&d, &mut AlgoContext::seeded(0));
        let r7 = MedRank::new(0.7).run(&d, &mut AlgoContext::seeded(0));
        // h=0.5 (need 2): both 0 and 1 placed at depth 1 → tied.
        assert_eq!(r5.bucket(0).len(), 2);
        // h=0.7 (need 3): nobody placed until depth 2, then {0,1} together.
        assert_eq!(r7.bucket(0).len(), 2);
        assert!(d.is_complete_ranking(&r7));
    }

    #[test]
    fn all_elements_eventually_placed() {
        let d = data(&["[{0},{1},{2},{3},{4}]", "[{4},{3},{2},{1},{0}]"]);
        let r = MedRank::new(0.5).run(&d, &mut AlgoContext::seeded(0));
        assert!(d.is_complete_ranking(&r));
    }
}
