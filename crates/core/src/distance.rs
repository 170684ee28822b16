//! Distances between rankings (§2.1–2.2 of the paper).
//!
//! For a pair of elements `{x, y}` and a ranking `r`, the pair is in one of
//! three *states*: `x` before `y`, `y` before `x`, or tied. With unit costs
//! (the paper's choice) the generalized Kendall-τ distance `G(r, s)` is the
//! number of pairs whose state differs between `r` and `s` — a sum of
//! per-pair discrete metrics, hence itself a metric.
//!
//! [`pair_counts`] classifies all `C(n,2)` pairs in `O(n log n)` with a
//! Fenwick tree; every distance here is derived from those counts.

use crate::ranking::Ranking;

/// Classification of all element pairs of two rankings over the same
/// support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Pairs strictly ordered the same way in both rankings.
    pub concordant: u64,
    /// Pairs strictly ordered in both rankings, in opposite directions.
    pub discordant: u64,
    /// Pairs tied in `r` only.
    pub r_tied_only: u64,
    /// Pairs tied in `s` only.
    pub s_tied_only: u64,
    /// Pairs tied in both rankings.
    pub both_tied: u64,
}

impl PairCounts {
    /// Total number of pairs classified (`C(n,2)`).
    pub fn total(&self) -> u64 {
        self.concordant + self.discordant + self.r_tied_only + self.s_tied_only + self.both_tied
    }

    /// The generalized Kendall-τ distance `G` with unit costs (§2.2):
    /// inversions plus pairs tied in exactly one ranking.
    pub fn generalized(&self) -> u64 {
        self.discordant + self.r_tied_only + self.s_tied_only
    }

    /// The classical Kendall-τ count: strict inversions only (ties ignored,
    /// as the paper notes happens when `D` is applied to rankings with
    /// ties).
    pub fn strict_inversions(&self) -> u64 {
        self.discordant
    }

    /// The paper's §2.2 extension point: some works ([10, 12, 21]) charge a
    /// different cost for inversions than for (un)tying. The paper fixes
    /// both to 1; this method exposes the parameterized distance.
    pub fn weighted(&self, inversion_cost: f64, tie_cost: f64) -> f64 {
        self.discordant as f64 * inversion_cost
            + (self.r_tied_only + self.s_tied_only) as f64 * tie_cost
    }
}

/// Minimal Fenwick (binary indexed) tree for prefix counts.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(size: usize) -> Self {
        Fenwick {
            tree: vec![0; size + 1],
        }
    }

    /// Add 1 at index `i` (0-based).
    fn add(&mut self, i: usize) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of inserted values with index `<= i` (0-based); 0 if `i`
    /// underflows.
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut acc = 0u64;
        while i > 0 {
            acc += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

fn check_same_support(r: &Ranking, s: &Ranking) {
    assert_eq!(
        r.n_elements(),
        s.n_elements(),
        "rankings must be over the same elements"
    );
    debug_assert!(
        r.elements().all(|e| s.contains(e)),
        "rankings must be over the same elements"
    );
}

/// Classify all pairs of two rankings over the same support in
/// `O(n log n)`.
///
/// # Panics
/// Panics if the rankings have different supports (full check only in debug
/// builds).
pub fn pair_counts(r: &Ranking, s: &Ranking) -> PairCounts {
    check_same_support(r, s);
    let n = r.n_elements();
    let s_pos = s.positions();
    let mut c = PairCounts::default();
    let mut bit = Fenwick::new(s.n_buckets());
    let mut inserted = 0u64;
    // One r-bucket at a time, in rank order: only the s-positions inside
    // the bucket need sorting, never the whole support.
    let mut run: Vec<u32> = Vec::new();
    for bucket in r.buckets() {
        run.clear();
        run.extend(bucket.iter().map(|e| match s_pos.get(e.index()) {
            Some(&p) if p != u32::MAX => p,
            _ => panic!("rankings must be over the same elements"),
        }));
        run.sort_unstable();
        // Cross pairs against all previously inserted (strictly smaller pr).
        for &ps in &run {
            let le = bit.prefix(ps as usize);
            let lt = if ps == 0 {
                0
            } else {
                bit.prefix(ps as usize - 1)
            };
            let eq = le - lt;
            c.concordant += lt;
            c.s_tied_only += eq;
            c.discordant += inserted - le;
        }
        // Within-run pairs are tied in r; split them by s-position.
        let g = run.len() as u64;
        let mut run_same = 0u64;
        for same in run.chunk_by(|a, b| a == b) {
            let cnt = same.len() as u64;
            run_same += cnt * (cnt - 1) / 2;
        }
        c.both_tied += run_same;
        c.r_tied_only += g * (g - 1) / 2 - run_same;
        for &ps in &run {
            bit.add(ps as usize);
        }
        inserted += g;
    }
    debug_assert_eq!(c.total(), (n as u64) * (n as u64 - 1) / 2);
    c
}

/// Reference `O(n²)` classification — used by tests and property checks.
pub fn pair_counts_naive(r: &Ranking, s: &Ranking) -> PairCounts {
    check_same_support(r, s);
    let elems: Vec<_> = r.support();
    let mut c = PairCounts::default();
    for i in 0..elems.len() {
        for j in i + 1..elems.len() {
            let (a, b) = (elems[i], elems[j]);
            let ra = r.bucket_of(a).unwrap();
            let rb = r.bucket_of(b).unwrap();
            let sa = s.bucket_of(a).unwrap();
            let sb = s.bucket_of(b).unwrap();
            match (ra == rb, sa == sb) {
                (true, true) => c.both_tied += 1,
                (true, false) => c.r_tied_only += 1,
                (false, true) => c.s_tied_only += 1,
                (false, false) => {
                    if (ra < rb) == (sa < sb) {
                        c.concordant += 1;
                    } else {
                        c.discordant += 1;
                    }
                }
            }
        }
    }
    c
}

/// Largest `n` routed to [`generalized_kendall_tau_chunked`] by
/// [`generalized_kendall_tau`]: below this the branchless `O(n²)` scan
/// beats the Fenwick tree's `O(n log n)` constant factor; above it the
/// tree wins and stays the default.
pub const CHUNKED_KENDALL_MAX_N: usize = 256;

/// The generalized Kendall-τ distance `G(r, s)` with unit costs (§2.2).
///
/// Dispatches to the chunked `O(n²)` pair scan for small complete
/// rankings (`n ≤` [`CHUNKED_KENDALL_MAX_N`]) and to the `O(n log n)`
/// Fenwick classification otherwise; both paths count the same pairs and
/// return identical values (pinned by `tests/kernel_lane_conformance.rs`).
pub fn generalized_kendall_tau(r: &Ranking, s: &Ranking) -> u64 {
    let pr = r.positions();
    if r.n_elements() <= CHUNKED_KENDALL_MAX_N
        && pr.iter().all(|&p| p != u32::MAX)
        && s.positions().iter().all(|&p| p != u32::MAX)
    {
        return generalized_kendall_tau_chunked(r, s);
    }
    pair_counts(r, s).generalized()
}

/// Chunked (8-wide unrolled, auto-vectorizable) `O(n²)` evaluation of the
/// generalized Kendall-τ distance for **complete** rankings: a pair
/// contributes 1 iff its (before/after/tied) state differs between `r`
/// and `s` — `(lt_r ⊕ lt_s) ∨ (eq_r ⊕ eq_s)` over the dense position
/// vectors, branchless, with independent lane accumulators.
///
/// # Panics
/// Panics if the rankings have different supports; both must be complete
/// (no absent elements — debug-asserted).
pub fn generalized_kendall_tau_chunked(r: &Ranking, s: &Ranking) -> u64 {
    check_same_support(r, s);
    let pr = r.positions();
    let ps = s.positions();
    debug_assert!(
        pr.iter().chain(ps).all(|&p| p != u32::MAX),
        "chunked Kendall requires complete rankings"
    );
    let n = pr.len();
    const LANES: usize = crate::pairs::LANES;
    let mut lanes = [0u64; LANES];
    let mut tail = 0u64;
    for a in 0..n {
        let (pra, psa) = (pr[a], ps[a]);
        let lo = a + 1;
        let mut rc = pr[lo..].chunks_exact(LANES);
        let mut sc = ps[lo..].chunks_exact(LANES);
        for (cr, cs) in (&mut rc).zip(&mut sc) {
            for l in 0..LANES {
                let lt_r = u32::from(pra < cr[l]);
                let eq_r = u32::from(pra == cr[l]);
                let lt_s = u32::from(psa < cs[l]);
                let eq_s = u32::from(psa == cs[l]);
                lanes[l] += ((lt_r ^ lt_s) | (eq_r ^ eq_s)) as u64;
            }
        }
        for (&prb, &psb) in rc.remainder().iter().zip(sc.remainder()) {
            let lt_r = u32::from(pra < prb);
            let eq_r = u32::from(pra == prb);
            let lt_s = u32::from(psa < psb);
            let eq_s = u32::from(psa == psb);
            tail += ((lt_r ^ lt_s) | (eq_r ^ eq_s)) as u64;
        }
    }
    lanes.iter().sum::<u64>() + tail
}

/// The classical Kendall-τ distance `D` (§2.1): number of strictly inverted
/// pairs. On rankings with ties this ignores all tie-related disagreement,
/// exactly as the paper describes for `[K]` algorithms.
pub fn kendall_tau(r: &Ranking, s: &Ranking) -> u64 {
    pair_counts(r, s).strict_inversions()
}

/// Parameterized generalized distance (extension; the paper fixes both
/// costs to 1).
pub fn weighted_generalized(r: &Ranking, s: &Ranking, inversion_cost: f64, tie_cost: f64) -> f64 {
    pair_counts(r, s).weighted(inversion_cost, tie_cost)
}

/// Spearman's footrule (§2.1 mentions it as the other classical metric),
/// extended to ties with Fagin-style bucket positions: the position of a
/// bucket is the average of the positions its elements would occupy, i.e.
/// `(#elements before) + (|B| + 1) / 2`.
pub fn spearman_footrule(r: &Ranking, s: &Ranking) -> f64 {
    check_same_support(r, s);
    let bucket_positions = |x: &Ranking| -> Vec<f64> {
        let mut out = Vec::with_capacity(x.n_buckets());
        let mut seen = 0usize;
        for b in x.buckets() {
            out.push(seen as f64 + (b.len() as f64 + 1.0) / 2.0);
            seen += b.len();
        }
        out
    };
    let pr = bucket_positions(r);
    let ps = bucket_positions(s);
    r.elements()
        .map(|e| {
            let a = pr[r.bucket_of(e).unwrap()];
            let b = ps[s.bucket_of(e).unwrap()];
            (a - b).abs()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_ranking;

    fn r(text: &str) -> Ranking {
        parse_ranking(text).unwrap()
    }

    #[test]
    fn paper_section_21_example() {
        // π1 = [A,D,B,C], π2 = [A,C,B,D], π3 = [D,A,C,B]; optimal consensus
        // π* = [A,D,C,B] with S(π*, P) = 4. (A=0, B=1, C=2, D=3.)
        let p1 = r("[{0},{3},{1},{2}]");
        let p2 = r("[{0},{2},{1},{3}]");
        let p3 = r("[{3},{0},{2},{1}]");
        let opt = r("[{0},{3},{2},{1}]");
        let total = kendall_tau(&opt, &p1) + kendall_tau(&opt, &p2) + kendall_tau(&opt, &p3);
        assert_eq!(total, 4);
    }

    #[test]
    fn paper_section_22_example() {
        // r1 = [{A},{D},{B,C}], r2 = [{A},{B,C},{D}], r3 = [{D},{A,C},{B}];
        // optimal consensus r* = [{A},{D},{B,C}] has K(r*, R) = 5.
        let r1 = r("[{0},{3},{1,2}]");
        let r2 = r("[{0},{1,2},{3}]");
        let r3 = r("[{3},{0,2},{1}]");
        let opt = r("[{0},{3},{1,2}]");
        let total = generalized_kendall_tau(&opt, &r1)
            + generalized_kendall_tau(&opt, &r2)
            + generalized_kendall_tau(&opt, &r3);
        assert_eq!(total, 5);
    }

    #[test]
    fn identical_rankings_have_distance_zero() {
        let a = r("[{0},{1,2},{3}]");
        assert_eq!(generalized_kendall_tau(&a, &a), 0);
        assert_eq!(kendall_tau(&a, &a), 0);
        assert_eq!(spearman_footrule(&a, &a), 0.0);
    }

    #[test]
    fn reversal_maximizes_kendall() {
        let a = r("[{0},{1},{2},{3}]");
        let b = a.reversed();
        assert_eq!(kendall_tau(&a, &b), 6); // C(4,2)
        assert_eq!(generalized_kendall_tau(&a, &b), 6);
    }

    #[test]
    fn single_bucket_vs_permutation() {
        // All pairs are tied in one ranking, strict in the other: G = C(4,2).
        let a = r("[{0,1,2,3}]");
        let b = r("[{0},{1},{2},{3}]");
        assert_eq!(generalized_kendall_tau(&a, &b), 6);
        // ...but the classical distance sees no inversion at all — the
        // degenerate behaviour §2.2 warns about.
        assert_eq!(kendall_tau(&a, &b), 0);
    }

    #[test]
    fn counts_decompose() {
        let a = r("[{0,1},{2},{3,4}]");
        let b = r("[{2},{0},{1},{3,4}]");
        let c = pair_counts(&a, &b);
        assert_eq!(c, pair_counts_naive(&a, &b));
        assert_eq!(c.total(), 10);
        assert_eq!(c.both_tied, 1); // {3,4}
        assert_eq!(c.r_tied_only, 1); // {0,1}
                                      // {0,2} and {1,2} are inverted.
        assert_eq!(c.discordant, 2);
        assert_eq!(c.s_tied_only, 0);
        assert_eq!(c.concordant, 6);
        assert_eq!(c.generalized(), (2 + 1));
    }

    #[test]
    fn weighted_reduces_to_unit() {
        let a = r("[{0,1},{2}]");
        let b = r("[{2},{0},{1}]");
        let g = generalized_kendall_tau(&a, &b);
        assert_eq!(weighted_generalized(&a, &b, 1.0, 1.0), g as f64);
        // Zero tie cost = classical distance.
        assert_eq!(
            weighted_generalized(&a, &b, 1.0, 0.0),
            kendall_tau(&a, &b) as f64
        );
    }

    #[test]
    fn footrule_permutations() {
        let a = r("[{0},{1},{2}]");
        let b = r("[{2},{1},{0}]");
        // positions 1,2,3 vs 3,2,1 → |1-3| + |2-2| + |3-1| = 4.
        assert_eq!(spearman_footrule(&a, &b), 4.0);
    }

    #[test]
    fn footrule_bucket_positions() {
        let a = r("[{0,1}]"); // both at position 1.5
        let b = r("[{0},{1}]"); // positions 1 and 2
        assert_eq!(spearman_footrule(&a, &b), 1.0);
    }

    #[test]
    fn diaconis_graham_inequality() {
        // K ≤ F ≤ 2K for permutations (Diaconis–Graham).
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut ids: Vec<crate::Element> = (0..12).map(crate::Element).collect();
            ids.shuffle(&mut rng);
            let a = Ranking::permutation(&ids).unwrap();
            ids.shuffle(&mut rng);
            let b = Ranking::permutation(&ids).unwrap();
            let k = kendall_tau(&a, &b) as f64;
            let f = spearman_footrule(&a, &b);
            assert!(k <= f + 1e-9 && f <= 2.0 * k + 1e-9, "K={k} F={f}");
        }
    }

    #[test]
    #[should_panic(expected = "same elements")]
    fn different_sizes_panic() {
        let a = r("[{0},{1}]");
        let b = r("[{0},{1},{2}]");
        let _ = pair_counts(&a, &b);
    }
}
