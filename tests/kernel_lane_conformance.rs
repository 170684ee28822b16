//! Differential conformance suite for the two pairwise-cost lanes
//! (DESIGN.md §16): the matrix-free lane must be **bit-identical** to the
//! dense lane — same consensus ranking, same exact integer score — for
//! every algorithm that supports it, and the chunked (SIMD-style) row
//! scans must equal their scalar twins on every input, including lengths
//! not divisible by the unroll width and fully tied rows.

use proptest::prelude::*;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::distance::{
    generalized_kendall_tau_chunked, pair_counts, CHUNKED_KENDALL_MAX_N,
};
use rank_aggregation_with_ties::rank_core::pairs::LANES;
use rank_aggregation_with_ties::rank_core::positional::{CostProvider, PositionalCosts};

fn ranking_strategy(n: usize) -> impl Strategy<Value = Ranking> {
    prop::collection::vec(0..n as u32, n).prop_map(|idx| {
        let mut used: Vec<u32> = idx.clone();
        used.sort_unstable();
        used.dedup();
        let remap: Vec<u32> = idx
            .iter()
            .map(|v| used.iter().position(|u| u == v).unwrap() as u32)
            .collect();
        Ranking::from_bucket_indices(&remap).expect("compacted")
    })
}

/// Random datasets with ties; `n` deliberately straddles the unroll width
/// [`LANES`] (= 8) so both the chunked body and the scalar tail of every
/// kernel are exercised, including n ≡ 0 (mod 8) and n < 8.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..=19, 2usize..=6).prop_flat_map(|(n, m)| {
        prop::collection::vec(ranking_strategy(n), m)
            .prop_map(|rs| Dataset::new(rs).expect("dense"))
    })
}

/// One ranking per element count where everything is tied in one bucket.
fn all_tied(n: usize) -> Ranking {
    Ranking::from_bucket_indices(&vec![0u32; n]).expect("single bucket")
}

/// The specs the matrix-free lane supports (`AlgoSpec::supports_matrix_free`).
fn matrix_free_specs() -> Vec<AlgoSpec> {
    vec![
        AlgoSpec::Borda,
        AlgoSpec::Copeland,
        AlgoSpec::MedRank(0.5),
        AlgoSpec::MedRank(0.8),
        AlgoSpec::Mc4,
    ]
}

/// Run one spec on both lanes with fresh engines and return the reports
/// (dense, matrix-free), asserting the lane bookkeeping on the way.
fn run_both_lanes(data: &Dataset, spec: AlgoSpec, seed: u64) -> (ConsensusReport, ConsensusReport) {
    let dense_engine = Engine::new();
    let dense = dense_engine.run(
        &AggregationRequest::new(data.clone(), spec.clone())
            .with_seed(seed)
            .with_lane(LanePolicy::Dense),
    );
    assert_eq!(dense.lane, KernelLane::Dense);
    assert_eq!(dense_engine.cache().builds(), 1);

    let free_engine = Engine::new();
    let free = free_engine.run(
        &AggregationRequest::new(data.clone(), spec)
            .with_seed(seed)
            .with_lane(LanePolicy::MatrixFree),
    );
    assert_eq!(free.lane, KernelLane::MatrixFree);
    assert_eq!(
        free_engine.cache().builds(),
        0,
        "the matrix-free lane must never build a cost matrix"
    );
    (dense, free)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole contract: for every supporting algorithm, the matrix-free
    /// lane returns the same ranking and the same exact score as the
    /// dense lane — bit-identical, not approximately equal.
    #[test]
    fn matrix_free_lane_is_bit_identical_to_dense(
        data in dataset_strategy(),
        seed in 0u64..100,
    ) {
        for spec in matrix_free_specs() {
            let (dense, free) = run_both_lanes(&data, spec.clone(), seed);
            prop_assert_eq!(&dense.ranking, &free.ranking, "{} seed {}", spec, seed);
            prop_assert_eq!(dense.score, free.score, "{} seed {}", spec, seed);
            prop_assert_eq!(dense.outcome, free.outcome, "{} seed {}", spec, seed);
        }
    }

    /// The on-demand positional provider recomputes every dense row
    /// exactly: same interleaved layout, same integers, zero resident
    /// bytes.
    #[test]
    fn positional_rows_equal_dense_matrix_rows(data in dataset_strategy()) {
        let dense = PairTable::build(&data);
        let free = PositionalCosts::new(&data);
        let mut buf = vec![0u32; 2 * data.n()];
        for a in 0..data.n() {
            let e = Element(a as u32);
            prop_assert_eq!(free.row_into(e, &mut buf), dense.row(e), "row {}", a);
        }
        prop_assert_eq!(free.n(), data.n());
        prop_assert_eq!(free.m(), data.m() as u32);
        prop_assert_eq!(free.bytes(), 0);
    }

    /// The chunked 8-wide score scan equals the scalar loop on every
    /// candidate — the unrolled lanes are pure integer math, so this is
    /// exact equality, not tolerance.
    #[test]
    fn chunked_score_equals_scalar_score(
        (data, cand) in dataset_strategy().prop_flat_map(|d| {
            let n = d.n();
            (Just(d), ranking_strategy(n))
        })
    ) {
        let pairs = PairTable::build(&data);
        prop_assert_eq!(pairs.score(&cand), pairs.score_scalar(&cand));
        prop_assert_eq!(pairs.score(&cand), kemeny_score(&cand, &data));
    }

    /// Same for the chunked lower-bound scan.
    #[test]
    fn chunked_lower_bound_equals_scalar(data in dataset_strategy()) {
        let pairs = PairTable::build(&data);
        prop_assert_eq!(pairs.lower_bound(), pairs.lower_bound_scalar());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked Kendall scan agrees with the pair-count path on
    /// complete tied rankings (its dispatch precondition), at small n and
    /// past [`CHUNKED_KENDALL_MAX_N`], where the public entry point (and
    /// with it the matrix-free scorer) switches to the Fenwick path.
    #[test]
    fn chunked_kendall_equals_pair_counts(
        pairs in (2usize..=19, CHUNKED_KENDALL_MAX_N + 1..=300).prop_flat_map(|(small, large)| {
            (
                (ranking_strategy(small), ranking_strategy(small)),
                (ranking_strategy(large), ranking_strategy(large)),
            )
        })
    ) {
        let ((r, s), (big_r, big_s)) = pairs;
        for (r, s) in [(&r, &s), (&big_r, &big_s)] {
            let chunked = generalized_kendall_tau_chunked(r, s);
            prop_assert_eq!(chunked, pair_counts(r, s).generalized(), "n = {}", r.n_elements());
            // …and the public entry point dispatches consistently.
            prop_assert_eq!(chunked, generalized_kendall_tau(r, s), "n = {}", r.n_elements());
        }
    }
}

// ------------------------------------------------- deterministic edges

#[test]
fn tail_lengths_around_the_unroll_width_are_exact() {
    // n = LANES - 1, LANES, LANES + 1, 2·LANES + 3: empty chunk body,
    // exact multiple (empty tail), and ragged tails on both sides.
    for n in [LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
        let rankings: Vec<Ranking> = (0..3u32)
            .map(|k| {
                let idx: Vec<u32> = (0..n as u32)
                    .map(|e| (e * (k + 3) + k) % n as u32)
                    .collect();
                let mut used = idx.clone();
                used.sort_unstable();
                used.dedup();
                let remap: Vec<u32> = idx
                    .iter()
                    .map(|v| used.iter().position(|u| u == v).unwrap() as u32)
                    .collect();
                Ranking::from_bucket_indices(&remap).unwrap()
            })
            .collect();
        let data = Dataset::new(rankings).unwrap();
        let pairs = PairTable::build(&data);
        assert_eq!(pairs.lower_bound(), pairs.lower_bound_scalar(), "n={n}");
        for r in data.rankings() {
            assert_eq!(pairs.score(r), pairs.score_scalar(r), "n={n}");
        }
    }
}

#[test]
fn all_tied_rows_agree_across_lanes_and_scans() {
    // Every ranking one bucket: all pairwise decisions are ties, the
    // degenerate corner where a sign error between the lanes' tie-cost
    // conventions would show up first.
    for n in [5usize, 8, 13] {
        let data = Dataset::new(vec![all_tied(n), all_tied(n), all_tied(n)]).unwrap();
        let pairs = PairTable::build(&data);
        let free = PositionalCosts::new(&data);
        let mut buf = vec![0u32; 2 * n];
        for a in 0..n {
            let e = Element(a as u32);
            assert_eq!(free.row_into(e, &mut buf), pairs.row(e), "n={n} row {a}");
        }
        let tied = all_tied(n);
        assert_eq!(pairs.score(&tied), pairs.score_scalar(&tied), "n={n}");
        assert_eq!(pairs.score(&tied), 0, "consensus of all-tied inputs");
        assert_eq!(pairs.lower_bound(), pairs.lower_bound_scalar(), "n={n}");
        assert_eq!(generalized_kendall_tau_chunked(&tied, &tied), 0);
        for spec in matrix_free_specs() {
            let (dense, free) = run_both_lanes(&data, spec.clone(), 7);
            assert_eq!(dense.ranking, free.ranking, "{spec} n={n}");
            assert_eq!(dense.score, free.score, "{spec} n={n}");
        }
    }
}

#[test]
fn five_thousand_elements_run_matrix_free_without_any_matrix_build() {
    // The acceptance-scale panel: n = 5000 on the matrix-free lane. A
    // dense build here would be 200 MB and O(m·n²) work; the lane
    // contract is that the MatrixCache build counter stays at zero.
    let n: usize = 5000;
    let rankings: Vec<Ranking> = (0..3u32)
        .map(|k| {
            // Affine permutation of 0..n (gcd(step, n) = 1), pairs of
            // adjacent images tied into buckets of two.
            let step = [7u64, 11, 13][k as usize];
            let idx: Vec<u32> = (0..n as u64)
                .map(|e| (((e * step + k as u64) % n as u64) / 2) as u32)
                .collect();
            Ranking::from_bucket_indices(&idx).unwrap()
        })
        .collect();
    let data = Dataset::new(rankings).unwrap();
    let engine = Engine::new();
    let requests = AggregationRequest::batch(data)
        .spec(AlgoSpec::Borda)
        .spec(AlgoSpec::Copeland)
        .spec(AlgoSpec::MedRank(0.5))
        .seed(11)
        .policy(ExecPolicy::default().with_lane(LanePolicy::MatrixFree))
        .build();
    let reports = engine.run_batch(&requests);
    assert_eq!(reports.len(), 3);
    for report in &reports {
        assert_eq!(report.lane, KernelLane::MatrixFree, "{}", report.spec);
        assert!(report.ranking.n_elements() == n, "{}", report.spec);
        assert!(report.outcome.completed(), "{}", report.spec);
    }
    assert_eq!(
        engine.cache().builds(),
        0,
        "n=5000 matrix-free panel must never touch the dense cache"
    );
}

#[test]
fn unsupported_specs_fall_back_to_dense_even_when_asked() {
    // BioConsert's inner loop needs random access to all n² costs; an
    // explicit MatrixFree request on it resolves to the dense lane rather
    // than running a kernel that would thrash O(m·n) row recomputation.
    let data = Dataset::new(vec![all_tied(6), all_tied(6)]).unwrap();
    let request =
        AggregationRequest::new(data, AlgoSpec::BioConsert).with_lane(LanePolicy::MatrixFree);
    assert_eq!(request.resolved_lane(), KernelLane::Dense);
    let engine = Engine::new();
    let report = engine.run(&request);
    assert_eq!(report.lane, KernelLane::Dense);
    assert_eq!(engine.cache().builds(), 1);
}
