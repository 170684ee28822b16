//! Tiny-scale runs of the experimental harness asserting the paper's
//! *qualitative* findings — the conclusions DESIGN.md §5 says the
//! dataset facsimiles preserve, and that `repro` reproduces at full
//! scale (DESIGN.md §6).

use bench::{evaluate_dataset, GapAccumulator, Scale};
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::{MarkovGen, UniformSampler};

fn uniform_accumulator(n: usize, count: usize) -> GapAccumulator {
    let sampler = UniformSampler::new(n);
    let mut rng = rand::SeedableRng::seed_from_u64(7);
    let scale = Scale::quick();
    let mut acc = GapAccumulator::new();
    for i in 0..count {
        let data = sampler.sample_dataset(n, 5 + i % 4, &mut rng);
        acc.add(&evaluate_dataset(
            &data,
            &paper_panel(5),
            true,
            &scale,
            i as u64,
        ));
    }
    acc
}

#[test]
fn table5_shape_bioconsert_wins() {
    // Paper Table 5: BioConsert rank #1 with ~0 gap; MEDRank and
    // Pick-a-Perm at the bottom; KwikSortMin between.
    let acc = uniform_accumulator(10, 8);
    assert_eq!(acc.proved, acc.total, "n=10 must always prove optimality");
    let s = acc.stats();
    let gap = |name: &str| s[name].mean_gap();
    assert!(
        gap("BioConsert") <= 0.01,
        "BioConsert gap {}",
        gap("BioConsert")
    );
    assert!(gap("BioConsert") <= gap("BordaCount"));
    assert!(gap("KwikSortMin") <= gap("KwikSort") + 1e-12);
    assert!(gap("RepeatChoiceMin") <= gap("RepeatChoice") + 1e-12);
    assert!(gap("BioConsert") <= gap("MEDRank(0.5)"));
    // §7.1.1 fourth point: raising the threshold does not help MEDRank.
    assert!(gap("MEDRank(0.5)") <= gap("MEDRank(0.7)") + 0.05);
}

#[test]
fn exact_always_first_and_zero_gap() {
    let acc = uniform_accumulator(8, 6);
    let exact = &acc.stats()["ExactAlgorithm"];
    assert_eq!(exact.mean_gap(), 0.0);
    assert_eq!(exact.pct_first(), 100.0);
    assert_eq!(exact.pct_zero(), 100.0);
}

#[test]
fn figure4_shape_similarity_helps_kwiksort() {
    // Paper Figure 4: KwikSort's gap shrinks dramatically on similar
    // datasets (×24 between t = 50 000 and t = 50).
    let scale = Scale::quick();
    let mut rng = rand::SeedableRng::seed_from_u64(3);
    let gap_at = |t: usize, rng: &mut rand::rngs::StdRng| {
        let mut acc = GapAccumulator::new();
        for i in 0..4 {
            let data = MarkovGen::identity_seeded(12, t).dataset(7, rng);
            acc.add(&evaluate_dataset(&data, &paper_panel(5), true, &scale, i));
        }
        acc.stats()["KwikSort"].mean_gap()
    };
    let similar = gap_at(10, &mut rng);
    let dissimilar = gap_at(20_000, &mut rng);
    assert!(
        similar <= dissimilar + 1e-9,
        "KwikSort: similar {similar} vs dissimilar {dissimilar}"
    );
    assert!(
        similar < 0.02,
        "KwikSort should be near-optimal on similar data"
    );
}

#[test]
fn unification_hurts_positional_algorithms() {
    // Paper Figure 5 / §7.3.2: unification's ending buckets devastate
    // BordaCount but not BioConsert. Construct the shape directly:
    // dissimilar top-k lists, unified.
    let scale = Scale::quick();
    let mut rng = rand::SeedableRng::seed_from_u64(5);
    let gen = rank_aggregation_with_ties::ragen::UnifiedGen {
        n_full: 40,
        t: 200_000,
        target_n: 14,
    };
    let mut acc = GapAccumulator::new();
    for i in 0..4 {
        let (data, _, _) = gen.generate(7, &mut rng);
        acc.add(&evaluate_dataset(&data, &paper_panel(5), true, &scale, i));
    }
    let s = acc.stats();
    assert!(
        s["BordaCount"].mean_gap() > 4.0 * s["BioConsert"].mean_gap().max(0.01),
        "Borda {} should be far worse than BioConsert {}",
        s["BordaCount"].mean_gap(),
        s["BioConsert"].mean_gap()
    );
}

#[test]
fn guidance_agrees_with_measured_features() {
    let sampler = UniformSampler::new(12);
    let mut rng = rand::SeedableRng::seed_from_u64(1);
    let data = sampler.sample_dataset(12, 7, &mut rng);
    let features = DatasetFeatures::measure(&data);
    assert_eq!(features.n, 12);
    let rec = recommend(&features, Priority::Quality);
    assert_eq!(rec.algorithm, "ExactAlgorithm", "n=12 is exactly solvable");
}
