//! MEDRank's linear-time kernel against the per-depth scan it replaced.
//!
//! The reference below is the textbook reading of §3.3: after each bucket
//! depth, rescan every element and place those whose sighting count has
//! reached the threshold. It costs `O(depth·n)`, which is quadratic on
//! near-permutations; the kernel places each element the moment its count
//! crosses the threshold instead. Both must return the same `Ranking`.

use proptest::prelude::*;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::rank_core::algorithms::medrank::MedRank;

const THRESHOLDS: [f64; 4] = [0.1, 0.5, 0.7, 0.99];

/// The per-depth-scan MEDRank, kept as a test oracle only.
fn reference_medrank(data: &Dataset, h: f64) -> Ranking {
    let n = data.n();
    let need = (h * data.m() as f64).ceil().max(1.0) as u32;
    let max_depth = data
        .rankings()
        .iter()
        .map(|r| r.n_buckets())
        .max()
        .unwrap_or(0);
    let mut seen = vec![0u32; n];
    let mut placed = vec![false; n];
    let mut buckets: Vec<Vec<Element>> = Vec::new();
    let mut remaining = n;
    for depth in 0..max_depth {
        for r in data.rankings() {
            if depth < r.n_buckets() {
                for &e in r.bucket(depth) {
                    seen[e.index()] += 1;
                }
            }
        }
        let mut new_bucket = Vec::new();
        for id in 0..n {
            if !placed[id] && seen[id] >= need {
                placed[id] = true;
                new_bucket.push(Element(id as u32));
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
    Ranking::from_buckets(buckets).expect("buckets partition the elements")
}

fn assert_matches_reference(data: &Dataset) {
    for h in THRESHOLDS {
        let fast = MedRank::new(h).run(data, &mut AlgoContext::seeded(0));
        assert_eq!(fast, reference_medrank(data, h), "h = {h}");
    }
}

/// A tied ranking of `0..n` with its own bucket count: each ranking first
/// draws at most `k` buckets, so one dataset mixes coarse and fine inputs.
fn ranking_strategy(n: usize) -> impl Strategy<Value = Ranking> {
    (1..=n as u32).prop_flat_map(move |k| {
        prop::collection::vec(0..k, n).prop_map(|idx| {
            let mut used = idx.clone();
            used.sort_unstable();
            used.dedup();
            let compact: Vec<u32> = idx
                .iter()
                .map(|v| used.binary_search(v).unwrap() as u32)
                .collect();
            Ranking::from_bucket_indices(&compact).expect("compacted")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linear_medrank_equals_per_depth_scan(
        data in (1usize..=40, 1usize..=9).prop_flat_map(|(n, m)| {
            prop::collection::vec(ranking_strategy(n), m)
                .prop_map(|rs| Dataset::new(rs).expect("same support"))
        })
    ) {
        assert_matches_reference(&data);
    }
}

/// The input shape that made the per-depth scan quadratic: n = 5 000
/// near-permutations (affine orders, every tenth position tied with the
/// next), so thousands of bucket depths each held a full rescan.
#[test]
fn near_permutations_at_five_thousand_elements_match_the_reference() {
    let n = 5_000u32;
    let rankings = [(7u32, 0u32), (11, 1), (13, 2), (17, 3), (19, 4)]
        .iter()
        .map(|&(step, offset)| {
            let mut buckets: Vec<Vec<Element>> = Vec::new();
            for pos in 0..n {
                let e = Element((pos * step + offset) % n);
                match buckets.last_mut() {
                    Some(last) if pos % 10 == 1 => last.push(e),
                    _ => buckets.push(vec![e]),
                }
            }
            Ranking::from_buckets(buckets).expect("affine order is a permutation")
        })
        .collect();
    let data = Dataset::new(rankings).expect("same support");
    assert!(data.rankings().iter().all(|r| r.n_buckets() == 4_500));
    assert_matches_reference(&data);
}
