//! `paper-panel`: the library path. Dataset text goes through `parse`,
//! `normalize` and `Engine::run_batch`, one caller thread in a closed
//! loop. Each round aggregates a small slice (full paper panel plus
//! `Exact`, gaps against the certified optimum) and a mid slice (the
//! panel without Ailon at n = 200 and n = 1000).

use crate::checks;
use crate::inputs::{self, Kind};
use crate::metrics::{sanitize, solve_metric};
use crate::stats::{mean, ms, quantile, Recorder, Spans};
use rank_core::engine::{
    paper_panel, AggregationRequest, AlgoSpec, ConsensusReport, Engine, Normalization,
};
use rank_core::parse::parse_dataset_lines;
use rank_core::{score, Universe};
use std::sync::Arc;
use std::time::Instant;

/// Repeat count of the panel's "Min" variants.
const MIN_RUNS: usize = 10;

/// Input sizes; [`Sizes::full`] is the benchmark, [`Sizes::tiny`] the
/// smoke tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Small slice: `(kind, n, m)` per instance of one round.
    pub small: Vec<(Kind, usize, usize)>,
    /// Mid slice: `(label, kind, n, m)` per dataset of one round; the
    /// `n200` and `n1000` labels name the latency metrics and the
    /// matrix-build layers they feed.
    pub mid: Vec<(&'static str, Kind, usize, usize)>,
    /// Rounds generated before the cycle repeats. Each has its own
    /// small instances; the mid datasets repeat every `mid_rounds`.
    pub rounds: usize,
    /// Distinct mid-slice rounds. At least two for a timed run, so a
    /// dataset is always evicted from the engine's 8-entry matrix cache
    /// before it comes round again and every panel pays its build.
    pub mid_rounds: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        let markov = Kind::Markov {
            steps_per_element: 5,
        };
        Sizes {
            // Uniform instances at n = 15, not 20: at n = 20 a single
            // uniform instance can hold Ailon's LP and the exact search
            // for over a second (p90 0.5 s, max 1.7 s over 80 seeds)
            // and dominate its round; at n = 15 the p90 is 17 ms. Many
            // small instances per round, so the tail percentile rests on
            // hundreds of distinct instances per run.
            small: [vec![(Kind::Uniform, 15, 8); 32], vec![(markov, 20, 8); 16]].concat(),
            // The n = 200 times fall in two clusters (Markov 10–27 ms,
            // uniform 33–60 ms). A median over both sat in the gap and
            // swung between them from one run to the next (21 to 38 ms
            // in one calm set), so `panel_n200_p50_ms` is the median of
            // the uniform datasets, labelled `n200`; the Markov one runs
            // in every round under its own label, which only
            // `panel_per_s` reads.
            mid: vec![
                ("n200-markov", markov, 200, 8),
                ("n1000", markov, 1000, 8),
                ("n200", Kind::Uniform, 200, 8),
                ("n200", Kind::Uniform, 200, 8),
            ],
            rounds: 48,
            // A run gets through about 30 rounds, so nearly every mid
            // dataset it times is a distinct one. The n = 200 times fall
            // in two clusters (Markov 10–27 ms, uniform 33–60 ms), and
            // the median sits in the uniform one: with only eight mid
            // rounds, a seed's few uniform datasets still moved it by up
            // to a fifth from one seed to the next.
            mid_rounds: 32,
        }
    }

    pub fn tiny() -> Sizes {
        let markov = Kind::Markov {
            steps_per_element: 5,
        };
        Sizes {
            small: vec![(Kind::Uniform, 6, 4), (markov, 6, 4)],
            mid: vec![("n200", markov, 12, 4), ("n1000", markov, 16, 4)],
            rounds: 2,
            mid_rounds: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    Small,
    Mid(&'static str),
}

#[derive(Clone)]
struct Item {
    slice: Slice,
    text: String,
}

/// The warm-up round and the timed rounds, flattened in order.
fn generate(sizes: &Sizes, seed: u64) -> (Vec<Item>, Vec<Item>) {
    let mut small_rng = inputs::rng(seed, 1);
    let mut mid_rng = inputs::rng(seed, 2);
    let mut round = || -> Vec<Item> {
        sizes
            .small
            .iter()
            .map(|&(kind, n, m)| Item {
                slice: Slice::Small,
                text: inputs::text(&kind.generate(n, m, &mut small_rng)),
            })
            .collect()
    };
    let mut mid = || -> Vec<Item> {
        sizes
            .mid
            .iter()
            .map(|&(label, kind, n, m)| Item {
                slice: Slice::Mid(label),
                text: inputs::text(&kind.generate(n, m, &mut mid_rng)),
            })
            .collect()
    };
    // The warm-up round never comes back.
    let warm = [round(), mid()].concat();
    let mids: Vec<Vec<Item>> = (0..sizes.mid_rounds).map(|_| mid()).collect();
    let timed = (0..sizes.rounds)
        .flat_map(|r| [round(), mids[r % mids.len()].clone()].concat())
        .collect();
    (warm, timed)
}

/// What one aggregated dataset produced.
struct Aggregated {
    latency_ms: f64,
    /// `Some` in traced rounds: the cost-matrix build timed from
    /// outside, before the batch (which then hits the cache).
    build_ms: Option<f64>,
    batch_ms: f64,
    builds: usize,
    data: Arc<rank_core::Dataset>,
    reports: Vec<ConsensusReport>,
}

fn aggregate(
    engine: &Engine,
    text: &str,
    specs: &[AlgoSpec],
    seed: u64,
    traced: bool,
) -> Result<Aggregated, String> {
    let builds0 = engine.cache().builds();
    let t0 = Instant::now();
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(text, &mut universe).map_err(|e| format!("parse: {e}"))?;
    let norm = Normalization::Unification
        .apply(&raw)
        .ok_or("normalize: empty dataset")?;
    let requests = AggregationRequest::batch(norm.dataset)
        .specs(specs.iter().cloned())
        .seed(seed)
        .build();
    let data = Arc::clone(&requests[0].dataset);
    let build_ms = traced.then(|| {
        let t = Instant::now();
        engine.cache().get(&data);
        ms(t.elapsed())
    });
    let tb = Instant::now();
    let reports = engine.run_batch(&requests);
    let t3 = Instant::now();
    Ok(Aggregated {
        latency_ms: ms(t3 - t0),
        build_ms,
        batch_ms: ms(t3 - tb),
        builds: engine.cache().builds() - builds0,
        data,
        reports,
    })
}

/// Check one aggregated dataset; returns the failures and, for the small
/// slice, the heuristics' m-gaps against the certified optimum.
fn check(slice: Slice, agg: &Aggregated) -> (Vec<String>, Vec<f64>) {
    let mut failures: Vec<String> = agg
        .reports
        .iter()
        .filter_map(|r| checks::dense_score(r, &agg.data).err())
        .collect();
    let mut gaps = Vec::new();
    match slice {
        Slice::Small => {
            let (exact, heuristics): (Vec<_>, Vec<_>) =
                agg.reports.iter().partition(|r| r.spec == AlgoSpec::Exact);
            match exact.first() {
                Some(exact) => {
                    failures.extend(checks::exact(exact, &heuristics).err());
                    if exact.score > 0 {
                        gaps.extend(heuristics.iter().map(|h| score::gap(h.score, exact.score)));
                    }
                }
                None => failures.push("small slice ran without Exact".to_owned()),
            }
        }
        Slice::Mid(_) => failures.extend(checks::one_build(agg.builds).err()),
    }
    (failures, gaps)
}

/// The workload's state across the slices of a run.
pub struct Panel {
    engine: Engine,
    items: Vec<Item>,
    small: Vec<AlgoSpec>,
    mid: Vec<AlgoSpec>,
    seed: u64,
    traced: bool,
    next: usize,
    spans: Spans,
    latency: Vec<(Slice, f64)>,
    gaps: Vec<f64>,
}

impl Panel {
    /// Generate the inputs and set the engine up (construction plus
    /// warm-up aggregations of one small and one mid dataset).
    pub fn new(sizes: &Sizes, seed: u64, traced: bool) -> Panel {
        let (warm, items) = generate(sizes, seed);
        let small: Vec<AlgoSpec> = paper_panel(MIN_RUNS)
            .into_iter()
            .chain([AlgoSpec::Exact])
            .collect();
        let mid: Vec<AlgoSpec> = paper_panel(MIN_RUNS)
            .into_iter()
            .filter(|s| *s != AlgoSpec::Ailon)
            .collect();
        let engine = Engine::new();
        for item in &warm[sizes.small.len() - 1..=sizes.small.len()] {
            let specs = if item.slice == Slice::Small {
                &small
            } else {
                &mid
            };
            let _ = aggregate(&engine, &item.text, specs, seed, false);
        }
        Panel {
            engine,
            items,
            small,
            mid,
            seed,
            traced,
            next: 0,
            spans: Spans::default(),
            latency: Vec::new(),
            gaps: Vec::new(),
        }
    }

    /// Aggregate datasets until `until` (at least one).
    pub fn slice(&mut self, until: Instant, rec: &mut Recorder) {
        loop {
            self.one(rec);
            if Instant::now() >= until {
                break;
            }
        }
    }

    fn one(&mut self, rec: &mut Recorder) {
        let item = &self.items[self.next % self.items.len()];
        let traced = self.traced;
        self.next += 1;
        let specs = if item.slice == Slice::Small {
            &self.small
        } else {
            &self.mid
        };
        let agg = match aggregate(&self.engine, &item.text, specs, self.seed, traced) {
            Ok(agg) => agg,
            Err(e) => return rec.op(vec![e]),
        };
        let (failures, gaps) = check(item.slice, &agg);
        rec.op(failures);
        self.gaps.extend(gaps);
        self.latency.push((item.slice, agg.latency_ms));
        let slice_name = if item.slice == Slice::Small {
            "small"
        } else {
            "mid"
        };
        let solve_ms: f64 = agg.reports.iter().map(|r| ms(r.elapsed)).sum();
        for r in &agg.reports {
            self.spans.add(
                &solve_metric(&sanitize(&r.spec.to_string()), slice_name),
                ms(r.elapsed),
            );
        }
        if let Slice::Mid(size) = item.slice {
            self.spans.add("pairs.builds", agg.builds as f64);
            if let Some(build_ms) = agg.build_ms {
                let workers = rank_core::parallel::num_threads() as f64;
                self.spans.add(&format!("pairs.build_ms.{size}"), build_ms);
                self.spans.add(
                    "parallel.efficiency",
                    (build_ms + solve_ms) / ((build_ms + agg.batch_ms) * workers),
                );
            }
        }
    }

    /// Reduce the samples into metrics. The panel path names no
    /// workload, so it adds no set-up time or overhead of its own.
    pub fn finish(self, rec: &mut Recorder) {
        let of = |pred: &dyn Fn(Slice) -> bool| -> Vec<f64> {
            self.latency
                .iter()
                .filter(|(s, _)| pred(*s))
                .map(|(_, l)| *l)
                .collect()
        };
        let mid_all = of(&|s| matches!(s, Slice::Mid(_)));
        let small_all = of(&|s| s == Slice::Small);
        let small = rec.timing("exact_panel_ms", &small_all);
        let n200 = rec.timing("panel_n200_ms", &of(&|s| s == Slice::Mid("n200")));
        let n1000 = rec.timing("panel_n1000_ms", &of(&|s| s == Slice::Mid("n1000")));
        rec.e2e(
            "panel_per_s",
            mid_all.len() as f64 / (mid_all.iter().sum::<f64>() / 1e3),
        );
        rec.e2e("panel_n200_p50_ms", n200.p50);
        rec.e2e("panel_n1000_p50_ms", n1000.p50);
        rec.e2e("exact_panel_p50_ms", small.p50);
        rec.e2e("exact_panel_p90_ms", quantile(&small_all, 90.0));
        rec.e2e("gap_mean", mean(&self.gaps));
        for name in [
            "pairs.build_ms.n200",
            "pairs.build_ms.n1000",
            "parallel.efficiency",
        ] {
            rec.layer(name, self.spans.median(name));
        }
        rec.layer("pairs.builds", self.spans.mean("pairs.builds"));
        for name in self.spans.names().filter(|n| n.starts_with("algorithms.")) {
            rec.layer(name, self.spans.median(name));
        }
    }
}
