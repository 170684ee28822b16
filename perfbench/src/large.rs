//! `large-n`: n = 20 000, m = 8, Borda, Copeland and MEDRank(0.5)
//! through `Engine::run` on the Auto lane, which resolves to matrix-free
//! at this size. `positional` and `score` do the work; `pairs` must do
//! none.

use crate::checks;
use crate::inputs;
use crate::stats::{median, ms, Recorder, Spans};
use crate::Overhead;
use rank_core::engine::{AggregationRequest, AlgoSpec, ConsensusReport, Engine, Normalization};
use rank_core::parse::parse_dataset_lines;
use rank_core::positional::PositionalStats;
use rank_core::{Dataset, Universe};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Sizes {
    pub n: usize,
    pub m: usize,
    /// Distinct datasets the samples cycle through.
    pub datasets: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n: 20_000,
            m: 8,
            datasets: 4,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            n: 6_000,
            m: 3,
            datasets: 1,
        }
    }
}

const SPECS: [AlgoSpec; 3] = [AlgoSpec::Borda, AlgoSpec::Copeland, AlgoSpec::MedRank(0.5)];

struct Sample {
    latency_ms: f64,
    parse_ms: f64,
    normalize_ms: f64,
    builds: usize,
    data: Arc<Dataset>,
    reports: Vec<ConsensusReport>,
}

/// One dataset from text to a consensus ranking per spec.
fn aggregate(engine: &Engine, text: &str, specs: &[AlgoSpec], seed: u64) -> Result<Sample, String> {
    let builds0 = engine.cache().builds();
    let t0 = Instant::now();
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(text, &mut universe).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let norm = Normalization::Unification
        .apply(&raw)
        .ok_or("normalize: empty dataset")?;
    let t2 = Instant::now();
    let data = Arc::new(norm.dataset);
    let reports = specs
        .iter()
        .map(|spec| {
            engine.run(&AggregationRequest::new(Arc::clone(&data), spec.clone()).with_seed(seed))
        })
        .collect();
    let t3 = Instant::now();
    Ok(Sample {
        latency_ms: ms(t3 - t0),
        parse_ms: ms(t1 - t0),
        normalize_ms: ms(t2 - t1),
        builds: engine.cache().builds() - builds0,
        data,
        reports,
    })
}

/// The workload's state across the slices of a run.
pub struct Large {
    engine: Engine,
    texts: Vec<String>,
    seed: u64,
    traced: bool,
    next: usize,
    setup_s: Vec<f64>,
    spans: Spans,
    overhead: Overhead,
    latency: Vec<f64>,
}

impl Large {
    /// Generate the inputs and set the engine up `set_ups` times
    /// (construction plus a warm-up Borda run on the first dataset,
    /// from its text), keeping the last.
    pub fn new(sizes: &Sizes, seed: u64, traced: bool, set_ups: usize) -> Large {
        let mut rng = inputs::rng(seed, 3);
        // Walks of n/4 steps: ties throughout, at a fraction of the
        // generation cost of longer walks.
        let texts: Vec<String> = (0..sizes.datasets)
            .map(|_| inputs::text(&inputs::markov(sizes.n, sizes.m, sizes.n / 4, &mut rng)))
            .collect();
        let mut setup_s = Vec::new();
        let mut engine = None;
        for _ in 0..set_ups.max(1) {
            let t = Instant::now();
            let e = Engine::new();
            let _ = aggregate(&e, &texts[0], &SPECS[..1], seed);
            setup_s.push(t.elapsed().as_secs_f64());
            engine = Some(e);
        }
        Large {
            engine: engine.expect("at least one set-up"),
            texts,
            seed,
            traced,
            next: 0,
            setup_s,
            spans: Spans::default(),
            overhead: Overhead::default(),
            latency: Vec::new(),
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

    /// Aggregate one round of the input cycle.
    pub fn run_round(&mut self, rec: &mut Recorder) {
        for _ in 0..self.texts.len() {
            self.one(rec);
        }
    }

    fn one(&mut self, rec: &mut Recorder) {
        let text = &self.texts[self.next % self.texts.len()];
        // Alternate traced and plain samples, flipping the phase on every
        // pass over the datasets so each is measured both ways.
        let (pass, k) = (self.next / self.texts.len(), self.next % self.texts.len());
        let traced = self.traced && (pass + k).is_multiple_of(2);
        self.next += 1;
        let sample = match aggregate(&self.engine, text, &SPECS, self.seed) {
            Ok(sample) => sample,
            Err(e) => return rec.op(vec![e]),
        };
        let mut failures = Vec::new();
        for report in &sample.reports {
            let t = Instant::now();
            let verdict = checks::matrix_free(report, &sample.data, sample.builds);
            self.spans.add("score.kemeny_ms", ms(t.elapsed()));
            failures.extend(verdict.err());
        }
        rec.op(failures);
        self.latency.push(sample.latency_ms);
        self.overhead.add(traced, sample.latency_ms);
        self.spans.add("parse.ms", sample.parse_ms);
        self.spans.add("normalize.ms", sample.normalize_ms);
        if traced {
            let t = Instant::now();
            let stats = PositionalStats::compute(&sample.data);
            self.spans.add("positional.stats_ms", ms(t.elapsed()));
            drop(stats);
        }
    }

    /// Reduce the samples into metrics. `primary` adds the ones that
    /// belong to the workload a run is named after.
    pub fn finish(self, primary: bool, rec: &mut Recorder) {
        let summary = rec.timing("large_n_ms", &self.latency);
        rec.e2e("large_n_p50_ms", summary.p50);
        if primary {
            rec.e2e("setup_s", median(&self.setup_s));
            rec.layer("trace.overhead_pct", self.overhead.pct());
            rec.layer("pairs.builds", self.engine.cache().builds() as f64);
        }
        for name in [
            "parse.ms",
            "normalize.ms",
            "score.kemeny_ms",
            "positional.stats_ms",
        ] {
            rec.layer(name, self.spans.median(name));
        }
    }
}
