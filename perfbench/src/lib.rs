//! The repository benchmark. One run measures one workload for a given
//! number of seconds and prints, as its last stdout line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric from an untraced run (`--trace 0`), every
//! per-layer metric from a traced one (`--trace 1`).
//!
//! Every run reports the full metric set: the workload it is named after
//! and the other two paths (its companions) share the run's time in
//! fixed proportions (`SHARES`), interleaved in slices. Set-up time and
//! peak memory always belong to the named workload. See
//! README.md for the workloads and the per-layer table.

pub mod checks;
pub mod fleet;
pub mod host;
pub mod inputs;
pub mod large;
pub mod metrics;
pub mod panel;
pub mod serve;
pub mod stats;

use stats::{median, Recorder};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Latency of traced against plain operations of the same kind.
#[derive(Debug, Default)]
pub struct Overhead {
    traced: Vec<f64>,
    plain: Vec<f64>,
}

impl Overhead {
    pub fn add(&mut self, traced: bool, latency: f64) {
        if traced {
            self.traced.push(latency);
        } else {
            self.plain.push(latency);
        }
    }

    pub fn merge(&mut self, other: Overhead) {
        self.traced.extend(other.traced);
        self.plain.extend(other.plain);
    }

    /// Median traced latency over median plain latency, in percent
    /// above 100; 0 until both kinds have samples.
    pub fn pct(&self) -> f64 {
        if self.traced.is_empty() || self.plain.is_empty() {
            return 0.0;
        }
        (median(&self.traced) / median(&self.plain) - 1.0) * 100.0
    }
}

/// The three user paths; every run measures all of them.
pub const PATHS: &[&str] = &["paper-panel", "large-n", "serve-mixed"];

/// The workloads a run can be named after. `paper-panel` is measured in
/// every run but names none: the named workload only adds its own set-up
/// time and peak memory, and two names instead of three leave room for
/// runs long enough to average out the host's slow and fast periods.
pub const WORKLOADS: &[&str] = &["large-n", "serve-mixed"];

/// Input sizes for every path.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub panel: panel::Sizes,
    pub large: large::Sizes,
    pub serve: serve::Sizes,
}

impl Sizes {
    /// The benchmark's sizes, or the smoke tests' tiny ones.
    pub fn of(tiny: bool) -> Sizes {
        if tiny {
            Sizes {
                panel: panel::Sizes::tiny(),
                large: large::Sizes::tiny(),
                serve: serve::Sizes::tiny(),
            }
        } else {
            Sizes {
                panel: panel::Sizes::full(),
                large: large::Sizes::full(),
                serve: serve::Sizes::full(),
            }
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test input sizes instead of the benchmark's.
    pub tiny: bool,
    /// The `rawt` release binary the fleet runs.
    pub rawt: PathBuf,
    /// This benchmark's own binary, re-run for the memory probe.
    pub exe: PathBuf,
    /// Scratch directory for journals and logs, removed afterwards.
    pub work: PathBuf,
}

/// Set-ups per run of the named workload; `setup_s` is their median.
/// One set-up takes 10 ms (a fleet) to 100 ms (a `large-n` engine and its
/// first aggregation) and varies widely from one to the next, so a run
/// sets up many times.
const SET_UPS: usize = 25;
/// Longest rotation through the three paths. Slices rotate the paths
/// through the whole run, so each path sees the same mix of fast and
/// slow host periods (on a shared host, the same code swings up to 2×
/// over seconds to minutes).
const ROTATION_S: f64 = 3.0;
/// Each path's share of a rotation. `large-n` needs the least: its
/// aggregations take half a second each and vary little, so a sixth of
/// the run gives its median a few dozen samples. `serve-mixed` gets half,
/// so that its single client still completes a few thousand operations.
const SHARES: [(&str, f64); 3] = [
    ("paper-panel", 2.0 / 6.0),
    ("large-n", 1.0 / 6.0),
    ("serve-mixed", 3.0 / 6.0),
];

enum Path {
    Panel(panel::Panel),
    Large(large::Large),
    Serve(serve::Serve),
}

impl Path {
    fn new(workload: &str, config: &Config, set_ups: usize) -> Result<Path, String> {
        let (sizes, seed, trace) = (Sizes::of(config.tiny), config.seed, config.trace);
        Ok(match workload {
            "paper-panel" => Path::Panel(panel::Panel::new(&sizes.panel, seed, trace)),
            "large-n" => Path::Large(large::Large::new(&sizes.large, seed, trace, set_ups)),
            _ => Path::Serve(serve::Serve::new(
                &sizes.serve,
                seed,
                trace,
                set_ups,
                &config.rawt,
                &config.work,
            )?),
        })
    }

    fn slice(&mut self, until: Instant, rec: &mut Recorder) {
        match self {
            Path::Panel(p) => p.slice(until, rec),
            Path::Large(p) => p.slice(until, rec),
            Path::Serve(p) => p.slice(until),
        }
    }

    fn finish(self, primary: bool, rec: &mut Recorder) {
        match self {
            Path::Panel(p) => p.finish(rec),
            Path::Large(p) => p.finish(primary, rec),
            Path::Serve(p) => p.finish(primary, rec),
        }
    }
}

/// Run one workload with its two companions, interleaved in slices;
/// `Err` when the run could not measure at all (a fleet that never came
/// up).
pub fn run(config: &Config) -> Result<Recorder, String> {
    let primary = config.workload.as_str();
    if !WORKLOADS.contains(&primary) {
        return Err(format!(
            "unknown workload {primary:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let _ = std::fs::remove_dir_all(&config.work);
    let result = measure(config, primary);
    let _ = std::fs::remove_dir_all(&config.work);
    let mut rec = result?;
    if primary != "serve-mixed" {
        rec.e2e("peak_rss_mb", rss_probe_process(config)?);
    }
    let ok_share = 1.0 - rec.failed as f64 / rec.attempted.max(1) as f64;
    rec.e2e("ok_share", ok_share);
    Ok(rec)
}

fn measure(config: &Config, primary: &str) -> Result<Recorder, String> {
    let mut rec = Recorder::default();
    let order: Vec<&str> = std::iter::once(primary)
        .chain(PATHS.iter().copied().filter(|w| *w != primary))
        .collect();
    let mut paths = Vec::new();
    for (i, workload) in order.iter().enumerate() {
        paths.push(Path::new(
            workload,
            config,
            if i == 0 { SET_UPS } else { 1 },
        )?);
    }
    // A short run still rotates a few times.
    let rotation = (config.seconds * 3.0 / 8.0).min(ROTATION_S);
    let slices: Vec<Duration> = order
        .iter()
        .map(|w| {
            let share = SHARES
                .iter()
                .find(|(name, _)| name == w)
                .map_or(0.0, |s| s.1);
            Duration::from_secs_f64(rotation * share)
        })
        .collect();
    let start = Instant::now();
    let total = Duration::from_secs_f64(config.seconds);
    let ticks = host::cpu_ticks();
    // Stop once the time is spent, but never before every path has run.
    let count = paths.len();
    for i in 0.. {
        if i % count == 0 {
            rec.host_probe_ms.push(host::speed_probe_ms());
        }
        paths[i % count].slice(Instant::now() + slices[i % count], &mut rec);
        if i + 1 >= count && start.elapsed() >= total {
            break;
        }
    }
    rec.steal_share = host::steal_share_since(ticks);
    for (i, path) in paths.into_iter().enumerate() {
        path.finish(i == 0, &mut rec);
    }
    Ok(rec)
}

/// Peak resident set of a library workload, measured in a fresh process
/// (`--rss-probe`) that runs only that workload: in the benchmark process
/// the companions' memory would mix in.
fn rss_probe_process(config: &Config) -> Result<f64, String> {
    let mut command = std::process::Command::new(&config.exe);
    command.args([
        "--rss-probe",
        "--workload",
        &config.workload,
        "--seed",
        &config.seed.to_string(),
    ]);
    if config.tiny {
        command.arg("--tiny");
    }
    let out = command
        .output()
        .map_err(|e| format!("memory probe {}: {e}", config.exe.display()))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| {
            format!(
                "memory probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// The memory probe itself: set the workload up and run one round of
/// its inputs (which fills the engine's matrix cache), then read `VmHWM`.
pub fn rss_probe(workload: &str, tiny: bool, seed: u64) -> Result<f64, String> {
    let mut sizes = Sizes::of(tiny);
    let mut rec = Recorder::default();
    match workload {
        "large-n" => {
            sizes.large.datasets = 1;
            large::Large::new(&sizes.large, seed, false, 1).run_round(&mut rec);
        }
        _ => return Err(format!("no memory probe for {workload:?}")),
    }
    if rec.failed > 0 {
        return Err(format!("memory probe checks failed: {:?}", rec.failures));
    }
    stats::peak_rss_mb("self").ok_or_else(|| "no /proc/self/status".to_owned())
}

/// Format a metric value with all its digits (JSON has no NaN: a metric
/// that could not be measured becomes `null` and fails the run).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: every metric of the requested kind, with its unit.
/// `correct` is false when a check failed or a metric is missing.
pub fn result_json(rec: &Recorder, trace: bool) -> (String, bool) {
    let wanted: Vec<(String, &str)> = if trace {
        metrics::layers()
            .into_iter()
            .map(|l| (l.name, l.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit))
            .collect()
    };
    let source = if trace { &rec.layers } else { &rec.end_to_end };
    let mut complete = true;
    let mut body = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = source.get(name).copied().unwrap_or(f64::NAN);
        complete &= value.is_finite();
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    let correct = complete && rec.failed == 0;
    (
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            rec.attempted.max(1),
            rec.failed
        ),
        correct,
    )
}

/// The line before the result: the host and build fingerprint, the
/// share of CPU time the hypervisor stole while measuring, the median
/// host speed probe, the share of failed operations, the run's counters,
/// the end-to-end figures that carry no bound, and each timing's median,
/// tail percentile and sample count.
pub fn detail_json(config: &Config, rec: &Recorder) -> String {
    let mut timings = String::new();
    for (i, (name, s)) in rec.timings.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            timings,
            "{sep}\"{name}\": {{\"count\": {}, \"p50\": {}, \"tail_percentile\": {}, \"tail\": {}}}",
            s.count,
            number(s.p50),
            s.tail_p,
            number(s.tail)
        );
    }
    let counts: Vec<String> = rec
        .counts
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let unbounded: Vec<String> = rec
        .end_to_end
        .iter()
        .filter(|(name, _)| !metrics::END_TO_END.iter().any(|m| m.name == *name))
        .map(|(name, v)| format!("\"{name}\": {}", number(*v)))
        .collect();
    let failed_share = rec.failed as f64 / rec.attempted.max(1) as f64;
    format!(
        "{{\"fingerprint\": {}, \"steal_share\": {}, \"host_probe_ms\": {}, \"failed_share\": {}, \"counts\": {{{}}}, \"unbounded\": {{{}}}, \"timings\": {{{timings}}}}}",
        host::fingerprint(config),
        rec.steal_share.map_or("null".to_owned(), number),
        number(median(&rec.host_probe_ms)),
        number(failed_share),
        counts.join(", "),
        unbounded.join(", ")
    )
}
