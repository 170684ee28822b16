//! Sample summaries: medians, tail percentiles and the per-run recorder
//! every phase writes its measurements into.

use std::collections::BTreeMap;

/// Percentile `p` (0–100) of an ascending slice, interpolating linearly
/// between the two closest ranks. Empty input gives `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        len => {
            let rank = (p / 100.0) * (len - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Percentile `p` of unsorted samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    percentile(&sorted(samples), p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 50.0)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it (a tail estimate resting on fewer points is noise).
pub fn tail_percentile(count: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| count as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
        .unwrap_or(50.0)
}

/// A timing reported as median plus its best-supported tail percentile,
/// with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let tail_p = tail_percentile(s.len());
        Summary {
            count: s.len(),
            p50: percentile(&s, 50.0),
            tail_p,
            tail: percentile(&s, tail_p),
        }
    }
}

/// Everything one run measured. Each path writes end-to-end values,
/// layer values and timing samples when it finishes; the first to write
/// a name owns it, and the named workload finishes first, so its own
/// values win where a companion measures the same name.
#[derive(Debug, Default)]
pub struct Recorder {
    pub end_to_end: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Timing distributions behind the metrics, kept for the detail line.
    pub timings: BTreeMap<String, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for stderr.
    pub failures: Vec<String>,
    /// Counters for the detail line, such as how many remote jobs of
    /// each target the remote ≡ local check compared.
    pub counts: BTreeMap<String, u64>,
    /// Share of CPU time stolen by the hypervisor while measuring, when
    /// `/proc/stat` tells.
    pub steal_share: Option<f64>,
    /// `host::speed_probe_ms` samples taken while measuring.
    pub host_probe_ms: Vec<f64>,
}

impl Recorder {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.entry(name.to_owned()).or_insert(value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.entry(name.to_owned()).or_insert(value);
    }

    /// Record a timing distribution and return its summary.
    pub fn timing(&mut self, name: &str, samples: &[f64]) -> Summary {
        let summary = Summary::of(samples);
        self.timings
            .entry(name.to_owned())
            .or_insert_with(|| summary.clone());
        summary
    }

    /// Count one attempted operation; `checks` holds the failures its
    /// output checks found (empty when it passed).
    pub fn op(&mut self, checks: Vec<String>) {
        self.attempted += 1;
        if !checks.is_empty() {
            self.failed += 1;
            for c in checks {
                if self.failures.len() < 20 {
                    self.failures.push(c);
                }
            }
        }
    }
}

/// Per-layer samples of one phase, reduced by median or mean at the end.
#[derive(Debug, Default)]
pub struct Spans {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.samples.keys().map(String::as_str)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    pub fn mean(&self, name: &str) -> f64 {
        mean(self.get(name))
    }
}

/// Seconds → milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_tails_need_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(20), 50.0);
    }

    #[test]
    fn first_writer_owns_a_metric() {
        let mut r = Recorder::default();
        r.e2e("x", 1.0);
        r.e2e("x", 2.0);
        assert_eq!(r.end_to_end["x"], 1.0);
    }
}
