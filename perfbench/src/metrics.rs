//! The benchmark's metric registry: every end-to-end and per-layer name,
//! its unit, which direction is better, and — for layers — the
//! end-to-end metric and workload it should move. `BENCHMARK.json` and
//! `README.md` repeat this table; the smoke tests hold them to it.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

/// Every end-to-end metric with a bound. Each run reports all of them
/// (see `lib.rs`). The serve path's wall-clock figures (`ops_per_s`,
/// `job_p50_ms`, `job_p99_ms`, `edit_p50_ms`) and the small panel's
/// times (`exact_panel_p50_ms`, `exact_panel_p90_ms`) are printed on the
/// detail line without a bound (`unbounded`): across runs of the same
/// code they followed the hypervisor's steal, not the program
/// (correlation 0.9 to 1.0; a single job took twice as long at 20% steal
/// as at 1%, a small panel half as long again), so no bound of 25% could
/// hold them. `serve_cpu_ms_per_op`, the fleet's CPU time per
/// operation, which the kernel counts without the stolen time, stands
/// for the serve path instead.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("panel_per_s", "1/s", "higher"),
    e2e("panel_n200_p50_ms", "ms", "lower"),
    e2e("panel_n1000_p50_ms", "ms", "lower"),
    e2e("gap_mean", "ratio", "lower"),
    e2e("large_n_p50_ms", "ms", "lower"),
    e2e("serve_cpu_ms_per_op", "ms", "lower"),
    e2e("batch_p50_ms", "ms", "lower"),
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mb", "MiB", "lower"),
    e2e("ok_share", "share", "higher"),
];

/// One per-layer metric and the end-to-end metric(s) it should move.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this layer should move.
    pub moves: &'static [(&'static str, &'static str)],
}

/// The paper panel's specs and `Exact`, by their sanitized names, with
/// the slices each runs on.
pub const ALGORITHMS: &[&str] = &[
    "Ailon",
    "BioConsert",
    "Borda",
    "Copeland",
    "FaginLarge",
    "FaginSmall",
    "KwikSort",
    "BestOf-KwikSort-10",
    "MedRank-0.5",
    "MedRank-0.7",
    "PickAPerm",
    "RepeatChoice",
    "BestOf-RepeatChoice-10",
    "Exact",
];

/// A spec's display name as a metric-name component: every character
/// outside `[A-Za-z0-9_.-]` becomes `-`, trailing dashes dropped
/// (`MedRank(0.5)` → `MedRank-0.5`).
pub fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    s.trim_end_matches('-').to_owned()
}

/// The metric name of one algorithm's solve time on one slice. Ailon
/// and Exact run on the small slice only and carry no slice suffix.
pub fn solve_metric(algo: &str, slice: &str) -> String {
    if algo == "Ailon" || algo == "Exact" {
        format!("algorithms.{algo}.solve_ms")
    } else {
        format!("algorithms.{algo}.solve_ms.{slice}")
    }
}

const PANEL: &str = "paper-panel";
const LARGE: &str = "large-n";
const SERVE: &str = "serve-mixed";

fn layer(
    name: &str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name: name.to_owned(),
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in report order.
pub fn layers() -> Vec<Layer> {
    let mut out = vec![
        layer(
            "parse.ms",
            "ms",
            "lower",
            &[("large_n_p50_ms", LARGE), ("serve_cpu_ms_per_op", SERVE)],
        ),
        layer(
            "normalize.ms",
            "ms",
            "lower",
            &[("large_n_p50_ms", LARGE), ("serve_cpu_ms_per_op", SERVE)],
        ),
        layer(
            "pairs.build_ms.n200",
            "ms",
            "lower",
            &[("panel_n200_p50_ms", PANEL)],
        ),
        layer(
            "pairs.build_ms.n1000",
            "ms",
            "lower",
            &[("panel_n1000_p50_ms", PANEL)],
        ),
        layer("pairs.builds", "count", "lower", &[]),
        layer(
            "engine.cache_hit_ratio",
            "ratio",
            "higher",
            &[("serve_cpu_ms_per_op", SERVE)],
        ),
    ];
    for algo in ALGORITHMS {
        if *algo == "Ailon" || *algo == "Exact" {
            out.push(layer(
                &solve_metric(algo, "small"),
                "ms",
                "lower",
                &[("exact_panel_p50_ms", PANEL)],
            ));
        } else {
            out.push(layer(
                &solve_metric(algo, "small"),
                "ms",
                "lower",
                &[("exact_panel_p50_ms", PANEL)],
            ));
            out.push(layer(
                &solve_metric(algo, "mid"),
                "ms",
                "lower",
                &[
                    ("panel_per_s", PANEL),
                    ("panel_n200_p50_ms", PANEL),
                    ("panel_n1000_p50_ms", PANEL),
                ],
            ));
        }
    }
    out.extend([
        layer(
            "parallel.efficiency",
            "ratio",
            "higher",
            &[("panel_per_s", PANEL), ("ops_per_s", SERVE)],
        ),
        layer(
            "positional.stats_ms",
            "ms",
            "lower",
            &[("large_n_p50_ms", LARGE)],
        ),
        layer(
            "score.kemeny_ms",
            "ms",
            "lower",
            &[("large_n_p50_ms", LARGE)],
        ),
        layer(
            "engine.queue_wait_ms",
            "ms",
            "lower",
            &[("job_p50_ms", SERVE)],
        ),
        layer(
            "server.serialize_ms",
            "ms",
            "lower",
            &[("serve_cpu_ms_per_op", SERVE), ("job_p50_ms", SERVE)],
        ),
        layer("client.submit_ms", "ms", "lower", &[("job_p50_ms", SERVE)]),
        layer(
            "client.first_event_ms",
            "ms",
            "lower",
            &[("job_p50_ms", SERVE)],
        ),
        layer("client.stream_ms", "ms", "lower", &[("job_p50_ms", SERVE)]),
        layer("client.status_ms", "ms", "lower", &[("job_p50_ms", SERVE)]),
        layer(
            "service.residual_ms",
            "ms",
            "lower",
            &[("job_p50_ms", SERVE)],
        ),
        layer("router.hop_ms", "ms", "lower", &[("job_p50_ms", SERVE)]),
        layer(
            "server.batch_merge_ms",
            "ms",
            "lower",
            &[("batch_p50_ms", SERVE)],
        ),
        layer("session.patch_ms", "ms", "lower", &[("edit_p50_ms", SERVE)]),
        layer(
            "session.resolve_ms",
            "ms",
            "lower",
            &[("edit_p50_ms", SERVE)],
        ),
        layer(
            "journal.bytes_per_job",
            "bytes",
            "lower",
            &[("serve_cpu_ms_per_op", SERVE), ("job_p50_ms", SERVE)],
        ),
        layer("trace.overhead_pct", "%", "lower", &[]),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_sanitize_to_metric_names() {
        assert_eq!(sanitize("MedRank(0.5)"), "MedRank-0.5");
        assert_eq!(sanitize("BestOf(KwikSort,10)"), "BestOf-KwikSort-10");
        assert_eq!(sanitize("Borda"), "Borda");
        let panel: Vec<String> = rank_core::engine::paper_panel(10)
            .iter()
            .chain([&rank_core::engine::AlgoSpec::Exact])
            .map(|s| sanitize(&s.to_string()))
            .collect();
        assert_eq!(panel, ALGORITHMS);
    }
}
