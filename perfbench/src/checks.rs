//! Output checks. Every operation the benchmark times is checked after
//! its timer stops; each function returns `Err(reason)` on a wrong
//! result, and the run counts the operation as failed.

use rank_core::engine::{ConsensusReport, KernelLane, Outcome};
use rank_core::normalize::Normalized;
use rank_core::{score, Dataset, Universe};
use service::Json;

/// A dense-lane report: a complete ranking whose reported score (the
/// engine scores dense runs with `CostMatrix::score`) equals the
/// matrix-free scorer's `score::kemeny_score`.
pub fn dense_score(report: &ConsensusReport, data: &Dataset) -> Result<(), String> {
    if report.lane != KernelLane::Dense {
        return Err(format!(
            "{}: lane {} where dense was expected",
            report.spec, report.lane
        ));
    }
    complete_and_scored(report, data)
}

/// A large-n report: matrix-free lane, no cost-matrix build, and a
/// score that `score::kemeny_score` reproduces.
pub fn matrix_free(report: &ConsensusReport, data: &Dataset, builds: usize) -> Result<(), String> {
    if report.lane != KernelLane::MatrixFree {
        return Err(format!(
            "{}: lane {} where matrix-free was expected",
            report.spec, report.lane
        ));
    }
    if builds != 0 {
        return Err(format!(
            "{}: {builds} cost-matrix builds on the matrix-free lane",
            report.spec
        ));
    }
    complete_and_scored(report, data)
}

fn complete_and_scored(report: &ConsensusReport, data: &Dataset) -> Result<(), String> {
    if !data.is_complete_ranking(&report.ranking) {
        return Err(format!(
            "{}: consensus is not a complete ranking",
            report.spec
        ));
    }
    let rescored = score::kemeny_score(&report.ranking, data);
    if rescored != report.score {
        return Err(format!(
            "{}: reported score {} but kemeny_score gives {rescored}",
            report.spec, report.score
        ));
    }
    Ok(())
}

/// The exact solver's report: proved optimal, its certified lower bound
/// meets its score, and no heuristic beat it.
pub fn exact(exact: &ConsensusReport, heuristics: &[&ConsensusReport]) -> Result<(), String> {
    if exact.outcome != Outcome::Optimal {
        return Err(format!("Exact ended {} instead of optimal", exact.outcome));
    }
    if exact.lower_bound != Some(exact.score) {
        return Err(format!(
            "Exact lower bound {:?} does not meet its score {}",
            exact.lower_bound, exact.score
        ));
    }
    match heuristics.iter().find(|h| h.score < exact.score) {
        Some(h) => Err(format!(
            "{} scored {} below the optimum {}",
            h.spec, h.score, exact.score
        )),
        None => Ok(()),
    }
}

/// A heuristic panel over one dataset shares one cost-matrix build.
pub fn one_build(builds: usize) -> Result<(), String> {
    if builds == 1 {
        Ok(())
    } else {
        Err(format!(
            "panel paid {builds} cost-matrix builds instead of 1"
        ))
    }
}

/// The fields of a report that must match between the service and an
/// in-process `Engine::run` of the same (dataset, spec, seed); timings
/// (`elapsed_secs`, `trace`, `phases`) legitimately differ.
const REPORT_FIELDS: &[&str] = &[
    "algorithm",
    "spec",
    "seed",
    "score",
    "gap",
    "lower_bound",
    "outcome",
    "lane",
    "ranking",
];

/// A remote job's report equals the local one, field by field.
pub fn remote_matches_local(
    remote: &Json,
    local: &ConsensusReport,
    norm: &Normalized,
    universe: &Universe,
) -> Result<(), String> {
    let local_json = service::proto::report_json(local, norm, universe);
    let local = Json::parse(&local_json).map_err(|e| format!("local report: {e}"))?;
    for field in REPORT_FIELDS {
        if remote.get(field) != local.get(field) {
            return Err(format!(
                "remote {field} {:?} differs from local {:?}",
                remote.get(field),
                local.get(field)
            ));
        }
    }
    Ok(())
}

/// The phase keys of a service report, in `report_phases` order.
const PHASE_KEYS: [&str; 4] = [
    "queue_wait_secs",
    "matrix_build_secs",
    "solve_secs",
    "serialize_secs",
];

/// A service report's phase breakdown in ms: queue wait, matrix build,
/// solve, serialize. Every phase must be present, finite and not
/// negative.
pub fn report_phases(report: &Json) -> Result<[f64; 4], String> {
    let phases = report.get("phases").ok_or("report has no phases")?;
    let mut out = [0.0; 4];
    for (slot, key) in out.iter_mut().zip(PHASE_KEYS) {
        let secs = phases
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("report phases lack {key}"))?;
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(format!("report phase {key} is {secs}"));
        }
        *slot = secs * 1e3;
    }
    Ok(out)
}

/// The phases the service reports fit inside the total the client
/// observed, so the residual the service spent outside them is not
/// negative.
pub fn phases_fit(phases: &[f64; 4], total_ms: f64) -> Result<(), String> {
    let sum: f64 = phases.iter().sum();
    if sum <= total_ms {
        Ok(())
    } else {
        Err(format!(
            "report phases sum to {sum} ms, more than the client-observed {total_ms} ms"
        ))
    }
}

/// A follow job's re-solve carries the dataset version its `PATCH`
/// returned.
pub fn version_tag(event: &Json, patched: u64) -> Result<(), String> {
    match event.get("dataset_version").and_then(Json::as_u64) {
        Some(v) if v == patched => Ok(()),
        other => Err(format!(
            "re-solve tagged version {other:?}, PATCH returned {patched}"
        )),
    }
}
