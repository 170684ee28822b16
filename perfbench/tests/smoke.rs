//! Smoke tests on tiny inputs: every named metric is emitted with its
//! unit on every workload, the registry matches `BENCHMARK.json` and the
//! README table, and every output check rejects a corrupted result.

use perfbench::metrics::{layers, END_TO_END};
use perfbench::stats::Recorder;
use perfbench::{checks, result_json, run, Config, WORKLOADS};
use rank_core::engine::{
    AggregationRequest, AlgoSpec, ConsensusReport, Engine, KernelLane, LanePolicy, Normalization,
    Outcome,
};
use rank_core::normalize::Normalized;
use rank_core::parse::parse_dataset_lines;
use rank_core::{Dataset, Universe};
use service::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

/// Build the `rawt` release binary into this test's own target dir.
fn rawt() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // <target>/<profile>/deps/smoke-<hash>
    let profile_dir = exe.parent().and_then(Path::parent).expect("target layout");
    let target = profile_dir.parent().expect("target dir");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "rawt",
            "--target-dir",
        ])
        .arg(target)
        .current_dir(repo_root())
        .status()
        .expect("run cargo");
    assert!(status.success(), "building rawt failed");
    target.join("release").join("rawt")
}

fn tiny_run(workload: &str, trace: bool, rawt: &Path) -> (Recorder, Json) {
    let config = Config {
        workload: workload.to_owned(),
        seed: 3,
        seconds: 1.0,
        trace,
        tiny: true,
        rawt: rawt.to_path_buf(),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        work: std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{workload}-{trace}",
            std::process::id()
        )),
    };
    let rec = run(&config).expect("tiny run measures");
    assert!(rec.failures.is_empty(), "{workload}: {:?}", rec.failures);
    let (line, correct) = result_json(&rec, trace);
    assert!(correct, "{workload} trace={trace}: {line}");
    (rec, Json::parse(&line).expect("result line is JSON"))
}

#[test]
fn every_metric_is_emitted_with_a_unit() {
    let rawt = rawt();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (rec, result) = tiny_run(workload, trace, &rawt);
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            // Every run serves jobs, so the remote ≡ local check must
            // have compared jobs of both targets.
            for target in ["direct", "routed"] {
                let checked = rec.counts.get(&format!("remote_checks.{target}"));
                assert!(
                    checked.is_some_and(|&n| n >= 1),
                    "{workload}: no {target} job checked against Engine::run"
                );
            }
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let expected: Vec<(String, &str)> = if trace {
                layers().into_iter().map(|l| (l.name, l.unit)).collect()
            } else {
                END_TO_END
                    .iter()
                    .map(|m| (m.name.to_owned(), m.unit))
                    .collect()
            };
            let metrics = result.get("metrics").expect("metrics object");
            for (name, unit) in &expected {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{workload}: {name}"
                );
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(*unit),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn registry_matches_benchmark_json_and_readme() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let per_layer: Vec<_> = layers()
        .into_iter()
        .map(|l| (l.name, l.unit.to_owned(), l.better.to_owned()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);

    let readme = std::fs::read_to_string(root.join("perfbench/README.md")).expect("README");
    for layer in layers() {
        // One README row covers each slice's per-spec solve times.
        let slice = ["small", "mid"].into_iter().find(|s| {
            layer.name.starts_with("algorithms.") && layer.name.ends_with(&format!(".solve_ms.{s}"))
        });
        let key = match slice {
            Some(slice) => format!("algorithms.<Name>.solve_ms.{slice}"),
            None => layer.name.clone(),
        };
        let row = readme
            .lines()
            .find(|l| l.starts_with(&format!("| `{key}` |")))
            .unwrap_or_else(|| panic!("README has no row for {}", layer.name));
        for (metric, workload) in layer.moves {
            assert!(
                row.contains(metric) && row.contains(workload),
                "{}: {row}",
                layer.name
            );
        }
    }
}

fn tiny_dataset() -> (Normalized, Universe) {
    let text = "[{A},{B,C},{D}]\n[{B},{A},{C,D}]\n[{A,B},{D},{C}]\n";
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(text, &mut universe).unwrap();
    (Normalization::Unification.apply(&raw).unwrap(), universe)
}

fn report(data: &Dataset, spec: AlgoSpec, lane: LanePolicy) -> ConsensusReport {
    Engine::new().run(
        &AggregationRequest::new(data.clone(), spec)
            .with_seed(1)
            .with_lane(lane),
    )
}

#[test]
fn dense_and_matrix_free_checks_reject_corruption() {
    let (norm, _) = tiny_dataset();
    let data = &norm.dataset;
    let dense = report(data, AlgoSpec::Borda, LanePolicy::Dense);
    assert!(checks::dense_score(&dense, data).is_ok());
    let mut off_by_one = dense.clone();
    off_by_one.score += 1;
    assert!(checks::dense_score(&off_by_one, data).is_err());
    let mut wrong_lane = dense.clone();
    wrong_lane.lane = KernelLane::MatrixFree;
    assert!(checks::dense_score(&wrong_lane, data).is_err());

    let free = report(data, AlgoSpec::Borda, LanePolicy::MatrixFree);
    assert!(checks::matrix_free(&free, data, 0).is_ok());
    assert!(
        checks::matrix_free(&free, data, 1).is_err(),
        "a build on the matrix-free lane"
    );
    assert!(
        checks::matrix_free(&dense, data, 0).is_err(),
        "the dense lane"
    );
    let mut off_by_one = free.clone();
    off_by_one.score -= 1;
    assert!(checks::matrix_free(&off_by_one, data, 0).is_err());

    assert!(checks::one_build(1).is_ok());
    assert!(checks::one_build(0).is_err());
    assert!(checks::one_build(2).is_err());
}

#[test]
fn exact_check_rejects_unproved_or_beaten_optima() {
    let (norm, _) = tiny_dataset();
    let data = &norm.dataset;
    let exact = report(data, AlgoSpec::Exact, LanePolicy::Auto);
    let heuristic = report(data, AlgoSpec::Borda, LanePolicy::Auto);
    assert!(checks::exact(&exact, &[&heuristic]).is_ok());
    let mut unproved = exact.clone();
    unproved.outcome = Outcome::Heuristic;
    assert!(checks::exact(&unproved, &[&heuristic]).is_err());
    let mut loose = exact.clone();
    loose.lower_bound = Some(exact.score - 1);
    assert!(checks::exact(&loose, &[&heuristic]).is_err());
    let mut beaten = exact.clone();
    beaten.score = heuristic.score + 1;
    beaten.lower_bound = Some(beaten.score);
    assert!(checks::exact(&beaten, &[&heuristic]).is_err());
}

#[test]
fn remote_and_version_checks_reject_corruption() {
    let (norm, universe) = tiny_dataset();
    let local = report(&norm.dataset, AlgoSpec::BioConsert, LanePolicy::Auto);
    let wire = |r: &ConsensusReport| {
        Json::parse(&service::proto::report_json(r, &norm, &universe)).unwrap()
    };
    assert!(checks::remote_matches_local(&wire(&local), &local, &norm, &universe).is_ok());
    let mut off_by_one = local.clone();
    off_by_one.score += 1;
    assert!(checks::remote_matches_local(&wire(&off_by_one), &local, &norm, &universe).is_err());
    let mut reversed = local.clone();
    reversed.ranking = local.ranking.reversed();
    assert!(checks::remote_matches_local(&wire(&reversed), &local, &norm, &universe).is_err());
    let mut other_lane = local.clone();
    other_lane.lane = KernelLane::MatrixFree;
    assert!(checks::remote_matches_local(&wire(&other_lane), &local, &norm, &universe).is_err());

    let event = Json::parse(r#"{"event":"resolved","dataset_version":4}"#).unwrap();
    assert!(checks::version_tag(&event, 4).is_ok());
    assert!(checks::version_tag(&event, 5).is_err());
    let untagged = Json::parse(r#"{"event":"resolved"}"#).unwrap();
    assert!(checks::version_tag(&untagged, 4).is_err());
}

#[test]
fn phase_checks_reject_missing_or_overlong_phases() {
    let report = |phases: &str| Json::parse(&format!(r#"{{"score":3,{phases}}}"#)).unwrap();
    let good = report(
        r#""phases":{"queue_wait_secs":0.001,"matrix_build_secs":0.0005,"matrix_cached":false,"solve_secs":0.002,"serialize_secs":0.0001}"#,
    );
    let phases = checks::report_phases(&good).expect("complete phases");
    assert!((phases.iter().sum::<f64>() - 3.6).abs() < 1e-9);
    assert!(checks::phases_fit(&phases, 10.0).is_ok());
    assert!(
        checks::phases_fit(&phases, 3.0).is_err(),
        "phases longer than the client-observed total"
    );

    let none = Json::parse(r#"{"score":3}"#).unwrap();
    assert!(checks::report_phases(&none).is_err(), "no phases");
    let missing = report(r#""phases":{"queue_wait_secs":0.001,"solve_secs":0.002}"#);
    assert!(checks::report_phases(&missing).is_err(), "a phase missing");
    let negative = report(
        r#""phases":{"queue_wait_secs":-0.001,"matrix_build_secs":0,"solve_secs":0.002,"serialize_secs":0}"#,
    );
    assert!(
        checks::report_phases(&negative).is_err(),
        "a negative phase"
    );
}
