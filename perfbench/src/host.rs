//! The host and build fingerprint every result carries, so results from
//! different machines or builds are never compared by mistake.

use crate::Config;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn json_str(s: &str) -> String {
    format!("\"{}\"", service::json::escape(s))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_sha(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            }),
        None => Some(head.to_owned()),
    }
}

/// FNV-1a over the program's sources (path and bytes of every file
/// under `crates/`, `src/`, `perfbench/src/` and the manifests), in path
/// order: identifies the code measured even where there is no git.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "src", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// All CPU time and stolen CPU time so far, in clock ticks, from the
/// first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Stolen share of the CPU time elapsed since `before`: on a shared
/// host, time the hypervisor gave to other guests, which every timing
/// in the run absorbs.
pub fn steal_share_since(before: Option<(u64, u64)>) -> Option<f64> {
    let (total0, steal0) = before?;
    let (total1, steal1) = cpu_ticks()?;
    let total = total1.checked_sub(total0).filter(|t| *t > 0)?;
    Some(steal1.saturating_sub(steal0) as f64 / total as f64)
}

/// Elements of the speed probe's arrays (80 KB): resident in L2, like
/// the hot loops of the kernels.
const PROBE_N: u32 = 16_384;
/// Passes of the probe's scan: about 2 ms on the reference host.
const PROBE_PASSES: u32 = 128;

/// Milliseconds a fixed scan over L2-resident arrays takes (the shape of
/// MEDRank's inner loop): the host's speed at that moment, apart from
/// the program under test. A run probes once per rotation of its paths.
/// Runs whose metrics move together with the probe saw the host change
/// speed (clock frequency, a busy sibling hyperthread), which
/// `steal_share` does not show.
pub fn speed_probe_ms() -> f64 {
    let due: Vec<u32> = (0..PROBE_N)
        .map(|i| i.wrapping_mul(2_654_435_761) % PROBE_PASSES)
        .collect();
    let due = std::hint::black_box(due);
    let mut placed = vec![false; due.len()];
    let t = Instant::now();
    let mut count = 0u32;
    for pass in 0..PROBE_PASSES {
        for (p, &d) in placed.iter_mut().zip(&due) {
            if !*p && d <= pass {
                *p = true;
                count += 1;
            }
        }
        std::hint::black_box(&mut placed);
    }
    std::hint::black_box(count);
    t.elapsed().as_secs_f64() * 1e3
}

/// The fingerprint object.
pub fn fingerprint(config: &Config) -> String {
    let root = Path::new(".");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let engine_threads = rank_core::parallel::num_threads();
    let client_threads = if config.workload == "serve-mixed" {
        crate::serve::CLIENT_THREADS
    } else {
        1
    };
    format!(
        concat!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, ",
            "\"source_digest\": {}, \"build_profile\": {}, \"workload\": {}, \"seed\": {}, ",
            "\"seconds\": {}, \"trace\": {}, \"engine_threads\": {}, \"client_threads\": {}}}"
        ),
        nproc,
        json_str(&cpu_model()),
        json_str(&rustc_version()),
        git_sha(root).map_or("null".to_owned(), |s| json_str(&s)),
        json_str(&source_digest(root)),
        json_str(profile),
        json_str(&config.workload),
        config.seed,
        config.seconds,
        config.trace,
        engine_threads,
        client_threads,
    )
}
