//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --rawt PATH [--work DIR] [--tiny]`
//! `perfbench --rss-probe --workload NAME --seed N [--tiny]`
//!
//! Normally started by `perfbench/run.py`, which builds this binary and
//! `rawt` first. Prints the detail line (fingerprint, failed share,
//! timing summaries) and then the result line on stdout. The second form
//! is the memory probe a `large-n` run starts for itself: it prints
//! the peak resident set in MiB.

use perfbench::{detail_json, result_json, rss_probe, run, Config};
use std::path::PathBuf;
use std::process::exit;

fn die(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut rawt = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let (mut tiny, mut probe) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--tiny" || flag == "--rss-probe" {
            tiny |= flag == "--tiny";
            probe |= flag == "--rss-probe";
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let bad = || -> ! { die(&format!("bad value for {flag}: {value:?}")) };
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--rawt" => rawt = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            _ => die(&format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    if probe {
        println!(
            "{}",
            rss_probe(&workload, tiny, seed).unwrap_or_else(|e| die(&e))
        );
        return;
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        die("--seconds must be positive");
    }
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        rawt: rawt.unwrap_or_else(|| die("--rawt is required")),
        exe: std::env::current_exe().unwrap_or_else(|e| die(&format!("own path: {e}"))),
        work: work.join(std::process::id().to_string()),
    };
    let rec = run(&config).unwrap_or_else(|e| die(&e));
    for failure in &rec.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let (result, _) = result_json(&rec, config.trace);
    println!("{}", detail_json(&config, &rec));
    println!("{result}");
}
