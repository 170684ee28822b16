//! The `serve-mixed` fleet: two `rawt serve --journal` workers behind a
//! `rawt route` process, all running the release binary. Dropping the
//! fleet kills and reaps every process.

use service::{Client, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Fleet {
    children: Vec<Child>,
    pub workers: Vec<String>,
    pub router: String,
    pub journals: Vec<PathBuf>,
}

/// How long a process may take to print its address and answer
/// `/healthz` before the run gives up.
const START_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(rawt: &Path, args: &[&str], log: &Path) -> Result<Child, String> {
    let out = std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    Command::new(rawt)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", rawt.display()))
}

/// The `host:port` a process printed on its startup line.
fn await_addr(log: &Path, deadline: Instant) -> Result<String, String> {
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(at) = text.find("http://") {
            let addr: String = text[at + "http://".len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == ':')
                .collect();
            if addr.contains(':') {
                return Ok(addr);
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "no address in {} after {START_TIMEOUT:?}: {text}",
                log.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn await_healthy(addr: &str, alive: Option<u64>, deadline: Instant) -> Result<(), String> {
    let client = Client::new(addr);
    loop {
        if let Ok(doc) = client.healthz() {
            let ok = doc.get("status").and_then(Json::as_str) == Some("ok");
            if ok && alive.is_none_or(|n| doc.get("alive").and_then(Json::as_u64) == Some(n)) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} not healthy after {START_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// User plus system time from a `/proc/<pid>/stat` line: its 14th and
/// 15th fields, counted after the parenthesised command name, which may
/// itself hold spaces and parentheses.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

impl Fleet {
    /// Start the fleet under `dir` (journals and logs) and wait until
    /// every process answers `/healthz`.
    pub fn start(rawt: &Path, dir: &Path) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let deadline = Instant::now() + START_TIMEOUT;
        let mut fleet = Fleet {
            children: Vec::new(),
            workers: Vec::new(),
            router: String::new(),
            journals: Vec::new(),
        };
        let mut logs = Vec::new();
        for i in 0..2 {
            let journal = dir.join(format!("journal-{i}"));
            let log = dir.join(format!("worker-{i}.log"));
            let journal_arg = journal.to_string_lossy().into_owned();
            fleet.children.push(spawn(
                rawt,
                &["serve", "--addr", "127.0.0.1:0", "--journal", &journal_arg],
                &log,
            )?);
            fleet.journals.push(journal);
            logs.push(log);
        }
        for log in &logs {
            fleet.workers.push(await_addr(log, deadline)?);
        }
        let log = dir.join("router.log");
        let workers = fleet.workers.join(",");
        fleet.children.push(spawn(
            rawt,
            &["route", "--workers", &workers, "--addr", "127.0.0.1:0"],
            &log,
        )?);
        fleet.router = await_addr(&log, deadline)?;
        for worker in &fleet.workers {
            await_healthy(worker, None, deadline)?;
        }
        await_healthy(&fleet.router, Some(2), deadline)?;
        Ok(fleet)
    }

    /// CPU time the fleet's processes have used so far, in clock ticks
    /// (user plus system, `/proc/<pid>/stat`). The kernel leaves out
    /// the time the hypervisor gave to other guests.
    pub fn cpu_ticks(&self) -> u64 {
        self.children
            .iter()
            .filter_map(|c| {
                stat_cpu_ticks(&std::fs::read_to_string(format!("/proc/{}/stat", c.id())).ok()?)
            })
            .sum()
    }

    /// Summed peak resident set of the fleet's processes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| crate::stats::peak_rss_mb(&c.id().to_string()))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_read_after_the_command_name() {
        let line = "4242 (rawt (x) y) S 1 4242 1 0 -1 4194304 108 0 0 0 31 7 0 0 20 0 3 0 248";
        assert_eq!(stat_cpu_ticks(line), Some(38));
        assert_eq!(stat_cpu_ticks("4242 (rawt) S 1"), None);
    }
}
