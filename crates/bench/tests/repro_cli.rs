//! Exit codes of the `repro` harness binary.

use std::process::Command;

#[test]
fn unknown_subcommand_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no-such-table")
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand no-such-table"));
}
