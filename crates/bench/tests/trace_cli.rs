//! `btbx trace` at the command line: `check` gates a converted trace on
//! a replay resumed from a warm snapshot, a raw ChampSim file does not
//! replay, and `convert` rejects an instruction size it cannot use
//! before it creates its output file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/ipc1_like_50k.champsim")
}

fn btbx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_btbx"))
        .args(args)
        .output()
        .expect("btbx runs")
}

#[test]
fn check_passes_a_converted_trace_and_takes_no_shard_count() {
    let dest = std::env::temp_dir().join(format!("btbx-cli-check-{}.btbt", std::process::id()));
    let dest_str = dest.to_str().unwrap();
    let out = btbx(&[
        "trace",
        "convert",
        fixture().to_str().unwrap(),
        "-o",
        dest_str,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = btbx(&["trace", "check", dest_str]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("resumed"), "{stdout}");
    assert!(stdout.contains("OK"), "{stdout}");
    let out = btbx(&["trace", "check", dest_str, "--shards", "4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_file(&dest);
}

#[test]
fn check_refuses_a_raw_champsim_file() {
    let out = btbx(&["trace", "check", fixture().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("btbx trace convert"), "{stderr}");
}

#[test]
fn convert_rejects_a_zero_instr_size_before_writing() {
    let dest = std::env::temp_dir().join(format!("btbx-cli-zero-{}.btbt", std::process::id()));
    let _ = std::fs::remove_file(&dest);
    let out = btbx(&[
        "trace",
        "convert",
        fixture().to_str().unwrap(),
        "--instr-size",
        "0",
        "-o",
        dest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--instr-size"), "{stderr}");
    assert!(!dest.exists(), "no output file for a usage error");
}
