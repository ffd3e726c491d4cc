//! `btbx trace` refusals at the command line: a raw ChampSim file does
//! not replay, and `convert` rejects an instruction size it cannot use
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
