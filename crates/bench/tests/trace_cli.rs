//! `btbx trace` at the command line: `check` decodes a converted trace
//! and replays it once, refuses a truncated container and a raw ChampSim
//! file, and `convert` rejects an instruction size it cannot use before
//! it creates its output file.

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
    assert!(stdout.contains("decode   50000 events"), "{stdout}");
    assert!(stdout.contains("replay   btbx+fdip"), "{stdout}");
    assert!(stdout.contains("OK"), "{stdout}");
    let out = btbx(&["trace", "check", dest_str, "--shards", "4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_file(&dest);
}

#[test]
fn check_fails_a_container_truncated_mid_file_and_names_it() {
    let dest = std::env::temp_dir().join(format!("btbx-cli-cut-{}.btbt", std::process::id()));
    let dest_str = dest.to_str().unwrap();
    let out = btbx(&[
        "trace",
        "convert",
        fixture().to_str().unwrap(),
        "-o",
        dest_str,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let bytes = std::fs::read(&dest).unwrap();
    std::fs::write(&dest, &bytes[..bytes.len() / 2]).unwrap();
    let out = btbx(&["trace", "check", dest_str]);
    let _ = std::fs::remove_file(&dest);
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(dest_str),
        "the path must be named: {stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("OK"));
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

#[test]
fn a_sweep_over_a_changed_container_exits_1_naming_the_point() {
    use btbx_bench::Sweep;
    use btbx_core::OrgKind;
    use btbx_trace::WorkloadSpec;
    let dir = std::env::temp_dir().join(format!("btbx-cli-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.btbt");
    let out = btbx(&[
        "trace",
        "convert",
        fixture().to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // A spec made for different container contents: its hash is off by one.
    let mut workload = WorkloadSpec::from_container(&trace).unwrap();
    if let Some(tref) = &mut workload.trace {
        tref.content_hash = tref.content_hash.wrapping_add(1);
    }
    let sweep = Sweep::named("stale")
        .workloads([workload])
        .orgs([OrgKind::Conv])
        .fdip_options([false])
        .windows(1_000, 2_000);
    let point = sweep.points()[0].cache_file();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, sweep.to_json().unwrap()).unwrap();
    let out = btbx(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        dir.join("out").to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: sweep failed:"), "{stderr}");
    assert!(stderr.contains(&point), "the point must be named: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
