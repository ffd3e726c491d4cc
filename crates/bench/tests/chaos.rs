//! Randomized chaos suite: seeded fault schedules against the durable
//! stores, overload and deadline behaviour of `btbx serve`, and the
//! kill-and-rerun harness for crash recovery.
//!
//! Three layers of the robustness story are pinned here:
//!
//! 1. **Property**: under *any* seeded fault plan scoped to its cache
//!    directory, the result store either succeeds with correct bytes or
//!    fails loudly — never a torn entry, never temp-file litter, and a
//!    clean rerun always converges to the undisturbed results.
//! 2. **Serve degradation**: a server at 4× its admission limit sheds
//!    excess requests with `429` + `Retry-After` (never a connection
//!    reset), completes everything it admits, and aborts runaway
//!    simulations at the per-request deadline with `503` while staying
//!    healthy for the next request.
//! 3. **Kill-and-rerun**: a `btbx sweep` killed with SIGKILL mid-run,
//!    then rerun with the same command, publishes a cache
//!    byte-identical to an undisturbed run's.
//! 4. **Lost trace bytes**: a container block read that fails after open
//!    fails the run with a typed error — in a session, a served request
//!    and a CLI sweep — and never the process.

use btbx_bench::faults::{self, ErrKind, FaultOp, FaultPlan, FaultRule};
use btbx_bench::serve::{http_request, ServeConfig, Server};
use btbx_bench::store::ResultStore;
use btbx_bench::Sweep;
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::stats::SimStats;
use btbx_uarch::SimResult;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// The armed fault plan is process-global; tests that arm one are
/// serialized. Every rule is additionally path-scoped to its test's
/// unique temp directory, so unrelated tests in this binary never match.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-chaos-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn canned(cycles: u64) -> SimResult {
    SimResult {
        workload: "chaos".to_string(),
        org: "conv".to_string(),
        fdip_enabled: false,
        btb_budget_bits: 1,
        stats: SimStats {
            cycles,
            instructions: 1_000,
            ..SimStats::default()
        },
    }
}

/// One fault rule scoped to the property test's directory. Kinds are
/// paired with the operations they can actually fire on.
fn arb_rule() -> impl Strategy<Value = FaultRule> {
    let op_kind = prop_oneof![
        Just((FaultOp::Write, ErrKind::Enospc)),
        Just((FaultOp::Write, ErrKind::TornWrite)),
        Just((FaultOp::Write, ErrKind::Eio)),
        Just((FaultOp::Rename, ErrKind::RenameFail)),
        Just((FaultOp::Read, ErrKind::Eio)),
    ];
    (op_kind, 0u64..5u64, 0u64..3u64).prop_map(|((op, kind), nth, count)| FaultRule {
        op,
        kind,
        path: "btbx-chaos-prop".to_string(),
        nth,
        count,
        delay_ms: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any seeded schedule: operations succeed with the right
    /// value or fail loudly; the directory never holds a torn entry or
    /// a temp file; and once the plan is exhausted a clean pass
    /// converges to the undisturbed results.
    #[test]
    fn random_fault_schedules_never_corrupt_the_store(
        seed in any::<u64>(),
        rules in collection::vec(arb_rule(), 0..5),
    ) {
        let _serial = fault_lock();
        let dir = scratch("prop");
        let store = ResultStore::open(&dir).unwrap();
        let guard = faults::arm(FaultPlan { seed, rules });

        for i in 0..6u64 {
            let name = format!("k{i}.json");
            // A success must carry the correct value even when its
            // persistence failed behind the scenes; a failure is loud and
            // typed, nothing to assert beyond it not being a silent wrong
            // answer.
            if let Ok((r, _)) = store.get_or_compute(&name, false, || canned(i + 1)) {
                prop_assert_eq!(r.stats.cycles, i + 1);
            }
        }
        drop(guard);

        // Disk invariants: only complete entries and quarantined
        // damage, never a half-written file or abandoned temp.
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.ends_with(".corrupt") {
                continue;
            }
            prop_assert!(name.ends_with(".json"), "litter: {}", name);
            let text = fs::read_to_string(&path).unwrap();
            let parsed: Result<SimResult, _> = serde_json::from_str(&text);
            prop_assert!(parsed.is_ok(), "torn entry {}: {}", name, text);
        }

        // Clean pass: every key converges to the undisturbed value.
        for i in 0..6u64 {
            let name = format!("k{i}.json");
            let (r, _) = store.get_or_compute(&name, false, || canned(i + 1)).unwrap();
            prop_assert_eq!(r.stats.cycles, i + 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// 4 distinct points into a `max_inflight = 1` server whose publishes
/// are stalled: exactly one request is admitted at a time, the rest are
/// shed with `429` + `Retry-After` — and every shed point succeeds on
/// retry once load drains. No connection is ever reset.
#[test]
fn overloaded_server_sheds_with_retry_after_and_completes_admitted_work() {
    let _serial = fault_lock();
    let out = scratch("overload");
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: out.join("cache"),
        threads: 4,
        shards: 1,
        max_inflight: 1,
        deadline: None,
        store: None,
        http_timeout: Duration::from_secs(600),
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // Stall every cache publish under this test's directory: each
    // admitted request holds its admission slot for ≥400 ms, so the
    // barrier-released peers are deterministically shed.
    let guard = faults::arm(stall_publishes_under("btbx-chaos-overload"));

    let sweep = four_point_sweep("chaos-overload");
    let bodies: Vec<String> = sweep
        .points()
        .iter()
        .map(|p| serde_json::to_string(p).unwrap())
        .collect();
    assert_eq!(bodies.len(), 4);

    let barrier = Barrier::new(4);
    let responses: Vec<(usize, u16, String, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let addr = &addr;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    // An Err here would be a reset/dropped connection —
                    // exactly what overload protection must never do.
                    let r = http_request(addr, "POST", "/sim", body)
                        .expect("shedding must answer, not reset");
                    let retry = r.header("Retry-After").map(str::to_string);
                    (i, r.status, r.body, retry)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let shed: Vec<&(usize, u16, String, Option<String>)> =
        responses.iter().filter(|(_, s, ..)| *s == 429).collect();
    let ok = responses.iter().filter(|(_, s, ..)| *s == 200).count();
    assert!(ok >= 1, "the admitted request must complete: {responses:?}");
    assert!(!shed.is_empty(), "4 requests into 1 slot must shed");
    for (_, _, body, retry) in &shed {
        assert_eq!(retry.as_deref(), Some("1"), "shed without Retry-After");
        assert!(body.contains("overloaded"), "{body}");
    }
    for (_, status, body, _) in &responses {
        if *status == 200 {
            let _: SimResult = serde_json::from_str(body).expect("complete result body");
        }
    }

    // Every shed point succeeds on retry once capacity frees up.
    for (i, ..) in &shed {
        let mut done = false;
        for _ in 0..100 {
            let r = http_request(&addr, "POST", "/sim", &bodies[*i]).unwrap();
            match r.status {
                200 => {
                    done = true;
                    break;
                }
                429 => std::thread::sleep(Duration::from_millis(100)),
                other => panic!("unexpected status {other}: {}", r.body),
            }
        }
        assert!(done, "shed point {i} never completed on retry");
    }

    // The stats counters record the shedding.
    let stats = http_request(&addr, "GET", "/stats", "").unwrap();
    let count = |key: &str| -> u64 {
        let tail = &stats.body[stats.body.find(key).unwrap() + key.len()..];
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(
        count("\"shed\":") >= shed.len() as u64,
        "shed counter must cover the observed 429s: {}",
        stats.body
    );
    assert!(count("\"errors\":") >= shed.len() as u64);

    drop(guard);
    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

/// Stall every write under paths containing `dir` by 400 ms.
fn stall_publishes_under(dir: &str) -> FaultPlan {
    FaultPlan {
        seed: 6,
        rules: vec![FaultRule {
            op: FaultOp::Write,
            kind: ErrKind::Stall,
            path: dir.to_string(),
            nth: 1,
            count: 0,
            delay_ms: 400,
        }],
    }
}

fn four_point_sweep(name: &str) -> Sweep {
    Sweep::named(name)
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb1_8])
        .fdip_options([false])
        .windows(2_000, 4_000)
}

/// A runaway simulation is aborted at the per-request deadline with a
/// `503` on the *same connection* (no reset), counted, and the server
/// remains healthy for normal-sized work afterwards.
#[test]
fn deadline_aborts_runaway_simulations_and_the_server_survives() {
    let out = scratch("deadline");
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: out.join("cache"),
        threads: 2,
        shards: 1,
        max_inflight: 0,
        deadline: Some(Duration::from_millis(150)),
        store: None,
        http_timeout: Duration::from_secs(600),
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // A point far too large to finish inside the deadline.
    let runaway = Sweep::named("chaos-runaway")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000_000, 4_000_000);
    let body = serde_json::to_string(&runaway.points()[0]).unwrap();
    let r = http_request(&addr, "POST", "/sim", &body).expect("aborts answer, never reset");
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.body.contains("deadline"), "{}", r.body);
    assert_eq!(r.header("X-Btbx-Abort"), Some("deadline"));

    let stats = http_request(&addr, "GET", "/stats", "").unwrap();
    assert!(
        stats.body.contains("\"deadline_aborts\":1"),
        "{}",
        stats.body
    );

    // The server is not poisoned: health stays green and a reasonable
    // point still completes well inside the deadline.
    let health = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let small = Sweep::named("chaos-runaway")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000);
    let body = serde_json::to_string(&small.points()[0]).unwrap();
    let r = http_request(&addr, "POST", "/sim", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

/// Every cache entry (name → bytes) under `out/cache`.
fn cache_entries(out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = fs::read_dir(out.join("cache"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).unwrap(),
            )
        })
        .collect();
    entries.sort();
    entries
}

/// SIGKILL a sweep mid-run, rerun it, and require the resumed cache to
/// be byte-identical to an undisturbed run's. Exercises the atomic
/// publish the way a real crash does — no drop handlers, no flushes.
#[test]
fn sigkilled_sweep_resumes_to_byte_identical_results() {
    let bin = env!("CARGO_BIN_EXE_btbx");
    let workload = suite::ipc1_client().into_iter().next().unwrap().name;
    let disturbed = scratch("kill-a");
    let undisturbed = scratch("kill-b");
    let args = |out: &Path| -> Vec<String> {
        [
            "sweep",
            "--orgs",
            "conv,btbx",
            "--budgets",
            "0.9KB",
            "--suite",
            "ipc1",
            "--workloads",
            &workload,
            "--fdip",
            "both",
            "--warmup",
            "100000",
            "--measure",
            "200000",
            "--threads",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]
        .into_iter()
        .map(str::to_string)
        .collect()
    };

    // Start the doomed sweep and SIGKILL it mid-run (Child::kill is
    // SIGKILL on Unix: no unwinding, no Drop, no flushes).
    let mut child = Command::new(bin)
        .args(args(&disturbed))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    std::thread::sleep(Duration::from_millis(300));
    // On a fast machine the sweep may already have finished — the
    // resume path must behave identically either way.
    let _ = child.kill();
    let _ = child.wait();
    // What the killed run published: whole entries only, by atomic
    // rename (a torn temp file is not an entry).
    let finished = fs::read_dir(disturbed.join("cache"))
        .map(|dir| {
            dir.filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().ends_with(".json")
            })
            .count()
        })
        .unwrap_or(0);

    // Resume by rerunning the identical command: exits 0 and reports
    // the points the killed run finished as cached.
    let resumed = Command::new(bin)
        .args(args(&disturbed))
        .output()
        .expect("resume run");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed.status.success(),
        "resume failed: {stderr}\n{}",
        String::from_utf8_lossy(&resumed.stdout)
    );
    // The cache probe answers exactly what the killed run finished
    // (and prints nothing when it finished nothing).
    assert_eq!(
        stderr.contains(&format!("[sweep] {finished}/4 cached")),
        finished > 0,
        "{finished} point(s) finished before the kill: {stderr}"
    );

    // Reference: the same sweep, never disturbed.
    let reference = Command::new(bin)
        .args(args(&undisturbed))
        .output()
        .expect("reference run");
    assert!(reference.status.success());

    let a = cache_entries(&disturbed);
    let b = cache_entries(&undisturbed);
    assert!(!a.is_empty(), "the resumed sweep must publish entries");
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same entry set"
    );
    assert_eq!(a, b, "resumed cache must be byte-identical");
    let _ = fs::remove_dir_all(&disturbed);
    let _ = fs::remove_dir_all(&undisturbed);
}

/// An EIO on the first block read of a container, after it opened
/// cleanly: the session, the server and the CLI sweep each fail the run
/// with the typed error, and the process survives.
#[test]
fn a_failed_container_block_read_fails_the_run_not_the_process() {
    use btbx_core::spec::BtbSpec;
    use btbx_core::types::Arch;
    use btbx_trace::container::write_container;
    use btbx_trace::{AnySource, WorkloadSpec};
    use btbx_uarch::{SessionError, SimSession};

    let _serial = fault_lock();
    let out = scratch("eio");
    fs::create_dir_all(&out).unwrap();
    let trace = out.join("container.btbt");
    let mut stream = suite::ipc1_client()[0].build_trace();
    let file = fs::File::create(&trace).unwrap();
    write_container(file, "eio-probe", Arch::Arm64, &mut stream, 20_000).unwrap();
    // The fault matches block reads by stream name; a workload name of
    // its own keeps the rule off the point's cache-entry reads.
    let mut workload = WorkloadSpec::from_container(&trace).unwrap();
    workload.name = "eio-workload".into();
    let plan = FaultPlan {
        seed: 0,
        rules: vec![FaultRule {
            op: FaultOp::Read,
            kind: ErrKind::Eio,
            path: "eio-probe".into(),
            nth: 1,
            count: 1,
            delay_ms: 0,
        }],
    };
    let sweep = Sweep::named("eio")
        .workloads([workload])
        .orgs([OrgKind::Conv])
        .fdip_options([false])
        .windows(1_000, 2_000);

    // The session reports the lost bytes instead of a short result.
    {
        let _armed = faults::arm(plan.clone());
        let err = SimSession::new(AnySource::open(&trace).unwrap())
            .btb_spec(BtbSpec::of(OrgKind::Conv))
            .warmup(1_000)
            .measure(2_000)
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, SessionError::Trace { source, .. } if source == "eio-probe"),
            "{err}"
        );
    }

    // A served point answers 500 naming the container, on the open
    // connection, and the server stays healthy.
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: out.join("serve"),
        threads: 2,
        shards: 1,
        max_inflight: 0,
        deadline: None,
        store: None,
        http_timeout: Duration::from_secs(600),
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let body = serde_json::to_string(&sweep.points()[0]).unwrap();
    {
        let _armed = faults::arm(plan.clone());
        let r = http_request(&addr, "POST", "/sim", &body).expect("answered, never reset");
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(r.body.contains("eio-probe"), "{}", r.body);
        assert!(r.body.contains("injected EIO"), "{}", r.body);
    }
    assert_eq!(
        http_request(&addr, "GET", "/healthz", "").unwrap().status,
        200
    );
    let r = http_request(&addr, "POST", "/sim", &body).unwrap();
    assert_eq!(r.status, 200, "the failure was not cached: {}", r.body);
    server.shutdown().unwrap();
    server.join();

    // `btbx sweep` exits 1 and names the typed error. The plan travels
    // as a file path in `BTBX_FAULT_PLAN`, so that form stays covered.
    let spec = out.join("spec.json");
    fs::write(&spec, sweep.to_json().unwrap()).unwrap();
    let plan_file = out.join("plan.json");
    fs::write(&plan_file, serde_json::to_string(&plan).unwrap()).unwrap();
    let cli_out = out.join("cli");
    let run = Command::new(env!("CARGO_BIN_EXE_btbx"))
        .args(["sweep", "--spec", spec.to_str().unwrap(), "--fresh"])
        .env(faults::FAULT_PLAN_ENV, &plan_file)
        .args(["--out", cli_out.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    let failed = stderr
        .lines()
        .find(|line| line.starts_with("error: sweep failed:"))
        .unwrap_or_else(|| panic!("no failure line: {stderr}"));
    assert!(failed.contains("eio-probe"), "{failed}");
    assert!(failed.contains("injected EIO"), "{failed}");
    let _ = fs::remove_dir_all(&out);
}
