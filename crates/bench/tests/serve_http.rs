//! End-to-end tests for `btbx serve`: protocol correctness, concurrent
//! request deduplication, byte-identity with the serial CLI sweep path,
//! and graceful shutdown — in process, and against the `btbx serve`
//! binary itself.

use btbx_bench::faults::{ErrKind, FaultOp, FaultPlan, FaultRule, FAULT_PLAN_ENV};
use btbx_bench::serve::{http_request, HealthInfo, ServeConfig, ServeStats, Server};
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::SimResult;
use serde::Deserialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-serve-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str) -> (Server, PathBuf) {
    let out = scratch(tag);
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: out.join("cache"),
        threads: 4,
        shards: 1,
        max_inflight: 0,
        deadline: None,
        store: None,
        http_timeout: Duration::from_secs(600),
    })
    .expect("server starts");
    (server, out)
}

/// The body of every refused request.
#[derive(Deserialize)]
struct ErrorBody {
    error: String,
}

fn two_point_sweep() -> Sweep {
    Sweep::named("serve-test")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000)
}

#[test]
fn protocol_basics() {
    let (server, out) = start("protocol");
    let addr = server.addr().to_string();

    // /healthz carries the versions a client checks, not a bare ok.
    let health = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let info: HealthInfo = serde_json::from_str(&health.body).unwrap();
    assert!(info.ok);
    assert_eq!(info.cache_version, btbx_bench::sweep::CACHE_VERSION);
    assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
    assert!(info.orgs.iter().any(|o| o == "btbx"), "{:?}", info.orgs);

    // Every 404 body is JSON naming the path, whatever characters the
    // path holds: a control character, a trailing combining accent.
    for path in ["/nope", "/a\x01b", "/cafe\u{301}"] {
        let missing = http_request(&addr, "GET", path, "").unwrap();
        assert_eq!(missing.status, 404, "{path:?}");
        let body: ErrorBody = serde_json::from_str(&missing.body)
            .unwrap_or_else(|e| panic!("{path:?}: {e}: {}", missing.body));
        assert_eq!(body.error, format!("no route {path}"));
    }

    let bad = http_request(&addr, "POST", "/sim", "{\"this is\": not a point").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("bad SimPoint"), "{}", bad.body);

    // Malformed wire data is answered 400 and still counted as a
    // request, so `errors <= requests` holds for stats consumers.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"garbage\r\n\r\n").unwrap();
        let mut raw_response = String::new();
        let _ = raw.read_to_string(&mut raw_response);
        assert!(raw_response.starts_with("HTTP/1.1 400"), "{raw_response}");
    }

    let stats = http_request(&addr, "GET", "/stats", "").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"requests\":"), "{}", stats.body);
    let count = |key: &str| -> u64 {
        let tail = &stats.body[stats.body.find(key).unwrap() + key.len()..];
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let (requests, errors) = (count("\"requests\":"), count("\"errors\":"));
    assert!(
        errors >= 5,
        "the 404s, bad JSON and garbage count: {errors}"
    );
    assert!(
        errors <= requests,
        "errors ({errors}) must be a subset of requests ({requests})"
    );

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn eight_concurrent_clients_compute_each_unique_point_once() {
    let (server, out) = start("dedup");
    let addr = server.addr().to_string();
    let points = two_point_sweep().points();
    assert_eq!(points.len(), 2);
    let bodies: Vec<String> = points
        .iter()
        .map(|p| serde_json::to_string(p).unwrap())
        .collect();

    // 8 concurrent clients, 4 duplicates of each of the 2 unique points.
    let barrier = Barrier::new(8);
    let responses: Vec<(usize, u16, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = &addr;
                let bodies = &bodies;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let which = i % 2;
                    let r = http_request(addr, "POST", "/sim", &bodies[which]).unwrap();
                    let cache = r.header("X-Btbx-Cache").unwrap_or("missing").to_string();
                    (which, r.status, r.body, cache)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (_, status, body, cache) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert!(
            ["disk", "computed", "joined"].contains(&cache.as_str()),
            "unexpected cache header {cache}"
        );
    }
    // All duplicates of one point get byte-identical bodies.
    for which in 0..2 {
        let bodies: Vec<&String> = responses
            .iter()
            .filter(|(w, ..)| *w == which)
            .map(|(_, _, body, _)| body)
            .collect();
        assert_eq!(bodies.len(), 4);
        assert!(
            bodies.windows(2).all(|w| w[0] == w[1]),
            "duplicate requests must agree byte-for-byte"
        );
    }

    // The server computed exactly 2 simulations for the 8 requests.
    let stats = http_request(&addr, "GET", "/stats", "").unwrap();
    assert!(
        stats.body.contains("\"computes\":2"),
        "dedup failed: {}",
        stats.body
    );

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn served_results_are_byte_identical_to_the_serial_cli_path() {
    // Reference: the serial CLI sweep (shards=1), its own cache dir.
    let cli_out = scratch("cli-ref");
    let sweep = two_point_sweep();
    let cli_results = sweep.run(&HarnessOpts {
        warmup: 2_000,
        measure: 4_000,
        offset_instrs: 10_000,
        fresh: false,
        out_dir: cli_out.clone(),
        threads: 2,
        shards: 1,
        trace: None,
        batch: true,
    });

    // Same points through a fresh server (separate cache).
    let (server, out) = start("vs-cli");
    let addr = server.addr().to_string();
    for (point, cli) in sweep.points().iter().zip(&cli_results) {
        let body = serde_json::to_string(point).unwrap();
        let response = http_request(&addr, "POST", "/sim", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let served: SimResult = serde_json::from_str(&response.body).unwrap();
        assert_eq!(&served, cli, "served result diverges from CLI");
        // Byte-level: the response body is the serialized result, which
        // must match the CLI's cache file exactly.
        let cache_file = cli_out.join("cache").join(point.cache_file());
        assert_eq!(
            response.body,
            fs::read_to_string(cache_file).unwrap(),
            "served bytes diverge from the CLI cache entry"
        );
    }

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
    let _ = fs::remove_dir_all(&cli_out);
}

#[test]
fn a_repeat_is_served_from_disk_byte_identically() {
    // The server computes a point once; asking again is answered from
    // the durable store with the same bytes, not re-simulated.
    let (server, out) = start("repeat");
    let addr = server.addr().to_string();
    let point = &two_point_sweep().points()[0];
    let body = serde_json::to_string(point).unwrap();
    let first = http_request(&addr, "POST", "/sim", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Btbx-Cache"), Some("computed"));
    // Second request: served from the durable cache.
    let second = http_request(&addr, "POST", "/sim", &body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Btbx-Cache"), Some("disk"));
    assert_eq!(first.body, second.body);

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn an_unresolvable_trace_answers_500_and_the_server_stays_healthy() {
    use btbx_trace::container::write_container;
    use btbx_trace::WorkloadSpec;
    let (server, out) = start("unresolvable");
    let addr = server.addr().to_string();
    let stats = || -> ServeStats {
        let r = http_request(&addr, "GET", "/stats", "").unwrap();
        serde_json::from_str(&r.body).unwrap()
    };

    // A file-backed point whose container was deleted after the
    // workload spec was made.
    fs::create_dir_all(&out).unwrap();
    let trace = out.join("gone.btbt");
    let mut stream = suite::ipc1_client()[0].build_trace();
    let file = fs::File::create(&trace).unwrap();
    write_container(file, "gone", btbx_core::Arch::Arm64, &mut stream, 20_000).unwrap();
    let mut workload = WorkloadSpec::from_container(&trace).unwrap();
    workload.name = "unresolvable".into();
    fs::remove_file(&trace).unwrap();
    let mut point = two_point_sweep().points().remove(0);
    point.workload = workload;

    let before = stats();
    let body = serde_json::to_string(&point).unwrap();
    let r = http_request(&addr, "POST", "/sim", &body).expect("answered, never reset");
    assert_eq!(r.status, 500, "{}", r.body);
    let error: ErrorBody = serde_json::from_str(&r.body).unwrap();
    assert!(
        error.error.contains(&point.cache_file()),
        "the body must name the point: {}",
        r.body
    );
    assert_eq!(r.header("X-Btbx-Abort"), None);

    let after = stats();
    assert_eq!(after.errors, before.errors + 1);
    assert_eq!(after.deadline_aborts, 0);
    assert_eq!(
        http_request(&addr, "GET", "/healthz", "").unwrap().status,
        200
    );
    let valid = serde_json::to_string(&two_point_sweep().points()[0]).unwrap();
    let r = http_request(&addr, "POST", "/sim", &valid).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn an_oversized_request_head_answers_400_and_the_server_stays_healthy() {
    use std::io::{Read, Write};
    let (server, out) = start("oversized-head");
    let addr = server.addr().to_string();
    let stats = || -> ServeStats {
        let r = http_request(&addr, "GET", "/stats", "").unwrap();
        serde_json::from_str(&r.body).unwrap()
    };

    let before = stats();
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let pad = "a".repeat(64 << 10);
    let request = format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
    // The server may answer and close before it has read the whole head,
    // so a failed write is not the assertion; the response is.
    let _ = raw.write_all(request.as_bytes());
    let mut response = String::new();
    let _ = raw.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:.200}");
    assert!(
        response.contains("request head too large"),
        "{response:.200}"
    );
    assert_eq!(stats().errors, before.errors + 1);

    assert_eq!(
        http_request(&addr, "GET", "/healthz", "").unwrap().status,
        200
    );

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&out);
}

/// A `btbx serve` process, killed on drop unless it already exited, so
/// a failed assertion never leaves one running.
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawn `btbx serve --port 0` over `out`, with `extra` options and
    /// an optional `BTBX_FAULT_PLAN`, and wait for its port file.
    fn spawn(out: &Path, extra: &[&str], fault_plan: Option<&FaultPlan>) -> ServeProcess {
        fs::create_dir_all(out).unwrap();
        let port_file = out.join("serve.port");
        let mut command = Command::new(env!("CARGO_BIN_EXE_btbx"));
        command
            .args(["serve", "--port", "0", "--port-file"])
            .arg(&port_file)
            .arg("--out")
            .arg(out)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(plan) = fault_plan {
            command.env(FAULT_PLAN_ENV, serde_json::to_string(plan).unwrap());
        }
        let child = command.spawn().expect("spawn btbx serve");
        let begin = Instant::now();
        let port = loop {
            let port = fs::read_to_string(&port_file).unwrap_or_default();
            if port.ends_with('\n') {
                break port.trim().to_string();
            }
            assert!(begin.elapsed() < Duration::from_secs(30), "no port file");
            std::thread::sleep(Duration::from_millis(20));
        };
        ServeProcess {
            child,
            addr: format!("127.0.0.1:{port}"),
        }
    }

    fn stats(&self) -> ServeStats {
        let r = http_request(&self.addr, "GET", "/stats", "").unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        serde_json::from_str(&r.body).unwrap()
    }

    /// `POST /shutdown` and require the process to exit 0.
    fn shutdown(mut self) {
        let r = http_request(&self.addr, "POST", "/shutdown", "").unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let status = self.child.wait().unwrap();
        assert!(status.success(), "btbx serve exited with {status}");
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Every `*.json` cache entry under `out/cache`, sorted by name.
fn cache_entries(out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = fs::read_dir(out.join("cache"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&p).unwrap())
        })
        .collect();
    entries.sort();
    entries
}

/// POST `body` to `/sim`, re-sending while the server sheds it with a
/// `429`; returns the final response and how many sheds it rode out.
fn post_until_admitted(addr: &str, body: &str) -> (btbx_bench::serve::HttpResponse, usize) {
    let mut shed = 0;
    loop {
        let r = http_request(addr, "POST", "/sim", body).expect("answered, never reset");
        if r.status != 429 {
            return (r, shed);
        }
        assert_eq!(r.header("Retry-After"), Some("1"), "{}", r.body);
        shed += 1;
        assert!(shed < 200, "never admitted: {}", r.body);
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `btbx serve` binary, end to end over real HTTP, in three
/// processes:
/// - dedup: two concurrent clients each send a 4-point matrix, and the
///   single-flight store runs exactly 4 simulations;
/// - equality: every cache entry the server publishes is byte-identical
///   to a serial `btbx sweep` of the same points;
/// - shed: under `--max-inflight 1`, with every cache publish stalled,
///   concurrent requests are shed with `429` + `Retry-After`, and every
///   point completes on retry with the same bytes;
/// - deadline: under `--deadline-ms 300`, a runaway point answers `503`
///   with `X-Btbx-Abort: deadline`, is counted once, and `/healthz`
///   answers afterwards;
/// - shutdown: `POST /shutdown` makes each process exit 0.
#[test]
fn the_serve_binary_dedups_matches_the_cli_sheds_and_aborts() {
    let base = scratch("process");
    let sweep = Sweep::named("serve-process")
        .workloads(
            suite::ipc1_client()
                .into_iter()
                .filter(|w| ["client_001", "client_002"].contains(&w.name.as_str())),
        )
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .windows(20_000, 40_000);
    let bodies: Vec<String> = sweep
        .points()
        .iter()
        .map(|p| serde_json::to_string(p).unwrap())
        .collect();
    assert_eq!(bodies.len(), 4);

    // The reference: a serial CLI sweep of the same points.
    let reference = base.join("reference");
    let spec = base.join("spec.json");
    fs::create_dir_all(&base).unwrap();
    fs::write(&spec, sweep.to_json().unwrap()).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_btbx"))
        .args(["sweep", "--spec", spec.to_str().unwrap(), "--threads", "1"])
        .args(["--out", reference.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let expected = cache_entries(&reference);
    assert_eq!(expected.len(), 4);

    // Dedup and equality.
    let served = base.join("served");
    let server = ServeProcess::spawn(&served, &["--threads", "4"], None);
    let health = http_request(&server.addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for body in &bodies {
                    let r = http_request(&server.addr, "POST", "/sim", body).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.store.computes, 4, "dedup failed: {stats:?}");
    server.shutdown();
    assert_eq!(cache_entries(&served), expected, "served cache diverges");

    // Shed: each admitted request holds the only slot while its publish
    // stalls, so the barrier-released peers are shed.
    let shed_out = base.join("shed");
    let stall = FaultPlan {
        seed: 6,
        rules: vec![FaultRule {
            op: FaultOp::Write,
            kind: ErrKind::Stall,
            path: "btbx-serve-process/shed".to_string(),
            nth: 1,
            count: 0,
            delay_ms: 400,
        }],
    };
    let server = ServeProcess::spawn(
        &shed_out,
        &["--threads", "2", "--max-inflight", "1"],
        Some(&stall),
    );
    let barrier = Barrier::new(bodies.len());
    let sheds: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let (addr, barrier) = (&server.addr, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (r, shed) = post_until_admitted(addr, body);
                    assert_eq!(r.status, 200, "{}", r.body);
                    shed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(sheds >= 1, "4 requests into 1 slot must shed");
    let stats = server.stats();
    assert_eq!(stats.shed, sheds as u64, "{stats:?}");
    server.shutdown();
    assert_eq!(
        cache_entries(&shed_out),
        expected,
        "shed-leg cache diverges"
    );

    // Deadline: a runaway point is aborted, counted once, and the server
    // stays healthy.
    let server = ServeProcess::spawn(
        &base.join("deadline"),
        &["--threads", "2", "--deadline-ms", "300"],
        None,
    );
    let runaway = Sweep::named("serve-runaway")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv])
        .budgets([BudgetPoint::Kb0_9])
        .windows(3_000_000, 3_000_000);
    let body = serde_json::to_string(&runaway.points()[0]).unwrap();
    let r = http_request(&server.addr, "POST", "/sim", &body).expect("answered, never reset");
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(r.header("X-Btbx-Abort"), Some("deadline"));
    assert_eq!(server.stats().deadline_aborts, 1);
    let health = http_request(&server.addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    server.shutdown();

    let _ = fs::remove_dir_all(&base);
}
