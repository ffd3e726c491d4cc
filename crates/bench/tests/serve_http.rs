//! End-to-end tests for `btbx serve`: protocol correctness, concurrent
//! request deduplication, byte-identity with the serial CLI sweep path,
//! and graceful shutdown.

use btbx_bench::cluster::{self, ClusterConfig, ClusterError};
use btbx_bench::opts::DEFAULT_HTTP_TIMEOUT_MS;
use btbx_bench::serve::{http_request, ServeConfig, Server};
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::SimResult;
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Duration;

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
        http_timeout: Duration::from_millis(DEFAULT_HTTP_TIMEOUT_MS),
    })
    .expect("server starts");
    (server, out)
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

    // /healthz carries the fleet compat handshake, not a bare ok.
    let health = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let info: btbx_bench::cluster::HealthInfo = serde_json::from_str(&health.body).unwrap();
    assert!(info.ok);
    assert_eq!(info.cache_version, btbx_bench::sweep::CACHE_VERSION);
    assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
    assert!(info.orgs.iter().any(|o| o == "btbx"), "{:?}", info.orgs);

    let missing = http_request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(missing.status, 404);

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
    assert!(errors >= 2, "the 404, bad JSON and garbage count: {errors}");
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
        http_timeout_ms: 600_000,
        batch: true,
        fault_plan: None,
        store: None,
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

/// `btbx sweep --server` is a one-node coordinator: it mirrors the local
/// sweep and publishes the same cache entries into its own `<out>/cache`.
#[test]
fn one_node_coordinator_matches_local_sweep_order_and_results() {
    let (server, out) = start("sweep-client");
    let addr = server.addr().to_string();
    let sweep = two_point_sweep();
    let local_out = scratch("sweep-client-local");
    let opts = HarnessOpts {
        warmup: 2_000,
        measure: 4_000,
        offset_instrs: 10_000,
        fresh: false,
        out_dir: local_out.clone(),
        threads: 4,
        shards: 1,
        trace: None,
        http_timeout_ms: 600_000,
        batch: true,
        fault_plan: None,
        store: None,
    };
    let local = sweep.run(&opts);
    let remote_out = scratch("sweep-client-remote");
    let remote_opts = HarnessOpts {
        out_dir: remote_out.clone(),
        ..opts.clone()
    };
    let one_node = |addr: &str| ClusterConfig::from_opts(vec![addr.to_string()], &remote_opts);
    let remote = cluster::sweep_via_cluster(&sweep, &remote_opts, &one_node(&addr))
        .expect("server sweep succeeds");
    assert_eq!(local, remote, "remote sweep must mirror the local one");
    for point in sweep.points() {
        let name = point.cache_file();
        assert_eq!(
            fs::read(remote_out.join("cache").join(&name)).unwrap(),
            fs::read(local_out.join("cache").join(&name)).unwrap(),
            "{name}: the coordinator's cache entry diverges from the local one"
        );
    }

    // A dead address surfaces as a typed handshake error, not a panic.
    let err = cluster::sweep_via_cluster(&sweep, &remote_opts, &one_node("127.0.0.1:9"))
        .expect_err("unreachable server must be a typed error");
    assert!(matches!(err, ClusterError::NoUsableNodes { .. }), "{err}");

    server.shutdown().unwrap();
    server.join();
    for dir in [out, local_out, remote_out] {
        let _ = fs::remove_dir_all(dir);
    }
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
    use btbx_bench::serve::ServeStats;
    use btbx_trace::TraceRef;
    let (server, out) = start("unresolvable");
    let addr = server.addr().to_string();
    let stats = || -> ServeStats {
        let r = http_request(&addr, "GET", "/stats", "").unwrap();
        serde_json::from_str(&r.body).unwrap()
    };

    // A file-backed point whose container this node does not hold, and
    // no --store to fetch it from.
    let mut point = two_point_sweep().points().remove(0);
    let tref = TraceRef::store_only(0x00de_adbe_ef00_0001);
    let key = tref.blob_key();
    point.workload.trace = Some(tref);
    let before = stats();
    let body = serde_json::to_string(&point).unwrap();
    let r = http_request(&addr, "POST", "/sim", &body).expect("answered, never reset");
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(
        r.body.contains(&key),
        "the body must name the blob: {}",
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
    use btbx_bench::serve::ServeStats;
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
