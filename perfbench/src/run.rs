//! One repetition of each workload, driven through the public entry
//! points: `Sweep::run`, `serve::Server` with `serve::http_request`, and
//! `SimPoint::run_sharded`.

use crate::inputs::{Inputs, Workload, THREADS};
use crate::trace::Tracer;
use btbx_bench::serve::{http_request, ServeConfig, ServeStats, Server};
use btbx_bench::HarnessOpts;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one repetition produced.
pub struct Rep {
    pub seconds: f64,
    /// Wall time of each unit a user waits for: a sweep, a request, a
    /// sharded point.
    pub latencies_ms: Vec<f64>,
    /// Results delivered (sweep points, responses, sharded points).
    pub delivered: usize,
    /// Simulations this repetition computed (cache misses), by point.
    pub computed: Vec<usize>,
    /// Each delivered result as `(point, serialized result)`; `None`
    /// where the operation failed.
    pub outputs: Vec<(usize, Option<String>)>,
    /// `serve-mixed`: how each response was obtained (`X-Btbx-Cache`).
    pub cache: Vec<String>,
    /// `serve-mixed`: the server's counters after the last request.
    pub stats: Option<ServeStats>,
}

/// Run one repetition of `inputs`' workload with a cold cache under `dir`.
pub fn rep(inputs: &Inputs, dir: &Path) -> Rep {
    let _ = std::fs::remove_dir_all(dir);
    let rep = match inputs.workload {
        Workload::SweepFig9 | Workload::SweepTiny => sweep(inputs, dir),
        Workload::ServeMixed => serve(inputs, &inputs.requests, dir, None),
        Workload::PointSharded => sharded(inputs),
    };
    let _ = std::fs::remove_dir_all(dir);
    rep
}

fn sweep(inputs: &Inputs, dir: &Path) -> Rep {
    let sweep = inputs
        .sweep
        .as_ref()
        .expect("sweep workloads carry a sweep");
    let opts = HarnessOpts {
        out_dir: dir.to_path_buf(),
        threads: THREADS,
        shards: 1,
        batch: true,
        ..HarnessOpts::default()
    };
    let start = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| sweep.run(&opts)));
    let seconds = start.elapsed().as_secs_f64();
    let outputs = match results {
        Ok(results) if results.len() == inputs.points.len() => results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    i,
                    Some(serde_json::to_string(r).expect("results serialize")),
                )
            })
            .collect(),
        _ => (0..inputs.points.len()).map(|i| (i, None)).collect(),
    };
    Rep {
        seconds,
        latencies_ms: vec![seconds * 1e3],
        delivered: inputs.points.len(),
        computed: (0..inputs.points.len()).collect(),
        outputs,
        cache: Vec::new(),
        stats: None,
    }
}

fn sharded(inputs: &Inputs) -> Rep {
    let point = &inputs.points[0];
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| point.run_sharded(2, THREADS)));
    let seconds = start.elapsed().as_secs_f64();
    let output = result
        .ok()
        .map(|r| serde_json::to_string(&r).expect("results serialize"));
    Rep {
        seconds,
        latencies_ms: vec![seconds * 1e3],
        delivered: 1,
        computed: vec![0],
        outputs: vec![(0, output)],
        cache: Vec::new(),
        stats: None,
    }
}

/// Serve `requests` (indices into `inputs.points`) from an in-process
/// server with a cold cache under `dir`, from [`THREADS`] closed-loop
/// clients that each wait for their reply before sending the next
/// request. With a tracer, each request is a `serve.request` span under
/// the given parent.
pub fn serve(
    inputs: &Inputs,
    requests: &[usize],
    dir: &Path,
    tracer: Option<(&Tracer, usize)>,
) -> Rep {
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: dir.join("cache"),
        threads: THREADS,
        shards: 1,
        max_inflight: 0,
        deadline: None,
        store: None,
        http_timeout: Duration::from_secs(600),
    })
    .expect("starting the server");
    let addr = server.addr().to_string();
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&point) = requests.get(k) else { break };
                let body = &inputs.request_bodies[point];
                let send = || {
                    let sent = Instant::now();
                    let reply = http_request(&addr, "POST", "/sim", body);
                    (reply, sent.elapsed().as_secs_f64() * 1e3)
                };
                let (reply, ms) = match tracer {
                    Some((t, parent)) => {
                        let key = inputs.points[point].cache_key();
                        t.span(Some(parent), "serve.request", &key, |_| send())
                    }
                    None => send(),
                };
                replies.lock().expect("reply lock").push((point, reply, ms));
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let stats = http_request(&addr, "GET", "/stats", "")
        .ok()
        .and_then(|r| serde_json::from_str::<ServeStats>(&r.body).ok());
    server.shutdown().expect("stopping the server");
    server.join();

    let replies = replies.into_inner().expect("reply lock");
    let mut rep = Rep {
        seconds,
        latencies_ms: Vec::with_capacity(replies.len()),
        delivered: replies.len(),
        computed: Vec::new(),
        outputs: Vec::with_capacity(replies.len()),
        cache: Vec::with_capacity(replies.len()),
        stats,
    };
    for (point, reply, ms) in replies {
        rep.latencies_ms.push(ms);
        let ok = reply.ok().filter(|r| r.status == 200);
        let cache = ok
            .as_ref()
            .and_then(|r| r.header("X-Btbx-Cache"))
            .unwrap_or("error")
            .to_string();
        if cache == "computed" {
            rep.computed.push(point);
        }
        rep.cache.push(cache);
        rep.outputs.push((point, ok.map(|r| r.body)));
    }
    rep
}
