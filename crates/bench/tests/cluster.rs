//! End-to-end tests for the distributed sweep fabric: a 3-node
//! `LocalCluster` must produce results byte-identical to the serial CLI
//! sweep, compute each unique point exactly once fleet-wide, and
//! survive a node being killed mid-sweep (requeue + completion on the
//! survivors).

use btbx_bench::cluster::{
    self, ClusterConfig, ClusterError, ClusterEvent, LocalCluster, NodeState, RequestError,
};
use btbx_bench::opts::DEFAULT_HTTP_TIMEOUT_MS;
use btbx_bench::serve::{ServeConfig, Server};
use btbx_bench::{HarnessOpts, ResultStore, SimPoint, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::SimResult;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-cluster-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(out_dir: &Path) -> HarnessOpts {
    HarnessOpts {
        warmup: 2_000,
        measure: 4_000,
        offset_instrs: 10_000,
        fresh: false,
        out_dir: out_dir.to_path_buf(),
        threads: 2,
        shards: 1,
        trace: None,
        http_timeout_ms: 10_000,
        batch: true,
        fault_plan: None,
        store: None,
    }
}

/// 1 workload × 2 orgs × 2 budgets = 4 unique points.
fn four_point_sweep() -> Sweep {
    Sweep::named("cluster-test")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb1_8])
        .fdip_options([false])
        .windows(2_000, 4_000)
}

/// 1 workload × 2 orgs × 3 budgets × 2 fdip = 12 unique points — enough
/// that killing a node mid-sweep leaves real work to requeue.
fn twelve_point_sweep() -> Sweep {
    Sweep::named("cluster-kill")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb1_8, BudgetPoint::Kb3_6])
        .fdip_options([false, true])
        .windows(2_000, 4_000)
}

fn config(nodes: Vec<String>) -> ClusterConfig {
    let mut config = ClusterConfig::new(nodes);
    config.http_timeout = Duration::from_secs(10);
    config.probe_timeout = Duration::from_secs(2);
    // Keep the retire tail short so a killed node never stalls the test.
    config.probe_interval = Duration::from_millis(50);
    config
}

#[test]
fn three_node_sweep_is_byte_identical_to_serial_cli_and_computes_once() {
    // Reference: the serial CLI path with its own cache.
    let serial_out = scratch("serial-ref");
    let sweep = four_point_sweep();
    let serial = sweep.run(&opts(&serial_out));

    let base = scratch("fleet");
    let cluster = LocalCluster::start(3, &base, 2).expect("cluster starts");
    let coord_out = base.join("coordinator");
    let coord_opts = opts(&coord_out);
    let report = cluster::run_sweep(&sweep, &coord_opts, &config(cluster.addrs()))
        .expect("cluster sweep runs");

    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.stats.unique_points, 4);
    assert_eq!(report.stats.completed, 4);
    assert_eq!(report.stats.local_hits, 0);

    // Identical results, in Sweep::points order, to the serial CLI run.
    let results = report.into_results().expect("complete");
    assert_eq!(results, serial, "cluster results diverge from serial CLI");

    // Byte identity: the coordinator's cache entries must match the
    // serial CLI's, file for file.
    for point in sweep.points() {
        let name = point.cache_file();
        let serial_bytes = fs::read(serial_out.join("cache").join(&name)).expect("serial entry");
        let coord_bytes = fs::read(coord_out.join("cache").join(&name)).expect("coord entry");
        assert_eq!(serial_bytes, coord_bytes, "cache entry {name} diverges");
    }

    // Fleet-wide dedup: exactly one compute per unique point, summed
    // over the nodes' /stats.
    let fleet_computes: u64 = cluster
        .addrs()
        .iter()
        .map(|addr| {
            cluster::protocol::probe_stats(addr, Duration::from_secs(2))
                .expect("stats")
                .store
                .computes
        })
        .sum();
    assert_eq!(fleet_computes, 4, "fleet computed duplicates");

    // A second sweep is answered entirely from the coordinator's local
    // cache: nothing is dispatched.
    let again = cluster::run_sweep(&sweep, &coord_opts, &config(cluster.addrs()))
        .expect("cached sweep runs");
    assert_eq!(again.stats.local_hits, 4);
    assert_eq!(again.stats.dispatched, 0);
    assert_eq!(again.into_results().expect("complete"), serial);

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&serial_out);
}

#[test]
fn killing_a_node_mid_sweep_requeues_its_work_onto_survivors() {
    kill_a_node_mid_sweep("kill", 2);
}

/// With `threads` ≥ 2 × nodes every node runs two workers: the killed
/// node's two workers must both retire (one probing, one waiting on the
/// probes) for the sweep to return.
#[test]
fn killing_a_node_with_two_workers_requeues_its_work_onto_survivors() {
    kill_a_node_mid_sweep("kill2", 6);
}

/// How [`kill_a_node_mid_sweep`]'s fault injection stands.
#[derive(Default)]
struct Kill {
    /// The node that completed the first point.
    victim: String,
    /// Its workers that reported a completion before the kill.
    reported: usize,
    killed: bool,
    /// The coordinator declared the victim dead.
    died: bool,
}

/// Run the twelve-point sweep on a 3-node fleet with `threads`
/// coordinator workers, killing the node that completes the first point.
fn kill_a_node_mid_sweep(tag: &str, threads: usize) {
    let serial_out = scratch(&format!("{tag}-serial"));
    let sweep = twelve_point_sweep();
    let serial = sweep.run(&opts(&serial_out));

    let base = scratch(&format!("{tag}-fleet"));
    let cluster = LocalCluster::start(3, &base, 2).expect("cluster starts");
    let addrs = cluster.addrs();
    let coord_out = base.join("coordinator");
    let coord_opts = HarnessOpts {
        threads,
        ..opts(&coord_out)
    };

    // Fault injection: kill the node that completed the first point
    // (graceful shutdown closes its listener, so the worker's next
    // request is refused and the point must requeue). Each of that
    // node's workers reports its first completion before the kill and
    // waits for it, so none has a request in flight that the shutdown
    // could drain into a success after the node died. Until the node is
    // declared dead, every other node's worker waits after its
    // completion, so the survivors cannot drain the queue first. Every
    // wait is bounded.
    let per_node = threads.div_ceil(addrs.len());
    let cluster = Mutex::new(cluster);
    let kill = Mutex::new(Kill::default());
    let changed = Condvar::new();
    let wait = Duration::from_secs(10);
    let observer = |ev: ClusterEvent| match ev {
        ClusterEvent::PointDone { node, .. } => {
            let mut k = kill.lock().unwrap();
            if k.victim.is_empty() {
                k.victim = node.clone();
            }
            if k.victim != node {
                let _ = changed.wait_timeout_while(k, wait, |k| !k.died);
            } else if !k.killed {
                k.reported += 1;
                if k.reported < per_node {
                    let _ = changed.wait_timeout_while(k, wait, |k| !k.killed);
                } else {
                    drop(k);
                    let i = addrs.iter().position(|a| *a == node).expect("known node");
                    cluster.lock().unwrap().kill(i);
                    kill.lock().unwrap().killed = true;
                    changed.notify_all();
                }
            }
        }
        ClusterEvent::NodeDied { node } => {
            let mut k = kill.lock().unwrap();
            if k.victim == node {
                k.died = true;
                changed.notify_all();
            }
        }
        _ => {}
    };
    let report =
        cluster::run_sweep_observed(&sweep, &coord_opts, &config(addrs.clone()), &observer)
            .expect("cluster sweep survives the kill");

    // The sweep completed on the survivors, with nothing lost.
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.stats.completed, 12);
    assert!(
        report.stats.requeued >= 1,
        "the killed node's next pull must requeue: {:?}",
        report.stats
    );
    let results = report.nodes.clone();
    let killed_addr = kill.lock().unwrap().victim.clone();
    let dead = results
        .iter()
        .find(|n| n.addr == killed_addr)
        .expect("killed node is summarized");
    assert_eq!(dead.state, NodeState::Dead, "killed node must end dead");
    assert!(
        results
            .iter()
            .filter(|n| n.addr != killed_addr)
            .all(|n| n.state == NodeState::Healthy),
        "survivors stay healthy: {results:?}"
    );

    // And the merged result set still matches the serial CLI exactly.
    assert_eq!(
        report.into_results().expect("complete"),
        serial,
        "post-kill results diverge from serial CLI"
    );

    cluster.into_inner().unwrap().shutdown();
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&serial_out);
}

/// A one-node fleet whose node dies mid-sweep, with four workers on it:
/// once the probes give up, every worker retires and the last one fails
/// the remaining points with `FleetDown` instead of hanging.
#[test]
fn a_dead_one_node_fleet_fails_its_points_instead_of_hanging() {
    let serial_out = scratch("dead-serial");
    let sweep = twelve_point_sweep();
    let serial = sweep.run(&opts(&serial_out));

    let base = scratch("dead-fleet");
    let cluster = LocalCluster::start(1, &base, 2).expect("node starts");
    let addrs = cluster.addrs();
    let cluster = Arc::new(Mutex::new(cluster));
    let coord_opts = HarnessOpts {
        threads: 4,
        ..opts(&base.join("coordinator"))
    };
    // Detached, so that a hung sweep fails the test at the timeout.
    let (tx, rx) = mpsc::channel();
    let fleet = Arc::clone(&cluster);
    std::thread::spawn(move || {
        let killed = AtomicBool::new(false);
        let report = cluster::run_sweep_observed(&sweep, &coord_opts, &config(addrs), &|ev| {
            if matches!(ev, ClusterEvent::PointDone { .. }) && !killed.swap(true, Ordering::SeqCst)
            {
                fleet.lock().unwrap().kill(0);
            }
        });
        tx.send(report).unwrap();
    });
    let report = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a dead fleet must end the sweep, not hang")
        .expect("the node passed the startup handshake");

    assert_eq!(report.nodes[0].state, NodeState::Dead);
    assert!(!report.failures.is_empty(), "{:?}", report.stats);
    assert!(
        report
            .failures
            .iter()
            .all(|f| matches!(f.error, RequestError::FleetDown)),
        "{:?}",
        report.failures
    );
    let settled = report.stats.completed + report.stats.failed;
    assert_eq!(settled, 12, "{:?}", report.stats);
    for (got, want) in report.results.iter().zip(&serial) {
        if let Some(got) = got {
            assert_eq!(got, want);
        }
    }

    cluster.lock().unwrap().kill(0);
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&serial_out);
}

/// A point that outruns a node's per-request deadline fails after one
/// attempt: the abort is deterministic, so retrying cannot help, and the
/// node that aborted it is healthy and stays in rotation.
#[test]
fn a_deadline_abort_fails_the_point_once_and_keeps_the_node() {
    let base = scratch("deadline");
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: base.join("node").join("cache"),
        threads: 2,
        shards: 1,
        max_inflight: 0,
        deadline: Some(Duration::from_millis(300)),
        store: None,
        http_timeout: Duration::from_millis(DEFAULT_HTTP_TIMEOUT_MS),
    })
    .expect("node starts");
    let addr = server.addr().to_string();
    // One point far too large to finish inside the deadline.
    let runaway = Sweep::named("cluster-deadline")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(3_000_000, 3_000_000);
    let died = AtomicBool::new(false);
    let report = cluster::run_sweep_observed(
        &runaway,
        &opts(&base.join("coordinator")),
        &config(vec![addr.clone()]),
        &|event| {
            if matches!(event, ClusterEvent::NodeDied { .. }) {
                died.store(true, Ordering::SeqCst);
            }
        },
    )
    .expect("the node passes the handshake");

    assert_eq!(report.failures.len(), 1, "{:?}", report.stats);
    let failure = &report.failures[0];
    assert!(
        matches!(failure.error, RequestError::Deadline { .. }),
        "{failure}"
    );
    assert_eq!(report.stats.dispatched, 1, "{:?}", report.stats);
    assert_eq!(report.stats.requeued, 0, "{:?}", report.stats);
    assert!(!died.load(Ordering::SeqCst), "a NodeDied event fired");
    let summary = &report.nodes[0];
    assert_eq!(
        (summary.state, summary.failures),
        (NodeState::Healthy, 0),
        "{summary:?}"
    );
    let stats = cluster::protocol::probe_stats(&addr, Duration::from_secs(2)).unwrap();
    assert_eq!(stats.deadline_aborts, 1, "{stats:?}");

    server.shutdown().unwrap();
    server.join();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn an_unreachable_fleet_is_a_typed_error_not_a_hang() {
    let out = scratch("unreachable");
    let err = cluster::run_sweep(
        &four_point_sweep(),
        &opts(&out),
        &config(vec!["127.0.0.1:9".into(), "127.0.0.1:10".into()]),
    )
    .expect_err("no node is listening");
    assert!(matches!(err, ClusterError::NoUsableNodes { .. }), "{err}");
    let _ = fs::remove_dir_all(&out);
}

/// `--fresh` bypasses the coordinator's cache reads: over a cache a local
/// sweep just warmed, every point is still dispatched.
#[test]
fn a_fresh_cluster_sweep_dispatches_every_point_over_a_warm_cache() {
    let base = scratch("fresh");
    let coord_out = base.join("coordinator");
    let sweep = four_point_sweep();
    let warm = sweep.run(&opts(&coord_out));

    let cluster = LocalCluster::start(1, base.join("fleet"), 2).expect("node starts");
    let fresh_opts = HarnessOpts {
        fresh: true,
        ..opts(&coord_out)
    };
    let report =
        cluster::run_sweep(&sweep, &fresh_opts, &config(cluster.addrs())).expect("sweep runs");

    assert_eq!(report.stats.local_hits, 0, "{:?}", report.stats);
    assert_eq!(report.stats.dispatched, 4, "{:?}", report.stats);
    assert_eq!(report.stats.completed, 4, "{:?}", report.stats);
    assert_eq!(report.into_results().expect("complete"), warm);

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

/// A local sweep's crash resumes through the coordinator: same matrix,
/// same cache entries, whatever the transport. The crash is crafted as a
/// dying sweep leaves it: two entries published, two lost.
#[test]
fn a_local_sweeps_crash_resumes_through_the_cluster() {
    let base = scratch("resume");
    let out = base.join("coordinator");
    let sweep = four_point_sweep();
    let first = sweep.run(&opts(&out));
    let names: Vec<String> = sweep.points().iter().map(SimPoint::cache_file).collect();
    let baseline: Vec<Vec<u8>> = names
        .iter()
        .map(|n| fs::read(out.join("cache").join(n)).unwrap())
        .collect();
    for name in &names[2..] {
        fs::remove_file(out.join("cache").join(name)).unwrap();
    }

    let cluster = LocalCluster::start(1, base.join("fleet"), 2).expect("node starts");
    let done = Mutex::new(Vec::new());
    let report =
        cluster::run_sweep_observed(&sweep, &opts(&out), &config(cluster.addrs()), &|ev| {
            if let ClusterEvent::PointDone { key, .. } = ev {
                done.lock().unwrap().push(key);
            }
        })
        .expect("resumed sweep runs");

    assert_eq!(report.stats.local_hits, 2, "{:?}", report.stats);
    assert_eq!(report.stats.dispatched, 2, "{:?}", report.stats);
    let mut dispatched = done.into_inner().unwrap();
    dispatched.sort();
    let mut lost = names[2..].to_vec();
    lost.sort();
    assert_eq!(dispatched, lost, "only the lost points are dispatched");
    assert_eq!(report.into_results().expect("complete"), first);
    for (name, bytes) in names.iter().zip(&baseline) {
        let now = fs::read(out.join("cache").join(name)).unwrap();
        assert_eq!(&now, bytes, "recomputed entry bytes diverge for {name}");
    }

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

/// A matrix that lists one org twice has fewer unique points than
/// points: both transports compute each unique point once and answer
/// every listing, in `Sweep::points` order.
#[test]
fn a_duplicated_org_computes_each_point_once_on_both_transports() {
    let sweep = Sweep::named("cluster-twice")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX, OrgKind::Conv])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000);
    let points = sweep.points();
    assert_eq!(points.len(), 3);
    let expected: Vec<SimResult> = points.iter().map(SimPoint::run).collect();

    let local_out = scratch("twice-local");
    let store = ResultStore::open(local_out.join("cache")).unwrap();
    assert_eq!(sweep.run(&opts(&local_out)), expected);
    let counters = store.counters();
    assert_eq!(counters.computes, 2, "{counters:?}");
    assert_eq!(
        counters.joins + counters.disk_hits,
        0,
        "the duplicate is never dispatched: {counters:?}"
    );

    let base = scratch("twice-fleet");
    let cluster = LocalCluster::start(1, &base, 2).expect("node starts");
    let report = cluster::run_sweep(
        &sweep,
        &opts(&base.join("coordinator")),
        &config(cluster.addrs()),
    )
    .expect("sweep runs");
    assert_eq!(report.stats.unique_points, 2, "{:?}", report.stats);
    assert_eq!(report.stats.dispatched, 2, "{:?}", report.stats);
    let node =
        cluster::protocol::probe_stats(&cluster.addrs()[0], Duration::from_secs(2)).expect("stats");
    assert_eq!(node.store.computes, 2, "{:?}", node.store);
    assert_eq!(report.into_results().expect("complete"), expected);

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&local_out);
}

/// No sweep writes under `<out>/cache/journal/`: the cache is the whole
/// crash-recovery record. Pinned on both transports, for a sweep that
/// completes and for one whose point fails (its trace container is gone).
#[test]
fn no_sweep_leaves_a_journal_on_either_transport() {
    use btbx_trace::container::write_container;
    use btbx_trace::WorkloadSpec;

    let base = scratch("no-journal");
    fs::create_dir_all(&base).unwrap();
    let trace = base.join("gone.btbt");
    let mut stream = suite::ipc1_client()[0].build_trace();
    let file = fs::File::create(&trace).unwrap();
    write_container(file, "gone", btbx_core::Arch::Arm64, &mut stream, 20_000).unwrap();
    let workload = WorkloadSpec::from_container(&trace).unwrap();
    fs::remove_file(&trace).unwrap();
    let failing = Sweep::named("cluster-gone")
        .workloads([workload])
        .orgs([OrgKind::Conv])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(1_000, 2_000);

    let cluster = LocalCluster::start(1, base.join("fleet"), 2).expect("node starts");
    for (tag, sweep, fails) in [
        ("done", four_point_sweep(), false),
        ("failed", failing, true),
    ] {
        let local = base.join(format!("local-{tag}"));
        let outcome = sweep.try_run(&opts(&local));
        assert_eq!(outcome.is_err(), fails, "{tag}: {outcome:?}");
        let coordinator = base.join(format!("coordinator-{tag}"));
        let report = cluster::run_sweep(&sweep, &opts(&coordinator), &config(cluster.addrs()))
            .expect("the node passes the handshake");
        assert_eq!(
            !report.failures.is_empty(),
            fails,
            "{tag}: {:?}",
            report.stats
        );
        for out in [&local, &coordinator] {
            assert!(out.join("cache").is_dir(), "{}", out.display());
            assert!(
                !out.join("cache").join("journal").exists(),
                "{tag}: {} has a journal",
                out.display()
            );
        }
    }

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
