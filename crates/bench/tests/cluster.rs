//! End-to-end tests for the distributed sweep fabric: a 3-node
//! `LocalCluster` must produce results byte-identical to the serial CLI
//! sweep, compute each unique point exactly once fleet-wide, and
//! survive a node being killed mid-sweep (requeue + completion on the
//! survivors).

use btbx_bench::cluster::{
    self, ClusterConfig, ClusterError, ClusterEvent, LocalCluster, NodeState, RequestError,
};
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
        resume: false,
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
    let cluster = LocalCluster::start(3, &base, 2, 1).expect("cluster starts");
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

/// Run the twelve-point sweep on a 3-node fleet with `threads`
/// coordinator workers, killing the node that completes the first point.
fn kill_a_node_mid_sweep(tag: &str, threads: usize) {
    let serial_out = scratch(&format!("{tag}-serial"));
    let sweep = twelve_point_sweep();
    let serial = sweep.run(&opts(&serial_out));

    let base = scratch(&format!("{tag}-fleet"));
    let cluster = LocalCluster::start(3, &base, 2, 1).expect("cluster starts");
    let addrs = cluster.addrs();
    let coord_out = base.join("coordinator");
    let coord_opts = HarnessOpts {
        threads,
        ..opts(&coord_out)
    };

    // Fault injection: on the first completed point, kill the node that
    // served it (graceful shutdown closes its listener, so the worker's
    // next request is refused and the point must requeue).
    let cluster = Mutex::new(cluster);
    let killed = AtomicBool::new(false);
    let killed_addr = Mutex::new(String::new());
    let report = cluster::run_sweep_observed(&sweep, &coord_opts, &config(addrs.clone()), &|ev| {
        if let ClusterEvent::PointDone { node, .. } = ev {
            if !killed.swap(true, Ordering::SeqCst) {
                let i = addrs.iter().position(|a| *a == node).expect("known node");
                cluster.lock().unwrap().kill(i);
                *killed_addr.lock().unwrap() = node;
            }
        }
    })
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
    let killed_addr = killed_addr.lock().unwrap().clone();
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
    let cluster = LocalCluster::start(1, &base, 2, 1).expect("node starts");
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

#[test]
fn mixed_shard_fleets_are_refused_up_front() {
    let base = scratch("mixed");
    let serial = LocalCluster::start(1, base.join("a"), 2, 1).expect("serial node");
    let sharded = LocalCluster::start(1, base.join("b"), 2, 2).expect("sharded node");
    let mut nodes = serial.addrs();
    nodes.extend(sharded.addrs());

    let coord_out = base.join("coordinator");
    let err = cluster::run_sweep(&four_point_sweep(), &opts(&coord_out), &config(nodes))
        .expect_err("mixed shards must be refused");
    assert!(matches!(err, ClusterError::MixedShards { .. }), "{err}");

    serial.shutdown();
    sharded.shutdown();
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
