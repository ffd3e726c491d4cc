//! Fleet-shared store acceptance: a 3-node `LocalCluster` driven with
//! `--store http://<blob-host>` must (a) let the coordinator seed the
//! shared store with the sweep's trace containers, (b) let nodes
//! without a local copy of a container complete points by fetching it
//! by content hash (`remote_hits > 0`), (c) keep fleet-wide
//! `computes == unique points`, and (d) leave the shared cache
//! byte-identical to a serial CLI run of the same matrix.

use btbx_bench::cluster::{self, ClusterConfig, LocalCluster};
use btbx_bench::opts::StoreUrl;
use btbx_bench::serve::{ServeConfig, Server};
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::container::write_container;
use btbx_trace::suite::{self, TraceRef, WorkloadSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-storefleet-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(out_dir: &Path, store: Option<StoreUrl>) -> HarnessOpts {
    HarnessOpts {
        warmup: 1_000,
        measure: 2_000,
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
        store,
    }
}

fn config(nodes: Vec<String>) -> ClusterConfig {
    let mut config = ClusterConfig::new(nodes);
    config.http_timeout = Duration::from_secs(10);
    config.probe_timeout = Duration::from_secs(2);
    config.probe_interval = Duration::from_millis(50);
    config
}

/// Capture a synthetic workload into a real on-disk `.btbt` container
/// and return its file-backed spec.
fn captured_container(dir: &Path) -> WorkloadSpec {
    fs::create_dir_all(dir).unwrap();
    let path = dir.join("captured.btbt");
    let synthetic = suite::ipc1_client().into_iter().next().unwrap();
    let mut source = synthetic.build_source().unwrap();
    write_container(
        fs::File::create(&path).unwrap(),
        &synthetic.name,
        synthetic.params.arch,
        &mut source,
        12_000,
    )
    .unwrap();
    WorkloadSpec::from_container(&path).unwrap()
}

fn sweep_over(spec: WorkloadSpec, name: &str, budget: BudgetPoint) -> Sweep {
    Sweep::named(name)
        .workloads([spec])
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([budget])
        .fdip_options([false])
        .windows(1_000, 2_000)
}

#[test]
fn fleet_shares_one_store_and_traceless_nodes_fetch_containers_by_hash() {
    let base = scratch("fleet");
    let spec = captured_container(&base.join("traces"));
    let tref = spec.trace.clone().expect("file-backed spec has a tref");

    // Serial CLI reference over both budgets, private dir:// cache.
    let serial_out = base.join("serial");
    let serial_a = sweep_over(spec.clone(), "fleet-a", BudgetPoint::Kb0_9);
    let serial_b = sweep_over(spec.clone(), "fleet-b", BudgetPoint::Kb1_8);
    let serial_opts = opts(&serial_out, None);
    let ref_a = serial_a.run(&serial_opts);
    let ref_b = serial_b.run(&serial_opts);

    // The shared store: one plain serve node's /blob endpoints.
    let blob_out = base.join("blobhost");
    let blob_host = Server::start(ServeConfig {
        port: 0,
        cache_dir: blob_out.join("cache"),
        threads: 2,
        shards: 1,
        max_inflight: 0,
        deadline: None,
        store: None,
        http_timeout: Duration::from_secs(10),
    })
    .expect("blob host starts");
    let store_url = StoreUrl::Http(blob_host.addr().to_string());

    // A 3-node fleet, every node wired to the shared store.
    let cluster = LocalCluster::start_with_store(3, &base, 2, 1, Some(store_url.clone()))
        .expect("cluster starts");
    let coord_opts = opts(&base.join("coordinator"), Some(store_url));

    // Phase A: trefs carry a real local path — the coordinator seeds the
    // shared store with the container, nodes resolve it locally.
    let report_a =
        cluster::run_sweep(&serial_a, &coord_opts, &config(cluster.addrs())).expect("phase A runs");
    assert!(report_a.failures.is_empty(), "{:?}", report_a.failures);
    assert_eq!(report_a.into_results().expect("complete"), ref_a);
    assert!(
        blob_out
            .join("cache")
            .join("trace")
            .join(tref.blob_key())
            .exists(),
        "the coordinator must seed the shared store with the container"
    );

    let stats_after_a: Vec<_> = cluster
        .addrs()
        .iter()
        .map(|addr| cluster::protocol::probe_stats(addr, Duration::from_secs(2)).expect("stats"))
        .collect();

    // Phase B: new points whose trefs are store:// only — no node can
    // resolve them from a local path; completing them requires fetching
    // the container from the shared store by content hash.
    let mut spec_store_only = spec.clone();
    spec_store_only.trace = Some(TraceRef::store_only(tref.content_hash));
    let sweep_b = sweep_over(spec_store_only, "fleet-b", BudgetPoint::Kb1_8);
    let report_b =
        cluster::run_sweep(&sweep_b, &coord_opts, &config(cluster.addrs())).expect("phase B runs");
    assert!(report_b.failures.is_empty(), "{:?}", report_b.failures);
    assert_eq!(
        report_b.into_results().expect("complete"),
        ref_b,
        "store-only trace refs must simulate the identical trace"
    );

    // Fleet-wide dedup held across both phases: computes == unique
    // points, summed over the nodes.
    let stats_after_b: Vec<_> = cluster
        .addrs()
        .iter()
        .map(|addr| cluster::protocol::probe_stats(addr, Duration::from_secs(2)).expect("stats"))
        .collect();
    let fleet_computes: u64 = stats_after_b.iter().map(|s| s.store.computes).sum();
    assert_eq!(fleet_computes, 4, "fleet computed duplicates");

    // Every node that computed a phase-B point was trace-less for it and
    // must have fetched the container (or a peer's result) remotely.
    let mut b_computers = 0;
    for (before, after) in stats_after_a.iter().zip(&stats_after_b) {
        if after.store.computes > before.store.computes {
            b_computers += 1;
            assert!(
                after.store.remote_hits > before.store.remote_hits,
                "a node computing store-only points must hit the shared store: \
                 {before:?} -> {after:?}"
            );
        }
    }
    assert!(b_computers >= 1, "phase B dispatched to at least one node");

    // Byte identity: the shared store's result entries equal the serial
    // CLI's cache entries, file for file, for every point of both
    // phases.
    for point in serial_a.points().iter().chain(serial_b.points().iter()) {
        let name = point.cache_file();
        let serial_bytes = fs::read(serial_out.join("cache").join(&name)).expect("serial entry");
        let shared_bytes = fs::read(blob_out.join("cache").join(&name)).expect("shared entry");
        assert_eq!(serial_bytes, shared_bytes, "cache entry {name} diverges");
    }

    cluster.shutdown();
    blob_host.shutdown().expect("blob host drains");
    let _ = fs::remove_dir_all(&base);
}
