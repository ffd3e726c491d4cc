//! `btbx` — the one experiment CLI for the BTB-X reproduction.
//!
//! ```text
//! btbx fig 9                  # one figure
//! btbx table 3                # one table
//! btbx ablation               # a beyond-the-paper study
//! btbx all --quick            # the full reproduction + RESULTS.md
//! btbx sweep --orgs conv,btbx --budgets all --fdip both
//! btbx list                   # everything runnable
//! ```
//!
//! Every subcommand accepts the shared harness options (`--warmup`,
//! `--measure`, `--quick`, `--fresh`, `--threads`, `--out`); simulation
//! results are cached per-parameter-set under `<out>/cache`, so repeated
//! and overlapping invocations share runs.

use btbx_bench::cluster::{self, ClusterConfig};
use btbx_bench::faults;
use btbx_bench::opts::{OptError, OPTIONS_USAGE};
use btbx_bench::registry::{self, ExperimentKind};
use btbx_bench::report::write_artifact;
use btbx_bench::serve::{ServeConfig, Server};
use btbx_bench::sweep::Sweep;
use btbx_bench::HarnessOpts;
use btbx_core::spec::{BtbSpec, Budget};
use btbx_core::storage::BudgetPoint;
use btbx_core::types::Arch;
use btbx_core::OrgKind;
use btbx_trace::champsim::ChampSimReader;
use btbx_trace::container;
use btbx_trace::suite::{self, WorkloadSpec};
use btbx_trace::AnySource;
use btbx_uarch::{run_resumed, SimConfig, SimSession};
use std::io::BufReader;
use std::path::Path;

const USAGE: &str = "\
btbx — reproduce 'A Storage-Effective BTB Organization for Servers'

usage: btbx <command> [options]

commands:
  fig N           reproduce paper figure N (1, 3, 4, 9, 10, 11, 12, 13)
  table N         reproduce paper table N (1-5)
  ablation        knock out each BTB-X design choice
  headroom        realistic BTBs vs an infinite BTB
  probe speed|ws  diagnostics (predictor rates / way pressure)
  all             run the full reproduction and write RESULTS.md
  sweep           run a custom workload x org x budget x FDIP matrix
  serve           run a JSON-over-HTTP simulation service over the cache
  cluster         probe a fleet of serve nodes (cluster status ADDR,...)
  trace           convert/inspect/check .btbt trace containers
  list            list every runnable experiment
  help            show this help

`sweep` accepts --trace FILE to replay a .btbt container instead of
the synthetic suites.

run `btbx <command> --help` for the command's options.";

const SWEEP_USAGE: &str = "\
usage: btbx sweep [selection] [options]

selection:
  --orgs LIST      comma-separated org ids (conv,pdede,btbx,rbtb,
                   hoogerbrugge,infinite,btbx-uniform,btbx-noxc),
                   or `paper` (conv,pdede,btbx), or `all`   [paper]
  --budgets LIST   tier labels (0.9KB,...,58KB), raw bits (e.g. 65536b),
                   or `all` for every tier                  [14.5KB]
  --suite NAME     ipc1 | client | server | cvp1 | x86      [ipc1]
  --workloads L    comma-separated workload names (filters the suite)
  --fdip MODE      on | off | both                          [on]
  --trace FILE     replay a .btbt container instead of a suite
                   (orgs/budgets/fdip still apply; see btbx trace)
  --server ADDR    POST every point to a running `btbx serve` at ADDR
                   (host:port) instead of simulating locally: a one-node
                   --cluster, keeping --threads requests in flight
  --cluster LIST   fan the matrix out across a fleet of serve nodes
                   (comma-separated host:port list) with work stealing,
                   health probing and retry-on-node-loss; results are
                   published into the local <out>/cache (or, with
                   --store, into the shared store: the coordinator also
                   seeds it with the sweep's trace containers so nodes
                   without a local copy fetch them by content hash)

spec files:
  --save FILE      write the sweep as JSON and exit (no simulation)
  --spec FILE      load a sweep from JSON (selection flags ignored)";

const SERVE_USAGE: &str = "\
usage: btbx serve [options]

A long-lived JSON-over-HTTP simulation service over the sweep cache:
concurrent requests for one point run ONE simulation (single-flight),
results are written atomically to <out>/cache and reused across
requests, sweeps and restarts. See EXPERIMENTS.md for the protocol.

endpoints:
  POST /sim        SimPoint JSON -> SimResult JSON (X-Btbx-Cache header
                   reports disk|computed|joined)
  GET  /healthz    liveness probe
  GET  /stats      request + cache counters (incl. remote store traffic)
  GET  /blob/KEY   fetch a cache blob by content-addressed key (404 on
                   miss); HEAD probes existence
  PUT  /blob/KEY   publish a blob (atomic; results, traces)
  POST /shutdown   graceful shutdown (drains in-flight requests)

options:
  --port N         listen port on 127.0.0.1 (0 = ephemeral)  [8427]
  --port-file F    write the bound port to F (for scripts)
  --max-inflight N admit at most N concurrent /sim requests; excess
                   requests are shed with 429 + Retry-After instead
                   of queueing unboundedly (0 = unlimited)    [0]
  --deadline-ms D  abort any single simulation still running after D
                   milliseconds with 503 and an X-Btbx-Abort:
                   deadline header (the connection survives;
                   0 = no deadline)                           [0]
shared options (--threads for the requests served at once, --out for
the cache dir, --store for a non-default cache backend such as another
node's http:// blob endpoint) apply; results are byte-identical to the
serial CLI path. A node with --store fetches trace containers it is missing
from the store by content hash.";

fn main() {
    // Chaos testing: BTBX_FAULT_PLAN arms a fault plan for the whole
    // process (any subcommand). A malformed plan is fatal — silently
    // running *without* the requested faults would make a chaos run
    // look like a pass.
    let _env_fault_guard = faults::arm_from_env()
        .unwrap_or_else(|e| fail(&format!("{}: {e}", faults::FAULT_PLAN_ENV)));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("{USAGE}");
        return;
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "help" | "--help" | "-h" => println!("{USAGE}"),
        "list" => list(),
        "fig" | "figure" => run_numbered(&cmd, args, registry::figure),
        "table" => run_numbered(&cmd, args, registry::table),
        "all" => {
            let opts = parse_opts(args, "all", None);
            for e in registry::REGISTRY.iter().filter(|e| e.in_all) {
                eprintln!("[btbx all] {}…", e.name);
                (e.run)(&opts);
            }
            registry::results_document()(&opts);
        }
        "probe" => {
            let name = match args.first().map(String::as_str) {
                Some("speed") => "speed-probe",
                Some("ws") => "ws-probe",
                _ => fail("probe expects `speed` or `ws`"),
            };
            args.remove(0);
            let opts = parse_opts(args, name, None);
            (registry::find(name).expect("registered").run)(&opts);
        }
        "sweep" => sweep_cmd(args),
        "serve" => serve_cmd(args),
        "cluster" => cluster_cmd(args),
        "trace" => trace_cmd(args),
        name => match registry::find(name) {
            Some(e) => {
                let opts = parse_opts(args, name, None);
                (e.run)(&opts);
            }
            None => fail(&format!("unknown command `{name}`")),
        },
    }
}

/// `btbx fig 9` / `btbx table 3`: number then shared options.
fn run_numbered(
    cmd: &str,
    mut args: Vec<String>,
    lookup: fn(u32) -> Option<&'static registry::Experiment>,
) {
    let Some(n) = args.first().and_then(|a| a.parse::<u32>().ok()) else {
        fail(&format!("`btbx {cmd}` expects a number (try `btbx list`)"));
    };
    args.remove(0);
    let Some(experiment) = lookup(n) else {
        fail(&format!("no {cmd} {n} in the paper (try `btbx list`)"));
    };
    let opts = parse_opts(args, experiment.name, None);
    (experiment.run)(&opts);
}

/// Parse shared options, printing command-tagged usage on errors.
fn parse_opts(args: Vec<String>, command: &str, extra_usage: Option<&str>) -> HarnessOpts {
    match HarnessOpts::try_parse(args) {
        Ok(opts) => opts,
        Err(OptError::HelpRequested) => {
            if let Some(extra) = extra_usage {
                println!("{extra}\n");
            } else {
                println!("usage: btbx {command} [options]\n");
            }
            println!("{OPTIONS_USAGE}");
            std::process::exit(0);
        }
        Err(e) => fail(&format!("btbx {command}: {e}")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn list() {
    println!("experiments (btbx <name>, btbx fig N, btbx table N):\n");
    for e in registry::REGISTRY {
        let tag = match e.kind {
            ExperimentKind::Figure(n) => format!("fig {n}"),
            ExperimentKind::Table(n) => format!("table {n}"),
            ExperimentKind::Study => "study".to_string(),
        };
        println!("  {:<12} {:<8} {}", e.name, tag, e.description);
    }
    println!(
        "\n  {:<12} {:<8} full reproduction, writes RESULTS.md",
        "all", ""
    );
    println!(
        "  {:<12} {:<8} custom matrix (see btbx sweep --help)",
        "sweep", ""
    );
    println!(
        "  {:<12} {:<8} JSON-over-HTTP simulation service (btbx serve --help)",
        "serve", ""
    );
    println!(
        "  {:<12} {:<8} probe a serve fleet (btbx cluster --help)",
        "cluster", ""
    );
}

fn sweep_cmd(args: Vec<String>) {
    // Split sweep-selection flags from the shared harness options.
    let mut orgs: Vec<OrgKind> = OrgKind::PAPER_EVAL.to_vec();
    let mut budgets: Vec<Budget> = vec![Budget::Point(BudgetPoint::Kb14_5)];
    let mut suite_name = "ipc1".to_string();
    let mut workload_filter: Option<Vec<String>> = None;
    let mut fdip = vec![true];
    let mut save: Option<String> = None;
    let mut spec_file: Option<String> = None;
    let mut server: Option<String> = None;
    let mut cluster_list: Option<String> = None;
    let mut rest = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} expects a value")))
        };
        match arg.as_str() {
            "--orgs" => orgs = parse_orgs(&value("--orgs")),
            "--budgets" => budgets = parse_budgets(&value("--budgets")),
            "--suite" => suite_name = value("--suite"),
            "--workloads" => {
                workload_filter = Some(
                    value("--workloads")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--fdip" => {
                fdip = match value("--fdip").as_str() {
                    "on" | "true" => vec![true],
                    "off" | "false" => vec![false],
                    "both" => vec![false, true],
                    other => fail(&format!("--fdip expects on|off|both, got `{other}`")),
                }
            }
            "--save" => save = Some(value("--save")),
            "--spec" => spec_file = Some(value("--spec")),
            "--server" => server = Some(value("--server")),
            "--cluster" => cluster_list = Some(value("--cluster")),
            "--help" | "-h" => {
                println!("{SWEEP_USAGE}\n\n{OPTIONS_USAGE}");
                return;
            }
            other => rest.push(other.to_string()),
        }
    }
    let opts = parse_opts(rest, "sweep", Some(SWEEP_USAGE));
    let _fault_guard =
        faults::arm_from_opts(&opts).unwrap_or_else(|e| fail(&format!("--fault-plan: {e}")));
    if server.is_some() && cluster_list.is_some() {
        fail("--server and --cluster are mutually exclusive");
    }

    let sweep = if let Some(path) = spec_file {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        Sweep::from_json(&json).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")))
    } else if let Some(trace) = &opts.trace {
        // A trace container replaces the synthetic suite: one
        // file-backed workload crossed with the selected orgs/budgets.
        let workload = WorkloadSpec::from_container(trace)
            .unwrap_or_else(|e| fail(&format!("--trace {}: {e}", trace.display())));
        eprintln!(
            "[sweep] file-backed workload `{}` from {} (suite selection ignored)",
            workload.name,
            trace.display()
        );
        if let Ok(info) = container::read_info(trace) {
            if opts.warmup + opts.measure > info.total_events {
                eprintln!(
                    "[sweep] warning: windows ({} + {}) exceed the trace's {} \
                     instructions; runs will end at trace end",
                    opts.warmup, opts.measure, info.total_events
                );
            }
        }
        Sweep::named("sweep")
            .workloads([workload])
            .orgs(orgs)
            .budgets(budgets)
            .fdip_options(fdip)
            .windows(opts.warmup, opts.measure)
    } else {
        let mut workloads = match suite_name.as_str() {
            "ipc1" => suite::ipc1_all(),
            "client" => suite::ipc1_client(),
            "server" => suite::ipc1_server(),
            "cvp1" => suite::cvp1(48),
            "x86" => suite::x86_apps(),
            other => fail(&format!("unknown suite `{other}`")),
        };
        if let Some(filter) = workload_filter {
            workloads.retain(|w| filter.iter().any(|f| f == &w.name));
            if workloads.is_empty() {
                fail("--workloads matched nothing in the suite");
            }
        }
        Sweep::named("sweep")
            .workloads(workloads)
            .orgs(orgs)
            .budgets(budgets)
            .fdip_options(fdip)
            .windows(opts.warmup, opts.measure)
    };

    if let Some(path) = save {
        let json = sweep.to_json().expect("sweeps serialize");
        std::fs::write(&path, &json).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        println!(
            "wrote {path}: {} points ({} workloads x {} orgs x {} budgets x {} fdip)",
            sweep.points().len(),
            sweep.workloads.len(),
            sweep.orgs.len(),
            sweep.budgets.len(),
            sweep.fdip.len(),
        );
        return;
    }

    // `--server ADDR` is a one-node `--cluster`.
    let fleet = match cluster_list {
        Some(list) => Some(
            cluster::parse_node_list(&list).unwrap_or_else(|e| fail(&format!("--cluster: {e}"))),
        ),
        None => server.map(|addr| vec![addr]),
    };
    let results = if let Some(nodes) = fleet {
        let config = ClusterConfig::from_opts(nodes, &opts);
        cluster::sweep_via_cluster(&sweep, &opts, &config).map_err(|e| e.to_string())
    } else {
        sweep.try_run(&opts).map_err(|e| e.to_string())
    };
    let results = results.unwrap_or_else(|e| {
        eprintln!("error: sweep failed: {e}");
        std::process::exit(1);
    });
    let mut csv = String::from("workload,org,budget_bits,fdip,ipc,btb_mpki,l1i_mpki,flush_pki\n");
    println!(
        "{:<14} {:<14} {:>12} {:>6} {:>8} {:>9} {:>9}",
        "workload", "org", "budget_bits", "fdip", "IPC", "BTB MPKI", "L1I MPKI"
    );
    for r in &results {
        println!(
            "{:<14} {:<14} {:>12} {:>6} {:>8.3} {:>9.2} {:>9.2}",
            r.workload,
            r.org,
            r.btb_budget_bits,
            r.fdip_enabled,
            r.stats.ipc(),
            r.stats.btb_mpki(),
            r.stats.l1i_mpki()
        );
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.4},{:.4}\n",
            r.workload,
            r.org,
            r.btb_budget_bits,
            r.fdip_enabled,
            r.stats.ipc(),
            r.stats.btb_mpki(),
            r.stats.l1i_mpki(),
            r.stats.flush_pki()
        ));
    }
    let path = write_artifact(&opts.out_dir, "sweep.csv", &csv);
    println!("\n{} results -> {}", results.len(), path.display());
}

fn serve_cmd(args: Vec<String>) {
    let mut port: u16 = 8427;
    let mut port_file: Option<String> = None;
    let mut max_inflight: usize = 0;
    let mut deadline_ms: u64 = 0;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} expects a value")))
        };
        match arg.as_str() {
            "--port" => {
                port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| fail("--port expects a port number"));
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--max-inflight" => {
                max_inflight = value("--max-inflight")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-inflight expects a count"));
            }
            "--deadline-ms" => {
                deadline_ms = value("--deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--deadline-ms expects milliseconds"));
            }
            "--help" | "-h" => {
                println!("{SERVE_USAGE}\n\n{OPTIONS_USAGE}");
                return;
            }
            other => rest.push(other.to_string()),
        }
    }
    let opts = parse_opts(rest, "serve", Some(SERVE_USAGE));
    let mut config = ServeConfig::from_opts(port, &opts);
    config.max_inflight = max_inflight;
    config.deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    let server =
        Server::start(config).unwrap_or_else(|e| fail(&format!("starting the service: {e}")));
    let addr = server.addr();
    println!("btbx serve listening on http://{addr}");
    eprintln!(
        "[serve] cache {}; {} threads; POST /shutdown to stop",
        opts.out_dir.join("cache").display(),
        opts.threads
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", addr.port()))
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }
    server.join();
}

const CLUSTER_USAGE: &str = "\
usage: btbx cluster status ADDR[,ADDR...]

Probe every node of a `btbx serve` fleet (GET /healthz + GET /stats)
and print a per-node table: reachability, service and cache versions,
and request/cache counters.

Exits 1 when any node is unreachable, the fleet mixes cache versions
(a coordinator would refuse it too), or any node has shed more
requests than --max-shed allows.

The table includes the overload counters: `shed` (requests refused
with 429 under admission control) and `dlabort` (simulations aborted
at the per-request deadline).

options:
  --http-timeout-ms N  per-phase probe timeout            [2000]
  --max-shed N         tolerate at most N shed requests per node
                       before exiting non-zero (unset: shedding
                       is reported but never fails the probe)";

fn cluster_cmd(mut args: Vec<String>) {
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            println!("{CLUSTER_USAGE}");
            return;
        }
        Some("status") => {
            args.remove(0);
        }
        Some(other) => fail(&format!("unknown cluster subcommand `{other}`")),
    }
    let mut list: Option<String> = None;
    let mut timeout = std::time::Duration::from_secs(2);
    let mut max_shed: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--http-timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--http-timeout-ms expects milliseconds"));
                timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--max-shed" => {
                max_shed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--max-shed expects a count")),
                );
            }
            "--help" | "-h" => {
                println!("{CLUSTER_USAGE}");
                return;
            }
            other if list.is_none() && !other.starts_with('-') => list = Some(other.to_string()),
            other => fail(&format!("cluster status: unexpected `{other}`")),
        }
    }
    let list = list.unwrap_or_else(|| fail("cluster status expects a node list"));
    let nodes = cluster::parse_node_list(&list).unwrap_or_else(|e| fail(&format!("cluster: {e}")));

    println!(
        "{:<22} {:<12} {:>8} {:>7} {:>7} {:>9} {:>6} {:>7} {:>6} {:>8} {:>6} {:>6} {:>5}",
        "node",
        "state",
        "version",
        "cachev",
        "reqs",
        "computes",
        "disk",
        "joins",
        "shed",
        "dlabort",
        "rhit",
        "rmiss",
        "rerr"
    );
    let mut cache_versions: Vec<u32> = Vec::new();
    let mut unreachable = 0usize;
    let mut overshed: Vec<String> = Vec::new();
    for node in &nodes {
        match cluster::protocol::probe_health(node, timeout) {
            Ok(health) => {
                cache_versions.push(health.cache_version);
                let stats = cluster::protocol::probe_stats(node, timeout);
                let row: [String; 9] = match &stats {
                    Ok(s) => {
                        if max_shed.is_some_and(|limit| s.shed > limit) {
                            overshed.push(format!("{node} shed {} request(s)", s.shed));
                        }
                        [
                            s.requests.to_string(),
                            s.store.computes.to_string(),
                            s.store.disk_hits.to_string(),
                            s.store.joins.to_string(),
                            s.shed.to_string(),
                            s.deadline_aborts.to_string(),
                            s.store.remote_hits.to_string(),
                            s.store.remote_misses.to_string(),
                            s.store.remote_errors.to_string(),
                        ]
                    }
                    Err(_) => std::array::from_fn(|_| "?".to_string()),
                };
                println!(
                    "{:<22} {:<12} {:>8} {:>7} {:>7} {:>9} {:>6} {:>7} {:>6} {:>8} {:>6} {:>6} {:>5}",
                    node,
                    "healthy",
                    health.version,
                    health.cache_version,
                    row[0],
                    row[1],
                    row[2],
                    row[3],
                    row[4],
                    row[5],
                    row[6],
                    row[7],
                    row[8]
                );
            }
            Err(e) => {
                unreachable += 1;
                println!("{node:<22} {:<12} {e}", "unreachable");
            }
        }
    }
    let mut problems = Vec::new();
    if unreachable > 0 {
        problems.push(format!("{unreachable} node(s) unreachable"));
    }
    if !overshed.is_empty() {
        problems.push(format!(
            "overload shedding above --max-shed {}: {}",
            max_shed.unwrap_or_default(),
            overshed.join(", ")
        ));
    }
    cache_versions.dedup();
    if cache_versions.len() > 1 {
        problems.push("fleet mixes cache versions".to_string());
    }
    if !problems.is_empty() {
        eprintln!("cluster status: {}", problems.join("; "));
        std::process::exit(1);
    }
    println!("fleet OK: {} node(s) healthy and compatible", nodes.len());
}

const TRACE_USAGE: &str = "\
usage: btbx trace <subcommand>

subcommands:
  convert IN -o OUT [--name N] [--arch arm64|x86] [--limit N]
          [--instr-size B]
      read a ChampSim input_instr trace and write a .btbt indexed packed
      container; truncated or unreadable input fails loudly with the
      damaged byte offset (no silent record drops). ChampSim stores no
      instruction sizes: fall-throughs assume 4 bytes unless
      --instr-size overrides it (matters for x86 streams)
  info FILE
      print a container's header: stream name, arch, events, blocks,
      escapes and content hash
  check CONTAINER
      replay a .btbt container twice: uninterrupted, and resumed at the
      middle of the measured window from a sealed warm snapshot plus a
      trace checkpoint. Exits 1 unless the stats are byte-identical";

fn trace_cmd(mut args: Vec<String>) {
    if args.first().map(String::as_str) == Some("--help")
        || args.first().map(String::as_str) == Some("-h")
        || args.is_empty()
    {
        println!("{TRACE_USAGE}");
        return;
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "convert" => trace_convert(args),
        "info" => trace_info(args),
        "check" => trace_check(args),
        other => fail(&format!("unknown trace subcommand `{other}`")),
    }
}

fn trace_convert(args: Vec<String>) {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut name: Option<String> = None;
    let mut arch = Arch::Arm64;
    let mut limit = u64::MAX;
    let mut instr_size: Option<u8> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} expects a value")))
        };
        match arg.as_str() {
            "-o" | "--out" => output = Some(value("-o")),
            "--name" => name = Some(value("--name")),
            "--arch" => {
                arch = match value("--arch").as_str() {
                    "arm64" => Arch::Arm64,
                    "x86" => Arch::X86,
                    other => fail(&format!("--arch expects arm64|x86, got `{other}`")),
                }
            }
            "--limit" => {
                limit = value("--limit")
                    .parse()
                    .unwrap_or_else(|_| fail("--limit expects a number"));
            }
            "--instr-size" => {
                // A zero size would make every fall-through equal the
                // instruction's own pc.
                instr_size = Some(
                    value("--instr-size")
                        .parse()
                        .ok()
                        .filter(|&b: &u8| b > 0)
                        .unwrap_or_else(|| fail("--instr-size expects a byte count of 1-255")),
                );
            }
            "--help" | "-h" => {
                println!("{TRACE_USAGE}");
                return;
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => fail(&format!("trace convert: unexpected `{other}`")),
        }
    }
    let input = input.unwrap_or_else(|| fail("trace convert expects an input file"));
    let output = output.unwrap_or_else(|| fail("trace convert expects -o <output>"));
    let in_path = Path::new(&input);

    // Refuse inputs that are already containers instead of wrapping
    // 64-byte parses around them.
    if let Ok(mut f) = std::fs::File::open(in_path) {
        use std::io::Read;
        let mut magic = [0u8; 4];
        if f.read(&mut magic).unwrap_or(0) == 4 && &magic == container::MAGIC {
            fail(&format!("{input} is already a .btbt container"));
        }
    }

    let stem = in_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let name = name.unwrap_or(stem);

    let in_file =
        std::fs::File::open(in_path).unwrap_or_else(|e| fail(&format!("opening {input}: {e}")));
    let in_bytes = in_file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut reader = ChampSimReader::new(BufReader::new(in_file), name.clone());
    // ChampSim records carry no size field; the reader's fixed size
    // feeds fall-through reconstruction. 4 is exact for Arm64; x86
    // streams need an explicit (approximate) choice.
    reader.instr_size = instr_size.unwrap_or(4);
    if arch == Arch::X86 && instr_size.is_none() {
        eprintln!(
            "[trace] warning: ChampSim streams store no instruction sizes; \
             x86 fall-throughs assume 4 bytes (override with --instr-size N)"
        );
    }

    let out_file =
        std::fs::File::create(&output).unwrap_or_else(|e| fail(&format!("creating {output}: {e}")));
    let summary = container::write_container(out_file, &name, arch, &mut reader, limit)
        .unwrap_or_else(|e| fail(&format!("writing {output}: {e}")));
    // A short stream from the reader is either clean end-of-trace or
    // damage; converters must not bake a silently truncated stream
    // into a container that then looks authoritative.
    if let Some(e) = reader.error() {
        let _ = std::fs::remove_file(&output);
        fail(&format!("{input}: {e}"));
    }
    println!(
        "wrote {output}: {} events in {} blocks ({} escapes), {} bytes \
         ({:.2}x vs ChampSim), content hash {:016x}",
        summary.events,
        summary.blocks,
        summary.escapes,
        summary.bytes,
        in_bytes as f64 / summary.bytes.max(1) as f64,
        summary.content_hash,
    );
}

fn trace_info(args: Vec<String>) {
    let Some(path) = args.first() else {
        fail("trace info expects a container file");
    };
    let info =
        container::read_info(Path::new(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("{path}:");
    println!("  name          {}", info.name);
    println!("  arch          {:?}", info.arch);
    println!("  events        {}", info.total_events);
    println!(
        "  blocks        {} x {} events",
        info.block_count, info.block_events
    );
    println!("  escapes       {}", info.escape_count);
    println!("  content hash  {:016x}", info.content_hash);
    println!("  file bytes    {bytes}");
}

fn trace_check(args: Vec<String>) {
    let mut path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{TRACE_USAGE}");
                return;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => fail(&format!("trace check: unexpected `{other}`")),
        }
    }
    let path = path.unwrap_or_else(|| fail("trace check expects a .btbt container"));

    let proto = AnySource::open(&path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let Some(total) = proto.len_instrs() else {
        fail("trace check needs a finite file-backed trace");
    };
    if total < 100 {
        fail(&format!(
            "{path}: only {total} instructions, too short to check"
        ));
    }
    let warmup = total / 5;
    let measure = total - warmup;

    // A warm snapshot plus a trace checkpoint reproduce the simulator
    // and the source bit for bit, so the resumed replay must equal the
    // uninterrupted one (see EXPERIMENTS.md, "Warm snapshots").
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX);
    let serial = SimSession::new(proto.clone())
        .btb_spec(spec)
        .config(config.clone())
        .warmup(warmup)
        .measure(measure)
        .run()
        .unwrap_or_else(|e| fail(&format!("serial replay: {e}")));
    let resumed = run_resumed(|| proto.clone(), spec, &config, warmup, measure, 2)
        .unwrap_or_else(|e| fail(&format!("resumed replay: {e}")));

    println!("{path}: {total} instructions (warmup {warmup}, measure {measure})");
    for (what, stats) in [("serial", &serial.stats), ("resumed", &resumed.stats)] {
        println!(
            "  {what:<8} {} instrs, {} cycles",
            stats.instructions, stats.cycles
        );
    }
    let serial_json = serde_json::to_string(&serial.stats).expect("stats serialize");
    let resumed_json = serde_json::to_string(&resumed.stats).expect("stats serialize");
    if serial_json != resumed_json {
        eprintln!("  FAIL: the replay resumed from a warm snapshot differs from the serial one");
        std::process::exit(1);
    }
    println!("  OK: the resumed replay is byte-identical to the serial one");
}

fn parse_orgs(list: &str) -> Vec<OrgKind> {
    match list {
        "paper" => OrgKind::PAPER_EVAL.to_vec(),
        "all" => OrgKind::ALL.to_vec(),
        _ => list
            .split(',')
            .map(|id| {
                OrgKind::ALL
                    .iter()
                    .copied()
                    .find(|o| o.id() == id)
                    .unwrap_or_else(|| {
                        fail(&format!(
                            "unknown org `{id}` (ids: {})",
                            OrgKind::ALL.map(|o| o.id()).join(", ")
                        ))
                    })
            })
            .collect(),
    }
}

fn parse_budgets(list: &str) -> Vec<Budget> {
    if list == "all" {
        return BudgetPoint::ALL.map(Budget::Point).to_vec();
    }
    list.split(',')
        .map(|item| {
            if let Some(point) = BudgetPoint::ALL
                .iter()
                .find(|bp| bp.label().eq_ignore_ascii_case(item))
            {
                return Budget::Point(*point);
            }
            if let Some(bits) = item.strip_suffix('b').and_then(|v| v.parse().ok()) {
                return Budget::Bits(bits);
            }
            fail(&format!(
                "unknown budget `{item}` (tiers: {}; or raw bits like 65536b)",
                BudgetPoint::ALL.map(|bp| bp.label()).join(", ")
            ))
        })
        .collect()
}
