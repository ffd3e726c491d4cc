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
use btbx_trace::{AnySource, PackedBuf, TraceSource};
use btbx_uarch::{SimConfig, SimSession};
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

Points run on --threads local workers; each finished point is
published into <out>/cache at once, so rerunning a killed sweep
computes only the points it had not finished.

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
  GET  /healthz    liveness probe (version, cache version, orgs)
  GET  /stats      request + cache counters
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
the directory holding the cache) apply; results are byte-identical to
the serial CLI path.";

fn main() {
    // Chaos testing: BTBX_FAULT_PLAN, the one way to arm a fault plan,
    // arms it for the whole process (any subcommand). A malformed plan
    // is fatal — silently running *without* the requested faults would
    // make a chaos run look like a pass.
    let _fault_guard = faults::arm_from_env()
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
            "--help" | "-h" => {
                println!("{SWEEP_USAGE}\n\n{OPTIONS_USAGE}");
                return;
            }
            other => rest.push(other.to_string()),
        }
    }
    let opts = parse_opts(rest, "sweep", Some(SWEEP_USAGE));

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

    let results = sweep.try_run(&opts).unwrap_or_else(|e| {
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
      decode every block of a .btbt container, compare the event count
      with the header's, then replay it once on BTB-X with FDIP (the
      first fifth warms up, the rest is measured). Exits 1 when a block
      fails to decode, the count differs or the replay fails";

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
    println!("{path}: {total} instructions");

    let mut decoder = proto.clone();
    let mut block = PackedBuf::with_capacity(container::BLOCK_EVENTS);
    let mut decoded = 0u64;
    loop {
        block.clear();
        match decoder.fill_block(&mut block, container::BLOCK_EVENTS) {
            0 => break,
            n => decoded += n as u64,
        }
    }
    if let Some(e) = decoder.error() {
        check_failed(
            &path,
            &format!("decoding failed after {decoded} events: {e}"),
        );
    }
    if decoded != total {
        check_failed(
            &path,
            &format!("decoded {decoded} events, the header promises {total}"),
        );
    }
    println!("  decode   {decoded} events");

    let warmup = total / 5;
    let result = SimSession::new(proto)
        .btb_spec(BtbSpec::of(OrgKind::BtbX))
        .config(SimConfig::with_fdip())
        .warmup(warmup)
        .measure(total - warmup)
        .run()
        .unwrap_or_else(|e| check_failed(&path, &format!("replay failed: {e}")));
    let stats = &result.stats;
    println!(
        "  replay   btbx+fdip, warmup {warmup}: {} instrs, {} cycles, IPC {:.3}, BTB MPKI {:.2}",
        stats.instructions,
        stats.cycles,
        stats.ipc(),
        stats.btb_mpki()
    );
    println!("  OK");
}

/// Report a failed `trace check` of `path` and exit 1 (usage errors and
/// files that do not open as containers exit 2).
fn check_failed(path: &str, msg: &str) -> ! {
    eprintln!("  FAIL: {path}: {msg}");
    std::process::exit(1);
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
