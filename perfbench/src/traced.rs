//! The traced run. One untraced repetition through the production entry
//! point gives the base; then a separate pass over the same inputs calls
//! each layer's public functions in the order the workload does —
//! `plan_batches`, then `BatchSession`/`ParallelSession` (or the server),
//! then `ResultStore`, then `SweepJournal` — with a span around every
//! call, tagged with the point's cache key. The kernel layers are timed
//! by replaying the points' event streams through `BtbEngine`,
//! `HashedPerceptron` and `Hierarchy`.
//!
//! Layers the workload does not reach are measured by a probe: the same
//! public calls on a sample of this workload's inputs (a server for the
//! sweeps, a sharded session for the sweeps and the server, a container
//! for the synthetic workloads), so every per-layer metric is reported
//! on every workload. The output names the probes of each workload.

use crate::inputs::{self, Inputs, Workload, THREADS};
use crate::trace::Tracer;
use crate::{expected, quantile, run, Checker, Report};
use btbx_bench::journal::{sweep_key, SweepJournal};
use btbx_bench::store::ResultStore;
use btbx_bench::sweep::{plan_batches, SimPoint};
use btbx_core::snap::save_sealed;
use btbx_core::spec::{BtbSpec, Budget};
use btbx_core::storage::BudgetPoint;
use btbx_core::types::BranchClass;
use btbx_core::OrgKind;
use btbx_trace::container::write_container;
use btbx_trace::source::{SeekableSource, TraceSource, VecSource};
use btbx_trace::{AnySource, Op, PackedBuf, PackedFileSource, SyntheticTrace, TraceInstr};
use btbx_uarch::bpu::Bpu;
use btbx_uarch::hierarchy::{Hierarchy, Port};
use btbx_uarch::perceptron::HashedPerceptron;
use btbx_uarch::{BatchLane, BatchSession, ParallelSession, SimConfig, SimResult, Simulator};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Events per timed chunk in the kernel replay: long enough to amortize
/// the clock reads, short enough to keep lookups near their updates.
const CHUNK: usize = 256;
/// The kernel replay repeats its windows until it has replayed this many
/// events per component.
const REPLAY_EVENTS: usize = 200_000;
/// Repetitions of the small probes (seal, seek, engine build).
const PROBE_REPEATS: usize = 5;
/// The organizations the kernel replay times.
const REPLAY_ORGS: [OrgKind; 3] = OrgKind::PAPER_EVAL;

type Metric = (&'static str, f64, &'static str);

struct Ctx<'a> {
    inputs: &'a Inputs,
    tracer: &'a Tracer,
    dir: PathBuf,
}

fn json(result: &SimResult) -> String {
    serde_json::to_string(result).expect("results serialize")
}

pub fn run(workload: Workload, seed: u64, tmp: &Path) -> Report {
    let inputs = crate::setup_once(workload, seed, tmp);
    let mut checker = Checker::new(inputs.points.len());
    let base = run::rep(&inputs, &tmp.join("base"));
    checker.check(&inputs, &base.outputs);

    let tracer = Tracer::new();
    let ctx = Ctx {
        inputs: &inputs,
        tracer: &tracer,
        dir: inputs::scratch_dir(tmp, "traced"),
    };
    let mut metrics: Vec<Metric> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let path_s = tracer.span(None, "bench.traced", "", |root| {
        traced_pass(&ctx, root, &mut checker, &mut metrics, &mut notes)
    });
    let (mpki_err, _) = crate::fidelity(&inputs, &checker.results());
    metrics.push(("model.mpki_err_vs_paper", mpki_err, "ratio"));
    metrics.push(("trace.base_s", base.seconds, "s"));
    metrics.push(("trace.overhead_ratio", path_s / base.seconds, "ratio"));

    let w = workload.name();
    let mut lines = vec![
        format!(
            "workload {w}, seed {seed}: traced run over {} point(s); base = one untraced \
             repetition, {:.3} s",
            inputs.points.len(),
            base.seconds
        ),
        format!(
            "tracing overhead: traced path {path_s:.3} s / untraced {:.3} s = {:.4}",
            base.seconds,
            path_s / base.seconds
        ),
    ];
    lines.extend(notes);
    lines.push(checker.check_digest(&inputs));
    lines.push(crate::fidelity_line(&inputs, &checker));
    lines.push(format!(
        "failed_ratio = {}/{}",
        checker.failed, checker.attempted
    ));
    lines.extend(checker.notes.iter().map(|n| format!("mismatch: {n}")));

    let mut table = vec![format!(
        "{:<12} {:>10} {:>10} {:>8}   self time per layer, {w} seed {seed} \
         (spans on concurrent threads add up)",
        "layer", "total_s", "self_s", "spans"
    )];
    for (layer, total, own, n) in tracer.self_times() {
        table.push(format!("{layer:<12} {total:>10.4} {own:>10.4} {n:>8}"));
    }
    let out = PathBuf::from(".bench_out");
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("spans-{w}-s{seed}.jsonl")),
                tracer.to_jsonl(w, seed),
            )
        })
        .and_then(|()| {
            std::fs::write(
                out.join(format!("layers-{w}-s{seed}.txt")),
                table.join("\n") + "\n",
            )
        });
    if let Err(e) = written {
        lines.push(format!("could not write the trace files: {e}"));
    }
    lines.extend(table);
    for (name, value, unit) in &metrics {
        lines.push(format!("{name} = {value} {unit}"));
    }
    Report {
        lines,
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}

/// The traced pass; returns the wall time of the workload's own path.
fn traced_pass(
    ctx: &Ctx,
    root: usize,
    checker: &mut Checker,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) -> f64 {
    let inputs = ctx.inputs;
    let points = &inputs.points;
    let mut m =
        |name: &'static str, value: f64, unit: &'static str| metrics.push((name, value, unit));

    // The workload's own path.
    let started = Instant::now();
    let all: Vec<usize> = (0..points.len()).collect();
    let groups = ctx
        .tracer
        .span(Some(root), "sweep.plan", "", |_| plan_batches(points, &all));
    let (path_results, served, store_counts, parallel, path_s) = match inputs.workload {
        Workload::SweepFig9 | Workload::SweepTiny => {
            let names: Vec<String> = points.iter().map(SimPoint::cache_file).collect();
            let (store, journal) = open_store(ctx, &names);
            let mut results = Vec::new();
            for group in &groups {
                let first = &points[group.members[0]];
                let key = first.cache_key();
                ctx.tracer.span(Some(root), "sweep.group", &key, |gid| {
                    let source = synth_source(ctx, gid, first);
                    let lanes = group.members.iter().map(|&i| BatchLane {
                        spec: points[i].btb_spec(),
                        config: points[i].config.clone(),
                        label: points[i].org.id().to_string(),
                    });
                    // Each lane publishes the moment it finishes, as in a sweep.
                    let out = ctx.tracer.span(Some(gid), "sim.session", &key, |sid| {
                        BatchSession::new(source)
                            .lanes(lanes)
                            .warmup(first.warmup)
                            .measure(first.measure)
                            .threads(THREADS)
                            .run_each(|k, result| {
                                publish(ctx, sid, &store, &journal, group.members[k], result)
                            })
                    });
                    match out {
                        Ok(out) => results.extend(group.members.iter().copied().zip(out)),
                        Err(e) => notes.push(format!("batch session {key} failed: {e}")),
                    }
                });
            }
            // Not part of the path: a second sweep would read every entry back.
            let path_s = started.elapsed().as_secs_f64();
            read_back(ctx, root, &store, &results, checker);
            journal.finish();
            (results, None, Some(store.counters()), None, path_s)
        }
        Workload::ServeMixed => {
            let rep = ctx.tracer.span(Some(root), "serve.session", "", |sid| {
                run::serve(
                    inputs,
                    &inputs.requests,
                    &ctx.dir.join("serve"),
                    Some((ctx.tracer, sid)),
                )
            });
            let mut results: Vec<(usize, SimResult)> = Vec::new();
            for (point, output) in &rep.outputs {
                if let Some(r) = output.as_ref().and_then(|j| serde_json::from_str(j).ok()) {
                    if !results.iter().any(|(p, _)| p == point) {
                        results.push((*point, r));
                    }
                }
            }
            let counts = rep.stats.map(|s| s.store);
            (
                results,
                Some(rep),
                counts,
                None,
                started.elapsed().as_secs_f64(),
            )
        }
        Workload::PointSharded => {
            let (result, parallel) = sharded_session(ctx, root, 0);
            let results = result.into_iter().map(|r| (0, r)).collect();
            (
                results,
                None,
                None,
                parallel,
                started.elapsed().as_secs_f64(),
            )
        }
    };
    let outputs: Vec<(usize, Option<String>)> = path_results
        .iter()
        .map(|(i, r)| (*i, Some(json(r))))
        .collect();
    checker.check(inputs, &outputs);
    let delivered = match inputs.workload {
        Workload::PointSharded => 1,
        _ => points.len(),
    };
    if path_results.len() < delivered {
        checker.failed += 1;
        notes.push("the traced path lost results".to_string());
    }

    // Probes for the layers the path does not reach.
    let reference: Vec<usize> = inputs.reference.iter().map(|r| r.point).collect();
    // The server's store and the sharded path are not reachable from
    // outside: time the same store and journal calls on their results.
    let sample: Vec<(usize, SimResult)> = path_results
        .iter()
        .filter(|(i, _)| reference.contains(i))
        .cloned()
        .collect();
    let probe_counts = (store_counts.is_none() || inputs.workload == Workload::ServeMixed)
        .then(|| store_probe(ctx, root, &sample, checker));
    let store_counts = store_counts.or(probe_counts).expect("a store ran");
    let served = served.unwrap_or_else(|| {
        let requests: Vec<usize> = reference
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, 4))
            .collect();
        ctx.tracer.span(Some(root), "serve.session", "", |sid| {
            run::serve(
                inputs,
                &requests,
                &ctx.dir.join("serve"),
                Some((ctx.tracer, sid)),
            )
        })
    });
    checker.check(inputs, &served.outputs);
    let parallel = parallel.or_else(|| {
        let (result, parallel) = sharded_session(ctx, root, reference[0]);
        if let Some(r) = result {
            checker.check(inputs, &[(reference[0], Some(json(&r)))]);
        }
        parallel
    });

    // Per-layer metrics, in BENCHMARK.json order.
    let windows = replay_windows(ctx, root);
    let walked: usize = windows.iter().map(|w| w.events.len()).sum();
    let median_ms = |name: &str| quantile(&ctx.tracer.durations_ms(name), 0.5);
    let walk_ms: f64 = ctx.tracer.durations_ms("synth.walk").iter().sum();
    let walk_ns = walk_ms * 1e6 / walked.max(1) as f64;
    m(
        "synth.image_generate_ms",
        median_ms("synth.image_generate"),
        "ms",
    );
    m(
        "synth.images_built",
        ctx.tracer.durations_ms("synth.image_generate").len() as f64,
        "count",
    );
    m("synth.walk_ns_per_event", walk_ns, "ns");
    let decode_ns = container_probe(ctx, root, &windows[0].events);
    m("container.decode_ns_per_event", decode_ns, "ns");
    m("container.seek_us", median_ms("container.seek") * 1e3, "us");

    for (org, name) in [
        (OrgKind::Conv, "engine.build_ms.conv"),
        (OrgKind::Pdede, "engine.build_ms.pdede"),
        (OrgKind::BtbX, "engine.build_ms.btbx"),
        (OrgKind::RBtb, "engine.build_ms.rbtb"),
    ] {
        m(name, engine_build_ms(ctx, root, org), "ms");
    }
    let replay = replay_kernel(ctx, root, &windows);
    for (k, name) in [
        "engine.lookup_ns.conv",
        "engine.lookup_ns.pdede",
        "engine.lookup_ns.btbx",
    ]
    .into_iter()
    .enumerate()
    {
        m(name, replay.lookup_ns[k], "ns");
    }
    for (k, name) in [
        "engine.update_ns.conv",
        "engine.update_ns.pdede",
        "engine.update_ns.btbx",
    ]
    .into_iter()
    .enumerate()
    {
        m(name, replay.update_ns[k], "ns");
    }

    let mut sum = btbx_uarch::SimStats::default();
    for (_, r) in &path_results {
        sum.merge(&r.stats);
    }
    let c = |v: u64| v as f64;
    m("engine.reads", c(sum.btb_counts.reads), "count");
    m("engine.writes", c(sum.btb_counts.writes), "count");
    m(
        "engine.page_searches",
        c(sum.btb_counts.page_searches),
        "count",
    );
    m(
        "engine.region_searches",
        c(sum.btb_counts.region_searches),
        "count",
    );
    m("bpu.predict_ns", replay.predict_ns, "ns");
    m("bpu.train_ns", replay.train_ns, "ns");
    m("bpu.lookups", c(sum.bpu.lookups), "count");
    m("bpu.branches", c(sum.bpu.branches), "count");
    m("bpu.btb_miss_taken", c(sum.bpu.btb_miss_taken), "count");
    m("hierarchy.instr_access_ns", replay.instr_ns, "ns");
    m("hierarchy.data_access_ns", replay.data_ns, "ns");
    m("l1i.accesses", c(sum.l1i.accesses), "count");
    m("l1i.misses", c(sum.l1i.misses), "count");
    m("l1d.accesses", c(sum.l1d.accesses), "count");
    m("l1d.misses", c(sum.l1d.misses), "count");
    m("l2.accesses", c(sum.l2.accesses), "count");
    m("l2.misses", c(sum.l2.misses), "count");
    m("llc.accesses", c(sum.llc.accesses), "count");
    m("llc.misses", c(sum.llc.misses), "count");
    m("fdip.issued", c(sum.fdip.issued), "count");
    m("fdip.scanned", c(sum.fdip.scanned), "count");
    m(
        "fdip.useful_ratio",
        c(sum.l1i.prefetch_hits) / c(sum.l1i.prefetches.max(1)),
        "ratio",
    );
    m("sim.cycles", c(sum.cycles), "count");
    // The simulator reads the sharded point's events from its container.
    let event_ns = if inputs.workload == Workload::PointSharded {
        decode_ns
    } else {
        walk_ns
    };
    m(
        "sim.self_share",
        self_share(inputs, &replay, event_ns, &windows),
        "ratio",
    );

    let (tel, wall, serial) = parallel.expect("a sharded session ran");
    m(
        "parallel.serial_setup_share",
        tel.serial_setup_seconds / wall,
        "ratio",
    );
    m("parallel.position_s", tel.position_seconds, "s");
    m("parallel.restore_s", tel.restore_seconds, "s");
    m(
        "parallel.warmed_instructions",
        c(tel.warmed_instructions),
        "count",
    );
    m("parallel.speedup_vs_serial", serial / wall, "ratio");
    let snap_bytes = snap_probe(ctx, root, reference[0]);
    m("snap.seal_ms", median_ms("snap.seal"), "ms");
    m("snap.bytes", snap_bytes as f64, "bytes");

    m("store.load_ms", median_ms("store.load"), "ms");
    m("store.publish_ms", median_ms("store.publish"), "ms");
    m("store.computes", c(store_counts.computes), "count");
    m("store.disk_hits", c(store_counts.disk_hits), "count");
    m("store.joins", c(store_counts.joins), "count");
    let lookups = store_counts.computes + store_counts.disk_hits + store_counts.joins;
    m(
        "store.hit_ratio",
        c(store_counts.disk_hits + store_counts.joins) / c(lookups.max(1)),
        "ratio",
    );
    m("journal.append_ms", median_ms("journal.append"), "ms");
    m(
        "journal.records",
        ctx.tracer.durations_ms("journal.append").len() as f64,
        "count",
    );
    m("sweep.groups", groups.len() as f64, "count");
    m("sweep.plan_ms", median_ms("sweep.plan"), "ms");

    let by_kind = |kind: &str| -> Vec<f64> {
        served
            .cache
            .iter()
            .zip(&served.latencies_ms)
            .filter(|(c, _)| c.as_str() == kind)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (disk, joined, computed) = (by_kind("disk"), by_kind("joined"), by_kind("computed"));
    m("serve.latency_ms.disk", quantile(&disk, 0.5), "ms");
    m("serve.latency_ms.joined", quantile(&joined, 0.5), "ms");
    m("serve.latency_ms.computed", quantile(&computed, 0.5), "ms");
    let waits: Vec<f64> = served
        .outputs
        .iter()
        .zip(&served.cache)
        .zip(&served.latencies_ms)
        .filter(|((_, c), _)| c.as_str() == "computed")
        .filter_map(|(((p, _), _), ms)| Some(ms - inputs.reference_for(*p)?.seconds * 1e3))
        .collect();
    m("serve.queue_wait_ms", quantile(&waits, 0.5), "ms");
    let (errors, shed) = match served.stats {
        Some(stats) => (stats.errors, stats.shed),
        None => {
            notes.push("GET /stats failed".to_string());
            checker.failed += 1;
            (0, 0)
        }
    };
    m("serve.errors", c(errors), "count");
    m("serve.shed", c(shed), "count");
    notes.push(format!(
        "served latency samples: disk {}, joined {}, computed {} (queue wait over {}); \
         a kind with no samples reports 0",
        disk.len(),
        joined.len(),
        computed.len(),
        waits.len()
    ));
    notes.push(format!(
        "probes (layers this workload does not reach, measured on its inputs): {}",
        probes(inputs.workload)
    ));
    check_counts(inputs, metrics, checker, notes);
    path_s
}

/// The layers a workload's traced run measures by probe.
fn probes(workload: Workload) -> &'static str {
    match workload {
        Workload::SweepFig9 | Workload::SweepTiny => "container, parallel, snap, serve",
        Workload::ServeMixed => {
            "container, parallel, snap, sweep, journal, and the store's call timings"
        }
        Workload::PointSharded => "serve, store, journal, sweep, snap",
    }
}

/// The exact-count self-check: counts that follow from the inputs must
/// match them, and on the default seed every exact count must match the
/// recorded one.
fn check_counts(
    inputs: &Inputs,
    metrics: &[Metric],
    checker: &mut Checker,
    notes: &mut Vec<String>,
) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let n = inputs.points.len() as f64;
    // Results published, reads of them (disk hits and joins) and journal
    // records, as the inputs determine them.
    let (computes, reads, records) = match inputs.workload {
        Workload::SweepFig9 | Workload::SweepTiny => (n, n, 2.0 * n),
        Workload::ServeMixed => (
            n,
            inputs.requests.len() as f64 - n,
            2.0 * inputs.reference.len() as f64,
        ),
        Workload::PointSharded => (1.0, 1.0, 2.0),
    };
    for (name, got, want) in [
        ("store.computes", get("store.computes"), computes),
        (
            "store.disk_hits + store.joins",
            get("store.disk_hits") + get("store.joins"),
            reads,
        ),
        ("journal.records", get("journal.records"), records),
        ("serve.errors", get("serve.errors"), 0.0),
    ] {
        if got != want {
            checker.failed += 1;
            notes.push(format!(
                "count check failed: {name} = {got}, expected {want}"
            ));
        }
    }
    if inputs.seed == expected::DEFAULT_SEED {
        let recorded = expected::counts(inputs.workload.name());
        let mut mismatches = 0;
        for (name, want) in recorded {
            if get(name) != *want as f64 {
                mismatches += 1;
                notes.push(format!(
                    "count {name} = {} differs from the recorded {want}",
                    get(name)
                ));
            }
        }
        checker.failed += mismatches;
        notes.push(format!(
            "exact counts: {} recorded for this seed, {mismatches} mismatch(es)",
            recorded.len()
        ));
    }
    let exact: Vec<String> = metrics
        .iter()
        .filter(|(name, _, unit)| *unit == "count" && !is_timing_dependent(inputs, name))
        .map(|(name, value, _)| format!("(\"{name}\", {value})"))
        .collect();
    notes.push(format!("exact counts of this run: [{}]", exact.join(", ")));
}

/// On `serve-mixed`, whether a read finds the entry on disk or joins the
/// computation in flight depends on timing; only their sum is exact.
fn is_timing_dependent(inputs: &Inputs, name: &str) -> bool {
    inputs.workload == Workload::ServeMixed && matches!(name, "store.disk_hits" | "store.joins")
}

/// The point's trace source, generating a synthetic image under a
/// `synth.image_generate` span.
fn synth_source(ctx: &Ctx, parent: usize, point: &SimPoint) -> AnySource {
    let spec = &point.workload;
    if spec.trace.is_some() {
        return ctx
            .tracer
            .span(Some(parent), "container.open", &point.cache_key(), |_| {
                spec.build_source().expect("the container opens")
            });
    }
    let image = ctx.tracer.span(
        Some(parent),
        "synth.image_generate",
        &point.cache_key(),
        |_| spec.build_image(),
    );
    AnySource::Synth(SyntheticTrace::new(image, spec.name.clone(), spec.seed))
}

/// A result store and sweep journal in a fresh directory, opened as
/// `Sweep::run` opens them for the points `names`.
fn open_store(ctx: &Ctx, names: &[String]) -> (ResultStore, SweepJournal) {
    let dir = inputs::scratch_dir(&ctx.dir, "store");
    let store = ResultStore::open(dir.join("cache")).expect("opening the result store");
    let (journal, _) =
        SweepJournal::open(&dir, sweep_key(names), false).expect("opening the journal");
    (store, journal)
}

/// Publish a result through the store's single-flight path, bracketed
/// by journal records, as a sweep does for every point it computes.
fn publish(
    ctx: &Ctx,
    parent: usize,
    store: &ResultStore,
    journal: &SweepJournal,
    point: usize,
    result: &SimResult,
) {
    let point = &ctx.inputs.points[point];
    let (key, name) = (point.cache_key(), point.cache_file());
    let tracer = ctx.tracer;
    tracer.span(Some(parent), "journal.append", &key, |_| {
        journal.attempt(&name, point.org.id())
    });
    tracer.span(Some(parent), "store.publish", &key, |_| {
        store
            .get_or_compute(&name, false, || result.clone())
            .expect("publishing a result")
    });
    tracer.span(Some(parent), "journal.append", &key, |_| {
        journal.done(&name)
    });
}

/// Read every published entry back, as a sweep over a warm cache does,
/// and check what comes back.
fn read_back(
    ctx: &Ctx,
    parent: usize,
    store: &ResultStore,
    results: &[(usize, SimResult)],
    checker: &mut Checker,
) {
    let loaded: Vec<(usize, Option<String>)> = results
        .iter()
        .map(|(i, _)| {
            let point = &ctx.inputs.points[*i];
            let entry = ctx
                .tracer
                .span(Some(parent), "store.load", &point.cache_key(), |_| {
                    store.load(&point.cache_file())
                });
            (*i, entry.ok().flatten().map(|r| json(&r)))
        })
        .collect();
    checker.check(ctx.inputs, &loaded);
}

/// Store and journal calls on `results`, for workloads whose own path
/// does not reach them from outside.
fn store_probe(
    ctx: &Ctx,
    root: usize,
    results: &[(usize, SimResult)],
    checker: &mut Checker,
) -> btbx_bench::store::StoreCounters {
    let names: Vec<String> = results
        .iter()
        .map(|(i, _)| ctx.inputs.points[*i].cache_file())
        .collect();
    let (store, journal) = open_store(ctx, &names);
    for (point, result) in results {
        publish(ctx, root, &store, &journal, *point, result);
    }
    read_back(ctx, root, &store, results, checker);
    journal.finish();
    store.counters()
}

/// Run a point as a two-shard checkpointed `ParallelSession`; returns
/// its result and (telemetry, wall seconds, serial reference seconds).
#[allow(clippy::type_complexity)]
fn sharded_session(
    ctx: &Ctx,
    root: usize,
    point: usize,
) -> (
    Option<SimResult>,
    Option<(btbx_uarch::ParallelTelemetry, f64, f64)>,
) {
    let p = &ctx.inputs.points[point];
    let key = p.cache_key();
    let proto = synth_source(ctx, root, p);
    let start = Instant::now();
    let outcome = ctx.tracer.span(Some(root), "parallel.session", &key, |_| {
        ParallelSession::new(move || proto.clone(), p.btb_spec())
            .config(p.config.clone())
            .label(p.org.id())
            .warmup(p.warmup)
            .measure(p.measure)
            .shards(2)
            .threads(THREADS)
            .checkpoints(true)
            .run()
    });
    let wall = start.elapsed().as_secs_f64();
    let serial = ctx
        .inputs
        .reference_for(point)
        .map_or(f64::NAN, |r| r.seconds);
    match outcome {
        Ok(o) => (Some(o.result), Some((o.telemetry, wall, serial))),
        Err(_) => (None, None),
    }
}

/// One reference trace's events, walked from its generator.
struct Window {
    workload: String,
    /// Time to generate the trace's synthetic image.
    image_s: f64,
    events: Vec<TraceInstr>,
}

/// The event windows the kernel replay uses: the full warm-up and
/// measured window of each reference trace.
fn replay_windows(ctx: &Ctx, root: usize) -> Vec<Window> {
    let inputs = ctx.inputs;
    let mut windows: Vec<Window> = Vec::new();
    for r in &inputs.reference {
        let p = &inputs.points[r.point];
        // A container was written from its generator with another walker
        // seed.
        let (spec, walker_seed) = match (&p.workload.trace, &inputs.container_source) {
            (Some(_), Some((spec, walker_seed))) => (spec, *walker_seed),
            _ => (&p.workload, p.workload.seed),
        };
        if windows.iter().any(|w| w.workload == p.workload.name) {
            continue;
        }
        let key = p.cache_key();
        let start = Instant::now();
        let image = ctx
            .tracer
            .span(Some(root), "synth.image_generate", &key, |_| {
                spec.build_image()
            });
        let image_s = start.elapsed().as_secs_f64();
        let mut trace = SyntheticTrace::new(image, spec.name.clone(), walker_seed);
        let n = p.warmup + p.measure;
        let events = ctx.tracer.span(Some(root), "synth.walk", &key, |_| {
            (0..n).map_while(|_| trace.next_instr()).collect()
        });
        windows.push(Window {
            workload: p.workload.name.clone(),
            image_s,
            events,
        });
    }
    windows
}

/// Write a window to a container (the sharded workload's own container
/// is used as is), decode it back and seek in it. Returns the decode
/// cost per event.
fn container_probe(ctx: &Ctx, root: usize, window: &[TraceInstr]) -> f64 {
    let path = match &ctx.inputs.points[0].workload.trace {
        Some(tref) => tref.path.clone(),
        None => {
            let path = ctx.dir.join("probe.btbt");
            ctx.tracer.span(Some(root), "container.write", "", |_| {
                let file = std::fs::File::create(&path).expect("creating the probe container");
                let mut source = VecSource::new("probe", window.to_vec());
                write_container(
                    std::io::BufWriter::new(file),
                    "probe",
                    btbx_core::Arch::Arm64,
                    &mut source,
                    u64::MAX,
                )
                .expect("writing the probe container")
            });
            path
        }
    };
    let mut source = PackedFileSource::open(&path).expect("opening the container");
    let events = ctx.tracer.span(Some(root), "container.decode", "", |_| {
        let mut buf = PackedBuf::with_capacity(4096);
        let mut events = 0usize;
        loop {
            buf.clear();
            let n = source.fill_block(&mut buf, 4096);
            if n == 0 {
                break events;
            }
            events += black_box(n);
        }
    });
    for k in 1..=PROBE_REPEATS as u64 * 3 {
        let target = events as u64 * k / (PROBE_REPEATS as u64 * 3 + 1);
        ctx.tracer.span(Some(root), "container.seek", "", |_| {
            black_box(source.seek(target))
        });
    }
    let decode_ms: f64 = ctx.tracer.durations_ms("container.decode").iter().sum();
    decode_ms * 1e6 / events.max(1) as f64
}

/// Median time to build `org`'s engine at each budget the workload uses.
fn engine_build_ms(ctx: &Ctx, root: usize, org: OrgKind) -> f64 {
    let mut budgets: Vec<Budget> = Vec::new();
    for p in &ctx.inputs.points {
        if !budgets.contains(&p.budget) {
            budgets.push(p.budget);
        }
    }
    let mut times = Vec::new();
    for budget in budgets {
        let spec = BtbSpec::of(org).budget(budget);
        for _ in 0..PROBE_REPEATS {
            let start = Instant::now();
            ctx.tracer.span(Some(root), "engine.build", org.id(), |_| {
                black_box(spec.build_engine().expect("budget fits the organization"))
            });
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    quantile(&times, 0.5)
}

/// Per-call costs from the kernel replay, in nanoseconds.
struct Replay {
    lookup_ns: [f64; 3],
    update_ns: [f64; 3],
    predict_ns: f64,
    train_ns: f64,
    instr_ns: f64,
    data_ns: f64,
}

/// Accumulates the time and count of one kind of call.
#[derive(Default)]
struct Cost {
    ns: f64,
    calls: usize,
}

impl Cost {
    fn add(&mut self, start: Instant, calls: usize) {
        self.ns += start.elapsed().as_nanos() as f64;
        self.calls += calls;
    }

    fn per_call(&self) -> f64 {
        self.ns / self.calls.max(1) as f64
    }
}

/// Replay the windows through each component, chunk by chunk: each
/// chunk's calls of one kind run back to back between two clock reads.
/// Every BTB organization sees a lookup per instruction and an update per
/// committed branch, as in the simulator; the perceptron predicts and
/// trains each conditional branch; the hierarchy sees an L1-I access per
/// new 64-byte block and an L1-D access per memory operand.
fn replay_kernel(ctx: &Ctx, root: usize, windows: &[Window]) -> Replay {
    let rounds = |f: &mut dyn FnMut(&[TraceInstr])| {
        let mut done = 0;
        while done < REPLAY_EVENTS {
            for w in windows {
                f(&w.events);
                done += w.events.len();
            }
        }
    };
    let mut lookup_ns = [0.0; 3];
    let mut update_ns = [0.0; 3];
    for (k, org) in REPLAY_ORGS.into_iter().enumerate() {
        let spec = BtbSpec::of(org).budget(BudgetPoint::Kb14_5);
        let (mut lookup, mut update) = (Cost::default(), Cost::default());
        ctx.tracer.span(Some(root), "engine.replay", org.id(), |_| {
            rounds(&mut |w| {
                let mut engine = spec
                    .build_engine()
                    .expect("14.5 KB fits every organization");
                for chunk in w.chunks(CHUNK) {
                    let start = Instant::now();
                    for i in chunk {
                        black_box(engine.lookup(i.pc));
                    }
                    lookup.add(start, chunk.len());
                    let start = Instant::now();
                    let mut n = 0;
                    for i in chunk {
                        if let Op::Branch(ev) = &i.op {
                            engine.update(ev);
                            n += 1;
                        }
                    }
                    update.add(start, n);
                }
            })
        });
        lookup_ns[k] = lookup.per_call();
        update_ns[k] = update.per_call();
    }

    let (mut predict, mut train) = (Cost::default(), Cost::default());
    ctx.tracer.span(Some(root), "bpu.replay", "", |_| {
        rounds(&mut |w| {
            let mut dir = HashedPerceptron::new();
            let mut preds = Vec::with_capacity(CHUNK);
            for chunk in w.chunks(CHUNK) {
                let conditional = |i: &TraceInstr| match &i.op {
                    Op::Branch(ev) if ev.class == BranchClass::CondDirect => Some(ev.taken),
                    _ => None,
                };
                preds.clear();
                let start = Instant::now();
                for i in chunk {
                    if conditional(i).is_some() {
                        preds.push(dir.predict(i.pc));
                    }
                }
                predict.add(start, preds.len());
                let start = Instant::now();
                let mut next = preds.iter();
                for i in chunk {
                    match (conditional(i), &i.op) {
                        (Some(taken), _) => dir.train(*next.next().expect("one per branch"), taken),
                        (None, Op::Branch(ev)) if ev.taken => dir.note_unconditional(),
                        _ => {}
                    }
                }
                train.add(start, preds.len());
            }
        })
    });

    let (mut instr, mut data) = (Cost::default(), Cost::default());
    ctx.tracer.span(Some(root), "hierarchy.replay", "", |_| {
        rounds(&mut |w| {
            let mut hierarchy = Hierarchy::new(&SimConfig::default());
            let mut now = 0u64;
            let mut block = u64::MAX;
            for chunk in w.chunks(CHUNK) {
                let start = Instant::now();
                let mut n = 0;
                for i in chunk {
                    now += 1;
                    if i.pc >> 6 != block {
                        block = i.pc >> 6;
                        black_box(hierarchy.access(Port::Instr, i.pc, now));
                        n += 1;
                    }
                }
                instr.add(start, n);
                let start = Instant::now();
                let mut n = 0;
                for i in chunk {
                    if let Op::Mem(access) = i.op {
                        black_box(hierarchy.access(Port::Data, access.address(), now));
                        n += 1;
                    }
                }
                data.add(start, n);
            }
        })
    });
    Replay {
        lookup_ns,
        update_ns,
        predict_ns: predict.per_call(),
        train_ns: train.per_call(),
        instr_ns: instr.per_call(),
        data_ns: data.per_call(),
    }
}

/// The share of the serial reference runs' time not explained by the
/// replayed components: the cycle loop's own bookkeeping (FTQ, ROB,
/// fetch, commit). Component time is each call count of the measured
/// window times its replayed cost, scaled to the warm-up + measured
/// window. An estimate: replayed costs are taken out of the pipeline.
fn self_share(inputs: &Inputs, replay: &Replay, event_ns: f64, windows: &[Window]) -> f64 {
    let mean = |v: &[f64; 3]| v.iter().sum::<f64>() / 3.0;
    let (mut total, mut components) = (0.0, 0.0);
    for r in &inputs.reference {
        let p = &inputs.points[r.point];
        let Ok(result) = serde_json::from_str::<SimResult>(&r.json) else {
            continue;
        };
        let s = &result.stats;
        let k = REPLAY_ORGS.iter().position(|o| *o == p.org);
        let lookup = k.map_or(mean(&replay.lookup_ns), |k| replay.lookup_ns[k]);
        let update = k.map_or(mean(&replay.update_ns), |k| replay.update_ns[k]);
        let ns = s.bpu.lookups as f64 * lookup
            + s.bpu.branches as f64 * update
            + s.bpu.cond_predictions as f64 * (replay.predict_ns + replay.train_ns)
            + s.l1i.accesses as f64 * replay.instr_ns
            + s.l1d.accesses as f64 * replay.data_ns
            + s.instructions as f64 * event_ns;
        let scale = (p.warmup + p.measure) as f64 / s.instructions.max(1) as f64;
        components += ns * scale * 1e-9;
        // The serial run also generated the synthetic image first.
        let setup = match p.workload.trace {
            None => windows
                .iter()
                .find(|w| w.workload == p.workload.name)
                .map_or(0.0, |w| w.image_s),
            Some(_) => 0.0,
        };
        total += (r.seconds - setup).max(0.0);
    }
    1.0 - components / total
}

/// Warm a simulator over the point's warm-up window, then seal its state
/// as a warm checkpoint does. Returns the sealed size in bytes.
fn snap_probe(ctx: &Ctx, root: usize, point: usize) -> usize {
    let p = &ctx.inputs.points[point];
    let key = p.cache_key();
    let source = p.workload.build_source().expect("the point's trace opens");
    let spec = p.btb_spec();
    let engine = spec.build_engine().expect("the point's spec validates");
    let bpu = Bpu::new(engine, p.config.ras_entries, p.config.decode_resteer);
    let mut sim = Simulator::new(p.config.clone(), source, bpu, p.org.id(), spec.bits());
    ctx.tracer.span(Some(root), "sim.warmup", &key, |_| {
        sim.run_until_committed(p.warmup)
    });
    let mut bytes = 0;
    for _ in 0..PROBE_REPEATS {
        bytes = ctx.tracer.span(Some(root), "snap.seal", &key, |_| {
            save_sealed(&key, &sim).len()
        });
    }
    bytes
}
