//! File-backed determinism suite: a ChampSim trace converted to a
//! `.btbt` container must replay through `ParallelSession` byte-identical
//! to the serial `SimSession`, with no full-trace materialization —
//! the file-backed mirror of `tests/parallel_determinism.rs`.
//!
//! Shards hand warm microarchitectural snapshots to each other, so
//! sharded equals serial for ANY trace at the default configuration —
//! which is precisely what lets real, aperiodic server traces ride the
//! sharded engine without an equivalence caveat.
//!
//! The fixture is a ~50k-instruction ChampSim `input_instr` file under
//! `tests/fixtures/`, generated deterministically from the synthetic
//! walker (see `regenerate_fixture` below, `#[ignore]`d: run with
//! `cargo test --test file_backed_determinism -- --ignored` to rebuild
//! it after a format or generator change).

use btbx::core::{BtbSpec, OrgKind};
use btbx::trace::champsim::ChampSimReader;
use btbx::trace::container::{write_container, ContainerError, PackedFileSource};
use btbx::trace::source::TraceSource;
use btbx::trace::suite::WorkloadSpec;
use btbx::trace::{AnySource, TraceInstr, TraceOpenError};
use btbx::uarch::sim::EVENT_BLOCK_BYTES;
use btbx::uarch::{IntervalStats, ParallelOutcome, ParallelSession, SimConfig, SimSession};
use std::path::{Path, PathBuf};

const FIXTURE: &str = "tests/fixtures/ipc1_like_50k.champsim";
const FIXTURE_INSTRS: u64 = 50_000;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

fn temp_container(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("btbx-fbd-{tag}-{}.btbt", std::process::id()))
}

/// Parse the fixture with the streaming reader, failing the test on any
/// truncation/IO damage.
fn fixture_events() -> Vec<TraceInstr> {
    let bytes = std::fs::read(fixture_path()).expect("fixture is checked in");
    let mut reader = ChampSimReader::new(&bytes[..], "fixture");
    let mut events = Vec::new();
    while let Some(i) = reader.next_instr() {
        events.push(i);
    }
    reader.into_result().expect("fixture has no damaged tail");
    events
}

/// Convert the fixture to a `.btbt` container at `path`.
fn convert_fixture(path: &Path) {
    let events = fixture_events();
    let file = std::fs::File::create(path).expect("temp container");
    let mut source = btbx::trace::source::VecSource::new("ipc1_like_50k", events);
    write_container(
        file,
        "ipc1_like_50k",
        btbx::core::Arch::Arm64,
        &mut source,
        u64::MAX,
    )
    .expect("fixture converts");
}

const WARMUP: u64 = 10_000;
const MEASURE: u64 = 32_000;
/// Divides the chunk size at every shard count used here (1, 2, 4, 8
/// over 32k), so shard-local intervals line up with serial ones.
const INTERVAL: u64 = 4_000;

fn serial_reference(
    source: AnySource,
    spec: BtbSpec,
) -> (btbx::uarch::SimResult, Vec<IntervalStats>) {
    let mut intervals = Vec::new();
    let result = SimSession::new(source)
        .btb_spec(spec)
        .config(SimConfig::with_fdip())
        .warmup(WARMUP)
        .measure(MEASURE)
        .every(INTERVAL, |iv| intervals.push(*iv))
        .run()
        .expect("valid serial session");
    (result, intervals)
}

fn sharded(proto: &AnySource, spec: BtbSpec, shards: usize) -> ParallelOutcome {
    let proto = proto.clone();
    ParallelSession::new(move || proto.clone(), spec)
        .config(SimConfig::with_fdip())
        .warmup(WARMUP)
        .measure(MEASURE)
        .every(INTERVAL)
        .shards(shards)
        .run()
        .expect("valid sharded session")
}

fn assert_identical(ctx: &str, serial: &btbx::uarch::SimResult, out: &ParallelOutcome) {
    // Byte-identical across the whole stats record, not a field sample.
    let a = serde_json::to_string(&serial.stats).unwrap();
    let b = serde_json::to_string(&out.result.stats).unwrap();
    assert_eq!(a, b, "{ctx}: stats diverged");
}

fn assert_intervals_identical(ctx: &str, a: &[IntervalStats], b: &[IntervalStats]) {
    assert_eq!(a.len(), b.len(), "{ctx}: interval count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{ctx}: interval index");
        assert_eq!(x.instructions, y.instructions, "{ctx}: boundary instrs");
        assert_eq!(x.cycles, y.cycles, "{ctx}: boundary cycles");
        assert_eq!(x.delta_instructions, y.delta_instructions, "{ctx}: delta");
        assert_eq!(x.delta_cycles, y.delta_cycles, "{ctx}: delta cycles");
        assert_eq!(x.bpu, y.bpu, "{ctx}: interval bpu");
    }
}

#[test]
fn fixture_parses_to_the_expected_window() {
    let events = fixture_events();
    assert_eq!(events.len() as u64, FIXTURE_INSTRS);
    let branches = events.iter().filter(|i| i.branch_event().is_some()).count();
    assert!(branches > 1_000, "fixture is branchy: {branches}");
}

#[test]
fn container_replay_matches_the_champsim_stream() {
    // ChampSim records → .btbt → events must be lossless end to end.
    let path = temp_container("stream");
    convert_fixture(&path);
    let container: Vec<TraceInstr> = PackedFileSource::open(&path)
        .unwrap()
        .into_iter_instrs()
        .collect();
    assert_eq!(container, fixture_events());
    let _ = std::fs::remove_file(&path);
}

/// The headline acceptance test: the converted fixture runs through
/// `ParallelSession` with 4 shards producing stats byte-identical to the
/// serial run, while peak event memory stays at one staging block per
/// shard slot (no full-trace materialization).
#[test]
fn four_shard_file_backed_run_is_byte_identical_to_serial() {
    let path = temp_container("accept");
    convert_fixture(&path);
    let spec = WorkloadSpec::from_container(&path).unwrap();
    let proto = spec.build_source().unwrap();
    let btb = BtbSpec::of(OrgKind::BtbX);

    let (serial, serial_intervals) = serial_reference(proto.clone(), btb);
    let out = sharded(&proto, btb, 4);
    assert_identical("4 shards", &serial, &out);
    assert_intervals_identical("4 shards", &serial_intervals, &out.intervals);

    // O(blocks-per-live-shard), not O(window): 4 shard slots of one
    // packed staging block each — vs ~800 KB were the 50k-event window
    // materialized at 16 B/event.
    assert!(
        out.telemetry.peak_event_buffer_bytes <= 4 * EVENT_BLOCK_BYTES,
        "event buffers ballooned: {} B",
        out.telemetry.peak_event_buffer_bytes
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_backed_runs_are_shard_invariant_across_counts() {
    let path = temp_container("counts");
    convert_fixture(&path);
    let proto = WorkloadSpec::from_container(&path)
        .unwrap()
        .build_source()
        .unwrap();
    for org in [OrgKind::Conv, OrgKind::BtbX] {
        let spec = BtbSpec::of(org);
        let (serial, serial_intervals) = serial_reference(proto.clone(), spec);
        for shards in [1usize, 2, 8] {
            let out = sharded(&proto, spec, shards);
            let ctx = format!("{org}, {shards} shard(s)");
            assert_identical(&ctx, &serial, &out);
            assert_intervals_identical(&ctx, &serial_intervals, &out.intervals);
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn raw_champsim_files_must_be_converted_first() {
    // `.btbt` is the only trace file format that replays; a raw ChampSim
    // file is refused with a pointer to the converter rather than
    // replayed under guessed instruction sizes and no arch.
    let err = AnySource::open(fixture_path()).unwrap_err();
    assert!(
        matches!(err, TraceOpenError::Container(ContainerError::BadMagic)),
        "{err:?}"
    );
    assert!(err.to_string().contains("btbx trace convert"), "{err}");
}

/// Regenerates `tests/fixtures/ipc1_like_50k.champsim` from the synthetic
/// walker. Deterministic: same seed, same bytes. `#[ignore]`d so normal
/// runs never touch the checked-in fixture.
#[test]
#[ignore = "writes the checked-in fixture; run explicitly after format changes"]
fn regenerate_fixture() {
    use btbx::trace::champsim::write_champsim;
    use btbx::trace::synth::{ProgramImage, SynthParams, SyntheticTrace};

    let params = SynthParams::server(320);
    let walker = SyntheticTrace::new(ProgramImage::generate(&params, 0xF1C5), "fixture", 0xF1C5);
    let events: Vec<TraceInstr> = walker
        .into_iter_instrs()
        .take(FIXTURE_INSTRS as usize)
        .collect();
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut bytes = Vec::new();
    let written = write_champsim(&mut bytes, events).unwrap();
    assert_eq!(written, FIXTURE_INSTRS);
    std::fs::write(&path, &bytes).unwrap();
    eprintln!("wrote {} ({} bytes)", path.display(), bytes.len());
}
