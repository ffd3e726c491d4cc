//! File-backed determinism suite: a ChampSim trace converted to a
//! `.btbt` container must replay losslessly, and a run over it whose
//! driving loop stops at `K` cuts ("shards") and goes on must be
//! byte-identical to the uninterrupted `SimSession` — the file-backed
//! mirror of `tests/parallel_determinism.rs`.
//!
//! Each cut is an absolute committed target, so the cut run walks the
//! uninterrupted run's tick trajectory for ANY trace at the default
//! configuration, real aperiodic server traces included.
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
use btbx::uarch::bpu::Bpu;
use btbx::uarch::{SimConfig, SimResult, SimSession, Simulator};
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

fn serial_reference(source: AnySource, spec: BtbSpec) -> SimResult {
    SimSession::new(source)
        .btb_spec(spec)
        .config(SimConfig::with_fdip())
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("valid serial session")
}

/// The window cut into `segments` stretches: one simulator over a clone
/// of `proto` whose driving loop stops at each cut and goes on.
fn cut_run(proto: &AnySource, spec: BtbSpec, segments: u64) -> SimResult {
    let config = SimConfig::with_fdip();
    let engine = spec.build_engine().expect("valid spec");
    let bpu = Bpu::new(engine, config.ras_entries, config.decode_resteer);
    let mut sim = Simulator::new(config, proto.clone(), bpu, spec.org.id(), spec.bits());
    sim.run_until_committed(WARMUP);
    sim.begin_measurement();
    let start = sim.committed();
    let chunk = MEASURE.div_ceil(segments);
    for cut in 1..=segments {
        sim.run_until_committed(start + (chunk * cut).min(MEASURE));
    }
    sim.into_result().expect("valid cut run")
}

fn assert_identical(ctx: &str, serial: &SimResult, out: &SimResult) {
    // Byte-identical across the whole stats record, not a field sample.
    let a = serde_json::to_string(&serial.stats).unwrap();
    let b = serde_json::to_string(&out.stats).unwrap();
    assert_eq!(a, b, "{ctx}: stats diverged");
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

/// The headline acceptance test: the converted fixture, stopped at
/// three cuts, produces stats byte-identical to the uninterrupted run.
#[test]
fn four_shard_file_backed_run_is_byte_identical_to_serial() {
    let path = temp_container("accept");
    convert_fixture(&path);
    let spec = WorkloadSpec::from_container(&path).unwrap();
    let proto = spec.build_source().unwrap();
    let btb = BtbSpec::of(OrgKind::BtbX);

    let serial = serial_reference(proto.clone(), btb);
    assert_identical("4 segments", &serial, &cut_run(&proto, btb, 4));
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
        let serial = serial_reference(proto.clone(), spec);
        for segments in [1u64, 2, 8] {
            let ctx = format!("{org}, {segments} segment(s)");
            assert_identical(&ctx, &serial, &cut_run(&proto, spec, segments));
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
