//! Trace interoperability: serialize a synthetic workload into the
//! ChampSim `input_instr` format and into a `.btbt` packed container,
//! then replay the ChampSim bytes through the simulator.
//!
//! This is the bridge for running the *real* Qualcomm IPC-1 traces (which
//! ship in ChampSim format) through this repository when you have them.
//!
//! ```text
//! cargo run --release --example champsim_traces
//! ```

use btbx::core::spec::BtbSpec;
use btbx::core::{Arch, OrgKind};
use btbx::trace::champsim::{write_champsim, ChampSimReader};
use btbx::trace::container::write_container;
use btbx::trace::source::VecSource;
use btbx::trace::suite;
use btbx::trace::{PackedFileSource, TraceSource};
use btbx::uarch::SimSession;

fn main() {
    let spec = &suite::ipc1_client()[0];
    let n = 300_000u64;

    // Materialize a slice of the synthetic trace.
    let instrs: Vec<_> = spec
        .build_trace()
        .take_instrs(n)
        .into_iter_instrs()
        .collect();

    // ChampSim format: 64 bytes per instruction.
    let mut champsim_bytes = Vec::new();
    write_champsim(&mut champsim_bytes, instrs.iter().copied()).expect("in-memory write");

    // Packed container: 16 bytes per canonical instruction plus an index.
    let path = std::env::temp_dir().join(format!("champsim_traces_{}.btbt", std::process::id()));
    let file = std::fs::File::create(&path).expect("create container file");
    let summary = write_container(
        std::io::BufWriter::new(file),
        &spec.name,
        Arch::Arm64,
        &mut VecSource::new(spec.name.clone(), instrs.clone()),
        n,
    )
    .expect("write container");
    println!(
        "{} instructions: ChampSim {} KB vs .btbt {} KB ({:.1}x smaller)",
        instrs.len(),
        champsim_bytes.len() / 1024,
        summary.bytes / 1024,
        champsim_bytes.len() as f64 / summary.bytes as f64
    );

    // Replay the ChampSim bytes through the simulator.
    let reader = ChampSimReader::new(&champsim_bytes[..], spec.name.clone());
    let r = SimSession::new(reader)
        .btb_spec(BtbSpec::of(OrgKind::BtbX))
        .warmup(100_000)
        .measure(150_000)
        .run()
        .expect("default spec is valid");
    println!(
        "replayed from ChampSim bytes: IPC {:.3}, BTB MPKI {:.2}",
        r.stats.ipc(),
        r.stats.btb_mpki()
    );

    // And back out of the container, verifying identical instruction
    // streams.
    let decoded: Vec<_> = PackedFileSource::open(&path)
        .expect("valid container")
        .into_iter_instrs()
        .collect();
    std::fs::remove_file(&path).expect("remove container file");
    assert_eq!(decoded, instrs, ".btbt container is lossless");
    println!(".btbt round-trip: lossless ✓");
}
