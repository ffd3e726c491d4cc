//! Property tests for the ChampSim `input_instr` codec: arbitrary
//! instruction streams must survive a write→parse round trip up to the
//! format's documented information loss (no sizes, targets recovered from
//! the next record's `ip`), and the register-pattern branch
//! classification must be a stable fixpoint under re-serialization.
//!
//! The `.btbt` container properties live here too: parsed ChampSim
//! streams — and arbitrary streams with non-canonical addresses that
//! force escape records — must survive the container round trip
//! *exactly*, from any seek position.

use btbx_core::types::{Arch, BranchClass, BranchEvent};
use btbx_trace::champsim::{write_champsim, ChampSimReader, InputInstr};
use btbx_trace::container::{write_container, PackedFileSource};
use btbx_trace::record::{MemAccess, Op, TraceInstr};
use btbx_trace::source::{SeekableSource, TraceSource, VecSource};
use proptest::prelude::*;

fn parse(bytes: &[u8]) -> Vec<TraceInstr> {
    ChampSimReader::new(bytes, "prop")
        .into_iter_instrs()
        .collect()
}

fn write(instrs: &[TraceInstr]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_champsim(&mut bytes, instrs.to_vec()).expect("Vec sink cannot fail");
    bytes
}

/// Any 48-bit instruction-aligned PC.
fn arb_pc() -> impl Strategy<Value = u64> {
    (0u64..(1 << 46)).prop_map(|v| v << 2)
}

fn arb_class() -> impl Strategy<Value = BranchClass> {
    (0usize..BranchClass::ALL.len()).prop_map(|i| BranchClass::ALL[i])
}

/// Arbitrary (not control-flow-coherent) instructions. ChampSim records
/// carry one memory slot each way, so the generator sticks to a single
/// load *or* store per instruction, as `write_champsim` does.
fn arb_instr() -> impl Strategy<Value = TraceInstr> {
    (arb_pc(), 0u8..4).prop_flat_map(|(pc, kind)| match kind {
        0 => Just(TraceInstr::other(pc, 4)).boxed(),
        1 => (1u64..u64::MAX)
            .prop_map(move |a| TraceInstr::mem(pc, 4, MemAccess::Load(a)))
            .boxed(),
        2 => (1u64..u64::MAX)
            .prop_map(move |a| TraceInstr::mem(pc, 4, MemAccess::Store(a)))
            .boxed(),
        _ => (arb_pc(), arb_class(), any::<bool>())
            .prop_map(move |(target, class, taken)| {
                TraceInstr::branch(
                    pc,
                    4,
                    BranchEvent {
                        pc,
                        target,
                        class,
                        taken,
                    },
                )
            })
            .boxed(),
    })
}

/// A control-flow-coherent stream: every taken branch's target is the
/// next record's PC and everything else falls through, exactly the
/// invariant real ChampSim traces satisfy. Ends with a non-branch so the
/// final branch target is always recoverable.
fn arb_coherent_stream() -> impl Strategy<Value = Vec<TraceInstr>> {
    (
        arb_pc(),
        proptest::collection::vec((0u8..4, arb_pc(), arb_class(), any::<bool>()), 1..150),
    )
        .prop_map(|(start, steps)| {
            let mut pc = start;
            let mut instrs = Vec::with_capacity(steps.len() + 1);
            for (kind, jump_target, class, taken) in steps {
                match kind {
                    0 => instrs.push(TraceInstr::other(pc, 4)),
                    1 => instrs.push(TraceInstr::mem(pc, 4, MemAccess::Load(pc | 1 << 50))),
                    2 => instrs.push(TraceInstr::mem(pc, 4, MemAccess::Store(pc | 1 << 51))),
                    _ => {
                        let fallthrough = pc + 4;
                        let target = if taken { jump_target } else { fallthrough };
                        instrs.push(TraceInstr::branch(
                            pc,
                            4,
                            BranchEvent {
                                pc,
                                target,
                                class,
                                taken,
                            },
                        ));
                        pc = target;
                        continue;
                    }
                }
                pc += 4;
            }
            instrs.push(TraceInstr::other(pc, 4));
            instrs
        })
}

/// Arbitrary instructions *including* non-canonical ones: addresses
/// above the 48-bit canonical range and branch events whose `pc`
/// disagrees with the instruction `pc` — everything that forces the
/// packed format's escape table.
fn arb_weird_instr() -> impl Strategy<Value = TraceInstr> {
    (
        any::<u64>(),
        any::<u64>(),
        0u8..6,
        arb_class(),
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(pc, payload, kind, class, taken, size)| match kind {
            0 => TraceInstr::other(pc, size),
            1 => TraceInstr::mem(pc, size, MemAccess::Load(payload)),
            2 => TraceInstr::mem(pc, size, MemAccess::Store(payload)),
            // Coherent branch (event pc == instruction pc).
            3 => TraceInstr {
                pc,
                size,
                op: Op::Branch(BranchEvent {
                    pc,
                    target: payload,
                    class,
                    taken,
                }),
            },
            // Mismatched event pc: constructible in release builds,
            // must escape losslessly rather than decode rewritten.
            _ => TraceInstr {
                pc,
                size,
                op: Op::Branch(BranchEvent {
                    pc: pc.wrapping_add(8),
                    target: payload,
                    class,
                    taken,
                }),
            },
        })
}

/// Write `instrs` into a `.btbt` container in a temp file and read the
/// whole stream back.
fn container_round_trip(
    tag: &str,
    instrs: &[TraceInstr],
) -> (PackedFileSource, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("btbx-prop-{tag}-{}", std::process::id()));
    let file = std::fs::File::create(&path).expect("temp container");
    let mut source = VecSource::new("prop", instrs.to_vec());
    write_container(file, "prop", Arch::Arm64, &mut source, u64::MAX).expect("container writes");
    (
        PackedFileSource::open(&path).expect("container reads"),
        path,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary streams survive the round trip up to the format's
    /// lossiness: PCs, branchness, classes and direction bits always
    /// survive; a taken branch's target is re-derived as the next
    /// record's `ip` (ChampSim stores no targets).
    #[test]
    fn arbitrary_streams_round_trip(instrs in proptest::collection::vec(arb_instr(), 1..150)) {
        let back = parse(&write(&instrs));
        prop_assert_eq!(back.len(), instrs.len());
        for (i, (a, b)) in instrs.iter().zip(&back).enumerate() {
            prop_assert_eq!(a.pc, b.pc, "pc changed at {}", i);
            match (a.branch_event(), b.branch_event()) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.class, y.class, "class changed at {}", i);
                    prop_assert_eq!(x.taken, y.taken, "direction changed at {}", i);
                    if x.taken {
                        let expect = instrs.get(i + 1).map_or(a.pc + 4, |n| n.pc);
                        prop_assert_eq!(y.target, expect, "target not next ip at {}", i);
                    }
                }
                (None, None) => {
                    // Memory semantics survive too (single-slot form).
                    match (a.op, b.op) {
                        (Op::Mem(x), Op::Mem(y)) => prop_assert_eq!(x, y, "memory changed at {}", i),
                        (Op::Other, Op::Other) => {}
                        (x, y) => {
                            return Err(TestCaseError(format!("op kind changed at {i}: {x:?} vs {y:?}")));
                        }
                    }
                }
                _ => return Err(TestCaseError(format!("branchness changed at {i}"))),
            }
        }
    }

    /// Coherent streams (targets = next ip) round-trip with *full*
    /// branch-event fidelity — every field of every event.
    #[test]
    fn coherent_streams_round_trip_exactly(instrs in arb_coherent_stream()) {
        let back = parse(&write(&instrs));
        prop_assert_eq!(back.len(), instrs.len());
        for (i, (a, b)) in instrs.iter().zip(&back).enumerate() {
            prop_assert_eq!(a.pc, b.pc);
            match (a.branch_event(), b.branch_event()) {
                (Some(x), Some(y)) => prop_assert_eq!(x, y, "event changed at {}", i),
                (None, None) => {}
                _ => return Err(TestCaseError(format!("branchness changed at {i}"))),
            }
        }
    }

    /// Re-serialization is a fixpoint: write→parse→write produces byte-
    /// identical records, so the register patterns the writer emits are
    /// exactly the ones the classifier maps back to the same class.
    #[test]
    fn reserialization_is_byte_stable(instrs in proptest::collection::vec(arb_instr(), 1..150)) {
        let bytes1 = write(&instrs);
        let bytes2 = write(&parse(&bytes1));
        prop_assert_eq!(bytes1, bytes2);
    }

    /// Classification depends only on the register pattern: direction,
    /// memory operands and the instruction pointer never change the
    /// class, for every class.
    #[test]
    fn classification_ignores_everything_but_registers(
        ip in any::<u64>(),
        taken in any::<bool>(),
        dmem in any::<u64>(),
        smem in any::<u64>(),
        class in arb_class(),
    ) {
        let (dst, src) = InputInstr::registers_for(class);
        let rec = InputInstr {
            ip,
            is_branch: 1,
            branch_taken: taken as u8,
            destination_registers: dst,
            source_registers: src,
            destination_memory: [dmem, 0],
            source_memory: [smem, 0, 0, 0],
        };
        prop_assert_eq!(rec.classify(), Some(class));
        // And the decode→encode step preserves the pattern itself.
        let back = InputInstr::from_bytes(&rec.to_bytes());
        prop_assert_eq!(back.classify(), Some(class));
    }

    /// ChampSim records → `.btbt` container → events is lossless: the
    /// containerized stream equals the parsed stream event for event.
    /// (The coherent generator plants >48-bit memory addresses, so this
    /// path exercises escape records on realistic streams too.)
    #[test]
    fn champsim_streams_survive_the_container(instrs in arb_coherent_stream()) {
        let parsed = parse(&write(&instrs));
        let (reader, path) = container_round_trip("champsim", &parsed);
        let back: Vec<TraceInstr> = reader.into_iter_instrs().collect();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back, parsed);
    }

    /// Arbitrary streams — including non-canonical addresses and
    /// mismatched branch-event PCs that can only live in the escape
    /// table — survive the container round trip exactly.
    #[test]
    fn weird_streams_survive_the_container(
        instrs in proptest::collection::vec(arb_weird_instr(), 1..200),
    ) {
        let (reader, path) = container_round_trip("weird", &instrs);
        let back: Vec<TraceInstr> = reader.into_iter_instrs().collect();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back, instrs);
    }

    /// The container's seek contract: from any position `k`,
    /// `seek(k)` ≡ `step()×k`, and seeking back behind the cursor
    /// rewinds.
    #[test]
    fn container_seek_matches_stepping(
        instrs in proptest::collection::vec(arb_weird_instr(), 2..200),
        frac in 0.0f64..1.0,
    ) {
        let (mut seeker, path) = container_round_trip("seek", &instrs);
        let k = (frac * (instrs.len() - 1) as f64) as u64;
        let mut stepper = seeker.clone();
        for _ in 0..k {
            stepper.next_instr();
        }
        prop_assert_eq!(seeker.seek(k), k);
        let a: Vec<TraceInstr> = seeker.clone().into_iter_instrs().collect();
        let b: Vec<TraceInstr> = stepper.into_iter_instrs().collect();
        prop_assert_eq!(&a, &b, "seek({}) != step()x{}", k, k);
        for _ in 0..3 {
            seeker.next_instr();
        }
        seeker.seek(k);
        let c: Vec<TraceInstr> = seeker.into_iter_instrs().collect();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(a, c, "seeking behind the cursor must rewind");
    }
}
