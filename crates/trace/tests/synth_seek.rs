//! Property suite pinning the seekable-generator contract:
//! `seek(k) == step()×k`. A generator repositioned to any index — by
//! rewind-and-skip, by checkpoint restore into the same instance, or by
//! checkpoint restore into a *fresh* instance (how
//! `btbx_uarch::run_resumed` carries a run across a cut) — must reproduce the stepped generator's event
//! stream exactly, for every workload profile family the suites use.

use btbx_core::types::Arch;
use btbx_trace::source::{SeekableSource, TraceSource};
use btbx_trace::synth::{ProgramImage, SynthParams, SyntheticTrace};
use proptest::prelude::*;

/// The workload profile families of `btbx_trace::suite`: IPC-1-like
/// servers and clients (Arm64), the CVP-1-like low-Zipf large-footprint
/// servers, and the Figure 13 x86 applications.
fn profile(index: usize) -> SynthParams {
    match index {
        0 => SynthParams::server(120),
        1 => SynthParams::client(90),
        2 => {
            let mut p = SynthParams::server(160);
            p.big_gap_fraction = 0.08;
            p.zipf_s = 0.35;
            p
        }
        _ => {
            let mut p = SynthParams::server(110);
            p.arch = Arch::X86;
            p
        }
    }
}

fn walker(profile_index: usize, seed: u64) -> SyntheticTrace {
    let params = profile(profile_index);
    SyntheticTrace::new(ProgramImage::generate(&params, seed), "prop", seed)
}

/// Stream `n` instructions off `w`.
fn stream(w: &mut SyntheticTrace, n: usize) -> Vec<btbx_trace::TraceInstr> {
    (0..n).map(|_| w.next_instr().expect("infinite")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A generator seeked to an arbitrary interval boundary emits exactly
    /// what the stepped generator emits there.
    #[test]
    fn seek_equals_step_times_k(
        profile_index in 0usize..4,
        seed in 0u64..1_000,
        interval in 64u64..2_048,
        boundary in 0u64..12,
    ) {
        let k = interval * boundary;
        let mut stepped = walker(profile_index, seed);
        stepped.advance(k);
        let mut seeked = walker(profile_index, seed);
        prop_assert_eq!(seeked.seek(k), k, "infinite stream always reaches k");
        prop_assert_eq!(seeked.position(), stepped.position());
        let a = stream(&mut stepped, 400);
        let b = stream(&mut seeked, 400);
        prop_assert_eq!(a, b, "profile {} seed {} k {}", profile_index, seed, k);
    }

    /// A checkpoint captured at an interval boundary resumes the exact
    /// stream when restored into a fresh generator instance — the resume
    /// path — and seeking *backwards* rewinds correctly.
    #[test]
    fn checkpoint_resume_is_exact(
        profile_index in 0usize..4,
        seed in 0u64..1_000,
        interval in 64u64..2_048,
        boundary in 1u64..10,
    ) {
        let k = interval * boundary;
        let mut original = walker(profile_index, seed);
        original.advance(k);
        let cp = original.checkpoint();
        let reference = stream(&mut original, 400);

        // Fresh instance, restored from the snapshot.
        let mut resumed = walker(profile_index, seed);
        resumed.restore(&cp);
        prop_assert_eq!(resumed.position(), k);
        prop_assert_eq!(stream(&mut resumed, 400), reference.clone());

        // Same instance, seeked backwards past the boundary.
        let back = interval * (boundary - 1);
        original.seek(back);
        prop_assert_eq!(original.position(), back);
        original.advance(k - back);
        prop_assert_eq!(stream(&mut original, 400), reference);
    }

    /// `advance` (the materialization-free skip) is stream-equivalent to
    /// discarding stepped records at any split point, and the packed
    /// 16-byte event encoding round-trips the generator's full output.
    #[test]
    fn advance_and_packing_preserve_the_stream(
        profile_index in 0usize..4,
        seed in 0u64..1_000,
        split in 1u64..6_000,
    ) {
        let mut stepped = walker(profile_index, seed);
        let head = stream(&mut stepped, split as usize);
        let tail = stream(&mut stepped, 300);

        let mut skipped = walker(profile_index, seed);
        skipped.advance(split);
        prop_assert_eq!(stream(&mut skipped, 300), tail);

        // Every generated record survives the packed encoding.
        let buf: btbx_trace::PackedBuf = head.iter().copied().collect();
        for (i, want) in head.iter().enumerate() {
            prop_assert_eq!(buf.get(i), *want, "packed round trip at {}", i);
        }
    }
}
