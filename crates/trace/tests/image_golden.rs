//! Golden program images: every synthetic suite workload's image must
//! decode to exactly the instructions, functions, target tables, handler
//! order and loop-slot count recorded below. The digests were recorded
//! while images still stored every instruction as a full `SInstr`, so
//! they pin the compact record's round trip as well as the generator: a
//! change to either fails this test. A deliberate generator change
//! re-records them from the failure message.

use btbx_core::snap::fnv64;
use btbx_trace::suite;
use btbx_trace::synth::{ProgramImage, SInstr, SKind, INSTR_RECORD_BYTES};

/// `fnv64` over every decoded instruction (pc, size, kind, operands),
/// then `funcs`, `tables`, `handlers` and `loop_slots`.
fn image_digest(img: &ProgramImage) -> u64 {
    let mut b: Vec<u8> = Vec::with_capacity(img.instrs.len() * 20);
    for SInstr { pc, size, kind } in img.instrs.iter() {
        b.extend(pc.to_le_bytes());
        b.push(size);
        let (tag, ops): (u8, &[u32]) = match kind {
            SKind::Alu => (0, &[]),
            SKind::Load => (1, &[]),
            SKind::Store => (2, &[]),
            SKind::Cond {
                target_idx,
                bias_permille,
                loop_id,
                trips,
            } => (
                3,
                &[target_idx, bias_permille as u32, loop_id, trips as u32],
            ),
            SKind::Jump { target_idx } => (4, &[target_idx]),
            SKind::Call { callee } => (5, &[callee]),
            SKind::IndirectCall { table } => (6, &[table]),
            SKind::IndirectJump { table } => (7, &[table]),
            SKind::DispatchCall => (8, &[]),
            SKind::Return => (9, &[]),
        };
        b.push(tag);
        for op in ops {
            b.extend(op.to_le_bytes());
        }
    }
    for f in &img.funcs {
        b.extend(f.entry.to_le_bytes());
        b.extend(f.end.to_le_bytes());
        b.push(f.layer);
        b.extend(f.base.to_le_bytes());
    }
    for t in &img.tables {
        b.extend((t.len() as u32).to_le_bytes());
        for callee in t {
            b.extend(callee.to_le_bytes());
        }
    }
    for h in &img.handlers {
        b.extend(h.to_le_bytes());
    }
    b.extend(img.loop_slots.to_le_bytes());
    fnv64(&b)
}

/// Recorded per workload, in `ipc1_all()` then `x86_apps()` order.
const GOLDEN: &[(&str, u64)] = &[
    ("client_001", 0x407ff5937f2d51e0),
    ("client_002", 0xc0795a4d270ce03b),
    ("client_003", 0x0a74f376c17d01c6),
    ("client_004", 0xd1630b5df4caeb5c),
    ("client_005", 0x423befeb3f8a8ac3),
    ("client_006", 0xb9787806533774f1),
    ("client_007", 0x5a285334e31101b7),
    ("client_008", 0x4f344d6e401faa77),
    ("server_001", 0xcf93dc7778910483),
    ("server_002", 0x48d71662d89de1e2),
    ("server_003", 0x1f180a2979328319),
    ("server_004", 0x5b9a4f4a53bbd4d4),
    ("server_009", 0x4e8867564cda3d0f),
    ("server_010", 0xf6cb54ff067a5e79),
    ("server_011", 0x3471dc8f84a9181a),
    ("server_012", 0x6cac01b5e94fcbf1),
    ("server_013", 0xaebba0e8a774074f),
    ("server_014", 0xb09b1add8ba5b35e),
    ("server_015", 0x664e9d53502b18e4),
    ("server_016", 0x5476e88e2f4f1b1e),
    ("server_017", 0xa78c6b993a56598d),
    ("server_018", 0xeb9d5649b2e205b8),
    ("server_019", 0xfa3d4021b4681623),
    ("server_020", 0x2cb30bc342b4b38d),
    ("server_021", 0x2d3a1f5c65f8fbc1),
    ("server_022", 0x8bbb068dd7afb283),
    ("server_023", 0x833aed68afa6492b),
    ("server_024", 0x3177df9aa1990744),
    ("server_025", 0xf45aee9a79e2c0fd),
    ("server_026", 0x16d17a927d2ece8e),
    ("server_027", 0xd0ed541d2f249aa6),
    ("server_028", 0x1d542371deff32e7),
    ("server_029", 0xcfa79b51d507f766),
    ("server_030", 0x45c52eb177409910),
    ("server_031", 0x3f7b9f32b4cf85ba),
    ("server_032", 0x214199169fe2a6a5),
    ("server_033", 0x14a7196e8ba23374),
    ("server_034", 0x9c91aa30e001b68a),
    ("server_035", 0x45fe376fafc7ec34),
    ("server_036", 0x4d478a52352f9ee8),
    ("server_037", 0x9763eeca59f743dd),
    ("server_038", 0xd938dc1a38b3aa62),
    ("server_039", 0xb83600f2c8f2671e),
    ("wordpress", 0x0432995b025ca70a),
    ("mediawiki", 0x89c19095056b8890),
    ("drupal", 0x7ae28b76498b05c3),
    ("kafka", 0xd18ab80b86f5ddd3),
    ("finagle-http", 0x925762a3950d8a52),
];

#[test]
fn every_suite_image_decodes_to_its_recorded_digest() {
    let measured: Vec<(String, u64)> = suite::ipc1_all()
        .into_iter()
        .chain(suite::x86_apps())
        .map(|spec| (spec.name.clone(), image_digest(&spec.build_image())))
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        measured, golden,
        "image digests changed; if deliberate, re-record GOLDEN as:\n{table}"
    );
}

#[test]
fn a_stored_instruction_takes_at_most_16_bytes() {
    // Checked while the test compiles: a wider record does not build.
    const {
        assert!(
            INSTR_RECORD_BYTES <= 16,
            "a stored instruction outgrew 16 bytes"
        )
    }
}
