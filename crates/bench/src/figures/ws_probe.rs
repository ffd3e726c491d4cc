//! Diagnostic: static taken-working-set offset distribution per workload
//! (which BTB-X ways the *capacity* pressure lands on). Analyzes the
//! static program image, so the shared simulation options do not apply.
use btbx_core::offset::stored_offset_len;
use btbx_core::types::Arch;
use btbx_trace::suite;
use btbx_trace::synth::SKind;

fn bucket(per_way: &mut [u64; 9], total: &mut u64, pc: u64, target: u64) {
    let widths = Arch::Arm64.btbx_way_widths();
    let n = stored_offset_len(pc, target, Arch::Arm64);
    *total += 1;
    if n > widths[7] {
        per_way[8] += 1;
    } else {
        let w = (0..8).find(|&i| widths[i] >= n).unwrap();
        per_way[w] += 1;
    }
}

pub fn run(_opts: &crate::HarnessOpts) {
    for name in ["server_015", "server_030", "server_039"] {
        let spec = suite::ipc1_server()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap();
        let img = spec.build_image();
        let mut per_way = [0u64; 9];
        let mut total = 0u64;
        for i in img.instrs.iter() {
            match i.kind {
                SKind::Cond { target_idx, .. } | SKind::Jump { target_idx } => {
                    let t = img.instrs.pc(target_idx as usize);
                    bucket(&mut per_way, &mut total, i.pc, t);
                }
                SKind::Call { callee } => {
                    let t = img.instrs.pc(img.funcs[callee as usize].entry as usize);
                    bucket(&mut per_way, &mut total, i.pc, t);
                }
                SKind::IndirectCall { table } | SKind::IndirectJump { table } => {
                    if let Some(&f) = img.tables[table as usize].first() {
                        let t = img.instrs.pc(img.funcs[f as usize].entry as usize);
                        bucket(&mut per_way, &mut total, i.pc, t);
                    }
                }
                SKind::Return => {
                    total += 1;
                    per_way[0] += 1;
                }
                _ => {}
            }
        }
        print!("{name}: static WS {total}; min-way shares: ");
        for (i, c) in per_way.iter().enumerate() {
            let lbl = if i == 8 {
                "XC".to_string()
            } else {
                format!("w{i}")
            };
            print!("{lbl}={:.1}% ", *c as f64 * 100.0 / total as f64);
        }
        println!();
    }
}
