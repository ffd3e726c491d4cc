use crate::experiments::eval_matrix_study;
use btbx_core::OrgKind;
use btbx_trace::suite;
pub fn run(opts: &crate::HarnessOpts) {
    let all = suite::ipc1_all();
    let names = ["server_002", "server_015", "server_030", "client_003"];
    let specs = names.map(|name| {
        let spec = all.iter().find(|s| s.name == name);
        spec.expect("every probed workload is in the IPC-1 suite")
            .clone()
    });
    let orgs = [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX];
    for r in &eval_matrix_study("speed-probe", specs, orgs, opts).run(opts) {
        let b = &r.stats.bpu;
        let ki = r.stats.instructions as f64 / 1000.0;
        println!("{:<11} {:<6} ipc={:.3} mpki={:>6.2} l1i={:>6.2} dir/ki={:.1} tgt/ki={:.1} false/ki={:.2} flush/ki={:.1}",
            r.workload, r.org, r.stats.ipc(), r.stats.btb_mpki(), r.stats.l1i_mpki(),
            b.direction_mispredicts as f64 / ki, b.target_mispredicts as f64 / ki,
            b.false_hits as f64 / ki, r.stats.flush_pki());
    }
}
