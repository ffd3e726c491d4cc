//! End-to-end simulation tests spanning trace generation, all BTB
//! organizations, the front-end model and statistics — the integration
//! claims behind Figures 9–11.

use btbx::core::storage::BudgetPoint;
use btbx::core::{Arch, BtbSpec, OrgKind};
use btbx::trace::suite;
use btbx::uarch::{SimConfig, SimResult, SimSession};

const WARM: u64 = 250_000;
const MEAS: u64 = 500_000;

fn run(workload: &str, org: OrgKind, budget: BudgetPoint, fdip: bool) -> SimResult {
    let spec = suite::ipc1_all()
        .into_iter()
        .find(|s| s.name == workload)
        .expect("workload exists");
    let config = if fdip {
        SimConfig::with_fdip()
    } else {
        SimConfig::without_fdip()
    };
    SimSession::new(spec.build_trace())
        .btb_spec(BtbSpec::of(org).at(budget))
        .config(config)
        .warmup(WARM)
        .measure(MEAS)
        .run()
        .expect("a synthetic trace runs to completion")
}

#[test]
fn figure9_mpki_ordering_on_a_large_server() {
    let conv = run("server_030", OrgKind::Conv, BudgetPoint::Kb14_5, true);
    let pdede = run("server_030", OrgKind::Pdede, BudgetPoint::Kb14_5, true);
    let btbx = run("server_030", OrgKind::BtbX, BudgetPoint::Kb14_5, true);
    let (c, p, x) = (
        conv.stats.btb_mpki(),
        pdede.stats.btb_mpki(),
        btbx.stats.btb_mpki(),
    );
    assert!(
        c > 5.0,
        "a large server must stress the 1856-entry Conv-BTB: {c:.2}"
    );
    assert!(x < p, "BTB-X {x:.2} must beat PDede {p:.2}");
    assert!(p < c, "PDede {p:.2} must beat Conv {c:.2}");
}

#[test]
fn figure9_client_mpki_is_negligible() {
    for org in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX] {
        let r = run("client_002", org, BudgetPoint::Kb14_5, true);
        assert!(
            r.stats.btb_mpki() < 1.0,
            "{org}: client working sets fit every organization"
        );
    }
}

#[test]
fn figure10_fdip_and_capacity_compound() {
    let base = run("server_028", OrgKind::Conv, BudgetPoint::Kb14_5, false);
    let conv_fdip = run("server_028", OrgKind::Conv, BudgetPoint::Kb14_5, true);
    let btbx_fdip = run("server_028", OrgKind::BtbX, BudgetPoint::Kb14_5, true);
    let b = base.stats.ipc();
    assert!(
        conv_fdip.stats.ipc() > b * 1.02,
        "FDIP alone must gain on a server workload ({:.3} vs {:.3})",
        conv_fdip.stats.ipc(),
        b
    );
    assert!(
        btbx_fdip.stats.ipc() > conv_fdip.stats.ipc(),
        "BTB-X+FDIP must beat Conv+FDIP ({:.3} vs {:.3})",
        btbx_fdip.stats.ipc(),
        conv_fdip.stats.ipc()
    );
}

#[test]
fn figure11_budget_scaling_for_btbx() {
    // More BTB-X capacity must monotonically reduce MPKI on a server
    // workload that does not fit the small budgets.
    let small = run("server_026", OrgKind::BtbX, BudgetPoint::Kb1_8, true);
    let mid = run("server_026", OrgKind::BtbX, BudgetPoint::Kb7_25, true);
    let large = run("server_026", OrgKind::BtbX, BudgetPoint::Kb29, true);
    assert!(small.stats.btb_mpki() > mid.stats.btb_mpki());
    assert!(mid.stats.btb_mpki() > large.stats.btb_mpki());
    assert!(small.stats.ipc() < large.stats.ipc());
}

#[test]
fn btbx_at_half_budget_matches_conv() {
    // Section VI-F's takeaway on the BTB-limited side of the sweep.
    let conv = run("server_031", OrgKind::Conv, BudgetPoint::Kb14_5, true);
    let btbx_half = run("server_031", OrgKind::BtbX, BudgetPoint::Kb7_25, true);
    assert!(
        btbx_half.stats.btb_mpki() <= conv.stats.btb_mpki() * 1.15,
        "BTB-X at 7.25KB ({:.2} MPKI) should be competitive with Conv at 14.5KB ({:.2})",
        btbx_half.stats.btb_mpki(),
        conv.stats.btb_mpki()
    );
}

#[test]
fn determinism_same_seed_same_result() {
    let a = run("server_013", OrgKind::BtbX, BudgetPoint::Kb14_5, true);
    let b = run("server_013", OrgKind::BtbX, BudgetPoint::Kb14_5, true);
    assert_eq!(a.stats.instructions, b.stats.instructions);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.bpu, b.stats.bpu);
    assert_eq!(a.stats.btb_counts, b.stats.btb_counts);
}

#[test]
fn energy_accounting_flows_from_sim_to_model() {
    use btbx::energy::BtbEnergyModel;
    let budget = BudgetPoint::Kb14_5;
    let model = BtbEnergyModel::new(budget.bits(Arch::Arm64), Arch::Arm64);
    // The paper's Table V averages access counts across workloads; the
    // PDede-vs-BTB-X margin (1058 vs 999 µJ, ~6 %) only emerges in the
    // aggregate, so average over several large servers here too.
    let mut totals = Vec::new();
    for org in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX] {
        let mut sum = 0.0;
        for w in ["server_027", "server_029", "server_032"] {
            let r = run(w, org, budget, true);
            let e = model.breakdown(org, &r.stats.btb_counts, r.stats.wrong_path_btb_reads);
            assert!(e.total_uj > 0.0);
            sum += e.total_uj;
        }
        totals.push((org, sum));
    }
    // Table V's robust claim: Conv consumes far more than either
    // compressed design (higher per-access energy, more wrong-path
    // accesses). The PDede-vs-BTB-X gap is only ~6 % in the paper and
    // sits inside per-workload noise here, so assert it as a band: PDede
    // must not beat BTB-X by more than the paper's own margin.
    assert!(
        totals[0].1 > 1.3 * totals[1].1,
        "Conv {} vs PDede {}",
        totals[0].1,
        totals[1].1
    );
    assert!(
        totals[0].1 > 1.3 * totals[2].1,
        "Conv {} vs BTB-X {}",
        totals[0].1,
        totals[2].1
    );
    assert!(
        totals[1].1 > totals[2].1 * 0.90,
        "PDede {} vs BTB-X {} (paper margin is ~6 %)",
        totals[1].1,
        totals[2].1
    );
}

#[test]
fn champsim_round_trip_preserves_simulation_behaviour() {
    use btbx::trace::champsim::{write_champsim, ChampSimReader};
    use btbx::trace::TraceSource;
    let spec = &suite::ipc1_client()[1];
    let n = 200_000u64;
    let instrs: Vec<_> = spec
        .build_trace()
        .take_instrs(n)
        .into_iter_instrs()
        .collect();
    let mut bytes = Vec::new();
    write_champsim(&mut bytes, instrs.iter().copied()).unwrap();
    let reader = ChampSimReader::new(&bytes[..], spec.name.clone());
    let r = SimSession::new(reader)
        .btb_spec(BtbSpec::of(OrgKind::BtbX))
        .config(SimConfig::with_fdip())
        .warmup(50_000)
        .measure(100_000)
        .run()
        .expect("the ChampSim stream replays");
    assert!(r.stats.ipc() > 0.1);
    assert!(r.stats.bpu.branches > 0);
}
