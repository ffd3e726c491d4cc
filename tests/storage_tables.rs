//! Cross-crate integration tests for the storage arithmetic: the facade
//! crate must reproduce Tables III/IV and the headline capacity ratios
//! end to end.

use btbx::analysis::reference;
use btbx::core::storage::{self, BudgetPoint};
use btbx::core::{Arch, BtbEngine, OrgKind};

#[test]
fn table_iv_reproduces_published_numbers() {
    let rows = storage::table_iv(Arch::Arm64);
    for (i, row) in rows.iter().enumerate() {
        let (px, pxc, ppd, pcv) = reference::TABLE_IV_BRANCHES[i];
        assert_eq!(row.btbx_branches, px, "row {i} btbx");
        assert_eq!(row.btbxc_branches, pxc, "row {i} xc");
        assert_eq!(row.conv_branches, pcv, "row {i} conv");
        assert!(
            (row.pdede_branches as i64 - ppd as i64).abs() <= 2,
            "row {i} pdede: {} vs {}",
            row.pdede_branches,
            ppd
        );
    }
}

#[test]
fn headline_ratios_hold() {
    let arm = storage::mean_capacity_vs_conv(Arch::Arm64);
    assert!(
        (arm - reference::CAPACITY_VS_CONV_ARM64).abs() < 0.02,
        "Arm64 capacity ratio {arm}"
    );
    let x86 = storage::mean_capacity_vs_conv(Arch::X86);
    assert!(
        (x86 - reference::CAPACITY_VS_CONV_X86).abs() < 0.02,
        "x86 capacity ratio {x86}"
    );
    let rows = storage::table_iv(Arch::Arm64);
    assert!((rows[0].btbx_vs_pdede() - reference::CAPACITY_VS_PDEDE_LOW).abs() < 0.02);
    assert!((rows[6].btbx_vs_pdede() - reference::CAPACITY_VS_PDEDE_HIGH).abs() < 0.02);
}

#[test]
fn built_instances_respect_budgets_at_every_tier() {
    // Both arches: offset widths (R-BTB's among them) follow the
    // arch's alignment bits.
    for arch in [Arch::Arm64, Arch::X86] {
        for bp in BudgetPoint::ALL {
            let bits = bp.bits(arch);
            for kind in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX, OrgKind::RBtb] {
                let btb = BtbEngine::build(kind, bits, arch);
                assert!(
                    btb.storage().total_bits <= bits,
                    "{kind} over budget at {bp} on {}",
                    arch.name()
                );
                // Storage utilization must be high — an organization that
                // leaves >12 % of its budget idle is mis-sized.
                assert!(
                    btb.storage().total_bits as f64 >= bits as f64 * 0.88,
                    "{kind} underutilizes {bp} on {}: {} of {bits}",
                    arch.name(),
                    btb.storage().total_bits
                );
            }
        }
    }
}

#[test]
fn btbx_capacity_advantage_is_monotone_in_budget() {
    let rows = storage::table_iv(Arch::Arm64);
    for w in rows.windows(2) {
        assert!(
            w[1].btbx_vs_pdede() >= w[0].btbx_vs_pdede() - 1e-9,
            "advantage over PDede should grow with budget (larger page pointers)"
        );
    }
}
