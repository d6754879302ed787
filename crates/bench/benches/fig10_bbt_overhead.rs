//! Figure 10: where VM.be's cycles go during the first 100M instructions
//! of each benchmark — BBT translation overhead (lower bars, paper avg
//! 2.7%) and BBT-translation execution (upper bars, paper avg ~35%) —
//! plus the §5.3 textual anchors (9.9% for software BBT, SBT shares).


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_stats::{arith_mean, Table};
use cdvm_uarch::{CycleCat, MachineKind};

fn main() {
    let scale = env_scale();
    banner("Figure 10", "BBT translation overhead & emulation time (VM.be)", scale);
    let results = run_matrix(&[MachineKind::VmBe, MachineKind::VmSoft], scale, 1.0)
        .take_results("fig10_bbt_overhead");

    let frac = |r: &CurveResult, cat: CycleCat| {
        let total: f64 = r.breakdown.iter().sum();
        r.breakdown[cat as usize] / total
    };

    let mut table = Table::new(&[
        "app",
        "BBT overhead %",
        "BBT emu %",
        "SBT xlate %",
        "SBT emu %",
        "coverage %",
    ]);
    let mut csv = String::from("app,bbt_xlate,bbt_emu,sbt_xlate,sbt_emu,coverage\n");
    let mut ovh = Vec::new();
    let mut emu = Vec::new();
    let mut sbt_x = Vec::new();
    let mut sbt_e = Vec::new();
    let mut cov = Vec::new();
    for r in results.iter().filter(|r| r.kind == MachineKind::VmBe) {
        let o = frac(r, CycleCat::BbtXlate) * 100.0;
        let e = frac(r, CycleCat::BbtEmu) * 100.0;
        let sx = frac(r, CycleCat::SbtXlate) * 100.0;
        let se = frac(r, CycleCat::SbtEmu) * 100.0;
        table.row_owned(vec![
            r.app.clone(),
            format!("{o:.1}"),
            format!("{e:.1}"),
            format!("{sx:.1}"),
            format!("{se:.1}"),
            format!("{:.1}", r.coverage * 100.0),
        ]);
        csv.push_str(&format!(
            "{},{o:.2},{e:.2},{sx:.2},{se:.2},{:.2}\n",
            r.app,
            r.coverage * 100.0
        ));
        ovh.push(o);
        emu.push(e);
        sbt_x.push(sx);
        sbt_e.push(se);
        cov.push(r.coverage * 100.0);
    }
    println!("{}", table.to_markdown());
    println!(
        "VM.be averages: BBT overhead {:.1}% (paper 2.7%, ≤5% worst), BBT emu {:.1}% (paper ~35%),",
        arith_mean(&ovh),
        arith_mean(&emu)
    );
    println!(
        "               SBT xlate {:.1}% (paper 3.2%), SBT emu {:.1}% (paper ~59%), coverage {:.1}% (paper 63%)",
        arith_mean(&sbt_x),
        arith_mean(&sbt_e),
        arith_mean(&cov)
    );

    let soft_ovh: Vec<f64> = results
        .iter()
        .filter(|r| r.kind == MachineKind::VmSoft)
        .map(|r| frac(r, CycleCat::BbtXlate) * 100.0)
        .collect();
    println!(
        "VM.soft average BBT overhead: {:.1}% (paper 9.9%)",
        arith_mean(&soft_ovh)
    );
    println!(
        "per-instruction BBT cost: software ~{:.0} cycles vs HAloop ~{:.0} cycles (paper 83 vs 20)",
        cdvm_uarch::MachineConfig::preset(MachineKind::VmSoft).bbt_sw_cycles(),
        cdvm_uarch::MachineConfig::preset(MachineKind::VmBe).bbt_be_cycles
    );
    write_artifact("fig10_bbt_overhead.csv", &csv);
    let mut summary = cdvm_stats::Metrics::new();
    summary
        .set("vmbe_bbt_overhead_pct", arith_mean(&ovh))
        .set("vmbe_bbt_emu_pct", arith_mean(&emu))
        .set("vmsoft_bbt_overhead_pct", arith_mean(&soft_ovh));
    emit_telemetry(
        "fig10_bbt_overhead",
        results.iter().map(CurveResult::labelled),
    );
    emit_metrics_with(
        "fig10_bbt_overhead",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
        summary,
    );
}
