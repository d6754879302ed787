//! Eq. 1: translation overhead = M_BBT·Δ_BBT + M_SBT·Δ_SBT — the
//! analytical model of §3.2, validated against *measured* M_BBT/M_SBT
//! from real VM.soft runs.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_core::model;
use cdvm_stats::{arith_mean, Table};
use cdvm_uarch::{MachineConfig, MachineKind};

fn main() {
    let scale = env_scale();
    banner("Eq. 1", "translation-overhead model vs measurement", scale);

    // Paper's worked example at full scale.
    let (bbt, sbt) = model::translation_overhead(150_000, 105.0, 3_000, 1674.0);
    println!(
        "paper §3.2 (full scale): BBT = {:.2}M, SBT = {:.2}M native instructions — BBT dominates\n",
        bbt / 1e6,
        sbt / 1e6
    );

    let results = run_matrix(&[MachineKind::VmSoft], scale, 1.0).take_results("eq1_overhead_model");
    let cfg = MachineConfig::preset(MachineKind::VmSoft);

    let mut table = Table::new(&[
        "app",
        "M_BBT (static)",
        "M_SBT (static)",
        "Eq.1 BBT (M instrs)",
        "Eq.1 SBT (M instrs)",
        "measured xlate cycles (M)",
    ]);
    let mut ratios = Vec::new();
    for r in &results {
        let (b, s) = model::translation_overhead(
            r.m_bbt,
            cfg.bbt_sw_native_instrs,
            r.m_sbt,
            cfg.sbt_native_instrs,
        );
        let model_cycles = (b + s) / cfg.vmm_ipc;
        let measured = r.breakdown[cdvm_uarch::CycleCat::BbtXlate as usize]
            + r.breakdown[cdvm_uarch::CycleCat::SbtXlate as usize];
        ratios.push(measured / model_cycles);
        table.row_owned(vec![
            r.app.clone(),
            r.m_bbt.to_string(),
            r.m_sbt.to_string(),
            format!("{:.2}", b / 1e6),
            format!("{:.2}", s / 1e6),
            format!("{:.2}", measured / 1e6),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "measured/model cycle ratio: {:.2} (≈1.0 plus the translator's cache stalls,",
        arith_mean(&ratios)
    );
    println!(" which Eq. 1 does not model — the residual is the memory-hierarchy term)");
    let mut summary = cdvm_stats::Metrics::new();
    summary.set("measured_over_model_ratio", arith_mean(&ratios));
    emit_telemetry(
        "eq1_overhead_model",
        results.iter().map(CurveResult::labelled),
    );
    emit_metrics_with(
        "eq1_overhead_model",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
        summary,
    );
}
