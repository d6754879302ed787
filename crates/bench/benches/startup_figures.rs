//! The paper's startup evaluation from two job matrices that run each
//! (machine, app) pair once:
//!
//! * all five machines × 10 apps at 5× trace length render Figure 2
//!   (startup of the software-only VM against the reference), Figure 8
//!   (the same with the hardware assists), Figure 9 (per-app breakeven)
//!   and Figure 11 (x86-decode activity);
//! * VM.soft and VM.be × 10 apps at 1× render Figure 10 (VM.be's BBT
//!   overhead and emulation time) and Eq. 1 (the translation-overhead
//!   model against measured translation cycles).
//!
//! Each figure prints its plot or table and writes its CSV under
//! `target/figures/`. Each matrix writes one metrics document
//! (`startup_figures_5x` / `_1x`, every run once, with the figures'
//! headline numbers as its summary) and one series + Perfetto trace pair.

#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::figures::*;
use cdvm_bench::*;
use cdvm_core::model;
use cdvm_stats::{arith_mean, Metrics, Table};
use cdvm_uarch::CycleCat::{BbtEmu, BbtXlate, SbtEmu, SbtXlate};
use cdvm_uarch::{MachineConfig, MachineKind};

fn main() {
    let scale = env_scale();
    let long = run_matrix(&LONG_MACHINES, scale, LONG_RUN).take_results("startup_figures");
    fig2(&long, scale);
    fig8(&long, scale);
    fig9(&long, scale);
    fig11(&long, scale);
    emit("startup_figures_5x", scale, &long, long_headline);
    drop(long);

    let short = run_matrix(&SHORT_MACHINES, scale, 1.0).take_results("startup_figures");
    fig10(&short, scale);
    eq1(&short, scale);
    emit("startup_figures_1x", scale, &short, short_headline);
}

/// Writes one matrix's series, Perfetto trace and metrics document.
fn emit(
    name: &str,
    scale: f64,
    results: &[CurveResult],
    headline: fn(&[CurveResult], &mut Metrics),
) {
    let mut summary = Metrics::new();
    headline(results, &mut summary);
    emit_telemetry(name, results.iter().map(CurveResult::labelled));
    emit_metrics_with(
        name,
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
        summary,
    );
}

fn ipc_cell(v: f64) -> String {
    format!("{v:.3}")
}

/// The steady-state line: `value` at each of `curve`'s probe points.
fn flat(curve: &[(u64, f64)], value: f64) -> Vec<(u64, f64)> {
    curve.iter().map(|&(c, _)| (c, value)).collect()
}

fn fig2(results: &[CurveResult], scale: f64) {
    banner(
        "Figure 2",
        "VM startup performance compared with a conventional x86 processor",
        scale,
    );
    let norm = steady_ipc(results, MachineKind::RefSuperscalar);
    let steady = steady_normalized_ipc(results, MachineKind::VmSoft);
    let curve = |kind| mean_curve(results, kind, norm);
    let ref_c = curve(MachineKind::RefSuperscalar);
    render_curves(
        "fig2_startup_baseline.csv",
        "normalized aggregate IPC (x86) vs time",
        1.2,
        &[
            ("Ref: superscalar", "ref", ref_c.clone()),
            (
                "VM: Interp & SBT",
                "interp_sbt",
                curve(MachineKind::VmInterp),
            ),
            ("VM: BBT & SBT", "bbt_sbt", curve(MachineKind::VmSoft)),
            ("VM: steady state", "steady", flat(&ref_c, steady)),
        ],
        ipc_cell,
    );
    println!("VM.soft steady-state normalized IPC: {steady:.3} (paper: ~1.08)");
    // Paper anchor: at 1M cycles the software VM has executed about one
    // fourth of the reference's instructions.
    let probe = 1_000_000u64.min(ref_c.last().map_or(1, |p| p.0));
    println!(
        "at {} cycles: VM.soft has executed {:.2}x the reference's instructions (paper: ~0.25x)",
        format_cycles(probe),
        retired_vs_ref_at(results, MachineKind::VmSoft, probe)
    );
}

fn fig8(results: &[CurveResult], scale: f64) {
    banner(
        "Figure 8",
        "startup performance comparison with hardware assists",
        scale,
    );
    let norm = steady_ipc(results, MachineKind::RefSuperscalar);
    let steady = steady_normalized_ipc(results, MachineKind::VmFe);
    let curve = |kind| mean_curve(results, kind, norm);
    let ref_c = curve(MachineKind::RefSuperscalar);
    let steady_line = flat(&ref_c, steady);
    render_curves(
        "fig8_startup_assists.csv",
        "normalized aggregate IPC (x86) vs time",
        1.2,
        &[
            ("Ref: superscalar", "ref", ref_c),
            ("VM.soft", "vm_soft", curve(MachineKind::VmSoft)),
            ("VM.be", "vm_be", curve(MachineKind::VmBe)),
            ("VM.fe", "vm_fe", curve(MachineKind::VmFe)),
            ("VM: steady state", "steady", steady_line),
        ],
        ipc_cell,
    );
    println!("VM.fe steady-state normalized IPC: {steady:.3} (paper: ~1.08)");
    for kind in [MachineKind::VmBe, MachineKind::VmFe] {
        let probe = 100_000u64;
        println!(
            "at {}: {kind} at {:.2}x of reference instructions (fe should track ~1.0)",
            format_cycles(probe),
            retired_vs_ref_at(results, kind, probe)
        );
    }
}

fn fig9(results: &[CurveResult], scale: f64) {
    banner("Figure 9", "breakeven points for individual traces", scale);
    let mut table = Table::new(&["app", "VM.soft", "VM.be", "VM.fe"]);
    let mut csv = String::from("app,vm_soft,vm_be,vm_fe\n");
    for app in apps(results) {
        let mut cells = vec![app.to_string()];
        let mut csv_cells = vec![app.to_string()];
        for kind in BREAKEVEN_MACHINES {
            let c = breakeven(results, kind, app);
            cells.push(c.map_or(">trace".into(), format_cycles));
            csv_cells.push(c.map_or("-1".into(), |c| c.to_string()));
        }
        table.row_owned(cells);
        csv.push_str(&csv_cells.join(","));
        csv.push('\n');
    }
    println!("{}", table.to_markdown());
    println!("(\">trace\" = did not catch up with the reference before it finished,");
    println!(" the paper's bars above 200M cycles.)");
    write_artifact("fig9_breakeven.csv", &csv);
}

fn fig11(results: &[CurveResult], scale: f64) {
    banner(
        "Figure 11",
        "activity of the x86-decode hardware assists",
        scale,
    );
    let [superscalar, soft, be, fe] = ACTIVITY_MACHINES.map(|k| mean_activity_curve(results, k));
    render_curves(
        "fig11_assist_activity.csv",
        "aggregate x86-decode-logic activity (% of cycles)",
        1.0,
        &[
            ("Superscalar", "superscalar", superscalar),
            ("VM.soft", "vm_soft", soft),
            ("VM.be", "vm_be", be),
            ("VM.fe", "vm_fe", fe),
        ],
        |v| format!("{:.1}%", v * 100.0),
    );
    println!("shape anchors: Superscalar ≈ 100% throughout; VM.be decays after ~10K cycles");
    println!("to negligible by ~100M; VM.fe decays later (active until hotspots cover");
    println!("execution); VM.soft is identically zero.");
}

fn fig10(results: &[CurveResult], scale: f64) {
    banner(
        "Figure 10",
        "BBT translation overhead & emulation time (VM.be)",
        scale,
    );
    let mut table = Table::new(&[
        "app",
        "BBT overhead %",
        "BBT emu %",
        "SBT xlate %",
        "SBT emu %",
        "coverage %",
    ]);
    let mut csv = String::from("app,bbt_xlate,bbt_emu,sbt_xlate,sbt_emu,coverage\n");
    let mut coverage = Vec::new();
    for r in results.iter().filter(|r| r.kind == MachineKind::VmBe) {
        let cov = r.coverage * 100.0;
        let pcts = [BbtXlate, BbtEmu, SbtXlate, SbtEmu].map(|cat| share(r, cat));
        let mut row = vec![r.app.clone()];
        row.extend(pcts.iter().chain([&cov]).map(|p| format!("{p:.1}")));
        table.row_owned(row);
        csv.push_str(&r.app);
        for p in pcts.iter().chain([&cov]) {
            csv.push_str(&format!(",{p:.2}"));
        }
        csv.push('\n');
        coverage.push(cov);
    }
    println!("{}", table.to_markdown());
    let (be, soft) = (MachineKind::VmBe, MachineKind::VmSoft);
    let mean = |kind, cat| mean_share(results, kind, cat);
    println!(
        "VM.be averages: BBT overhead {:.1}% (paper 2.7%, ≤5% worst), BBT emu {:.1}% (paper ~35%),",
        mean(be, BbtXlate),
        mean(be, BbtEmu)
    );
    println!(
        "               SBT xlate {:.1}% (paper 3.2%), SBT emu {:.1}% (paper ~59%), coverage {:.1}% (paper 63%)",
        mean(be, SbtXlate),
        mean(be, SbtEmu),
        arith_mean(&coverage)
    );
    println!(
        "VM.soft average BBT overhead: {:.1}% (paper 9.9%)",
        mean(soft, BbtXlate)
    );
    println!(
        "per-instruction BBT cost: software ~{:.0} cycles vs HAloop ~{:.0} cycles (paper 83 vs 20)",
        MachineConfig::preset(MachineKind::VmSoft).bbt_sw_cycles(),
        MachineConfig::preset(MachineKind::VmBe).bbt_be_cycles
    );
    write_artifact("fig10_bbt_overhead.csv", &csv);
}

fn eq1(results: &[CurveResult], scale: f64) {
    banner("Eq. 1", "translation-overhead model vs measurement", scale);
    // Paper's worked example at full scale.
    let (bbt, sbt) = model::translation_overhead(150_000, 105.0, 3_000, 1674.0);
    println!(
        "paper §3.2 (full scale): BBT = {:.2}M, SBT = {:.2}M native instructions — BBT dominates\n",
        bbt / 1e6,
        sbt / 1e6
    );
    let mut table = Table::new(&[
        "app",
        "M_BBT (static)",
        "M_SBT (static)",
        "Eq.1 BBT (M instrs)",
        "Eq.1 SBT (M instrs)",
        "measured xlate cycles (M)",
    ]);
    for r in results.iter().filter(|r| r.kind == MachineKind::VmSoft) {
        let e = eq1_terms(r);
        table.row_owned(vec![
            r.app.clone(),
            r.m_bbt.to_string(),
            r.m_sbt.to_string(),
            format!("{:.2}", e.bbt / 1e6),
            format!("{:.2}", e.sbt / 1e6),
            format!("{:.2}", e.measured / 1e6),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "measured/model cycle ratio: {:.2} (≈1.0 plus the translator's cache stalls,",
        eq1_ratio(results)
    );
    println!(" which Eq. 1 does not model — the residual is the memory-hierarchy term)");
}
