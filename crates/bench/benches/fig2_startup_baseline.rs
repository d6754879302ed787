//! Figure 2: startup performance of the software-only co-designed VM
//! against a conventional superscalar — `Ref: superscalar`,
//! `VM: Interp & SBT`, `VM: BBT & SBT`, and the VM steady-state line.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_stats::Table;
use cdvm_uarch::MachineKind;

fn main() {
    let scale = env_scale();
    banner(
        "Figure 2",
        "VM startup performance compared with a conventional x86 processor",
        scale,
    );
    let kinds = [
        MachineKind::RefSuperscalar,
        MachineKind::VmInterp,
        MachineKind::VmSoft,
    ];
    // The paper uses 500M-instruction traces for the startup curves.
    let results = run_matrix(&kinds, scale, 5.0).take_results("fig2_startup_baseline");
    let norm = ref_steady_ipc(&results);

    let vm_tails: Vec<f64> = results
        .iter()
        .filter(|r| r.kind == MachineKind::VmSoft)
        .map(tail_ipc)
        .collect();
    let steady = cdvm_stats::harmonic_mean(&vm_tails) / norm;

    let ref_c = mean_curve(&results, MachineKind::RefSuperscalar, norm);
    let interp_c = mean_curve(&results, MachineKind::VmInterp, norm);
    let soft_c = mean_curve(&results, MachineKind::VmSoft, norm);
    let steady_line: Vec<(u64, f64)> = ref_c.iter().map(|&(c, _)| (c, steady)).collect();

    println!();
    println!(
        "{}",
        ascii_plot(
            "normalized aggregate IPC (x86) vs time",
            &[
                ("Ref: superscalar", &ref_c),
                ("VM: Interp & SBT", &interp_c),
                ("VM: BBT & SBT", &soft_c),
                ("VM: steady state", &steady_line),
            ],
            1.2,
        )
    );

    let mut table = Table::new(&["cycles", "Ref", "Interp&SBT", "BBT&SBT"]);
    let mut csv = String::from("cycles,ref,interp_sbt,bbt_sbt,steady\n");
    for (i, &(c, rv)) in ref_c.iter().enumerate() {
        let iv = interp_c.get(i).map(|p| p.1).unwrap_or(0.0);
        let sv = soft_c.get(i).map(|p| p.1).unwrap_or(0.0);
        if i % 4 == 0 {
            table.row_owned(vec![
                format_cycles(c),
                format!("{rv:.3}"),
                format!("{iv:.3}"),
                format!("{sv:.3}"),
            ]);
        }
        csv.push_str(&format!("{c},{rv:.4},{iv:.4},{sv:.4},{steady:.4}\n"));
    }
    println!("{}", table.to_markdown());
    println!("VM steady-state normalized IPC: {steady:.3} (paper: ~1.08)");

    // Paper anchor: at 1M cycles the software VM has executed about one
    // fourth of the reference's instructions.
    let probe = 1_000_000u64.min(ref_c.last().map(|p| p.0).unwrap_or(1));
    let rv = results
        .iter()
        .filter(|r| r.kind == MachineKind::RefSuperscalar)
        .map(|r| r.instrs.value_at(probe.min(r.cycles)).unwrap_or(0.0))
        .sum::<f64>();
    let sv = results
        .iter()
        .filter(|r| r.kind == MachineKind::VmSoft)
        .map(|r| r.instrs.value_at(probe.min(r.cycles)).unwrap_or(0.0))
        .sum::<f64>();
    println!(
        "at {} cycles: VM.soft has executed {:.2}x the reference's instructions (paper: ~0.25x)",
        format_cycles(probe),
        sv / rv.max(1.0)
    );

    write_artifact("fig2_startup_baseline.csv", &csv);
    let mut summary = cdvm_stats::Metrics::new();
    summary.set("vm_steady_normalized_ipc", steady);
    emit_telemetry(
        "fig2_startup_baseline",
        results.iter().map(CurveResult::labelled),
    );
    emit_metrics_with(
        "fig2_startup_baseline",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
        summary,
    );
}
