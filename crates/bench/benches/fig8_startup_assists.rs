//! Figure 8: startup performance with the hardware assists — the same
//! comparison as Fig. 2 plus `VM.be` (XLTx86 backend unit) and `VM.fe`
//! (dual-mode frontend decoders).


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_stats::Table;
use cdvm_uarch::MachineKind;

fn main() {
    let scale = env_scale();
    banner("Figure 8", "startup performance comparison with hardware assists", scale);
    let kinds = [
        MachineKind::RefSuperscalar,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
    ];
    // The paper uses 500M-instruction traces for the startup curves.
    let results = run_matrix(&kinds, scale, 5.0).take_results("fig8_startup_assists");
    let norm = ref_steady_ipc(&results);

    let steady = {
        let tails: Vec<f64> = results
            .iter()
            .filter(|r| r.kind == MachineKind::VmFe)
            .map(tail_ipc)
            .collect();
        cdvm_stats::harmonic_mean(&tails) / norm
    };

    let ref_c = mean_curve(&results, MachineKind::RefSuperscalar, norm);
    let soft_c = mean_curve(&results, MachineKind::VmSoft, norm);
    let be_c = mean_curve(&results, MachineKind::VmBe, norm);
    let fe_c = mean_curve(&results, MachineKind::VmFe, norm);

    println!();
    println!(
        "{}",
        ascii_plot(
            "normalized aggregate IPC (x86) vs time",
            &[
                ("Ref: superscalar", &ref_c),
                ("VM.soft", &soft_c),
                ("VM.be", &be_c),
                ("VM.fe", &fe_c),
            ],
            1.2,
        )
    );

    let mut table = Table::new(&["cycles", "Ref", "VM.soft", "VM.be", "VM.fe"]);
    let mut csv = String::from("cycles,ref,vm_soft,vm_be,vm_fe,steady\n");
    for (i, &(c, rv)) in ref_c.iter().enumerate() {
        let sv = soft_c.get(i).map(|p| p.1).unwrap_or(0.0);
        let bv = be_c.get(i).map(|p| p.1).unwrap_or(0.0);
        let fv = fe_c.get(i).map(|p| p.1).unwrap_or(0.0);
        if i % 4 == 0 {
            table.row_owned(vec![
                format_cycles(c),
                format!("{rv:.3}"),
                format!("{sv:.3}"),
                format!("{bv:.3}"),
                format!("{fv:.3}"),
            ]);
        }
        csv.push_str(&format!("{c},{rv:.4},{sv:.4},{bv:.4},{fv:.4},{steady:.4}\n"));
    }
    println!("{}", table.to_markdown());
    println!("VM steady-state normalized IPC: {steady:.3} (paper: ~1.08)");

    // Paper shape anchors.
    for (name, kind) in [("VM.be", MachineKind::VmBe), ("VM.fe", MachineKind::VmFe)] {
        let probe = 100_000u64;
        let v: f64 = results
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.instrs.value_at(probe.min(r.cycles)).unwrap_or(0.0))
            .sum();
        let rv: f64 = results
            .iter()
            .filter(|r| r.kind == MachineKind::RefSuperscalar)
            .map(|r| r.instrs.value_at(probe.min(r.cycles)).unwrap_or(0.0))
            .sum();
        println!(
            "at {}: {name} at {:.2}x of reference instructions (fe should track ~1.0)",
            format_cycles(probe),
            v / rv.max(1.0)
        );
    }

    write_artifact("fig8_startup_assists.csv", &csv);
    let mut summary = cdvm_stats::Metrics::new();
    summary.set("vm_steady_normalized_ipc", steady);
    emit_telemetry(
        "fig8_startup_assists",
        results.iter().map(CurveResult::labelled),
    );
    emit_metrics_with(
        "fig8_startup_assists",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
        summary,
    );
}
