//! Figure 11: activity of the x86 decode logic over time for all four
//! machines — always-on for the conventional superscalar, decaying for
//! the assisted VMs, zero for the software VM.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_stats::Table;
use cdvm_uarch::MachineKind;

fn main() {
    let scale = env_scale();
    banner("Figure 11", "activity of the x86-decode hardware assists", scale);
    let kinds = [
        MachineKind::RefSuperscalar,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
    ];
    // The paper uses 500M-instruction traces for the startup curves.
    let results = run_matrix(&kinds, scale, 5.0).take_results("fig11_assist_activity");

    let ref_a = mean_activity_curve(&results, MachineKind::RefSuperscalar);
    let soft_a = mean_activity_curve(&results, MachineKind::VmSoft);
    let be_a = mean_activity_curve(&results, MachineKind::VmBe);
    let fe_a = mean_activity_curve(&results, MachineKind::VmFe);

    println!();
    println!(
        "{}",
        ascii_plot(
            "aggregate x86-decode-logic activity (% of cycles)",
            &[
                ("Superscalar", &ref_a),
                ("VM.soft", &soft_a),
                ("VM.be", &be_a),
                ("VM.fe", &fe_a),
            ],
            1.0,
        )
    );

    let mut table = Table::new(&["cycles", "Superscalar", "VM.soft", "VM.be", "VM.fe"]);
    let mut csv = String::from("cycles,superscalar,vm_soft,vm_be,vm_fe\n");
    for (i, &(c, rv)) in ref_a.iter().enumerate() {
        let sv = soft_a.get(i).map(|p| p.1).unwrap_or(0.0);
        let bv = be_a.get(i).map(|p| p.1).unwrap_or(0.0);
        let fv = fe_a.get(i).map(|p| p.1).unwrap_or(0.0);
        if i % 4 == 0 {
            table.row_owned(vec![
                format_cycles(c),
                format!("{:.1}%", rv * 100.0),
                format!("{:.1}%", sv * 100.0),
                format!("{:.1}%", bv * 100.0),
                format!("{:.1}%", fv * 100.0),
            ]);
        }
        csv.push_str(&format!("{c},{rv:.4},{sv:.4},{bv:.4},{fv:.4}\n"));
    }
    println!("{}", table.to_markdown());
    println!("shape anchors: Superscalar ≈ 100% throughout; VM.be decays after ~10K cycles");
    println!("to negligible by ~100M; VM.fe decays later (active until hotspots cover");
    println!("execution); VM.soft is identically zero.");
    write_artifact("fig11_assist_activity.csv", &csv);
    emit_telemetry(
        "fig11_assist_activity",
        results.iter().map(CurveResult::labelled),
    );
    emit_metrics(
        "fig11_assist_activity",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
    );
}
