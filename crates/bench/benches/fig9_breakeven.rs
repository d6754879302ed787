//! Figure 9: breakeven points for the individual traces — cycles each VM
//! scheme needs to catch up with the reference superscalar's cumulative
//! retired-instruction count.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_stats::{breakeven_cycles, Table};
use cdvm_uarch::MachineKind;

fn main() {
    let scale = env_scale();
    banner("Figure 9", "breakeven points for individual traces", scale);
    let kinds = [
        MachineKind::RefSuperscalar,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
    ];
    // The paper uses 500M-instruction traces for the startup curves.
    let results = run_matrix(&kinds, scale, 5.0).take_results("fig9_breakeven");

    let apps: Vec<String> = results
        .iter()
        .filter(|r| r.kind == MachineKind::RefSuperscalar)
        .map(|r| r.app.clone())
        .collect();

    let mut table = Table::new(&["app", "VM.soft", "VM.be", "VM.fe"]);
    let mut csv = String::from("app,vm_soft,vm_be,vm_fe\n");
    for app in &apps {
        let reference = results
            .iter()
            .find(|r| r.kind == MachineKind::RefSuperscalar && &r.app == app)
            .unwrap();
        let mut cells = vec![app.clone()];
        let mut csv_cells = vec![app.clone()];
        for kind in [MachineKind::VmSoft, MachineKind::VmBe, MachineKind::VmFe] {
            let vm = results
                .iter()
                .find(|r| r.kind == kind && &r.app == app)
                .unwrap();
            match breakeven_cycles(&reference.instrs, &vm.instrs) {
                Some(c) => {
                    cells.push(format_cycles(c));
                    csv_cells.push(c.to_string());
                }
                None => {
                    cells.push(">trace".into());
                    csv_cells.push("-1".into());
                }
            }
        }
        table.row_owned(cells);
        csv.push_str(&csv_cells.join(","));
        csv.push('\n');
    }
    println!("{}", table.to_markdown());
    println!("(\">trace\" = did not break even within the simulated trace,");
    println!(" the paper's bars above 200M cycles; Project is expected to stay there.)");
    write_artifact("fig9_breakeven.csv", &csv);
    emit_telemetry("fig9_breakeven", results.iter().map(CurveResult::labelled));
    emit_metrics(
        "fig9_breakeven",
        scale,
        results.iter().map(|r| r.metrics.clone()).collect(),
    );
}
