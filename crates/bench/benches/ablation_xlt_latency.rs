//! Ablation: `XLTx86` latency sensitivity — the paper *assumes* a
//! 4-cycle unit (§4.2); this sweep shows how VM.be's startup benefit
//! degrades as the hardware decoder gets slower (a hardware-design-space
//! answer the paper leaves implicit).


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_core::{Status, System, TelemetryConfig};
use cdvm_stats::Table;
use cdvm_uarch::{CycleCat, MachineConfig, MachineKind};
use cdvm_workloads::{build_app, winstone2004};

fn main() {
    let scale = env_scale();
    banner("Ablation", "XLTx86 latency sensitivity (VM.be)", scale);

    let profiles = winstone2004();
    let apps = [&profiles[0], &profiles[4], &profiles[9]]; // Access, Norton, Word

    let mut table = Table::new(&[
        "XLT latency (cycles)",
        "HAloop cycles/inst",
        "BBT xlate % (avg)",
        "finish cycles (M, avg)",
    ]);
    let mut csv = String::from("latency,haloop,bbt_xlate_pct,cycles_m\n");
    let mut runs = Vec::new();
    let mut flights = Vec::new();
    for lat in [1u32, 2, 4, 8, 16] {
        let mut fracs = Vec::new();
        let mut cycs = Vec::new();
        for p in apps {
            let wl = build_app(p, scale);
            let mut cfg = MachineConfig::preset(MachineKind::VmBe);
            // HAloop = ~10 bookkeeping micro-ops + the serialized XLT
            // latency; keep the paper's 20-cycle figure at 4 cycles and
            // scale the serialized part.
            cfg.xlt_latency = lat;
            cfg.bbt_be_cycles = 16.0 + lat as f64;
            let mut sys = System::with_config(cfg, wl.mem, wl.entry);
            sys.set_telemetry(TelemetryConfig::full());
            let st = sys.run_to_completion(u64::MAX);
            assert_eq!(st, Status::Halted);
            fracs.push(100.0 * sys.timing.category_cycles(CycleCat::BbtXlate) / sys.timing.cycles_f());
            cycs.push(sys.cycles() as f64 / 1e6);
            let mut m = system_metrics(p.name, &mut sys);
            m.set("xlt_latency", u64::from(lat));
            runs.push(m);
            flights.push((format!("{} xlt={lat}", p.name), sys.take_telemetry()));
        }
        let f = cdvm_stats::arith_mean(&fracs);
        let c = cdvm_stats::arith_mean(&cycs);
        table.row_owned(vec![
            lat.to_string(),
            format!("{:.0}", 16.0 + lat as f64),
            format!("{f:.2}"),
            format!("{c:.2}"),
        ]);
        csv.push_str(&format!("{lat},{:.0},{f:.3},{c:.3}\n", 16.0 + lat as f64));
    }
    println!("{}", table.to_markdown());
    println!("(the paper's 4-cycle assumption sits on the flat part of the curve:");
    println!(" BBT cost is dominated by the HAloop bookkeeping, not the unit's latency,");
    println!(" so even a pessimistic 8–16-cycle decoder preserves most of the benefit)");
    write_artifact("ablation_xlt_latency.csv", &csv);
    emit_telemetry(
        "ablation_xlt_latency",
        flights.iter().map(|(label, t)| (label, t)),
    );
    emit_metrics("ablation_xlt_latency", scale, runs);
}
