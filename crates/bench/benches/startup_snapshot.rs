//! Cold-vs-warm startup: what a crash-safe warm image buys on second
//! invocation. For each lane of [`WARM_LANES`] the bench runs the
//! workload cold, saves the translation-state image at the architected
//! end, restores it into a fresh system and re-runs the same guest warm
//! ([`run_cold_warm`]). Reported per lane:
//!
//! * modeled cycles to completion, cold and warm, and the warm speedup;
//! * modeled cycles to steady-state IPC (first window at ≥90% of the
//!   run's final IPC), cold and warm — the paper's startup-time lens;
//! * image size in bytes, and host-side save/restore wall time.
//!
//! Modeled numbers are deterministic, so the warm cycles and image sizes
//! are pinned exactly by a `cdvm-bench` unit test against the repo-root
//! `BENCH_startup.json`; this bench only reports.

use cdvm_bench::{
    banner, emit_metrics_with, run_cold_warm, write_artifact, WARM_LANES, WARM_LANE_SCALE,
};
use cdvm_stats::Metrics;
use cdvm_workloads::winstone2004;

fn main() {
    banner(
        "startup_snapshot",
        "cold vs warm-restore startup: modeled cycles, steady-IPC point, image cost",
        WARM_LANE_SCALE,
    );

    let mut runs = Vec::new();
    let mut csv = String::from(
        "lane,machine,cold_cycles,warm_cycles,warm_speedup,cold_steady_cycles,\
         warm_steady_cycles,image_bytes,save_us,restore_us\n",
    );
    let (mut cold_aggregate, mut warm_aggregate) = (0u64, 0u64);
    for (name, kind, idx) in WARM_LANES {
        let l = run_cold_warm(kind, &winstone2004()[idx], WARM_LANE_SCALE);
        cold_aggregate += l.cold_cycles;
        warm_aggregate += l.warm_cycles;
        let speedup = l.cold_cycles as f64 / l.warm_cycles.max(1) as f64;
        println!(
            "{:<24} cold {:>12} cy   warm {:>12} cy   {:>5.2}x   steady {:>10} -> {:>10} cy   \
             image {:>8} B   restore {:>7.1} us",
            name,
            l.cold_cycles,
            l.warm_cycles,
            speedup,
            l.cold_steady,
            l.warm_steady,
            l.image_bytes,
            l.restore_ns / 1e3,
        );
        csv.push_str(&format!(
            "{},{:?},{},{},{:.4},{},{},{},{:.2},{:.2}\n",
            name,
            kind,
            l.cold_cycles,
            l.warm_cycles,
            speedup,
            l.cold_steady,
            l.warm_steady,
            l.image_bytes,
            l.save_ns / 1e3,
            l.restore_ns / 1e3,
        ));
        let mut m = Metrics::new();
        m.set("app", name)
            .set("machine", format!("{kind:?}"))
            .set("cold_cycles", l.cold_cycles)
            .set("warm_cycles", l.warm_cycles)
            .set("warm_speedup", speedup)
            .set("cold_steady_cycles", l.cold_steady)
            .set("warm_steady_cycles", l.warm_steady)
            .set("image_bytes", l.image_bytes as u64)
            .set("save_us", l.save_ns / 1e3)
            .set("restore_us", l.restore_ns / 1e3);
        runs.push(m);
    }
    println!(
        "aggregate: cold {cold_aggregate} cy, warm {warm_aggregate} cy ({:.2}x)",
        cold_aggregate as f64 / warm_aggregate.max(1) as f64
    );
    write_artifact("startup_snapshot.csv", &csv);

    let mut summary = Metrics::new();
    summary
        .set("cold_cycles_aggregate", cold_aggregate)
        .set("warm_cycles_aggregate", warm_aggregate);
    emit_metrics_with("startup_snapshot", WARM_LANE_SCALE, runs, summary);
}
