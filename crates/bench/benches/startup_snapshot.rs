//! Cold-vs-warm startup: what a crash-safe warm image buys on second
//! invocation. For each lane the bench runs the workload cold, saves the
//! translation-state image at the architected end, restores it into a
//! fresh system and re-runs the same guest warm. Reported per lane:
//!
//! * modeled cycles to completion, cold and warm, and the warm speedup;
//! * modeled cycles to steady-state IPC (first window at ≥90% of the
//!   run's final IPC), cold and warm — the paper's startup-time lens;
//! * image size in bytes, and host-side save/restore wall time.
//!
//! Modeled numbers are deterministic, so the headline
//! `warm_cycles_aggregate` doubles as a robustness gate: if restore ever
//! silently degrades (sections dropped, caches not rebuilt), warm runs
//! re-translate and the aggregate jumps. The repo root carries
//! `BENCH_startup.json`; with `CDVM_BENCH_CHECK=1` the bench exits
//! non-zero when the aggregate regresses more than 25% against it.
//! Refresh with `CDVM_BENCH_WRITE_BASELINE=1`.

#![allow(clippy::unwrap_used, clippy::panic)]
use std::time::Instant;

use cdvm_bench::{
    banner, bench_check_enabled, emit_metrics_with, read_baseline, time_to_steady, write_artifact,
    write_baseline,
};
use cdvm_core::{RecorderConfig, Status, System, TelemetryConfig};
use cdvm_stats::Metrics;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, winstone2004};

/// Fixed workload scale, independent of `CDVM_SCALE`: baseline numbers
/// must stay comparable across invocations.
const SNAP_SCALE: f64 = 0.02;

struct Lane {
    name: &'static str,
    kind: MachineKind,
    cold_cycles: u64,
    warm_cycles: u64,
    cold_steady: u64,
    warm_steady: u64,
    image_bytes: usize,
    save_ns: f64,
    restore_ns: f64,
}

fn run_lane(name: &'static str, kind: MachineKind, profile_idx: usize) -> Lane {
    let profile = &winstone2004()[profile_idx];
    let wl = build_app_run(profile, SNAP_SCALE, 1.0);

    // Cold leg: first invocation, nothing translated yet.
    let recorder_only = TelemetryConfig {
        trace: None,
        recorder: Some(RecorderConfig::default()),
    };
    let steady = |sys: &mut System| time_to_steady(&sys.take_telemetry().recorder.unwrap());
    let mut cold = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
    cold.set_telemetry(recorder_only);
    assert_eq!(cold.run_to_completion(u64::MAX), Status::Halted, "{name}: cold");
    let cold_cycles = cold.cycles();
    let cold_retired = cold.x86_retired();
    let cold_steady = steady(&mut cold);

    let t0 = Instant::now();
    let image = cold.snapshot_bytes();
    let save_ns = t0.elapsed().as_nanos() as f64;

    // Warm leg: second invocation resumed from the image.
    let mut warm = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
    warm.set_telemetry(recorder_only);
    let t0 = Instant::now();
    let outcome = warm.restore_image_bytes(&image);
    let restore_ns = t0.elapsed().as_nanos() as f64;
    assert!(
        !outcome.is_cold_boot() && !outcome.is_degraded(),
        "{name}: restore must be clean, got {outcome:?}"
    );
    assert_eq!(warm.run_to_completion(u64::MAX), Status::Halted, "{name}: warm");
    assert_eq!(warm.x86_retired(), cold_retired, "{name}: architected equality");
    let warm_cycles = warm.cycles();
    let warm_steady = steady(&mut warm);

    Lane {
        name,
        kind,
        cold_cycles,
        warm_cycles,
        cold_steady,
        warm_steady,
        image_bytes: image.len(),
        save_ns,
        restore_ns,
    }
}

fn main() {
    banner(
        "startup_snapshot",
        "cold vs warm-restore startup: modeled cycles, steady-IPC point, image cost",
        SNAP_SCALE,
    );

    let lanes: Vec<Lane> = [
        ("bbt_sbt", MachineKind::VmSoft, 0usize),
        ("bbt_sbt_big_footprint", MachineKind::VmSoft, 3),
        ("interp_sbt", MachineKind::VmInterp, 0),
        ("vm_be", MachineKind::VmBe, 3),
    ]
    .into_iter()
    .map(|(name, kind, idx)| run_lane(name, kind, idx))
    .collect();

    let warm_aggregate: u64 = lanes.iter().map(|l| l.warm_cycles).sum();
    let cold_aggregate: u64 = lanes.iter().map(|l| l.cold_cycles).sum();

    let mut runs = Vec::new();
    let mut csv = String::from(
        "lane,machine,cold_cycles,warm_cycles,warm_speedup,cold_steady_cycles,\
         warm_steady_cycles,image_bytes,save_us,restore_us\n",
    );
    for l in &lanes {
        let speedup = l.cold_cycles as f64 / l.warm_cycles.max(1) as f64;
        println!(
            "{:<24} cold {:>12} cy   warm {:>12} cy   {:>5.2}x   steady {:>10} -> {:>10} cy   \
             image {:>8} B   restore {:>7.1} us",
            l.name,
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
            l.name,
            l.kind,
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
        m.set("app", l.name)
            .set("machine", format!("{:?}", l.kind))
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
    emit_metrics_with("startup_snapshot", SNAP_SCALE, runs, summary);

    let mut baseline = Metrics::new();
    baseline.set("bench", "startup_snapshot").set("scale", SNAP_SCALE);
    for l in &lanes {
        baseline
            .set(&format!("{}_warm_cycles", l.name), l.warm_cycles)
            .set(&format!("{}_image_bytes", l.name), l.image_bytes);
    }
    baseline
        .set("cold_cycles_aggregate", cold_aggregate)
        .set("warm_cycles_aggregate", warm_aggregate);
    if write_baseline("BENCH_startup.json", &baseline) {
        return;
    }

    match read_baseline("BENCH_startup.json") {
        Some(doc) => {
            let base = doc
                .get("warm_cycles_aggregate")
                .expect("BENCH_startup.json lacks warm_cycles_aggregate")
                .as_num();
            let ratio = warm_aggregate as f64 / base;
            println!("baseline warm aggregate: {base:.0} cy (current/baseline = {ratio:.3}x)");
            if bench_check_enabled() && ratio > 1.25 {
                eprintln!(
                    "FAIL: warm aggregate {warm_aggregate} cy is a {:.0}% regression over the \
                     checked-in baseline {base:.0} — the warm-restore path has degraded",
                    (ratio - 1.0) * 100.0
                );
                std::process::exit(1);
            }
        }
        None => {
            println!("no BENCH_startup.json baseline yet (CDVM_BENCH_WRITE_BASELINE=1 to create)");
        }
    }
}
