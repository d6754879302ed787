//! Host-side engine throughput: wall-clock nanoseconds per retired guest
//! instruction on the fig2 startup path (reference superscalar,
//! interpreter+SBT, BBT+SBT). This measures the *simulator engine*, not
//! the modeled machine — modeled cycle counts are pinned bit-for-bit by
//! `tests/engine_differential.rs`; this bench tracks how fast the host
//! regenerates them.
//!
//! Results go to `target/figures/micro_engine.metrics.json` and a CSV.
//! The repo root carries `BENCH_engine.json`, the checked-in baseline;
//! with `CDVM_BENCH_CHECK=1` the bench exits non-zero when the aggregate
//! ns/guest-inst — or any single lane — regresses more than 15% against
//! that baseline (the CI smoke job; a ratchet — refresh the baseline
//! downward after engine speedups with `CDVM_BENCH_WRITE_BASELINE=1` so
//! the gate tracks the best measured state, never a stale slower one;
//! the margin covers observed ~10% run-to-run noise on shared CI hosts,
//! nothing more). CI archives the metrics file of each gated run as the
//! per-commit engine-speed series.

#![allow(clippy::unwrap_used, clippy::panic)]
use std::time::Instant;

use cdvm_bench::testjson::Json;
use cdvm_bench::{
    banner, bench_check_enabled, emit_metrics_with, read_baseline, write_artifact, write_baseline,
};
use cdvm_core::{Status, System};
use cdvm_stats::Metrics;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, winstone2004};

/// Fixed workload scale, independent of `CDVM_SCALE`: baseline numbers
/// must stay comparable across invocations.
const MICRO_SCALE: f64 = 0.02;
const REPS: usize = 4;

struct Lane {
    name: &'static str,
    kind: MachineKind,
    ns_per_inst: f64,
    guest_insts: u64,
}

fn run_lane(name: &'static str, kind: MachineKind, profile_idx: usize) -> Lane {
    let profile = &winstone2004()[profile_idx];
    let wl = build_app_run(profile, MICRO_SCALE, 1.0);
    let mut best = f64::INFINITY;
    let mut guest_insts = 0u64;
    // One warmup rep, then take the best of the timed reps (least noise).
    for rep in 0..=REPS {
        let mem = wl.mem.clone();
        let mut sys = System::with_config(MachineConfig::preset(kind), mem, wl.entry);
        let t0 = Instant::now();
        let st = sys.run_to_completion(u64::MAX);
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(st, Status::Halted, "{name} must complete");
        guest_insts = sys.x86_retired();
        if rep > 0 {
            best = best.min(ns / guest_insts.max(1) as f64);
        }
        std::hint::black_box(sys.cycles());
    }
    Lane {
        name,
        kind,
        ns_per_inst: best,
        guest_insts,
    }
}

fn main() {
    banner(
        "micro_engine",
        "host ns per guest instruction on the fig2 startup path",
        MICRO_SCALE,
    );

    let lanes: Vec<Lane> = [
        ("ref_superscalar", MachineKind::RefSuperscalar, 0),
        ("interp_sbt", MachineKind::VmInterp, 0),
        ("bbt_sbt", MachineKind::VmSoft, 0),
        ("bbt_sbt_big_footprint", MachineKind::VmSoft, 3),
    ]
    .into_iter()
    .map(|(name, kind, idx)| run_lane(name, kind, idx))
    .collect();

    // Aggregate: total host time over total guest instructions, i.e. the
    // instruction-weighted mean the startup figures actually pay for.
    let total_ns: f64 = lanes.iter().map(|l| l.ns_per_inst * l.guest_insts as f64).sum();
    let total_insts: u64 = lanes.iter().map(|l| l.guest_insts).sum();
    let aggregate = total_ns / total_insts.max(1) as f64;

    let mut runs = Vec::new();
    let mut csv = String::from("lane,machine,guest_insts,ns_per_inst\n");
    for l in &lanes {
        println!(
            "{:<24} {:>12} guest insts   {:>8.2} ns/inst   {:>7.1} M guest-inst/s",
            l.name,
            l.guest_insts,
            l.ns_per_inst,
            1e3 / l.ns_per_inst
        );
        csv.push_str(&format!(
            "{},{:?},{},{:.4}\n",
            l.name, l.kind, l.guest_insts, l.ns_per_inst
        ));
        let mut m = Metrics::new();
        m.set("app", l.name)
            .set("machine", format!("{:?}", l.kind))
            .set("guest_insts", l.guest_insts)
            .set("ns_per_inst", l.ns_per_inst);
        runs.push(m);
    }
    println!("aggregate: {aggregate:.2} ns/guest-inst");
    csv.push_str(&format!("aggregate,,{total_insts},{aggregate:.4}\n"));
    write_artifact("micro_engine.csv", &csv);

    let mut summary = Metrics::new();
    summary.set("ns_per_inst_aggregate", aggregate);
    emit_metrics_with("micro_engine", MICRO_SCALE, runs, summary);

    let r4 = |x: f64| (x * 1e4).round() / 1e4;
    let mut baseline = Metrics::new();
    baseline.set("bench", "micro_engine").set("scale", MICRO_SCALE);
    for l in &lanes {
        baseline.set(&format!("{}_ns_per_inst", l.name), r4(l.ns_per_inst));
    }
    baseline.set("ns_per_inst_aggregate", r4(aggregate));
    if write_baseline("BENCH_engine.json", &baseline) {
        return;
    }

    match read_baseline("BENCH_engine.json") {
        Some(doc) => {
            let base = doc
                .get("ns_per_inst_aggregate")
                .and_then(Json::as_num)
                .expect("BENCH_engine.json lacks ns_per_inst_aggregate");
            let ratio = aggregate / base;
            println!(
                "baseline aggregate: {base:.2} ns/guest-inst (current/baseline = {ratio:.2}x)"
            );
            let mut failures = 0u32;
            if ratio > 1.15 {
                failures += 1;
                eprintln!(
                    "FAIL: aggregate {aggregate:.2} ns/guest-inst is a {:.0}% regression over \
                     the checked-in baseline {base:.2}",
                    (ratio - 1.0) * 100.0
                );
            }
            // Per-lane ratchet, same 15% noise margin: the aggregate is
            // instruction-weighted, so a big regression in a short lane
            // (ref_superscalar is a tenth of the mix) can hide behind an
            // improvement elsewhere — each lane must hold its own line.
            for l in &lanes {
                let key = format!("{}_ns_per_inst", l.name);
                let Some(lane_base) = doc.get(&key).map(|v| v.as_num().expect("number")) else {
                    println!("[gate] no per-lane baseline {key} (pre-refresh file); skipped");
                    continue;
                };
                let lane_ratio = l.ns_per_inst / lane_base;
                println!(
                    "baseline {:<24} {lane_base:>8.2} ns/inst (current/baseline = {lane_ratio:.2}x)",
                    l.name
                );
                if lane_ratio > 1.15 {
                    failures += 1;
                    eprintln!(
                        "FAIL: lane {} at {:.2} ns/inst is a {:.0}% regression over its \
                         baseline {lane_base:.2}",
                        l.name,
                        l.ns_per_inst,
                        (lane_ratio - 1.0) * 100.0
                    );
                }
            }
            if bench_check_enabled() && failures > 0 {
                std::process::exit(1);
            }
        }
        None => println!("no BENCH_engine.json baseline yet (CDVM_BENCH_WRITE_BASELINE=1 to create)"),
    }
}
