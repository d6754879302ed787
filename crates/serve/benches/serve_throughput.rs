//! Service throughput and tail latency: warm pool vs cold-boot-per-job.
//!
//! Runs the same job mix through two service instances — one stamping
//! from warm images, one cold-booting every job — on the same host,
//! back to back, and reports jobs/sec plus p50/p99 latency for each
//! lane. Host time barely separates the lanes — the simulator retires
//! the same guest instructions warm or cold — so the gate uses the
//! model's own clock: p99 *modeled cycles* per job, where warm restores
//! skip the translation startup transient (the paper's claim, measured
//! at the service level). The repo root carries `BENCH_serve.json`;
//! with `CDVM_BENCH_CHECK=1` the bench exits non-zero unless warm p99
//! modeled cycles beat cold. Refresh with `CDVM_BENCH_WRITE_BASELINE=1`.

#![allow(clippy::unwrap_used, clippy::panic)]

use std::time::Instant;

use cdvm_bench::{banner, bench_check_enabled, write_baseline};
use cdvm_serve::{JobSpec, JobState, PoolConfig, ServeConfig, Service};
use cdvm_stats::{CycleHistogram, Metrics};
use cdvm_uarch::MachineKind;
use cdvm_workloads::winstone2004;

/// Fixed scale, independent of `CDVM_SCALE`: baseline numbers must stay
/// comparable across invocations.
const SERVE_SCALE: f64 = 0.01;
const JOBS: usize = 64;
const WORKERS: usize = 4;

struct Lane {
    name: &'static str,
    jobs_per_sec: f64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    run_p50_ns: u64,
    run_p99_ns: u64,
    cycles_p50: u64,
    cycles_p99: u64,
}

fn run_lane(name: &'static str, warm_pool: bool) -> Lane {
    let profiles = winstone2004();
    let catalog: Vec<_> = [MachineKind::VmSoft, MachineKind::VmBe]
        .iter()
        .flat_map(|m| {
            ["Word", "Excel"].iter().map(|app| {
                (
                    *m,
                    profiles.iter().find(|p| p.name == *app).unwrap().clone(),
                )
            })
        })
        .collect();
    let svc = Service::start(ServeConfig {
        workers: WORKERS,
        scale: SERVE_SCALE,
        catalog: catalog.clone(),
        pool: PoolConfig {
            warm: warm_pool,
            ..PoolConfig::default()
        },
        global_queue_cap: JOBS + 8,
        tenant_queue_cap: JOBS + 8,
        ..ServeConfig::default()
    });

    let started = Instant::now();
    let ids: Vec<u64> = (0..JOBS)
        .map(|i| {
            let (machine, profile) = &catalog[i % catalog.len()];
            let tenant = if i % 2 == 0 { "tenant-a" } else { "tenant-b" };
            svc.submit(JobSpec::new(tenant, profile.name, *machine))
                .expect("bench stays under the admission caps")
        })
        .collect();

    let mut latency = CycleHistogram::new();
    let mut run = CycleHistogram::new();
    let mut cycles = CycleHistogram::new();
    for id in ids {
        match svc.wait(id, std::time::Duration::from_secs(300)).unwrap() {
            JobState::Completed(out) => {
                latency.record(out.latency_ns);
                run.record(out.run_ns);
                cycles.record(out.cycles);
            }
            st => panic!("bench job {id} ended {st:?}"),
        }
    }
    let wall = started.elapsed();
    let jobs_per_sec = JOBS as f64 / wall.as_secs_f64();
    println!(
        "{name:>10}: {jobs_per_sec:7.1} jobs/s | latency p50 {:>9} ns  p99 {:>9} ns | modeled cycles p50 {:>9}  p99 {:>9}",
        latency.p50(),
        latency.p99(),
        cycles.p50(),
        cycles.p99(),
    );
    Lane {
        name,
        jobs_per_sec,
        latency_p50_ns: latency.p50(),
        latency_p99_ns: latency.p99(),
        run_p50_ns: run.p50(),
        run_p99_ns: run.p99(),
        cycles_p50: cycles.p50(),
        cycles_p99: cycles.p99(),
    }
}

fn main() {
    banner(
        "serve_throughput",
        "fleet service: warm-pool vs cold-boot-per-job throughput and tail latency",
        SERVE_SCALE,
    );

    let lanes = [run_lane("warm_pool", true), run_lane("cold_boot", false)];
    let (warm, cold) = (&lanes[0], &lanes[1]);
    let ratio = warm.cycles_p99 as f64 / cold.cycles_p99 as f64;
    println!(
        "warm/cold: {:.2}x jobs/s, {ratio:.3}x p99 modeled cycles",
        warm.jobs_per_sec / cold.jobs_per_sec,
    );

    let mut baseline = Metrics::new();
    baseline
        .set("bench", "serve_throughput")
        .set("scale", SERVE_SCALE)
        .set("jobs", JOBS)
        .set("workers", WORKERS);
    for l in &lanes {
        let key = |field: &str| format!("{}_{field}", l.name);
        baseline
            .set(
                &key("jobs_per_sec"),
                (l.jobs_per_sec * 100.0).round() / 100.0,
            )
            .set(&key("latency_p50_ns"), l.latency_p50_ns)
            .set(&key("latency_p99_ns"), l.latency_p99_ns)
            .set(&key("run_p50_ns"), l.run_p50_ns)
            .set(&key("run_p99_ns"), l.run_p99_ns)
            .set(&key("cycles_p50"), l.cycles_p50)
            .set(&key("cycles_p99"), l.cycles_p99);
    }
    baseline.set("warm_over_cold_cycles_p99", (ratio * 1e4).round() / 1e4);
    if write_baseline("BENCH_serve.json", &baseline) {
        return;
    }

    // The gate is deterministic (modeled cycles, not host time): the
    // warm pool must beat cold-boot-per-job at the tail, because warm
    // stamps skip the translation startup transient entirely.
    if bench_check_enabled() {
        if warm.cycles_p99 >= cold.cycles_p99 {
            eprintln!(
                "FAIL: warm-pool p99 {} modeled cycles does not beat cold-boot {} — \
                 the warm images are not paying for themselves",
                warm.cycles_p99, cold.cycles_p99
            );
            std::process::exit(1);
        }
        println!(
            "CHECK OK: warm p99 {} modeled cycles < cold p99 {}",
            warm.cycles_p99, cold.cycles_p99
        );
    } else {
        println!("set CDVM_BENCH_CHECK=1 to enforce warm p99 < cold p99 modeled cycles");
    }
}
