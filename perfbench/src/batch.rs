//! The `startup` workload: a fixed job list of `(machine, app)` pairs,
//! each job cold on a fresh `System`, one job at a time on one thread.
//!
//! The list repeats in rounds until the measured phase ends. Every host
//! time is scaled to the nominal host speed by the yardstick kernel (see
//! [`crate::calib`]), timed before every [`CALIB_EVERY`] jobs; a job's host
//! time is the median of its scaled repetitions.

use std::time::{Duration, Instant};

use cdvm_core::Status;
use cdvm_uarch::MachineKind;
use cdvm_workloads::{build_app_run, Workload};

use crate::calib::Yardstick;
use crate::check::{against_reference, EndState};
use crate::layers::{self, Probe, SliceTimes};
use crate::stats::{median, Samples};
use crate::trace::{write_perfetto, LayerTable, Tracer};
use crate::{peak_rss_mb, seeded_profiles, Args, Outcome};

/// Static footprint scale (`build_app_run`).
const SCALE: f64 = 0.02;
/// Run-length multiplier (`build_app_run`): short runs over the full
/// footprint, so the translators, decoder and cracker do most of the
/// host work.
const LENGTH_MULT: f64 = 0.1;

/// Minimum repetitions of every job (per mode in traced runs), even past
/// the measured phase's end.
const MIN_ROUNDS: usize = 3;
/// Jobs between two yardstick runs: the host's speed changes within a
/// second, so the yardstick runs often, at about 3% of the phase.
const CALIB_EVERY: usize = 5;

/// The job list: app `k % apps` on machine `(k / apps + k) % machines`,
/// so consecutive jobs differ in both app and machine, and every pair
/// appears exactly once.
pub fn job_order(apps: usize, machines: usize) -> Vec<(usize, usize)> {
    (0..apps * machines)
        .map(|k| (k % apps, (k / apps + k) % machines))
        .collect()
}

/// Runs the `startup` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let profiles = seeded_profiles(args.seed);

    // Set-up: generate every app.
    let build = || -> Vec<Workload> {
        profiles
            .iter()
            .map(|p| build_app_run(p, SCALE, LENGTH_MULT))
            .collect()
    };
    let mut yard = Yardstick::new();
    let scale = yard.scale();
    let t = Instant::now();
    let wls = build();
    let mut setup_s = vec![t.elapsed().as_secs_f64() * scale];

    let order = job_order(profiles.len(), MachineKind::ALL.len());
    // Each repetition's scaled host ns, and the raw ones for the report.
    let mut plain_ns: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut raw_ns: Vec<u64> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let mut traced: Vec<Vec<(f64, SliceTimes)>> = vec![Vec::new(); order.len()];
    let mut states: Vec<Option<EndState>> = vec![None; order.len()];
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tracer = Tracer::new(Instant::now(), 1);
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0usize;
    while round < min_rounds || Instant::now() < deadline {
        // Traced runs alternate plain and traced rounds, so both see the
        // same host conditions and their difference is the overhead.
        let traced_round = args.trace && round % 2 == 1;
        let round_start = tracer.now();
        // The set-up is timed again every round, so `setup_s`, the median
        // set-up, is taken over the whole measured phase rather than one
        // instant of it.
        let mut scale = yard.scale();
        let build_start = tracer.now();
        let t = Instant::now();
        let rebuilt = build();
        setup_s.push(t.elapsed().as_secs_f64() * scale);
        drop(rebuilt);
        if traced_round {
            tracer.record("calib.yardstick", 0, round_start, build_start);
            tracer.record("workloads.build", 0, build_start, tracer.now());
        }
        for (j, &(a, m)) in order.iter().enumerate() {
            if j % CALIB_EVERY == 0 {
                let calib_start = tracer.now();
                scale = yard.scale();
                if traced_round {
                    tracer.record("calib.yardstick", 0, calib_start, tracer.now());
                }
            }
            let kind = MachineKind::ALL[m];
            let job = (round * order.len() + j + 1) as u64;
            let mut run = layers::run_job(kind, &wls[a], traced_round.then_some(&mut tracer), job);
            attempted += 1;
            if run.status != Status::Halted {
                failed += 1;
                failures.push(format!(
                    "{kind:?}/{}: ended {:?}",
                    profiles[a].name, run.status
                ));
                continue;
            }
            // The data region is hashed on a job's first repetition only;
            // later repetitions must repeat everything else exactly.
            let capture_start = tracer.now();
            let data_kb = if states[j].is_none() {
                profiles[a].data_kb
            } else {
                0
            };
            let st = EndState::capture(&mut run.sys, data_kb);
            let scaled_ns = run.ns as f64 * scale;
            if traced_round {
                tracer.record("check.capture", job, capture_start, tracer.now());
                traced[j].push((scaled_ns, run.slices));
            } else {
                plain_ns[j].push(scaled_ns);
                raw_ns.push(run.ns);
                scales.push(scale);
            }
            match &states[j] {
                None => states[j] = Some(st),
                Some(first)
                    if (EndState {
                        data_fnv: first.data_fnv,
                        ..st
                    }) != *first =>
                {
                    failures.push(format!(
                        "{kind:?}/{}: end state differs between repetitions",
                        profiles[a].name
                    ))
                }
                Some(_) => {}
            }
        }
        if traced_round {
            tracer.wall_ns += tracer.now() - round_start;
        }
        round += 1;
    }

    // Cross-machine check against the reference machine, and the EIP
    // report (a known defect, described in the crate documentation).
    // `MachineKind::ALL` starts with `RefSuperscalar`, the reference.
    let reference = MachineKind::ALL[0];
    for (a, p) in profiles.iter().enumerate() {
        let state_of = |m: usize| {
            order
                .iter()
                .position(|&(oa, om)| oa == a && om == m)
                .and_then(|j| states[j])
        };
        let Some(r) = state_of(0) else {
            failures.push(format!("{}: no reference result", p.name));
            continue;
        };
        let mut eips = format!("eip {:<10}", p.name);
        for (m, kind) in MachineKind::ALL.iter().enumerate() {
            let Some(got) = state_of(m) else { continue };
            eips.push_str(&format!(
                " {}={:#x}",
                layers::LANES[layers::lane(*kind)],
                got.eip
            ));
            if m > 0 {
                let label = format!("{kind:?}/{} vs {reference:?}", p.name);
                failures.extend(against_reference(&label, &got, &r));
            }
        }
        println!("{eips}");
    }
    for f in &failures {
        println!("check failed: {f}");
    }

    let mut out = Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics: Vec::new(),
    };
    let job_ns: Vec<f64> = plain_ns.iter().map(|v| median(v)).collect();
    let insts: u64 = states.iter().flatten().map(|s| s.retired).sum();
    let cycles: u64 = states.iter().flatten().map(|s| s.cycles).sum();
    let total_ns: f64 = job_ns.iter().sum();
    let per_job = Samples::new(job_ns.iter().map(|ns| ns / 1e6).collect());
    let raw_total_ns =
        raw_ns.iter().sum::<u64>() as f64 * job_ns.len() as f64 / raw_ns.len().max(1) as f64;
    println!(
        "startup: {} jobs x {} rounds, seed {}; per job the median of {} scaled plain repetitions; \
         median of {} scaled set-ups; latency n={} beyond p90={}",
        order.len(),
        round,
        args.seed,
        plain_ns.iter().map(Vec::len).min().unwrap_or(0),
        setup_s.len(),
        per_job.len(),
        per_job.beyond(90.0)
    );
    println!(
        "yardstick: scale min {:.3} median {:.3} max {:.3}; unscaled mean ns_per_inst {:.2}",
        scales.iter().copied().reduce(f64::min).unwrap_or(0.0),
        median(&scales),
        scales.iter().copied().reduce(f64::max).unwrap_or(0.0),
        raw_total_ns / insts.max(1) as f64
    );

    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("ns_per_inst", total_ns / insts.max(1) as f64, "ns");
        out.metric("jobs_per_s", order.len() as f64 / (total_ns / 1e9), "1/s");
        out.metric("job_p50_ms", per_job.percentile(50.0).unwrap_or(0.0), "ms");
        out.metric("job_p90_ms", per_job.percentile(90.0).unwrap_or(0.0), "ms");
        out.metric("modeled_mcycles", cycles as f64 / 1e6, "Mcycles");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metric(
            "success_rate",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "fraction",
        );
        return Ok(out);
    }

    // Traced run: per-layer metrics. Counts and replays come from one more
    // pass over the job list, outside the traced wall time.
    let mut probe = Probe::default();
    for (j, &(a, m)) in order.iter().enumerate() {
        let kind = MachineKind::ALL[m];
        if let Some((_, slices)) = traced[j].iter().min_by(|x, y| x.0.total_cmp(&y.0)) {
            probe.add_slices(kind, slices);
        }
        let mut run = layers::run_job(kind, &wls[a], None, 0);
        probe.add_counts(&run.sys);
        probe.add_replay(&mut run.sys, &wls[a]);
    }
    out.metric("workloads.build_ms", median(&setup_s) * 1e3, "ms");
    probe.metrics(&mut out);
    crate::serve::absent_layers(&mut out);
    let traced_ns: f64 = traced
        .iter()
        .map(|v| median(&v.iter().map(|(ns, _)| *ns).collect::<Vec<_>>()))
        .sum();
    let overhead = 100.0 * (traced_ns / total_ns.max(1.0) - 1.0);
    out.metric("trace.overhead_pct", overhead, "%");
    println!(
        "replay: {} translation errors, {} cold-boot restores",
        probe.replay_errors, probe.restore_failures
    );
    LayerTable::build(&[&tracer]).print("startup traced rounds");
    println!("trace overhead: {overhead:.2}% (median scaled traced vs plain repetition per job)");
    let path = write_perfetto("startup", &[&tracer]).map_err(|e| format!("writing trace: {e}"))?;
    println!("perfetto trace: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_order_covers_every_pair_once_and_interleaves() {
        for (apps, machines) in [(10, 5), (3, 3)] {
            let order = job_order(apps, machines);
            let mut pairs = order.clone();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), apps * machines);
            for w in order.windows(2) {
                assert_ne!(w[0].0, w[1].0);
                assert_ne!(w[0].1, w[1].1);
            }
        }
    }
}
