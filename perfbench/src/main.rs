//! The workspace benchmark: one command that runs a named workload from
//! a seed, checks the program's outputs, and prints every metric with its
//! unit.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload startup --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The program is driven only through public calls (`cdvm-workloads`,
//! `cdvm-core::System`, `cdvm-x86`, `cdvm-cracker`, and `cdvm-serve`'s
//! `Service`/`ApiServer` with its HTTP API), timed from outside. The seed
//! replaces every app profile's generator seed, so the program receives
//! only the generated workload.
//!
//! # Workloads
//!
//! * `startup`: all ten Winstone stand-ins on all five machines, each job
//!   cold on a fresh `System`, one at a time, short runs over a large
//!   static footprint (the paper's startup regime; `ref` is the
//!   correctness reference). See [`batch`].
//! * `serve_http`: the `cdvm-serve` warm pool behind its HTTP API on a
//!   localhost socket, one worker, closed loop of two clients. See
//!   [`serve`].
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every host time below is scaled to one nominal host speed: the
//! benchmark times a fixed kernel of its own beside the measured work and
//! multiplies each host time by nominal over measured kernel time, so
//! drift in the host's speed cancels while a change to the program shows
//! in full (see [`calib`]). Each run also prints the scale factors and an
//! unscaled figure.
//!
//! * `setup_s`: everything before the first measured job: generating the
//!   apps, plus for `serve_http` `Service::start` (warm-pool prep) and
//!   `ApiServer::bind`. The median of several scaled set-ups: `startup`
//!   times the app generation again before every round, `serve_http`
//!   starts the service five times.
//! * `ns_per_inst`: host ns per retired guest instruction. `startup`:
//!   `System` construction to HLT, per job the median scaled repetition,
//!   summed over jobs and divided by their instructions. `serve_http`:
//!   each job group's median scaled round, summed, over the guest
//!   instructions one round of each group retires.
//! * `jobs_per_s`: `startup`: jobs over the summed median job times;
//!   `serve_http`: jobs over the summed median round times.
//! * `job_p50_ms`, `job_p90_ms`: nearest-rank percentiles. `startup`: of
//!   the jobs' median times (50 samples); `serve_http`: of client latency,
//!   `POST /jobs` sent to terminal state read, over every kept round
//!   (hundreds of samples; each run prints n and the count beyond p90).
//! * `modeled_mcycles`: modeled cycles summed over the fixed job list.
//!   Deterministic for a seed: a host-only change leaves it identical.
//! * `peak_rss_mb`: `VmHWM` of the benchmark process.
//! * `success_rate`: completed jobs over attempted ones; the error rate is
//!   its complement, and the result line's `failed` counts the jobs that
//!   failed, expired or were refused.
//!
//! # Per-layer metrics (`--trace 1`) and what each should move
//!
//! | layer metrics | end-to-end metric | workload |
//! |---|---|---|
//! | `workloads.build_ms` | `setup_s` | startup |
//! | `x86.decode_ns_per_inst`, `x86.decoder_hit_ratio`, `x86.interp_insts`, `x86.mode_insts` | `ns_per_inst` | startup |
//! | `cracker.crack_ns_per_inst`, `cracker.xlt_ns_per_inst` | `ns_per_inst` (vm.soft, vm.be lanes) | startup |
//! | `core.bbt_ns_per_inst`, `core.sbt_ns_per_inst`, `core.xlate_share`, `core.bbt_insts`, `core.sbt_insts`, `core.vm_exits`, `core.chains`, `core.cache_flushes` | `ns_per_inst` | startup |
//! | `core.run_ns_per_inst.<lane>`, `core.exec_ns_per_inst.<lane>`, `fisa.native_insts`, `fisa.decoded_runs` | `ns_per_inst` | startup, serve_http |
//! | `uarch.l1i_miss_rate`, `uarch.l1d_miss_rate`, `uarch.l2_miss_rate`, `uarch.mispredict_rate` | `modeled_mcycles` (identical under host-only changes) | both |
//! | `core.snapshot_ms`, `core.restore_ms`, `core.image_kb` | `setup_s`, `job_p50_ms` | serve_http |
//! | `serve.start_s` | `setup_s` | serve_http |
//! | `serve.queue_ms`, `serve.stamp_ms`, `serve.run_ms`, `serve.retries`, `serve.shed`, `serve.steals` | `job_p50_ms`, `job_p90_ms`, `jobs_per_s`, `success_rate` | serve_http |
//! | `api.post_ms`, `api.overhead_ms`, `api.metrics_ms`, `api.healthz_ms`, `stats.prom_render_ms`, `stats.metrics_kb` | `job_p50_ms`, `job_p90_ms` | serve_http |
//! | `trace.overhead_pct` | none: end-to-end metrics come from untraced runs | both |
//!
//! Lanes are `ref`, `vm_soft`, `vm_be`, `vm_fe` and `vm_interp`. A layer
//! a workload does not exercise reports 0 (the service layers on
//! `startup`; `serve.steals` on `serve_http`, whose one worker has
//! nothing to steal from). On `serve_http` the engine, translator and snapshot layers
//! are measured on the cold batch runs the correctness check makes. The
//! traced run also prints a per-layer self-time table whose rows plus the
//! unattributed time add up to the traced wall time, and writes a
//! Perfetto file under `.bench_out/`.
//!
//! # Correctness check
//!
//! Every run checks its outputs (see [`check`]) and exits non-zero when a
//! check fails. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! # Known defect: stale EIP after HLT in translated code
//!
//! After HLT retires in translated code, `System::cpu().eip` is stale:
//! vm.soft and vm.be report the entry (0x400000) and vm.interp sometimes
//! 0x400022, while ref and vm.fe report the HLT's successor (0x400027).
//! `BatchEnd::Halt` copies `nstate.to_cpu()`, whose `X86_PC` is written
//! only at VMM exits. The cross-machine check therefore leaves EIP out and
//! every `startup` run prints each machine's EIP; once the defect is fixed
//! the check should compare EIP too. (`serve_http` compares `arch_fnv`,
//! which includes EIP, against a batch run of the same machine, which has
//! the same stale EIP.)

mod batch;
mod calib;
mod check;
mod http;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use cdvm_workloads::{winstone2004, AppProfile};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: replaces every app profile's generator seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced mode (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, expired or were refused.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Appends one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line.
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The ten app profiles with their generator seeds replaced by ones
/// derived from the workload seed, so the program receives only the
/// generated workload.
pub fn seeded_profiles(seed: u64) -> Vec<AppProfile> {
    winstone2004()
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            p.seed = splitmix64(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            p
        })
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "startup" => batch::run(&args),
        "serve_http" => serve::run(&args),
        other => Err(format!("unknown workload {other:?} (startup, serve_http)")),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
