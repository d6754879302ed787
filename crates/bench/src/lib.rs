//! Shared harness for the figure/table benchmarks.
//!
//! The `cargo bench` targets in this crate regenerate the paper's tables
//! and figures; `startup_figures` renders its whole startup evaluation
//! from the derivations in [`figures`]. The harness runs the ten
//! Winstone-like apps on the requested machine configurations (in
//! parallel), samples startup curves on the paper's logarithmic cycle
//! axis, and renders markdown tables, ASCII plots and CSV files (under
//! `target/figures/`).
//!
//! Trace lengths scale with `CDVM_SCALE` (default 0.1 ⇒ one tenth of the
//! paper's 100M/500M-instruction traces; set `CDVM_SCALE=1.0` for
//! full-length runs).

use std::path::PathBuf;
use std::time::Instant;

use cdvm_core::vm::TransKind;
use cdvm_core::{
    panic_message, render_chrome, FlightRecorder, Phase, RecorderConfig, Status, System,
    Telemetry, TelemetryConfig, NUM_PHASES,
};
use cdvm_stats::{ChromeTrace, LogSampler, Metrics};
use cdvm_uarch::{CycleCat, Cycles, MachineConfig, MachineKind, NUM_CATS};
use cdvm_workloads::{build_app_run, winstone2004, AppProfile, Workload};

pub use cdvm_workloads::env_scale;

pub mod figures;
pub mod testjson;

use testjson::{Json, Parser};

/// Instructions per sampling slice.
pub const SAMPLE_SLICE: u64 = 4096;

/// One app × machine startup run with its sampled curves.
#[derive(Debug)]
pub struct CurveResult {
    /// Machine configuration.
    pub kind: MachineKind,
    /// Application name.
    pub app: String,
    /// Cumulative retired x86 instructions over cycles.
    pub instrs: LogSampler,
    /// Cumulative x86-decoder-active cycles over cycles.
    pub activity: LogSampler,
    /// Final cycle count.
    pub cycles: u64,
    /// Final retired-instruction count.
    pub x86_retired: u64,
    /// Per-category cycle totals.
    pub breakdown: [f64; NUM_CATS],
    /// Final hotspot coverage.
    pub coverage: f64,
    /// BBT static instructions translated (M_BBT proxy).
    pub m_bbt: u64,
    /// SBT static instructions optimized (M_SBT proxy).
    pub m_sbt: u64,
    /// Per-phase cycle totals (indexed by `Phase as usize`; they sum
    /// exactly to the run's fixed-point cycle total by construction).
    pub phase_cycles: [Cycles; NUM_PHASES],
    /// The run's machine-readable metrics (see [`system_metrics`]).
    pub metrics: Metrics,
    /// The run's flight recorder (time series, phase segments and
    /// latency histograms, finalized at end of run) and event trace.
    pub telemetry: Telemetry,
}

impl CurveResult {
    /// The run's telemetry under its Perfetto label (`machine/app`), as
    /// [`emit_telemetry`] takes it.
    pub fn labelled(&self) -> (String, &Telemetry) {
        (format!("{}/{}", self.kind, self.app), &self.telemetry)
    }
}

/// Runs one application on one machine, sampling startup curves.
/// `length_mult` stretches the trace without growing the app (the
/// paper's 500M-instruction runs use 5.0).
pub fn run_curve(
    cfg: MachineConfig,
    profile: &AppProfile,
    scale: f64,
    length_mult: f64,
) -> CurveResult {
    let wl = cdvm_workloads::build_app_run(profile, scale, length_mult);
    run_prebuilt(cfg, &wl)
}

/// Runs one machine against an already-built workload image. The memory
/// image is cloned copy-on-write (page directory only, no page bytes),
/// so one `build_app_run` can feed every machine configuration — that is
/// how [`run_jobs`] amortizes workload generation across the matrix.
pub fn run_prebuilt(cfg: MachineConfig, wl: &Workload) -> CurveResult {
    let mut sys = System::with_config(cfg, wl.mem.clone(), wl.entry);
    // Telemetry is free by construction (the recorder and trace are pure
    // observers — see `tests/engine_differential.rs`), so every bench run
    // records both for the Perfetto export, at the sizes `CDVM_TRACE` and
    // `CDVM_RECORDER` ask for when set.
    let (env, full) = (TelemetryConfig::from_env(), TelemetryConfig::full());
    sys.set_telemetry(TelemetryConfig {
        trace: env.trace.or(full.trace),
        recorder: env.recorder.or(full.recorder),
    });
    let mut instrs = LogSampler::new(12);
    let mut activity = LogSampler::new(12);
    loop {
        let st = sys.run_slice(SAMPLE_SLICE);
        instrs.record(sys.cycles(), sys.x86_retired() as f64);
        activity.record(sys.cycles(), sys.timing.decoder_active_cycles());
        if st != Status::Running {
            assert_eq!(st, Status::Halted, "{} on {}", wl.name, cfg.kind);
            break;
        }
    }
    instrs.finish(sys.cycles(), sys.x86_retired() as f64);
    activity.finish(sys.cycles(), sys.timing.decoder_active_cycles());

    let mut breakdown = [0.0; NUM_CATS];
    for (i, c) in CycleCat::ALL.iter().enumerate() {
        breakdown[i] = sys.timing.category_cycles(*c);
    }
    let (m_bbt, m_sbt) = match sys.vm.as_ref() {
        Some(vm) => (
            vm.stats.bbt_x86_insts - vm.stats.bbt_retranslated_insts - vm.stats.bbt_upgraded_insts,
            vm.stats.sbt_x86_insts,
        ),
        None => (0, 0),
    };
    let metrics = system_metrics(&wl.name, &mut sys);
    let telemetry = sys.take_telemetry();
    if let Some(t) = telemetry.trace.as_deref().filter(|t| t.dropped() > 0) {
        eprintln!(
            "[trace] {} on {}: {} of {} events dropped (ring capacity {}); \
             set CDVM_TRACE=<larger capacity> for a complete trace",
            wl.name,
            cfg.kind,
            t.dropped(),
            t.recorded(),
            t.len()
        );
    }
    CurveResult {
        kind: cfg.kind,
        app: wl.name.clone(),
        instrs,
        activity,
        cycles: sys.cycles(),
        x86_retired: sys.x86_retired(),
        breakdown,
        coverage: sys.hotspot_coverage(),
        m_bbt,
        m_sbt,
        phase_cycles: sys.stats.phase_cycles,
        metrics,
        telemetry,
    }
}

/// Snapshots one finished (or in-flight) [`System`] into a metrics map:
/// identity, cycle totals, per-phase and per-category cycle breakdowns,
/// VM-layer counters, and the trace summary when tracing is enabled.
///
/// # Panics
///
/// Panics unless the per-phase totals sum bit-exactly to the run's
/// fixed-point cycle total — phase accounting telescopes over exact
/// integer arithmetic, so any discrepancy at all means a cycle-charging
/// site in the system loop is missing its phase attribution.
pub fn system_metrics(app: &str, sys: &mut System) -> Metrics {
    let phases = sys.phase_snapshot();
    let total = sys.timing.cycles_fp();
    let phase_sum: Cycles = phases.iter().copied().sum();
    assert_eq!(
        phase_sum, total,
        "phase cycles {phase_sum} do not sum exactly to total {total}"
    );
    let mut m = Metrics::new();
    m.set("machine", format!("{}", sys.kind));
    m.set("app", app);
    m.set("cycles", sys.cycles());
    m.set("x86_retired", sys.x86_retired());
    m.set(
        "ipc",
        if sys.cycles() == 0 {
            0.0
        } else {
            sys.x86_retired() as f64 / sys.cycles() as f64
        },
    );
    m.set("hotspot_coverage", sys.hotspot_coverage());

    let mut ph = Metrics::new();
    for p in Phase::ALL {
        ph.set(p.name(), phases[p as usize].to_f64());
    }
    m.set("phase_cycles", ph);
    m.set("phase_cycles_total", phase_sum.to_f64());

    let cats = sys.timing.category_snapshot();
    let mut cm = Metrics::new();
    for (i, c) in CycleCat::ALL.iter().enumerate() {
        cm.set(&format!("{c:?}"), cats[i]);
    }
    m.set("category_cycles", cm);

    let mut sm = Metrics::new();
    sm.set("mode_switches", sys.stats.mode_switches)
        .set("vm_exits", sys.stats.vm_exits)
        .set("bbt_demotions", sys.stats.bbt_demotions)
        .set("sbt_demotions", sys.stats.sbt_demotions)
        .set("exact_fault_recoveries", sys.stats.exact_fault_recoveries)
        .set("inexact_fault_recoveries", sys.stats.inexact_fault_recoveries)
        .set("watchdog_trips", sys.stats.watchdog_trips);
    m.set("system", sm);

    if let Some(vm) = sys.vm.as_ref() {
        let mut v = Metrics::new();
        v.set("bbt_blocks", vm.stats.bbt_blocks)
            .set("bbt_x86_insts", vm.stats.bbt_x86_insts)
            .set("bbt_retranslated_insts", vm.stats.bbt_retranslated_insts)
            .set("sbt_superblocks", vm.stats.sbt_superblocks)
            .set("sbt_x86_insts", vm.stats.sbt_x86_insts)
            .set("chains_applied", vm.stats.chains_applied)
            .set("bbt_cache_flushes", vm.bbt_cache.stats().flushes)
            .set(
                "bbt_cache_evicted_translations",
                vm.bbt_cache.stats().evicted_translations,
            )
            .set("sbt_cache_flushes", vm.sbt_cache.stats().flushes)
            .set(
                "sbt_cache_evicted_translations",
                vm.sbt_cache.stats().evicted_translations,
            )
            .set("bbt_table_entries", vm.bbt_table.len())
            .set("bbt_table_stale_evictions", vm.bbt_table.stale_evictions())
            .set("sbt_table_entries", vm.sbt_table.len())
            .set("sbt_table_stale_evictions", vm.sbt_table.stale_evictions());
        m.set("vm", v);
    }

    if let Some(rec) = sys.recorder() {
        let mut t = Metrics::new();
        t.set(
            "bbt_latency",
            rec.latency_histogram(TransKind::Bbt).summary_metrics(),
        )
        .set(
            "sbt_latency",
            rec.latency_histogram(TransKind::Sbt).summary_metrics(),
        )
        .set(
            "bbt_block_insts",
            rec.block_size_histogram(TransKind::Bbt).summary_metrics(),
        )
        .set(
            "sbt_block_insts",
            rec.block_size_histogram(TransKind::Sbt).summary_metrics(),
        )
        .set("chains_per_episode", rec.chain_histogram().summary_metrics());
        m.set("translation_latency", t);
    }

    if let Some(t) = sys.trace() {
        let mut tr = Metrics::new();
        tr.set("recorded", t.recorded()).set("dropped", t.dropped());
        let mut kinds = Metrics::new();
        for (k, c) in t.kind_counts() {
            kinds.set(k, c);
        }
        tr.set("kind_counts", kinds);
        m.set("trace", tr);
    }
    m
}

/// Writes the bench's machine-readable metrics: a top-level document
/// with the bench name, scale and one entry per run, saved as
/// `target/figures/<bench>.metrics.json`.
pub fn emit_metrics(bench: &str, scale: f64, runs: Vec<Metrics>) {
    emit_metrics_with(bench, scale, runs, Metrics::new())
}

/// [`emit_metrics`] plus a bench-specific `summary` section (aggregates
/// that don't belong to any single run).
pub fn emit_metrics_with(bench: &str, scale: f64, runs: Vec<Metrics>, summary: Metrics) {
    let mut top = Metrics::new();
    top.set("bench", bench);
    top.set("scale", scale);
    if !summary.is_empty() {
        top.set("summary", summary);
    }
    top.set("runs", runs);
    let path = out_dir().join(format!("{bench}.metrics.json"));
    std::fs::write(&path, top.to_json()).expect("write metrics artifact");
    println!("[metrics] {}", path.display());
}

/// Writes a bench's telemetry artifacts under `target/figures/`, one
/// entry per labelled run:
///
/// * `<bench>.series.json` — per run with a flight recorder, its label
///   and the full windowed + log-spaced time series and histogram
///   summaries ([`FlightRecorder::to_metrics`]); the log series
///   reproduces the startup IPC curve the figure harnesses plot and ends
///   at the run's cycle and retired-instruction totals;
/// * `<bench>.trace.json` — a single Chrome `trace_event` document
///   (loadable at <https://ui.perfetto.dev>) with one process per run,
///   named by its label: phase duration tracks, instant events from the
///   event trace, and the per-window counter tracks.
pub fn emit_telemetry<'a, L: AsRef<str>>(
    bench: &str,
    runs: impl IntoIterator<Item = (L, &'a Telemetry)>,
) {
    let mut series = Vec::new();
    let mut ct = ChromeTrace::new();
    for (i, (label, t)) in runs.into_iter().enumerate() {
        let label = label.as_ref();
        if let Some(rec) = t.recorder.as_deref() {
            let mut run = Metrics::new();
            run.set("label", label).set("series", rec.to_metrics());
            series.push(run);
        }
        render_chrome(&mut ct, i as u32 + 1, label, 0.0, t);
    }
    let mut top = Metrics::new();
    top.set("bench", bench);
    top.set("runs", series);
    let path = out_dir().join(format!("{bench}.series.json"));
    std::fs::write(&path, top.to_json()).expect("write series artifact");
    println!("[series] {}", path.display());
    let path = out_dir().join(format!("{bench}.trace.json"));
    std::fs::write(&path, ct.to_json()).expect("write trace artifact");
    println!(
        "[trace] {} (load in https://ui.perfetto.dev)",
        path.display()
    );
}

/// Modeled cycle count at the end of the first recorder window whose IPC
/// reaches 90% of the run's final aggregate IPC — where the startup
/// transient ends.
pub fn time_to_steady(rec: &FlightRecorder) -> u64 {
    let ws = rec.windows();
    let total_insts: u64 = ws.iter().map(|w| w.dinsts).sum();
    let total_cycles: f64 = ws.iter().map(|w| w.dcycles.to_f64()).sum();
    let final_ipc = total_insts as f64 / total_cycles.max(1.0);
    for w in ws {
        if w.dcycles.raw() > 0 && (w.dinsts as f64 / w.dcycles.to_f64()) >= 0.9 * final_ipc {
            return w.end_cycles;
        }
    }
    ws.last().map_or(0, |w| w.end_cycles)
}

/// The cold→warm lanes `startup_snapshot` reports and
/// `BENCH_startup.json` pins: `(lane, machine, index into
/// winstone2004())`, all at [`WARM_LANE_SCALE`].
pub const WARM_LANES: [(&str, MachineKind, usize); 4] = [
    ("bbt_sbt", MachineKind::VmSoft, 0),
    ("bbt_sbt_big_footprint", MachineKind::VmSoft, 3),
    ("interp_sbt", MachineKind::VmInterp, 0),
    ("vm_be", MachineKind::VmBe, 3),
];

/// Workload scale of [`WARM_LANES`], fixed (independent of
/// `CDVM_SCALE`) so the pinned numbers stay comparable.
pub const WARM_LANE_SCALE: f64 = 0.02;

/// One app on one machine, run cold and then warm from the cold run's
/// image (see [`run_cold_warm`]).
#[derive(Debug)]
pub struct ColdWarm {
    /// Modeled cycles of the cold run.
    pub cold_cycles: u64,
    /// Modeled cycles of the warm run.
    pub warm_cycles: u64,
    /// Where the cold run's startup transient ends ([`time_to_steady`]).
    pub cold_steady: u64,
    /// Where the warm run's startup transient ends.
    pub warm_steady: u64,
    /// Size of the warm image.
    pub image_bytes: usize,
    /// Host time to serialize the image.
    pub save_ns: f64,
    /// Host time to restore it.
    pub restore_ns: f64,
}

/// What a warm image buys on second invocation: runs `profile` on
/// `kind` cold to its architected end, saves the translation-state
/// image there, restores it into a fresh system on the same guest
/// image and runs that warm to the end. The warm pool of `cdvm-serve`
/// prepares and stamps its images the same way, so its warm jobs
/// retire in the cycles this reports.
///
/// # Panics
///
/// Panics unless both runs halt, the restore applies every section and
/// the warm run retires as many instructions as the cold one.
pub fn run_cold_warm(kind: MachineKind, profile: &AppProfile, scale: f64) -> ColdWarm {
    let wl = build_app_run(profile, scale, 1.0);
    let name = format!("{} on {kind}", profile.name);
    let recorder_only = TelemetryConfig {
        trace: None,
        recorder: Some(RecorderConfig::default()),
    };
    let steady = |sys: &mut System| {
        time_to_steady(sys.take_telemetry().recorder.as_deref().expect("recorder armed"))
    };

    // Cold leg: first invocation, nothing translated yet.
    let mut cold = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
    cold.set_telemetry(recorder_only);
    assert_eq!(cold.run_to_completion(u64::MAX), Status::Halted, "{name}: cold");
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
    assert_eq!(warm.x86_retired(), cold.x86_retired(), "{name}: architected equality");

    ColdWarm {
        cold_cycles: cold.cycles(),
        warm_cycles: warm.cycles(),
        cold_steady,
        warm_steady: steady(&mut warm),
        image_bytes: image.len(),
        save_ns,
        restore_ns,
    }
}

/// Whether `CDVM_BENCH_CHECK` asks the bench to enforce its regression
/// gate (exit non-zero on failure). A default-off switch read with
/// [`cdvm_core::trace::parse_switch`]: `0` and garbage leave the gate
/// off with a stderr message rather than silently enabling it.
pub fn bench_check_enabled() -> bool {
    cdvm_core::trace::env_switch("CDVM_BENCH_CHECK", false)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Reads the checked-in baseline `file` (e.g. `BENCH_engine.json`) at
/// the repo root; `None` when it does not exist yet. Panics with a byte
/// offset when the file is not JSON.
pub fn read_baseline(file: &str) -> Option<Json> {
    let text = std::fs::read_to_string(repo_root().join(file)).ok()?;
    Some(Parser::parse(&text))
}

/// Writes `baseline` to the repo-root `file` when the
/// `CDVM_BENCH_WRITE_BASELINE` switch is on, and reports whether it did
/// (the bench then skips its gate: it would compare the run to itself).
#[allow(
    clippy::panic,
    reason = "a developer tool: a baseline that cannot be written must stop the run"
)]
pub fn write_baseline(file: &str, baseline: &Metrics) -> bool {
    if !cdvm_core::trace::env_switch("CDVM_BENCH_WRITE_BASELINE", false) {
        return false;
    }
    let path = repo_root().join(file);
    std::fs::write(&path, baseline.to_json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("[baseline] wrote {}", path.display());
    true
}

/// Runs all ten apps × the given machines, in parallel.
///
/// Failures are not silently dropped: the returned [`Matrix`] carries
/// every [`JobFailure`], and the figure harnesses go through
/// [`Matrix::take_results`] so a thinned figure is always announced.
pub fn run_matrix(kinds: &[MachineKind], scale: f64, length_mult: f64) -> Matrix {
    let profiles = winstone2004();
    let mut jobs: Vec<(MachineKind, AppProfile)> = Vec::new();
    for &k in kinds {
        for p in &profiles {
            jobs.push((k, p.clone()));
        }
    }
    run_jobs(jobs, scale, length_mult)
}

/// One job that panicked inside [`run_jobs_with`].
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Machine the job was running.
    pub kind: MachineKind,
    /// Application name.
    pub app: String,
    /// The panic message.
    pub message: String,
}

/// The outcome of a parallel job matrix: completed curve results plus
/// every failure, both in submission order.
#[derive(Debug)]
pub struct Matrix {
    /// Results of the jobs that completed.
    pub results: Vec<CurveResult>,
    /// Jobs that panicked (isolated per job; see [`run_jobs_with`]).
    pub failures: Vec<JobFailure>,
}

impl Matrix {
    /// Returns the completed results, first warning loudly (stderr, one
    /// line per failure) when any job failed — a figure generated from a
    /// thinned matrix must never look complete.
    pub fn take_results(self, context: &str) -> Vec<CurveResult> {
        if !self.failures.is_empty() {
            eprintln!(
                "[{context}] WARNING: {} of {} jobs failed; the figure below is thinned",
                self.failures.len(),
                self.failures.len() + self.results.len()
            );
            for f in &self.failures {
                eprintln!("[{context}] [job_failed] {} on {:?}: {}", f.app, f.kind, f.message);
            }
        }
        self.results
    }

    /// True when every job completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs an explicit job list in parallel (bounded by available cores).
/// A job that panics is isolated and recorded as a [`JobFailure`]; the
/// other jobs still complete.
pub fn run_jobs(jobs: Vec<(MachineKind, AppProfile)>, scale: f64, length_mult: f64) -> Matrix {
    // Build each distinct app image once up front; every machine config
    // then shares it through a copy-on-write memory clone instead of
    // regenerating the same guest program per job.
    let mut images: Vec<Workload> = Vec::new();
    let mut image_of = Vec::with_capacity(jobs.len());
    for (_, p) in &jobs {
        let built = images.iter().position(|wl| wl.name == p.name);
        image_of.push(built.unwrap_or_else(|| {
            images.push(build_app_run(p, scale, length_mult));
            images.len() - 1
        }));
    }
    let (results, failures) = run_jobs_with(jobs, |job, kind, _| {
        run_prebuilt(MachineConfig::preset(kind), &images[image_of[job]])
    });
    Matrix { results, failures }
}

/// Runs each `(machine, app)` job through `runner`, which also gets the
/// job's index in `jobs`, on a bounded worker pool. Each job is
/// isolated with `catch_unwind`: a panic in one job
/// becomes a [`JobFailure`] instead of aborting the whole scope (and the
/// results lock is recovered rather than treated as poisoned), so one
/// bad app/machine pair cannot take down a whole figure run. Successes
/// and failures each come back in submission order.
pub fn run_jobs_with<F>(
    jobs: Vec<(MachineKind, AppProfile)>,
    runner: F,
) -> (Vec<CurveResult>, Vec<JobFailure>)
where
    F: Fn(usize, MachineKind, &AppProfile) -> CurveResult + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let jobs: Vec<(usize, (MachineKind, AppProfile))> = jobs.into_iter().enumerate().collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    let failures = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((i, (kind, profile))) = jobs.get(k) else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| runner(*i, *kind, profile))) {
                    Ok(r) => {
                        // A lock poisoned by a panic elsewhere still
                        // guards coherent data (pushes are atomic from
                        // the Vec's point of view): recover it.
                        results
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((*i, r));
                    }
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        failures.lock().unwrap_or_else(|e| e.into_inner()).push((
                            *i,
                            JobFailure {
                                kind: *kind,
                                app: profile.name.to_string(),
                                message,
                            },
                        ));
                    }
                }
            });
        }
    });
    let mut v = results.into_inner().unwrap_or_else(|e| e.into_inner());
    v.sort_by_key(|(i, _)| *i);
    let mut f = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    f.sort_by_key(|(i, _)| *i);
    (
        v.into_iter().map(|(_, r)| r).collect(),
        f.into_iter().map(|(_, r)| r).collect(),
    )
}

/// Renders a log-x ASCII plot of one or more named series.
pub fn ascii_plot(title: &str, series: &[(&str, &[(u64, f64)])], y_max: f64) -> String {
    const W: usize = 78;
    const H: usize = 20;
    let min_x = series
        .iter()
        .filter_map(|(_, s)| s.first().map(|p| p.0))
        .min()
        .unwrap_or(1) as f64;
    let max_x = series
        .iter()
        .filter_map(|(_, s)| s.last().map(|p| p.0))
        .max()
        .unwrap_or(10) as f64;
    let lx = |x: f64| {
        (((x.ln() - min_x.ln()) / (max_x.ln() - min_x.ln()).max(1e-9)) * (W - 1) as f64) as usize
    };
    let mut grid = vec![vec![' '; W]; H];
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    for (si, (_, pts)) in series.iter().enumerate() {
        for &(x, y) in *pts {
            let col = lx(x as f64).min(W - 1);
            let row = ((1.0 - (y / y_max).clamp(0.0, 1.0)) * (H - 1) as f64) as usize;
            grid[row][col] = glyphs[si % glyphs.len()];
        }
    }
    let mut out = format!("{title}\n");
    out.push_str(&format!("{y_max:>6.2} |"));
    out.push_str(&grid[0].iter().collect::<String>());
    out.push('\n');
    for row in grid.iter().take(H - 1).skip(1) {
        out.push_str("       |");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>6.2} +", 0.0));
    out.push_str(&"-".repeat(W));
    out.push('\n');
    out.push_str(&format!(
        "        {:<10}{:^58}{:>10}\n",
        format_cycles(min_x as u64),
        "time: cycles (log scale)",
        format_cycles(max_x as u64)
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("        {} {name}\n", glyphs[si % glyphs.len()]));
    }
    out
}

/// Human-readable cycle count (1.0K/3.2M/…).
pub fn format_cycles(c: u64) -> String {
    match c {
        0..=9_999 => format!("{c}"),
        10_000..=9_999_999 => format!("{:.1}K", c as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}M", c as f64 / 1e6),
        _ => format!("{:.2}G", c as f64 / 1e9),
    }
}

/// Output directory for CSV artifacts (`target/figures`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes a CSV artifact and reports the path.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, contents).expect("write figure artifact");
    println!("[artifact] {}", path.display());
}

/// Standard header every figure harness prints.
pub fn banner(fig: &str, what: &str, scale: f64) {
    println!("================================================================");
    println!("{fig}: {what}");
    println!(
        "scale: CDVM_SCALE={scale} (reference trace = {}M x86 instructions)",
        (100.0 * scale).round()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_check_parsing_rejects_zero_and_garbage() {
        let parse_bench_check =
            |raw| cdvm_core::trace::parse_switch("CDVM_BENCH_CHECK", raw, false);
        assert!(!parse_bench_check(None));
        for off in ["", "  ", "off", "false", "no", "0", "2", "yep", " 0 "] {
            assert!(!parse_bench_check(Some(off)), "{off:?} must not enable the gate");
        }
        for on in ["1", "on", "true", "yes", " on "] {
            assert!(parse_bench_check(Some(on)), "{on:?} must enable the gate");
        }
    }

    /// The gated numbers of every checked-in baseline read back through
    /// the shared reader (the benches themselves only run under
    /// `cargo bench`).
    #[test]
    fn checked_in_baselines_read_through_the_shared_reader() {
        for (file, key) in [
            ("BENCH_engine.json", "ns_per_inst_aggregate"),
            ("BENCH_startup.json", "warm_cycles_aggregate"),
            ("BENCH_figures.json", "fig2_vmsoft_steady_normalized_ipc"),
        ] {
            let doc = read_baseline(file).unwrap_or_else(|| panic!("{file} missing"));
            let v = doc.get(key).and_then(Json::as_num);
            assert!(v.is_some_and(|v| v > 0.0), "{file} {key}: {v:?}");
        }
        assert_eq!(read_baseline("BENCH_nonexistent.json"), None);
    }

    /// The acceptance round-trip: a real run's emitted Chrome trace
    /// parses, every logical track has monotonically non-decreasing
    /// timestamps, and the per-window phase counter track sums back to
    /// `SystemStats::phase_cycles`.
    #[test]
    fn chrome_trace_round_trips_and_counters_match_phase_cycles() {
        let profiles = winstone2004();
        let r = run_curve(
            MachineConfig::preset(MachineKind::VmSoft),
            &profiles[0],
            0.01,
            1.0,
        );
        let rec = r
            .telemetry
            .recorder
            .as_deref()
            .expect("bench runs always record");
        let mut ct = ChromeTrace::new();
        render_chrome(&mut ct, 1, "round-trip", 0.0, &r.telemetry);
        let doc = Parser::parse(&ct.to_json());
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("envelope");
        assert!(!events.is_empty());

        // Track key: (pid, tid) for duration/instant events, (pid, name)
        // for counter series. Timestamps must never go backwards within a
        // track in emission order.
        let mut last_ts: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        let mut counter_tracks: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut phase_sums: HashMap<String, f64> = HashMap::new();
        let mut saw_complete = false;
        let mut saw_instant = false;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            let pid = ev.get("pid").and_then(Json::as_num).expect("pid");
            let name = ev.get("name").and_then(Json::as_str).expect("name").to_string();
            if ph == "M" {
                continue;
            }
            let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
            assert!(ts >= 0.0 && ts.is_finite(), "bad ts {ts}");
            let key = match ph {
                "C" => {
                    counter_tracks.insert(name.clone());
                    format!("{pid}/C/{name}")
                }
                "X" | "i" => {
                    if ph == "X" {
                        saw_complete = true;
                        assert!(ev.get("dur").and_then(Json::as_num).expect("dur") >= 0.0);
                    } else {
                        saw_instant = true;
                    }
                    format!("{pid}/{}", ev.get("tid").and_then(Json::as_num).expect("tid"))
                }
                other => panic!("unexpected event type {other:?}"),
            };
            let prev = last_ts.insert(key.clone(), ts);
            if let Some(p) = prev {
                assert!(ts >= p, "track {key}: ts went backwards ({p} -> {ts})");
            }
            if ph == "C" && name == "phase_cycles/window" {
                if let Some(Json::Obj(args)) = ev.get("args") {
                    for (phase, v) in args {
                        *phase_sums.entry(phase.clone()).or_insert(0.0) +=
                            v.as_num().expect("counter value");
                    }
                }
            }
        }
        assert!(saw_complete, "phase duration events present");
        // Instant events appear exactly when the trace holds one of the
        // rendered kinds (frequent kinds like block_translated are
        // deliberately left off the Perfetto timeline).
        const INSTANT_KINDS: [&str; 5] = [
            "demoted",
            "cache_flush",
            "watchdog_trip",
            "fault_recovered",
            "unchained",
        ];
        let expect_instants = r.telemetry.trace.as_ref().is_some_and(|t| {
            t.kind_counts()
                .iter()
                .any(|(k, n)| INSTANT_KINDS.contains(k) && *n > 0)
        });
        assert_eq!(saw_instant, expect_instants);
        assert!(
            counter_tracks.len() >= 4,
            "at least 4 counter tracks, got {counter_tracks:?}"
        );

        // Phase counter sums reproduce the run's phase accounting
        // exactly: each window delta is an exact Q44.20 value whose f64
        // image is exact (raw < 2^53), and the rendered counter values
        // sum in f64 without rounding at these run lengths.
        for p in Phase::ALL {
            let want = r.phase_cycles[p as usize].to_f64();
            let got = phase_sums.get(p.name()).copied().unwrap_or(0.0);
            assert_eq!(
                got,
                want,
                "phase {}: counter sum {got} vs phase_cycles {want}",
                p.name()
            );
        }

        // The series document round-trips too, and its log series ends at
        // the run's retired-instruction total.
        let mut top = Metrics::new();
        top.set("series", rec.to_metrics());
        let doc = Parser::parse(&top.to_json());
        let log = doc.get("series").unwrap().get("log").expect("log series");
        let retired = log.get("x86_retired").and_then(Json::as_arr).unwrap();
        assert_eq!(
            retired.last().and_then(Json::as_num),
            Some(r.x86_retired as f64)
        );
    }

    use std::collections::HashMap;

    /// Requires the checked-in `file` at the repo root to equal `got`'s
    /// JSON byte for byte, listing the lines that differ; under
    /// `CDVM_GOLDEN_REGEN` it rewrites the file instead, as the golden
    /// fixture is rewritten.
    pub(crate) fn assert_pinned(file: &str, got: &Metrics) {
        let got = got.to_json();
        let path = repo_root().join(file);
        if cdvm_core::trace::env_switch("CDVM_GOLDEN_REGEN", false) {
            std::fs::write(&path, got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path).unwrap();
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("pinned {} | ran {}", w.trim(), g.trim()))
            .collect();
        assert!(
            want == got,
            "{file} differs from this run:\n{}",
            diff.join("\n")
        );
    }

    /// Modeled cycles are deterministic, so the warm-restore lanes are
    /// pinned exactly: `BENCH_startup.json` must equal this run's
    /// document key for key. A warm path that silently degrades (sections
    /// dropped, caches not rebuilt) re-translates and moves the warm
    /// cycles. Rewrite the file, as the golden fixture is rewritten, with
    /// `CDVM_GOLDEN_REGEN=1 cargo test -p cdvm-bench --lib warm_lanes`.
    #[test]
    fn warm_lanes_match_bench_startup_exactly() {
        let mut pins = Metrics::new();
        pins.set("bench", "startup_snapshot").set("scale", WARM_LANE_SCALE);
        let (mut cold, mut warm) = (0, 0);
        for (name, kind, idx) in WARM_LANES {
            let r = run_cold_warm(kind, &winstone2004()[idx], WARM_LANE_SCALE);
            pins.set(&format!("{name}_warm_cycles"), r.warm_cycles)
                .set(&format!("{name}_image_bytes"), r.image_bytes);
            cold += r.cold_cycles;
            warm += r.warm_cycles;
        }
        pins.set("cold_cycles_aggregate", cold)
            .set("warm_cycles_aggregate", warm);
        assert_pinned("BENCH_startup.json", &pins);
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let profiles = winstone2004();
        let jobs = vec![
            (MachineKind::RefSuperscalar, profiles[0].clone()),
            (MachineKind::VmSoft, profiles[0].clone()),
            (MachineKind::RefSuperscalar, profiles[1].clone()),
        ];
        // Silence the default panic hook for the injected panic so test
        // output stays readable; restore it afterwards.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (ok, failed) = run_jobs_with(jobs, |_, kind, profile| {
            if kind == MachineKind::VmSoft {
                panic!("injected failure for {}", profile.name);
            }
            run_curve(MachineConfig::preset(kind), profile, 0.01, 1.0)
        });
        std::panic::set_hook(hook);
        assert_eq!(ok.len(), 2, "surviving jobs complete");
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].kind, MachineKind::VmSoft);
        assert!(failed[0].message.contains("injected failure"), "{}", failed[0].message);
    }

    #[test]
    fn phase_cycles_sum_to_total_and_reach_metrics() {
        let profiles = winstone2004();
        let r = run_curve(
            MachineConfig::preset(MachineKind::VmSoft),
            &profiles[0],
            0.01,
            1.0,
        );
        let sum: Cycles = r.phase_cycles.iter().copied().sum();
        // The phase totals telescope exactly over the fixed-point clock,
        // so their whole-cycle part must equal the reported cycle count
        // bit for bit — no tolerance.
        assert_eq!(
            sum.int_part(),
            r.cycles,
            "phase sum {sum} vs total {}",
            r.cycles
        );
        assert!(r.metrics.get("phase_cycles").is_some());
        assert!(r.metrics.get("cycles").is_some());
        // The JSON document is well-formed enough to contain every phase.
        let json = r.metrics.to_json();
        for p in Phase::ALL {
            assert!(json.contains(p.name()), "missing phase {}", p.name());
        }
    }
}
