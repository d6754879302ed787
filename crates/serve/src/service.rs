//! The fleet simulation service: admission control, work-stealing
//! execution, deadlines, retries with backoff, worker supervision, and
//! graceful drain.
//!
//! # Lifecycle invariants
//!
//! * **No job lost**: every admitted job reaches a terminal state, even
//!   across worker deaths (the supervisor requeues the orphaned job the
//!   dead worker was running).
//! * **No job duplicated**: terminal transitions go through one guarded
//!   function; a second terminal transition is refused and counted in
//!   `double_terminal` (the chaos campaign asserts it stays zero).
//! * **Bounded queues**: admission control sheds with a structured
//!   [`ServeError::Overloaded`] carrying a load-derived `retry_after_ms`
//!   hint; nothing in the service grows without bound under overload.
//! * **Degradation ladder**: warm stamp → cold boot (breaker open or
//!   restore failed) → shed at admission. Never a wrong answer: a
//!   degraded restore drops translation state, not architected state.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cdvm_core::{fnv1a64, panic_message, render_chrome, Status, Watchdog};
use cdvm_mem::Rng64;
use cdvm_stats::PromKind::{self, Counter, Gauge};
use cdvm_stats::{ChromeTrace, MetricValue, Metrics, PromText};
use cdvm_uarch::MachineKind;
use cdvm_workloads::AppProfile;

use crate::error::{OverloadScope, ServeError};
use crate::job::{JobOutput, JobSpec, JobState, WarmLevel};
use crate::lock;
use crate::pool::{ImageState, PoolConfig, WarmPool};
use crate::scheduler::{Pop, WorkQueues};
use crate::slo::{SloConfig, SloEngine, SloKind, SloState};
use crate::spans::JobSpans;
use crate::telemetry::{TelemetryHub, TenantTelemetry};

/// Guest instructions per execution slice; cancel, kill and wall-clock
/// deadline checks happen at slice boundaries.
const RUN_SLICE: u64 = 50_000;

/// Panic payload a chaos worker kill unwinds with. The job-level
/// `catch_unwind` re-raises it so it reaches the worker supervisor
/// (which requeues the orphaned job) instead of the retry path.
struct WorkerKill;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Workload scale factor (1.0 = the paper's reference scale).
    pub scale: f64,
    /// Served `(machine, app)` catalog.
    pub catalog: Vec<(MachineKind, AppProfile)>,
    /// Warm pool: warm or cold lane, the image circuit breaker, and VM
    /// telemetry capture on stamped instances (which lets
    /// `GET /jobs/<id>/trace` merge an instance's startup telemetry
    /// under the job's service spans).
    pub pool: PoolConfig,
    /// Service-wide bound on admitted-but-not-terminal jobs.
    pub global_queue_cap: usize,
    /// Per-tenant bound on admitted-but-not-terminal jobs.
    pub tenant_queue_cap: usize,
    /// Execution attempts per job before it fails terminally.
    pub max_attempts: u32,
    /// First retry backoff (doubles per attempt, plus jitter).
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// How long a poisoned job signature fails fast before the next
    /// same-signature job is let through as a half-open probe (mirrors
    /// the image circuit breaker; a clean probe un-poisons, a fresh
    /// retry exhaustion re-poisons).
    pub poison_ttl_ms: u64,
    /// Terminal job records kept for late status queries; the oldest
    /// are evicted past this bound (the exactly-once audit counters are
    /// monotonic and unaffected).
    pub terminal_retention: usize,
    /// Record per-job span trees (`GET /jobs/<id>/spans`). Spans are
    /// bookkeeping on existing job transitions and never touch the
    /// simulator, so arming them is timing-neutral on the modeled
    /// clock; disarming exists for the neutrality check, not for
    /// performance.
    pub spans: bool,
    /// SLO objective registry configuration (windows, burn thresholds,
    /// targets).
    pub slo: SloConfig,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            scale: 0.05,
            catalog: Vec::new(),
            pool: PoolConfig::default(),
            global_queue_cap: 64,
            tenant_queue_cap: 16,
            max_attempts: 3,
            backoff_base_ms: 2,
            backoff_cap_ms: 50,
            poison_ttl_ms: 30_000,
            terminal_retention: 4096,
            spans: true,
            slo: SloConfig::default(),
            seed: 0x5eed_5e12_7e00_0001,
        }
    }
}

/// One admitted job's bookkeeping entry. Terminal entries are retained
/// for late status queries up to `terminal_retention`, then evicted
/// oldest-first; the exactly-once audit lives in the monotonic
/// [`Counters`], which eviction never touches.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    submitted: Instant,
    /// When the job last became runnable (submission, retry due time, or
    /// orphan requeue) — the successful attempt's queue wait starts here.
    queued_at: Instant,
    cancel: Arc<AtomicBool>,
    /// Service-level span tree, recorded only by the single-writer job
    /// transitions (always under the jobs lock) and evicted with the
    /// record — retention rides `terminal_retention` unchanged.
    spans: JobSpans,
    /// The serving instance's flight-recorder tracks, rendered at
    /// completion when [`ServeConfig::capture`] is armed (the VM half
    /// of `GET /jobs/<id>/trace`).
    vm_trace: Option<ChromeTrace>,
}

/// Monotonic service counters (all exported by [`Service::health`]).
#[derive(Default)]
struct Counters {
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    retries: AtomicU64,
    orphan_requeues: AtomicU64,
    worker_deaths: AtomicU64,
    poisoned: AtomicU64,
    /// Refused second terminal transitions. Must stay zero; a nonzero
    /// value means a lifecycle bug, surfaced as data instead of silent
    /// double accounting.
    double_terminal: AtomicU64,
}

struct Inner {
    cfg: ServeConfig,
    /// Span timestamps count host nanoseconds from here (the moment the
    /// service started) so every job's spans share one timeline.
    epoch: Instant,
    pool: WarmPool,
    queues: WorkQueues,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Terminal job ids, oldest first — the eviction queue bounding the
    /// job table. Locked only while already holding `jobs`.
    terminal_order: Mutex<VecDeque<u64>>,
    /// Notified on every terminal transition (wait/drain block on it).
    done_cv: Condvar,
    next_id: AtomicU64,
    /// Admitted-but-not-terminal jobs per tenant.
    tenant_depth: Mutex<HashMap<String, usize>>,
    /// Admitted-but-not-terminal jobs service-wide.
    inflight: AtomicUsize,
    draining: AtomicBool,
    /// Set once `drain` has fully completed: every in-flight job is
    /// terminal, the workers are joined, and image persistence (if
    /// requested) has run. `is_drained` is the safe exit signal;
    /// `draining` only means admission has stopped.
    drained: AtomicBool,
    shutdown: AtomicBool,
    /// Chaos: worker `w` unwinds at its next check when set.
    kill_flags: Vec<AtomicBool>,
    /// Job currently executing on worker `w` (the orphan registry).
    running: Vec<Mutex<Option<u64>>>,
    telemetry: Mutex<TelemetryHub>,
    /// Job signatures that exhausted retries, with the time they were
    /// poisoned; same-signature jobs fail fast so a deterministic
    /// crasher cannot retry-storm the fleet. After `poison_ttl_ms` the
    /// next same-signature job runs as a half-open probe (the entry is
    /// dropped; a fresh exhaustion re-poisons it).
    poison: Mutex<HashMap<String, Instant>>,
    rng: Mutex<Rng64>,
    /// EWMA of successful run time (ns) — feeds `retry_after_ms`.
    run_ns_ewma: AtomicU64,
    /// The SLO objective registry. Locked only while already holding
    /// `jobs` (terminal transitions) or from lock-free paths (sheds,
    /// stamps, status queries).
    slo: Mutex<SloEngine>,
    counters: Counters,
}

/// Host nanoseconds from the service epoch to `t` (span timestamps).
fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// One number exported by both `/healthz` and `/metrics`, read from a
/// source `S`: the service, one pool image or one SLO objective.
/// [`Service::health`] and [`Service::prometheus`] both render from
/// these declarations, so the two views cannot drift apart.
struct Stat<S> {
    /// The `/healthz` key.
    key: &'static str,
    /// The `/metrics` family and its HELP text.
    family: &'static str,
    help: &'static str,
    kind: PromKind,
    /// Labels that follow the source's own (`machine`/`app`,
    /// `objective`) and tell the family's members apart.
    labels: &'static [(&'static str, &'static str)],
    read: fn(&S) -> MetricValue,
}

/// The service-wide numbers, in `/healthz` order.
#[rustfmt::skip]
const SERVICE_STATS: &[Stat<Inner>] = &[
    Stat { key: "draining", family: "cdvm_draining", help: "1 once drain began.", kind: Gauge,
           labels: &[], read: |s| s.draining.load(Ordering::SeqCst).into() },
    Stat { key: "inflight", family: "cdvm_inflight", help: "Admitted-but-not-terminal jobs.",
           kind: Gauge, labels: &[], read: |s| s.inflight.load(Ordering::SeqCst).into() },
    Stat { key: "queued", family: "cdvm_queued", help: "Jobs waiting in worker deques.", kind: Gauge,
           labels: &[], read: |s| s.queues.depths().iter().sum::<usize>().into() },
    Stat { key: "delayed", family: "cdvm_delayed", help: "Jobs waiting out a retry backoff.",
           kind: Gauge, labels: &[], read: |s| s.queues.delayed_len().into() },
    Stat { key: "completed", family: "cdvm_jobs_total", help: "Jobs by terminal outcome.", kind: Counter,
           labels: &[("outcome", "completed")], read: |s| s.counters.completed.load(Ordering::Relaxed).into() },
    Stat { key: "failed", family: "cdvm_jobs_total", help: "Jobs by terminal outcome.", kind: Counter,
           labels: &[("outcome", "failed")], read: |s| s.counters.failed.load(Ordering::Relaxed).into() },
    Stat { key: "expired", family: "cdvm_jobs_total", help: "Jobs by terminal outcome.", kind: Counter,
           labels: &[("outcome", "expired")], read: |s| s.counters.expired.load(Ordering::Relaxed).into() },
    Stat { key: "cancelled", family: "cdvm_jobs_total", help: "Jobs by terminal outcome.", kind: Counter,
           labels: &[("outcome", "cancelled")], read: |s| s.counters.cancelled.load(Ordering::Relaxed).into() },
    Stat { key: "shed", family: "cdvm_sheds_total", help: "Submissions shed by admission control.",
           kind: Counter, labels: &[], read: |s| s.counters.shed.load(Ordering::Relaxed).into() },
    Stat { key: "retries", family: "cdvm_retries_total", help: "Retry attempts beyond each job's first.",
           kind: Counter, labels: &[], read: |s| s.counters.retries.load(Ordering::Relaxed).into() },
    Stat { key: "orphan_requeues", family: "cdvm_orphan_requeues_total",
           help: "Jobs requeued after a worker death.", kind: Counter, labels: &[],
           read: |s| s.counters.orphan_requeues.load(Ordering::Relaxed).into() },
    Stat { key: "worker_deaths", family: "cdvm_worker_deaths_total",
           help: "Worker deaths caught by the supervisor.", kind: Counter, labels: &[],
           read: |s| s.counters.worker_deaths.load(Ordering::Relaxed).into() },
    Stat { key: "poisoned", family: "cdvm_poisoned_total",
           help: "Job signatures poisoned after retry exhaustion.", kind: Counter, labels: &[],
           read: |s| s.counters.poisoned.load(Ordering::Relaxed).into() },
    Stat { key: "poison_entries", family: "cdvm_poison_entries", help: "Currently poisoned job signatures.",
           kind: Gauge, labels: &[], read: |s| lock(&s.poison).len().into() },
    Stat { key: "double_terminal", family: "cdvm_double_terminal_total",
           help: "Refused second terminal transitions (must stay 0).", kind: Counter, labels: &[],
           read: |s| s.counters.double_terminal.load(Ordering::Relaxed).into() },
    Stat { key: "steals", family: "cdvm_steals_total", help: "Jobs stolen from a sibling worker's deque.",
           kind: Counter, labels: &[], read: |s| s.queues.steals().into() },
    Stat { key: "trace_dropped", family: "cdvm_trace_dropped_total",
           help: "Trace-buffer records dropped across completed runs.", kind: Counter, labels: &[],
           read: |s| lock(&s.telemetry).trace_dropped.into() },
    Stat { key: "uncrackable_insts", family: "cdvm_uncrackable_insts_total",
           help: "Guest instructions the cracker could not decode.", kind: Counter, labels: &[],
           read: |s| lock(&s.telemetry).uncrackable_insts.into() },
];

/// The per-image pool numbers, labelled `machine`/`app` on `/metrics`.
#[rustfmt::skip]
const POOL_STATS: &[Stat<ImageState>] = &[
    Stat { key: "restores_clean", family: "cdvm_pool_restores_total", help: "Warm-image restores by outcome.",
           kind: Counter, labels: &[("kind", "clean")], read: |i| i.health.restores_clean.into() },
    Stat { key: "restores_degraded", family: "cdvm_pool_restores_total", help: "Warm-image restores by outcome.",
           kind: Counter, labels: &[("kind", "degraded")], read: |i| i.health.restores_degraded.into() },
    Stat { key: "restores_failed", family: "cdvm_pool_restores_total", help: "Warm-image restores by outcome.",
           kind: Counter, labels: &[("kind", "failed")], read: |i| i.health.restores_failed.into() },
    Stat { key: "cold_stamps", family: "cdvm_pool_cold_stamps_total", help: "Stamps that never attempted a restore.",
           kind: Counter, labels: &[], read: |i| i.health.cold_stamps.into() },
    Stat { key: "quarantined", family: "cdvm_pool_quarantined", help: "1 while the image's circuit breaker is open.",
           kind: Gauge, labels: &[], read: |i| i.health.quarantined.into() },
    Stat { key: "quarantines", family: "cdvm_pool_quarantines_total", help: "Times an image's breaker opened.",
           kind: Counter, labels: &[], read: |i| i.health.quarantines.into() },
    Stat { key: "probes", family: "cdvm_pool_probes_total", help: "Half-open breaker probe restores.",
           kind: Counter, labels: &[], read: |i| i.health.probes.into() },
];

/// The per-objective SLO numbers, labelled `objective` on `/metrics`.
#[rustfmt::skip]
const SLO_STATS: &[Stat<SloState>] = &[
    Stat { key: "fast_burn", family: "cdvm_slo_burn_rate",
           help: "SLO burn rate (error-budget consumption multiple) per window.", kind: Gauge,
           labels: &[("window", "fast")], read: |o| o.fast_burn.into() },
    Stat { key: "slow_burn", family: "cdvm_slo_burn_rate",
           help: "SLO burn rate (error-budget consumption multiple) per window.", kind: Gauge,
           labels: &[("window", "slow")], read: |o| o.slow_burn.into() },
    Stat { key: "firing", family: "cdvm_slo_firing", help: "1 while the objective's multi-window alert is firing.",
           kind: Gauge, labels: &[], read: |o| o.firing.into() },
    Stat { key: "fired", family: "cdvm_slo_alerts_total", help: "Clear-to-firing alert transitions per objective.",
           kind: Counter, labels: &[], read: |o| o.fired.into() },
];

/// Sets every declared number of `src` on the `/healthz` document `m`.
fn set_stats<S>(m: &mut Metrics, stats: &[Stat<S>], src: &S) {
    for st in stats {
        m.set(st.key, (st.read)(src));
    }
}

/// Writes every declared number of every source to `/metrics`, family
/// by family so each family's samples stay contiguous (the format
/// requires it). `labels` names one source among its siblings.
fn prom_stats<S>(
    p: &mut PromText,
    stats: &[Stat<S>],
    srcs: &[S],
    labels: impl Fn(&S) -> Vec<(&'static str, String)>,
) {
    let own: Vec<_> = srcs.iter().map(labels).collect();
    for st in stats {
        for (src, own) in srcs.iter().zip(&own) {
            let mut all: Vec<(&str, &str)> = own.iter().map(|(k, v)| (*k, v.as_str())).collect();
            all.extend_from_slice(st.labels);
            let v = (st.read)(src).as_f64().unwrap_or(f64::NAN);
            match st.kind {
                Counter => p.counter(st.family, st.help, &all, v),
                _ => p.gauge(st.family, st.help, &all, v),
            }
        }
    }
}

/// The long-running fleet simulation service.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Prepares the warm pool for the configured catalog and starts the
    /// worker fleet.
    pub fn start(cfg: ServeConfig) -> Service {
        let pool = WarmPool::prepare(&cfg.catalog, cfg.scale, cfg.pool.clone());
        let workers = cfg.workers.max(1);
        let seed = cfg.seed;
        let slo = SloEngine::new(cfg.slo.clone());
        let inner = Arc::new(Inner {
            epoch: Instant::now(),
            pool,
            queues: WorkQueues::new(workers),
            jobs: Mutex::new(HashMap::new()),
            terminal_order: Mutex::new(VecDeque::new()),
            done_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            tenant_depth: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            kill_flags: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            running: (0..workers).map(|_| Mutex::new(None)).collect(),
            telemetry: Mutex::new(TelemetryHub::default()),
            poison: Mutex::new(HashMap::new()),
            rng: Mutex::new(Rng64::new(seed)),
            run_ns_ewma: AtomicU64::new(0),
            slo: Mutex::new(slo),
            counters: Counters::default(),
            cfg,
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cdvm-serve-{w}"))
                    .spawn(move || supervisor(&inner, w))
                    .expect("spawn worker thread")
            })
            .collect();
        Service {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Submits a job. Admission control may reject it with a structured
    /// error; an accepted job is guaranteed exactly one terminal state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] after drain began, [`ServeError::UnknownApp`]
    /// for a pair outside the catalog, [`ServeError::Overloaded`] when a
    /// queue bound sheds the job.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        if !inner.pool.contains(spec.machine, &spec.app) {
            return Err(ServeError::UnknownApp {
                app: format!("{}/{}", spec.machine, spec.app),
            });
        }
        // Reserve the global slot atomically (fetch_add with rollback):
        // a load-compare-increment would let concurrent submits race
        // past the cap.
        if inner.inflight.fetch_add(1, Ordering::SeqCst) >= inner.cfg.global_queue_cap {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            self.note_shed(&spec.tenant);
            return Err(ServeError::Overloaded {
                scope: OverloadScope::Global,
                retry_after_ms: self.retry_after_ms(),
            });
        }
        {
            let mut depth = lock(&inner.tenant_depth);
            let d = depth.entry(spec.tenant.clone()).or_insert(0);
            if *d >= inner.cfg.tenant_queue_cap {
                if *d == 0 {
                    // A zero-cap shed must not leave an empty entry
                    // behind (the table only tracks admitted tenants).
                    depth.remove(&spec.tenant);
                }
                drop(depth);
                inner.inflight.fetch_sub(1, Ordering::SeqCst);
                self.note_shed(&spec.tenant);
                return Err(ServeError::Overloaded {
                    scope: OverloadScope::Tenant,
                    retry_after_ms: self.retry_after_ms(),
                });
            }
            *d += 1;
        }
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        let tenant = spec.tenant.clone();
        let mut spans = JobSpans::default();
        if inner.cfg.spans {
            // The admission span is an instantaneous marker carrying the
            // load the admission decision saw; `queued` opens here and
            // closes when a worker picks the job up.
            let t = ns_since(inner.epoch, now);
            let mut attrs = Metrics::new();
            attrs
                .set("inflight", inner.inflight.load(Ordering::SeqCst) as u64)
                .set(
                    "queue_depth",
                    inner.queues.depths().iter().sum::<usize>() as u64,
                )
                .set("delayed", inner.queues.delayed_len() as u64);
            spans.push_closed("admission", t, t, attrs);
            let mut q = Metrics::new();
            q.set("attempt", 1u64);
            spans.open("queued", t, q);
        }
        lock(&inner.jobs).insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                attempts: 0,
                submitted: now,
                queued_at: now,
                cancel: Arc::new(AtomicBool::new(false)),
                spans,
                vm_trace: None,
            },
        );
        lock(&inner.telemetry).tenant_mut(&tenant).submitted += 1;
        inner.queues.push(None, id);
        Ok(id)
    }

    fn note_shed(&self, tenant: &str) {
        self.inner.counters.shed.fetch_add(1, Ordering::Relaxed);
        lock(&self.inner.telemetry).tenant_mut(tenant).shed += 1;
        // A shed is an admission that ended badly for the client.
        lock(&self.inner.slo).record(SloKind::ErrorRate, false);
    }

    /// The current client backoff hint: roughly how long the backlog
    /// takes to drain at the observed per-job run time.
    fn retry_after_ms(&self) -> u64 {
        let ewma_ns = self.inner.run_ns_ewma.load(Ordering::Relaxed).max(1_000_000);
        let backlog = self.inner.inflight.load(Ordering::SeqCst) as u64;
        let workers = self.inner.queues.workers() as u64;
        (ewma_ns.saturating_mul(backlog / workers + 1) / 1_000_000).clamp(1, 10_000)
    }

    /// The current state of a job, if it exists.
    pub fn status(&self, id: u64) -> Option<JobState> {
        lock(&self.inner.jobs).get(&id).map(|r| r.state.clone())
    }

    /// Blocks until the job reaches a terminal state (or the timeout
    /// elapses, returning the non-terminal state seen last).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] when no job has this id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobState, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut jobs = lock(&self.inner.jobs);
        loop {
            let Some(rec) = jobs.get(&id) else {
                return Err(ServeError::UnknownJob { id });
            };
            if rec.state.is_terminal() {
                return Ok(rec.state.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(rec.state.clone());
            }
            let (g, _) = self
                .inner
                .done_cv
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            jobs = g;
        }
    }

    /// Requests cancellation. The flag is honored by the executor: a
    /// queued or delayed job goes terminal when next popped, a running
    /// job stops at its next slice boundary. (Terminal transitions stay
    /// single-writer — only the executor performs them — so cancellation
    /// can never race a concurrent completion into a double terminal.)
    /// Returns false when the job is unknown or already terminal.
    pub fn cancel(&self, id: u64) -> bool {
        let jobs = lock(&self.inner.jobs);
        match jobs.get(&id) {
            None => false,
            Some(r) if r.state.is_terminal() => false,
            Some(r) => {
                r.cancel.store(true, Ordering::SeqCst);
                true
            }
        }
    }

    /// Per-tenant telemetry snapshot.
    pub fn tenant_metrics(&self, tenant: &str) -> Option<Metrics> {
        lock(&self.inner.telemetry)
            .tenant(tenant)
            .map(TenantTelemetry::to_metrics)
    }

    /// Per-job completion summaries for `tenant` newer than `after`,
    /// plus the newest sequence number (pass it back to resume).
    pub fn tenant_events(&self, tenant: &str, after: u64) -> (Vec<Metrics>, u64) {
        lock(&self.inner.telemetry).events_since(tenant, after)
    }

    /// Service-wide health: lifecycle counters, queue depths, breaker
    /// and pool state, tenants, SLO states.
    pub fn health(&self) -> Metrics {
        let inner = &*self.inner;
        let mut m = Metrics::new();
        set_stats(&mut m, SERVICE_STATS, inner);
        m.set("drained", inner.drained.load(Ordering::SeqCst))
            .set("workers", inner.queues.workers())
            .set("run_ns_ewma", inner.run_ns_ewma.load(Ordering::Relaxed))
            .set("tenants", lock(&inner.telemetry).tenant_names());
        let mut pool = Metrics::new();
        for img in inner.pool.states() {
            let mut e = Metrics::new();
            e.set("machine", img.kind.to_string())
                .set("app", img.app)
                .set("image_bytes", img.image_bytes);
            set_stats(&mut e, POOL_STATS, &img);
            e.set("consecutive_bad", u64::from(img.health.consecutive_bad));
            pool.set(&format!("{:?}/{}", img.kind, img.app), e);
        }
        let slo: Vec<Metrics> = lock(&inner.slo)
            .states()
            .iter()
            .map(|o| {
                let mut e = Metrics::new();
                e.set("objective", o.kind.name()).set("target", o.target);
                set_stats(&mut e, SLO_STATS, o);
                e.set("good", o.good).set("bad", o.bad);
                e
            })
            .collect();
        m.set("pool", pool).set("slo", slo);
        m
    }

    /// Current state of every SLO objective (re-evaluating alert edges,
    /// so a quiet period clears stale alerts).
    pub fn slo(&self) -> Vec<SloState> {
        lock(&self.inner.slo).states()
    }

    /// A job's recorded span tree, rendered as a metrics document —
    /// `None` for an unknown (or evicted) job id.
    pub fn job_spans(&self, id: u64) -> Option<Metrics> {
        let jobs = lock(&self.inner.jobs);
        let rec = jobs.get(&id)?;
        let mut m = rec.spans.to_metrics();
        m.set("job", id)
            .set("tenant", rec.spec.tenant.as_str())
            .set("state", rec.state.name());
        Some(m)
    }

    /// The job's merged Perfetto (Chrome trace event) document: service
    /// spans on pid 1, the serving instance's flight-recorder tracks on
    /// pid 2 when [`ServeConfig::capture`] was armed. `None` for an
    /// unknown job id.
    pub fn job_trace(&self, id: u64) -> Option<String> {
        let jobs = lock(&self.inner.jobs);
        let rec = jobs.get(&id)?;
        let mut ct = ChromeTrace::new();
        rec.spans
            .render_chrome(&mut ct, 1, &format!("cdvm-serve job {id} ({})", rec.spec.tenant));
        if let Some(vm) = &rec.vm_trace {
            ct.append(vm);
        }
        Some(ct.to_json())
    }

    /// The Prometheus text exposition (`GET /metrics`): every number
    /// `/healthz` exports (same declarations, same values), plus the
    /// per-worker queue depths and the fleet-wide latency histograms.
    pub fn prometheus(&self) -> String {
        let inner = &*self.inner;
        let mut p = PromText::new();
        prom_stats(&mut p, SERVICE_STATS, std::slice::from_ref(inner), |_| {
            Vec::new()
        });
        for (w, d) in inner.queues.depths().iter().enumerate() {
            p.gauge(
                "cdvm_queue_depth",
                "Queued jobs per worker deque.",
                &[("worker", &w.to_string())],
                *d as f64,
            );
        }
        prom_stats(&mut p, POOL_STATS, &inner.pool.states(), |i| {
            vec![("machine", i.kind.to_string()), ("app", i.app.to_string())]
        });
        {
            let tel = lock(&inner.telemetry);
            p.histogram(
                "cdvm_job_latency_ns",
                "End-to-end job latency (submission to completion), ns.",
                &[],
                &tel.latency_ns,
            );
            p.histogram(
                "cdvm_job_queue_ns",
                "Queue wait of the successful attempt, ns.",
                &[],
                &tel.queue_ns,
            );
            p.histogram(
                "cdvm_job_run_ns",
                "Execution time of the successful attempt, ns.",
                &[],
                &tel.run_ns,
            );
        }
        let states = lock(&inner.slo).states();
        prom_stats(&mut p, SLO_STATS, &states, |o| {
            vec![("objective", o.kind.name().to_string())]
        });
        p.render()
    }

    /// The warm pool (chaos and inspection hooks).
    pub fn pool(&self) -> &WarmPool {
        &self.inner.pool
    }

    /// True once drain began (no new work is admitted).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// True once a [`Service::drain`] call has fully completed: every
    /// in-flight job reached its terminal state, the workers are
    /// joined, and image persistence (when requested) has run. This —
    /// not [`Service::is_draining`], which flips at drain *start* — is
    /// the signal a host process may exit on without abandoning work.
    pub fn is_drained(&self) -> bool {
        self.inner.drained.load(Ordering::SeqCst)
    }

    /// Admin: un-poisons `signature` (`tenant/app/machine`), or every
    /// poisoned signature when `None`. Returns how many entries were
    /// cleared. (Poison also expires on its own after
    /// [`ServeConfig::poison_ttl_ms`]; this is the manual override.)
    pub fn clear_poison(&self, signature: Option<&str>) -> usize {
        let mut poison = lock(&self.inner.poison);
        match signature {
            Some(sig) => usize::from(poison.remove(sig).is_some()),
            None => {
                let n = poison.len();
                poison.clear();
                n
            }
        }
    }

    /// Chaos: kill worker `w` at its next check point (between slices or
    /// before its next job). The supervisor requeues whatever it was
    /// running and revives the worker in place.
    pub fn kill_worker(&self, w: usize) -> bool {
        match self.inner.kill_flags.get(w) {
            Some(f) => {
                f.store(true, Ordering::SeqCst);
                self.inner.queues.notify_all();
                true
            }
            None => false,
        }
    }

    /// Graceful drain: stop admitting, finish every in-flight job, stop
    /// the workers, and (when `persist_dir` is given) save the healthy
    /// warm images crash-safely. Returns the persisted image paths.
    ///
    /// # Errors
    ///
    /// Any I/O error from persisting the pool; the fleet is already
    /// stopped by then.
    pub fn drain(&self, persist_dir: Option<&Path>) -> std::io::Result<Vec<PathBuf>> {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        // Wait for every admitted job to reach its terminal state.
        {
            let mut jobs = lock(&inner.jobs);
            while inner.inflight.load(Ordering::SeqCst) > 0 {
                let (g, _) = inner
                    .done_cv
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                jobs = g;
            }
        }
        inner.shutdown.store(true, Ordering::SeqCst);
        inner.queues.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
        let persisted = match persist_dir {
            Some(dir) => inner.pool.persist(dir),
            None => Ok(Vec::new()),
        };
        // Only now is the drain complete — flipping this earlier would
        // let a host exit while jobs or persistence are still pending.
        inner.drained.store(true, Ordering::SeqCst);
        persisted
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Best-effort stop without persisting; a clean shutdown goes
        // through `drain`.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queues.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker supervisor: runs the worker loop, and when it dies (chaos
/// kill or an escaped panic) requeues the orphaned job and revives the
/// loop in place — a worker death never loses a job.
fn supervisor(inner: &Arc<Inner>, w: usize) {
    loop {
        let died = catch_unwind(AssertUnwindSafe(|| worker_loop(inner, w))).is_err();
        if !died {
            return;
        }
        inner.counters.worker_deaths.fetch_add(1, Ordering::Relaxed);
        inner.kill_flags[w].store(false, Ordering::SeqCst);
        if let Some(id) = lock(&inner.running[w]).take() {
            let tenant = {
                let mut jobs = lock(&inner.jobs);
                match jobs.get_mut(&id) {
                    Some(rec) if !rec.state.is_terminal() => {
                        let now = Instant::now();
                        rec.state = JobState::Queued;
                        rec.queued_at = now;
                        if inner.cfg.spans {
                            let t = ns_since(inner.epoch, now);
                            rec.spans.close_all(t);
                            let mut q = Metrics::new();
                            q.set("attempt", u64::from(rec.attempts) + 1).set("orphan", true);
                            rec.spans.open("queued", t, q);
                        }
                        Some(rec.spec.tenant.clone())
                    }
                    _ => None,
                }
            };
            if let Some(tenant) = tenant {
                lock(&inner.telemetry).tenant_mut(&tenant).orphan_requeues += 1;
                inner.counters.orphan_requeues.fetch_add(1, Ordering::Relaxed);
                inner.queues.push(Some(w), id);
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[allow(
    clippy::panic,
    reason = "a kill flag is the chaos suite's injected worker death"
)]
fn worker_loop(inner: &Arc<Inner>, w: usize) {
    loop {
        if inner.kill_flags[w].swap(false, Ordering::SeqCst) {
            std::panic::panic_any(WorkerKill);
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match inner.queues.pop(w) {
            Pop::Job(id) => execute(inner, w, id),
            Pop::Wait(d, token) => {
                if inner.draining.load(Ordering::SeqCst)
                    && inner.inflight.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                inner.queues.park(token, d);
            }
        }
    }
}

/// What one execution attempt produced.
enum RunResult {
    Done(Box<RunDone>),
    Expired,
    Cancelled,
    /// A simulator-reported failure (fault, broken VMM invariant, or an
    /// unexpected watchdog) — retried like a panic, without unwinding.
    Failed(String),
}

/// The measurements of a successful attempt.
struct RunDone {
    cycles: u64,
    x86_retired: u64,
    arch_fnv: u64,
    warm: WarmLevel,
    run_ns: u64,
    /// Trace-buffer records the capture ring dropped (0 when capture is
    /// off).
    trace_dropped: u64,
    /// Guest instructions the cracker could not decode.
    uncrackable: u64,
    /// The instance's flight-recorder tracks, rendered onto the job's
    /// service timeline (capture armed only).
    vm_trace: Option<ChromeTrace>,
}

/// Runs one admitted job id on worker `w`, driving the retry and
/// terminal-state machinery around [`run_attempt`].
fn execute(inner: &Arc<Inner>, w: usize, id: u64) {
    // The moment the worker picked the job up: the end of its queue
    // wait (`queue_ns`) and the `queued` span's close — one Instant for
    // both, so spans and telemetry agree exactly.
    let start = Instant::now();
    // Snapshot what this attempt needs; skip stale ids (the record went
    // terminal — e.g. cancelled — while the id sat in a queue).
    let (spec, attempts, cancel, submitted, queued_at) = {
        let mut jobs = lock(&inner.jobs);
        let Some(rec) = jobs.get_mut(&id) else {
            return;
        };
        if rec.state.is_terminal() {
            return;
        }
        if rec.cancel.load(Ordering::SeqCst) {
            drop(jobs);
            set_terminal(inner, id, JobState::Cancelled);
            return;
        }
        rec.attempts += 1;
        rec.state = JobState::Running;
        if inner.cfg.spans {
            let mut attrs = Metrics::new();
            attrs.set("worker", w as u64);
            rec.spans.close("queued", ns_since(inner.epoch, start), attrs);
        }
        (
            rec.spec.clone(),
            rec.attempts,
            Arc::clone(&rec.cancel),
            rec.submitted,
            rec.queued_at,
        )
    };
    // Wall-clock deadline may have already expired in the queue.
    if wall_expired(&spec, submitted) {
        set_terminal(inner, id, JobState::Expired { attempts });
        return;
    }
    // Poisoned signatures fail fast: no execution, no retries. Poison
    // ages out like the image breaker's quarantine: past the TTL the
    // entry is dropped and this job runs as the half-open probe (a
    // clean run leaves the signature clear; a fresh retry exhaustion
    // re-poisons it).
    let poisoned = {
        let mut poison = lock(&inner.poison);
        match poison.get(&spec.signature()) {
            Some(since) if since.elapsed() < Duration::from_millis(inner.cfg.poison_ttl_ms) => true,
            Some(_) => {
                poison.remove(&spec.signature());
                false
            }
            None => false,
        }
    };
    if poisoned {
        set_terminal(
            inner,
            id,
            JobState::Failed {
                message: "poisoned job signature (previous jobs exhausted retries)".to_string(),
                attempts,
            },
        );
        return;
    }
    *lock(&inner.running[w]) = Some(id);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_attempt(inner, w, id, &spec, attempts, &cancel, submitted)
    }));
    match result {
        Err(payload) => {
            if payload.is::<WorkerKill>() {
                // Leave the orphan registry set: the supervisor requeues
                // this job when it catches the unwind.
                resume_unwind(payload);
            }
            *lock(&inner.running[w]) = None;
            let message = panic_message(payload.as_ref());
            retry_or_fail(inner, id, &spec, attempts, message);
        }
        Ok(RunResult::Done(mut done)) => {
            *lock(&inner.running[w]) = None;
            let now = Instant::now();
            let out = JobOutput {
                cycles: done.cycles,
                x86_retired: done.x86_retired,
                arch_fnv: done.arch_fnv,
                warm: done.warm,
                attempts,
                latency_ns: (now - submitted).as_nanos() as u64,
                queue_ns: (start - queued_at).as_nanos() as u64,
                run_ns: done.run_ns,
            };
            if let Some(vm) = done.vm_trace.take() {
                let mut jobs = lock(&inner.jobs);
                if let Some(rec) = jobs.get_mut(&id) {
                    rec.vm_trace = Some(vm);
                }
            }
            lock(&inner.telemetry).note_capture(&spec.tenant, done.trace_dropped, done.uncrackable);
            let old = inner.run_ns_ewma.load(Ordering::Relaxed);
            let ewma = if old == 0 { done.run_ns } else { (3 * old + done.run_ns) / 4 };
            inner.run_ns_ewma.store(ewma, Ordering::Relaxed);
            set_terminal(inner, id, JobState::Completed(out));
        }
        Ok(RunResult::Expired) => {
            *lock(&inner.running[w]) = None;
            set_terminal(inner, id, JobState::Expired { attempts });
        }
        Ok(RunResult::Cancelled) => {
            *lock(&inner.running[w]) = None;
            set_terminal(inner, id, JobState::Cancelled);
        }
        Ok(RunResult::Failed(message)) => {
            *lock(&inner.running[w]) = None;
            retry_or_fail(inner, id, &spec, attempts, message);
        }
    }
}

/// One execution attempt: checkout, watchdogs, sliced run with cancel /
/// kill / deadline checks, architected fingerprint.
#[allow(
    clippy::panic,
    reason = "injected job panics and worker kills are the chaos suite's faults"
)]
fn run_attempt(
    inner: &Arc<Inner>,
    w: usize,
    id: u64,
    spec: &JobSpec,
    attempts: u32,
    cancel: &AtomicBool,
    submitted: Instant,
) -> RunResult {
    if attempts <= spec.chaos_panic_attempts {
        panic!("chaos: injected job panic (attempt {attempts})");
    }
    let start = Instant::now();
    let Some((mut sys, info)) = inner.pool.checkout(spec.machine, &spec.app) else {
        // Catalog membership was validated at admission; a miss here
        // means the pool lost an entry — fail (and retry) rather than
        // panic a worker.
        return RunResult::Failed(format!("pool lost entry {}/{}", spec.machine, spec.app));
    };
    let warm = info.warm;
    if inner.cfg.pool.warm {
        lock(&inner.slo).record(SloKind::WarmStamp, warm == WarmLevel::Warm);
    }
    let stamp_end = Instant::now();
    if inner.cfg.spans {
        let mut attrs = Metrics::new();
        attrs
            .set("warm", warm.name())
            .set("applied", u64::from(info.applied))
            .set("dropped", u64::from(info.dropped))
            .set("probe", info.probe)
            .set("quarantined", info.quarantined);
        if let Some(e) = &info.error {
            attrs.set("error", e.as_str());
        }
        let mut jobs = lock(&inner.jobs);
        if let Some(rec) = jobs.get_mut(&id) {
            rec.spans.push_closed(
                "stamp",
                ns_since(inner.epoch, start),
                ns_since(inner.epoch, stamp_end),
                attrs,
            );
            let mut run_attrs = Metrics::new();
            run_attrs.set("worker", w as u64).set("attempt", u64::from(attempts));
            rec.spans.open("run", ns_since(inner.epoch, stamp_end), run_attrs);
        }
    }
    if let Some(limit) = spec.deadline_insts {
        sys.arm_fuel_watchdog(limit);
    }
    loop {
        match sys.run_slice(RUN_SLICE) {
            Status::Running => {
                if cancel.load(Ordering::SeqCst) {
                    return RunResult::Cancelled;
                }
                if inner.kill_flags[w].swap(false, Ordering::SeqCst) {
                    std::panic::panic_any(WorkerKill);
                }
                if wall_expired(spec, submitted) {
                    return RunResult::Expired;
                }
            }
            Status::Halted => {
                let cpu = sys.cpu();
                let mut arch = Vec::with_capacity(8 * 4 + 4 + 8);
                for r in cpu.gpr {
                    arch.extend_from_slice(&r.to_le_bytes());
                }
                arch.extend_from_slice(&cpu.eip.to_le_bytes());
                arch.extend_from_slice(&sys.x86_retired().to_le_bytes());
                let trace_dropped = sys.trace().map(|t| t.dropped()).unwrap_or(0);
                let uncrackable = sys.stats.uncrackable_insts;
                let vm_trace = inner.cfg.pool.capture.then(|| {
                    // Shift the VM tracks (modeled µs) onto the job's
                    // service timeline at its stamp point, so the
                    // instance's startup telemetry sits under the
                    // service spans in one merged Perfetto document.
                    let mut ct = ChromeTrace::new();
                    render_chrome(
                        &mut ct,
                        2,
                        &format!("vm {}/{} job {id}", spec.machine, spec.app),
                        ns_since(inner.epoch, start) as f64 / 1000.0,
                        &sys.take_telemetry(),
                    );
                    ct
                });
                return RunResult::Done(Box::new(RunDone {
                    cycles: sys.cycles(),
                    x86_retired: sys.x86_retired(),
                    arch_fnv: fnv1a64(&arch),
                    warm,
                    run_ns: start.elapsed().as_nanos() as u64,
                    trace_dropped,
                    uncrackable,
                    vm_trace,
                }));
            }
            Status::Exhausted(Watchdog::Fuel { .. }) => return RunResult::Expired,
            st => return RunResult::Failed(format!("simulator stopped: {st:?}")),
        }
    }
}

/// True when the job's wall-clock deadline has passed.
fn wall_expired(spec: &JobSpec, submitted: Instant) -> bool {
    spec.deadline_ms
        .is_some_and(|ms| submitted.elapsed() >= Duration::from_millis(ms))
}

/// After a failed attempt: schedule a backoff retry, or go terminal and
/// poison the signature once attempts are exhausted.
fn retry_or_fail(inner: &Arc<Inner>, id: u64, spec: &JobSpec, attempts: u32, message: String) {
    if attempts < inner.cfg.max_attempts {
        let base = inner
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << (attempts - 1).min(16));
        let capped = base.min(inner.cfg.backoff_cap_ms).max(1);
        // Full jitter: a burst of same-signature failures must not
        // resynchronize into a retry storm.
        let jitter = lock(&inner.rng).next_u64() % capped;
        let due = Instant::now() + Duration::from_millis(capped / 2 + jitter / 2);
        let stale = {
            let mut jobs = lock(&inner.jobs);
            match jobs.get_mut(&id) {
                Some(rec) if !rec.state.is_terminal() => {
                    rec.state = JobState::Delayed;
                    rec.queued_at = due;
                    if inner.cfg.spans {
                        let now_ns = ns_since(inner.epoch, Instant::now());
                        let due_ns = ns_since(inner.epoch, due);
                        rec.spans.close_all(now_ns);
                        let mut attrs = Metrics::new();
                        attrs
                            .set("attempt", u64::from(attempts))
                            .set("error", message.as_str());
                        rec.spans.push_closed("retry_backoff", now_ns, due_ns, attrs);
                        let mut q = Metrics::new();
                        q.set("attempt", u64::from(attempts) + 1);
                        rec.spans.open("queued", due_ns, q);
                    }
                    false
                }
                _ => true,
            }
        };
        if !stale {
            inner.counters.retries.fetch_add(1, Ordering::Relaxed);
            lock(&inner.telemetry).tenant_mut(&spec.tenant).retries += 1;
            inner.queues.push_delayed(due, id);
        }
        return;
    }
    if lock(&inner.poison)
        .insert(spec.signature(), Instant::now())
        .is_none()
    {
        inner.counters.poisoned.fetch_add(1, Ordering::Relaxed);
    }
    set_terminal(inner, id, JobState::Failed { message, attempts });
}

/// The single guarded terminal transition. Refuses a second terminal
/// transition (counted in `double_terminal`), updates every counter and
/// the tenant's telemetry, and wakes waiters.
fn set_terminal(inner: &Arc<Inner>, id: u64, state: JobState) -> bool {
    debug_assert!(state.is_terminal());
    // Every side effect happens under the jobs lock, *before* the state
    // flips terminal and wakes waiters: a client returning from `wait`
    // (or `drain` seeing `inflight == 0`) must already observe the
    // updated counters and telemetry. Lock order here is always
    // jobs → telemetry → slo → tenant_depth → terminal_order; no other
    // path nests these.
    let mut jobs = lock(&inner.jobs);
    let Some(rec) = jobs.get_mut(&id) else {
        return false;
    };
    if rec.state.is_terminal() {
        inner
            .counters
            .double_terminal
            .fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if inner.cfg.spans {
        let now_ns = ns_since(inner.epoch, Instant::now());
        if let JobState::Completed(out) = &state {
            let mut attrs = Metrics::new();
            attrs
                .set("cycles", out.cycles)
                .set("x86_retired", out.x86_retired)
                .set("warm", out.warm.name())
                .set("attempts", u64::from(out.attempts));
            rec.spans.close("run", now_ns, attrs);
        }
        rec.spans.close_all(now_ns);
        let mut attrs = Metrics::new();
        attrs.set("state", state.name());
        if let JobState::Failed { message, .. } = &state {
            attrs.set("message", message.as_str());
        }
        rec.spans.push_closed("terminal", now_ns, now_ns, attrs);
    }
    let tenant = rec.spec.tenant.clone();
    let c = &inner.counters;
    {
        let mut tel = lock(&inner.telemetry);
        match &state {
            JobState::Completed(out) => {
                c.completed.fetch_add(1, Ordering::Relaxed);
                let summary = job_summary(id, rec, out);
                tel.note_completed(&tenant, id, out, summary);
            }
            JobState::Failed { .. } => {
                c.failed.fetch_add(1, Ordering::Relaxed);
                tel.tenant_mut(&tenant).failed += 1;
            }
            JobState::Expired { .. } => {
                c.expired.fetch_add(1, Ordering::Relaxed);
                tel.tenant_mut(&tenant).expired += 1;
            }
            JobState::Cancelled => {
                c.cancelled.fetch_add(1, Ordering::Relaxed);
                tel.tenant_mut(&tenant).cancelled += 1;
            }
            _ => {}
        }
    }
    {
        // SLO accounting: completions and client cancellations end an
        // admission well; failures and expiries consume error budget.
        let mut slo = lock(&inner.slo);
        match &state {
            JobState::Completed(out) => {
                slo.record(SloKind::ErrorRate, true);
                slo.record(
                    SloKind::RunLatency,
                    out.run_ns <= inner.cfg.slo.run_latency_threshold_ns,
                );
            }
            JobState::Failed { .. } | JobState::Expired { .. } => {
                slo.record(SloKind::ErrorRate, false);
            }
            JobState::Cancelled => {
                slo.record(SloKind::ErrorRate, true);
            }
            _ => {}
        }
    }
    {
        let mut depth = lock(&inner.tenant_depth);
        if let Some(d) = depth.get_mut(&tenant) {
            *d = d.saturating_sub(1);
            if *d == 0 {
                // The table tracks admitted depth only: an idle tenant
                // must not cost an entry forever.
                depth.remove(&tenant);
            }
        }
    }
    inner.inflight.fetch_sub(1, Ordering::SeqCst);
    rec.state = state;
    // Bound the job table: retain the newest `terminal_retention`
    // terminal records for late status queries, evict the rest. The
    // audit counters above are monotonic, so exactly-once accounting
    // survives eviction. (Still under the `jobs` lock.)
    {
        let mut order = lock(&inner.terminal_order);
        order.push_back(id);
        while order.len() > inner.cfg.terminal_retention.max(1) {
            if let Some(old) = order.pop_front() {
                jobs.remove(&old);
            }
        }
    }
    inner.done_cv.notify_all();
    true
}

/// The streamable per-job completion summary.
fn job_summary(id: u64, rec: &JobRecord, out: &JobOutput) -> Metrics {
    let mut m = Metrics::new();
    m.set("job", id)
        .set("tenant", rec.spec.tenant.as_str())
        .set("app", rec.spec.app.as_str())
        .set("machine", format!("{}", rec.spec.machine))
        .set("state", "completed")
        .set("warm", out.warm.name())
        .set("attempts", u64::from(out.attempts))
        .set("cycles", out.cycles)
        .set("x86_retired", out.x86_retired)
        .set("arch_fnv", format!("{:016x}", out.arch_fnv))
        .set("latency_ns", out.latency_ns)
        .set("queue_ns", out.queue_ns)
        .set("run_ns", out.run_ns);
    m
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    /// The exposition writes a family's HELP and TYPE once, at its first
    /// sample, and a family may not reopen: declarations sharing a family
    /// must sit together, agree on HELP and kind, and stay in one table.
    #[test]
    fn declared_families_are_contiguous_and_consistent() {
        fn families<S>(stats: &[Stat<S>]) -> Vec<&'static str> {
            for (i, st) in stats.iter().enumerate() {
                if let Some(j) = stats[..i].iter().rposition(|o| o.family == st.family) {
                    assert_eq!(j + 1, i, "{} is split", st.family);
                    let (a, b) = (&stats[j], st);
                    assert_eq!((a.help, a.kind), (b.help, b.kind), "{}", st.family);
                }
            }
            stats.iter().map(|st| st.family).collect()
        }
        let mut all = families(SERVICE_STATS);
        all.extend(families(POOL_STATS));
        all.extend(families(SLO_STATS));
        assert_eq!(all.len(), 18 + 7 + 4);
        all.dedup();
        let contiguous = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), contiguous, "a family spans two tables");
    }
}
