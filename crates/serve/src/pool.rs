//! The warm-pool manager: golden images, health accounting, and the
//! per-image circuit breaker.
//!
//! One `Golden` entry exists per served `(machine, app)` pair. Preparing
//! an entry runs the workload cold once and saves its warm image;
//! serving then *stamps* instances: a fresh [`System`] on a CoW
//! [`Memory::clone`](cdvm_mem::GuestMem) of the golden memory image,
//! with the warm translation state restored on top. The pool keeps
//! images, not machines: every checkout stamps exactly the instance it
//! returns, on the worker that runs it. A stamp costs a fraction of a
//! millisecond against a run of tens, so an idle stamped `System` per
//! entry would cost its memory and hide almost nothing.
//!
//! Restores are health-tracked per image. Repeated restore failures or
//! salvage degradations trip a **circuit breaker** that quarantines the
//! image: stamps fall back to cold boot (the documented degradation
//! ladder warm → cold; shedding happens at admission, not here). After a
//! cooldown of cold stamps the breaker goes half-open and risks one
//! probe restore; a clean probe closes it again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cdvm_core::{
    write_image_atomic, FaultInjector, ImageFault, ImageFaultReport, Status, System,
    TelemetryConfig,
};
use cdvm_mem::GuestMem;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app_run, AppProfile};

use crate::job::WarmLevel;
use crate::lock;

/// Warm-pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Prepare warm images and restore them at stamp time. When false
    /// every stamp is a cold boot (the bench's cold lane).
    pub warm: bool,
    /// Consecutive bad restores (failure or degradation) that trip the
    /// breaker.
    pub breaker_threshold: u32,
    /// Cold stamps to wait while quarantined before a half-open probe.
    pub breaker_cooldown: u32,
    /// Arm the VM flight recorder and event trace on every stamped
    /// instance (armed *before* the restore, so restore events land in
    /// the trace). Powers the cross-layer `GET /jobs/<id>/trace`
    /// Perfetto merge; observation-only on the modeled clock.
    pub capture: bool,
}

/// Event-trace ring capacity for captured instances.
const CAPTURE_TRACE_EVENTS: usize = 4096;

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            warm: true,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            capture: false,
        }
    }
}

/// What one stamp produced, beyond the instance itself: the warmth
/// level plus the restore outcome the span tree attaches to the job's
/// `stamp` span.
#[derive(Debug, Clone)]
pub struct StampInfo {
    /// How warm the stamped instance is.
    pub warm: WarmLevel,
    /// Sections the restore applied (0 on a cold stamp).
    pub applied: u32,
    /// Sections salvage dropped.
    pub dropped: u32,
    /// The restore error, when the stamp fell back to cold boot.
    pub error: Option<String>,
    /// True when this stamp was a half-open breaker probe.
    pub probe: bool,
    /// True when the image was quarantined at stamp time.
    pub quarantined: bool,
}

impl StampInfo {
    fn cold(quarantined: bool) -> StampInfo {
        StampInfo {
            warm: WarmLevel::Cold,
            applied: 0,
            dropped: 0,
            error: None,
            probe: false,
            quarantined,
        }
    }
}

/// Per-image restore health and breaker state.
#[derive(Debug, Clone, Default)]
pub struct ImageHealth {
    /// Clean restores (every section applied).
    pub restores_clean: u64,
    /// Degraded restores (salvage dropped sections).
    pub restores_degraded: u64,
    /// Total restore failures (stamp proceeded cold).
    pub restores_failed: u64,
    /// Stamps that never attempted a restore (pool cold, quarantine,
    /// or cooldown).
    pub cold_stamps: u64,
    /// Consecutive bad restores since the last clean one.
    pub consecutive_bad: u32,
    /// True while the breaker is open (image quarantined).
    pub quarantined: bool,
    /// Times the breaker opened.
    pub quarantines: u64,
    /// Cold stamps since the breaker last opened.
    pub cold_since_quarantine: u32,
    /// Half-open probe restores attempted.
    pub probes: u64,
}

/// A point-in-time view of one golden image (rendered into `/healthz`
/// and `/metrics`).
#[derive(Debug, Clone)]
pub struct ImageState {
    /// The image's machine.
    pub kind: MachineKind,
    /// The image's application.
    pub app: &'static str,
    /// Warm image size (0 when the pool is cold-only).
    pub image_bytes: usize,
    /// Restore health and breaker state.
    pub health: ImageHealth,
}

/// One golden `(machine, app)` entry.
struct Golden {
    kind: MachineKind,
    app: &'static str,
    /// The app's memory image, CoW-shared with its other entries.
    mem: GuestMem,
    entry: u32,
    /// Warm image bytes (empty when the pool is cold-only).
    image: Vec<u8>,
    health: ImageHealth,
}

/// The warm-pool manager.
pub struct WarmPool {
    cfg: PoolConfig,
    entries: Vec<Mutex<Golden>>,
    /// `(machine, app)` per entry, parallel to `entries`.
    index: Vec<(MachineKind, &'static str)>,
}

impl WarmPool {
    /// Prepares golden entries for every `(machine, app)` pair in the
    /// catalog: builds each distinct app image once (shared CoW across
    /// machines), then — when warm — runs each pair cold to its
    /// architected end and saves the warm translation image. Entries
    /// are prepared in parallel, bounded by the host's available
    /// parallelism.
    pub fn prepare(catalog: &[(MachineKind, AppProfile)], scale: f64, cfg: PoolConfig) -> WarmPool {
        let mut index = Vec::new();
        let mut goldens: Vec<Golden> = Vec::new();
        for (kind, p) in catalog {
            if index.contains(&(*kind, p.name)) {
                continue;
            }
            let (mem, entry) = match goldens.iter().find(|g| g.app == p.name) {
                Some(g) => (g.mem.clone(), g.entry),
                None => {
                    let wl = build_app_run(p, scale, 1.0);
                    (wl.mem, wl.entry)
                }
            };
            index.push((*kind, p.name));
            goldens.push(Golden {
                kind: *kind,
                app: p.name,
                mem,
                entry,
                image: Vec::new(),
                health: ImageHealth::default(),
            });
        }
        let pool = WarmPool {
            cfg,
            entries: goldens.into_iter().map(Mutex::new).collect(),
            index,
        };
        if pool.cfg.warm {
            let entries = &pool.entries;
            // Prep is a cold full-workload run per entry: bound the
            // fan-out to the host's parallelism instead of one thread
            // per catalog entry (a full catalog would otherwise start
            // dozens of simulations at once).
            let threads = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(entries.len())
                .max(1);
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let next = &next;
                    s.spawn(move || loop {
                        let Some(entry) = entries.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            return;
                        };
                        let mut g = lock(entry);
                        let mut sys = System::with_config(
                            MachineConfig::preset(g.kind),
                            g.mem.clone(),
                            g.entry,
                        );
                        // A golden image is only worth serving from when
                        // the prep run reached its architected end.
                        if sys.run_to_completion(u64::MAX) == Status::Halted {
                            g.image = sys.snapshot_bytes();
                        }
                    });
                }
            });
        }
        pool
    }

    /// True when the pool serves this `(machine, app)` pair.
    pub fn contains(&self, kind: MachineKind, app: &str) -> bool {
        self.entry_idx(kind, app).is_some()
    }

    fn entry_idx(&self, kind: MachineKind, app: &str) -> Option<usize> {
        self.index.iter().position(|(k, a)| *k == kind && *a == app)
    }

    /// Stamps an instance for one job: restores the entry's image into
    /// a fresh [`System`] (or cold-boots one, per the breaker). Returns
    /// `None` for an unserved pair.
    pub fn checkout(&self, kind: MachineKind, app: &str) -> Option<(System, StampInfo)> {
        let idx = self.entry_idx(kind, app)?;
        Some(stamp(&mut lock(&self.entries[idx]), &self.cfg))
    }

    /// A snapshot of one image's health.
    pub fn health(&self, kind: MachineKind, app: &str) -> Option<ImageHealth> {
        let idx = self.entry_idx(kind, app)?;
        Some(lock(&self.entries[idx]).health.clone())
    }

    /// Persists every healthy (non-quarantined, non-empty) golden image
    /// crash-safely under `dir`, returning the written paths.
    ///
    /// # Errors
    ///
    /// Any I/O error from directory creation or the atomic writes.
    pub fn persist(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for entry in &self.entries {
            let g = lock(entry);
            if g.image.is_empty() || g.health.quarantined {
                continue;
            }
            let file = dir.join(format!(
                "{}_{}.cdvmimg",
                format!("{:?}", g.kind).to_lowercase(),
                g.app.to_lowercase()
            ));
            write_image_atomic(&file, &g.image)?;
            written.push(file);
        }
        Ok(written)
    }

    /// Chaos hook: corrupts the golden image in place with one
    /// [`ImageFault`] mode; the next stamp restores the damaged bytes.
    pub fn corrupt_image(
        &self,
        kind: MachineKind,
        app: &str,
        injector: &mut FaultInjector,
        fault: ImageFault,
    ) -> Option<ImageFaultReport> {
        let idx = self.entry_idx(kind, app)?;
        Some(injector.corrupt_image(&mut lock(&self.entries[idx]).image, fault))
    }

    /// The current golden image bytes (test hook).
    pub fn image_bytes(&self, kind: MachineKind, app: &str) -> Option<Vec<u8>> {
        let idx = self.entry_idx(kind, app)?;
        Some(lock(&self.entries[idx]).image.clone())
    }

    /// Replaces the golden image bytes (test hook).
    pub fn set_image_bytes(&self, kind: MachineKind, app: &str, bytes: Vec<u8>) -> bool {
        let Some(idx) = self.entry_idx(kind, app) else {
            return false;
        };
        lock(&self.entries[idx]).image = bytes;
        true
    }

    /// A point-in-time view of every golden image, in catalog order.
    pub fn states(&self) -> Vec<ImageState> {
        self.entries
            .iter()
            .map(|entry| {
                let g = lock(entry);
                ImageState {
                    kind: g.kind,
                    app: g.app,
                    image_bytes: g.image.len(),
                    health: g.health.clone(),
                }
            })
            .collect()
    }
}

/// Stamps one instance from a golden entry, applying the breaker
/// policy. Never panics: the worst case is a cold boot.
fn stamp(g: &mut Golden, cfg: &PoolConfig) -> (System, StampInfo) {
    let mut sys = System::with_config(MachineConfig::preset(g.kind), g.mem.clone(), g.entry);
    if cfg.capture {
        // Armed before the restore so restore events land in the trace.
        sys.set_telemetry(TelemetryConfig {
            trace: Some(CAPTURE_TRACE_EVENTS),
            ..TelemetryConfig::full()
        });
    }
    if !cfg.warm || g.image.is_empty() {
        g.health.cold_stamps += 1;
        return (sys, StampInfo::cold(g.health.quarantined));
    }
    let probing = if g.health.quarantined {
        g.health.cold_since_quarantine += 1;
        if g.health.cold_since_quarantine <= cfg.breaker_cooldown {
            g.health.cold_stamps += 1;
            return (sys, StampInfo::cold(true));
        }
        // Half-open: risk one probe restore.
        g.health.probes += 1;
        true
    } else {
        false
    };
    let outcome = sys.restore_image_bytes(&g.image);
    let mut info = StampInfo {
        warm: WarmLevel::Warm,
        applied: outcome.applied,
        dropped: outcome.dropped,
        error: outcome.error.as_ref().map(|e| e.to_string()),
        probe: probing,
        quarantined: g.health.quarantined,
    };
    if outcome.is_cold_boot() {
        g.health.restores_failed += 1;
        note_bad(&mut g.health, cfg, probing);
        info.warm = WarmLevel::Cold;
    } else if outcome.is_degraded() {
        g.health.restores_degraded += 1;
        note_bad(&mut g.health, cfg, probing);
        // Degraded is still architecturally correct (salvage drops
        // sections, never applies damaged ones) — serve it, but count it
        // against the image.
        info.warm = WarmLevel::WarmDegraded;
    } else {
        g.health.restores_clean += 1;
        g.health.consecutive_bad = 0;
        if g.health.quarantined {
            g.health.quarantined = false;
            g.health.cold_since_quarantine = 0;
        }
    }
    (sys, info)
}

/// Accounts one bad restore and advances the breaker.
fn note_bad(h: &mut ImageHealth, cfg: &PoolConfig, probing: bool) {
    h.consecutive_bad += 1;
    if probing {
        // Failed probe: stay quarantined, restart the cooldown.
        h.cold_since_quarantine = 0;
    } else if !h.quarantined && h.consecutive_bad >= cfg.breaker_threshold {
        h.quarantined = true;
        h.quarantines += 1;
        h.cold_since_quarantine = 0;
    }
}
