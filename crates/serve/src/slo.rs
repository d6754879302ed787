//! Service-level objectives with multi-window burn-rate alerting.
//!
//! Three objectives are tracked out of the box: **run latency** (the
//! fraction of completed jobs whose execution time stays under a
//! threshold), **warm-stamp ratio** (the fraction of pool checkouts
//! served from a clean warm restore), and **error rate** (the fraction
//! of admission attempts that end well — sheds, failures and expiries
//! are the bad events).
//!
//! Each objective counts good/bad events into a ring of fixed-width
//! time buckets. The *burn rate* over a window is the observed bad
//! fraction divided by the error budget (`1 - target`): burn 1.0 means
//! the budget is being consumed exactly at the sustainable rate, burn
//! `N` means `N`× too fast. An alert **fires** only when both the fast
//! window (sensitive, noisy) and the slow window (confirming) exceed
//! their burn thresholds — the standard multi-window guard against
//! one-bucket blips — and **clears** on its own once enough clean
//! traffic ages the bad buckets out of the windows. The chaos campaign
//! asserts both edges: overload trips the error-rate alert, image
//! corruption trips the warm-stamp alert, and both clear on recovery.

use std::time::Instant;

/// The built-in objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Completed jobs under the run-latency threshold.
    RunLatency,
    /// Checkouts stamped from a clean warm restore.
    WarmStamp,
    /// Admissions that end in a non-error terminal state.
    ErrorRate,
}

impl SloKind {
    /// Stable snake_case tag for metrics and exposition labels.
    pub fn name(self) -> &'static str {
        match self {
            SloKind::RunLatency => "run_latency",
            SloKind::WarmStamp => "warm_stamp",
            SloKind::ErrorRate => "error_rate",
        }
    }

    const ALL: [SloKind; 3] = [SloKind::RunLatency, SloKind::WarmStamp, SloKind::ErrorRate];
}

/// SLO engine tuning knobs. The defaults suit a long-running service;
/// the chaos campaign shrinks the windows so alerts trip and clear
/// within a test's lifetime.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Width of one accounting bucket, milliseconds.
    pub bucket_ms: u64,
    /// Buckets in the fast (sensitive) window.
    pub fast_buckets: usize,
    /// Buckets in the slow (confirming) window — also the ring length.
    pub slow_buckets: usize,
    /// Fast-window burn rate at or above which the alert may fire.
    pub fast_burn: f64,
    /// Slow-window burn rate that must also be exceeded.
    pub slow_burn: f64,
    /// Run-latency objective: a completed job is good when its
    /// execution time is at or under this many nanoseconds.
    pub run_latency_threshold_ns: u64,
    /// Run-latency objective target (fraction of good completions).
    pub run_latency_target: f64,
    /// Warm-stamp objective target (fraction of clean warm checkouts).
    pub warm_stamp_target: f64,
    /// Error-rate objective target (fraction of well-ended admissions).
    pub error_rate_target: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            bucket_ms: 500,
            fast_buckets: 6,
            slow_buckets: 60,
            fast_burn: 4.0,
            slow_burn: 2.0,
            run_latency_threshold_ns: 2_000_000_000,
            run_latency_target: 0.99,
            warm_stamp_target: 0.90,
            error_rate_target: 0.99,
        }
    }
}

/// One time bucket of good/bad counts, tagged with its absolute index
/// so stale ring slots are detected instead of reused.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    id: u64,
    good: u64,
    bad: u64,
}

/// One objective's ring and alert state.
struct Objective {
    kind: SloKind,
    target: f64,
    ring: Vec<Bucket>,
    firing: bool,
    /// Times the alert transitioned clear → firing (monotonic).
    fired: u64,
}

/// A point-in-time view of one objective (rendered into `/healthz` and
/// `/metrics`).
#[derive(Debug, Clone)]
pub struct SloState {
    /// Which objective.
    pub kind: SloKind,
    /// The objective target (good fraction).
    pub target: f64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// True while the alert is firing.
    pub firing: bool,
    /// Clear → firing transitions since start.
    pub fired: u64,
    /// Good events in the slow window.
    pub good: u64,
    /// Bad events in the slow window.
    pub bad: u64,
}

/// The objective registry. All mutation goes through `record`/`states`;
/// the service keeps it behind a mutex.
pub struct SloEngine {
    cfg: SloConfig,
    epoch: Instant,
    objectives: Vec<Objective>,
}

impl SloEngine {
    /// Creates the engine with the three built-in objectives.
    pub fn new(cfg: SloConfig) -> SloEngine {
        let objectives = SloKind::ALL
            .iter()
            .map(|&kind| Objective {
                kind,
                target: match kind {
                    SloKind::RunLatency => cfg.run_latency_target,
                    SloKind::WarmStamp => cfg.warm_stamp_target,
                    SloKind::ErrorRate => cfg.error_rate_target,
                },
                ring: vec![Bucket::default(); cfg.slow_buckets.max(1)],
                firing: false,
                fired: 0,
            })
            .collect();
        SloEngine {
            cfg,
            epoch: Instant::now(),
            objectives,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    fn bucket_now(&self) -> u64 {
        // Bucket ids start at 1 so id 0 always means "never written".
        self.epoch.elapsed().as_millis() as u64 / self.cfg.bucket_ms.max(1) + 1
    }

    /// Records one good or bad event against `kind` and re-evaluates
    /// that objective's alert edge.
    pub fn record(&mut self, kind: SloKind, good: bool) {
        let now = self.bucket_now();
        let (fast_n, slow_n) = (self.cfg.fast_buckets, self.cfg.slow_buckets);
        let (fast_burn, slow_burn) = (self.cfg.fast_burn, self.cfg.slow_burn);
        let Some(obj) = self.objectives.iter_mut().find(|o| o.kind == kind) else {
            return;
        };
        let len = obj.ring.len() as u64;
        let slot = &mut obj.ring[(now % len) as usize];
        if slot.id != now {
            *slot = Bucket {
                id: now,
                good: 0,
                bad: 0,
            };
        }
        if good {
            slot.good += 1;
        } else {
            slot.bad += 1;
        }
        Self::refresh(obj, now, fast_n, slow_n, fast_burn, slow_burn);
    }

    /// Recomputes one objective's burns and alert edge at bucket `now`.
    fn refresh(
        obj: &mut Objective,
        now: u64,
        fast_n: usize,
        slow_n: usize,
        fast_thresh: f64,
        slow_thresh: f64,
    ) -> SloState {
        let window = |n: usize| {
            let lo = now.saturating_sub(n as u64 - 1);
            let (mut good, mut bad) = (0u64, 0u64);
            for b in &obj.ring {
                if b.id >= lo && b.id <= now {
                    good += b.good;
                    bad += b.bad;
                }
            }
            (good, bad)
        };
        let budget = (1.0 - obj.target).max(1e-9);
        let burn = |good: u64, bad: u64| {
            let total = good + bad;
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let (fg, fb) = window(fast_n.max(1));
        let (sg, sb) = window(slow_n.max(1));
        let fast = burn(fg, fb);
        let slow = burn(sg, sb);
        let firing = fast >= fast_thresh && slow >= slow_thresh;
        if firing && !obj.firing {
            obj.fired += 1;
        }
        obj.firing = firing;
        SloState {
            kind: obj.kind,
            target: obj.target,
            fast_burn: fast,
            slow_burn: slow,
            firing,
            fired: obj.fired,
            good: sg,
            bad: sb,
        }
    }

    /// Current state of every objective (re-evaluating each alert, so a
    /// quiet period clears a stale alert without new traffic).
    pub fn states(&mut self) -> Vec<SloState> {
        let now = self.bucket_now();
        let (fast_n, slow_n) = (self.cfg.fast_buckets, self.cfg.slow_buckets);
        let (fast_burn, slow_burn) = (self.cfg.fast_burn, self.cfg.slow_burn);
        self.objectives
            .iter_mut()
            .map(|o| Self::refresh(o, now, fast_n, slow_n, fast_burn, slow_burn))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny() -> SloConfig {
        SloConfig {
            bucket_ms: 1,
            fast_buckets: 2,
            slow_buckets: 8,
            fast_burn: 2.0,
            slow_burn: 1.0,
            error_rate_target: 0.9,
            ..SloConfig::default()
        }
    }

    fn state_of(engine: &mut SloEngine, kind: SloKind) -> SloState {
        engine
            .states()
            .into_iter()
            .find(|s| s.kind == kind)
            .unwrap()
    }

    #[test]
    fn burn_rises_with_bad_fraction_and_fires_both_windows() {
        let mut e = SloEngine::new(tiny());
        for _ in 0..10 {
            e.record(SloKind::ErrorRate, false);
        }
        let s = state_of(&mut e, SloKind::ErrorRate);
        // All-bad traffic burns at 1/budget = 10x.
        assert!(s.fast_burn > 9.0, "fast {}", s.fast_burn);
        assert!(s.firing, "should fire: {s:?}");
        assert_eq!(s.fired, 1);
        assert_eq!(s.bad, 10);
    }

    #[test]
    fn alert_clears_once_bad_buckets_age_out() {
        let mut e = SloEngine::new(tiny());
        for _ in 0..10 {
            e.record(SloKind::ErrorRate, false);
        }
        assert!(state_of(&mut e, SloKind::ErrorRate).firing);
        // Age every bad bucket past the slow window (8 × 1 ms), then
        // feed clean traffic.
        std::thread::sleep(std::time::Duration::from_millis(12));
        for _ in 0..5 {
            e.record(SloKind::ErrorRate, true);
        }
        let s = state_of(&mut e, SloKind::ErrorRate);
        assert!(!s.firing, "should have cleared: {s:?}");
        assert_eq!(s.fired, 1, "monotonic fire count survives the clear");
        assert_eq!(s.bad, 0, "bad events aged out of the window");
    }

    #[test]
    fn good_traffic_never_fires() {
        let mut e = SloEngine::new(tiny());
        for _ in 0..100 {
            e.record(SloKind::WarmStamp, true);
        }
        let s = state_of(&mut e, SloKind::WarmStamp);
        assert_eq!(s.fast_burn, 0.0);
        assert!(!s.firing);
        assert_eq!(s.fired, 0);
    }

    #[test]
    fn empty_windows_report_zero_burn() {
        let mut e = SloEngine::new(tiny());
        let s = state_of(&mut e, SloKind::RunLatency);
        assert_eq!(s.fast_burn, 0.0);
        assert_eq!(s.slow_burn, 0.0);
        assert!(!s.firing);
    }

    #[test]
    fn states_cover_all_objectives() {
        let mut e = SloEngine::new(SloConfig::default());
        let names: Vec<&str> = e.states().iter().map(|s| s.kind.name()).collect();
        assert_eq!(names, ["run_latency", "warm_stamp", "error_rate"]);
    }
}
