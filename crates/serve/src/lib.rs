//! `cdvm-serve` — a fault-tolerant fleet simulation service over the
//! co-designed-VM startup model.
//!
//! The batch harness (`cdvm-bench`) runs a fixed job matrix to
//! completion; this crate turns the same simulator into a long-running
//! multi-tenant *service*:
//!
//! * a **warm pool** ([`WarmPool`]) stamps a [`System`](cdvm_core::System)
//!   per job from its warm translation image over copy-on-write
//!   guest memory, with per-image health accounting and a circuit
//!   breaker that quarantines a misbehaving image (cold boot fallback);
//! * a **work-stealing scheduler** with bounded per-tenant queues,
//!   admission control that sheds load with structured
//!   [`ServeError::Overloaded`] errors, per-job deadlines wired into the
//!   simulator's fuel watchdogs, and panic-isolated retries with
//!   exponential backoff and jitter;
//! * a hand-rolled **localhost HTTP/JSON API** ([`api`]) to submit
//!   jobs, stream per-tenant telemetry, and drive health checks and
//!   graceful drain (finish in-flight work, persist warm images);
//! * an **observability plane**: per-job span trees ([`JobSpans`])
//!   recorded by the single-writer job transitions, a Prometheus text
//!   exposition (`GET /metrics`), SLO burn-rate alerting ([`SloEngine`])
//!   surfaced in `/healthz`, and a cross-layer Perfetto timeline
//!   (`GET /jobs/<id>/trace`) that stacks the service spans above the
//!   serving instance's flight-recorder tracks.
//!
//! The service's failure semantics are exercised end to end by the
//! chaos campaign in `tests/serve_chaos.rs`: worker kills, injected job
//! panics, corrupted warm images, deadline expiry and overload bursts —
//! with no job lost, none duplicated, and results bit-identical to the
//! batch harness.

#![warn(missing_docs)]

pub mod api;
mod error;
mod job;
mod pool;
mod scheduler;
mod service;
mod slo;
mod spans;
mod telemetry;

pub use error::{OverloadScope, ServeError};
pub use job::{JobOutput, JobSpec, JobState, WarmLevel};
pub use pool::{ImageHealth, ImageState, PoolConfig, StampInfo, WarmPool};
pub use service::{ServeConfig, Service};
pub use slo::{SloConfig, SloEngine, SloKind, SloState};
pub use spans::{JobSpans, Span};
pub use telemetry::TenantTelemetry;

/// Locks a mutex, recovering the guard from a poisoned lock: a panic on
/// one worker must never wedge the rest of the fleet, and every
/// structure behind these locks is kept consistent by value (counters,
/// queues of ids) rather than by panic-free critical sections.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
