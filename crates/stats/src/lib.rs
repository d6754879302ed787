//! Measurement utilities for the startup-time study.
//!
//! The paper's evaluation plots aggregate (cumulative) IPC against time
//! on a logarithmic cycle axis, reports per-benchmark breakeven points,
//! execution-frequency histograms and hardware-activity curves. This
//! crate provides the corresponding instruments:
//!
//! * [`LogSampler`] — log-spaced time series of any cumulative quantity;
//! * [`breakeven_cycles`] — the catch-up point between two cumulative
//!   instruction curves (Fig. 9's metric);
//! * [`FreqHistogram`] — Fig. 3's static/dynamic frequency profile;
//! * [`CycleHistogram`] — log-bucketed latency/size histogram with
//!   p50/p90/p99 percentile queries (translation-episode latencies);
//! * [`harmonic_mean`] / [`Table`] — aggregation and rendering;
//! * [`Metrics`] — an insertion-ordered metrics registry with JSON
//!   export (every bench run writes `<bench>.metrics.json`), and
//!   [`json`], the matching reader (depth-bounded, and safe on network
//!   input: it reports errors instead of panicking);
//! * [`ChromeTrace`] — Chrome `trace_event` JSON writer so flight-
//!   recorder output loads in Perfetto / `chrome://tracing`;
//! * [`PromText`] / [`parse_exposition`] — Prometheus text-exposition
//!   writer (and the strict checker the tests use) backing the serve
//!   layer's `GET /metrics`.

#![warn(missing_docs)]

mod breakeven;
mod chrome_trace;
mod cycle_histogram;
mod histogram;
pub mod json;
mod metrics;
mod prom;
pub mod series;
mod summary;
mod table;

pub use breakeven::breakeven_cycles;
pub use chrome_trace::ChromeTrace;
pub use cycle_histogram::CycleHistogram;
pub use histogram::{FreqBucket, FreqHistogram};
pub use metrics::{MetricValue, Metrics};
pub use prom::{parse_exposition, sanitize_metric_name, PromFamily, PromKind, PromSample, PromText};
pub use series::{LogSampler, Sample};
pub use summary::{arith_mean, geo_mean, harmonic_mean};
pub use table::Table;
