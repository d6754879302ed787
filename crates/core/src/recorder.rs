//! The startup flight recorder: timeline telemetry for one run.
//!
//! The paper's subject is the startup *transient* — how IPC, translation
//! activity and code-cache state evolve over the first cycles of a run —
//! but end-of-run aggregates can't show *when* translation cost was
//! paid. The [`FlightRecorder`] turns the existing trace/phase plumbing
//! into an analyzable timeline (see DESIGN.md §3.9):
//!
//! * **windowed series** — per-interval deltas ([`WindowSample`]) of
//!   x86 IPC, per-phase cycles, BBT/SBT translations, chain/unchain and
//!   VMM-exit activity, plus end-of-window code-cache and
//!   translation-table occupancy. Window width doubles adaptively so
//!   memory stays bounded on long runs;
//! * **log-spaced series** — cumulative instructions and translations
//!   sampled on the paper's logarithmic cycle axis
//!   ([`cdvm_stats::LogSampler`]), reproducing the startup IPC curve of
//!   Figs. 2/8/11;
//! * **phase segments** — a bounded ring of `(phase, start, end)`
//!   intervals rendered as Perfetto duration tracks;
//! * **histograms** — translation-episode latency, translated block
//!   size, and chains-per-episode distributions with p50/p90/p99
//!   queries ([`cdvm_stats::CycleHistogram`]).
//!
//! The recorder is strictly an observer. It is polled at `run_slice`
//! boundaries and phase transitions, reads cycle counts through
//! non-mutating peeks, and never charges cycles or touches VM state —
//! modeled results are bit-identical with it on or off (enforced by
//! `tests/engine_differential.rs`).

use cdvm_stats::{ChromeTrace, CycleHistogram, LogSampler, Metrics};
use cdvm_uarch::Cycles;

use crate::trace::{
    parse_enable_env, Phase, TraceBuffer, TraceEvent, DEFAULT_TRACE_CAPACITY, NUM_PHASES,
};
use crate::vm::TransKind;

/// Flight-recorder tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Initial interval width (cycles) of the windowed series. Widths
    /// double automatically once [`MAX_WINDOWS`] intervals accumulate.
    pub window_cycles: u64,
    /// Log-spaced sample density of the cumulative series.
    pub points_per_decade: u32,
    /// Capacity of the phase-segment ring (oldest segments drop first).
    pub segment_capacity: usize,
}

/// Default phase-segment ring capacity (also the `CDVM_RECORDER=1`
/// capacity).
pub const DEFAULT_SEGMENT_CAPACITY: usize = 1 << 14;

/// Windowed-series length bound; reaching it doubles the window width
/// and halves the series.
pub const MAX_WINDOWS: usize = 4096;

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            window_cycles: 1 << 18,
            points_per_decade: 12,
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
        }
    }
}

/// Which telemetry collectors a `System` runs: the event-trace ring and
/// the flight recorder. `System::set_telemetry` takes one to arm,
/// re-arm or disarm both at once; the default is both off.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryConfig {
    /// Event-trace ring capacity in events (`None`: no trace). The
    /// reference machine has no VM and never traces.
    pub trace: Option<usize>,
    /// Flight-recorder settings (`None`: no recorder).
    pub recorder: Option<RecorderConfig>,
}

impl TelemetryConfig {
    /// Both collectors at their default sizes.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig {
            trace: Some(DEFAULT_TRACE_CAPACITY),
            recorder: Some(RecorderConfig::default()),
        }
    }

    /// The collectors the environment asks for, which every new `System`
    /// starts with. `CDVM_TRACE` arms the trace and `CDVM_RECORDER` the
    /// recorder, both in [`parse_enable_env`]'s vocabulary: unset or
    /// `off` leaves a collector off, `1`/`on` selects its default size,
    /// and any other number sizes the trace ring (events) or the
    /// recorder's phase-segment ring. `0` and garbage are rejected with
    /// a stderr message. Read once per process.
    pub fn from_env() -> TelemetryConfig {
        use std::sync::OnceLock;
        static CFG: OnceLock<TelemetryConfig> = OnceLock::new();
        *CFG.get_or_init(|| {
            let read =
                |var, default| parse_enable_env(var, std::env::var(var).ok().as_deref(), default);
            TelemetryConfig {
                trace: read("CDVM_TRACE", DEFAULT_TRACE_CAPACITY),
                recorder: read("CDVM_RECORDER", DEFAULT_SEGMENT_CAPACITY).map(|cap| {
                    RecorderConfig {
                        segment_capacity: cap,
                        ..RecorderConfig::default()
                    }
                }),
            }
        })
    }
}

/// One run's telemetry, detached from its `System` by
/// `System::take_telemetry`: what [`render_chrome`] draws and the benches
/// export.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The event-trace ring, when tracing was armed.
    pub trace: Option<Box<TraceBuffer>>,
    /// The finalized flight recorder, when it was armed.
    pub recorder: Option<Box<FlightRecorder>>,
}

/// A read-only copy of every counter the recorder samples, taken by the
/// system driver at a sequence point. Building one performs no mutation
/// (phase totals come from `System::phase_peek`), which is what keeps
/// telemetry timing-neutral.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetrySnapshot {
    /// Elapsed cycles (integer clock).
    pub cycles: u64,
    /// Elapsed cycles (the timing model's exact fixed-point total).
    pub cycles_fp: Cycles,
    /// Total retired x86 instructions.
    pub x86_retired: u64,
    /// Per-phase cycle totals including the in-progress phase tail.
    pub phase_cycles: [Cycles; NUM_PHASES],
    /// BBT blocks translated so far.
    pub bbt_blocks: u64,
    /// Superblocks formed so far.
    pub sbt_superblocks: u64,
    /// Chain patches applied so far.
    pub chains: u64,
    /// Chain patches reverted so far.
    pub unchains: u64,
    /// VMM exits handled so far.
    pub vm_exits: u64,
    /// Tier demotions (BBT + SBT) so far.
    pub demotions: u64,
    /// Live bytes in the BBT code cache.
    pub bbt_used_bytes: u64,
    /// Live bytes in the SBT code cache.
    pub sbt_used_bytes: u64,
    /// BBT arena occupancy fraction in `[0, 1]`.
    pub bbt_occupancy: f64,
    /// SBT arena occupancy fraction in `[0, 1]`.
    pub sbt_occupancy: f64,
    /// Live entries in the BBT translation table.
    pub bbt_table_entries: u64,
    /// Live entries in the SBT translation table.
    pub sbt_table_entries: u64,
    /// BBT translation-table load factor in `[0, 1]`.
    pub bbt_table_load: f64,
    /// SBT translation-table load factor in `[0, 1]`.
    pub sbt_table_load: f64,
}

/// One closed interval of the windowed time series: deltas over the
/// interval plus end-of-interval occupancy levels.
#[derive(Debug, Clone, Copy)]
pub struct WindowSample {
    /// Cycle count at the end of the interval.
    pub end_cycles: u64,
    /// Cycles elapsed in the interval (exact fixed point).
    pub dcycles: Cycles,
    /// x86 instructions retired in the interval.
    pub dinsts: u64,
    /// BBT blocks translated in the interval.
    pub dbbt_blocks: u64,
    /// Superblocks formed in the interval.
    pub dsbt_superblocks: u64,
    /// Chain patches applied in the interval.
    pub dchains: u64,
    /// Chain patches reverted in the interval.
    pub dunchains: u64,
    /// VMM exits handled in the interval.
    pub dvm_exits: u64,
    /// Tier demotions in the interval.
    pub ddemotions: u64,
    /// Cycles attributed to each [`Phase`] within the interval
    /// (exact fixed point; windows telescope bit-exactly).
    pub dphase: [Cycles; NUM_PHASES],
    /// BBT code-cache bytes live at the end of the interval.
    pub bbt_used_bytes: u64,
    /// SBT code-cache bytes live at the end of the interval.
    pub sbt_used_bytes: u64,
    /// BBT arena occupancy fraction at the end of the interval.
    pub bbt_occupancy: f64,
    /// SBT arena occupancy fraction at the end of the interval.
    pub sbt_occupancy: f64,
    /// BBT translation-table entries at the end of the interval.
    pub bbt_table_entries: u64,
    /// SBT translation-table entries at the end of the interval.
    pub sbt_table_entries: u64,
}

impl WindowSample {
    /// Per-interval x86 IPC (reporting edge: the exact interval width
    /// converts to `f64` once, here).
    pub fn ipc(&self) -> f64 {
        if self.dcycles > Cycles::ZERO {
            self.dinsts as f64 / self.dcycles.to_f64()
        } else {
            0.0
        }
    }

    /// Merges two adjacent intervals (`a` before `b`): deltas sum,
    /// end-of-interval levels come from `b`.
    fn merge(a: &WindowSample, b: &WindowSample) -> WindowSample {
        let mut dphase = a.dphase;
        for (acc, d) in dphase.iter_mut().zip(b.dphase.iter()) {
            *acc += *d;
        }
        WindowSample {
            end_cycles: b.end_cycles,
            dcycles: a.dcycles + b.dcycles,
            dinsts: a.dinsts + b.dinsts,
            dbbt_blocks: a.dbbt_blocks + b.dbbt_blocks,
            dsbt_superblocks: a.dsbt_superblocks + b.dsbt_superblocks,
            dchains: a.dchains + b.dchains,
            dunchains: a.dunchains + b.dunchains,
            dvm_exits: a.dvm_exits + b.dvm_exits,
            ddemotions: a.ddemotions + b.ddemotions,
            dphase,
            bbt_used_bytes: b.bbt_used_bytes,
            sbt_used_bytes: b.sbt_used_bytes,
            bbt_occupancy: b.bbt_occupancy,
            sbt_occupancy: b.sbt_occupancy,
            bbt_table_entries: b.bbt_table_entries,
            sbt_table_entries: b.sbt_table_entries,
        }
    }
}

/// One contiguous interval the system driver spent in a single phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSegment {
    /// The phase.
    pub phase: Phase,
    /// Cycle count at the start of the segment.
    pub start: Cycles,
    /// Cycle count at the end of the segment.
    pub end: Cycles,
}

/// The per-run flight recorder. Owned by `System` while recording;
/// detached with `System::take_telemetry` for export.
#[derive(Debug)]
pub struct FlightRecorder {
    points_per_decade: u32,
    window_cycles: u64,
    next_window_end: u64,
    windows: Vec<WindowSample>,
    last: TelemetrySnapshot,
    instrs: LogSampler,
    translations: LogSampler,
    segments: Vec<PhaseSegment>,
    segment_capacity: usize,
    seg_head: usize,
    seg_recorded: u64,
    bbt_latency: CycleHistogram,
    sbt_latency: CycleHistogram,
    bbt_block_insts: CycleHistogram,
    sbt_block_insts: CycleHistogram,
    chain_burst: CycleHistogram,
}

impl FlightRecorder {
    /// Creates an idle recorder.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        let ppd = cfg.points_per_decade.max(1);
        let window_cycles = cfg.window_cycles.max(1);
        FlightRecorder {
            points_per_decade: ppd,
            window_cycles,
            next_window_end: window_cycles,
            windows: Vec::new(),
            last: TelemetrySnapshot::default(),
            instrs: LogSampler::new(ppd),
            translations: LogSampler::new(ppd),
            segments: Vec::new(),
            segment_capacity: cfg.segment_capacity.max(1),
            seg_head: 0,
            seg_recorded: 0,
            bbt_latency: CycleHistogram::new(),
            sbt_latency: CycleHistogram::new(),
            bbt_block_insts: CycleHistogram::new(),
            sbt_block_insts: CycleHistogram::new(),
            chain_burst: CycleHistogram::new(),
        }
    }

    /// Offers a sequence-point snapshot. Log-spaced samplers see every
    /// offer; a window closes once the snapshot crosses the current
    /// interval boundary.
    pub fn observe(&mut self, snap: &TelemetrySnapshot) {
        self.instrs.record(snap.cycles, snap.x86_retired as f64);
        self.translations
            .record(snap.cycles, (snap.bbt_blocks + snap.sbt_superblocks) as f64);
        if snap.cycles >= self.next_window_end {
            self.close_window(snap);
        }
    }

    /// Final observation at end of run: closes the tail window and
    /// forces the last log-spaced samples.
    pub fn finish(&mut self, snap: &TelemetrySnapshot) {
        if snap.cycles > self.last.cycles || self.windows.is_empty() {
            self.close_window(snap);
        }
        self.instrs.finish(snap.cycles, snap.x86_retired as f64);
        self.translations
            .finish(snap.cycles, (snap.bbt_blocks + snap.sbt_superblocks) as f64);
    }

    fn close_window(&mut self, snap: &TelemetrySnapshot) {
        let mut dphase = snap.phase_cycles;
        for (d, prev) in dphase.iter_mut().zip(self.last.phase_cycles.iter()) {
            *d -= *prev;
        }
        self.windows.push(WindowSample {
            end_cycles: snap.cycles,
            dcycles: snap.cycles_fp - self.last.cycles_fp,
            dinsts: snap.x86_retired - self.last.x86_retired,
            dbbt_blocks: snap.bbt_blocks - self.last.bbt_blocks,
            dsbt_superblocks: snap.sbt_superblocks - self.last.sbt_superblocks,
            dchains: snap.chains - self.last.chains,
            dunchains: snap.unchains - self.last.unchains,
            dvm_exits: snap.vm_exits - self.last.vm_exits,
            ddemotions: snap.demotions - self.last.demotions,
            dphase,
            bbt_used_bytes: snap.bbt_used_bytes,
            sbt_used_bytes: snap.sbt_used_bytes,
            bbt_occupancy: snap.bbt_occupancy,
            sbt_occupancy: snap.sbt_occupancy,
            bbt_table_entries: snap.bbt_table_entries,
            sbt_table_entries: snap.sbt_table_entries,
        });
        self.last = *snap;
        if self.windows.len() >= MAX_WINDOWS {
            self.coalesce();
        }
        self.next_window_end = snap.cycles.saturating_add(self.window_cycles);
    }

    /// Halves the windowed series by merging adjacent pairs and doubles
    /// the interval width — memory stays bounded however long the run.
    fn coalesce(&mut self) {
        let mut merged = Vec::with_capacity(self.windows.len() / 2 + 1);
        let mut pairs = self.windows.chunks_exact(2);
        for p in &mut pairs {
            merged.push(WindowSample::merge(&p[0], &p[1]));
        }
        if let [odd] = pairs.remainder() {
            merged.push(*odd);
        }
        self.windows = merged;
        self.window_cycles = self.window_cycles.saturating_mul(2);
    }

    /// Records one phase segment `[start, end)` (zero-length segments
    /// are skipped; the ring drops oldest segments when full).
    pub fn phase_segment(&mut self, phase: Phase, start: Cycles, end: Cycles) {
        if end <= start {
            return;
        }
        let seg = PhaseSegment { phase, start, end };
        self.seg_recorded += 1;
        if self.segments.len() < self.segment_capacity {
            self.segments.push(seg);
        } else {
            self.segments[self.seg_head] = seg;
            self.seg_head = (self.seg_head + 1) % self.segment_capacity;
        }
    }

    /// Records one successful translation episode: its modeled latency,
    /// the x86 instructions covered, and how many chain patches it
    /// triggered.
    pub fn observe_episode(&mut self, tier: TransKind, latency: Cycles, x86_count: u32, chains: u64) {
        let lat = latency.int_part();
        match tier {
            TransKind::Bbt => {
                self.bbt_latency.record(lat);
                self.bbt_block_insts.record(u64::from(x86_count));
            }
            TransKind::Sbt => {
                self.sbt_latency.record(lat);
                self.sbt_block_insts.record(u64::from(x86_count));
            }
        }
        self.chain_burst.record(chains);
    }

    /// The closed windowed intervals, oldest first.
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Current interval width in cycles (doubles under coalescing).
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// The log-spaced cumulative-instruction samples (aggregate IPC =
    /// `sample.rate()` — the startup curve of Figs. 2/8/11).
    pub fn instr_samples(&self) -> &[cdvm_stats::Sample] {
        self.instrs.samples()
    }

    /// The log-spaced cumulative-translation samples.
    pub fn translation_samples(&self) -> &[cdvm_stats::Sample] {
        self.translations.samples()
    }

    /// Interpolated cumulative-instruction count at `cycles` (None
    /// before the first sample) — the curve-probe used by the startup
    /// figures.
    pub fn instr_value_at(&self, cycles: u64) -> Option<f64> {
        self.instrs.value_at(cycles)
    }

    /// Retained phase segments, oldest first.
    pub fn segments(&self) -> impl Iterator<Item = &PhaseSegment> + '_ {
        self.segments[self.seg_head..]
            .iter()
            .chain(self.segments[..self.seg_head].iter())
    }

    /// Phase segments ever recorded (including dropped ones).
    pub fn segments_recorded(&self) -> u64 {
        self.seg_recorded
    }

    /// Phase segments lost to ring overwrite.
    pub fn segments_dropped(&self) -> u64 {
        self.seg_recorded - self.segments.len() as u64
    }

    /// Translation-latency histogram for `tier`.
    pub fn latency_histogram(&self, tier: TransKind) -> &CycleHistogram {
        match tier {
            TransKind::Bbt => &self.bbt_latency,
            TransKind::Sbt => &self.sbt_latency,
        }
    }

    /// Translated-block-size (x86 instructions) histogram for `tier`.
    pub fn block_size_histogram(&self, tier: TransKind) -> &CycleHistogram {
        match tier {
            TransKind::Bbt => &self.bbt_block_insts,
            TransKind::Sbt => &self.sbt_block_insts,
        }
    }

    /// Chains-applied-per-episode histogram.
    pub fn chain_histogram(&self) -> &CycleHistogram {
        &self.chain_burst
    }

    /// Serializes the recorded series as a metrics tree (the
    /// `<bench>.series.json` payload): windowed per-interval lists,
    /// log-spaced cumulative samples, and histogram summaries.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.set("window_cycles", self.window_cycles)
            .set("points_per_decade", u64::from(self.points_per_decade));

        let mut w = Metrics::new();
        w.set(
            "end_cycles",
            self.windows.iter().map(|x| x.end_cycles).collect::<Vec<_>>(),
        )
        .set(
            "ipc",
            self.windows.iter().map(|x| x.ipc()).collect::<Vec<_>>(),
        )
        .set(
            "dcycles",
            self.windows
                .iter()
                .map(|x| x.dcycles.to_f64())
                .collect::<Vec<_>>(),
        )
        .set(
            "dinsts",
            self.windows.iter().map(|x| x.dinsts).collect::<Vec<_>>(),
        )
        .set(
            "bbt_translations",
            self.windows.iter().map(|x| x.dbbt_blocks).collect::<Vec<_>>(),
        )
        .set(
            "sbt_translations",
            self.windows
                .iter()
                .map(|x| x.dsbt_superblocks)
                .collect::<Vec<_>>(),
        )
        .set(
            "chains",
            self.windows.iter().map(|x| x.dchains).collect::<Vec<_>>(),
        )
        .set(
            "unchains",
            self.windows.iter().map(|x| x.dunchains).collect::<Vec<_>>(),
        )
        .set(
            "vm_exits",
            self.windows.iter().map(|x| x.dvm_exits).collect::<Vec<_>>(),
        )
        .set(
            "demotions",
            self.windows.iter().map(|x| x.ddemotions).collect::<Vec<_>>(),
        )
        .set(
            "bbt_cache_bytes",
            self.windows
                .iter()
                .map(|x| x.bbt_used_bytes)
                .collect::<Vec<_>>(),
        )
        .set(
            "sbt_cache_bytes",
            self.windows
                .iter()
                .map(|x| x.sbt_used_bytes)
                .collect::<Vec<_>>(),
        )
        .set(
            "bbt_occupancy",
            self.windows
                .iter()
                .map(|x| x.bbt_occupancy)
                .collect::<Vec<_>>(),
        )
        .set(
            "sbt_occupancy",
            self.windows
                .iter()
                .map(|x| x.sbt_occupancy)
                .collect::<Vec<_>>(),
        )
        .set(
            "bbt_table_entries",
            self.windows
                .iter()
                .map(|x| x.bbt_table_entries)
                .collect::<Vec<_>>(),
        )
        .set(
            "sbt_table_entries",
            self.windows
                .iter()
                .map(|x| x.sbt_table_entries)
                .collect::<Vec<_>>(),
        );
        let mut phases = Metrics::new();
        for p in Phase::ALL {
            phases.set(
                p.name(),
                self.windows
                    .iter()
                    .map(|x| x.dphase[p as usize].to_f64())
                    .collect::<Vec<_>>(),
            );
        }
        w.set("phase_cycles", phases);
        m.set("windows", w);

        let mut log = Metrics::new();
        log.set(
            "cycles",
            self.instrs.samples().iter().map(|s| s.cycles).collect::<Vec<_>>(),
        )
        .set(
            "x86_retired",
            self.instrs.samples().iter().map(|s| s.value).collect::<Vec<_>>(),
        )
        .set(
            "aggregate_ipc",
            self.instrs.samples().iter().map(|s| s.rate()).collect::<Vec<_>>(),
        )
        .set(
            "translation_cycles",
            self.translations
                .samples()
                .iter()
                .map(|s| s.cycles)
                .collect::<Vec<_>>(),
        )
        .set(
            "translations",
            self.translations
                .samples()
                .iter()
                .map(|s| s.value)
                .collect::<Vec<_>>(),
        );
        m.set("log", log);

        let mut h = Metrics::new();
        h.set("bbt_latency", self.bbt_latency.summary_metrics())
            .set("sbt_latency", self.sbt_latency.summary_metrics())
            .set("bbt_block_insts", self.bbt_block_insts.summary_metrics())
            .set("sbt_block_insts", self.sbt_block_insts.summary_metrics())
            .set("chains_per_episode", self.chain_burst.summary_metrics());
        m.set("histograms", h);

        let mut segs = Metrics::new();
        segs.set("recorded", self.segments_recorded())
            .set("dropped", self.segments_dropped());
        m.set("phase_segments", segs);
        m
    }
}

/// Renders one run's telemetry into `ct` as Chrome `trace_event` tracks
/// under process `pid`: recorder phase durations on tid 0, notable trace
/// events as instants on tid 1, and per-window counter tracks (IPC, cache
/// occupancy, table entries, translation/chain activity, per-phase
/// cycles). One modeled cycle maps to one microsecond, shifted by
/// `offset_us` — `cdvm-serve` uses the shift to place an instance's
/// tracks at the wall point where its job's `stamp` span starts.
pub fn render_chrome(ct: &mut ChromeTrace, pid: u32, label: &str, offset_us: f64, t: &Telemetry) {
    ct.process_name(pid, label);
    ct.thread_name(pid, 0, "phases");
    ct.thread_name(pid, 1, "events");

    let rec = t.recorder.as_deref();
    for seg in rec.into_iter().flat_map(FlightRecorder::segments) {
        ct.complete(
            pid,
            0,
            seg.phase.name(),
            "phase",
            seg.start.to_f64() + offset_us,
            (seg.end - seg.start).to_f64(),
        );
    }

    if let Some(tb) = t.trace.as_deref() {
        for r in tb.iter() {
            let ts = r.cycle as f64 + offset_us;
            let mut args = Metrics::new();
            match r.event {
                TraceEvent::Demoted { entry, tier, error } => {
                    args.set("entry", u64::from(entry))
                        .set("tier", tier.to_string())
                        .set("error", error.to_string());
                    ct.instant_args(pid, 1, "demoted", "tier", ts, &args);
                }
                TraceEvent::CacheFlush {
                    cache,
                    generation,
                    swept_entries,
                } => {
                    args.set("cache", cache.to_string())
                        .set("generation", generation)
                        .set("swept_entries", swept_entries);
                    ct.instant_args(pid, 1, "cache_flush", "cache", ts, &args);
                }
                TraceEvent::WatchdogTrip { which } => {
                    args.set("which", which.to_string());
                    ct.instant_args(pid, 1, "watchdog_trip", "watchdog", ts, &args);
                }
                TraceEvent::FaultRecovered { native_pc, exact } => {
                    args.set("native_pc", u64::from(native_pc)).set("exact", exact);
                    ct.instant_args(pid, 1, "fault_recovered", "fault", ts, &args);
                }
                TraceEvent::Unchained { site, target } => {
                    args.set("site", u64::from(site)).set("target", u64::from(target));
                    ct.instant_args(pid, 1, "unchained", "chain", ts, &args);
                }
                TraceEvent::RestoreApplied { sections, dropped } => {
                    args.set("sections", u64::from(sections))
                        .set("dropped", u64::from(dropped));
                    ct.instant_args(pid, 1, "restore_applied", "restore", ts, &args);
                }
                TraceEvent::RestoreFailed { error } => {
                    args.set("error", error.to_string());
                    ct.instant_args(pid, 1, "restore_failed", "restore", ts, &args);
                }
                TraceEvent::UncrackableInst { pc } => {
                    args.set("pc", u64::from(pc));
                    ct.instant_args(pid, 1, "uncrackable_inst", "decode", ts, &args);
                }
                // Per-block events are far too frequent for instants;
                // the counter tracks below carry that activity.
                TraceEvent::BlockTranslated { .. }
                | TraceEvent::SuperblockFormed { .. }
                | TraceEvent::Chained { .. } => {}
            }
        }
    }

    for w in rec.map_or(&[][..], FlightRecorder::windows) {
        let ts = w.end_cycles as f64 + offset_us;
        ct.counter(pid, "ipc", ts, &[("x86", w.ipc())]);
        ct.counter(
            pid,
            "code_cache_bytes",
            ts,
            &[
                ("bbt", w.bbt_used_bytes as f64),
                ("sbt", w.sbt_used_bytes as f64),
            ],
        );
        ct.counter(
            pid,
            "table_entries",
            ts,
            &[
                ("bbt", w.bbt_table_entries as f64),
                ("sbt", w.sbt_table_entries as f64),
            ],
        );
        ct.counter(
            pid,
            "translations/window",
            ts,
            &[
                ("bbt", w.dbbt_blocks as f64),
                ("sbt", w.dsbt_superblocks as f64),
            ],
        );
        ct.counter(
            pid,
            "chains/window",
            ts,
            &[("chained", w.dchains as f64), ("unchained", w.dunchains as f64)],
        );
        let series: Vec<(&str, f64)> = Phase::ALL
            .iter()
            .map(|p| (p.name(), w.dphase[*p as usize].to_f64()))
            .collect();
        ct.counter(pid, "phase_cycles/window", ts, &series);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn snap(cycles: u64, insts: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cycles,
            cycles_fp: Cycles::from_int(cycles),
            x86_retired: insts,
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn windows_close_on_interval_boundaries() {
        let mut r = FlightRecorder::new(RecorderConfig {
            window_cycles: 100,
            ..RecorderConfig::default()
        });
        r.observe(&snap(50, 10)); // inside first window
        assert!(r.windows().is_empty());
        r.observe(&snap(120, 30));
        assert_eq!(r.windows().len(), 1);
        let w = &r.windows()[0];
        assert_eq!(w.end_cycles, 120);
        assert_eq!(w.dinsts, 30);
        assert!((w.ipc() - 30.0 / 120.0).abs() < 1e-12);
        // Next boundary is 120 + 100.
        r.observe(&snap(200, 50));
        assert_eq!(r.windows().len(), 1);
        r.observe(&snap(230, 60));
        assert_eq!(r.windows().len(), 2);
        assert_eq!(r.windows()[1].dinsts, 30);
    }

    #[test]
    fn coalescing_bounds_memory_and_preserves_totals() {
        let mut r = FlightRecorder::new(RecorderConfig {
            window_cycles: 10,
            ..RecorderConfig::default()
        });
        let mut c = 0u64;
        for i in 0..(MAX_WINDOWS as u64 * 3) {
            c += 10;
            r.observe(&snap(c, i + 1));
        }
        assert!(r.windows().len() < MAX_WINDOWS, "{}", r.windows().len());
        assert!(r.window_cycles() > 10, "width doubled");
        let total: u64 = r.windows().iter().map(|w| w.dinsts).sum();
        let retired_at_last_close = r.last.x86_retired;
        assert_eq!(total, retired_at_last_close, "deltas telescope");
    }

    #[test]
    fn finish_closes_tail_window() {
        let mut r = FlightRecorder::new(RecorderConfig {
            window_cycles: 1_000_000,
            ..RecorderConfig::default()
        });
        r.observe(&snap(10, 5));
        assert!(r.windows().is_empty());
        r.finish(&snap(42, 17));
        assert_eq!(r.windows().len(), 1);
        assert_eq!(r.windows()[0].end_cycles, 42);
        assert_eq!(r.windows()[0].dinsts, 17);
        let last = r.instr_samples().last().unwrap();
        assert_eq!(last.cycles, 42);
        assert_eq!(last.value, 17.0);
    }

    #[test]
    fn segment_ring_drops_oldest() {
        let mut r = FlightRecorder::new(RecorderConfig {
            segment_capacity: 4,
            ..RecorderConfig::default()
        });
        let half = Cycles::from_f64(0.5);
        r.phase_segment(Phase::Vmm, Cycles::from_int(5), Cycles::from_int(5)); // zero-length: skipped
        for i in 0..10u64 {
            r.phase_segment(Phase::Interp, Cycles::from_int(i), Cycles::from_int(i) + half);
        }
        assert_eq!(r.segments_recorded(), 10);
        assert_eq!(r.segments_dropped(), 6);
        let starts: Vec<f64> = r.segments().map(|s| s.start.to_f64()).collect();
        assert_eq!(starts, vec![6.0, 7.0, 8.0, 9.0], "oldest first");
    }

    #[test]
    fn episodes_feed_histograms() {
        let mut r = FlightRecorder::new(RecorderConfig::default());
        r.observe_episode(TransKind::Bbt, Cycles::from_int(83), 5, 1);
        r.observe_episode(TransKind::Bbt, Cycles::from_int(100), 7, 0);
        r.observe_episode(TransKind::Sbt, Cycles::from_int(1200), 40, 3);
        assert_eq!(r.latency_histogram(TransKind::Bbt).count(), 2);
        assert_eq!(r.latency_histogram(TransKind::Sbt).count(), 1);
        assert_eq!(r.block_size_histogram(TransKind::Bbt).max(), 7);
        assert_eq!(r.chain_histogram().count(), 3);
        assert_eq!(r.chain_histogram().max(), 3);
    }

    #[test]
    fn to_metrics_has_series_and_histograms() {
        let mut r = FlightRecorder::new(RecorderConfig {
            window_cycles: 10,
            ..RecorderConfig::default()
        });
        r.observe(&snap(15, 10));
        r.observe_episode(TransKind::Bbt, Cycles::from_int(83), 5, 1);
        r.finish(&snap(40, 30));
        let m = r.to_metrics();
        for k in ["window_cycles", "windows", "log", "histograms", "phase_segments"] {
            assert!(m.get(k).is_some(), "missing {k}");
        }
        let j = m.to_json();
        assert!(j.contains("\"aggregate_ipc\""), "{j}");
        assert!(j.contains("\"bbt_latency\""), "{j}");
        assert!(j.contains("\"p99\""), "{j}");
    }

    #[test]
    fn render_chrome_emits_all_track_kinds() {
        let mut r = FlightRecorder::new(RecorderConfig {
            window_cycles: 10,
            ..RecorderConfig::default()
        });
        r.phase_segment(Phase::Interp, Cycles::ZERO, Cycles::from_int(12));
        r.observe(&snap(15, 10));
        r.finish(&snap(30, 25));
        let mut tb = TraceBuffer::new(16);
        tb.push(
            7,
            TraceEvent::WatchdogTrip {
                which: crate::error::Watchdog::Fuel { limit: 1 },
            },
        );
        let t = Telemetry {
            trace: Some(Box::new(tb)),
            recorder: Some(Box::new(r)),
        };
        let mut ct = ChromeTrace::new();
        render_chrome(&mut ct, 1, "test-run", 0.0, &t);
        let j = ct.to_json();
        assert!(j.contains("\"ph\":\"X\""), "phase durations: {j}");
        assert!(j.contains("\"ph\":\"i\""), "instants: {j}");
        assert!(j.contains("\"watchdog_trip\""), "{j}");
        for track in [
            "ipc",
            "code_cache_bytes",
            "table_entries",
            "translations/window",
            "chains/window",
            "phase_cycles/window",
        ] {
            assert!(j.contains(&format!("\"name\":\"{track}\"")), "missing {track}");
        }
    }
}
