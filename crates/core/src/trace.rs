//! The `cdvm-trace` observability facility: structured event tracing and
//! the VM-phase taxonomy used for per-phase cycle accounting.
//!
//! Two instruments live here (see DESIGN.md §3.7):
//!
//! * [`TraceBuffer`] — a bounded ring buffer of structured
//!   [`TraceEvent`]s, each stamped with the simulated cycle at which it
//!   occurred. The buffer never allocates past its capacity: when full,
//!   the oldest events are overwritten and counted as dropped, so a
//!   misbehaving guest cannot blow up host memory through its own
//!   translation churn.
//! * [`Phase`] — the phase taxonomy the system driver attributes *every*
//!   simulated cycle to. Unlike [`cdvm_uarch::CycleCat`] (which follows
//!   the paper's Fig. 10 charge categories), phases track what the
//!   VM/system loop is *doing*: interpreting, translating, recovering
//!   from a native fault, executing translated code, and so on. The
//!   per-phase totals always sum to the run's total cycles.
//!
//! Tracing is disabled by default and is strictly an observer: enabling
//! it never charges cycles, so simulated results are bit-identical with
//! tracing on or off. The hot path pays one `Option` branch per
//! *recordable event site* (not per instruction) when disabled.

use crate::error::{VmError, Watchdog};

/// What the VM/system loop spends cycles on.
///
/// Every simulated cycle is attributed to exactly one phase by the
/// system driver; `System::phase_snapshot` returns totals that sum to
/// the run's total cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Executing guest x86 code through hardware decoders (Ref always,
    /// VM.fe cold code).
    X86Mode = 0,
    /// Interpreting guest x86 instructions.
    Interp = 1,
    /// Executing translated native code (BBT or SBT tier).
    Native = 2,
    /// Running the basic-block translator in software.
    BbtXlate = 3,
    /// Running the superblock translator/optimizer.
    SbtXlate = 4,
    /// BBT translation through the hardware `XLTx86` assist (VM.be's
    /// `HAloop`).
    XltAssist = 5,
    /// Recovering precise architected state after a native fault.
    FaultRecovery = 6,
    /// Other VMM runtime work: dispatch, lookup, chaining, flush
    /// handling.
    Vmm = 7,
}

/// Number of [`Phase`] values.
pub const NUM_PHASES: usize = 8;

impl Phase {
    /// All phases, in `repr` order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::X86Mode,
        Phase::Interp,
        Phase::Native,
        Phase::BbtXlate,
        Phase::SbtXlate,
        Phase::XltAssist,
        Phase::FaultRecovery,
        Phase::Vmm,
    ];

    /// Stable snake_case name (used as the JSON metrics key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::X86Mode => "x86_mode",
            Phase::Interp => "interp",
            Phase::Native => "native",
            Phase::BbtXlate => "bbt_xlate",
            Phase::SbtXlate => "sbt_xlate",
            Phase::XltAssist => "xlt_assist",
            Phase::FaultRecovery => "fault_recovery",
            Phase::Vmm => "vmm",
        }
    }
}

/// Which translation tier an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// The basic-block translation tier.
    Bbt,
    /// The superblock (hotspot) tier.
    Sbt,
}

impl std::fmt::Display for TierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierKind::Bbt => write!(f, "bbt"),
            TierKind::Sbt => write!(f, "sbt"),
        }
    }
}

/// One structured observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The BBT translated and installed a basic block.
    BlockTranslated {
        /// Guest entry PC of the block.
        entry: u32,
        /// Code-cache address of the translation.
        native: u32,
        /// x86 instructions covered.
        x86_count: u32,
        /// Micro-ops emitted.
        uops: u32,
    },
    /// The SBT formed and installed a superblock for a hot entry.
    SuperblockFormed {
        /// Guest entry PC of the superblock.
        entry: u32,
        /// Code-cache address of the translation.
        native: u32,
        /// x86 instructions covered (with duplication).
        x86_count: u32,
        /// Micro-ops emitted.
        uops: u32,
    },
    /// A region was demoted to a lower tier after a translation error.
    Demoted {
        /// Guest entry PC of the demoted region.
        entry: u32,
        /// The tier that failed (BBT → interpreter, SBT → previous tier).
        tier: TierKind,
        /// The structured error that caused the demotion.
        error: VmError,
    },
    /// A code cache flushed (capacity pressure or full eviction) and its
    /// generation advanced.
    CacheFlush {
        /// Which arena flushed.
        cache: TierKind,
        /// The new (post-flush) generation.
        generation: u64,
        /// Stale lookup-table entries swept by the flush.
        swept_entries: u64,
    },
    /// A resource watchdog tripped and ended the run.
    WatchdogTrip {
        /// The watchdog that fired.
        which: Watchdog,
    },
    /// An exit stub was patched to jump straight to a translation.
    Chained {
        /// Code-cache address of the patched stub slot.
        site: u32,
        /// Architected target the stub was waiting for.
        target: u32,
        /// Native address the site now transfers to.
        dest: u32,
    },
    /// A chain patch was reverted to an exit stub (its target died in a
    /// flush).
    Unchained {
        /// Code-cache address of the reverted slot.
        site: u32,
        /// Architected target restored into the stub.
        target: u32,
    },
    /// Native execution faulted and the VMM recovered precise state.
    FaultRecovered {
        /// Native PC of the faulting micro-op.
        native_pc: u32,
        /// True for an exact (BBT boundary) recovery, false for an
        /// inexact replay from the region entry.
        exact: bool,
    },
    /// A warm image was applied at boot (possibly degraded: independent
    /// sections that failed their checksums were dropped).
    RestoreApplied {
        /// Sections successfully restored.
        sections: u32,
        /// Sections dropped by salvage.
        dropped: u32,
    },
    /// A warm image could not be applied at all; the system continues
    /// from a clean cold boot.
    RestoreFailed {
        /// Why the image was rejected.
        error: crate::error::RestoreError,
    },
    /// The x86-mode timing path met an instruction the cracker could not
    /// crack and fell back to charging one dispatch slot. Emitted
    /// once per run (the first occurrence; `stats.uncrackable_insts`
    /// counts them all) so the timing-model blind spot is visible
    /// instead of silent. Execution itself is unaffected — the
    /// instruction already retired architecturally.
    UncrackableInst {
        /// Address of the first uncrackable instruction.
        pc: u32,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::BlockTranslated {
                entry,
                native,
                x86_count,
                uops,
            } => write!(
                f,
                "bbt-translate  entry={entry:#010x} native={native:#010x} x86={x86_count} uops={uops}"
            ),
            TraceEvent::SuperblockFormed {
                entry,
                native,
                x86_count,
                uops,
            } => write!(
                f,
                "sbt-superblock entry={entry:#010x} native={native:#010x} x86={x86_count} uops={uops}"
            ),
            TraceEvent::Demoted { entry, tier, error } => {
                write!(f, "demote         entry={entry:#010x} tier={tier} ({error})")
            }
            TraceEvent::CacheFlush {
                cache,
                generation,
                swept_entries,
            } => write!(
                f,
                "cache-flush    cache={cache} gen={generation} swept={swept_entries}"
            ),
            TraceEvent::WatchdogTrip { which } => write!(f, "watchdog-trip  {which}"),
            TraceEvent::Chained { site, target, dest } => write!(
                f,
                "chain          site={site:#010x} target={target:#010x} dest={dest:#010x}"
            ),
            TraceEvent::Unchained { site, target } => {
                write!(f, "unchain        site={site:#010x} target={target:#010x}")
            }
            TraceEvent::FaultRecovered { native_pc, exact } => write!(
                f,
                "fault-recover  native={native_pc:#010x} {}",
                if *exact { "exact" } else { "inexact-replay" }
            ),
            TraceEvent::RestoreApplied { sections, dropped } => {
                write!(f, "restore        sections={sections} dropped={dropped}")
            }
            TraceEvent::RestoreFailed { error } => {
                write!(f, "restore-fail   {error}")
            }
            TraceEvent::UncrackableInst { pc } => {
                write!(f, "uncrackable    pc={pc:#010x}")
            }
        }
    }
}

impl TraceEvent {
    /// Stable snake_case kind tag (used for summaries and metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::BlockTranslated { .. } => "block_translated",
            TraceEvent::SuperblockFormed { .. } => "superblock_formed",
            TraceEvent::Demoted { .. } => "demoted",
            TraceEvent::CacheFlush { .. } => "cache_flush",
            TraceEvent::WatchdogTrip { .. } => "watchdog_trip",
            TraceEvent::Chained { .. } => "chained",
            TraceEvent::Unchained { .. } => "unchained",
            TraceEvent::FaultRecovered { .. } => "fault_recovered",
            TraceEvent::RestoreApplied { .. } => "restore_applied",
            TraceEvent::RestoreFailed { .. } => "restore_failed",
            TraceEvent::UncrackableInst { .. } => "uncrackable_inst",
        }
    }
}

/// One recorded event with its timestamps.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Simulated cycle at which the event was recorded.
    pub cycle: u64,
    /// Monotonic sequence number (total order, breaks cycle ties).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    capacity: usize,
    head: usize,
    recorded: u64,
}

/// Default ring capacity (events): what `CDVM_TRACE=1` and
/// `TelemetryConfig::full` arm.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl TraceBuffer {
    /// Creates an empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            records: Vec::new(),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    pub fn push(&mut self, cycle: u64, event: TraceEvent) {
        let rec = TraceRecord {
            cycle,
            seq: self.recorded,
            event,
        };
        self.recorded += 1;
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.records.len() as u64
    }

    /// Iterates over the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records[self.head..]
            .iter()
            .chain(self.records[..self.head].iter())
    }

    /// Count of retained events per kind tag, sorted by kind.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for r in self.iter() {
            let k = r.event.kind();
            match counts.iter_mut().find(|(name, _)| *name == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((k, 1)),
            }
        }
        counts.sort_by_key(|&(name, _)| name);
        counts
    }
}

/// A cheap handle wrapping an optional [`TraceBuffer`].
///
/// The off path is a single `Option` discriminant test; no timestamping
/// or allocation happens while disabled. The owner advances the clock
/// with [`Trace::tick`] at VMM boundaries; recording sites then stamp
/// events with the latest tick.
#[derive(Debug, Default)]
pub struct Trace {
    buf: Option<Box<TraceBuffer>>,
    now: u64,
}

impl Trace {
    /// A disabled trace handle.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// Arms an empty ring of `capacity` events, or disarms tracing and
    /// discards what was recorded when `capacity` is `None`.
    pub fn set(&mut self, capacity: Option<usize>) {
        self.buf = capacity.map(|cap| Box::new(TraceBuffer::new(cap)));
    }

    /// Detaches the ring (tracing is off afterwards).
    pub fn take(&mut self) -> Option<Box<TraceBuffer>> {
        self.buf.take()
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Advances the event clock to `cycles` (no-op while disabled).
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        if self.buf.is_some() {
            self.now = cycles;
        }
    }

    /// Records an event at the current clock (no-op while disabled).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(self.now, event);
        }
    }

    /// Records an event produced lazily — the closure only runs when
    /// tracing is enabled, keeping argument computation off the disabled
    /// path.
    #[inline]
    pub fn record_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = self.buf.as_mut() {
            let now = self.now;
            buf.push(now, f());
        }
    }

    /// The underlying buffer, when enabled.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.buf.as_deref()
    }
}

/// Parses a `CDVM_*` enable value: the one vocabulary every switch and
/// capacity variable in the workspace shares. Unset, empty, `off`,
/// `false` and `no` disable; `1`, `on`, `true` and `yes` select
/// `default`; any other positive decimal is a capacity (`CDVM_TRACE`,
/// `CDVM_RECORDER`). `0` and unparseable values are rejected with a
/// stderr diagnostic naming `var` and disable the facility, so a typo
/// never masquerades as "off" silently.
pub fn parse_enable_env(var: &str, raw: Option<&str>, default: usize) -> Option<usize> {
    let v = raw?;
    match v.trim() {
        "" | "off" | "false" | "no" => None,
        "1" | "on" | "true" | "yes" => Some(default),
        "0" => {
            eprintln!("cdvm: invalid {var}=0 (use `off` to disable); disabling");
            None
        }
        other => match other.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("cdvm: unparseable {var}={other:?} (expected `on` or `off`); disabling");
                None
            }
        },
    }
}

/// An on/off switch (`CDVM_BENCH_CHECK`, `CDVM_SPANS`, ...) read with
/// [`parse_enable_env`]'s vocabulary. Unset gives `default`; any value
/// set selects on or off by its spelling alone, so `CDVM_SPANS=0`
/// disarms a default-on switch. A capacity number other than 1 means
/// nothing to a switch and is rejected like garbage.
pub fn parse_switch(var: &str, raw: Option<&str>, default: bool) -> bool {
    let Some(v) = raw else {
        return default;
    };
    match parse_enable_env(var, Some(v), 1) {
        Some(1) => true,
        Some(_) => {
            eprintln!(
                "cdvm: unparseable {var}={:?} (expected `on` or `off`); disabling",
                v.trim()
            );
            false
        }
        None => false,
    }
}

/// [`parse_switch`] over the process environment.
pub fn env_switch(var: &str, default: bool) -> bool {
    parse_switch(var, std::env::var(var).ok().as_deref(), default)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn ev(n: u32) -> TraceEvent {
        TraceEvent::Chained {
            site: n,
            target: n,
            dest: n,
        }
    }

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let mut b = TraceBuffer::new(4);
        for i in 0..10u32 {
            b.push(i as u64, ev(i));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.recorded(), 10);
        assert_eq!(b.dropped(), 6);
        let cycles: Vec<u64> = b.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest-first iteration");
        let seqs: Vec<u64> = b.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq is monotonic");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.tick(100);
        t.record(ev(1));
        t.record_with(|| panic!("must not be evaluated while disabled"));
        assert!(!t.is_enabled());
        assert!(t.buffer().is_none());
    }

    #[test]
    fn enabled_trace_stamps_with_latest_tick() {
        let mut t = Trace::disabled();
        t.set(Some(8));
        t.tick(42);
        t.record(ev(1));
        t.tick(99);
        t.record_with(|| ev(2));
        let buf = t.take().unwrap();
        let stamps: Vec<u64> = buf.iter().map(|r| r.cycle).collect();
        assert_eq!(stamps, vec![42, 99]);
        assert!(!t.is_enabled(), "taking the ring disarms tracing");
        t.set(Some(8));
        t.set(None);
        assert!(t.buffer().is_none(), "set(None) disarms");
    }

    #[test]
    fn kind_counts_aggregate() {
        let mut b = TraceBuffer::new(16);
        b.push(0, ev(1));
        b.push(1, ev(2));
        b.push(
            2,
            TraceEvent::WatchdogTrip {
                which: Watchdog::Fuel { limit: 5 },
            },
        );
        let counts = b.kind_counts();
        assert_eq!(counts, vec![("chained", 2), ("watchdog_trip", 1)]);
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_PHASES);
        assert_eq!(Phase::ALL[Phase::Native as usize], Phase::Native);
    }

    #[test]
    fn enable_env_accepts_switches_and_capacities() {
        let p = |raw| parse_enable_env("CDVM_TRACE", raw, 64);
        assert_eq!(p(None), None);
        for off in ["", "off", "false", "no", " off "] {
            assert_eq!(p(Some(off)), None, "{off:?}");
        }
        for on in ["1", "on", "true", "yes", " on "] {
            assert_eq!(p(Some(on)), Some(64), "{on:?}");
        }
        assert_eq!(p(Some("4096")), Some(4096));
        assert_eq!(p(Some(" 8 ")), Some(8));
    }

    #[test]
    fn enable_env_rejects_zero_and_garbage() {
        let p = |raw| parse_enable_env("CDVM_TRACE", raw, 64);
        // Rejected (with a stderr diagnostic) rather than silently off.
        assert_eq!(p(Some("0")), None);
        assert_eq!(p(Some("banana")), None);
        assert_eq!(p(Some("-5")), None);
        assert_eq!(p(Some("1e6")), None);
    }

    #[test]
    fn default_on_switch_takes_every_spelling() {
        let p = |raw| parse_switch("CDVM_SPANS", raw, true);
        assert!(p(None), "unset keeps the default");
        for off in ["", "  ", "off", "false", "no", "0", " 0 ", "2", "yep", "-1"] {
            assert!(!p(Some(off)), "{off:?} must disarm");
        }
        for on in ["1", "on", "true", "yes", " on "] {
            assert!(p(Some(on)), "{on:?} must arm");
        }
        assert!(
            !parse_switch("CDVM_CAPTURE", None, false),
            "default-off stays off"
        );
    }

    #[test]
    fn event_display_is_human_readable() {
        let e = TraceEvent::BlockTranslated {
            entry: 0x40_0000,
            native: 0x8000_0000,
            x86_count: 5,
            uops: 9,
        };
        let s = e.to_string();
        assert!(s.contains("0x00400000") && s.contains("x86=5"), "{s}");
        assert_eq!(e.kind(), "block_translated");
    }
}
