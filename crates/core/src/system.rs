//! The full-system driver: functional execution and timing for one
//! machine configuration running one guest program.
//!
//! `System` implements the staged-emulation flowchart of Fig. 1b for each
//! of the paper's machines:
//!
//! * **Ref: superscalar** — every instruction executes in x86-mode
//!   through the hardware-decoder timing path.
//! * **VM.soft / VM.be** — BBT-first staged translation with software
//!   profiling; VM.be charges the `HAloop` (Fig. 6a) instead of software
//!   Δ_BBT for hardware-crackable instructions.
//! * **VM.fe** — dual-mode decoders: cold code executes in x86-mode (no
//!   BBT at all), the hardware BBB detects hotspots, and only SBT
//!   translations run natively.
//! * **VM.interp** — interpretation (threshold 25) before SBT, the
//!   second curve of Fig. 2.


use cdvm_cracker::crack;
use cdvm_fisa::{CodeSource, ExitCode, Executor, NExit, NFault, NativeState};
use cdvm_mem::{CodeCache, GuestMem, Memory, NativePc};
use cdvm_uarch::{Bbb, BbbConfig, CycleCat, Cycles, MachineConfig, MachineKind, Timing};
use cdvm_x86::{BranchKind, Cpu, Fault, Interp, Mnemonic};

use crate::error::{RestoreError, VmError, Watchdog};
use crate::pcmap::{PcCounter, PcSet};
use crate::profile::{dispatch_slot, COUNTER_BASE, DISPATCH_BASE, DISPATCH_ENTRIES};
use crate::recorder::{FlightRecorder, Telemetry, TelemetryConfig, TelemetrySnapshot};
use crate::sbt::translate_sbt;
use crate::snapshot::{
    self, BlockRec, BlocksSection, CacheSection, ChainsSection, CodeGroup, CountersSection,
    CreditsSection, EdgesSection, MetaSection, SetsSection, TableSection, WarmImage,
};
use crate::vm::Translation;
use crate::trace::{Phase, TierKind, TraceBuffer, TraceEvent, NUM_PHASES};
use crate::vm::{TransKind, Vm};

/// Default initial stack pointer for guest programs.
pub const DEFAULT_STACK_TOP: u32 = 0x7ff0_0000;

/// Execution status after a stepping call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// More work to do.
    Running,
    /// The guest executed `HLT`.
    Halted,
    /// An architectural fault reached the VMM unhandled.
    Faulted(Fault),
    /// An armed resource watchdog terminated a pathological guest.
    Exhausted(Watchdog),
    /// A VMM invariant broke (bad native fetch/encoding, fault
    /// divergence): the run stops rather than execute wrong code. This
    /// is a VMM bug surfaced as data, never a host panic.
    Broken(VmError),
}

impl Status {
    /// True for every architected end state a guest can reach
    /// (`Halted`, `Faulted`, or watchdog-`Exhausted`). `Broken` is not
    /// architected — it reports a VMM defect.
    pub fn is_architected_end(&self) -> bool {
        matches!(
            self,
            Status::Halted | Status::Faulted(_) | Status::Exhausted(_)
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    X86,
    Native,
}

/// What stops a run at a retirement boundary.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// The slice's retire goal: the run goes on in the next slice.
    Goal,
    /// An armed watchdog: the run ends.
    Trip(Watchdog),
}

/// The order in which a run stops at a retirement boundary: the retire
/// goal, then the fuel watchdog, then the translation watchdog. Built
/// once per batch ([`System::stop_rule`]), it is the one rule that
/// `run_slice` applies between steps and both batch loops apply per
/// retirement.
#[derive(Debug, Clone, Copy)]
struct StopRule {
    goal: u64,
    fuel: Option<u64>,
    /// The translation watchdog, when it has already tripped.
    /// Translation counts change only between batches (hot detection
    /// ends an x86 batch before translating, and native batches never
    /// translate), so it fires at a batch's first retirement or not at
    /// all.
    translations: Option<Watchdog>,
    /// The goal and the fuel limit are both thresholds on `x86_retired`:
    /// their minimum makes one compare per retirement.
    stop_at: u64,
}

impl StopRule {
    /// What stops the run once `retired` instructions have retired.
    #[inline(always)]
    fn check(&self, retired: u64) -> Option<Stop> {
        if retired < self.stop_at && self.translations.is_none() {
            return None;
        }
        self.which(retired)
    }

    #[cold]
    fn which(&self, retired: u64) -> Option<Stop> {
        if retired >= self.goal {
            Some(Stop::Goal)
        } else if let Some(limit) = self.fuel.filter(|&limit| retired >= limit) {
            Some(Stop::Trip(Watchdog::Fuel { limit }))
        } else {
            self.translations.map(Stop::Trip)
        }
    }
}

/// End-of-run summary counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemStats {
    /// x86 instructions retired in x86-mode (hardware decoders).
    pub x86_mode_retired: u64,
    /// x86 instructions retired through the interpreter.
    pub interp_retired: u64,
    /// x86 instructions retired from BBT translations.
    pub bbt_retired: u64,
    /// x86 instructions retired from SBT translations.
    pub sbt_retired: u64,
    /// Mode switches between x86-mode and native mode.
    pub mode_switches: u64,
    /// VMM exits handled (translate misses, indirect misses, hot traps).
    pub vm_exits: u64,
    /// VMM exits by kind: [TranslateMiss, IndirectMiss, HotTrap].
    pub vm_exit_kinds: [u64; 3],
    /// Blocks demoted from BBT to interpretation (translation failed).
    pub bbt_demotions: u64,
    /// Hot entries demoted from SBT to their previous tier (superblock
    /// translation failed; the entry is blacklisted from promotion).
    pub sbt_demotions: u64,
    /// Native faults recovered at an exact instruction boundary (BBT).
    pub exact_fault_recoveries: u64,
    /// Native faults recovered by replaying from the region entry (SBT).
    pub inexact_fault_recoveries: u64,
    /// Resource watchdogs that tripped (at most one per run).
    pub watchdog_trips: u64,
    /// x86-mode instruction decodes whose dispatch-slot demand fell back
    /// to one slot because the cracker could not crack them, counted once
    /// per decoded instruction per decoder generation. A timing-model
    /// blind spot, not an execution error: the instruction already
    /// retired architecturally. The only crack failure left is
    /// temporary-register exhaustion, which no decoded form reaches (the
    /// cracker's form sweep checks every one), so this stays 0; it is
    /// kept as an exported metric. The first occurrence also emits a
    /// [`TraceEvent::UncrackableInst`].
    pub uncrackable_insts: u64,
    /// Warm-image restores applied (fully or degraded).
    pub restores: u64,
    /// Sections dropped by corruption-tolerant salvage across restores.
    pub restore_degraded: u64,
    /// Warm-image restores rejected entirely (the run cold-booted).
    pub restore_failed: u64,
    /// Cycles attributed to each [`Phase`] (indexed by `Phase as usize`),
    /// in exact fixed point. Updated at phase transitions; call
    /// [`System::phase_snapshot`] to flush the tail of the current phase
    /// before reading. The totals sum bit-exactly to the timing model's
    /// fixed-point cycle total.
    pub phase_cycles: [Cycles; NUM_PHASES],
}

/// One guest program running on one simulated machine.
pub struct System {
    /// Which machine this is.
    pub kind: MachineKind,
    /// Machine parameters.
    pub cfg: MachineConfig,
    /// Guest memory (binary already loaded: memory-startup scenario 2).
    pub mem: GuestMem,
    /// Cycle accounting.
    pub timing: Timing,
    /// x86 interpreter (also the shared decoder).
    pub interp: Interp,
    /// Translation subsystem (absent on the reference machine).
    pub vm: Option<Vm>,
    /// Hardware hotspot detector (VM.fe).
    pub bbb: Option<Bbb>,
    exec: Executor,
    nstate: NativeState,
    cpu: Cpu,
    mode: Mode,
    started: bool,
    halted: bool,
    x86_retired: u64,
    cur_region_entry: u32,
    /// SBT arena base, cached off the VM config so the per-uop
    /// BBT-vs-SBT attribution test is one compare.
    sbt_base: u32,
    pending_evict: bool,
    sbt_gen_seen: u64,
    interp_counters: PcCounter,
    /// Blocks that failed BBT translation: they execute through the
    /// interpreter instead (degradation ladder, see DESIGN.md).
    demoted: PcSet,
    /// Hot entries that failed superblock translation: never re-promoted.
    sbt_blacklist: PcSet,
    /// The most recent translation/VMM error (demotions keep running, so
    /// this is diagnostic, not fatal).
    last_vm_error: Option<VmError>,
    watchdog_fuel: Option<u64>,
    watchdog_max_translations: Option<u64>,
    watchdog_storm_flushes: Option<u32>,
    tripped: Option<Watchdog>,
    retired_at_last_flush: u64,
    storm_consecutive: u32,
    /// Phase the cycles since `phase_mark` belong to.
    cur_phase: Phase,
    /// Cycle count at the last phase transition.
    phase_mark: Cycles,
    /// The startup flight recorder, when telemetry is enabled. Boxed so
    /// the disabled case costs one pointer in `System` and one branch at
    /// each sequence point.
    recorder: Option<Box<FlightRecorder>>,
    /// Summary counters.
    pub stats: SystemStats,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("kind", &self.kind)
            .field("cycles", &self.timing.cycles())
            .field("x86_retired", &self.x86_retired)
            .finish()
    }
}

impl System {
    /// Creates a system with the guest image in `mem` and execution
    /// starting at `entry`. The stack pointer is initialised to
    /// [`DEFAULT_STACK_TOP`].
    pub fn new(kind: MachineKind, mem: GuestMem, entry: u32) -> System {
        let cfg = MachineConfig::preset(kind);
        Self::with_config(cfg, mem, entry)
    }

    /// Creates a system with explicit machine parameters (threshold and
    /// code-cache sweeps).
    pub fn with_config(cfg: MachineConfig, mem: GuestMem, entry: u32) -> System {
        let kind = cfg.kind;
        let mut cpu = Cpu::at(entry);
        cpu.gpr[cdvm_x86::Gpr::Esp as usize] = DEFAULT_STACK_TOP;
        let vm = match kind {
            MachineKind::RefSuperscalar => None,
            MachineKind::VmFe => Some(Vm::new(
                cfg.bbt_cache_bytes,
                cfg.sbt_cache_bytes,
                cfg.hot_threshold,
                false,
            )),
            MachineKind::VmInterp => Some(Vm::new(
                cfg.bbt_cache_bytes,
                cfg.sbt_cache_bytes,
                cfg.interp_hot_threshold,
                false,
            )),
            _ => Some(Vm::new(
                cfg.bbt_cache_bytes,
                cfg.sbt_cache_bytes,
                cfg.hot_threshold,
                true,
            )),
        };
        let bbb = (kind == MachineKind::VmFe).then(|| {
            Bbb::new(BbbConfig {
                entries: 4096,
                hot_threshold: cfg.hot_threshold,
            })
        });
        let mut nstate = NativeState::new();
        nstate.r[cdvm_fisa::regs::PROF_BASE as usize] = COUNTER_BASE;
        let sbt_base = vm
            .as_ref()
            .map_or(u32::MAX, |vm| vm.sbt_cache.config().base);
        let mut sys = System {
            kind,
            cfg,
            mem,
            timing: Timing::new(cfg),
            interp: Interp::new(),
            vm,
            bbb,
            exec: Executor::new(),
            nstate,
            cpu,
            mode: Mode::X86,
            started: false,
            halted: false,
            x86_retired: 0,
            cur_region_entry: entry,
            sbt_base,
            pending_evict: false,
            sbt_gen_seen: 0,
            interp_counters: PcCounter::new(),
            demoted: PcSet::new(),
            sbt_blacklist: PcSet::new(),
            last_vm_error: None,
            watchdog_fuel: None,
            watchdog_max_translations: None,
            watchdog_storm_flushes: None,
            tripped: None,
            retired_at_last_flush: 0,
            storm_consecutive: 0,
            cur_phase: Phase::Vmm,
            phase_mark: Cycles::ZERO,
            recorder: None,
            stats: SystemStats::default(),
        };
        sys.set_telemetry(TelemetryConfig::from_env());
        sys
    }

    /// Arms, re-arms or disarms telemetry: each collector `cfg` names
    /// starts empty, and each it leaves `None` is dropped with whatever
    /// it recorded. The recorder works on every machine kind (the
    /// reference machine still has IPC and phase telemetry); the trace
    /// ring lives in the VM, so the reference machine never traces.
    /// Observation-only: neither collector touches the modeled clock.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        if let Some(vm) = self.vm.as_mut() {
            vm.trace.set(cfg.trace);
        }
        self.recorder = cfg.recorder.map(|c| Box::new(FlightRecorder::new(c)));
    }

    /// The recorded event trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.vm.as_ref().and_then(|vm| vm.trace.buffer())
    }

    /// The flight recorder, when telemetry is enabled.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Detaches both collectors for export; telemetry is off afterwards.
    /// The recorder is finalized first: the in-progress phase tail
    /// becomes a segment, the tail window closes and the last log-spaced
    /// samples are forced. The trace ring moves out as it is.
    pub fn take_telemetry(&mut self) -> Telemetry {
        let mut recorder = self.recorder.take();
        if let Some(rec) = recorder.as_mut() {
            rec.phase_segment(self.cur_phase, self.phase_mark, self.timing.cycles_fp());
            rec.finish(&self.telemetry_snapshot());
        }
        Telemetry {
            trace: self.vm.as_mut().and_then(|vm| vm.trace.take()),
            recorder,
        }
    }

    /// Builds a read-only counter snapshot for the recorder. Pure
    /// observation: every field is copied through `&self` reads
    /// (including [`System::phase_peek`]), so polling cannot perturb
    /// modeled state.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            cycles: self.timing.cycles(),
            cycles_fp: self.timing.cycles_fp(),
            x86_retired: self.x86_retired,
            phase_cycles: self.phase_peek(),
            vm_exits: self.stats.vm_exits,
            demotions: self.stats.bbt_demotions + self.stats.sbt_demotions,
            ..TelemetrySnapshot::default()
        };
        if let Some(vm) = self.vm.as_ref() {
            s.bbt_blocks = vm.stats.bbt_blocks;
            s.sbt_superblocks = vm.stats.sbt_superblocks;
            s.chains = vm.stats.chains_applied;
            s.unchains = vm.stats.unchains;
            s.bbt_used_bytes = vm.bbt_cache.stats().used_bytes as u64;
            s.sbt_used_bytes = vm.sbt_cache.stats().used_bytes as u64;
            s.bbt_occupancy = vm.bbt_cache.occupancy();
            s.sbt_occupancy = vm.sbt_cache.occupancy();
            s.bbt_table_entries = vm.bbt_table.len() as u64;
            s.sbt_table_entries = vm.sbt_table.len() as u64;
            s.bbt_table_load = vm.bbt_table.load_factor();
            s.sbt_table_load = vm.sbt_table.load_factor();
        }
        s
    }

    /// Offers the current counters to the recorder (called at
    /// `run_slice` boundaries — the driver's sequence points).
    fn poll_recorder(&mut self) {
        let snap = self.telemetry_snapshot();
        if let Some(rec) = self.recorder.as_mut() {
            rec.observe(&snap);
        }
    }

    /// Attributes the cycles since the last transition to the phase that
    /// just ended, then switches to `p`. Mirrors `timing.set_category`
    /// sites; pure observation — never charges cycles itself, so enabling
    /// phase accounting cannot perturb simulated results.
    #[inline]
    fn set_phase(&mut self, p: Phase) {
        if p == self.cur_phase {
            return;
        }
        let now = self.timing.cycles_fp();
        self.stats.phase_cycles[self.cur_phase as usize] += now - self.phase_mark;
        if let Some(rec) = self.recorder.as_mut() {
            rec.phase_segment(self.cur_phase, self.phase_mark, now);
        }
        self.phase_mark = now;
        self.cur_phase = p;
    }

    /// Flushes the in-progress phase and returns per-phase cycle totals
    /// (indexed by `Phase as usize`). Fixed-point attribution is a
    /// telescoping sum over every cycle charged so far, so the totals
    /// sum bit-exactly to [`Timing::cycles_fp`].
    pub fn phase_snapshot(&mut self) -> [Cycles; NUM_PHASES] {
        let now = self.timing.cycles_fp();
        self.stats.phase_cycles[self.cur_phase as usize] += now - self.phase_mark;
        self.phase_mark = now;
        self.stats.phase_cycles
    }

    /// Per-phase cycle totals including the in-progress phase tail,
    /// *without* folding that tail into the accumulators. The telemetry
    /// read path: repeated peeks leave [`SystemStats::phase_cycles`]
    /// untouched. (Fixed-point addition is exact, so peek and snapshot
    /// now agree bit-for-bit; peek is kept as the `&self` observer.)
    pub fn phase_peek(&self) -> [Cycles; NUM_PHASES] {
        let mut p = self.stats.phase_cycles;
        p[self.cur_phase as usize] += self.timing.cycles_fp() - self.phase_mark;
        p
    }

    /// Advances the trace clock to the current cycle count (events
    /// recorded by the VM layer are stamped with the latest tick).
    #[inline]
    fn tick_trace(&mut self) {
        if let Some(vm) = self.vm.as_mut() {
            if vm.trace.is_enabled() {
                vm.trace.tick(self.timing.cycles());
            }
        }
    }

    /// Arms the instruction-fuel watchdog: the run ends
    /// [`Status::Exhausted`] once `limit` x86 instructions have retired.
    pub fn arm_fuel_watchdog(&mut self, limit: u64) {
        self.watchdog_fuel = Some(limit);
    }

    /// Arms the translation-budget watchdog: the run ends
    /// [`Status::Exhausted`] once the VM has produced `limit` translated
    /// regions (BBT blocks + superblocks, including retranslations).
    pub fn arm_translation_watchdog(&mut self, limit: u64) {
        self.watchdog_max_translations = Some(limit);
    }

    /// Arms the retranslation-storm watchdog: the run ends
    /// [`Status::Exhausted`] after `flushes` consecutive code-cache
    /// pressure flushes with almost no guest progress between them.
    pub fn arm_storm_watchdog(&mut self, flushes: u32) {
        self.watchdog_storm_flushes = Some(flushes.max(1));
    }

    /// The most recent structured VMM error, if any. Demotions keep the
    /// guest running, so this is diagnostic: it names the error that
    /// caused the latest tier demotion (or the [`Status::Broken`] cause).
    pub fn last_vm_error(&self) -> Option<VmError> {
        self.last_vm_error
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.timing.cycles()
    }

    /// Total retired x86 instructions.
    pub fn x86_retired(&self) -> u64 {
        self.x86_retired
    }

    /// Decoded micro-op runs currently cached by the native executor
    /// (diagnostic: code-cache flushes must shed stale generations).
    pub fn decoded_runs(&self) -> usize {
        self.exec.cached_runs()
    }

    /// True after the guest executed `HLT`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The architected CPU state (meaningful at VMM boundaries; in
    /// native mode the mapped registers are live in the native state).
    pub fn cpu(&self) -> Cpu {
        match self.mode {
            Mode::X86 => self.cpu,
            Mode::Native => self.nstate.to_cpu(),
        }
    }

    /// Mutable access to the architected CPU (test setup).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Hotspot coverage: fraction of retired instructions executed from
    /// SBT-optimized code.
    pub fn hotspot_coverage(&self) -> f64 {
        if self.x86_retired == 0 {
            0.0
        } else {
            self.stats.sbt_retired as f64 / self.x86_retired as f64
        }
    }

    /// Fraction of cycles each category consumed so far.
    pub fn category_fraction(&self, cat: CycleCat) -> f64 {
        let total = self.timing.cycles_f();
        if total == 0.0 {
            0.0
        } else {
            self.timing.category_cycles(cat) / total
        }
    }

    /// Runs until `max_insts` more x86 instructions retire, the guest
    /// halts, a fault surfaces, or an armed watchdog trips.
    pub fn run_slice(&mut self, max_insts: u64) -> Status {
        let st = self.run_slice_inner(max_insts);
        if self.recorder.is_some() {
            self.poll_recorder();
        }
        st
    }

    fn run_slice_inner(&mut self, max_insts: u64) -> Status {
        if self.halted {
            return Status::Halted;
        }
        if let Some(w) = self.tripped {
            return Status::Exhausted(w);
        }
        if !self.started {
            self.started = true;
            if matches!(self.kind, MachineKind::VmSoft | MachineKind::VmBe) {
                let entry = self.cpu.eip;
                self.dispatch_to(entry);
            }
        }
        let goal = self.x86_retired + max_insts;
        loop {
            if let Some(stop) = self.stop_rule(goal).check(self.x86_retired) {
                return self.stop(stop);
            }
            let st = match self.mode {
                Mode::X86 => self.step_x86(goal),
                Mode::Native => self.step_native(goal),
            };
            match st {
                Status::Running => {}
                other => return other,
            }
            if let Some(w) = self.tripped {
                // The storm detector trips from inside translation.
                self.stats.watchdog_trips += 1;
                self.tick_trace();
                if let Some(vm) = self.vm.as_mut() {
                    vm.trace.record(TraceEvent::WatchdogTrip { which: w });
                }
                return Status::Exhausted(w);
            }
        }
    }

    /// Ends a step at `stop`: the goal keeps the run going, a watchdog
    /// ends it.
    fn stop(&mut self, stop: Stop) -> Status {
        match stop {
            Stop::Goal => Status::Running,
            Stop::Trip(w) => self.trip(w),
        }
    }

    fn trip(&mut self, w: Watchdog) -> Status {
        self.tripped = Some(w);
        self.stats.watchdog_trips += 1;
        self.tick_trace();
        if let Some(vm) = self.vm.as_mut() {
            vm.trace.record(TraceEvent::WatchdogTrip { which: w });
        }
        Status::Exhausted(w)
    }

    /// The stop rule toward `goal`, from the armed watchdogs and the
    /// translation count as they stand now.
    fn stop_rule(&self, goal: u64) -> StopRule {
        let translated = self
            .vm
            .as_ref()
            .map(|vm| vm.stats.bbt_blocks + vm.stats.sbt_superblocks);
        StopRule {
            goal,
            fuel: self.watchdog_fuel,
            translations: self
                .watchdog_max_translations
                .filter(|&limit| translated.is_some_and(|n| n >= limit))
                .map(|limit| Watchdog::Translations { limit }),
            stop_at: goal.min(self.watchdog_fuel.unwrap_or(u64::MAX)),
        }
    }

    /// X86-mode (or interpreted) instructions, batched like
    /// [`System::step_native`]: the per-instruction loop lives inside
    /// [`Interp::step_batch`] and the retire closure here inlines into
    /// it, touching only disjoint pre-split fields
    /// (timing/stats/profilers/VM) while it runs. The batch ends — with
    /// a structured reason — on exactly the events that need `&mut
    /// System`: halts, faults, hot detection firing (`sbt_translate`),
    /// translation-table hits (`enter_native`), VMM dispatches out of
    /// demoted regions, the retire goal, and watchdog sequence points.
    ///
    /// Observation-equivalence to the old one-instruction-at-a-time
    /// loop: the [`StopRule`] runs per retirement, in the same order as
    /// `run_slice` applies it between steps, the phase and
    /// category are constant across the whole batch so hoisting
    /// `set_phase`/`set_category` out of the loop is exact, and REP
    /// iterations keep their mid-iteration non-retirement semantics.
    fn step_x86(&mut self, goal: u64) -> Status {
        // Why the batch loop ends.
        enum X86End {
            Fault(Fault),
            Halt,
            Stop(Stop),
            /// Hot detection fired at a taken branch: the driver runs
            /// `sbt_translate(hot_pc)` and then resolves the branch
            /// target exactly like the unbatched tail did.
            Hot { hot_pc: u32, next_pc: u32 },
            /// The branch target already has a translation.
            Enter { native: NativePc, next_pc: u32 },
            /// VM.soft/VM.be control transfer out of a demoted region
            /// goes back through the VMM dispatcher.
            Dispatch { target: u32 },
        }
        // VM.soft/VM.be have no x86-mode hardware path: when a demoted
        // block forces them into x86-mode they pay interpreter timing.
        let interp_tier = matches!(
            self.kind,
            MachineKind::VmInterp | MachineKind::VmSoft | MachineKind::VmBe
        );
        loop {
            // Nothing inside the batch changes phase or category, so the
            // telescoping set_phase runs once per batch, not per inst.
            if interp_tier {
                self.set_phase(Phase::Interp);
                self.timing.set_category(CycleCat::InterpEmu);
            } else {
                self.set_phase(Phase::X86Mode);
                self.timing.set_category(CycleCat::X86Mode);
            }
            let rule = self.stop_rule(goal);
            let end = {
                let timing = &mut self.timing;
                let stats = &mut self.stats;
                let x86_retired = &mut self.x86_retired;
                let mut vm = self.vm.as_mut();
                let mut bbb = self.bbb.as_mut();
                let interp_counters = &mut self.interp_counters;
                let demoted = &self.demoted;
                let kind = self.kind;
                let interp_hot_threshold = self.cfg.interp_hot_threshold;
                let mut end = None;
                // Interp-tier charges fold into one locally-accumulated
                // `Cycles`, paid after the batch (the category stays
                // `InterpEmu` throughout and nothing in the loop reads
                // the cycle counters; saturating fixed-point addition is
                // associative, so the folded charge is bit-identical).
                let mut pending_raw = 0u64;
                let res = self.interp.step_batch(
                    &mut self.cpu,
                    &mut self.mem,
                    &mut |r, uop_memo| {
                        // A REP string instruction retires once
                        // architecturally; its iterations are microcode
                        // (each still pays its timing below).
                        let mid_rep_iteration =
                            matches!(r.inst.mnemonic, Mnemonic::Str { rep: true, .. })
                                && r.next_pc == r.pc;
                        if interp_tier {
                            pending_raw += timing.charge_interp_inst_cost(r).raw();
                            if !mid_rep_iteration {
                                stats.interp_retired += 1;
                            }
                        } else {
                            // Dispatch-slot demand of the instruction
                            // (the hardware decoder's crack width),
                            // memoized in the decoded-inst arena: one
                            // crack per decoded instruction per decoder
                            // generation, then a direct-indexed read. A
                            // store into fetched code clears the decoder
                            // and the memo with it.
                            let uops = match *uop_memo {
                                0 => {
                                    let n = match crack(&r.inst, r.pc) {
                                        Ok(c) => (c.uops.len() as u32
                                            + u32::from(c.cti.is_some()))
                                        .max(1),
                                        Err(_) => {
                                            // Timing blind spot: it executed
                                            // architecturally but did not
                                            // crack.
                                            stats.uncrackable_insts += 1;
                                            if stats.uncrackable_insts == 1 {
                                                if let Some(vm) = vm.as_deref_mut() {
                                                    vm.trace.record(
                                                        TraceEvent::UncrackableInst { pc: r.pc },
                                                    );
                                                }
                                            }
                                            1
                                        }
                                    };
                                    *uop_memo = n;
                                    n
                                }
                                n => n,
                            };
                            timing.retire_x86(r, uops);
                            if !mid_rep_iteration {
                                stats.x86_mode_retired += 1;
                            }
                        }
                        if !mid_rep_iteration {
                            *x86_retired += 1;
                        }
                        if r.halted {
                            end = Some(X86End::Halt);
                            return false;
                        }

                        // Profile + hotspot detection + mode switching
                        // (VM machines). `r.next_pc` is the architected
                        // EIP after this instruction.
                        if let Some(b) = r.branch {
                            if let Some(vm) = vm.as_deref_mut() {
                                match b.kind {
                                    BranchKind::Conditional => vm.edges.observe_cond(r.pc, b.taken),
                                    BranchKind::Indirect | BranchKind::Return => {
                                        vm.edges.observe_indirect(r.pc, b.target)
                                    }
                                    _ => {}
                                }
                                // Hot detection.
                                let mut hot: Option<u32> = None;
                                if let Some(bbb) = bbb.as_deref_mut() {
                                    if b.taken {
                                        hot = bbb.observe_taken(b.target);
                                    }
                                } else if kind == MachineKind::VmInterp
                                    && b.taken
                                    && interp_counters.bump(b.target) == interp_hot_threshold
                                {
                                    hot = Some(b.target);
                                }
                                if let Some(hot_pc) = hot {
                                    // Translation needs `&mut System`.
                                    end = Some(X86End::Hot {
                                        hot_pc,
                                        next_pc: r.next_pc,
                                    });
                                    return false;
                                }
                                // Enter optimized code when the target
                                // has a translation.
                                if let Some(native) = vm.lookup(r.next_pc) {
                                    end = Some(X86End::Enter {
                                        native,
                                        next_pc: r.next_pc,
                                    });
                                    return false;
                                }
                                if matches!(kind, MachineKind::VmSoft | MachineKind::VmBe)
                                    && !demoted.contains(r.next_pc)
                                {
                                    // These machines interpret only
                                    // demoted blocks, so a control
                                    // transfer out of one goes back
                                    // through the VMM: translatable
                                    // successors rejoin BBT execution.
                                    end = Some(X86End::Dispatch { target: r.next_pc });
                                    return false;
                                }
                            }
                        }
                        // The check the unbatched loop ran between steps.
                        if let Some(stop) = rule.check(*x86_retired) {
                            end = Some(X86End::Stop(stop));
                            return false;
                        }
                        true
                    },
                );
                timing.charge_cycles(Cycles::from_raw(pending_raw));
                match res {
                    Err(f) => X86End::Fault(f),
                    Ok(()) => end.expect("step_batch stopped without a recorded end"),
                }
            };
            match end {
                X86End::Fault(f) => return Status::Faulted(f),
                X86End::Halt => {
                    self.halted = true;
                    return Status::Halted;
                }
                X86End::Stop(stop) => return self.stop(stop),
                X86End::Hot { hot_pc, next_pc } => {
                    self.sbt_translate(hot_pc);
                    // The unbatched branch tail, resumed after the
                    // translation: enter the (possibly fresh) optimized
                    // code, or bounce through the VMM dispatcher.
                    let native = self.vm.as_mut().and_then(|vm| vm.lookup(next_pc));
                    if let Some(native) = native {
                        self.set_phase(Phase::Vmm);
                        self.timing.set_category(CycleCat::Vmm);
                        self.timing.charge_vmm_instrs(6); // jump-table dispatch
                        self.enter_native(native.0, next_pc);
                    } else if matches!(self.kind, MachineKind::VmSoft | MachineKind::VmBe)
                        && !self.demoted.contains(next_pc)
                    {
                        self.set_phase(Phase::Vmm);
                        self.timing.set_category(CycleCat::Vmm);
                        self.timing.charge_vmm_instrs(20);
                        self.dispatch_to(next_pc);
                    }
                }
                X86End::Enter { native, next_pc } => {
                    self.set_phase(Phase::Vmm);
                    self.timing.set_category(CycleCat::Vmm);
                    self.timing.charge_vmm_instrs(6); // jump-table dispatch
                    self.enter_native(native.0, next_pc);
                }
                X86End::Dispatch { target } => {
                    self.set_phase(Phase::Vmm);
                    self.timing.set_category(CycleCat::Vmm);
                    self.timing.charge_vmm_instrs(20);
                    self.dispatch_to(target);
                }
            }
            // The unbatched loop's inter-step checks, in the same order.
            if self.mode != Mode::X86 || self.tripped.is_some() {
                return Status::Running;
            }
            if let Some(stop) = self.stop_rule(goal).check(self.x86_retired) {
                return self.stop(stop);
            }
        }
    }

    fn enter_native(&mut self, native_pc: u32, x86_entry: u32) {
        if self.mode == Mode::X86 {
            self.nstate.load_cpu(&self.cpu);
            self.stats.mode_switches += 1;
        }
        self.nstate.pc = native_pc;
        self.cur_region_entry = x86_entry;
        self.mode = Mode::Native;
    }

    fn leave_native(&mut self, x86_pc: u32) {
        self.cpu = self.nstate.to_cpu();
        self.cpu.eip = x86_pc;
        self.mode = Mode::X86;
        self.stats.mode_switches += 1;
    }

    /// Translated micro-ops, batched: micro-ops that retire no x86
    /// credit and raise no exit cannot change any state the outer
    /// `run_slice` loop inspects between steps (`x86_retired`, the goal,
    /// translation counts, `tripped`), so running them back-to-back here
    /// is observation-equivalent to returning after every micro-op —
    /// while keeping the loop bookkeeping off the per-uop hot path.
    ///
    /// Credited micro-ops keep looping too: the [`StopRule`] the outer
    /// loop applies between steps runs at each credit boundary, so trip
    /// points and return values are unchanged. The exit paths
    /// (vmexit, halt, fault) still return to `run_slice`, because those
    /// can translate code and set `tripped`.
    fn step_native(&mut self, goal: u64) -> Status {
        // Why the batch loop ends.
        enum BatchEnd {
            Fault(NFault),
            Halt,
            VmExit { code: ExitCode, arg: u32 },
            Stop(Stop),
        }
        // Nothing inside the batch changes the phase, so the telescoping
        // set_phase runs once up front instead of per micro-op.
        self.set_phase(Phase::Native);
        let rule = self.stop_rule(goal);
        // The VM (and its code view) are borrowed once for the whole
        // batch; every exit path below can translate code or mutate the
        // VM, so they run after the borrow ends. The per-micro-op loop
        // lives inside `Executor::step_batch` — the retire closure here
        // inlines into it, and only disjoint fields
        // (exec/nstate/mem/timing/stats) are touched while it runs.
        let end = {
            let vm = self.vm.as_ref().expect("native mode requires a VM");
            let code = vm.code();
            let timing = &mut self.timing;
            let stats = &mut self.stats;
            let x86_retired = &mut self.x86_retired;
            let sbt_base = self.sbt_base;
            let mut end = None;
            // The accumulator works on raw Q44.20 bits with plain
            // adds: each per-uop charge is far below 2^32 raw and a
            // batch retires far fewer than 2^31 micro-ops, so the sum
            // cannot reach the saturation point and is bit-identical
            // to the saturating chain (the final `charge_cycles` still
            // saturates into the counters).
            let mut pending_raw = 0u64;
            let mut pending_in_sbt = true;
            let res = self.exec.step_batch(
                &mut self.nstate,
                &mut self.mem,
                &code,
                None,
                &mut |r| {
                    let in_sbt = r.pc >= sbt_base;
                    if in_sbt != pending_in_sbt {
                        timing.set_category(if pending_in_sbt {
                            CycleCat::SbtEmu
                        } else {
                            CycleCat::BbtEmu
                        });
                        timing.charge_cycles(Cycles::from_raw(pending_raw));
                        pending_raw = 0;
                        pending_in_sbt = in_sbt;
                    }
                    pending_raw += timing.retire_uop_cost(r).raw();
                    // The run cache read the credit at decode time; every
                    // credit change invalidates the runs covering it.
                    let credit = r.credit;
                    debug_assert_eq!(credit, code.credit(r.pc), "stale credit at {:#x}", r.pc);
                    if credit > 0 {
                        *x86_retired += credit as u64;
                        if in_sbt {
                            stats.sbt_retired += credit as u64;
                        } else {
                            stats.bbt_retired += credit as u64;
                        }
                    }
                    match r.exit {
                        None => {
                            if credit > 0 {
                                if let Some(stop) = rule.check(*x86_retired) {
                                    end = Some(BatchEnd::Stop(stop));
                                    return false;
                                }
                            }
                            true
                        }
                        Some(NExit::Halt) => {
                            end = Some(BatchEnd::Halt);
                            false
                        }
                        Some(NExit::VmExit { code, arg }) => {
                            end = Some(BatchEnd::VmExit { code, arg });
                            false
                        }
                    }
                },
            );
            timing.set_category(if pending_in_sbt {
                CycleCat::SbtEmu
            } else {
                CycleCat::BbtEmu
            });
            timing.charge_cycles(Cycles::from_raw(pending_raw));
            match res {
                Err(f) => BatchEnd::Fault(f),
                Ok(()) => end.expect("step_batch stopped without a recorded end"),
            }
        };
        match end {
            BatchEnd::Fault(f) => self.recover_fault(f),
            BatchEnd::Halt => {
                self.halted = true;
                self.cpu = self.nstate.to_cpu();
                Status::Halted
            }
            BatchEnd::VmExit { code, arg } => self.handle_vmexit(code, arg),
            BatchEnd::Stop(stop) => self.stop(stop),
        }
    }

    fn recover_fault(&mut self, f: NFault) -> Status {
        // Precise-state recovery via the interpreter (Fig. 1's
        // "Precise State Mapping — May Use Interpreter" arc).
        let native_pc = match f {
            NFault::DivideError { native_pc } | NFault::Trap { native_pc, .. } => native_pc,
            // These mean the VMM itself broke (stale pointer followed,
            // corrupt translation): stop with structured evidence
            // rather than execute wrong code or panic the host.
            NFault::BadFetch { addr } => return self.broken(VmError::BadNativeFetch { addr }),
            NFault::BadEncoding { addr } => {
                return self.broken(VmError::BadNativeEncoding { addr })
            }
            NFault::NoXltUnit { native_pc } => {
                return self.broken(VmError::NoXltUnit { native_pc })
            }
        };
        self.set_phase(Phase::FaultRecovery);
        self.timing.set_category(CycleCat::Vmm);
        self.timing.charge_vmm_instrs(200); // fault handling
        self.tick_trace();
        match self.vm.as_ref().and_then(|vm| vm.fault_x86_at(native_pc)) {
            // BBT code: architected state is exact at the faulting
            // instruction. Replay it through the interpreter; it must
            // raise the same architectural fault.
            Some(x86_pc) => {
                self.stats.exact_fault_recoveries += 1;
                if let Some(vm) = self.vm.as_mut() {
                    vm.trace
                        .record(TraceEvent::FaultRecovered { native_pc, exact: true });
                }
                self.leave_native(x86_pc);
                match self.interp.step(&mut self.cpu, &mut self.mem) {
                    Err(fault) => Status::Faulted(fault),
                    Ok(_) => self.broken(VmError::FaultDivergence { x86_pc }),
                }
            }
            // SBT code: state is exact only at the region entry. Resume
            // interpreting from there; the fault re-raises with a
            // precise guest PC when the interpreter reaches it (see
            // DESIGN.md for the re-execution caveat).
            None => {
                self.stats.inexact_fault_recoveries += 1;
                if let Some(vm) = self.vm.as_mut() {
                    vm.trace
                        .record(TraceEvent::FaultRecovered { native_pc, exact: false });
                }
                self.leave_native(self.cur_region_entry);
                Status::Running
            }
        }
    }

    fn broken(&mut self, e: VmError) -> Status {
        self.last_vm_error = Some(e);
        Status::Broken(e)
    }

    fn handle_vmexit(&mut self, code: ExitCode, arg: u32) -> Status {
        self.tick_trace();
        if self.pending_evict {
            // A VMM exit is a precise boundary: apply the deferred long
            // context switch before continuing at `arg`.
            self.pending_evict = false;
            if let Some(vm) = self.vm.as_mut() {
                vm.full_flush();
            }
            self.exec.invalidate();
            self.timing.flush_caches();
            self.maybe_clear_dispatch_table();
            self.set_phase(Phase::Vmm);
            self.timing.set_category(CycleCat::Vmm);
            self.timing.charge_vmm_instrs(2000); // swap-in handling
        }
        self.stats.vm_exits += 1;
        match code {
            ExitCode::TranslateMiss => self.stats.vm_exit_kinds[0] += 1,
            ExitCode::IndirectMiss => self.stats.vm_exit_kinds[1] += 1,
            ExitCode::HotTrap => self.stats.vm_exit_kinds[2] += 1,
            ExitCode::TranslatorDone => {}
        }
        self.set_phase(Phase::Vmm);
        self.timing.set_category(CycleCat::Vmm);
        match code {
            ExitCode::TranslateMiss => {
                self.timing.charge_vmm_instrs(20);
                self.dispatch_to(arg);
            }
            ExitCode::IndirectMiss => {
                // Translation-lookup-table search, as counted inside the
                // paper's 83-cycle BBT figure.
                self.timing.charge_vmm_instrs(15);
                self.timing.vmm_data_touch(COUNTER_BASE ^ (arg.wrapping_mul(0x61c8_8647) >> 8));
                if let Some(vm) = self.vm.as_mut() {
                    vm.mark_profile_candidate(arg);
                }
                self.dispatch_to(arg);
                // Populate the inline-sieve dispatch table when the
                // target landed in optimized code, so translated code can
                // resolve this target without the VMM next time.
                if let Some(vm) = self.vm.as_ref() {
                    let sbt_base = vm.sbt_cache.config().base;
                    if self.mode == Mode::Native && self.nstate.pc >= sbt_base {
                        let slot = dispatch_slot(arg);
                        use cdvm_mem::Memory;
                        self.mem.write_u32(slot, arg);
                        self.mem.write_u32(slot + 4, self.nstate.pc);
                        self.set_phase(Phase::Vmm);
                        self.timing.set_category(CycleCat::Vmm);
                        self.timing.charge_vmm_instrs(6);
                        self.timing.vmm_data_touch(slot);
                    }
                }
            }
            ExitCode::HotTrap => {
                self.sbt_translate(arg);
                // Resume in the optimized code if translation succeeded,
                // or the previous tier if it was demoted (architected
                // state is intact: only VMM registers were touched).
                self.dispatch_to(arg);
            }
            ExitCode::TranslatorDone => {}
        }
        Status::Running
    }

    /// Continues execution at x86 address `target`: existing translation,
    /// fresh BBT translation, or x86-mode/interpreter depending on the
    /// machine. Never fails: a target whose translation fails is demoted
    /// to interpretation and execution continues architecturally.
    fn dispatch_to(&mut self, target: u32) {
        self.tick_trace();
        // Demoted blocks stay on the interpreter tier.
        if self.demoted.contains(target) {
            self.fall_back_to_x86(target);
            return;
        }
        let vm = self.vm.as_mut().expect("dispatch requires a VM");
        // A previously-translated block that has since become a profile
        // candidate (a loop head discovered late) is re-translated with a
        // hotness counter and its old entry redirected — otherwise the
        // hot loop could never be detected.
        if vm.needs_profile_upgrade(target) {
            let old = vm.blocks.get(&target).copied();
            if let Err(e) = self.bbt_translate(target) {
                self.demote(target, e);
                return;
            }
            let vm = self.vm.as_mut().expect("dispatch requires a VM");
            let new_native = vm.lookup(target).expect("just installed");
            if let Some(old) = old {
                let inval = vm.redirect_old_entry(target, old, new_native);
                self.apply_invalidation(&inval);
            }
            self.enter_native(new_native.0, target);
            return;
        }
        let vm = self.vm.as_mut().expect("dispatch requires a VM");
        if let Some(native) = vm.lookup(target) {
            // Already translated: enter it. No stub is patched here; chains
            // are made only at install (pre-chaining to translated targets,
            // and `chain_to` for the sites pending on the new entry), so
            // the exit that led here stays an exit.
            self.enter_native(native.0, target);
            return;
        }
        match self.kind {
            MachineKind::VmFe | MachineKind::VmInterp => {
                // No BBT tier: fall back to x86-mode / interpretation.
                self.fall_back_to_x86(target);
            }
            _ => match self.bbt_translate(target) {
                Ok(()) => {
                    let vm = self.vm.as_mut().expect("dispatch requires a VM");
                    let native = vm.lookup(target).expect("translation just installed");
                    self.enter_native(native.0, target);
                }
                Err(e) => self.demote(target, e),
            },
        }
    }

    /// Continues at `target` on the x86/interpreter tier.
    fn fall_back_to_x86(&mut self, target: u32) {
        if self.mode == Mode::Native {
            self.leave_native(target);
        } else {
            self.cpu.eip = target;
        }
    }

    /// BBT → interpreter demotion: the block at `target` could not be
    /// translated (undecodable or uncrackable guest bytes, or a block
    /// larger than the whole code cache). The guest keeps running on the
    /// interpreter, which re-derives any architectural fault — precisely
    /// — when execution actually reaches the bad bytes.
    fn demote(&mut self, target: u32, e: VmError) {
        self.last_vm_error = Some(e);
        self.stats.bbt_demotions += 1;
        if let Some(vm) = self.vm.as_mut() {
            vm.trace.record(TraceEvent::Demoted {
                entry: target,
                tier: TierKind::Bbt,
                error: e,
            });
        }
        self.demoted.insert(target);
        self.fall_back_to_x86(target);
    }

    fn apply_invalidation(&mut self, list: &[u32]) {
        if list.contains(&u32::MAX) {
            self.note_pressure_flush();
            self.exec.invalidate();
            self.maybe_clear_dispatch_table();
            return;
        }
        self.exec.invalidate_all_at(list);
    }

    /// Feeds the retranslation-storm detector: a code-cache pressure
    /// flush with almost no guest progress since the previous one is a
    /// storm symptom (a working set that can never fit, retranslated
    /// forever). Context-switch flushes don't come through here.
    fn note_pressure_flush(&mut self) {
        const MIN_PROGRESS_INSTS: u64 = 64;
        let progress = self.x86_retired - self.retired_at_last_flush;
        self.retired_at_last_flush = self.x86_retired;
        if progress >= MIN_PROGRESS_INSTS {
            self.storm_consecutive = 0;
            return;
        }
        self.storm_consecutive += 1;
        if let Some(limit) = self.watchdog_storm_flushes {
            if self.storm_consecutive >= limit && self.tripped.is_none() {
                self.tripped = Some(Watchdog::RetranslationStorm {
                    flushes: self.storm_consecutive,
                });
            }
        }
    }

    /// Clears the inline-sieve dispatch table if the SBT cache flushed
    /// (stale native pointers must never be followed).
    fn maybe_clear_dispatch_table(&mut self) {
        let Some(vm) = self.vm.as_ref() else { return };
        let gen = vm.sbt_cache.generation();
        if gen == self.sbt_gen_seen {
            return;
        }
        self.sbt_gen_seen = gen;
        use cdvm_mem::Memory;
        for i in 0..DISPATCH_ENTRIES {
            self.mem.write_u32(DISPATCH_BASE + i * 8, 0);
        }
        self.set_phase(Phase::Vmm);
        self.timing.set_category(CycleCat::Vmm);
        self.timing.charge_vmm_instrs(2 * u64::from(DISPATCH_ENTRIES));
    }

    fn bbt_translate(&mut self, entry: u32) -> Result<(), VmError> {
        // Episode bookkeeping for the flight recorder: capture the
        // before-state only when recording (reads only, never charges).
        let episode = self.recorder.is_some().then(|| {
            let chains = self.vm.as_ref().map_or(0, |vm| vm.stats.chains_applied);
            (self.timing.cycles_fp(), chains)
        });
        self.tick_trace();
        // VM.be runs BBT through the XLTx86 hardware assist loop; that is
        // its own phase in the taxonomy (the paper's Fig. 6a HAloop).
        self.set_phase(if self.kind == MachineKind::VmBe {
            Phase::XltAssist
        } else {
            Phase::BbtXlate
        });
        let vm = self.vm.as_mut().expect("BBT requires a VM");
        let (out, invalidate) = vm.translate_bbt(&mut self.interp.decoder, &mut self.mem, entry)?;
        self.apply_invalidation(&invalidate);
        self.timing.set_category(CycleCat::BbtXlate);
        let cc = out.translation.native.0;
        for i in 0..out.simple_insts {
            let src = out.src_pc.wrapping_add(i * 3);
            if self.kind == MachineKind::VmBe {
                self.timing.charge_haloop_inst(src, cc + i * 8);
            } else {
                self.timing.charge_sw_bbt_inst(src, cc + i * 8);
            }
        }
        for i in 0..out.complex_insts {
            // Complex instructions take the software path on every
            // machine (Flag_cmplx).
            self.timing
                .charge_sw_bbt_inst(out.src_pc.wrapping_add(i * 3), cc + i * 8);
        }
        if let Some((t0, chains0)) = episode {
            let chains1 = self.vm.as_ref().map_or(0, |vm| vm.stats.chains_applied);
            let latency = self.timing.cycles_fp() - t0;
            if let Some(rec) = self.recorder.as_mut() {
                rec.observe_episode(
                    TransKind::Bbt,
                    latency,
                    out.translation.x86_count,
                    chains1 - chains0,
                );
            }
        }
        Ok(())
    }

    /// Promotes a hot entry to a superblock. Never fails: if superblock
    /// translation errors, the entry is demoted to whatever tier was
    /// already running it (BBT translation or the interpreter) and
    /// blacklisted so the promotion is not retried forever.
    fn sbt_translate(&mut self, entry: u32) {
        if self.sbt_blacklist.contains(entry) {
            return;
        }
        // Skip if an SBT translation already exists (counter raced).
        {
            let vm = self.vm.as_mut().expect("SBT requires a VM");
            if matches!(
                vm.blocks.get(&entry),
                Some(t) if t.kind == TransKind::Sbt && t.generation == vm.sbt_cache.generation()
            ) {
                return;
            }
        }
        let episode = self.recorder.is_some().then(|| {
            let chains = self.vm.as_ref().map_or(0, |vm| vm.stats.chains_applied);
            (self.timing.cycles_fp(), chains)
        });
        self.tick_trace();
        self.set_phase(Phase::SbtXlate);
        let vm = self.vm.as_mut().expect("SBT requires a VM");
        match translate_sbt(vm, &mut self.interp.decoder, &mut self.mem, entry) {
            Ok((out, invalidate)) => {
                self.apply_invalidation(&invalidate);
                self.timing.set_category(CycleCat::SbtXlate);
                let cc = out.translation.native.0;
                for i in 0..out.translation.x86_count {
                    self.timing
                        .charge_sbt_inst(out.src_pc.wrapping_add(i * 3), cc + i * 12);
                }
                if let Some((t0, chains0)) = episode {
                    let chains1 = self.vm.as_ref().map_or(0, |vm| vm.stats.chains_applied);
                    let latency = self.timing.cycles_fp() - t0;
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.observe_episode(
                            TransKind::Sbt,
                            latency,
                            out.translation.x86_count,
                            chains1 - chains0,
                        );
                    }
                }
            }
            Err(e) => {
                self.last_vm_error = Some(e);
                self.stats.sbt_demotions += 1;
                if let Some(vm) = self.vm.as_mut() {
                    vm.trace.record(TraceEvent::Demoted {
                        entry,
                        tier: TierKind::Sbt,
                        error: e,
                    });
                }
                self.sbt_blacklist.insert(entry);
                // Disarm the planted hotness counter so the failed
                // promotion doesn't re-trap on every execution.
                if let Some(vm) = self.vm.as_mut() {
                    vm.reset_counter(&mut self.mem, entry);
                }
            }
        }
        if let Some(bbb) = self.bbb.as_mut() {
            bbb.reset(entry);
        }
    }

    /// Models a major context switch: every cache level is flushed while
    /// translations survive in memory (the boundary between the paper's
    /// scenarios 2 and 3).
    pub fn context_switch_flush(&mut self) {
        self.timing.flush_caches();
    }

    /// Models a *long* context switch / swap-out (re-entering the
    /// memory-startup scenario mid-run): the hardware caches flush now
    /// and every translation is evicted at the next precise VMM boundary
    /// (immediately, when executing in x86-mode).
    pub fn long_context_switch(&mut self) {
        self.timing.flush_caches();
        self.tick_trace();
        if self.vm.is_none() || self.mode == Mode::X86 {
            if let Some(vm) = self.vm.as_mut() {
                vm.full_flush();
                self.exec.invalidate();
                self.maybe_clear_dispatch_table();
            }
            return;
        }
        self.pending_evict = true;
    }

    /// Runs to completion (halt/fault), with a cycle safety cap.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Status {
        loop {
            let st = self.run_slice(8192);
            if st != Status::Running {
                return st;
            }
            if self.timing.cycles() > max_cycles {
                return Status::Running;
            }
        }
    }
}

/// The outcome of a warm-image restore attempt.
///
/// Restore never panics and never leaves the system broken: the worst
/// case is a clean cold boot (`applied == 0`), the common degraded case
/// salvages every intact section and drops the damaged ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOutcome {
    /// Sections applied to the fresh system (counting the meta gate).
    pub applied: u32,
    /// Sections present in the image but dropped by salvage.
    pub dropped: u32,
    /// The total failure, or the most salient damage when degraded.
    pub error: Option<RestoreError>,
}

impl RestoreOutcome {
    /// True when nothing was restored — the run proceeds as a cold boot.
    pub fn is_cold_boot(&self) -> bool {
        self.applied == 0
    }

    /// True when the restore applied but lost sections (or the image's
    /// whole-image checksum disagreed).
    pub fn is_degraded(&self) -> bool {
        self.applied > 0 && self.error.is_some()
    }
}

/// FNV fingerprint of one guest page's current contents (an unmapped
/// page hashes as 0, matching a page of zeroes never written).
fn page_hash(mem: &mut GuestMem, idx: u32) -> u64 {
    snapshot::fnv1a64(mem.read_slice(idx << 12, 4096).unwrap_or(&[]))
}

/// Serializes one code-cache arena for the warm image.
fn cache_section(cache: &CodeCache) -> CacheSection {
    CacheSection {
        generation: cache.generation(),
        resident: cache.stats().resident_translations as u32,
        bytes: cache.live_bytes().to_vec(),
    }
}

/// Warm-image save and restore (DESIGN.md §3.10).
impl System {
    /// FNV fingerprint of this machine's configuration (every field of
    /// [`MachineConfig`] via its `Debug` rendering — deterministic, and
    /// automatically covers fields added later).
    fn config_hash(&self) -> u64 {
        snapshot::fnv1a64(format!("{:?}", self.cfg).as_bytes())
    }

    /// `(page index, content hash)` for every page the guest has
    /// executed code from, ascending by index.
    fn code_page_fingerprints(&mut self) -> Vec<(u32, u64)> {
        let mut pages = self.mem.code_page_indices();
        pages.sort_unstable();
        pages
            .into_iter()
            .map(|idx| (idx, page_hash(&mut self.mem, idx)))
            .collect()
    }

    /// Collects the full warm state into the typed image structure.
    fn warm_image(&mut self) -> WarmImage {
        let meta = MetaSection {
            config_hash: self.config_hash(),
            hot_threshold: self
                .vm
                .as_ref()
                .map_or(self.cfg.hot_threshold, |vm| vm.hot_threshold),
            software_profiling: self.vm.as_ref().is_some_and(|vm| vm.software_profiling),
            pages: self.code_page_fingerprints(),
        };
        let mut demoted: Vec<u32> = self.demoted.iter().collect();
        demoted.sort_unstable();
        let mut blacklist: Vec<u32> = self.sbt_blacklist.iter().collect();
        blacklist.sort_unstable();
        let mut interp_counters: Vec<(u32, u32)> = self.interp_counters.iter().collect();
        interp_counters.sort_unstable();
        let (seen_bbt, candidates) = self.vm.as_ref().map_or_else(
            || (Vec::new(), Vec::new()),
            |vm| (vm.export_seen_bbt(), vm.export_profile_candidates()),
        );
        let sets = SetsSection {
            demoted,
            blacklist,
            seen_bbt,
            candidates,
            interp_counters,
        };
        let mut code = None;
        let mut edges = None;
        if let Some(vm) = self.vm.as_ref() {
            let bbt_gen = vm.bbt_cache.generation();
            let sbt_gen = vm.sbt_cache.generation();
            // Stale-generation blocks are dropped at save: every consumer
            // checks `generation == current` before touching one, so they
            // are semantically invisible — dropping them canonicalizes
            // the image (save -> restore -> save is byte-identical).
            let mut blocks: Vec<BlockRec> = Vec::new();
            for (&entry, t) in &vm.blocks {
                let live = match t.kind {
                    TransKind::Bbt => t.generation == bbt_gen,
                    TransKind::Sbt => t.generation == sbt_gen,
                };
                if live {
                    blocks.push(BlockRec {
                        entry,
                        native: t.native.0,
                        kind: match t.kind {
                            TransKind::Bbt => 0,
                            TransKind::Sbt => 1,
                        },
                        x86_count: t.x86_count,
                        uop_count: t.uop_count,
                        bytes: t.bytes,
                        counter_addr: t.counter_addr,
                        generation: t.generation,
                    });
                }
            }
            blocks.sort_unstable_by_key(|b| b.entry);
            let mut bbt_entries: Vec<(u32, u32)> = vm
                .bbt_table
                .iter_live(bbt_gen)
                .map(|(pc, n)| (pc, n.0))
                .collect();
            bbt_entries.sort_unstable();
            let mut sbt_entries: Vec<(u32, u32)> = vm
                .sbt_table
                .iter_live(sbt_gen)
                .map(|(pc, n)| (pc, n.0))
                .collect();
            sbt_entries.sort_unstable();
            // Counter allocations are preserved in full (even ones whose
            // block went stale): slot addresses are baked into translated
            // code, and the first-use allocator would renumber any hole.
            let mut allocs: Vec<(u32, u32)> = vm.counters.iter().collect();
            allocs.sort_unstable_by_key(|&(_, idx)| idx);
            let hot = vm.hot_threshold;
            let counter_entries = allocs
                .into_iter()
                .map(|(entry, idx)| {
                    // Counters count *down* from the hot threshold and trap
                    // at zero. A fired counter (0, or wrapped past it by
                    // post-promotion re-entries) would restore as a
                    // permanently disarmed profiling path: a warm run
                    // re-entering the stale BBT code through a restored
                    // chain could then never promote out of it. Canonical
                    // images re-arm such counters; live in-flight values
                    // (1..=threshold) are preserved.
                    let v = self.mem.read_u32(COUNTER_BASE + idx * 4);
                    let v = if v == 0 || v > hot { hot } else { v };
                    (entry, idx, v)
                })
                .collect();
            let mut cond: Vec<(u32, u32, u32)> = vm.edges.cond_entries().collect();
            cond.sort_unstable();
            let mut indirect: Vec<(u32, Vec<(u32, u32)>)> = vm
                .edges
                .indirect_entries()
                .map(|(pc, ts)| (pc, ts.to_vec()))
                .collect();
            indirect.sort_unstable_by_key(|&(pc, _)| pc);
            code = Some(CodeGroup {
                bbt_cache: cache_section(&vm.bbt_cache),
                sbt_cache: cache_section(&vm.sbt_cache),
                bbt_table: TableSection {
                    entries: bbt_entries,
                },
                sbt_table: TableSection {
                    entries: sbt_entries,
                },
                blocks: BlocksSection { blocks },
                counters: CountersSection {
                    entries: counter_entries,
                },
                credits: CreditsSection {
                    bbt: vm.bbt_credits.iter().collect(),
                    sbt: vm.sbt_credits.iter().collect(),
                },
                chains: vm.export_chains(),
            });
            edges = Some(EdgesSection {
                sample_tick: vm.edges.sample_tick(),
                cond,
                indirect,
            });
        }
        WarmImage {
            meta,
            code,
            edges,
            sets,
        }
    }

    /// Serializes the warm translation state into a canonical versioned
    /// image (save -> restore -> save is byte-identical).
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        snapshot::encode_image(&self.warm_image())
    }

    /// Saves the warm image to `path` crash-safely (temp file + fsync +
    /// atomic rename).
    ///
    /// # Errors
    ///
    /// Any I/O error from the temporary write, fsync, or rename.
    pub fn save_image(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes = self.snapshot_bytes();
        snapshot::write_image_atomic(path, &bytes)
    }

    /// Restores a warm image from a file. An unreadable file degrades to
    /// a clean cold boot, like every other restore failure.
    pub fn restore_image(&mut self, path: &std::path::Path) -> RestoreOutcome {
        match std::fs::read(path) {
            Ok(bytes) => self.restore_image_bytes(&bytes),
            Err(_) => self.restore_fail(RestoreError::ReadFailed),
        }
    }

    /// Restores warm translation state from image bytes onto this fresh
    /// system (nothing may have executed yet).
    ///
    /// The restore is corruption-tolerant by construction: bad sections
    /// are dropped and the rest salvaged where independent; the code
    /// group (caches, tables, blocks, counters, credits, chains) applies
    /// only as a whole, since its members cross-reference each other by
    /// address and generation. Unrecoverable images leave the system in
    /// its clean cold-boot state. The attempt never charges modeled
    /// cycles — restore happens before the machine starts.
    pub fn restore_image_bytes(&mut self, bytes: &[u8]) -> RestoreOutcome {
        if self.started || self.halted {
            return self.restore_fail(RestoreError::NotColdBoot);
        }
        let img = match snapshot::decode_image(bytes) {
            Ok(img) => img,
            Err(e) => return self.restore_fail(e),
        };
        // The meta section gates everything: without an intact machine
        // and workload fingerprint nothing in the image can be trusted
        // to match this system.
        let meta = match img.meta {
            Some(Ok(meta)) => meta,
            Some(Err(e)) => return self.restore_fail(e),
            None => return self.restore_fail(RestoreError::Malformed),
        };
        if meta.config_hash != self.config_hash() {
            return self.restore_fail(RestoreError::ConfigMismatch);
        }
        for &(idx, hash) in &meta.pages {
            if page_hash(&mut self.mem, idx) != hash {
                return self.restore_fail(RestoreError::WorkloadMismatch);
            }
        }
        let mut applied = 1u32; // the meta gate itself
        let mut dropped = 0u32;
        let mut first_bad: Option<RestoreError> = None;
        // Dispatcher sets are self-contained: salvageable independently.
        match img.sets {
            Some(Ok(sets)) => {
                self.apply_sets(&sets);
                applied += 1;
            }
            Some(Err(e)) => {
                dropped += 1;
                first_bad.get_or_insert(e);
            }
            None => {}
        }
        // The code group is atomic: a translation's bytes, lookup entry,
        // metadata, counter slot, credits and chains reference each other
        // by address and generation, so a partial apply would execute
        // inconsistent state. All eight sections intact, or none.
        let code_present = u32::from(img.bbt_cache.is_some())
            + u32::from(img.sbt_cache.is_some())
            + u32::from(img.bbt_table.is_some())
            + u32::from(img.sbt_table.is_some())
            + u32::from(img.blocks.is_some())
            + u32::from(img.counters.is_some())
            + u32::from(img.credits.is_some())
            + u32::from(img.chains.is_some());
        if code_present > 0 {
            let code_err = [
                img.bbt_cache.as_ref().and_then(|r| r.as_ref().err()),
                img.sbt_cache.as_ref().and_then(|r| r.as_ref().err()),
                img.bbt_table.as_ref().and_then(|r| r.as_ref().err()),
                img.sbt_table.as_ref().and_then(|r| r.as_ref().err()),
                img.blocks.as_ref().and_then(|r| r.as_ref().err()),
                img.counters.as_ref().and_then(|r| r.as_ref().err()),
                img.credits.as_ref().and_then(|r| r.as_ref().err()),
                img.chains.as_ref().and_then(|r| r.as_ref().err()),
            ]
            .into_iter()
            .flatten()
            .next()
            .copied();
            if let (
                Some(Ok(bc)),
                Some(Ok(sc)),
                Some(Ok(bt)),
                Some(Ok(st)),
                Some(Ok(bl)),
                Some(Ok(cn)),
                Some(Ok(cr)),
                Some(Ok(ch)),
            ) = (
                img.bbt_cache,
                img.sbt_cache,
                img.bbt_table,
                img.sbt_table,
                img.blocks,
                img.counters,
                img.credits,
                img.chains,
            ) {
                match self.apply_code_group(&bc, &sc, &bt, &st, &bl, &cn, &cr, &ch) {
                    Ok(()) => applied += 8,
                    Err(e) => {
                        dropped += 8;
                        first_bad.get_or_insert(e);
                    }
                }
            } else {
                // Partial presence or a corrupt member: drop the whole
                // group, salvage continues around it.
                dropped += code_present;
                first_bad.get_or_insert(code_err.unwrap_or(RestoreError::Malformed));
            }
        }
        // The edge profile only tunes future superblock formation:
        // salvageable independently of the code group.
        match img.edges {
            Some(Ok(edges)) => {
                if let Some(vm) = self.vm.as_mut() {
                    vm.edges.set_sample_tick(edges.sample_tick);
                    for &(pc, t, n) in &edges.cond {
                        vm.edges.restore_cond(pc, t, n);
                    }
                    for (pc, targets) in edges.indirect {
                        vm.edges.restore_indirect(pc, targets);
                    }
                    applied += 1;
                } else {
                    dropped += 1;
                    first_bad.get_or_insert(RestoreError::ConfigMismatch);
                }
            }
            Some(Err(e)) => {
                dropped += 1;
                first_bad.get_or_insert(e);
            }
            None => {}
        }
        if !img.whole_ok {
            // Every applied section passed its own checksum, but the
            // image as a whole is damaged somewhere: surface it.
            first_bad.get_or_insert(RestoreError::Malformed);
        }
        // The dispatch sieve lives in (fresh, zeroed) guest memory, so a
        // warm-restored run re-fills it through IndirectMiss exits; seed
        // the generation watermark so the first SBT lookup does not
        // spuriously clear it.
        if let Some(vm) = self.vm.as_ref() {
            self.sbt_gen_seen = vm.sbt_cache.generation();
        }
        // Defensive: the executor must decode restored arenas afresh.
        self.exec.invalidate();
        // Re-mark the guest's code pages so self-modifying-code detection
        // covers them from the first restored-native execution.
        for &(idx, _) in &meta.pages {
            self.mem.note_code_fetch(idx << 12, 4096);
        }
        self.stats.restores += 1;
        self.stats.restore_degraded += u64::from(dropped);
        self.tick_trace();
        if let Some(vm) = self.vm.as_mut() {
            vm.trace.record(TraceEvent::RestoreApplied {
                sections: applied,
                dropped,
            });
        }
        let error = if dropped > 0 || !img.whole_ok {
            first_bad
        } else {
            None
        };
        if let Some(e) = error {
            self.last_vm_error = Some(VmError::Restore(e));
        }
        RestoreOutcome {
            applied,
            dropped,
            error,
        }
    }

    /// Records a total restore failure (trace, stats) and
    /// returns the cold-boot outcome. The system state is untouched.
    fn restore_fail(&mut self, e: RestoreError) -> RestoreOutcome {
        self.stats.restore_failed += 1;
        self.last_vm_error = Some(VmError::Restore(e));
        self.tick_trace();
        if let Some(vm) = self.vm.as_mut() {
            vm.trace.record(TraceEvent::RestoreFailed { error: e });
        }
        RestoreOutcome {
            applied: 0,
            dropped: 0,
            error: Some(e),
        }
    }

    /// Applies the dispatcher sets section.
    fn apply_sets(&mut self, s: &SetsSection) {
        for &pc in &s.demoted {
            self.demoted.insert(pc);
        }
        for &pc in &s.blacklist {
            self.sbt_blacklist.insert(pc);
        }
        for &(pc, v) in &s.interp_counters {
            self.interp_counters.set(pc, v);
        }
        if let Some(vm) = self.vm.as_mut() {
            vm.import_seen_bbt(&s.seen_bbt);
            vm.import_profile_candidates(&s.candidates);
        }
    }

    /// Applies the atomic code group. Validates everything fallible
    /// (arena capacities) *before* mutating, so an error leaves the
    /// system in its clean cold-boot state.
    #[allow(clippy::too_many_arguments)]
    fn apply_code_group(
        &mut self,
        bc: &CacheSection,
        sc: &CacheSection,
        bt: &TableSection,
        st: &TableSection,
        bl: &BlocksSection,
        cn: &CountersSection,
        cr: &CreditsSection,
        ch: &ChainsSection,
    ) -> Result<(), RestoreError> {
        let Some(vm) = self.vm.as_mut() else {
            // A machine without a VM (Ref) cannot hold translations; the
            // config gate normally rejects such images earlier.
            return Err(RestoreError::ConfigMismatch);
        };
        if bc.bytes.len() > vm.bbt_cache.config().capacity
            || sc.bytes.len() > vm.sbt_cache.config().capacity
        {
            return Err(RestoreError::ConfigMismatch);
        }
        if vm
            .bbt_cache
            .restore(&bc.bytes, bc.generation, bc.resident as usize)
            .is_err()
            || vm
                .sbt_cache
                .restore(&sc.bytes, sc.generation, sc.resident as usize)
                .is_err()
        {
            // Unreachable after the capacity check above.
            return Err(RestoreError::ConfigMismatch);
        }
        vm.bbt_table.clear();
        for &(pc, native) in &bt.entries {
            vm.bbt_table.insert(pc, NativePc(native), bc.generation);
        }
        vm.sbt_table.clear();
        for &(pc, native) in &st.entries {
            vm.sbt_table.insert(pc, NativePc(native), sc.generation);
        }
        vm.blocks.clear();
        for r in &bl.blocks {
            vm.blocks.insert(
                r.entry,
                Translation {
                    native: NativePc(r.native),
                    kind: if r.kind == 0 {
                        TransKind::Bbt
                    } else {
                        TransKind::Sbt
                    },
                    x86_count: r.x86_count,
                    uop_count: r.uop_count,
                    bytes: r.bytes,
                    counter_addr: r.counter_addr,
                    generation: r.generation,
                },
            );
        }
        for &(entry, idx, value) in &cn.entries {
            vm.counters.restore_slot(entry, idx);
            self.mem.write_u32(COUNTER_BASE + idx * 4, value);
        }
        for &(addr, v) in &cr.bbt {
            vm.bbt_credits.insert(addr, v);
        }
        for &(addr, v) in &cr.sbt {
            vm.sbt_credits.insert(addr, v);
        }
        vm.import_chains(ch);
        Ok(())
    }
}
