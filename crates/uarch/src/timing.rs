//! The interval-model core: cycle accounting for every machine.
//!
//! Detailed out-of-order simulation is replaced by a Sniper-style
//! interval model: retired units consume dispatch slots at a
//! dependency-limited effective width, and miss events (branch
//! mispredictions, cache misses) add serialised penalties. All machines
//! share the same cache hierarchy and branch predictor models, so
//! cross-machine deltas come only from the mechanisms the paper studies:
//! who pays decode/crack cost, macro-op fusion, pipeline frontend length,
//! and translation-time memory traffic.
//!
//! Cycle totals are kept in exact fixed point ([`Cycles`], Q44.20): every
//! fractional charge quantum (slot costs, overlap factors, per-VMM-instr
//! cost) is rounded to the fixed-point grid once at construction, and all
//! runtime accumulation is saturating integer addition — associative and
//! order-independent, so charges can be batched and reordered without
//! perturbing the golden differential fixture (DESIGN.md §3.12).

use cdvm_fisa::NRetired;
use cdvm_x86::{BranchKind, Retired};

use crate::cache::Hierarchy;
use crate::config::MachineConfig;
use crate::fixed::Cycles;
use crate::predictor::Predictor;

/// Cycle-attribution categories (the quantities behind Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CycleCat {
    /// Executing x86 code through hardware decoders (Ref always; VM.fe
    /// cold code).
    X86Mode = 0,
    /// Executing BBT translations.
    BbtEmu = 1,
    /// Executing SBT (hotspot) translations.
    SbtEmu = 2,
    /// Performing BBT translation (software or HAloop).
    BbtXlate = 3,
    /// Performing SBT translation/optimization.
    SbtXlate = 4,
    /// Interpreting x86 instructions (the Interp&SBT strategy).
    InterpEmu = 5,
    /// Other VMM runtime work (dispatch, lookup, chaining).
    Vmm = 6,
}

/// Number of [`CycleCat`] values.
pub const NUM_CATS: usize = 7;

impl CycleCat {
    /// All categories.
    pub const ALL: [CycleCat; NUM_CATS] = [
        CycleCat::X86Mode,
        CycleCat::BbtEmu,
        CycleCat::SbtEmu,
        CycleCat::BbtXlate,
        CycleCat::SbtXlate,
        CycleCat::InterpEmu,
        CycleCat::Vmm,
    ];
}

/// Miss-overlap factor for misses that go all the way to memory
/// (memory-level parallelism hides 25% of the stall).
const OVERLAP_TO_MEMORY: Cycles = Cycles::from_raw((3 * crate::fixed::ONE_RAW) / 4);

/// Miss-overlap factor for nearer misses (0.6, rounded once to the
/// fixed-point grid).
const OVERLAP_NEAR: Cycles = Cycles::from_raw((3 * crate::fixed::ONE_RAW) / 5);

/// Extra partially-hidden latency of divide-family micro-ops.
const DIV_EXTRA: Cycles = Cycles::from_int(8);

/// Extra partially-hidden latency of other long-latency micro-ops.
const LONG_EXTRA: Cycles = Cycles::from_int(1);

/// Cycle accounting for one simulated machine.
#[derive(Debug)]
pub struct Timing {
    /// The machine parameterisation.
    pub cfg: MachineConfig,
    /// Cache hierarchy (shared by fetch, data and translator traffic).
    pub hier: Hierarchy,
    /// Branch predictor.
    pub pred: Predictor,
    cycles: Cycles,
    cat: [Cycles; NUM_CATS],
    cur: CycleCat,
    last_fetch_line: u32,
    fused_tail_pending: bool,
    decoder_active: Cycles,
    uops_retired: u64,
    // Precomputed per-event charge quanta. Every fractional cost is
    // rounded to the fixed-point grid exactly once here; the hot paths
    // below only ever do integer adds of these constants, which is what
    // makes cycle accumulation associative and batchable.
    // Combined slot-cost + long-latency-extra quanta, indexed by
    // `latency_class * 4 + 2*profiling + half`. The slot dimension is
    // [one, fused-half, profiling, profiling] (`2*profiling + half`;
    // index 3 is unreachable but filled so the lookup never faults) and
    // the latency dimension is the decode-time `UopMeta::latency_class`
    // [none, mul-family, div-family, XLT]. Pre-summing the two charges
    // lets `retire_uop` pick the whole static cost of a micro-op with
    // one branch-free table load.
    slot_long: [Cycles; 16],
    slot_cost_complex: Cycles,
    x86_slot_cost: [Cycles; SLOT_TABLE_LEN],
    /// Cost of one native VMM instruction (`1 / vmm_ipc`). Linear by
    /// construction: charging `n` instructions is `n * quantum`, so one
    /// batched charge is bit-identical to `n` separate ones.
    vmm_instr_cost: Cycles,
    /// Cost of one interpreted x86 instruction (`interp_cycles`).
    interp_inst_cost: Cycles,
    /// Per-x86-instruction software BBT translation cost
    /// (`bbt_sw_native_instrs / vmm_ipc`).
    bbt_sw_inst_cost: Cycles,
    /// Per-x86-instruction SBT optimization cost
    /// (`sbt_native_instrs / vmm_ipc`).
    sbt_inst_cost: Cycles,
    /// Per-iteration HAloop cost (`bbt_be_cycles`).
    bbt_be_inst_cost: Cycles,
    /// XLTx86 long-latency extra (`xlt_latency`, whole cycles).
    xlt_extra: Cycles,
}

/// Precomputed `k / eff_width` quotients for `k < SLOT_TABLE_LEN`
/// dispatch slots (the cracker emits well under 32 uops per x86
/// instruction).
const SLOT_TABLE_LEN: usize = 33;

impl Timing {
    /// Creates cold-start timing state (empty caches — the paper's
    /// memory-startup scenario 2).
    pub fn new(cfg: MachineConfig) -> Self {
        let ew = cfg.width * cfg.util;
        let mut x86_slot_cost = [Cycles::ZERO; SLOT_TABLE_LEN];
        for (k, c) in x86_slot_cost.iter_mut().enumerate() {
            *c = Cycles::from_f64(k as f64 / ew);
        }
        Timing {
            cfg,
            hier: Hierarchy::table2(cfg.mem_latency),
            pred: Predictor::default(),
            cycles: Cycles::ZERO,
            cat: [Cycles::ZERO; NUM_CATS],
            cur: CycleCat::X86Mode,
            last_fetch_line: u32::MAX,
            fused_tail_pending: false,
            decoder_active: Cycles::ZERO,
            uops_retired: 0,
            slot_long: {
                let slot = [
                    Cycles::from_f64(1.0 / ew),
                    Cycles::from_f64((cfg.fused_pair_slots / 2.0) / ew),
                    Cycles::from_f64(cfg.profiling_slot_cost / ew),
                    Cycles::from_f64(cfg.profiling_slot_cost / ew),
                ];
                let long = [
                    Cycles::ZERO,
                    LONG_EXTRA,
                    DIV_EXTRA,
                    Cycles::from_int(u64::from(cfg.xlt_latency)),
                ];
                let mut t = [Cycles::ZERO; 16];
                for (i, c) in t.iter_mut().enumerate() {
                    *c = slot[i & 3] + long[i >> 2];
                }
                t
            },
            slot_cost_complex: Cycles::from_f64(2.0 / ew),
            x86_slot_cost,
            vmm_instr_cost: Cycles::from_f64(1.0 / cfg.vmm_ipc),
            interp_inst_cost: Cycles::from_f64(cfg.interp_cycles),
            bbt_sw_inst_cost: Cycles::from_f64(cfg.bbt_sw_native_instrs / cfg.vmm_ipc),
            sbt_inst_cost: Cycles::from_f64(cfg.sbt_native_instrs / cfg.vmm_ipc),
            bbt_be_inst_cost: Cycles::from_f64(cfg.bbt_be_cycles),
            xlt_extra: Cycles::from_int(u64::from(cfg.xlt_latency)),
        }
    }

    /// Selects the attribution category for subsequent charges.
    #[inline]
    pub fn set_category(&mut self, cat: CycleCat) {
        self.cur = cat;
    }

    /// Total elapsed cycles (whole-cycle clock).
    pub fn cycles(&self) -> u64 {
        self.cycles.int_part()
    }

    /// Total elapsed cycles as the exact fixed-point value.
    pub fn cycles_fp(&self) -> Cycles {
        self.cycles
    }

    /// Total elapsed cycles, fractional (reporting edge: the exact
    /// fixed-point total converted to `f64` once).
    pub fn cycles_f(&self) -> f64 {
        self.cycles.to_f64()
    }

    /// Cycles attributed to `cat` (reporting edge).
    pub fn category_cycles(&self, cat: CycleCat) -> f64 {
        self.cat[cat as usize].to_f64()
    }

    /// Exact fixed-point cycles attributed to `cat`.
    pub fn category_cycles_fp(&self, cat: CycleCat) -> Cycles {
        self.cat[cat as usize]
    }

    /// All category totals at once (indexed by `CycleCat as usize`) —
    /// the metrics exporter snapshots every category per run.
    pub fn category_snapshot(&self) -> [f64; NUM_CATS] {
        self.cat.map(Cycles::to_f64)
    }

    /// All category totals as exact fixed-point values.
    pub fn category_snapshot_fp(&self) -> [Cycles; NUM_CATS] {
        self.cat
    }

    /// Cycles during which x86 decode logic was powered on (Fig. 11).
    pub fn decoder_active_cycles(&self) -> f64 {
        self.decoder_active.to_f64()
    }

    /// Exact fixed-point decoder-active total.
    pub fn decoder_active_fp(&self) -> Cycles {
        self.decoder_active
    }

    /// Micro-ops retired from translated code.
    pub fn uops_retired(&self) -> u64 {
        self.uops_retired
    }

    #[inline]
    fn add(&mut self, c: Cycles) {
        self.cycles += c;
        self.cat[self.cur as usize] += c;
    }

    /// Raw cycle charge in the current category (translator loops,
    /// fixed-cost events).
    #[inline]
    pub fn charge_cycles(&mut self, c: Cycles) {
        self.add(c);
    }

    /// Marks `c` cycles of x86-decode-logic activity.
    pub fn note_decoder_active(&mut self, c: Cycles) {
        self.decoder_active += c;
    }

    /// Effective dispatch bandwidth in slots per cycle.
    fn eff_width(&self) -> f64 {
        self.cfg.width * self.cfg.util
    }

    // The `*_cost` variants below return the stall instead of charging
    // it, so the retire paths can accumulate one batch-local `Cycles`
    // and pay `add`'s two read-modify-writes once per retirement instead
    // of once per event. Saturating `u64` addition is associative, so
    // the folded sum is bit-identical to charging each stall separately.

    #[inline]
    fn fetch_cost(&mut self, pc: u32, len: u32) -> Cycles {
        let mut acc = Cycles::ZERO;
        let first = pc >> 6;
        let last = pc.wrapping_add(len.saturating_sub(1)) >> 6;
        if first != self.last_fetch_line {
            let cost = self.hier.fetch(pc);
            if cost.stall != 0 {
                acc += Cycles::from_int(u64::from(cost.stall));
            }
        }
        if last != first {
            let cost = self.hier.fetch(pc.wrapping_add(len - 1));
            if cost.stall != 0 {
                acc += Cycles::from_int(u64::from(cost.stall));
            }
        }
        self.last_fetch_line = last;
        acc
    }

    /// [`Timing::fetch_cost`] specialized to translated code: native
    /// micro-ops are 2-byte aligned and 2 or 4 bytes long, so the only
    /// line-crossing shape is a 4-byte micro-op starting at line offset
    /// 62 — and on the dominant same-line path the tracked line is
    /// already correct, so there is nothing to recompute or store.
    #[inline]
    fn fetch_cost_native(&mut self, pc: u32, len: u32) -> Cycles {
        let first = pc >> 6;
        if first == self.last_fetch_line && (len == 2 || pc & 63 != 62) {
            return Cycles::ZERO;
        }
        self.fetch_cost(pc, len)
    }

    #[inline]
    fn data(&mut self, addr: u32) {
        let c = self.data_cost(addr);
        self.add(c);
    }

    #[inline]
    fn data_cost(&mut self, addr: u32) -> Cycles {
        let cost = self.hier.data(addr);
        if cost.stall == 0 {
            return Cycles::ZERO;
        }
        // Memory-level parallelism: overlapped misses hide part of the
        // latency; long-latency memory misses overlap less at startup.
        // Integer stall × fixed-point overlap factor is exact.
        let overlap = if cost.to_memory {
            OVERLAP_TO_MEMORY
        } else {
            OVERLAP_NEAR
        };
        overlap.mul_int(u64::from(cost.stall))
    }

    #[inline]
    fn branch_cost(
        &mut self,
        pc: u32,
        kind: BranchKind,
        taken: bool,
        target: u32,
        fall: u32,
        depth: u32,
    ) -> Cycles {
        let correct = self.pred.observe(pc, kind, taken, target, fall);
        if !correct {
            self.last_fetch_line = u32::MAX; // redirected fetch
            return Cycles::from_int(u64::from(depth));
        }
        Cycles::ZERO
    }

    /// Retires one micro-op of translated code.
    ///
    /// `profiling` marks BBT-inserted software profiling micro-ops (they
    /// consume slots but are bookkept as VMM overhead by the caller's
    /// category choice).
    #[inline]
    pub fn retire_uop(&mut self, r: &NRetired) {
        let c = self.retire_uop_cost(r);
        self.add(c);
    }

    /// [`Timing::retire_uop`] with the final charge returned instead of
    /// added: batch drivers accumulate the costs of consecutive
    /// same-category retirements locally and pay [`Timing::add`]'s two
    /// read-modify-writes once per batch. Saturating fixed-point
    /// addition is associative, so the folded charge is bit-identical —
    /// the caller must only flush before anything reads the cycle
    /// counters or the attribution category changes.
    #[inline]
    pub fn retire_uop_cost(&mut self, r: &NRetired) -> Cycles {
        self.uops_retired += 1;
        // VMM bookkeeping (profiling counters, dispatch-sieve probes and
        // the register glue around them) is independent of guest
        // dataflow and fills dispatch bubbles the `util` factor
        // otherwise discards; see `profiling_slot_cost`.
        // The bookkeeping bit is precomputed at decode time; the whole
        // profiling/fused classification below is branch-free (`&`/`|`
        // on bools plus a table lookup) because the mix of profiling,
        // fused and plain micro-ops is data-dependent and mispredicts
        // badly when expressed as an if-chain. The update rules are the
        // literal boolean expansion of the original state machine:
        // profiling leaves the fused state untouched; otherwise a
        // pending tail or a fusible head retires at half cost, and a
        // new tail becomes pending only for a fusible head seen with no
        // tail pending.
        let profiling = r
            .mem
            .is_some_and(|m| (0xc000_0000..0xe000_0000).contains(&m.addr))
            | r.meta.vmm_bookkeeping();
        let pending = self.fused_tail_pending;
        let fusible = r.uop.fusible;
        let half = !profiling & (pending | fusible);
        self.fused_tail_pending = (profiling & pending) | (!profiling & !pending & fusible);
        // One pre-summed table load covers the slot cost and the
        // partially-hidden long-latency extra (div/mul chains, XLT).
        // The component costs below are accumulated on the raw Q44.20
        // bits with plain adds: each term is far under 2^53 raw (slot
        // costs are a few cycles, stalls are bounded by the memory
        // latency, the XLT extra by a u32 config field), so at most
        // five terms can never reach the saturation point — the sum is
        // bit-identical to the saturating chain it replaces.
        let idx = (r.meta.latency_class() << 2) | (usize::from(profiling) << 1) | usize::from(half);
        let mut acc = self.slot_long[idx].raw();
        acc += self.fetch_cost_native(r.pc, r.len as u32).raw();
        if let Some(m) = r.mem {
            acc += self.data_cost(m.addr).raw();
        }
        if let Some((kind, taken, target)) = r.branch {
            let fall = r.pc.wrapping_add(r.len as u32);
            acc += self
                .branch_cost(r.pc, kind, taken, target, fall, self.cfg.native_front_depth)
                .raw();
        }
        Cycles::from_raw(acc)
    }

    /// Retires one x86 instruction executed in x86-mode (hardware
    /// decoders in the pipeline: the Ref machine always, VM.fe for cold
    /// code). `uop_count` is the cracked micro-op count, which is what
    /// occupies dispatch slots in a conventional x86 core.
    #[inline]
    pub fn retire_x86(&mut self, r: &Retired, uop_count: u32) {
        let before = self.cycles;
        let slots = uop_count.max(1) as usize;
        let mut acc = match self.x86_slot_cost.get(slots) {
            Some(&c) => c,
            None => Cycles::from_f64(slots as f64 / self.eff_width()),
        };
        acc += self.fetch_cost(r.pc, r.len as u32);
        for m in r.mem.iter() {
            acc += self.data_cost(m.addr);
        }
        if let Some(b) = r.branch {
            let fall = r.pc.wrapping_add(r.len as u32);
            acc += self.branch_cost(r.pc, b.kind, b.taken, b.target, fall, self.cfg.x86_front_depth);
        }
        if r.inst.mnemonic.is_complex() {
            // Microcode sequencing overhead for complex instructions.
            acc += self.slot_cost_complex;
        }
        self.add(acc);
        // x86 decode logic is on for the whole duration (exact
        // fixed-point subtraction — no cancellation error).
        self.decoder_active += self.cycles - before;
    }

    /// Charges `n` native instructions of VMM software work (translator,
    /// runtime) through the dependency-limited translator IPC. Linear in
    /// `n`: one call for `n` instructions is bit-identical to `n` calls
    /// for one.
    #[inline]
    pub fn charge_vmm_instrs(&mut self, n: u64) {
        self.add(self.vmm_instr_cost.mul_int(n));
    }

    /// Charges a VMM data touch (source-byte read / code-cache write /
    /// lookup-table probe) through the data-cache hierarchy.
    pub fn vmm_data_touch(&mut self, addr: u32) {
        self.data(addr);
    }

    /// Charges one interpreted x86 instruction.
    #[inline]
    pub fn charge_interp_inst(&mut self, r: &Retired) {
        let c = self.charge_interp_inst_cost(r);
        self.add(c);
    }

    /// [`Timing::charge_interp_inst`] with the charge returned instead
    /// of added, for batch drivers that fold consecutive same-category
    /// charges (see [`Timing::retire_uop_cost`] for why that is
    /// bit-identical).
    #[inline]
    pub fn charge_interp_inst_cost(&mut self, r: &Retired) -> Cycles {
        let mut acc = self.interp_inst_cost;
        // The interpreter performs the architectural memory accesses.
        for m in r.mem.iter() {
            acc += self.data_cost(m.addr);
        }
        // And reads the guest instruction bytes as data.
        acc += self.data_cost(r.pc);
        acc
    }

    /// Charges one `HAloop` iteration (VM.be hardware-assisted BBT of a
    /// single x86 instruction, Fig. 6a), marking the XLTx86 unit active.
    pub fn charge_haloop_inst(&mut self, src_pc: u32, cc_ptr: u32) {
        self.add(self.bbt_be_inst_cost);
        self.decoder_active += self.xlt_extra;
        self.data(src_pc);
        self.data(cc_ptr);
    }

    /// Charges software BBT translation of one x86 instruction (Δ_BBT).
    pub fn charge_sw_bbt_inst(&mut self, src_pc: u32, cc_ptr: u32) {
        self.add(self.bbt_sw_inst_cost);
        self.data(src_pc);
        self.data(cc_ptr);
    }

    /// Charges SBT optimization of one hotspot x86 instruction (Δ_SBT).
    pub fn charge_sbt_inst(&mut self, src_pc: u32, cc_ptr: u32) {
        self.add(self.sbt_inst_cost);
        self.data(src_pc);
        self.data(cc_ptr);
        self.data(cc_ptr ^ 0x40); // optimizer working-set traffic
    }

    /// Models a full cache flush (major context switch; scenario 3
    /// experiments).
    pub fn flush_caches(&mut self) {
        self.hier.flush();
        self.last_fetch_line = u32::MAX;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, MachineKind};
    use cdvm_fisa::{regs, Op, Uop, UopMeta};
    use cdvm_x86::{Inst, MemList, Mnemonic, Width};

    fn timing() -> Timing {
        Timing::new(MachineConfig::preset(MachineKind::VmSoft))
    }

    fn nret(uop: Uop, pc: u32) -> NRetired {
        NRetired {
            pc,
            len: 4,
            uop,
            meta: UopMeta::of(&uop),
            credit: 0,
            mem: None,
            branch: None,
            exit: None,
        }
    }

    #[test]
    fn fused_pairs_cost_less_than_two_singles() {
        let mut a = timing();
        let mut b = timing();
        a.set_category(CycleCat::SbtEmu);
        b.set_category(CycleCat::SbtEmu);
        let plain = Uop::alu(Op::Add, regs::T0, regs::EAX, regs::EBX);
        let fused_head = plain.fused();
        // warm the i-cache first so only slot costs differ
        a.retire_uop(&nret(plain, 0x8000_0000));
        b.retire_uop(&nret(plain, 0x8000_0000));
        let a0 = a.cycles_f();
        let b0 = b.cycles_f();
        for _ in 0..100 {
            a.retire_uop(&nret(plain, 0x8000_0004));
            a.retire_uop(&nret(plain, 0x8000_0008));
            b.retire_uop(&nret(fused_head, 0x8000_0004));
            b.retire_uop(&nret(plain, 0x8000_0008));
        }
        let unfused = a.cycles_f() - a0;
        let fused = b.cycles_f() - b0;
        assert!(fused < unfused, "fusion must save dispatch slots");
        let ratio = unfused / fused;
        assert!((1.1..1.3).contains(&ratio), "pair cost ≈1.7 slots: {ratio}");
    }

    #[test]
    fn steady_state_gain_near_paper_8_percent() {
        // 49% of dynamic micro-ops fused -> ≈ +8% IPC over unfused.
        let mut vm = timing();
        let mut rf = timing();
        vm.set_category(CycleCat::SbtEmu);
        rf.set_category(CycleCat::X86Mode);
        let plain = Uop::alu(Op::Add, regs::T0, regs::EAX, regs::EBX);
        let head = plain.fused();
        // Warm up.
        vm.retire_uop(&nret(plain, 0x8000_0000));
        rf.retire_uop(&nret(plain, 0x8000_0000));
        let v0 = vm.cycles_f();
        let r0 = rf.cycles_f();
        // Per 100 uops: 49 fused (24.5 pairs), 51 single.
        for _ in 0..200 {
            for _ in 0..24 {
                vm.retire_uop(&nret(head, 0x8000_0004));
                vm.retire_uop(&nret(plain, 0x8000_0008));
            }
            for _ in 0..52 {
                vm.retire_uop(&nret(plain, 0x8000_000c));
            }
            for _ in 0..100 {
                rf.retire_uop(&nret(plain, 0x8000_0004));
            }
        }
        let gain = (rf.cycles_f() - r0) / (vm.cycles_f() - v0);
        assert!(
            (1.05..1.12).contains(&gain),
            "steady-state gain should be ≈1.08, got {gain}"
        );
    }

    #[test]
    fn mispredicts_add_frontend_depth() {
        let mut t = timing();
        let u = Uop {
            op: Op::Br,
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 100,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        };
        let mut r = nret(u, 0x8000_0000);
        r.branch = Some((BranchKind::Unconditional, true, 0x8000_1000));
        t.retire_uop(&r); // cold: BTB miss -> mispredict
        let with_miss = t.cycles_f();
        t.retire_uop(&r); // trained
        let trained_delta = t.cycles_f() - with_miss;
        assert!(with_miss > trained_delta + t.cfg.native_front_depth as f64 - 1.0);
    }

    #[test]
    fn cold_caches_dominate_early_cycles() {
        let mut t = timing();
        t.set_category(CycleCat::X86Mode);
        let inst = Inst::new(Mnemonic::Nop, Width::W32, 1);
        let r = Retired {
            pc: 0x40_0000,
            len: 1,
            inst,
            next_pc: 0x40_0001,
            branch: None,
            mem: MemList::default(),
            halted: false,
        };
        t.retire_x86(&r, 1);
        assert!(
            t.cycles_f() >= t.cfg.mem_latency as f64,
            "first fetch must pay the memory latency"
        );
    }

    #[test]
    fn category_attribution() {
        let mut t = timing();
        t.set_category(CycleCat::BbtXlate);
        t.charge_sw_bbt_inst(0x40_0000, 0x8000_0000);
        assert!(t.category_cycles(CycleCat::BbtXlate) > 80.0);
        assert_eq!(t.category_cycles(CycleCat::SbtEmu), 0.0);
        // Fixed point: categories sum to the total exactly, bit for bit.
        let total: Cycles = CycleCat::ALL.iter().map(|&c| t.category_cycles_fp(c)).sum();
        assert_eq!(total, t.cycles_fp());
    }

    #[test]
    fn bbt_sw_cost_near_83_cycles_warm() {
        let mut t = timing();
        t.set_category(CycleCat::BbtXlate);
        // Warm the lines first.
        t.charge_sw_bbt_inst(0x40_0000, 0x8000_0000);
        let c0 = t.cycles_f();
        t.charge_sw_bbt_inst(0x40_0001, 0x8000_0004);
        let per = t.cycles_f() - c0;
        assert!((80.0..90.0).contains(&per), "≈83 cycles/inst, got {per}");
    }

    #[test]
    fn haloop_cost_near_20_cycles_warm() {
        let mut t = Timing::new(MachineConfig::preset(MachineKind::VmBe));
        t.set_category(CycleCat::BbtXlate);
        t.charge_haloop_inst(0x40_0000, 0x8000_0000);
        let c0 = t.cycles_f();
        let a0 = t.decoder_active_cycles();
        t.charge_haloop_inst(0x40_0001, 0x8000_0004);
        let per = t.cycles_f() - c0;
        assert!((19.0..25.0).contains(&per), "≈20 cycles/inst, got {per}");
        assert_eq!(t.decoder_active_cycles() - a0, 4.0);
    }

    #[test]
    fn ref_decoder_always_active() {
        let mut t = Timing::new(MachineConfig::preset(MachineKind::RefSuperscalar));
        t.set_category(CycleCat::X86Mode);
        let inst = Inst::new(Mnemonic::Nop, Width::W32, 1);
        let r = Retired {
            pc: 0x40_0000,
            len: 1,
            inst,
            next_pc: 0x40_0001,
            branch: None,
            mem: MemList::default(),
            halted: false,
        };
        for i in 0..50 {
            let mut r2 = r;
            r2.pc = 0x40_0000 + i;
            t.retire_x86(&r2, 1);
        }
        let frac = t.decoder_active_cycles() / t.cycles_f();
        assert!(frac > 0.999, "x86-mode keeps decoders on: {frac}");
    }

    /// The tentpole's correctness claim: a permuted charge sequence
    /// produces bit-identical `cycles` and per-category totals. The
    /// charge mix covers every pure-accumulator path (slot costs across
    /// categories, VMM instructions, interp instructions, raw charges)
    /// on warmed caches, so the only state the ops touch is the
    /// fixed-point accumulators themselves.
    #[test]
    fn charge_order_independence() {
        #[derive(Clone, Copy)]
        enum Charge {
            Uop(CycleCat),
            Vmm(u64),
            Interp(CycleCat),
            Raw(CycleCat, Cycles),
        }

        let plain = Uop::alu(Op::Add, regs::T0, regs::EAX, regs::EBX);
        let inst = Inst::new(Mnemonic::Nop, Width::W32, 1);
        let interp_r = Retired {
            pc: 0x40_0000,
            len: 1,
            inst,
            next_pc: 0x40_0001,
            branch: None,
            mem: MemList::default(),
            halted: false,
        };

        let apply = |t: &mut Timing, c: &Charge| match *c {
            Charge::Uop(cat) => {
                t.set_category(cat);
                t.retire_uop(&nret(plain, 0x8000_0000));
            }
            Charge::Vmm(n) => {
                t.set_category(CycleCat::Vmm);
                t.charge_vmm_instrs(n);
            }
            Charge::Interp(cat) => {
                t.set_category(cat);
                t.charge_interp_inst(&interp_r);
            }
            Charge::Raw(cat, c) => {
                t.set_category(cat);
                t.charge_cycles(c);
            }
        };

        // Build the charge multiset: a spread of fractional quanta
        // across several categories.
        let mut charges = Vec::new();
        for i in 0..400u64 {
            charges.push(match i % 7 {
                0 => Charge::Uop(CycleCat::BbtEmu),
                1 => Charge::Uop(CycleCat::SbtEmu),
                2 => Charge::Vmm(1 + i % 23),
                3 => Charge::Interp(CycleCat::InterpEmu),
                4 => Charge::Raw(CycleCat::BbtXlate, Cycles::from_f64(0.333 + i as f64 * 0.07)),
                5 => Charge::Uop(CycleCat::BbtEmu),
                _ => Charge::Vmm(3),
            });
        }

        let run = |order: &[usize]| {
            let mut t = timing();
            // Warm every line the charges touch so cache state cannot
            // redistribute miss penalties between categories.
            t.set_category(CycleCat::Vmm);
            t.retire_uop(&nret(plain, 0x8000_0000));
            t.charge_interp_inst(&interp_r);
            let warm_cycles = t.cycles_fp();
            for &i in order {
                apply(&mut t, &charges[i]);
            }
            (t.cycles_fp(), t.category_snapshot_fp(), warm_cycles)
        };

        let identity: Vec<usize> = (0..charges.len()).collect();
        let (base_total, base_cats, _) = run(&identity);

        // Deterministic LCG shuffles (no external rand dependency).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..8 {
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                let j = (rng() as usize) % (i + 1);
                order.swap(i, j);
            }
            let (total, cats, _) = run(&order);
            assert_eq!(total, base_total, "round {round}: total diverged");
            for (k, (a, b)) in cats.iter().zip(base_cats.iter()).enumerate() {
                assert_eq!(a, b, "round {round}: category {k} diverged");
            }
        }
    }

    /// Sizes the Q44.20 range against the fuel watchdog: a run four
    /// orders of magnitude past the largest in-repo fuel budget (1e6
    /// instructions; serve deadlines are caller-chosen u64s) at the
    /// worst per-instruction cost stays far from saturation, and a
    /// deliberately overflowed accumulator pins at `Cycles::MAX`
    /// instead of wrapping to a small wrong total.
    #[test]
    fn fixed_point_covers_fuel_watchdog_range() {
        // Worst-case per-retired-instruction charge: interpreter cost
        // plus three full memory-miss penalties, ≈ 45 + 3·0.75·168 cycles.
        let cfg = MachineConfig::preset(MachineKind::VmSoft);
        let worst_per_inst = cfg.interp_cycles + 3.0 * 0.75 * f64::from(cfg.mem_latency);
        let fuel: u64 = 10_000_000_000; // 1e10 ≫ any armed watchdog limit
        let worst_total = Cycles::from_f64(worst_per_inst).mul_int(fuel);
        assert!(
            !worst_total.is_saturated(),
            "Q44.20 must cover the watchdog envelope"
        );
        assert!(
            worst_total.int_part() < (1 << 44),
            "headroom arithmetic is self-consistent"
        );

        // Saturation boundary: overflow pins at MAX and stays there.
        let mut t = timing();
        t.set_category(CycleCat::Vmm);
        for _ in 0..4 {
            t.charge_cycles(Cycles::from_raw(u64::MAX / 2));
        }
        assert!(t.cycles_fp().is_saturated(), "overflow must saturate");
        assert_eq!(t.cycles_fp(), Cycles::MAX);
        t.charge_vmm_instrs(10);
        assert_eq!(t.cycles_fp(), Cycles::MAX, "saturation is sticky");
    }

    /// `charge_vmm_instrs` is linear: one batched charge equals n unit
    /// charges bit-for-bit (this is what lets the system layer hoist
    /// per-event charges into per-batch ones).
    #[test]
    fn vmm_charge_batches_exactly() {
        let mut one_by_one = timing();
        let mut batched = timing();
        one_by_one.set_category(CycleCat::Vmm);
        batched.set_category(CycleCat::Vmm);
        for _ in 0..1674 {
            one_by_one.charge_vmm_instrs(1);
        }
        batched.charge_vmm_instrs(1674);
        assert_eq!(one_by_one.cycles_fp(), batched.cycles_fp());
        assert_eq!(
            one_by_one.category_snapshot_fp(),
            batched.category_snapshot_fp()
        );
    }
}
