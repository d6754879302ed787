//! Batch-exit boundary differentials for the batched execution drivers
//! (`Interp::step_batch` behind `System::step_x86`, and the native
//! executor batch behind `System::step_native`).
//!
//! The batching contract is that batch boundaries are *invisible*: a run
//! sliced one instruction at a time — the degenerate schedule where every
//! batch ends on its first retirement — must produce bit-identical
//! modeled outputs (cycles, phase accounting, every statistic) to one
//! uninterrupted run. Each test here parks a different awkward event on
//! a batch boundary: a REP string instruction straddling the slice goal,
//! resource watchdogs armed to fire mid-batch, hot detection triggering
//! on the final instruction of a batch, and an SMC store invalidating
//! the decode region the batch is executing from. On the translating
//! machines the same slicing stops and resumes the native executor in
//! the middle of BBT and SBT runs.

#![allow(clippy::unwrap_used, clippy::panic)]

use cdvm_core::{Status, System, TelemetryConfig, Watchdog};
use cdvm_mem::GuestMem;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_x86::{AluOp, Asm, Cond, Gpr, MemRef, Width};

/// Flattens every modeled output the engine-differential fixture pins
/// into comparable `(key, value)` rows. Phase totals are compared on
/// their raw Q44.20 bits: the guarantee is bit-identity, and any float
/// rendering could hide ULP drift.
fn digest(label: &str, sys: &mut System) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut push = |field: &str, value: String| out.push((field.to_string(), value));
    push("cycles", sys.cycles().to_string());
    push("x86_retired", sys.x86_retired().to_string());
    for (i, p) in sys.phase_snapshot().iter().enumerate() {
        push(&format!("phase_cycles[{i}]"), format!("{:#018x}", p.raw()));
    }
    let s = &sys.stats;
    push("x86_mode_retired", s.x86_mode_retired.to_string());
    push("interp_retired", s.interp_retired.to_string());
    push("bbt_retired", s.bbt_retired.to_string());
    push("sbt_retired", s.sbt_retired.to_string());
    push("mode_switches", s.mode_switches.to_string());
    push("vm_exits", s.vm_exits.to_string());
    push("uncrackable_insts", s.uncrackable_insts.to_string());
    let dec = &sys.interp.decoder;
    push("decoder.decodes", dec.decodes().to_string());
    push("decoder.cache_hits", dec.cache_hits().to_string());
    if let Some(vm) = sys.vm.as_ref() {
        push("bbt_table.lookups", vm.bbt_table.lookups().to_string());
        push("sbt_table.lookups", vm.sbt_table.lookups().to_string());
        push("vm.bbt_blocks", vm.stats.bbt_blocks.to_string());
        push("vm.sbt_superblocks", vm.stats.sbt_superblocks.to_string());
        push("vm.sbt_uops", vm.stats.sbt_uops.to_string());
    }
    let cpu = sys.cpu();
    push("gpr", format!("{:08x?}", cpu.gpr));
    push("flags", format!("{:#x}", cpu.flags.bits()));
    push("eip", format!("{:#x}", cpu.eip));
    for (k, _) in &out {
        assert!(!k.is_empty(), "{label}: empty digest key");
    }
    out
}

fn assert_identical(context: &str, mut a: System, mut b: System) {
    let da = digest("batched", &mut a);
    let db = digest("sliced", &mut b);
    let diffs: Vec<String> = da
        .iter()
        .zip(db.iter())
        .filter(|((ka, va), (kb, vb))| ka == kb && va != vb)
        .map(|((k, va), (_, vb))| format!("{k}: batched={va} sliced={vb}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{context}: sliced run diverged from batched run:\n{}",
        diffs.join("\n")
    );
    assert_eq!(da.len(), db.len(), "{context}: digest shape");
}

/// Drives `sys` with `run_slice(step)` until it stops running; every
/// slice boundary is a forced batch exit.
fn run_sliced(sys: &mut System, step: u64) -> Status {
    loop {
        match sys.run_slice(step) {
            Status::Running => {}
            other => return other,
        }
    }
}

fn fresh(cfg: &MachineConfig, mem: &GuestMem, entry: u32) -> System {
    let mut sys = System::with_config(cfg.clone(), mem.clone(), entry);
    // CI arms CDVM_TRACE/CDVM_RECORDER for some suites; the comparison
    // here is about modeled state, and slicing granularity legitimately
    // changes recorder poll points — keep both arms telemetry-free.
    sys.set_telemetry(TelemetryConfig::default());
    sys
}

/// A guest whose hot loop ends in a REP MOVSD long enough that any
/// instruction-count slice goal lands inside its iteration microcode.
fn rep_heavy_program() -> (GuestMem, u32) {
    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_mi(MemRef::abs(0x10_0000), 0xdead_beef);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ebx, 40);
    let outer = asm.here();
    // Twenty-iteration block copy: one architectural retirement, twenty
    // microcode iterations — a slice goal of one instruction is always
    // "straddled" by it.
    asm.mov_ri(Gpr::Esi, 0x10_0000);
    asm.mov_ri(Gpr::Edi, 0x10_0100);
    asm.mov_ri(Gpr::Ecx, 20);
    asm.cld();
    asm.movs(Width::W32, true);
    asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ecx);
    asm.dec_r(Gpr::Ebx);
    asm.jcc(Cond::Ne, outer);
    asm.mov_rm(Gpr::Edx, MemRef::abs(0x10_0100));
    asm.hlt();
    let mut mem = GuestMem::new();
    mem.load(base, &asm.finish());
    (mem, base)
}

/// A small nested-loop guest that trips hot detection quickly on the
/// interpreted tier.
fn hot_loop_program() -> (GuestMem, u32) {
    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    let f_sum = asm.label();
    let start = asm.label();
    asm.jmp(start);
    asm.bind(f_sum);
    let inner = asm.here();
    asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Edx);
    asm.dec_r(Gpr::Edx);
    asm.jcc(Cond::Ne, inner);
    asm.ret();
    asm.bind(start);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ecx, 400);
    let outer = asm.here();
    asm.mov_ri(Gpr::Edx, 10);
    asm.call(f_sum);
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, outer);
    asm.hlt();
    let mut mem = GuestMem::new();
    mem.load(base, &asm.finish());
    (mem, base)
}

#[test]
fn rep_straddling_slice_goal_is_invisible() {
    let (mem, entry) = rep_heavy_program();
    for kind in MachineKind::ALL {
        let cfg = MachineConfig::preset(kind);
        let mut batched = fresh(&cfg, &mem, entry);
        assert_eq!(batched.run_to_completion(u64::MAX), Status::Halted, "{kind}");
        assert_eq!(batched.cpu().gpr[Gpr::Edx as usize], 0xdead_beef, "{kind}: copy ran");

        // One-instruction slices: every REP in the program straddles the
        // goal (its twenty microcode iterations retire inside a slice
        // that asked for one instruction, because a REP retires once).
        let mut sliced = fresh(&cfg, &mem, entry);
        assert_eq!(run_sliced(&mut sliced, 1), Status::Halted, "{kind}");
        assert_identical(&format!("{kind}: rep/slice=1"), batched, sliced);
    }
}

#[test]
fn fuel_watchdog_mid_batch_matches_single_stepping() {
    let (mem, entry) = rep_heavy_program();
    let cfg = MachineConfig::preset(MachineKind::VmInterp);
    // Odd limit so the trip lands mid-batch at an arbitrary alignment,
    // nowhere near a slice or batch edge.
    let limit = 137;
    let mut batched = fresh(&cfg, &mem, entry);
    batched.arm_fuel_watchdog(limit);
    assert_eq!(
        batched.run_to_completion(u64::MAX),
        Status::Exhausted(Watchdog::Fuel { limit }),
        "batched run must trip the fuel watchdog"
    );
    assert_eq!(batched.x86_retired(), limit, "trip is exact, not batch-granular");

    let mut sliced = fresh(&cfg, &mem, entry);
    sliced.arm_fuel_watchdog(limit);
    assert_eq!(
        run_sliced(&mut sliced, 1),
        Status::Exhausted(Watchdog::Fuel { limit }),
        "sliced run must trip identically"
    );
    assert_identical("fuel watchdog", batched, sliced);
}

#[test]
fn translation_watchdog_mid_batch_matches_single_stepping() {
    let (mem, entry) = hot_loop_program();
    let mut cfg = MachineConfig::preset(MachineKind::VmInterp);
    cfg.interp_hot_threshold = 20;
    // Translation counts only change between batches (hot detection ends
    // the batch before translating), so the folded batch-entry check
    // must still trip at exactly the same retirement as the per-step
    // check did.
    let limit = 1;
    let mut batched = fresh(&cfg, &mem, entry);
    batched.arm_translation_watchdog(limit);
    let st = batched.run_to_completion(u64::MAX);
    assert_eq!(
        st,
        Status::Exhausted(Watchdog::Translations { limit }),
        "batched run must exhaust the translation budget"
    );

    let mut sliced = fresh(&cfg, &mem, entry);
    sliced.arm_translation_watchdog(limit);
    assert_eq!(
        run_sliced(&mut sliced, 1),
        Status::Exhausted(Watchdog::Translations { limit }),
        "sliced run must trip identically"
    );
    assert_identical("translation watchdog", batched, sliced);
}

#[test]
fn hot_detection_on_final_batch_instruction() {
    let (mem, entry) = hot_loop_program();
    for kind in [
        MachineKind::VmInterp,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
    ] {
        let mut cfg = MachineConfig::preset(kind);
        cfg.interp_hot_threshold = 20;
        cfg.hot_threshold = 20;
        let mut batched = fresh(&cfg, &mem, entry);
        assert_eq!(batched.run_to_completion(u64::MAX), Status::Halted, "{kind}");
        let vm = batched.vm.as_ref().unwrap();
        assert!(vm.stats.sbt_superblocks > 0, "{kind}: the loop must get promoted");
        assert!(batched.stats.sbt_retired > 0, "{kind}: no SBT retirements");
        if matches!(kind, MachineKind::VmSoft | MachineKind::VmBe) {
            assert!(batched.stats.bbt_retired > 0, "{kind}: no BBT retirements");
        }
        let reference = digest("reference", &mut batched);

        // Sweeping the slice length walks the batch boundary across every
        // alignment of the loop body, so for several of these the taken
        // branch that fires hot detection is exactly the final instruction
        // of a batch (the goal trips on the same retirement), and for
        // others the boundary splits the detect -> translate -> enter
        // sequence. On the translating machines the goal also stops the
        // native executor inside BBT and SBT runs, and the next slice
        // resumes it there.
        for step in 1..=23u64 {
            let mut sliced = fresh(&cfg, &mem, entry);
            assert_eq!(
                run_sliced(&mut sliced, step),
                Status::Halted,
                "{kind}: slice={step}"
            );
            let got = digest("sliced", &mut sliced);
            let diffs: Vec<String> = reference
                .iter()
                .zip(got.iter())
                .filter(|((k, v), (k2, v2))| k == k2 && v != v2)
                .map(|((k, v), (_, v2))| format!("{k}: whole={v} slice{step}={v2}"))
                .collect();
            assert!(
                diffs.is_empty(),
                "{kind}: slice length {step} diverged from the uninterrupted run:\n{}",
                diffs.join("\n")
            );
        }
    }
}

#[test]
fn smc_invalidating_live_memoized_region() {
    // A store into the page the batch is currently decoding from: the
    // decoder's memoized arena (and its sequential-successor chain) hold
    // the very region being patched, so the invalidation must take
    // effect for the next instruction *inside the same batch* — and a
    // run sliced to one instruction must see the exact same sequence of
    // decode-cache generations and modeled charges.
    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ecx, 4);
    let top = asm.here();
    let patched = asm.pc(); // `mov ebx, imm32` — imm32 low byte at +1
    asm.mov_ri(Gpr::Ebx, 9);
    asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
    // Overwrite the immediate's low byte with CL (4, 3, 2, then 1).
    asm.mov_mr8(MemRef::abs(patched + 1), Gpr::Ecx);
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, top);
    asm.hlt();
    let image = asm.finish();
    let mut mem = GuestMem::new();
    mem.load(base, &image);

    let cfg = MachineConfig::preset(MachineKind::VmInterp);
    let mut batched = fresh(&cfg, &mem, base);
    let gen_before = batched.interp.decoder.generation();
    assert_eq!(batched.run_to_completion(u64::MAX), Status::Halted);
    // Pass k sees the previous pass's patch: 9 + 4 + 3 + 2.
    assert_eq!(batched.cpu().gpr[Gpr::Eax as usize], 18, "stale decode served");
    assert!(
        batched.interp.decoder.generation() > gen_before,
        "each SMC store must clear the live decode region"
    );

    let mut sliced = fresh(&cfg, &mem, base);
    assert_eq!(run_sliced(&mut sliced, 1), Status::Halted);
    assert_identical("smc", batched, sliced);
}
