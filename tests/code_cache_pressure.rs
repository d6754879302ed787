//! Code-cache pressure: with tiny caches the VM must flush, re-translate
//! and still compute correctly — the paper's §1.1 multitasking concern
//! ("a limited code cache size can cause hotspot re-translations").


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_core::{Status, System};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app, winstone2004};

#[test]
fn tiny_bbt_cache_forces_retranslation_but_stays_correct() {
    let profile = &winstone2004()[3]; // IE: biggest footprint
    let reference = {
        let wl = build_app(profile, 0.002);
        let mut sys = System::new(MachineKind::RefSuperscalar, wl.mem, wl.entry);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        sys.cpu().gpr
    };

    let wl = build_app(profile, 0.002);
    let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
    cfg.bbt_cache_bytes = 4 << 10; // absurdly small: constant flushing
    cfg.sbt_cache_bytes = 8 << 10;
    let mut sys = System::with_config(cfg, wl.mem, wl.entry);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    assert_eq!(sys.cpu().gpr, reference, "correctness under cache pressure");

    let vm = sys.vm.as_ref().unwrap();
    assert!(
        vm.bbt_cache.stats().flushes > 0,
        "the tiny cache must have flushed"
    );
    assert!(
        vm.stats.bbt_retranslated_insts > 0,
        "flushes force re-translation"
    );
}

#[test]
fn retranslation_cost_grows_as_cache_shrinks() {
    let profile = &winstone2004()[3];
    let mut costs = Vec::new();
    for kib in [4usize, 64, 4096] {
        let wl = build_app(profile, 0.002);
        let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
        cfg.bbt_cache_bytes = kib << 10;
        let mut sys = System::with_config(cfg, wl.mem, wl.entry);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        let vm = sys.vm.as_ref().unwrap();
        costs.push((kib, vm.stats.bbt_x86_insts, sys.cycles()));
    }
    // Translation work is monotonically non-increasing with capacity.
    assert!(costs[0].1 >= costs[1].1 && costs[1].1 >= costs[2].1);
    // And the big cache never re-translates.
    let wl = build_app(profile, 0.002);
    let mut sys = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    assert_eq!(sys.vm.as_ref().unwrap().stats.bbt_retranslated_insts, 0);
}

#[test]
fn translation_table_is_swept_on_every_flush() {
    // A flush retires a whole cache generation; the lookup table must
    // shed the dead entries eagerly instead of accreting one tombstone
    // per translated block forever. After a thrash-heavy run the table
    // holds exactly the resident (current-generation) translations.
    let profile = &winstone2004()[3];
    let wl = build_app(profile, 0.002);
    let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
    cfg.bbt_cache_bytes = 4 << 10;
    cfg.sbt_cache_bytes = 8 << 10;
    let mut sys = System::with_config(cfg, wl.mem, wl.entry);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);

    let vm = sys.vm.as_ref().unwrap();
    let flushes = vm.bbt_cache.stats().flushes;
    assert!(flushes > 1, "need repeated flushes, got {flushes}");
    assert_eq!(
        vm.bbt_table.len(),
        vm.bbt_cache.stats().resident_translations,
        "BBT table must only hold live-generation entries"
    );
    assert_eq!(
        vm.sbt_table.len(),
        vm.sbt_cache.stats().resident_translations,
        "SBT table must only hold live-generation entries"
    );
    // The sweep actually fired (dead generations were evicted eagerly).
    assert!(vm.bbt_table.stale_evictions() > 0);
    // Sanity: far more blocks were translated over the run than are live.
    assert!(
        vm.bbt_cache.stats().evicted_translations
            > vm.bbt_cache.stats().resident_translations as u64,
        "the run must have discarded past generations"
    );
}

#[test]
fn table_stays_bounded_across_repeated_flush_cycles() {
    // Run the same starved configuration for several independent slices
    // and check the table never grows beyond the live set between
    // observations — i.e. repeated flush cycles do not leak entries.
    let profile = &winstone2004()[3];
    let wl = build_app(profile, 0.002);
    let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
    cfg.bbt_cache_bytes = 4 << 10;
    let mut sys = System::with_config(cfg, wl.mem, wl.entry);

    loop {
        let st = sys.run_slice(20_000);
        let vm = sys.vm.as_ref().unwrap();
        assert_eq!(
            vm.bbt_table.len(),
            vm.bbt_cache.stats().resident_translations,
            "table leaked entries after {} flushes",
            vm.bbt_cache.stats().flushes
        );
        if st == Status::Halted {
            break;
        }
    }
    let flushes = sys.vm.as_ref().unwrap().bbt_cache.stats().flushes;
    assert!(flushes > 1, "scenario must actually thrash");
}

#[test]
fn retranslation_storm_watchdog_catches_a_thrashing_working_set() {
    // Two hot regions that together exceed a starved BBT cache: every
    // dispatch evicts the other side, so the VM re-translates forever
    // while the guest barely advances. The storm watchdog turns this
    // pathology into a structured, architected end state.
    use cdvm_core::Watchdog;
    use cdvm_mem::GuestMem;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr};

    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Ecx, 50_000);
    let far = asm.label();
    let top = asm.here();
    // Bulk the block up so two copies cannot share a few-hundred-byte
    // cache.
    for _ in 0..12 {
        asm.alu_ri(AluOp::Add, Gpr::Eax, 1);
        asm.alu_rr(AluOp::Xor, Gpr::Edx, Gpr::Eax);
    }
    asm.jmp(far);
    asm.bind(far);
    for _ in 0..12 {
        asm.alu_ri(AluOp::Add, Gpr::Ebx, 1);
        asm.alu_rr(AluOp::Xor, Gpr::Edx, Gpr::Ebx);
    }
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, top);
    asm.hlt();
    let image = asm.finish();
    let mut mem = GuestMem::new();
    mem.load(base, &image);

    let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
    // Each loop block translates to ~85-110 native bytes: either fits
    // alone, the pair does not, so the two sides evict each other.
    cfg.bbt_cache_bytes = 128;
    cfg.sbt_cache_bytes = 512;
    let mut sys = System::with_config(cfg, mem, base);
    sys.arm_storm_watchdog(6);
    let st = sys.run_to_completion(u64::MAX);
    assert!(
        matches!(st, Status::Exhausted(Watchdog::RetranslationStorm { .. })),
        "thrashing run ended {st:?}"
    );
    assert_eq!(sys.stats.watchdog_trips, 1);
    assert!(st.is_architected_end());
}

#[test]
fn injected_decode_faults_under_pressure_keep_stats_consistent() {
    // Corrupt the working set, squeeze the cache, and check that the
    // robustness counters tell a coherent story: every run ends in an
    // architected state, demotions are recorded whenever a structured
    // error was, and retirement keeps making progress.
    use cdvm_core::FaultInjector;
    use cdvm_mem::GuestMem;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr};

    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ecx, 2_000);
    let top = asm.here();
    for _ in 0..8 {
        asm.alu_ri(AluOp::Add, Gpr::Eax, 1);
    }
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, top);
    asm.hlt();
    let image = asm.finish();

    for seed in 1..=10u64 {
        let mut mem = GuestMem::new();
        mem.load(base, &image);
        let mut injector = FaultInjector::new(seed);
        let report = injector.inject_random(&mut mem, base, image.len() as u32);

        let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
        cfg.hot_threshold = 60;
        cfg.bbt_cache_bytes = 1 << 10;
        cfg.sbt_cache_bytes = 1 << 10;
        let mut sys = System::with_config(cfg, mem, base);
        sys.arm_fuel_watchdog(1_000_000);
        let st = sys.run_to_completion(u64::MAX);
        assert!(
            st.is_architected_end(),
            "seed {seed} ({report}) ended {st:?}"
        );
        if sys.last_vm_error().is_some() {
            assert!(
                sys.stats.bbt_demotions + sys.stats.sbt_demotions > 0,
                "seed {seed} ({report}): a structured error was recorded \
                 but no demotion was counted"
            );
        }
        assert!(
            sys.x86_retired() > 0,
            "seed {seed} ({report}): the valid prefix must still retire"
        );
    }
}

#[test]
fn smc_store_invalidates_decoded_instructions() {
    // Self-modifying code on the interpreted tier: a store into a page
    // the decoder fetched from bumps `Memory::code_version`, which must
    // drop the decoded-instruction cache so the next pass executes the
    // patched bytes, not a stale decode.
    use cdvm_mem::GuestMem;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr, MemRef};

    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ecx, 2);
    let top = asm.here();
    let patched = asm.pc(); // `mov ebx, imm32` — imm32 low byte at +1
    asm.mov_ri(Gpr::Ebx, 5);
    asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
    // Overwrite the immediate's low byte with CL (2, then 1).
    asm.mov_mr8(MemRef::abs(patched + 1), Gpr::Ecx);
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, top);
    asm.hlt();
    let image = asm.finish();
    let mut mem = GuestMem::new();
    mem.load(base, &image);

    // VmInterp keeps short-lived code on the interpreted tier (the loop
    // runs twice, far below interp_hot_threshold), where SMC coherence
    // is architected.
    let mut sys = System::new(MachineKind::VmInterp, mem, base);
    let gen_before = sys.interp.decoder.generation();
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    // Pass 1 adds the original 5 and patches the immediate to 2;
    // pass 2 must see the patch: eax = 5 + 2.
    assert_eq!(sys.cpu().gpr[Gpr::Eax as usize], 7, "stale decode served");
    assert!(
        sys.interp.decoder.generation() > gen_before,
        "the SMC store must have cleared the decoded-instruction cache"
    );
}

/// A guest that runs `mov eax, ebx` (89 D8, one micro-op) ten times,
/// overwrites its opcode byte with `patch`, and runs it ten times more.
/// With `patch` 0x87 the second pass runs `xchg eax, ebx` (87 D8, three
/// micro-ops); with eax == ebx the two agree architecturally, and
/// neither is microcoded. Returns the memory and the entry PC.
fn opcode_rewrite_guest(patch: u8) -> (cdvm_mem::GuestMem, u32) {
    use cdvm_x86::{Asm, Cond, Gpr, MemRef};

    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Eax, 7);
    asm.mov_ri(Gpr::Ebx, 7);
    asm.mov_ri(Gpr::Edx, u32::from(patch));
    asm.mov_ri(Gpr::Esi, 2);
    let outer = asm.here();
    asm.mov_ri(Gpr::Ecx, 10);
    let inner = asm.here();
    let site = asm.pc();
    asm.mov_rr(Gpr::Eax, Gpr::Ebx);
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, inner);
    asm.mov_mr8(MemRef::abs(site), Gpr::Edx);
    asm.dec_r(Gpr::Esi);
    asm.jcc(Cond::Ne, outer);
    asm.hlt();
    let image = asm.finish();
    assert_eq!(image[(site - base) as usize], 0x89, "mov r/m32, r32");
    let mut mem = cdvm_mem::GuestMem::new();
    mem.load(base, &image);
    (mem, base)
}

/// Instructions [`opcode_rewrite_guest`] retires up to and including
/// its first store: four set-up moves, the inner-loop counter, ten
/// passes of three, then the store.
const OPCODE_REWRITE_STORE_RETIRES: u64 = 4 + 1 + 10 * 3 + 1;

#[test]
fn smc_rewrite_recracks_x86_mode_dispatch_width() {
    // Ref and VM.fe charge each x86-mode instruction its crack width in
    // dispatch slots, memoized beside the decoded instruction. The SMC
    // store clears the decoder, and a width filled before it must not be
    // reused after it. The control run stores the original opcode byte
    // back, so both runs take the same decoder clears, fetches and
    // branches: the only timing difference left is the rewritten
    // instruction's dispatch width.
    use cdvm_x86::Gpr;

    let run = |kind: MachineKind, patch: u8| {
        let (mem, entry) = opcode_rewrite_guest(patch);
        let mut sys = System::new(kind, mem, entry);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        assert_eq!(sys.cpu().gpr[Gpr::Eax as usize], 7);
        assert_eq!(sys.cpu().gpr[Gpr::Ebx as usize], 7);
        assert!(sys.interp.decoder.generation() > 1, "the store must clear the decoder");
        assert_eq!(sys.x86_retired(), sys.stats.x86_mode_retired, "{kind}: x86 mode only");
        sys.cycles()
    };

    for kind in [MachineKind::RefSuperscalar, MachineKind::VmFe] {
        let unchanged = run(kind, 0x89);
        let rewritten = run(kind, 0x87);
        assert!(
            rewritten > unchanged,
            "{kind}: ten passes over the three-micro-op xchg cost {rewritten} cycles, \
             no more than the one-micro-op mov's {unchanged}: a stale crack width was reused"
        );
    }
}

#[test]
fn instruction_at_address_zero_is_charged_its_crack_width() {
    // Guest code may sit at address 0. A 50-pass loop whose first
    // instruction is there must be charged that instruction's crack
    // width like anywhere else: the three-micro-op `xchg eax, ebx` costs
    // more dispatch slots than the one-micro-op `mov eax, ebx` of the
    // same length, and nothing else differs between the two runs.
    use cdvm_x86::{Asm, Cond, Gpr};

    let run = |kind: MachineKind, xchg: bool| {
        let mut asm = Asm::new(0);
        let top = asm.here();
        if xchg {
            asm.xchg_rr(Gpr::Eax, Gpr::Ebx);
        } else {
            asm.mov_rr(Gpr::Eax, Gpr::Ebx);
        }
        asm.dec_r(Gpr::Ecx);
        asm.jcc(Cond::Ne, top);
        asm.hlt();
        let entry = asm.pc();
        asm.mov_ri(Gpr::Ecx, 50);
        asm.jmp(top);
        let mut mem = cdvm_mem::GuestMem::new();
        mem.load(0, &asm.finish());
        let mut sys = System::new(kind, mem, entry);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        assert_eq!(sys.x86_retired(), sys.stats.x86_mode_retired, "{kind}: x86 mode only");
        assert_eq!(sys.stats.uncrackable_insts, 0);
        sys.cycles()
    };

    for kind in [MachineKind::RefSuperscalar, MachineKind::VmFe] {
        let mov = run(kind, false);
        let xchg = run(kind, true);
        assert!(
            xchg > mov,
            "{kind}: 50 passes over the three-micro-op xchg at address 0 cost {xchg} cycles, \
             no more than the one-micro-op mov's {mov}"
        );
    }
}

#[test]
fn smc_stale_crack_widths_stay_out_of_warm_images() {
    // A run stopped right after its SMC store still holds the widths it
    // cracked before the store. An image saved there must not carry
    // them: a warm run over the rewritten code would be charged the old
    // `mov`'s width for the `xchg`. On Ref an image holds nothing else
    // that changes timing, so a warm run must match a cold one exactly.
    let (mem, entry) = opcode_rewrite_guest(0x87);
    let mut first = System::new(MachineKind::RefSuperscalar, mem, entry);
    assert_eq!(first.run_slice(OPCODE_REWRITE_STORE_RETIRES), Status::Running);
    let image = first.snapshot_bytes();
    let rewritten = first.mem.clone();

    let mut cold = System::new(MachineKind::RefSuperscalar, rewritten.clone(), entry);
    assert_eq!(cold.run_to_completion(u64::MAX), Status::Halted);
    let mut warm = System::new(MachineKind::RefSuperscalar, rewritten, entry);
    let outcome = warm.restore_image_bytes(&image);
    assert!(!outcome.is_cold_boot() && !outcome.is_degraded(), "{outcome:?}");
    assert_eq!(warm.run_to_completion(u64::MAX), Status::Halted);
    assert_eq!(warm.cycles(), cold.cycles(), "the image carried a stale crack width");
}

#[test]
fn code_cache_flush_sheds_decoded_runs() {
    // The native executor memoizes decoded micro-op runs keyed by code
    // cache PC. A flush retires the whole generation and reuses the same
    // addresses for different code, so the run cache must be swept on
    // every flush — both for correctness (asserted against the reference
    // machine) and so it tracks the live code set instead of accreting
    // every generation ever translated.
    let profile = &winstone2004()[3];
    let reference = {
        let wl = build_app(profile, 0.002);
        let mut sys = System::new(MachineKind::RefSuperscalar, wl.mem, wl.entry);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        sys.cpu().gpr
    };

    let wl = build_app(profile, 0.002);
    let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
    cfg.bbt_cache_bytes = 4 << 10;
    cfg.sbt_cache_bytes = 8 << 10;
    let mut sys = System::with_config(cfg, wl.mem, wl.entry);
    let mut peak_runs = 0usize;
    loop {
        let st = sys.run_slice(20_000);
        peak_runs = peak_runs.max(sys.decoded_runs());
        if st == Status::Halted {
            break;
        }
        assert_eq!(st, Status::Running);
    }
    assert_eq!(sys.cpu().gpr, reference, "correctness across flush cycles");

    let vm = sys.vm.as_ref().unwrap();
    assert!(vm.bbt_cache.stats().flushes > 1, "scenario must thrash");
    assert!(peak_runs > 0, "native execution must have cached runs");
    let total_translated = vm.stats.bbt_blocks + vm.stats.sbt_superblocks;
    assert!(
        (sys.decoded_runs() as u64) < total_translated,
        "run cache holds {} entries but only the live generation of {} \
         translations should remain",
        sys.decoded_runs(),
        total_translated
    );
}

#[test]
fn decoder_generation_rollover_keeps_smc_coherent() {
    // `Decoder::clear` is O(1): it bumps a 32-bit generation tag instead
    // of scrubbing the table. When the tag wraps, the table must be
    // scrubbed for real — otherwise slots from four billion clears ago
    // would read as live. Start the counter near the wrap point and force
    // several clears through it via repeated SMC stores.
    use cdvm_mem::GuestMem;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr, MemRef};

    let base = 0x40_0000;
    let mut asm = Asm::new(base);
    asm.mov_ri(Gpr::Eax, 0);
    asm.mov_ri(Gpr::Ecx, 6);
    let top = asm.here();
    let patched = asm.pc();
    asm.mov_ri(Gpr::Ebx, 7);
    asm.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
    asm.mov_mr8(MemRef::abs(patched + 1), Gpr::Ecx);
    asm.dec_r(Gpr::Ecx);
    asm.jcc(Cond::Ne, top);
    asm.hlt();
    let image = asm.finish();
    let mut mem = GuestMem::new();
    mem.load(base, &image);

    let mut sys = System::new(MachineKind::VmInterp, mem, base);
    // Three clears away from wrapping; the six SMC passes march the
    // counter through zero.
    sys.interp.decoder.force_generation(u32::MAX - 3);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    // Pass k sees the previous pass's patch (initial immediate 7, then
    // CL = 6, 5, 4, 3, 2): eax = 7 + 6 + 5 + 4 + 3 + 2.
    assert_eq!(sys.cpu().gpr[Gpr::Eax as usize], 27, "stale decode after rollover");
    let generation = sys.interp.decoder.generation();
    assert!(
        generation < 10,
        "generation must have wrapped and restarted, got {generation}"
    );
}

#[test]
fn context_switch_cache_flush_is_transient_only() {
    // Scenario 3 of §3.1: after a short context switch the translations
    // survive; only the hardware caches refill.
    let profile = &winstone2004()[0];
    let wl = build_app(profile, 0.002);
    let mut sys = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    sys.run_slice(40_000);
    let translated_before = sys.vm.as_ref().unwrap().stats.bbt_blocks;

    sys.context_switch_flush();
    let st = sys.run_to_completion(u64::MAX);
    assert_eq!(st, Status::Halted);

    let translated_after = sys.vm.as_ref().unwrap().stats.bbt_blocks;
    // New blocks may still be discovered, but nothing that was already
    // translated needs re-translation from the flush alone.
    assert_eq!(sys.vm.as_ref().unwrap().stats.bbt_retranslated_insts, 0);
    assert!(translated_after >= translated_before);
}
