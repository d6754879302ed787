//! The superblock translator/optimizer (SBT).
//!
//! Once the profile declares a block entry hot, the SBT forms a
//! *superblock* — a single-entry multiple-exit trace along the likely
//! path (code straightening, tail duplication by construction) — cracks
//! it, optimizes the micro-ops (copy folding, dead-flag elision,
//! **macro-op fusion**), and emits it with out-of-line side-exit stubs
//! and inline-predicted indirect exits (IA-32 EL style).

use cdvm_cracker::{crack, CtiSpec};
use cdvm_fisa::{can_fuse, regs, ExitCode, Op, SysOp, Uop};
use cdvm_mem::GuestMem;
use cdvm_x86::{Decoder, Inst, Mnemonic, Width};

use crate::error::VmError;
use crate::opt::optimize_run;
use crate::uasm::{UAsm, ULabel, STUB_BYTES};
use crate::vm::{bcc, bnz, bz, lower_rep, TransKind, TranslateOutcome, Vm};

/// Maximum x86 instructions per superblock.
pub const MAX_SUPERBLOCK_INSTS: usize = 48;

/// How a step of the superblock path was classified during formation.
#[derive(Debug, Clone)]
enum SbStep {
    /// Straight-line instruction (REP strings lower inline).
    Inst(u32, Inst),
    /// Conditional followed along its *taken* edge: side exit on the
    /// inverse condition to the fall-through.
    AssertTaken(u32, Inst),
    /// Conditional followed along its fall-through: side exit on the
    /// condition to the taken target.
    AssertNotTaken(u32, Inst),
    /// Unconditional transfer straightened away (`JMP`), or a `CALL`
    /// whose body (return-address push) still executes.
    Straight(u32, Inst),
    /// Conditional or unconditional branch back to the superblock head —
    /// the hot loop spins inside the superblock.
    LoopBack(u32, Inst),
    /// Terminating instruction, lowered with exit stubs.
    Final(u32, Inst),
    /// Path cut by the size cap; continue at this x86 PC.
    Cap(u32),
}

/// Forms the superblock path from the edge profile.
///
/// A decode error on the *speculative* path does not fault the guest —
/// it only means the profile led formation astray (or the bytes are
/// corrupt); the path is cut just before the undecodable instruction so
/// the side exit dispatches there and the lower tiers handle it. An
/// error on the very first instruction is a real failure, propagated so
/// the caller demotes the entry.
fn form_path(
    decoder: &mut Decoder,
    mem: &mut GuestMem,
    vm: &Vm,
    entry: u32,
) -> Result<Vec<SbStep>, VmError> {
    let mut steps = Vec::new();
    let mut visited = std::collections::HashSet::new();
    let mut pc = entry;
    loop {
        if steps.len() >= MAX_SUPERBLOCK_INSTS {
            steps.push(SbStep::Cap(pc));
            break;
        }
        if !visited.insert(pc) {
            // Internal re-convergence: close with a direct exit.
            steps.push(SbStep::Cap(pc));
            break;
        }
        let inst = match decoder.decode_at(mem, pc) {
            Ok(inst) => inst,
            Err(err) if steps.is_empty() => return Err(VmError::Decode { pc, err }),
            Err(_) => {
                steps.push(SbStep::Cap(pc));
                break;
            }
        };
        let next = pc.wrapping_add(inst.len as u32);
        match inst.mnemonic {
            Mnemonic::Jcc { target, .. }
            | Mnemonic::Loop { target }
            | Mnemonic::Jecxz { target } => {
                let p = vm.edges.taken_prob(pc);
                if p >= 0.5 {
                    if target == entry {
                        steps.push(SbStep::LoopBack(pc, inst));
                        break;
                    }
                    steps.push(SbStep::AssertTaken(pc, inst));
                    pc = target;
                } else {
                    steps.push(SbStep::AssertNotTaken(pc, inst));
                    pc = next;
                }
            }
            Mnemonic::Jmp { target } => {
                if target == entry {
                    steps.push(SbStep::LoopBack(pc, inst));
                    break;
                }
                steps.push(SbStep::Straight(pc, inst));
                pc = target;
            }
            Mnemonic::Call { target } => {
                if target == entry {
                    steps.push(SbStep::Final(pc, inst));
                    break;
                }
                steps.push(SbStep::Straight(pc, inst));
                pc = target;
            }
            // Returns, indirect transfers, HLT and INT3.
            m if m.ends_block() => {
                steps.push(SbStep::Final(pc, inst));
                break;
            }
            _ => {
                steps.push(SbStep::Inst(pc, inst));
                pc = next;
            }
        }
    }
    Ok(steps)
}

/// Builds and installs the superblock for a hot `entry`. Returns the
/// outcome and the executor-invalidation list.
///
/// # Errors
///
/// Returns a [`VmError`] when the entry instruction fails to decode or
/// crack, or the superblock cannot fit the code cache. The caller
/// demotes: the entry keeps running from its BBT translation (or the
/// interpreter) and is blacklisted from further promotion.
pub fn translate_sbt(
    vm: &mut Vm,
    decoder: &mut Decoder,
    mem: &mut GuestMem,
    entry: u32,
) -> Result<(TranslateOutcome, Vec<u32>), VmError> {
    let steps = form_path(decoder, mem, vm, entry)?;
    let mut ua = UAsm::new();
    let head = ua.here();

    let mut run: Vec<(Uop, u16)> = Vec::new();
    let mut run_credit = 0u32;
    let mut deferred: Vec<(ULabel, u32)> = Vec::new();
    let mut x86_count = 0u32;
    let mut complex = 0u32;
    let mut fused = 0u64;
    let mut elided = 0u64;

    // Flushes the pending run; `fuse_branch` lets a compare fuse with the
    // immediately following conditional branch micro-op.
    macro_rules! flush {
        ($live_out:expr, $fuse_branch:expr) => {{
            if !run.is_empty() || run_credit > 0 {
                let stats = optimize_run(&mut run, $live_out);
                fused += stats.fused as u64;
                elided += stats.elided as u64;
                if let Some(br) = $fuse_branch {
                    let n = run.len();
                    if n > 0 {
                        let head_ok = !run[n - 1].0.fusible
                            && (n < 2 || !run[n - 2].0.fusible)
                            && can_fuse(&run[n - 1].0, &br);
                        if head_ok {
                            run[n - 1].0.fusible = true;
                            fused += 2;
                        }
                    }
                }
                ua.mark_credit(run_credit, 0);
                ua.extend(run.drain(..).map(|(u, _)| u));
                #[allow(unused_assignments)]
                {
                    run_credit = 0;
                }
            }
        }};
    }

    for (idx, step) in steps.iter().enumerate() {
        let inst_idx = idx as u16;
        match step {
            SbStep::Inst(pc, inst) => {
                let cracked = crack(inst, *pc)?;
                if cracked.complex {
                    complex += 1;
                    vm.stats.complex_insts += 1;
                }
                x86_count += 1;
                if matches!(cracked.cti, Some(CtiSpec::Rep { .. })) {
                    flush!(&[], Option::<Uop>::None);
                    ua.mark_credit(1, 0);
                    lower_rep(&mut ua, &cracked.uops);
                } else {
                    run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                    run_credit += 1;
                }
            }
            SbStep::Straight(pc, inst) => {
                let cracked = crack(inst, *pc)?;
                x86_count += 1;
                run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                run_credit += 1;
            }
            SbStep::AssertTaken(pc, inst) | SbStep::AssertNotTaken(pc, inst) => {
                let cracked = crack(inst, *pc)?;
                x86_count += 1;
                run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                run_credit += 1;
                let assert_taken = matches!(step, SbStep::AssertTaken(..));
                let (branch_uop, exit_target) = match cracked.cti {
                    Some(CtiSpec::CondFlags { cond, target, fall }) => {
                        if assert_taken {
                            (bcc(cond.invert()), fall)
                        } else {
                            (bcc(cond), target)
                        }
                    }
                    Some(CtiSpec::CondNz { reg, target, fall }) => {
                        if assert_taken {
                            (bz(reg), fall)
                        } else {
                            (bnz(reg), target)
                        }
                    }
                    Some(CtiSpec::CondZ { reg, target, fall }) => {
                        if assert_taken {
                            (bnz(reg), fall)
                        } else {
                            (bz(reg), target)
                        }
                    }
                    _ => unreachable!("assert step on non-conditional"),
                };
                flush!(&[], Some(branch_uop));
                let l = ua.label();
                ua.branch_to(branch_uop, l);
                deferred.push((l, exit_target));
            }
            SbStep::LoopBack(pc, inst) => {
                let cracked = crack(inst, *pc)?;
                x86_count += 1;
                run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                run_credit += 1;
                match cracked.cti {
                    Some(CtiSpec::CondFlags { cond, fall, .. }) => {
                        let b = bcc(cond);
                        flush!(&[], Some(b));
                        ua.branch_to(b, head);
                        ua.exit_stub(ExitCode::TranslateMiss, fall);
                    }
                    Some(CtiSpec::CondNz { reg, fall, .. }) => {
                        let b = bnz(reg);
                        flush!(&[], Some(b));
                        ua.branch_to(b, head);
                        ua.exit_stub(ExitCode::TranslateMiss, fall);
                    }
                    Some(CtiSpec::CondZ { reg, fall, .. }) => {
                        let b = bz(reg);
                        flush!(&[], Some(b));
                        ua.branch_to(b, head);
                        ua.exit_stub(ExitCode::TranslateMiss, fall);
                    }
                    Some(CtiSpec::Direct { .. }) => {
                        flush!(&[], Option::<Uop>::None);
                        ua.branch_to(
                            Uop {
                                op: Op::Br,
                                rd: 0,
                                rs1: 0,
                                rs2: regs::VMM_SP,
                                imm: 0,
                                w: Width::W32,
                                set_flags: false,
                                fusible: false,
                            },
                            head,
                        );
                    }
                    _ => unreachable!("loop-back on non-branch"),
                }
            }
            SbStep::Final(pc, inst) => {
                let cracked = crack(inst, *pc)?;
                if cracked.complex {
                    complex += 1;
                }
                x86_count += 1;
                match cracked.cti {
                    Some(CtiSpec::Indirect { reg }) => {
                        run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                        run_credit += 1;
                        flush!(&[reg], Option::<Uop>::None);
                        lower_indirect_exit(vm, &mut ua, *pc, reg, &mut deferred);
                    }
                    // A trap at the superblock entry has no preceding
                    // steps, so raising it directly is precise; an exit
                    // stub here would dispatch straight back into this
                    // superblock.
                    Some(CtiSpec::Trap { code }) if *pc == entry => {
                        run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                        run_credit += 1;
                        flush!(&[], Option::<Uop>::None);
                        ua.push(Uop::alui(Op::Sys(SysOp::Trap), 0, 0, code as i32));
                    }
                    Some(spec) => {
                        run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                        run_credit += 1;
                        flush!(&[], Option::<Uop>::None);
                        lower_final(&mut ua, *pc, spec);
                    }
                    None => {
                        // Hlt/Int3 arrive without CtiSpec only if the
                        // mnemonic is non-CTI; crack gives Halt/Trap for
                        // them, so this is a capped straight tail.
                        run.extend(cracked.uops.iter().map(|&u| (u, inst_idx)));
                        run_credit += 1;
                        flush!(&[], Option::<Uop>::None);
                        ua.exit_stub(
                            ExitCode::TranslateMiss,
                            pc.wrapping_add(inst.len as u32),
                        );
                    }
                }
            }
            SbStep::Cap(next_pc) => {
                flush!(&[], Option::<Uop>::None);
                ua.exit_stub(ExitCode::TranslateMiss, *next_pc);
            }
        }
    }
    flush!(&[], Option::<Uop>::None);

    // Out-of-line side-exit stubs.
    for (label, target) in deferred {
        ua.bind(label);
        ua.exit_stub(ExitCode::TranslateMiss, target);
    }

    // Every exit of optimized code is a candidate hotspot seed: if a
    // side path is hot, it deserves its own counter and superblock.
    let exit_targets: Vec<u32> = ua.stubs().iter().map(|&(_, t, _)| t).collect();
    for t in exit_targets {
        vm.mark_profile_candidate(t);
    }

    ua.pad_to(STUB_BYTES);
    let uop_count = ua.uop_count() as u32;
    let (translation, mut invalidate) = vm.install(ua, entry, TransKind::Sbt, x86_count, None)?;

    vm.stats.sbt_superblocks += 1;
    vm.stats.sbt_x86_insts += x86_count as u64;
    vm.stats.sbt_uops += uop_count as u64;
    vm.stats.sbt_fused_uops += fused;
    vm.stats.sbt_flags_elided += elided;
    vm.trace
        .record_with(|| crate::trace::TraceEvent::SuperblockFormed {
            entry,
            native: translation.native.0,
            x86_count,
            uops: uop_count,
        });

    // Redirect the cold BBT entry into the optimized code and disarm the
    // hotness counter.
    invalidate.extend(vm.redirect_entry_to_sbt(entry, translation.native));
    vm.reset_counter(mem, entry);

    Ok((
        TranslateOutcome {
            translation,
            simple_insts: x86_count - complex,
            complex_insts: complex,
            src_pc: entry,
        },
        invalidate,
    ))
}

/// Final-exit lowering shared with the BBT shapes. `pc` is the address
/// of the instruction being lowered, used to re-dispatch traps.
fn lower_final(ua: &mut UAsm, pc: u32, spec: CtiSpec) {
    match spec {
        CtiSpec::CondFlags { cond, target, fall } => {
            let l = ua.label();
            ua.branch_to(bcc(cond), l);
            ua.exit_stub(ExitCode::TranslateMiss, fall);
            ua.bind(l);
            ua.exit_stub(ExitCode::TranslateMiss, target);
        }
        CtiSpec::CondNz { reg, target, fall } => {
            let l = ua.label();
            ua.branch_to(bnz(reg), l);
            ua.exit_stub(ExitCode::TranslateMiss, fall);
            ua.bind(l);
            ua.exit_stub(ExitCode::TranslateMiss, target);
        }
        CtiSpec::CondZ { reg, target, fall } => {
            let l = ua.label();
            ua.branch_to(bz(reg), l);
            ua.exit_stub(ExitCode::TranslateMiss, fall);
            ua.bind(l);
            ua.exit_stub(ExitCode::TranslateMiss, target);
        }
        CtiSpec::Direct { target } | CtiSpec::DirectCall { target, .. } => {
            ua.exit_stub(ExitCode::TranslateMiss, target);
        }
        CtiSpec::Indirect { reg } => {
            ua.push(Uop::alu(Op::Mov, regs::VMM_ARG, regs::VMM_ARG, reg));
            ua.push(Uop::vmexit(ExitCode::IndirectMiss));
        }
        CtiSpec::Halt => ua.push(Uop::alui(Op::Sys(SysOp::Halt), 0, 0, 0)),
        // A trap inside a superblock cannot raise the Sys Trap uop
        // directly: fault recovery replays from the superblock entry,
        // which would re-execute the body. Exit to the trap's own pc
        // instead; the next tier (BBT or interpreter) raises it with a
        // precise guest PC.
        CtiSpec::Trap { .. } => {
            ua.exit_stub(ExitCode::TranslateMiss, pc);
        }
        CtiSpec::Rep { .. } => unreachable!("REP handled inline"),
    }
}

/// Indirect exit from optimized code: a fast inline comparison against
/// the profile's dominant target (flag-free, via XOR/BNZ), then an inline
/// *sieve* — a direct-mapped software dispatch-table probe in concealed
/// memory — and only then the VMM. The sieve is the software analogue of
/// the code-cache control-transfer support the paper cites ([20]); the
/// VMM populates the table on misses ([`crate::System`] handles that).
fn lower_indirect_exit(
    vm: &Vm,
    ua: &mut UAsm,
    pc: u32,
    reg: u8,
    deferred: &mut Vec<(ULabel, u32)>,
) {
    let _ = deferred;
    // Fast path: statically predicted (monomorphic) target.
    if let Some(pred) = vm.edges.likely_indirect_target(pc) {
        ua.push(Uop::alui(
            Op::Limm,
            regs::VMM_S0,
            0,
            (pred as u16) as i16 as i32,
        ));
        ua.push(Uop::alui(Op::Limmh, regs::VMM_S0, 0, (pred >> 16) as i32));
        ua.push(Uop::alu(Op::Xor, regs::VMM_S1, reg, regs::VMM_S0));
        let sieve = ua.label();
        ua.branch_to(bnz(regs::VMM_S1), sieve);
        ua.exit_stub(ExitCode::TranslateMiss, pred);
        ua.bind(sieve);
    }
    // Sieve: S1 = (reg * 0x9e37_79b9) >> (32 - log2(ENTRIES)); probe
    // [BASE + S1*8]. The index computation must match
    // [`crate::profile::dispatch_slot`] bit-for-bit — the VMM fills the
    // table at that slot on misses. (A plain `reg >> 2` index would
    // alias all four byte-aligned neighbours onto one slot.)
    const HASH: u32 = 0x9e37_79b9;
    ua.push(Uop::alui(
        Op::Limm,
        regs::VMM_S0,
        0,
        (crate::profile::DISPATCH_BASE as u16) as i16 as i32,
    ));
    ua.push(Uop::alui(
        Op::Limmh,
        regs::VMM_S0,
        0,
        (crate::profile::DISPATCH_BASE >> 16) as i32,
    ));
    ua.push(Uop::alui(Op::Limm, regs::VMM_S1, 0, (HASH as u16) as i16 as i32));
    ua.push(Uop::alui(Op::Limmh, regs::VMM_S1, 0, (HASH >> 16) as i32));
    ua.push(Uop::alu(Op::MulLo, regs::VMM_S1, regs::VMM_S1, reg));
    ua.push(Uop::alui(
        Op::Shr,
        regs::VMM_S1,
        regs::VMM_S1,
        (32 - crate::profile::DISPATCH_ENTRIES.trailing_zeros()) as i32,
    ));
    // key probe
    ua.push(Uop {
        op: Op::Ld {
            w: Width::W32,
            indexed: true,
            scale: 8,
        },
        rd: regs::VMM_S2,
        rs1: regs::VMM_S0,
        rs2: regs::VMM_S1,
        imm: 0,
        w: Width::W32,
        set_flags: false,
        fusible: false,
    });
    ua.push(Uop::alu(Op::Xor, regs::VMM_S3, regs::VMM_S2, reg));
    let vmm = ua.label();
    ua.branch_to(bnz(regs::VMM_S3), vmm);
    // value load + native jump
    ua.push(Uop {
        op: Op::Ld {
            w: Width::W32,
            indexed: true,
            scale: 8,
        },
        rd: regs::VMM_S2,
        rs1: regs::VMM_S0,
        rs2: regs::VMM_S1,
        imm: 4,
        w: Width::W32,
        set_flags: false,
        fusible: false,
    });
    ua.push(Uop::alu(Op::Jr, 0, regs::VMM_S2, regs::VMM_SP));
    ua.bind(vmm);
    ua.push(Uop::alu(Op::Mov, regs::VMM_ARG, regs::VMM_ARG, reg));
    ua.push(Uop::vmexit(ExitCode::IndirectMiss));
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr};

    fn setup(build: impl FnOnce(&mut Asm)) -> (Vm, GuestMem, Decoder) {
        let mut asm = Asm::new(0x40_0000);
        build(&mut asm);
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(0x40_0000, &code);
        (Vm::new(1 << 20, 1 << 20, 8000, true), mem, Decoder::new())
    }

    #[test]
    fn hot_loop_closes_inside_superblock() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            // loop: add eax, ebx ; dec ecx ; jne loop ; hlt
            let top = a.here();
            a.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
            a.dec_r(Gpr::Ecx);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        // Train the edge profile: the loop branch is strongly taken.
        for _ in 0..256 {
            vm.edges.observe_cond(0x40_0003, true);
        }
        let (out, _) = translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        assert_eq!(out.translation.kind, TransKind::Sbt);
        assert_eq!(out.translation.x86_count, 3);
        assert!(vm.stats.sbt_fused_uops >= 2, "dec+jne style fusion expected");
        // Lookup now prefers the SBT translation.
        assert_eq!(vm.lookup(0x40_0000), Some(out.translation.native));
    }

    #[test]
    fn straightens_unconditional_jumps() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            let l2 = a.label();
            a.mov_ri(Gpr::Eax, 1);
            a.jmp(l2);
            // unreachable filler
            a.mov_ri(Gpr::Ebx, 9);
            a.bind(l2);
            a.mov_ri(Gpr::Ecx, 2);
            a.ret();
        });
        let (out, _) = translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        // mov, jmp, mov, ret = 4 instructions on the path (filler skipped)
        assert_eq!(out.translation.x86_count, 4);
    }

    #[test]
    fn cold_conditionals_exit_sideways() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.alu_ri(AluOp::Cmp, Gpr::Eax, 0);
            let rare = a.label();
            a.jcc(Cond::E, rare);
            a.mov_ri(Gpr::Ebx, 1);
            a.ret();
            a.bind(rare);
            a.hlt();
        });
        // Bias not-taken.
        for _ in 0..256 {
            vm.edges.observe_cond(0x40_0003, false);
        }
        let (out, _) = translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        // cmp, jcc, mov, ret on the main path.
        assert_eq!(out.translation.x86_count, 4);
    }

    #[test]
    fn indirect_exit_uses_prediction_when_available() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            a.mov_ri(Gpr::Eax, 0x40_2000);
            a.jmp_r(Gpr::Eax);
        });
        for _ in 0..64 {
            vm.edges.observe_indirect(0x40_0005, 0x40_2000);
        }
        let (out, _) = translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        // Prediction sequence adds Limm/Limmh/Xor/Bnz + stub.
        assert!(out.translation.uop_count >= 8);
    }

    #[test]
    fn superblock_caps_at_limit() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            for _ in 0..100 {
                a.inc_r(Gpr::Eax);
            }
            a.hlt();
        });
        let (out, _) = translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        assert_eq!(out.translation.x86_count as usize, MAX_SUPERBLOCK_INSTS);
    }

    #[test]
    fn flag_elision_fires_on_flag_heavy_code() {
        let (mut vm, mut mem, mut dec) = setup(|a| {
            for _ in 0..8 {
                a.alu_ri(AluOp::Add, Gpr::Eax, 1);
            }
            a.hlt();
        });
        translate_sbt(&mut vm, &mut dec, &mut mem, 0x40_0000).unwrap();
        assert!(
            vm.stats.sbt_flags_elided >= 7,
            "only the last add's flags can be observed: {}",
            vm.stats.sbt_flags_elided
        );
    }
}
