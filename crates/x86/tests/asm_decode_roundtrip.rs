//! Randomized property test: everything the assembler can emit, the
//! decoder decodes back to equivalent operands — across the whole
//! instruction surface. Deterministic seeded generation (no external
//! property-testing crate); the failing seed is printed for replay.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_mem::Rng64;
use cdvm_x86::{decode, AluOp, Asm, Cond, Gpr, Inst, MemRef, Mnemonic, Operand, Rm, ShiftOp, Width};

fn gpr(rng: &mut Rng64) -> Gpr {
    Gpr::from_num(rng.range_u32(0, 8) as u8)
}

fn memref(rng: &mut Rng64) -> MemRef {
    let base = if rng.bool(0.5) { Some(gpr(rng)) } else { None };
    let index = if rng.bool(0.5) {
        let n = rng.range_u32(0, 8) as u8;
        Some(Gpr::from_num(if n == 4 { 0 } else { n }))
    } else {
        None
    };
    let scale = [1u8, 2, 4, 8][rng.range_usize(0, 4)];
    MemRef {
        base,
        index,
        scale: if index.is_some() { scale } else { 1 },
        disp: rng.next_u32() as i32,
    }
}

#[derive(Debug, Clone)]
enum Emit {
    MovRi(Gpr, u32),
    MovRr(Gpr, Gpr),
    MovRm(Gpr, MemRef),
    MovMr(MemRef, Gpr),
    MovMi(MemRef, u32),
    AluRr(u8, Gpr, Gpr),
    AluRi(u8, Gpr, i32),
    AluRm(u8, Gpr, MemRef),
    AluMr(u8, MemRef, Gpr),
    ShiftRi(u8, Gpr, u8),
    Lea(Gpr, MemRef),
    Movzx(Gpr, Gpr, bool),
    Movsx(Gpr, Gpr, bool),
    Setcc(u8, Gpr),
    Cmov(u8, Gpr, Gpr),
    PushR(Gpr),
    PopR(Gpr),
    IncR(Gpr),
    DecR(Gpr),
    ImulRri(Gpr, Gpr, i32),
    Ret(u16),
}

fn random_emit(rng: &mut Rng64) -> Emit {
    match rng.range_u32(0, 21) {
        0 => Emit::MovRi(gpr(rng), rng.next_u32()),
        1 => Emit::MovRr(gpr(rng), gpr(rng)),
        2 => Emit::MovRm(gpr(rng), memref(rng)),
        3 => Emit::MovMr(memref(rng), gpr(rng)),
        4 => Emit::MovMi(memref(rng), rng.next_u32()),
        5 => Emit::AluRr(rng.range_u32(0, 8) as u8, gpr(rng), gpr(rng)),
        6 => Emit::AluRi(rng.range_u32(0, 8) as u8, gpr(rng), rng.next_u32() as i32),
        7 => Emit::AluRm(rng.range_u32(0, 8) as u8, gpr(rng), memref(rng)),
        8 => Emit::AluMr(rng.range_u32(0, 8) as u8, memref(rng), gpr(rng)),
        9 => Emit::ShiftRi(
            rng.range_u32(0, 5) as u8,
            gpr(rng),
            rng.range_u32(1, 32) as u8,
        ),
        10 => Emit::Lea(gpr(rng), memref(rng)),
        11 => Emit::Movzx(gpr(rng), gpr(rng), rng.bool(0.5)),
        12 => Emit::Movsx(gpr(rng), gpr(rng), rng.bool(0.5)),
        13 => Emit::Setcc(rng.range_u32(0, 16) as u8, gpr(rng)),
        14 => Emit::Cmov(rng.range_u32(0, 16) as u8, gpr(rng), gpr(rng)),
        15 => Emit::PushR(gpr(rng)),
        16 => Emit::PopR(gpr(rng)),
        17 => Emit::IncR(gpr(rng)),
        18 => Emit::DecR(gpr(rng)),
        19 => Emit::ImulRri(gpr(rng), gpr(rng), rng.next_u32() as i32),
        _ => Emit::Ret(rng.next_u32() as u16),
    }
}

fn alu(o: u8) -> AluOp {
    AluOp::from_group_num(o % 8)
}

fn shiftop(o: u8) -> ShiftOp {
    [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar, ShiftOp::Rol, ShiftOp::Ror][o as usize % 5]
}

fn apply(asm: &mut Asm, e: &Emit) {
    match e.clone() {
        Emit::MovRi(r, i) => asm.mov_ri(r, i),
        Emit::MovRr(a, b) => asm.mov_rr(a, b),
        Emit::MovRm(r, m) => asm.mov_rm(r, m),
        Emit::MovMr(m, r) => asm.mov_mr(m, r),
        Emit::MovMi(m, i) => asm.mov_mi(m, i),
        Emit::AluRr(o, a, b) => asm.alu_rr(alu(o), a, b),
        Emit::AluRi(o, r, i) => asm.alu_ri(alu(o), r, i),
        Emit::AluRm(o, r, m) => {
            let op = alu(o);
            if op == AluOp::Test {
                asm.alu_mr(op, m, r);
            } else {
                asm.alu_rm(op, r, m);
            }
        }
        Emit::AluMr(o, m, r) => asm.alu_mr(alu(o), m, r),
        Emit::ShiftRi(o, r, c) => asm.shift_ri(shiftop(o), r, c),
        Emit::Lea(r, m) => asm.lea(r, m),
        Emit::Movzx(a, b, w8) => {
            asm.movzx_rr(a, b, if w8 { Width::W8 } else { Width::W16 })
        }
        Emit::Movsx(a, b, w8) => {
            asm.movsx_rr(a, b, if w8 { Width::W8 } else { Width::W16 })
        }
        Emit::Setcc(c, r) => asm.setcc_r(Cond::from_num(c % 16), r),
        Emit::Cmov(c, a, b) => asm.cmovcc_rr(Cond::from_num(c % 16), a, b),
        Emit::PushR(r) => asm.push_r(r),
        Emit::PopR(r) => asm.pop_r(r),
        Emit::IncR(r) => asm.inc_r(r),
        Emit::DecR(r) => asm.dec_r(r),
        Emit::ImulRri(a, b, i) => asm.imul_rri(a, b, i),
        Emit::Ret(n) => asm.ret_n(n),
    }
}

fn decode_stream(code: &[u8], base: u32) -> Vec<Inst> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < code.len() {
        let i = decode(&code[off..], base + off as u32).expect("stream decodes");
        assert!(i.len > 0);
        off += i.len as usize;
        out.push(i);
    }
    out
}

#[test]
fn emitted_code_decodes_instruction_for_instruction() {
    for case in 0..256u64 {
        let seed = 0xA5E0_0000 + case;
        let mut rng = Rng64::new(seed);
        let n = rng.range_usize(1, 40);
        let emits: Vec<Emit> = (0..n).map(|_| random_emit(&mut rng)).collect();

        let mut asm = Asm::new(0x1000);
        for e in &emits {
            apply(&mut asm, e);
        }
        let code = asm.finish();
        let insts = decode_stream(&code, 0x1000);
        assert_eq!(
            insts.len(),
            emits.len(),
            "one decoded inst per emitted inst (seed {seed:#x})"
        );

        // Spot-check operand fidelity for the unambiguous cases.
        for (inst, e) in insts.iter().zip(&emits) {
            match e {
                Emit::MovRi(r, i) => {
                    let want = Mnemonic::Mov {
                        dst: Rm::Reg(*r),
                        src: Operand::Imm(*i as i32),
                    };
                    assert_eq!(inst.mnemonic, want, "seed {seed:#x}");
                }
                Emit::Lea(r, m) => {
                    let want = Mnemonic::Lea { dst: *r, addr: *m };
                    assert_eq!(inst.mnemonic, want, "seed {seed:#x}");
                }
                Emit::AluRi(o, r, i) => {
                    let want = Mnemonic::Alu {
                        op: alu(*o),
                        dst: Rm::Reg(*r),
                        src: Operand::Imm(*i),
                    };
                    assert_eq!(inst.mnemonic, want, "seed {seed:#x}");
                }
                Emit::Ret(n) => {
                    assert_eq!(inst.mnemonic, Mnemonic::Ret { pop: *n }, "seed {seed:#x}");
                }
                _ => {}
            }
        }
    }
}
