//! Binary encoding of the implementation ISA.
//!
//! Micro-ops come in two formats, distinguished by bit 15 of the first
//! halfword; bit 14 is the *fusible* (macro-op head) bit in both:
//!
//! ```text
//! 16-bit: [15]=0 [14]=fus [13:9]=cop5 [8:4]=rd5        [3:0]=rs4/imm4
//! 32-bit: [15]=1 [14]=fus [13:8]=op6  [7:3]=rd5 [2:0]=rs1lo
//!    hw1: [15:14]=rs1hi [13:9]=rs2 [8]=set_flags [7:0]=imm8   (R-form)
//!    hw1: [15:14]=rs1hi [13:0]=imm14                          (I-form)
//!    hw1: [15:0]=imm16                                        (L/B-form)
//! ```
//!
//! R-form flag-setting ALU micro-ops steal `imm8[7:6]` for the flag width
//! (00=8, 01=16, 10=32), leaving a 6-bit immediate; indexed memory ops and
//! `Agen` steal the same bits for the index scale. The translators respect
//! these ranges, synthesising larger constants through `Limm`/`Limmh`.
//!
//! The encoded byte stream is the ground truth stored in the code caches;
//! `encode`/`decode_one` round-trip exactly (property-tested).

use cdvm_x86::{Cond, Width};

use crate::regs;
use crate::uop::{ExitCode, Op, SysOp, Uop};

/// Decoding failures (malformed code-cache contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingError {
    /// Ran out of bytes.
    Truncated,
    /// Unknown 32-bit opcode.
    UnknownOp(u8),
    /// Unknown compact opcode.
    UnknownCompact(u8),
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::Truncated => write!(f, "micro-op truncated"),
            EncodingError::UnknownOp(o) => write!(f, "unknown 32-bit micro-op opcode {o}"),
            EncodingError::UnknownCompact(o) => write!(f, "unknown compact micro-op opcode {o}"),
        }
    }
}

impl std::error::Error for EncodingError {}

// 32-bit opcode numbers.
const OP_ADD: u8 = 0;
const OP_ADC: u8 = 1;
const OP_SUB: u8 = 2;
const OP_SBB: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;
const OP_XOR: u8 = 6;
const OP_SHL: u8 = 7;
const OP_SHR: u8 = 8;
const OP_SAR: u8 = 9;
const OP_ROL: u8 = 10;
const OP_ROR: u8 = 11;
const OP_MULLO: u8 = 12;
const OP_MULHIU: u8 = 13;
const OP_MULHIS: u8 = 14;
const OP_DIVQ: u8 = 15;
const OP_DIVR: u8 = 16;
const OP_IDIVQ: u8 = 17;
const OP_IDIVR: u8 = 18;
const OP_CMPF: u8 = 19;
const OP_TESTF: u8 = 20;
const OP_INCF: u8 = 21;
const OP_DECF: u8 = 22;
const OP_NEG: u8 = 23;
const OP_NOT: u8 = 24;
const OP_SEXT8: u8 = 25;
const OP_SEXT16: u8 = 26;
const OP_ZEXT8: u8 = 27;
const OP_ZEXT16: u8 = 28;
const OP_DEPLO8: u8 = 29;
const OP_DEPHI8: u8 = 30;
const OP_EXTHI8: u8 = 31;
const OP_DEP16: u8 = 32;
const OP_MOV: u8 = 33;
const OP_SETCC: u8 = 34;
const OP_CMOVCC: u8 = 35;
const OP_AGEN: u8 = 36;
const OP_LD8X: u8 = 37;
const OP_LD16X: u8 = 38;
const OP_LD32X: u8 = 39;
const OP_ST8X: u8 = 40;
const OP_ST16X: u8 = 41;
const OP_ST32X: u8 = 42;
const OP_LD8: u8 = 43;
const OP_LD16: u8 = 44;
const OP_LD32: u8 = 45;
const OP_ST8: u8 = 46;
const OP_ST16: u8 = 47;
const OP_ST32: u8 = 48;
const OP_LIMM: u8 = 49;
const OP_LIMMH: u8 = 50;
const OP_BCC: u8 = 51;
const OP_BR: u8 = 52;
const OP_JR: u8 = 53;
const OP_VMEXIT: u8 = 54;
const OP_SYS: u8 = 55;
const OP_XLT: u8 = 56;
const OP_LDF: u8 = 57;
const OP_STF: u8 = 58;
const OP_MOVCSR: u8 = 59;
const OP_BNZ: u8 = 60;
const OP_BZ: u8 = 61;
const OP_RDDF: u8 = 62;

// Compact opcode numbers.
const C_MOV: u8 = 0;
const C_ADDF: u8 = 1;
const C_SUBF: u8 = 2;
const C_ANDF: u8 = 3;
const C_ORF: u8 = 4;
const C_XORF: u8 = 5;
const C_CMPF: u8 = 6;
const C_TESTF: u8 = 7;
const C_ADDI: u8 = 8;
const C_INCF: u8 = 9;
const C_DECF: u8 = 10;
const C_NEGF: u8 = 11;
const C_NOT: u8 = 12;
const C_LD32: u8 = 13;
const C_ST32: u8 = 14;
const C_JR: u8 = 15;
const C_NOP: u8 = 16;
const C_HALT: u8 = 17;

fn width_bits(w: Width) -> u8 {
    match w {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
    }
}

fn width_from_bits(b: u8) -> Width {
    match b & 3 {
        0 => Width::W8,
        1 => Width::W16,
        _ => Width::W32,
    }
}

/// Form of a 32-bit micro-op's second halfword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    R,
    I,
    L,
    B,
}

fn op_info(op: Op) -> (u8, Form) {
    match op {
        Op::Add => (OP_ADD, Form::R),
        Op::Adc => (OP_ADC, Form::R),
        Op::Sub => (OP_SUB, Form::R),
        Op::Sbb => (OP_SBB, Form::R),
        Op::And => (OP_AND, Form::R),
        Op::Or => (OP_OR, Form::R),
        Op::Xor => (OP_XOR, Form::R),
        Op::Shl => (OP_SHL, Form::R),
        Op::Shr => (OP_SHR, Form::R),
        Op::Sar => (OP_SAR, Form::R),
        Op::Rol => (OP_ROL, Form::R),
        Op::Ror => (OP_ROR, Form::R),
        Op::MulLo => (OP_MULLO, Form::R),
        Op::MulHiU => (OP_MULHIU, Form::R),
        Op::MulHiS => (OP_MULHIS, Form::R),
        Op::DivQ => (OP_DIVQ, Form::R),
        Op::DivR => (OP_DIVR, Form::R),
        Op::IDivQ => (OP_IDIVQ, Form::R),
        Op::IDivR => (OP_IDIVR, Form::R),
        Op::CmpF => (OP_CMPF, Form::R),
        Op::TestF => (OP_TESTF, Form::R),
        Op::IncF => (OP_INCF, Form::R),
        Op::DecF => (OP_DECF, Form::R),
        Op::Neg => (OP_NEG, Form::R),
        Op::Not => (OP_NOT, Form::R),
        Op::Sext8 => (OP_SEXT8, Form::R),
        Op::Sext16 => (OP_SEXT16, Form::R),
        Op::Zext8 => (OP_ZEXT8, Form::R),
        Op::Zext16 => (OP_ZEXT16, Form::R),
        Op::DepLo8 => (OP_DEPLO8, Form::R),
        Op::DepHi8 => (OP_DEPHI8, Form::R),
        Op::ExtHi8 => (OP_EXTHI8, Form::R),
        Op::Dep16 => (OP_DEP16, Form::R),
        Op::Mov => (OP_MOV, Form::R),
        Op::Setcc(_) => (OP_SETCC, Form::R),
        Op::Cmovcc(_) => (OP_CMOVCC, Form::R),
        Op::Agen { .. } => (OP_AGEN, Form::R),
        Op::Ld { w, indexed: true, .. } => (
            match w {
                Width::W8 => OP_LD8X,
                Width::W16 => OP_LD16X,
                Width::W32 => OP_LD32X,
            },
            Form::R,
        ),
        Op::St { w, indexed: true, .. } => (
            match w {
                Width::W8 => OP_ST8X,
                Width::W16 => OP_ST16X,
                Width::W32 => OP_ST32X,
            },
            Form::R,
        ),
        Op::Ld { w, indexed: false, .. } => (
            match w {
                Width::W8 => OP_LD8,
                Width::W16 => OP_LD16,
                Width::W32 => OP_LD32,
            },
            Form::I,
        ),
        Op::St { w, indexed: false, .. } => (
            match w {
                Width::W8 => OP_ST8,
                Width::W16 => OP_ST16,
                Width::W32 => OP_ST32,
            },
            Form::I,
        ),
        Op::Limm => (OP_LIMM, Form::L),
        Op::Limmh => (OP_LIMMH, Form::L),
        Op::Bcc(_) => (OP_BCC, Form::B),
        Op::Bnz => (OP_BNZ, Form::B),
        Op::Bz => (OP_BZ, Form::B),
        Op::RdDf => (OP_RDDF, Form::R),
        Op::Br => (OP_BR, Form::B),
        Op::Jr => (OP_JR, Form::R),
        Op::VmExit(_) => (OP_VMEXIT, Form::R),
        Op::Sys(_) => (OP_SYS, Form::R),
        Op::Xlt => (OP_XLT, Form::R),
        Op::LdF => (OP_LDF, Form::R),
        Op::StF => (OP_STF, Form::R),
        Op::MovCsr => (OP_MOVCSR, Form::R),
    }
}

/// The 16-bit compact encoding of `u`, or `None` when its operation or
/// operands do not fit that format.
pub fn encode_compact(u: &Uop) -> Option<u16> {
    if u.rd > 31 {
        return None;
    }
    let rs_ok = |r: u8| r <= 15;
    // Two-register flag-setting ALU form: `rd = rd <op> rs2`.
    let alu_rr = u.set_flags
        && u.w == Width::W32
        && u.rs2 != regs::VMM_SP
        && u.rd == u.rs1
        && rs_ok(u.rs2);
    let unary = u.w == Width::W32 && u.rd == u.rs1;
    let (cop, rd, rs) = match u.op {
        Op::Mov if !u.set_flags && u.rs2 != regs::VMM_SP && rs_ok(u.rs2) => (C_MOV, u.rd, u.rs2),
        Op::Add if alu_rr => (C_ADDF, u.rd, u.rs2),
        Op::Sub if alu_rr => (C_SUBF, u.rd, u.rs2),
        Op::And if alu_rr => (C_ANDF, u.rd, u.rs2),
        Op::Or if alu_rr => (C_ORF, u.rd, u.rs2),
        Op::Xor if alu_rr => (C_XORF, u.rd, u.rs2),
        Op::CmpF | Op::TestF
            if u.w == Width::W32
                && u.rs2 != regs::VMM_SP
                && u.rd == 0
                && rs_ok(u.rs1)
                && rs_ok(u.rs2) =>
        {
            let cop = if u.op == Op::CmpF { C_CMPF } else { C_TESTF };
            (cop, u.rs1, u.rs2)
        }
        Op::Add
            if !u.set_flags
                && u.rs2 == regs::VMM_SP
                && u.rd == u.rs1
                && (-8..=7).contains(&u.imm) =>
        {
            (C_ADDI, u.rd, (u.imm as u8) & 0xf)
        }
        Op::IncF if unary => (C_INCF, u.rd, 0),
        Op::DecF if unary => (C_DECF, u.rd, 0),
        Op::Neg if u.set_flags && unary => (C_NEGF, u.rd, 0),
        Op::Not if !u.set_flags && u.rd == u.rs1 => (C_NOT, u.rd, 0),
        Op::Ld { w: Width::W32, indexed: false, .. } if u.imm == 0 && rs_ok(u.rs1) => {
            (C_LD32, u.rd, u.rs1)
        }
        Op::St { w: Width::W32, indexed: false, .. } if u.imm == 0 && rs_ok(u.rs1) => {
            (C_ST32, u.rd, u.rs1)
        }
        Op::Jr if rs_ok(u.rs1) => (C_JR, 0, u.rs1),
        Op::Sys(SysOp::Halt) if u.imm == 0 => (C_HALT, 0, 0),
        Op::Sys(SysOp::Nop) if u.imm == 0 => (C_NOP, 0, 0),
        _ => return None,
    };
    Some(
        ((u.fusible as u16) << 14)
            | ((cop as u16) << 9)
            | ((rd as u16 & 0x1f) << 4)
            | (rs as u16 & 0xf),
    )
}

fn decode_compact(hw: u16) -> Result<Uop, EncodingError> {
    let fusible = hw & (1 << 14) != 0;
    let cop = ((hw >> 9) & 0x1f) as u8;
    let rd = ((hw >> 4) & 0x1f) as u8;
    let rs = (hw & 0xf) as u8;
    let mk = |op: Op, rd: u8, rs1: u8, rs2: u8, imm: i32, set_flags: bool| Uop {
        op,
        rd,
        rs1,
        rs2,
        imm,
        w: Width::W32,
        set_flags,
        fusible,
    };
    Ok(match cop {
        C_MOV => mk(Op::Mov, rd, rd, rs, 0, false),
        C_ADDF => mk(Op::Add, rd, rd, rs, 0, true),
        C_SUBF => mk(Op::Sub, rd, rd, rs, 0, true),
        C_ANDF => mk(Op::And, rd, rd, rs, 0, true),
        C_ORF => mk(Op::Or, rd, rd, rs, 0, true),
        C_XORF => mk(Op::Xor, rd, rd, rs, 0, true),
        C_CMPF => mk(Op::CmpF, 0, rd, rs, 0, true),
        C_TESTF => mk(Op::TestF, 0, rd, rs, 0, true),
        C_ADDI => mk(
            Op::Add,
            rd,
            rd,
            regs::VMM_SP,
            ((rs << 4) as i8 >> 4) as i32,
            false,
        ),
        C_INCF => mk(Op::IncF, rd, rd, regs::VMM_SP, 0, true),
        C_DECF => mk(Op::DecF, rd, rd, regs::VMM_SP, 0, true),
        C_NEGF => mk(Op::Neg, rd, rd, regs::VMM_SP, 0, true),
        C_NOT => mk(Op::Not, rd, rd, regs::VMM_SP, 0, false),
        C_LD32 => Uop::ld(Width::W32, rd, rs, 0),
        C_ST32 => Uop::st(Width::W32, rd, rs, 0),
        C_JR => mk(Op::Jr, 0, rs, regs::VMM_SP, 0, false),
        C_NOP => mk(Op::Sys(SysOp::Nop), 0, 0, regs::VMM_SP, 0, false),
        C_HALT => mk(Op::Sys(SysOp::Halt), 0, 0, regs::VMM_SP, 0, false),
        other => return Err(EncodingError::UnknownCompact(other)),
    }
    .with_fusible(fusible))
}

impl Uop {
    fn with_fusible(mut self, f: bool) -> Uop {
        self.fusible = f;
        self
    }
}

/// Ops whose operate width matters even without flag setting (multiply /
/// divide read their operands at the x86 width); their `imm8` always
/// carries the width bits.
fn is_width_coded(op: Op) -> bool {
    matches!(
        op,
        Op::MulLo | Op::MulHiU | Op::MulHiS | Op::DivQ | Op::DivR | Op::IDivQ | Op::IDivR
    )
}

/// Extra immediate payload packed into R-form `imm8`.
fn r_imm8(u: &Uop) -> u8 {
    match u.op {
        Op::Setcc(c) | Op::Cmovcc(c) | Op::Bcc(c) => c.num(),
        Op::Agen { scale } | Op::Ld { scale, indexed: true, .. } | Op::St { scale, indexed: true, .. } => {
            let sbits = match scale {
                1 => 0u8,
                2 => 1,
                4 => 2,
                8 => 3,
                _ => 0,
            };
            (sbits << 6) | ((u.imm as i8 as u8) & 0x3f)
        }
        Op::VmExit(c) => c as u8,
        Op::Sys(s) => (s as u8) | (((u.imm as u8) & 0x1f) << 3),
        op if u.set_flags || is_width_coded(op) => {
            (width_bits(u.w) << 6) | ((u.imm as u8) & 0x3f)
        }
        _ => u.imm as u8,
    }
}

/// Encodes a sequence of micro-ops to bytes (little-endian halfwords).
///
/// # Panics
///
/// Panics (debug assertion) when an immediate exceeds its encodable
/// range — translators must pre-split such constants.
pub fn encode(uops: &[Uop]) -> Vec<u8> {
    let mut out = Vec::with_capacity(uops.len() * 4);
    for u in uops {
        encode_into(u, &mut out);
    }
    out
}

/// Encodes one micro-op, appending to `out`; returns encoded length.
pub fn encode_into(u: &Uop, out: &mut Vec<u8>) -> usize {
    if let Some(hw) = encode_compact(u) {
        out.extend_from_slice(&hw.to_le_bytes());
        return 2;
    }
    let (op6, form) = op_info(u.op);
    let hw0: u16 = (1 << 15)
        | ((u.fusible as u16) << 14)
        | ((op6 as u16) << 8)
        | ((u.rd as u16 & 0x1f) << 3)
        | (u.rs1 as u16 & 0x7);
    let rs1hi = ((u.rs1 >> 3) & 0x3) as u16;
    let hw1: u16 = match form {
        Form::R => {
            debug_assert!(imm_fits_r(u), "R-form immediate out of range: {u}");
            (rs1hi << 14)
                | ((u.rs2 as u16 & 0x1f) << 9)
                | ((u.set_flags as u16) << 8)
                | r_imm8(u) as u16
        }
        Form::I => {
            debug_assert!(
                (-(1 << 13)..(1 << 13)).contains(&u.imm),
                "I-form displacement out of range: {u}"
            );
            (rs1hi << 14) | (u.imm as u16 & 0x3fff)
        }
        Form::L => u.imm as u16,
        Form::B => {
            let payload = match u.op {
                Op::Bcc(_) => u.imm,
                _ => u.imm,
            };
            debug_assert!(
                (-(1 << 15)..(1 << 15)).contains(&payload),
                "branch offset out of range: {u}"
            );
            payload as u16
        }
    };
    // For Bcc the condition lives in the rd field; for Bnz/Bz the tested
    // register does (B-form's hw1 is entirely the offset).
    let hw0 = match u.op {
        Op::Bcc(c) => (hw0 & !(0x1f << 3)) | ((c.num() as u16) << 3),
        Op::Bnz | Op::Bz => (hw0 & !(0x1f << 3)) | ((u.rs1 as u16 & 0x1f) << 3),
        _ => hw0,
    };
    out.extend_from_slice(&hw0.to_le_bytes());
    out.extend_from_slice(&hw1.to_le_bytes());
    4
}

fn imm_fits_r(u: &Uop) -> bool {
    match u.op {
        Op::Setcc(_) | Op::Cmovcc(_) | Op::Bcc(_) | Op::VmExit(_) => true,
        Op::Sys(_) => (0..32).contains(&u.imm),
        Op::Agen { .. } | Op::Ld { indexed: true, .. } | Op::St { indexed: true, .. } => {
            (-32..32).contains(&u.imm)
        }
        op if u.set_flags || is_width_coded(op) => (-32..32).contains(&u.imm),
        _ => (-128..128).contains(&u.imm),
    }
}

/// Decodes one micro-op starting at `offset` in `bytes`.
///
/// # Errors
///
/// Returns [`EncodingError`] on truncation or unknown opcodes.
pub fn decode_one(bytes: &[u8], offset: usize) -> Result<(Uop, u8), EncodingError> {
    let hw0 = read_hw(bytes, offset)?;
    if hw0 & (1 << 15) == 0 {
        return Ok((decode_compact(hw0)?, 2));
    }
    let hw1 = read_hw(bytes, offset + 2)?;
    let fusible = hw0 & (1 << 14) != 0;
    let op6 = ((hw0 >> 8) & 0x3f) as u8;
    let rd = ((hw0 >> 3) & 0x1f) as u8;
    let rs1lo = (hw0 & 0x7) as u8;
    let rs1 = rs1lo | (((hw1 >> 14) & 0x3) as u8) << 3;
    let rs2 = ((hw1 >> 9) & 0x1f) as u8;
    let set_flags = hw1 & (1 << 8) != 0;
    let imm8 = (hw1 & 0xff) as u8;
    let imm14 = ((hw1 & 0x3fff) as i16) << 2 >> 2;
    let imm16 = hw1 as i16 as i32;

    let scale_of = |b: u8| 1u8 << ((b >> 6) & 3);
    let disp6 = |b: u8| (((b & 0x3f) as i8) << 2 >> 2) as i32;
    let fw = width_from_bits(imm8 >> 6);
    let fimm = disp6(imm8);

    let r_alu = |op: Op| {
        let (w, imm) = if set_flags || is_width_coded(op) {
            (fw, fimm)
        } else {
            (Width::W32, imm8 as i8 as i32)
        };
        Uop {
            op,
            rd,
            rs1,
            rs2,
            imm,
            w,
            set_flags,
            fusible,
        }
    };
    let always_flags = |op: Op| Uop {
        op,
        rd,
        rs1,
        rs2,
        imm: fimm,
        w: fw,
        set_flags: true,
        fusible,
    };

    let u = match op6 {
        OP_ADD => r_alu(Op::Add),
        OP_ADC => r_alu(Op::Adc),
        OP_SUB => r_alu(Op::Sub),
        OP_SBB => r_alu(Op::Sbb),
        OP_AND => r_alu(Op::And),
        OP_OR => r_alu(Op::Or),
        OP_XOR => r_alu(Op::Xor),
        OP_SHL => r_alu(Op::Shl),
        OP_SHR => r_alu(Op::Shr),
        OP_SAR => r_alu(Op::Sar),
        OP_ROL => r_alu(Op::Rol),
        OP_ROR => r_alu(Op::Ror),
        OP_MULLO => r_alu(Op::MulLo),
        OP_MULHIU => r_alu(Op::MulHiU),
        OP_MULHIS => r_alu(Op::MulHiS),
        OP_DIVQ => r_alu(Op::DivQ),
        OP_DIVR => r_alu(Op::DivR),
        OP_IDIVQ => r_alu(Op::IDivQ),
        OP_IDIVR => r_alu(Op::IDivR),
        OP_CMPF => always_flags(Op::CmpF),
        OP_TESTF => always_flags(Op::TestF),
        OP_INCF => always_flags(Op::IncF),
        OP_DECF => always_flags(Op::DecF),
        OP_NEG => r_alu(Op::Neg),
        OP_NOT => r_alu(Op::Not),
        OP_SEXT8 => r_alu(Op::Sext8),
        OP_SEXT16 => r_alu(Op::Sext16),
        OP_ZEXT8 => r_alu(Op::Zext8),
        OP_ZEXT16 => r_alu(Op::Zext16),
        OP_DEPLO8 => r_alu(Op::DepLo8),
        OP_DEPHI8 => r_alu(Op::DepHi8),
        OP_EXTHI8 => r_alu(Op::ExtHi8),
        OP_DEP16 => r_alu(Op::Dep16),
        OP_MOV => r_alu(Op::Mov),
        OP_SETCC => Uop {
            op: Op::Setcc(Cond::from_num(imm8 & 0xf)),
            rd,
            rs1,
            rs2,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_CMOVCC => Uop {
            op: Op::Cmovcc(Cond::from_num(imm8 & 0xf)),
            rd,
            rs1,
            rs2,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_AGEN => Uop {
            op: Op::Agen {
                scale: scale_of(imm8),
            },
            rd,
            rs1,
            rs2,
            imm: disp6(imm8),
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_LD8X | OP_LD16X | OP_LD32X => Uop {
            op: Op::Ld {
                w: match op6 {
                    OP_LD8X => Width::W8,
                    OP_LD16X => Width::W16,
                    _ => Width::W32,
                },
                indexed: true,
                scale: scale_of(imm8),
            },
            rd,
            rs1,
            rs2,
            imm: disp6(imm8),
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_ST8X | OP_ST16X | OP_ST32X => Uop {
            op: Op::St {
                w: match op6 {
                    OP_ST8X => Width::W8,
                    OP_ST16X => Width::W16,
                    _ => Width::W32,
                },
                indexed: true,
                scale: scale_of(imm8),
            },
            rd,
            rs1,
            rs2,
            imm: disp6(imm8),
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_LD8 | OP_LD16 | OP_LD32 => Uop::ld(
            match op6 {
                OP_LD8 => Width::W8,
                OP_LD16 => Width::W16,
                _ => Width::W32,
            },
            rd,
            rs1,
            imm14 as i32,
        )
        .with_fusible(fusible),
        OP_ST8 | OP_ST16 | OP_ST32 => Uop::st(
            match op6 {
                OP_ST8 => Width::W8,
                OP_ST16 => Width::W16,
                _ => Width::W32,
            },
            rd,
            rs1,
            imm14 as i32,
        )
        .with_fusible(fusible),
        OP_LIMM => Uop::alui(Op::Limm, rd, 0, imm16).with_fusible(fusible),
        OP_LIMMH => Uop {
            op: Op::Limmh,
            rd,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: (hw1 as u16) as i32,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_BCC => Uop {
            op: Op::Bcc(Cond::from_num(rd & 0xf)),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: imm16,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_BNZ | OP_BZ => Uop {
            op: if op6 == OP_BNZ { Op::Bnz } else { Op::Bz },
            rd: 0,
            rs1: rd,
            rs2: regs::VMM_SP,
            imm: imm16,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_RDDF => Uop {
            op: Op::RdDf,
            rd,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_BR => Uop {
            op: Op::Br,
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: imm16,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_JR => Uop {
            op: Op::Jr,
            rd: 0,
            rs1,
            rs2: regs::VMM_SP,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_VMEXIT => Uop {
            op: Op::VmExit(ExitCode::from_num(imm8)),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_SYS => {
            let sub = match imm8 & 0x7 {
                0 => SysOp::Nop,
                1 => SysOp::Halt,
                2 => SysOp::Trap,
                3 => SysOp::Cld,
                _ => SysOp::Std,
            };
            Uop {
                op: Op::Sys(sub),
                rd: 0,
                rs1: 0,
                rs2: regs::VMM_SP,
                imm: (imm8 >> 3) as i32,
                w: Width::W32,
                set_flags: false,
                fusible,
            }
        }
        OP_XLT => Uop {
            op: Op::Xlt,
            rd,
            rs1,
            rs2,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_LDF => Uop {
            op: Op::LdF,
            rd,
            rs1,
            rs2,
            imm: imm8 as i8 as i32,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_STF => Uop {
            op: Op::StF,
            rd,
            rs1,
            rs2,
            imm: imm8 as i8 as i32,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        OP_MOVCSR => Uop {
            op: Op::MovCsr,
            rd,
            rs1,
            rs2,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible,
        },
        other => return Err(EncodingError::UnknownOp(other)),
    };
    Ok((u, 4))
}

fn read_hw(bytes: &[u8], offset: usize) -> Result<u16, EncodingError> {
    if offset + 2 > bytes.len() {
        return Err(EncodingError::Truncated);
    }
    Ok(u16::from_le_bytes([bytes[offset], bytes[offset + 1]]))
}

/// Decodes an entire encoded sequence (for tests and disassembly).
///
/// # Errors
///
/// Returns [`EncodingError`] if any micro-op fails to decode.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Uop>, EncodingError> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let (u, len) = decode_one(bytes, off)?;
        out.push(u);
        off += len as usize;
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn rt(u: Uop) {
        let bytes = encode(&[u]);
        let (d, len) = decode_one(&bytes, 0).expect("decodes");
        assert_eq!(len as usize, bytes.len(), "length mismatch for {u}");
        assert_eq!(d, u, "round-trip mismatch: {u} vs {d}");
    }

    #[test]
    fn compact_round_trips() {
        rt(Uop::alu(Op::Mov, regs::T0, regs::T0, regs::EAX));
        rt(Uop::alu(Op::Add, regs::EAX, regs::EAX, regs::EBX).with_flags(Width::W32));
        rt(Uop {
            rd: 0,
            ..Uop::alu(Op::CmpF, 0, regs::EAX, regs::ECX).with_flags(Width::W32)
        });
        rt(Uop::alui(Op::Add, regs::ESP, regs::ESP, -4));
        rt(Uop::ld(Width::W32, regs::T1, regs::ESP, 0));
        rt(Uop::st(Width::W32, regs::EAX, regs::T0, 0));
        rt(Uop::alu(Op::Jr, 0, regs::T2, regs::VMM_SP));
    }

    #[test]
    fn compact_is_two_bytes() {
        let u = Uop::alu(Op::Add, regs::EAX, regs::EAX, regs::EBX).with_flags(Width::W32);
        assert!(encode_compact(&u).is_some());
        assert_eq!(encode(&[u]).len(), 2);
        assert_eq!(u.encoded_len(), 2);
    }

    #[test]
    fn wide_forms_round_trip() {
        rt(Uop::alu(Op::Adc, regs::T3, regs::T1, regs::T2).with_flags(Width::W16));
        rt(Uop::alui(Op::Shl, regs::T0, regs::T0, 12).with_flags(Width::W32));
        rt(Uop::alu(Op::MulLo, regs::T0, regs::EAX, regs::ECX));
        rt(Uop::alu(Op::DivQ, regs::T0, regs::ECX, regs::VMM_SP));
        rt(Uop::alu(Op::Sext8, regs::T0, regs::EAX, regs::VMM_SP));
        rt(Uop::alu(Op::DepHi8, regs::EAX, regs::EAX, regs::T0));
        rt(Uop {
            imm: 3,
            ..Uop::alu(
                Op::Agen {
                    scale: 4
                },
                regs::T0,
                regs::EAX,
                regs::ECX,
            )
        });
    }

    #[test]
    fn memory_forms_round_trip() {
        rt(Uop::ld(Width::W8, regs::T0, regs::EBP, -1024));
        rt(Uop::ld(Width::W16, regs::T0, regs::EBP, 8191));
        rt(Uop::st(Width::W32, regs::EAX, regs::EBP, -8192));
        rt(Uop {
            op: Op::Ld {
                w: Width::W32,
                indexed: true,
                scale: 8,
            },
            rd: regs::T1,
            rs1: regs::EBX,
            rs2: regs::ECX,
            imm: -16,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
    }

    #[test]
    fn constants_round_trip() {
        for v in [0u32, 0x7fff, 0x8000, 0x1234_5678, 0xffff_ffff] {
            let seq = Uop::limm32(regs::VMM_ARG, v);
            let bytes = encode(&seq);
            let decoded = decode_all(&bytes).unwrap();
            assert_eq!(decoded, seq, "constant {v:#x}");
        }
    }

    #[test]
    fn branches_round_trip() {
        rt(Uop {
            op: Op::Bcc(Cond::Ne),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: -200,
            w: Width::W32,
            set_flags: false,
            fusible: true,
        });
        rt(Uop {
            op: Op::Br,
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 3000,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
        rt(Uop::vmexit(ExitCode::HotTrap));
    }

    #[test]
    fn special_forms_round_trip() {
        rt(Uop {
            op: Op::Xlt,
            rd: 1,
            rs1: 0,
            rs2: 0,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
        rt(Uop {
            op: Op::LdF,
            rd: 0,
            rs1: regs::X86_PC,
            rs2: 0,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
        rt(Uop {
            op: Op::MovCsr,
            rd: regs::T0,
            rs1: 0,
            rs2: 0,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
        rt(Uop {
            op: Op::Sys(SysOp::Trap),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 3,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
        rt(Uop {
            op: Op::Setcc(Cond::G),
            rd: regs::T0,
            rs1: 0,
            rs2: 0,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        });
    }

    #[test]
    fn fusible_bit_preserved_in_both_formats() {
        let compact = Uop::alu(Op::Add, regs::EAX, regs::EAX, regs::EBX)
            .with_flags(Width::W32)
            .fused();
        rt(compact);
        let wide = Uop::alu(Op::Adc, regs::T3, regs::T1, regs::T2)
            .with_flags(Width::W32)
            .fused();
        rt(wide);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(decode_one(&[0x00], 0), Err(EncodingError::Truncated));
        // 32-bit format with opcode 63 (unused)
        let hw0: u16 = (1 << 15) | (63 << 8);
        let mut bytes = hw0.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(decode_one(&bytes, 0), Err(EncodingError::UnknownOp(63)));
    }

    #[test]
    fn mixed_stream_decodes_fully() {
        let uops = vec![
            Uop::alui(Op::Limm, regs::T0, 0, 0x1234),
            Uop::alu(Op::Add, regs::EAX, regs::EAX, regs::T0).with_flags(Width::W32),
            Uop::ld(Width::W32, regs::T1, regs::EAX, 64),
            Uop::vmexit(ExitCode::TranslateMiss),
        ];
        let bytes = encode(&uops);
        assert_eq!(decode_all(&bytes).unwrap(), uops);
    }
}
