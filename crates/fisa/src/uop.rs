//! The micro-op model.

use cdvm_x86::{Cond, Width};

use crate::regs;

/// Reasons translated code hands control back to the VMM runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExitCode {
    /// Direct-branch target has no translation yet; x86 target in
    /// [`regs::VMM_ARG`]. The VMM may chain this site afterwards.
    TranslateMiss = 0,
    /// Indirect-branch/return target missed the inline prediction; x86
    /// target in [`regs::VMM_ARG`].
    IndirectMiss = 1,
    /// A software profile counter crossed the hot threshold; block's x86
    /// entry PC in [`regs::VMM_ARG`].
    HotTrap = 2,
    /// Translation of the current region is complete; used by translator
    /// kernels (Fig. 6a) rather than translated application code.
    TranslatorDone = 3,
}

impl ExitCode {
    /// Builds from the 2-bit encoding.
    pub fn from_num(n: u8) -> ExitCode {
        match n & 3 {
            0 => ExitCode::TranslateMiss,
            1 => ExitCode::IndirectMiss,
            2 => ExitCode::HotTrap,
            _ => ExitCode::TranslatorDone,
        }
    }
}

/// System-op subcodes (folded into one opcode slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SysOp {
    /// No operation.
    Nop = 0,
    /// Stop the machine (translated `HLT`).
    Halt = 1,
    /// Raise a trap to the VMM (translated `INT3`); code in `imm`.
    Trap = 2,
    /// Clear the direction flag.
    Cld = 3,
    /// Set the direction flag.
    Std = 4,
}

/// Micro-op operations.
///
/// ALU operations compute x86-compatible condition flags when the
/// micro-op's `set_flags` bit is on, at the width given by the micro-op's
/// `w` field — the implementation ISA is co-designed for x86 emulation,
/// so its condition register *is* EFLAGS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `rd = rs1 + src2`.
    Add,
    /// `rd = rs1 + src2 + CF`.
    Adc,
    /// `rd = rs1 - src2`.
    Sub,
    /// `rd = rs1 - src2 - CF`.
    Sbb,
    /// `rd = rs1 & src2`.
    And,
    /// `rd = rs1 | src2`.
    Or,
    /// `rd = rs1 ^ src2`.
    Xor,
    /// Left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
    /// Rotate left.
    Rol,
    /// Rotate right.
    Ror,
    /// Low half of a multiply.
    MulLo,
    /// High half of an unsigned widening multiply.
    MulHiU,
    /// High half of a signed widening multiply.
    MulHiS,
    /// Unsigned quotient of `EDX:EAX / rs1` (implicit dividend registers,
    /// as in the x86-oriented micro-op sets of conventional cores).
    DivQ,
    /// Unsigned remainder of `EDX:EAX / rs1`.
    DivR,
    /// Signed quotient of `EDX:EAX / rs1`.
    IDivQ,
    /// Signed remainder of `EDX:EAX / rs1`.
    IDivR,
    /// Compare: flags of `rs1 - src2`, no writeback (always sets flags).
    CmpF,
    /// Test: flags of `rs1 & src2`, no writeback (always sets flags).
    TestF,
    /// Increment preserving CF (x86 `INC` semantics; always sets flags).
    IncF,
    /// Decrement preserving CF (always sets flags).
    DecF,
    /// Two's-complement negate.
    Neg,
    /// One's-complement invert (never sets flags).
    Not,
    /// Sign-extend low byte.
    Sext8,
    /// Sign-extend low halfword.
    Sext16,
    /// Zero-extend low byte.
    Zext8,
    /// Zero-extend low halfword.
    Zext16,
    /// Deposit low byte of `rs2` into byte 0 of `rs1` → `rd`.
    DepLo8,
    /// Deposit low byte of `rs2` into byte 1 of `rs1` → `rd`.
    DepHi8,
    /// Extract byte 1 of `rs1` (read of `AH`-class registers).
    ExtHi8,
    /// Deposit low halfword of `rs2` into `rs1` → `rd`.
    Dep16,
    /// `rd = src2` (register move or small immediate).
    Mov,
    /// `rd = cond ? 1 : 0`.
    Setcc(Cond),
    /// `rd = cond ? rs2 : rs1` (both sources read).
    Cmovcc(Cond),
    /// Address generation: `rd = rs1 + rs2*scale + imm`.
    Agen {
        /// Index scale: 1, 2, 4 or 8.
        scale: u8,
    },
    /// Load of `w` bytes (zero-extending): `rd = [rs1 + imm]`, or
    /// `[rs1 + rs2*scale + imm]` when `indexed`.
    Ld {
        /// Access width.
        w: Width,
        /// Indexed addressing mode (register-form encoding).
        indexed: bool,
        /// Index scale when `indexed`.
        scale: u8,
    },
    /// Store of `w` bytes: `[addr] = rd`-as-source.
    St {
        /// Access width.
        w: Width,
        /// Indexed addressing mode.
        indexed: bool,
        /// Index scale when `indexed`.
        scale: u8,
    },
    /// `rd = sext(imm16)` — low half of a 32-bit constant.
    Limm,
    /// `rd = (rd & 0xffff) | (imm16 << 16)` — high half.
    Limmh,
    /// Conditional branch on the condition register; halfword offset.
    Bcc(Cond),
    /// Branch if `rs1 != 0` (flag-preserving; used for `LOOP`/`REP`).
    Bnz,
    /// Branch if `rs1 == 0` (flag-preserving; used for `JECXZ`/`REP`).
    Bz,
    /// `rd = DF` — read the direction flag (string-op microcode).
    RdDf,
    /// Unconditional direct branch; halfword offset.
    Br,
    /// Indirect jump to the *native* address in `rs1`.
    Jr,
    /// Exit to the VMM runtime.
    VmExit(ExitCode),
    /// System operation (NOP/HALT/TRAP/CLD/STD).
    Sys(SysOp),
    /// `XLTx86 Fdst, Fsrc` — the backend hardware assist (Table 1).
    Xlt,
    /// 128-bit load into an F register: `f[rd] = [rs1 + imm]`.
    LdF,
    /// 128-bit store from an F register.
    StF,
    /// Read the XLTx86 CSR into a general register.
    MovCsr,
}

impl Op {
    /// True for single-cycle ALU-class ops (fusion-candidate heads/tails).
    pub fn is_simple_alu(self) -> bool {
        matches!(
            self,
            Op::Add
                | Op::Adc
                | Op::Sub
                | Op::Sbb
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Shl
                | Op::Shr
                | Op::Sar
                | Op::Rol
                | Op::Ror
                | Op::CmpF
                | Op::TestF
                | Op::IncF
                | Op::DecF
                | Op::Neg
                | Op::Not
                | Op::Sext8
                | Op::Sext16
                | Op::Zext8
                | Op::Zext16
                | Op::DepLo8
                | Op::DepHi8
                | Op::ExtHi8
                | Op::Dep16
                | Op::Mov
                | Op::Setcc(_)
                | Op::Cmovcc(_)
                | Op::Agen { .. }
                | Op::Limm
                | Op::Limmh
                | Op::RdDf
        )
    }

    /// True for long-latency operations (multiply, divide, `XLTx86`).
    pub fn is_long_latency(self) -> bool {
        matches!(
            self,
            Op::MulLo
                | Op::MulHiU
                | Op::MulHiS
                | Op::DivQ
                | Op::DivR
                | Op::IDivQ
                | Op::IDivR
                | Op::Xlt
        )
    }

    /// True for memory operations.
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Ld { .. } | Op::St { .. } | Op::LdF | Op::StF)
    }

    /// True for control transfers (including VMM exits).
    pub fn is_ctl(self) -> bool {
        matches!(
            self,
            Op::Bcc(_)
                | Op::Bnz
                | Op::Bz
                | Op::Br
                | Op::Jr
                | Op::VmExit(_)
                | Op::Sys(SysOp::Halt)
                | Op::Sys(SysOp::Trap)
        )
    }
}

/// One decoded micro-op.
///
/// `rs2 == `[`regs::VMM_SP`] in register-form arithmetic means "the second
/// operand is the immediate field" (R31 is never a data operand by
/// convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uop {
    /// Operation.
    pub op: Op,
    /// Destination register (or store-data register for `St`).
    pub rd: u8,
    /// First source.
    pub rs1: u8,
    /// Second source (or [`regs::VMM_SP`] sentinel for immediate).
    pub rs2: u8,
    /// Immediate / displacement / offset.
    pub imm: i32,
    /// Flag-computation width for flag-setting ALU ops.
    pub w: Width,
    /// Compute x86 condition flags.
    pub set_flags: bool,
    /// Head of a fused macro-op pair.
    pub fusible: bool,
}


/// Decode-time static classification of a micro-op: properties the
/// timing model consults on every retirement that depend only on the
/// encoding. Executors compute this once per decoded micro-op and carry
/// it alongside the cached run, so the retire hot path reads two packed
/// bits instead of re-running opcode matches per micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UopMeta(u8);

impl UopMeta {
    /// Latency class for plain single-cycle micro-ops.
    pub const LAT_NONE: usize = 0;
    /// Multiply-family long-latency micro-ops.
    pub const LAT_LONG: usize = 1;
    /// Divide-family micro-ops.
    pub const LAT_DIV: usize = 2;
    /// The XLT translation-assist micro-op.
    pub const LAT_XLT: usize = 3;

    /// Classifies `u`.
    pub fn of(u: &Uop) -> UopMeta {
        let lat = match u.op {
            Op::MulLo | Op::MulHiU | Op::MulHiS => Self::LAT_LONG,
            Op::DivQ | Op::DivR | Op::IDivQ | Op::IDivR => Self::LAT_DIV,
            Op::Xlt => Self::LAT_XLT,
            _ => Self::LAT_NONE,
        } as u8;
        UopMeta(lat | u8::from(u.is_vmm_bookkeeping()) << 2)
    }

    /// Latency class (`LAT_*`), always in `0..4`.
    #[inline]
    pub fn latency_class(self) -> usize {
        usize::from(self.0 & 3)
    }

    /// Whether the micro-op is VMM bookkeeping glue
    /// ([`Uop::is_vmm_bookkeeping`]).
    #[inline]
    pub fn vmm_bookkeeping(self) -> bool {
        self.0 & 4 != 0
    }
}

impl Uop {
    /// True for micro-ops that only touch VMM-reserved registers
    /// (R16–R23): translation-system glue, not guest computation. A
    /// static property of the encoding, so executors may compute it
    /// once at decode time and carry it alongside the micro-op.
    #[inline]
    pub fn is_vmm_bookkeeping(&self) -> bool {
        let vmm = |r: u8| r.wrapping_sub(16) < 8;
        let src2_ok = self.rs2 == regs::VMM_SP || vmm(self.rs2);
        match self.op {
            Op::Limm | Op::Limmh => vmm(self.rd),
            Op::Bnz | Op::Bz => vmm(self.rs1),
            Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::Shr | Op::Shl | Op::Mov => {
                vmm(self.rd) && vmm(self.rs1) && src2_ok
            }
            _ => false,
        }
    }

    /// A register-register ALU micro-op (no flags).
    pub fn alu(op: Op, rd: u8, rs1: u8, rs2: u8) -> Uop {
        Uop {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        }
    }

    /// A register-immediate ALU micro-op (no flags). The immediate must
    /// fit the encoding's range for the chosen form.
    pub fn alui(op: Op, rd: u8, rs1: u8, imm: i32) -> Uop {
        Uop {
            op,
            rd,
            rs1,
            rs2: regs::VMM_SP,
            imm,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        }
    }

    /// Marks the micro-op flag-setting at width `w`.
    pub fn with_flags(mut self, w: Width) -> Uop {
        self.set_flags = true;
        self.w = w;
        self
    }

    /// Marks the micro-op as a fused-pair head.
    pub fn fused(mut self) -> Uop {
        self.fusible = true;
        self
    }

    /// `rd = imm32`, as a `Limm`/`Limmh` pair (or a single `Limm` when the
    /// constant fits 16 signed bits).
    pub fn limm32(rd: u8, value: u32) -> Vec<Uop> {
        let lo = value as u16;
        let hi = (value >> 16) as u16;
        let as_sext = lo as i16 as i32 as u32;
        if as_sext == value {
            return vec![Uop::alui(Op::Limm, rd, 0, lo as i16 as i32)];
        }
        vec![
            Uop::alui(Op::Limm, rd, 0, lo as i16 as i32),
            Uop::alui(Op::Limmh, rd, 0, hi as i32),
        ]
    }

    /// A load micro-op `rd = [rs1 + disp]`.
    pub fn ld(w: Width, rd: u8, base: u8, disp: i32) -> Uop {
        Uop {
            op: Op::Ld {
                w,
                indexed: false,
                scale: 1,
            },
            rd,
            rs1: base,
            rs2: regs::VMM_SP,
            imm: disp,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        }
    }

    /// A store micro-op `[rs1 + disp] = data`.
    pub fn st(w: Width, data: u8, base: u8, disp: i32) -> Uop {
        Uop {
            op: Op::St {
                w,
                indexed: false,
                scale: 1,
            },
            rd: data,
            rs1: base,
            rs2: regs::VMM_SP,
            imm: disp,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        }
    }

    /// A VMM exit stub tail (x86 target must already be in
    /// [`regs::VMM_ARG`]).
    pub fn vmexit(code: ExitCode) -> Uop {
        Uop::alui(Op::VmExit(code), 0, 0, 0)
    }

    /// Encoded size of this micro-op in bytes (2 or 4): the compact
    /// 16-bit form is used when the operation and operands fit.
    pub fn encoded_len(&self) -> u8 {
        if crate::encoding::encode_compact(self).is_some() {
            2
        } else {
            4
        }
    }
}

impl std::fmt::Display for Uop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.fusible {
            write!(f, ":: ")?;
        }
        let flags = if self.set_flags {
            format!(".f{}", self.w.bits())
        } else {
            String::new()
        };
        match self.op {
            Op::Limm | Op::Limmh => {
                write!(f, "{:?}{} {}, {:#x}", self.op, flags, regs::name(self.rd), self.imm)
            }
            Op::Ld { w, indexed, scale } => {
                if indexed {
                    write!(
                        f,
                        "ld{} {}, [{}+{}*{}+{:#x}]",
                        w.bits(),
                        regs::name(self.rd),
                        regs::name(self.rs1),
                        regs::name(self.rs2),
                        scale,
                        self.imm
                    )
                } else {
                    write!(
                        f,
                        "ld{} {}, [{}+{:#x}]",
                        w.bits(),
                        regs::name(self.rd),
                        regs::name(self.rs1),
                        self.imm
                    )
                }
            }
            Op::St { w, indexed, scale } => {
                if indexed {
                    write!(
                        f,
                        "st{} [{}+{}*{}+{:#x}], {}",
                        w.bits(),
                        regs::name(self.rs1),
                        regs::name(self.rs2),
                        scale,
                        self.imm,
                        regs::name(self.rd)
                    )
                } else {
                    write!(
                        f,
                        "st{} [{}+{:#x}], {}",
                        w.bits(),
                        regs::name(self.rs1),
                        self.imm,
                        regs::name(self.rd)
                    )
                }
            }
            Op::Bcc(c) => write!(f, "b{c} {:+}", self.imm),
            Op::Bnz => write!(f, "bnz {}, {:+}", regs::name(self.rs1), self.imm),
            Op::Bz => write!(f, "bz {}, {:+}", regs::name(self.rs1), self.imm),
            Op::Br => write!(f, "br {:+}", self.imm),
            Op::Jr => write!(f, "jr {}", regs::name(self.rs1)),
            Op::VmExit(code) => write!(f, "vmexit {code:?}"),
            Op::Sys(s) => write!(f, "{s:?}").map(|_| ()),
            _ => {
                write!(f, "{:?}{} {}", self.op, flags, regs::name(self.rd))?;
                write!(f, ", {}", regs::name(self.rs1))?;
                if self.rs2 == regs::VMM_SP {
                    write!(f, ", {:#x}", self.imm)
                } else {
                    write!(f, ", {}", regs::name(self.rs2))
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn limm32_splits_only_when_needed() {
        assert_eq!(Uop::limm32(regs::T0, 100).len(), 1);
        assert_eq!(Uop::limm32(regs::T0, 0xffff_fff0).len(), 1, "sign-extends");
        assert_eq!(Uop::limm32(regs::T0, 0x0001_0000).len(), 2);
        assert_eq!(Uop::limm32(regs::T0, 0x8000).len(), 2, "0x8000 does not sext");
    }

    #[test]
    fn classification() {
        assert!(Op::Add.is_simple_alu());
        assert!(!Op::MulLo.is_simple_alu());
        assert!(Op::DivQ.is_long_latency());
        assert!(Op::Xlt.is_long_latency());
        assert!(Op::Ld {
            w: Width::W32,
            indexed: false,
            scale: 1
        }
        .is_mem());
        assert!(Op::VmExit(ExitCode::TranslateMiss).is_ctl());
        assert!(Op::Sys(SysOp::Halt).is_ctl());
        assert!(!Op::Sys(SysOp::Nop).is_ctl());
    }

    #[test]
    fn display_is_informative() {
        let u = Uop::alu(Op::Add, regs::T0, regs::EAX, regs::EBX).with_flags(Width::W8);
        let s = format!("{u}");
        assert!(s.contains("Add") && s.contains("t0") && s.contains(".f8"), "{s}");
        let l = Uop::ld(Width::W32, regs::T1, regs::ESP, 4);
        assert!(format!("{l}").contains("ld32"));
    }

    #[test]
    fn builders_set_sentinel() {
        let u = Uop::alui(Op::Add, regs::T0, regs::EAX, 5);
        assert_eq!(u.rs2, regs::VMM_SP);
        let u = Uop::alu(Op::Add, regs::T0, regs::EAX, regs::EBX);
        assert_ne!(u.rs2, regs::VMM_SP);
    }
}
