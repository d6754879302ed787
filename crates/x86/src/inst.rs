//! The decoded-instruction model.
//!
//! Each [`Mnemonic`] carries exactly the operands its encodings have, in
//! the shapes they can take: a destination is an [`Rm`] (never an
//! immediate), an `LEA` source is a [`MemRef`], a shift count is an
//! immediate or `CL`, and a direct branch holds its resolved target. The
//! interpreter and the cracker destructure the form they match, so there
//! is no operand presence left to check at run time.

use crate::{AluOp, Cond, Gpr, ShiftOp, Width};

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Gpr>,
    /// Index register, if any (never `ESP`).
    pub index: Option<Gpr>,
    /// Scale applied to the index: 1, 2, 4 or 8.
    pub scale: u8,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// An absolute-address operand.
    pub fn abs(addr: u32) -> MemRef {
        MemRef {
            base: None,
            index: None,
            scale: 1,
            disp: addr as i32,
        }
    }

    /// A base-plus-displacement operand.
    pub fn base_disp(base: Gpr, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// A full base+index*scale+disp operand.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8, or if `index` is `ESP`
    /// (unencodable in hardware).
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> MemRef {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        assert!(index != Gpr::Esp, "ESP cannot be an index register");
        MemRef {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }
}

impl std::fmt::Display for MemRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some(i) = self.index {
            if wrote {
                write!(f, "+")?;
            }
            write!(f, "{i}*{}", self.scale)?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if self.disp < 0 {
                write!(f, "-{:#x}", (self.disp as i64).unsigned_abs())?;
            } else {
                if wrote {
                    write!(f, "+")?;
                }
                write!(f, "{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// A register or memory operand (the ModRM `r/m` field). Every
/// destination is one of these, so no destination can be an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rm {
    /// A register, interpreted at the instruction's width.
    Reg(Gpr),
    /// A memory reference.
    Mem(MemRef),
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register, interpreted at the instruction's width.
    Reg(Gpr),
    /// A memory reference.
    Mem(MemRef),
    /// An immediate (sign-extended to 32 bits at decode time).
    Imm(i32),
}

impl From<Rm> for Operand {
    #[inline]
    fn from(rm: Rm) -> Operand {
        match rm {
            Rm::Reg(r) => Operand::Reg(r),
            Rm::Mem(m) => Operand::Mem(m),
        }
    }
}

impl std::fmt::Display for Rm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Operand::from(*self).fmt(f)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Imm(i) => write!(f, "{i:#x}"),
        }
    }
}

/// The count of a shift or rotate (masked to five bits when applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftCount {
    /// An immediate count (`1` for the `D0`/`D1` forms).
    Imm(u8),
    /// The count in `CL`.
    Cl,
}

impl std::fmt::Display for ShiftCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShiftCount::Imm(c) => write!(f, "{c:#x}"),
            ShiftCount::Cl => write!(f, "{}", Gpr::Ecx),
        }
    }
}

/// A string operation: one element per retired iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrOp {
    /// String move.
    Movs,
    /// String store.
    Stos,
    /// String load.
    Lods,
}

/// Instruction operation, with its sub-operation selectors and operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mnemonic {
    /// Data move (register, memory or immediate forms).
    Mov {
        /// Destination.
        dst: Rm,
        /// Source.
        src: Operand,
    },
    /// Zero-extending move from a narrower source.
    Movzx {
        /// Source width.
        from: Width,
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
    },
    /// Sign-extending move from a narrower source.
    Movsx {
        /// Source width.
        from: Width,
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
    },
    /// Load effective address.
    Lea {
        /// Destination register.
        dst: Gpr,
        /// The address computed.
        addr: MemRef,
    },
    /// Exchange two operands.
    Xchg {
        /// First operand.
        dst: Rm,
        /// Second operand.
        src: Gpr,
    },
    /// Push onto the stack.
    Push {
        /// Value pushed.
        src: Operand,
    },
    /// Pop from the stack.
    Pop {
        /// Destination.
        dst: Rm,
    },
    /// Two-operand ALU operation (ADD/OR/ADC/SBB/AND/SUB/XOR/CMP/TEST).
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination, also the first source.
        dst: Rm,
        /// Second source.
        src: Operand,
    },
    /// Increment (CF preserved).
    Inc {
        /// Operand.
        dst: Rm,
    },
    /// Decrement (CF preserved).
    Dec {
        /// Operand.
        dst: Rm,
    },
    /// Two's-complement negate.
    Neg {
        /// Operand.
        dst: Rm,
    },
    /// One's-complement invert (no flags).
    Not {
        /// Operand.
        dst: Rm,
    },
    /// Unsigned widening multiply of EAX into EDX:EAX.
    Mul {
        /// Multiplier.
        src: Rm,
    },
    /// Signed widening multiply of EAX into EDX:EAX.
    ImulWide {
        /// Multiplier.
        src: Rm,
    },
    /// Truncating signed multiply `dst = dst * src`.
    Imul {
        /// Destination, also the first factor.
        dst: Gpr,
        /// Second factor.
        src: Rm,
    },
    /// Truncating signed multiply `dst = src * imm`.
    ImulImm {
        /// Destination.
        dst: Gpr,
        /// First factor.
        src: Rm,
        /// Second factor.
        imm: i32,
    },
    /// Unsigned divide of EDX:EAX.
    Div {
        /// Divisor.
        src: Rm,
    },
    /// Signed divide of EDX:EAX.
    Idiv {
        /// Divisor.
        src: Rm,
    },
    /// Shift or rotate.
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Operand.
        dst: Rm,
        /// Count.
        count: ShiftCount,
    },
    /// Conditional near branch.
    Jcc {
        /// Branch condition.
        cond: Cond,
        /// Absolute target, resolved at decode time.
        target: u32,
    },
    /// Unconditional direct branch.
    Jmp {
        /// Absolute target.
        target: u32,
    },
    /// Indirect branch through register or memory.
    JmpInd {
        /// Operand holding the target.
        target: Rm,
    },
    /// Direct call.
    Call {
        /// Absolute target.
        target: u32,
    },
    /// Indirect call.
    CallInd {
        /// Operand holding the target.
        target: Rm,
    },
    /// Near return.
    Ret {
        /// Extra bytes popped after the return address.
        pop: u16,
    },
    /// Decrement ECX and branch if non-zero.
    Loop {
        /// Absolute target.
        target: u32,
    },
    /// Branch if ECX is zero.
    Jecxz {
        /// Absolute target.
        target: u32,
    },
    /// Set byte on condition.
    Setcc {
        /// Condition.
        cond: Cond,
        /// Byte destination.
        dst: Rm,
    },
    /// Conditional move.
    Cmovcc {
        /// Condition.
        cond: Cond,
        /// Destination register.
        dst: Gpr,
        /// Source.
        src: Rm,
    },
    /// Sign-extend AX into EAX (`CWDE`) — width selects CBW vs CWDE.
    Cwde,
    /// Sign-extend EAX into EDX:EAX (`CDQ`).
    Cdq,
    /// Clear the direction flag.
    Cld,
    /// Set the direction flag.
    Std,
    /// String move, store or load (complex/microcoded).
    Str {
        /// Which string operation.
        op: StrOp,
        /// `REP` prefix present: ECX counts the iterations.
        rep: bool,
    },
    /// Push all eight GPRs (complex/microcoded).
    Pusha,
    /// Pop all eight GPRs (complex/microcoded).
    Popa,
    /// Build a stack frame (complex/microcoded).
    Enter {
        /// Bytes of locals allocated.
        frame: u16,
        /// Lexical nesting level (decoded; the frame model ignores it).
        nesting: u8,
    },
    /// Tear down a stack frame.
    Leave,
    /// No operation.
    Nop,
    /// Halt: ends the simulated program.
    Hlt,
    /// Breakpoint: raises a fault (used by precise-state tests).
    Int3,
    /// Processor identification (complex/microcoded; clobbers EAX–EDX).
    Cpuid,
}

/// Classification of control-transfer instructions, used by branch
/// prediction and superblock formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch.
    Unconditional,
    /// Direct call.
    Call,
    /// Return.
    Return,
    /// Indirect branch or call.
    Indirect,
}

impl Mnemonic {
    /// True if this is a control-transfer instruction (ends a basic
    /// block).
    pub fn is_cti(self) -> bool {
        self.branch_kind().is_some()
    }

    /// True if a basic block ends here: a control transfer, `HLT` or
    /// `INT3`.
    pub fn ends_block(self) -> bool {
        self.is_cti() || matches!(self, Mnemonic::Hlt | Mnemonic::Int3)
    }

    /// The branch classification, if this is a CTI.
    pub fn branch_kind(self) -> Option<BranchKind> {
        match self {
            Mnemonic::Jcc { .. } | Mnemonic::Loop { .. } | Mnemonic::Jecxz { .. } => {
                Some(BranchKind::Conditional)
            }
            Mnemonic::Jmp { .. } => Some(BranchKind::Unconditional),
            Mnemonic::Call { .. } => Some(BranchKind::Call),
            Mnemonic::Ret { .. } => Some(BranchKind::Return),
            Mnemonic::JmpInd { .. } | Mnemonic::CallInd { .. } => Some(BranchKind::Indirect),
            _ => None,
        }
    }

    /// True for instructions the hardware assists flag as *complex*
    /// (`Flag_cmplx`): they are punted to the software/microcode path by
    /// both the XLTx86 unit and the dual-mode decoder's fast path.
    pub fn is_complex(self) -> bool {
        matches!(
            self,
            Mnemonic::Str { .. }
                | Mnemonic::Pusha
                | Mnemonic::Popa
                | Mnemonic::Enter { .. }
                | Mnemonic::Cpuid
        )
    }
}

/// A decoded x86 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation and operands.
    pub mnemonic: Mnemonic,
    /// Operand width.
    pub width: Width,
    /// Encoded length in bytes (1–15).
    pub len: u8,
}

// Decoded instructions are copied into every retirement record and
// cached per PC; the typed forms must not grow them.
const _: () = assert!(std::mem::size_of::<Inst>() <= 32);

impl Inst {
    /// Creates an instruction.
    pub fn new(mnemonic: Mnemonic, width: Width, len: u8) -> Inst {
        Inst {
            mnemonic,
            width,
            len,
        }
    }

    /// Direct branch target, if this is a direct CTI (absolute, resolved
    /// at decode time).
    pub fn direct_target(&self) -> Option<u32> {
        match self.mnemonic {
            Mnemonic::Jcc { target, .. }
            | Mnemonic::Jmp { target }
            | Mnemonic::Call { target }
            | Mnemonic::Loop { target }
            | Mnemonic::Jecxz { target } => Some(target),
            _ => None,
        }
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Mnemonic as M;
        let name = match self.mnemonic {
            M::Alu { op, .. } => format!("{op:?}"),
            M::Shift { op, .. } => format!("{op:?}"),
            M::Str { op, .. } => format!("{op:?}"),
            M::Jcc { cond, .. } => format!("j{cond}"),
            M::Setcc { cond, .. } => format!("set{cond}"),
            M::Cmovcc { cond, .. } => format!("cmov{cond}"),
            M::ImulImm { .. } => "imul".into(),
            // The variant name: the Debug text up to its operand fields.
            m => format!("{m:?}")
                .split(' ')
                .next()
                .unwrap_or_default()
                .into(),
        };
        write!(f, "{}", name.to_lowercase())?;
        if self.width != Width::W32 {
            write!(f, ".{}", self.width)?;
        }
        // Operands print as `mnemonic dst, src, src2`; a form without a
        // destination starts at the comma.
        match self.mnemonic {
            M::Mov { dst, src } | M::Alu { dst, src, .. } => write!(f, " {dst}, {src}"),
            M::Movzx { dst, src, .. }
            | M::Movsx { dst, src, .. }
            | M::Imul { dst, src }
            | M::Cmovcc { dst, src, .. } => write!(f, " {dst}, {src}"),
            M::ImulImm { dst, src, imm } => write!(f, " {dst}, {src}, {}", Operand::Imm(imm)),
            M::Lea { dst, addr } => write!(f, " {dst}, {addr}"),
            M::Xchg { dst, src } => write!(f, " {dst}, {src}"),
            M::Shift { dst, count, .. } => write!(f, " {dst}, {count}"),
            M::Pop { dst }
            | M::Inc { dst }
            | M::Dec { dst }
            | M::Neg { dst }
            | M::Not { dst }
            | M::Setcc { dst, .. } => write!(f, " {dst}"),
            M::Mul { src } | M::ImulWide { src } | M::Div { src } | M::Idiv { src } => {
                write!(f, " {src}")
            }
            M::Push { src } => write!(f, ", {src}"),
            M::JmpInd { target } | M::CallInd { target } => write!(f, ", {target}"),
            M::Jcc { target, .. }
            | M::Jmp { target }
            | M::Call { target }
            | M::Loop { target }
            | M::Jecxz { target } => write!(f, ", {target:#x}"),
            M::Ret { pop } if pop != 0 => write!(f, ", {pop:#x}"),
            M::Enter { frame, nesting } => write!(f, ", {frame:#x}, {nesting:#x}"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn cti_classification() {
        let jcc = Mnemonic::Jcc {
            cond: Cond::E,
            target: 0,
        };
        assert_eq!(jcc.branch_kind(), Some(BranchKind::Conditional));
        assert_eq!(
            Mnemonic::Ret { pop: 0 }.branch_kind(),
            Some(BranchKind::Return)
        );
        let call_ind = Mnemonic::CallInd {
            target: Rm::Reg(Gpr::Eax),
        };
        assert_eq!(call_ind.branch_kind(), Some(BranchKind::Indirect));
        let mov = Mnemonic::Mov {
            dst: Rm::Reg(Gpr::Eax),
            src: Operand::Imm(0),
        };
        assert!(mov.branch_kind().is_none());
        assert!(Mnemonic::Jmp { target: 0 }.is_cti());
        let add = Mnemonic::Alu {
            op: AluOp::Add,
            dst: Rm::Reg(Gpr::Eax),
            src: Operand::Imm(1),
        };
        assert!(!add.is_cti());
    }

    #[test]
    fn complex_set_matches_paper_model() {
        let movs = Mnemonic::Str {
            op: StrOp::Movs,
            rep: false,
        };
        assert!(movs.is_complex());
        assert!(Mnemonic::Pusha.is_complex());
        assert!(Mnemonic::Cpuid.is_complex());
        let mov = Mnemonic::Mov {
            dst: Rm::Reg(Gpr::Eax),
            src: Operand::Imm(0),
        };
        assert!(!mov.is_complex());
        let jcc = Mnemonic::Jcc {
            cond: Cond::E,
            target: 0,
        };
        assert!(!jcc.is_complex());
    }

    #[test]
    fn direct_target_extraction() {
        let i = Inst::new(Mnemonic::Jmp { target: 0x40_1000 }, Width::W32, 5);
        assert_eq!(i.direct_target(), Some(0x40_1000));
        // An unconditional jump never falls through.
        assert_eq!(i.mnemonic.branch_kind(), Some(BranchKind::Unconditional));
    }

    #[test]
    fn memref_display_and_builders() {
        let m = MemRef::base_index(Gpr::Eax, Gpr::Ecx, 4, -8);
        assert_eq!(m.index, Some(Gpr::Ecx));
        assert_eq!(format!("{m}"), "[eax+ecx*4-0x8]");
        let a = MemRef::abs(0x1000);
        assert_eq!(format!("{a}"), "[0x1000]");
    }

    #[test]
    #[should_panic]
    fn esp_index_rejected() {
        let _ = MemRef::base_index(Gpr::Eax, Gpr::Esp, 1, 0);
    }

    #[test]
    fn explicit_mem_operand_count() {
        let i = Inst::new(
            Mnemonic::Alu {
                op: AluOp::Add,
                dst: Rm::Mem(MemRef::base_disp(Gpr::Eax, 0)),
                src: Operand::Reg(Gpr::Ebx),
            },
            Width::W32,
            2,
        );
        // One memory operand: the destination; the source is a register.
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Alu {
                dst: Rm::Mem(_),
                src: Operand::Reg(_),
                ..
            }
        ));
    }

    #[test]
    fn display_lists_operands_in_encoding_order() {
        let eax = Rm::Reg(Gpr::Eax);
        let cases = [
            (
                Mnemonic::Alu {
                    op: AluOp::Add,
                    dst: Rm::Mem(MemRef::base_disp(Gpr::Eax, 4)),
                    src: Operand::Imm(-1),
                },
                Width::W16,
                "add.16 [eax+0x4], 0xffffffff",
            ),
            (
                Mnemonic::Push {
                    src: Operand::Reg(Gpr::Esi),
                },
                Width::W32,
                "push, esi",
            ),
            (
                Mnemonic::ImulImm {
                    dst: Gpr::Eax,
                    src: Rm::Reg(Gpr::Ebx),
                    imm: 1000,
                },
                Width::W32,
                "imul eax, ebx, 0x3e8",
            ),
            (
                Mnemonic::Movzx {
                    from: Width::W8,
                    dst: Gpr::Eax,
                    src: Rm::Reg(Gpr::Ecx),
                },
                Width::W32,
                "movzx eax, ecx",
            ),
            (
                Mnemonic::Str {
                    op: StrOp::Stos,
                    rep: true,
                },
                Width::W8,
                "stos.8",
            ),
            (
                Mnemonic::Shift {
                    op: ShiftOp::Sar,
                    dst: eax,
                    count: ShiftCount::Cl,
                },
                Width::W32,
                "sar eax, ecx",
            ),
            (
                Mnemonic::Jcc {
                    cond: Cond::Ne,
                    target: 0x40_0010,
                },
                Width::W32,
                "jne, 0x400010",
            ),
            (Mnemonic::Ret { pop: 8 }, Width::W32, "ret, 0x8"),
            (
                Mnemonic::Enter {
                    frame: 0x20,
                    nesting: 0,
                },
                Width::W32,
                "enter, 0x20, 0x0",
            ),
        ];
        for (m, w, text) in cases {
            assert_eq!(Inst::new(m, w, 1).to_string(), text);
        }
    }
}
