//! Architected-ISA substrate: an x86 (IA-32) subset.
//!
//! The co-designed VM of Hu & Smith (ISCA 2006) implements the x86 ISA on
//! top of a private, RISC-like implementation ISA. This crate provides the
//! *architected* side of that contract:
//!
//! * an instruction model ([`Inst`], whose [`Mnemonic`] carries each
//!   form's typed operands) covering a rich IA-32 subset —
//!   variable-length encodings (1–15 bytes), prefixes,
//!   ModRM/SIB addressing, 8/16/32-bit operand widths, the full
//!   flag-setting ALU groups, control transfers, string instructions and a
//!   set of "complex" instructions that exercise the microcode/fallback
//!   paths of the hardware assists;
//! * a [`Decoder`] and an [`Asm`] assembler
//!   (used by the synthetic workload generator and the test suite);
//! * a functional [`Interp`] interpreter with faithful
//!   EFLAGS semantics, used for initial emulation, differential testing of
//!   the translators, and precise-state recovery.
//!
//! # Example
//!
//! ```
//! use cdvm_mem::GuestMem;
//! use cdvm_x86::{Asm, Cpu, Gpr, Interp};
//!
//! let mut asm = Asm::new(0x40_0000);
//! asm.mov_ri(Gpr::Eax, 6);
//! asm.mov_ri(Gpr::Ecx, 7);
//! asm.imul_rr(Gpr::Eax, Gpr::Ecx);
//! asm.hlt();
//!
//! let mut mem = GuestMem::new();
//! let image = asm.finish();
//! mem.load(0x40_0000, &image);
//!
//! let mut cpu = Cpu::at(0x40_0000);
//! let mut interp = Interp::new();
//! while !interp.step(&mut cpu, &mut mem)?.halted {}
//! assert_eq!(cpu.gpr[Gpr::Eax as usize], 42);
//! # Ok::<(), cdvm_x86::Fault>(())
//! ```

#![warn(missing_docs)]

pub mod alu;
mod cond;
mod decode;
mod encode;
mod flags;
mod inst;
mod interp;
mod reg;

pub use alu::{AluOp, ShiftOp};
pub use cond::Cond;
pub use decode::{decode, DecodeError, Decoder, MAX_INST_LEN};
pub use encode::{Asm, Label};
pub use flags::Flags;
pub use inst::{BranchKind, Inst, MemRef, Mnemonic, Operand, Rm, ShiftCount, StrOp};
pub use interp::{cpuid_values, exec, BranchOutcome, Cpu, Fault, Interp, MemAccess, MemList, Retired};
pub use reg::{Gpr, Width};
