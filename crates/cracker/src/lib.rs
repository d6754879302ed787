//! x86 → micro-op cracking.
//!
//! Every engine that turns architected instructions into implementation-ISA
//! micro-ops shares the tables in this crate, the way their silicon
//! counterparts would share decode PLAs:
//!
//! * the **software BBT** calls [`crack`] per instruction and pays
//!   Δ_BBT ≈ 105 native instructions of translator work per x86
//!   instruction (§3.2 of the paper);
//! * the **dual-mode frontend decoder** of VM.fe cracks at fetch, at full
//!   pipeline bandwidth;
//! * the **`XLTx86` backend unit** of VM.be ([`HwXlt`]) cracks one
//!   instruction per 4-cycle invocation, flagging complex instructions
//!   back to software.
//!
//! [`crack`] returns the instruction's *body* micro-ops plus a
//! [`CtiSpec`] describing any final control transfer. Control transfers
//! are left symbolic because their materialisation (exit stubs, chaining,
//! inline REP loops) is a translator policy decision, not an instruction
//! property.
//!
//! # Example
//!
//! ```
//! use cdvm_x86::decode;
//! use cdvm_cracker::crack;
//!
//! // add eax, ebx
//! let inst = decode(&[0x01, 0xd8], 0x1000)?;
//! let cracked = crack(&inst, 0x1000).expect("well-formed instruction");
//! assert_eq!(cracked.uops.len(), 1);
//! assert!(!cracked.complex);
//! # Ok::<(), cdvm_x86::DecodeError>(())
//! ```
//!
//! [`crack`] is total over [`cdvm_x86::Inst`] values, whose forms carry
//! their operands typed; the one structured failure left, [`CrackError`]
//! (cracking temporaries exhausted), makes callers demote — hardware
//! punts, translators fall back to the interpreter — and no decoded form
//! reaches it.

#![warn(missing_docs)]

mod crack;
mod hwxlt;

pub use crack::{crack, CrackError, Cracked, CtiSpec};
pub use hwxlt::HwXlt;
