//! Basic-block discovery over architected code.

use cdvm_mem::Memory;
use cdvm_x86::{DecodeError, Decoder, Inst};

/// Maximum x86 instructions per BBT block (a translator policy; real
/// blocks are far shorter).
pub const MAX_BLOCK_INSTS: usize = 24;

/// A scanned basic block: consecutive instructions ending at the first
/// CTI (inclusive) or at the scan cap.
#[derive(Debug, Clone)]
pub struct Block {
    /// Entry PC.
    pub entry: u32,
    /// The instructions, with their PCs.
    pub insts: Vec<(u32, Inst)>,
    /// First PC after the block (the fall-through continuation when the
    /// block was cut by the cap).
    pub end_pc: u32,
    /// True if the block ends because of the instruction cap rather than
    /// a CTI.
    pub capped: bool,
}

impl Block {
    /// Number of x86 instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the scan found no instructions (decode fault at entry).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The terminating instruction.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().map(|(_, i)| i)
    }
}

/// Scans one basic block starting at `entry`.
///
/// REP-prefixed string instructions do *not* terminate a block (their
/// iteration loop is internal microcode); `HLT` and `INT3` do.
///
/// # Errors
///
/// Returns the decode error if any instruction in the block fails to
/// decode (the VMM then falls back to the interpreter to surface the
/// architectural fault).
pub fn scan_block(
    decoder: &mut Decoder,
    mem: &mut impl Memory,
    entry: u32,
) -> Result<Block, DecodeError> {
    let mut insts = Vec::new();
    let mut pc = entry;
    let mut capped = false;
    loop {
        let inst = decoder.decode_at(mem, pc)?;
        let next = pc.wrapping_add(inst.len as u32);
        insts.push((pc, inst));
        pc = next;
        if inst.mnemonic.ends_block() {
            break;
        }
        if insts.len() >= MAX_BLOCK_INSTS {
            capped = true;
            break;
        }
    }
    Ok(Block {
        entry,
        insts,
        end_pc: pc,
        capped,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_mem::GuestMem;
    use cdvm_x86::{AluOp, Asm, Cond, Gpr};

    fn scan(build: impl FnOnce(&mut Asm)) -> Block {
        let mut asm = Asm::new(0x1000);
        build(&mut asm);
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(0x1000, &code);
        scan_block(&mut Decoder::new(), &mut mem, 0x1000).expect("scans")
    }

    #[test]
    fn block_ends_at_cti() {
        let b = scan(|a| {
            a.mov_ri(Gpr::Eax, 1);
            a.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx);
            let l = a.label();
            a.jcc(Cond::E, l);
            a.bind(l);
            a.mov_ri(Gpr::Ecx, 2); // next block
        });
        assert_eq!(b.len(), 3);
        assert!(!b.capped);
        assert!(b.terminator().unwrap().mnemonic.is_cti());
    }

    #[test]
    fn hlt_terminates() {
        let b = scan(|a| {
            a.nop();
            a.hlt();
        });
        assert_eq!(b.len(), 2);
        assert_eq!(b.terminator().unwrap().mnemonic, cdvm_x86::Mnemonic::Hlt);
    }

    #[test]
    fn rep_string_does_not_terminate() {
        let b = scan(|a| {
            a.movs(cdvm_x86::Width::W32, true);
            a.nop();
            a.ret();
        });
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn cap_cuts_long_blocks() {
        let b = scan(|a| {
            for _ in 0..40 {
                a.nop();
            }
            a.ret();
        });
        assert_eq!(b.len(), MAX_BLOCK_INSTS);
        assert!(b.capped);
        assert_eq!(b.end_pc, 0x1000 + MAX_BLOCK_INSTS as u32);
    }
}
