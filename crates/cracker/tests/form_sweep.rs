//! Exhaustive single-instruction sweep: every form the decoder returns
//! over every opcode (one-byte and `0F`-escaped), every ModRM byte, a few
//! SIB/displacement/immediate tails and the no-prefix, `66` and `F3`
//! prefixes must crack, and must execute on the interpreter without
//! panicking (an architectural fault is fine).
//!
//! `crack`'s only error left is cracking-temporary exhaustion, so this
//! sweep is also the evidence that no decoded form reaches it.

#![allow(clippy::unwrap_used, clippy::panic)]
use std::collections::HashSet;

use cdvm_cracker::crack;
use cdvm_mem::GuestMem;
use cdvm_x86::{decode, exec, Cpu, Inst};

const PC: u32 = 0x40_1000;

/// Bytes after the ModRM byte: a SIB byte, then displacement and
/// immediate bytes.
const TAILS: [[u8; 10]; 4] = [
    // SIB [eax+eax*1]; zero displacement and immediates.
    [0; 10],
    // SIB [eax+ecx*4]: with mod=2, `[base+index*scale+disp32]`; a
    // positive disp8/disp32, then all-ones immediates (imm8 -1, shift
    // count 0xff).
    [0x88, 0x78, 0x56, 0x34, 0x12, 0xff, 0xff, 0xff, 0xff, 0x7f],
    // SIB with no index and no base: with mod=0, `[disp32]`; a negative
    // disp8, then sign-bit immediates.
    [0x25, 0x80, 0x10, 0x20, 0x00, 0x80, 0x00, 0x00, 0x80, 0x01],
    // SIB [esp+ecx*2]; a negative disp32 and small immediates.
    [0x4c, 0x80, 0xf0, 0xff, 0xff, 0x05, 0x00, 0x00, 0x00, 0x02],
];

/// Every distinct instruction the decoder returns over the swept bytes.
fn swept_forms() -> HashSet<Inst> {
    let mut forms = HashSet::new();
    let mut bytes = Vec::with_capacity(16);
    for prefix in [&[][..], &[0x66], &[0xf3]] {
        for opcode in 0..512u32 {
            for modrm in 0..=255u8 {
                for tail in &TAILS {
                    bytes.clear();
                    bytes.extend_from_slice(prefix);
                    if opcode >= 256 {
                        bytes.push(0x0f);
                    }
                    bytes.push(opcode as u8);
                    bytes.push(modrm);
                    bytes.extend_from_slice(tail);
                    if let Ok(inst) = decode(&bytes, PC) {
                        forms.insert(inst);
                    }
                }
            }
        }
    }
    forms
}

#[test]
fn every_decoded_form_cracks_and_executes() {
    let forms = swept_forms();
    // Guards the sweep itself: a decoder that stopped accepting most of
    // these bytes would make the checks below vacuous.
    assert!(forms.len() > 250_000, "only {} distinct forms", forms.len());

    let mut mem = GuestMem::new();
    for inst in &forms {
        if let Err(e) = crack(inst, PC) {
            panic!("{inst} does not crack: {e}");
        }
        let mut cpu = Cpu::at(PC);
        // Small values keep every effective address and REP count short;
        // ESP leaves room to push and pop.
        cpu.gpr = [1, 2, 3, 4, 0x2000, 6, 7, 8];
        let _ = exec(&mut cpu, &mut mem, *inst, PC);
    }
}
