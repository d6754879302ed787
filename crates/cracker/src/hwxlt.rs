//! The `XLTx86` backend unit, functionally.

use cdvm_fisa::{encoding, Csr, XltAssist, XltOutcome};
use cdvm_x86::{decode, MAX_INST_LEN};

use crate::crack::crack;

/// Hardware decode/crack unit implementing [`XltAssist`] (Table 1 of the
/// paper): one x86 instruction in via `Fsrc`, its micro-ops out via
/// `Fdst`, lengths and complexity flags via the CSR.
///
/// The unit shares [`crack`]'s tables — the software BBT and this unit
/// are the same logic in different packaging, which is the essence of the
/// co-designed hardware/software argument.
///
/// # Example
///
/// ```
/// use cdvm_cracker::HwXlt;
/// use cdvm_fisa::XltAssist;
///
/// let mut unit = HwXlt::new();
/// let mut fsrc = [0u8; 16];
/// fsrc[..2].copy_from_slice(&[0x01, 0xd8]); // add eax, ebx
/// let out = unit.xlt(&fsrc, 0x1000);
/// assert_eq!(out.csr.x86_ilen, 2);
/// assert!(!out.csr.flag_cmplx);
/// assert!(!out.csr.flag_cti);
/// ```
#[derive(Debug, Default)]
pub struct HwXlt {
    invocations: u64,
    complex_punts: u64,
}

impl HwXlt {
    /// Creates the unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total `XLTx86` invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Invocations that set `Flag_cmplx` (software fallback).
    pub fn complex_punts(&self) -> u64 {
        self.complex_punts
    }
}

impl XltAssist for HwXlt {
    fn xlt(&mut self, bytes: &[u8; 16], x86_pc: u32) -> XltOutcome {
        self.invocations += 1;
        let mut window = [0u8; MAX_INST_LEN + 1];
        window[..16].copy_from_slice(bytes);
        let punt = |csr_ilen: u8, cti: bool, this: &mut Self| {
            this.complex_punts += 1;
            XltOutcome {
                uop_bytes: Vec::new(),
                csr: Csr {
                    x86_ilen: csr_ilen,
                    uops_bytes: 0,
                    flag_cmplx: true,
                    flag_cti: cti,
                },
            }
        };
        let Ok(inst) = decode(&window, x86_pc) else {
            // Undecodable bytes: the hardware punts to software, which
            // will raise the architectural fault path.
            return punt(0, false, self);
        };
        let Ok(cracked) = crack(&inst, x86_pc) else {
            // Out of cracking temporaries: same punt path as complex
            // instructions — software microcode handles it.
            return punt(inst.len, false, self);
        };
        let uop_bytes = encoding::encode(&cracked.uops);
        // The 4-bit uops_bytes CSR field limits the fast path to 15 bytes
        // of generated micro-ops; longer expansions are complex (paper:
        // "most x86-instructions are cracked into micro-ops of no more
        // than 16 bytes").
        if cracked.complex || uop_bytes.len() > 15 {
            return punt(inst.len, cracked.cti.is_some(), self);
        }
        XltOutcome {
            uop_bytes,
            csr: Csr {
                x86_ilen: inst.len,
                uops_bytes: cracked.uops.iter().map(|u| u.encoded_len()).sum(),
                flag_cmplx: false,
                flag_cti: cracked.cti.is_some(),
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_fisa::encoding::decode_all;

    fn fsrc(code: &[u8]) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..code.len()].copy_from_slice(code);
        b
    }

    #[test]
    fn simple_instruction_fast_path() {
        let mut u = HwXlt::new();
        let out = u.xlt(&fsrc(&[0x01, 0xd8]), 0); // add eax, ebx
        assert!(!out.csr.flag_cmplx);
        assert_eq!(out.csr.x86_ilen, 2);
        assert_eq!(out.csr.uops_bytes as usize, out.uop_bytes.len());
        let uops = decode_all(&out.uop_bytes).unwrap();
        assert_eq!(uops.len(), 1);
    }

    #[test]
    fn cti_flag_set_for_branches() {
        let mut u = HwXlt::new();
        let out = u.xlt(&fsrc(&[0xeb, 0x05]), 0x1000); // jmp short
        assert!(out.csr.flag_cti);
        assert!(!out.csr.flag_cmplx);
    }

    #[test]
    fn complex_instruction_punts() {
        let mut u = HwXlt::new();
        let out = u.xlt(&fsrc(&[0xf3, 0xa5]), 0); // rep movsd
        assert!(out.csr.flag_cmplx);
        assert!(out.uop_bytes.is_empty());
        assert_eq!(u.complex_punts(), 1);
    }

    #[test]
    fn undecodable_punts() {
        let mut u = HwXlt::new();
        let out = u.xlt(&fsrc(&[0x0f, 0xff]), 0);
        assert!(out.csr.flag_cmplx);
    }

    #[test]
    fn oversized_expansion_punts() {
        // mov [0x12345678], imm32 with abs addressing cracks into
        // limm pair + limm pair + store = up to 5 wide uops = 20 bytes.
        let mut u = HwXlt::new();
        let out = u.xlt(
            &fsrc(&[0xc7, 0x05, 0x78, 0x56, 0x34, 0x12, 0x99, 0x99, 0x99, 0x19]),
            0,
        );
        assert!(out.csr.flag_cmplx, "oversized micro-op expansion must punt");
    }

    #[test]
    fn csr_matches_haloop_expectations() {
        let mut u = HwXlt::new();
        // push esi: 1 byte, 2 uops
        let out = u.xlt(&fsrc(&[0x56]), 0);
        let bits = out.csr.to_bits();
        assert_eq!(bits & 0x0f, 1);
        assert_eq!((bits & 0xf0) >> 4, out.uop_bytes.len() as u32);
    }
}
