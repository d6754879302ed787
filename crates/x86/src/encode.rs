//! A small x86 assembler.
//!
//! Emits machine code the [`decode`](crate::decode::decode) module accepts;
//! the synthetic workload generator and the test suites are built on it.
//! Labels support forward references with `rel8`/`rel32` fixups.

use crate::{AluOp, Cond, Gpr, MemRef, ShiftOp, Width};

/// A code label (forward references allowed until [`Asm::finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum FixKind {
    /// One byte at `pos`, relative to instruction end `end`.
    Rel8,
    /// Four bytes at `pos`, relative to instruction end `end`.
    Rel32,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    pos: usize,
    end: usize,
    label: usize,
    kind: FixKind,
}

/// An append-only assembler for the supported x86 subset.
///
/// # Example
///
/// ```
/// use cdvm_x86::{Asm, Gpr, Cond, AluOp};
///
/// let mut asm = Asm::new(0x1000);
/// let top = asm.label();
/// asm.mov_ri(Gpr::Eax, 10);
/// asm.bind(top);
/// asm.alu_ri(AluOp::Sub, Gpr::Eax, 1);
/// asm.jcc(Cond::Ne, top);
/// asm.hlt();
/// let code = asm.finish();
/// assert!(!code.is_empty());
/// ```
#[derive(Debug)]
pub struct Asm {
    base: u32,
    code: Vec<u8>,
    labels: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
}

impl Asm {
    /// Creates an assembler whose first byte will live at `base`.
    pub fn new(base: u32) -> Self {
        Asm {
            base,
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The address of the next emitted byte.
    pub fn pc(&self) -> u32 {
        self.base + self.code.len() as u32
    }

    /// The base address passed to [`Asm::new`].
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Bytes emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.pc());
    }

    /// Allocates and immediately binds a label.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Resolves fixups and returns the finished image.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels or `rel8` targets out of range.
    #[allow(
        clippy::expect_used,
        reason = "unbound labels and out-of-range rel8 branches are assembler misuse"
    )]
    pub fn finish(mut self) -> Vec<u8> {
        for fix in std::mem::take(&mut self.fixups) {
            let target = self.labels[fix.label].expect("unbound label at finish");
            let rel = target.wrapping_sub(self.base + fix.end as u32) as i32;
            match fix.kind {
                FixKind::Rel8 => {
                    let v = i8::try_from(rel).expect("rel8 branch target out of range");
                    self.code[fix.pos] = v as u8;
                }
                FixKind::Rel32 => {
                    self.code[fix.pos..fix.pos + 4].copy_from_slice(&rel.to_le_bytes());
                }
            }
        }
        self.code
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }

    fn u16(&mut self, v: u16) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn opsize(&mut self, w: Width) {
        if w == Width::W16 {
            self.u8(0x66);
        }
    }

    fn rel8_to(&mut self, label: Label) {
        let pos = self.code.len();
        self.u8(0);
        self.fixups.push(Fixup {
            pos,
            end: pos + 1,
            label: label.0,
            kind: FixKind::Rel8,
        });
    }

    fn rel32_to(&mut self, label: Label) {
        let pos = self.code.len();
        self.u32(0);
        self.fixups.push(Fixup {
            pos,
            end: pos + 4,
            label: label.0,
            kind: FixKind::Rel32,
        });
    }

    /// Emits a ModRM (+SIB +disp) sequence for register field `reg` and a
    /// memory operand `m`.
    #[allow(
        clippy::unreachable,
        reason = "MemRef::base_index admits only encodable scales"
    )]
    fn modrm_mem(&mut self, reg: u8, m: MemRef) {
        let (md, disp_w) = match (m.base, m.disp) {
            (None, _) => (0u8, Some(Width::W32)),
            (Some(Gpr::Ebp), 0) => (1, Some(Width::W8)),
            (Some(_), 0) => (0, None),
            (Some(_), d) if (-128..=127).contains(&d) => (1, Some(Width::W8)),
            (Some(_), _) => (2, Some(Width::W32)),
        };
        let needs_sib =
            m.index.is_some() || m.base == Some(Gpr::Esp) || (m.base.is_none() && m.index.is_some());
        if needs_sib {
            let base_bits = match m.base {
                Some(b) => b.num(),
                None => 5,
            };
            let (md, disp_w) = if m.base.is_none() {
                (0, Some(Width::W32))
            } else {
                (md, disp_w)
            };
            self.u8((md << 6) | (reg << 3) | 4);
            let scale_bits = match m.scale {
                1 => 0u8,
                2 => 1,
                4 => 2,
                8 => 3,
                s => unreachable!("invalid scale {s}"),
            };
            let index_bits = match m.index {
                Some(i) => i.num(),
                None => 4,
            };
            self.u8((scale_bits << 6) | (index_bits << 3) | base_bits);
            match disp_w {
                Some(Width::W8) => self.u8(m.disp as u8),
                Some(Width::W32) => self.u32(m.disp as u32),
                _ => {}
            }
        } else if let Some(base) = m.base {
            self.u8((md << 6) | (reg << 3) | base.num());
            match disp_w {
                Some(Width::W8) => self.u8(m.disp as u8),
                Some(Width::W32) => self.u32(m.disp as u32),
                _ => {}
            }
        } else {
            self.u8((reg << 3) | 5);
            self.u32(m.disp as u32);
        }
    }

    fn modrm_reg(&mut self, reg: u8, rm: Gpr) {
        self.u8(0xc0 | (reg << 3) | rm.num());
    }

    // ---- data movement ----------------------------------------------------

    /// `mov r32, imm32`.
    pub fn mov_ri(&mut self, r: Gpr, imm: u32) {
        self.u8(0xb8 + r.num());
        self.u32(imm);
    }

    /// `mov r8, imm8` (register numbers 4–7 are AH..BH).
    pub fn mov_ri8(&mut self, r: Gpr, imm: u8) {
        self.u8(0xb0 + r.num());
        self.u8(imm);
    }

    /// `mov r16, imm16`.
    pub fn mov_ri16(&mut self, r: Gpr, imm: u16) {
        self.u8(0x66);
        self.u8(0xb8 + r.num());
        self.u16(imm);
    }

    /// `mov r32, r32`.
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.u8(0x89);
        self.modrm_reg(src.num(), dst);
    }

    /// `mov r8, r8`.
    pub fn mov_rr8(&mut self, dst: Gpr, src: Gpr) {
        self.u8(0x88);
        self.modrm_reg(src.num(), dst);
    }

    /// `mov r32, [mem]`.
    pub fn mov_rm(&mut self, dst: Gpr, m: MemRef) {
        self.u8(0x8b);
        self.modrm_mem(dst.num(), m);
    }

    /// `mov r8, [mem]`.
    pub fn mov_rm8(&mut self, dst: Gpr, m: MemRef) {
        self.u8(0x8a);
        self.modrm_mem(dst.num(), m);
    }

    /// `mov [mem], r32`.
    pub fn mov_mr(&mut self, m: MemRef, src: Gpr) {
        self.u8(0x89);
        self.modrm_mem(src.num(), m);
    }

    /// `mov [mem], r8`.
    pub fn mov_mr8(&mut self, m: MemRef, src: Gpr) {
        self.u8(0x88);
        self.modrm_mem(src.num(), m);
    }

    /// `mov dword [mem], imm32`.
    pub fn mov_mi(&mut self, m: MemRef, imm: u32) {
        self.u8(0xc7);
        self.modrm_mem(0, m);
        self.u32(imm);
    }

    /// `movzx r32, r8/r16`.
    pub fn movzx_rr(&mut self, dst: Gpr, src: Gpr, src_w: Width) {
        self.u8(0x0f);
        self.u8(if src_w == Width::W8 { 0xb6 } else { 0xb7 });
        self.modrm_reg(dst.num(), src);
    }

    /// `movzx r32, byte/word [mem]`.
    pub fn movzx_rm(&mut self, dst: Gpr, m: MemRef, src_w: Width) {
        self.u8(0x0f);
        self.u8(if src_w == Width::W8 { 0xb6 } else { 0xb7 });
        self.modrm_mem(dst.num(), m);
    }

    /// `movsx r32, r8/r16`.
    pub fn movsx_rr(&mut self, dst: Gpr, src: Gpr, src_w: Width) {
        self.u8(0x0f);
        self.u8(if src_w == Width::W8 { 0xbe } else { 0xbf });
        self.modrm_reg(dst.num(), src);
    }

    /// `movsx r32, byte/word [mem]`.
    pub fn movsx_rm(&mut self, dst: Gpr, m: MemRef, src_w: Width) {
        self.u8(0x0f);
        self.u8(if src_w == Width::W8 { 0xbe } else { 0xbf });
        self.modrm_mem(dst.num(), m);
    }

    /// `lea r32, [mem]`.
    pub fn lea(&mut self, dst: Gpr, m: MemRef) {
        self.u8(0x8d);
        self.modrm_mem(dst.num(), m);
    }

    /// `xchg r32, r32`.
    pub fn xchg_rr(&mut self, a: Gpr, b: Gpr) {
        self.u8(0x87);
        self.modrm_reg(b.num(), a);
    }

    /// `xchg [mem], r32`.
    pub fn xchg_m(&mut self, m: MemRef, r: Gpr) {
        self.u8(0x87);
        self.modrm_mem(r.num(), m);
    }

    /// `push r32`.
    pub fn push_r(&mut self, r: Gpr) {
        self.u8(0x50 + r.num());
    }

    /// `push imm32`.
    pub fn push_i(&mut self, imm: u32) {
        self.u8(0x68);
        self.u32(imm);
    }

    /// `push dword [mem]`.
    pub fn push_m(&mut self, m: MemRef) {
        self.u8(0xff);
        self.modrm_mem(6, m);
    }

    /// `pop r32`.
    pub fn pop_r(&mut self, r: Gpr) {
        self.u8(0x58 + r.num());
    }

    // ---- ALU ----------------------------------------------------------------

    /// `op r32, r32`.
    pub fn alu_rr(&mut self, op: AluOp, dst: Gpr, src: Gpr) {
        if op == AluOp::Test {
            self.u8(0x85);
        } else {
            self.u8((op.group_num() << 3) | 0x01);
        }
        self.modrm_reg(src.num(), dst);
    }

    /// `op r8, r8`.
    pub fn alu_rr8(&mut self, op: AluOp, dst: Gpr, src: Gpr) {
        if op == AluOp::Test {
            self.u8(0x84);
        } else {
            self.u8(op.group_num() << 3);
        }
        self.modrm_reg(src.num(), dst);
    }

    /// `op r16, r16`.
    pub fn alu_rr16(&mut self, op: AluOp, dst: Gpr, src: Gpr) {
        self.u8(0x66);
        self.alu_rr(op, dst, src);
    }

    /// `op r32, imm` (picks the short `imm8` form when it fits).
    pub fn alu_ri(&mut self, op: AluOp, dst: Gpr, imm: i32) {
        if op == AluOp::Test {
            self.u8(0xf7);
            self.modrm_reg(0, dst);
            self.u32(imm as u32);
            return;
        }
        if (-128..=127).contains(&imm) {
            self.u8(0x83);
            self.modrm_reg(op.group_num(), dst);
            self.u8(imm as u8);
        } else {
            self.u8(0x81);
            self.modrm_reg(op.group_num(), dst);
            self.u32(imm as u32);
        }
    }

    /// `op r32, [mem]`.
    pub fn alu_rm(&mut self, op: AluOp, dst: Gpr, m: MemRef) {
        assert!(op != AluOp::Test, "use alu_mr for TEST with memory");
        self.u8((op.group_num() << 3) | 0x03);
        self.modrm_mem(dst.num(), m);
    }

    /// `op [mem], r32`.
    pub fn alu_mr(&mut self, op: AluOp, m: MemRef, src: Gpr) {
        if op == AluOp::Test {
            self.u8(0x85);
        } else {
            self.u8((op.group_num() << 3) | 0x01);
        }
        self.modrm_mem(src.num(), m);
    }

    /// `op dword [mem], imm`.
    pub fn alu_mi(&mut self, op: AluOp, m: MemRef, imm: i32) {
        assert!(op != AluOp::Test, "TEST mem,imm uses group 3");
        if (-128..=127).contains(&imm) {
            self.u8(0x83);
            self.modrm_mem(op.group_num(), m);
            self.u8(imm as u8);
        } else {
            self.u8(0x81);
            self.modrm_mem(op.group_num(), m);
            self.u32(imm as u32);
        }
    }

    /// `inc r32`.
    pub fn inc_r(&mut self, r: Gpr) {
        self.u8(0x40 + r.num());
    }

    /// `dec r32`.
    pub fn dec_r(&mut self, r: Gpr) {
        self.u8(0x48 + r.num());
    }

    /// `inc dword [mem]`.
    pub fn inc_m(&mut self, m: MemRef) {
        self.u8(0xff);
        self.modrm_mem(0, m);
    }

    /// `dec dword [mem]`.
    pub fn dec_m(&mut self, m: MemRef) {
        self.u8(0xff);
        self.modrm_mem(1, m);
    }

    /// `neg r32`.
    pub fn neg_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(3, r);
    }

    /// `not r32`.
    pub fn not_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(2, r);
    }

    /// `mul r32` (EDX:EAX = EAX * r).
    pub fn mul_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(4, r);
    }

    /// `imul r32` (widening, EDX:EAX).
    pub fn imul_wide_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(5, r);
    }

    /// `div r32`.
    pub fn div_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(6, r);
    }

    /// `idiv r32`.
    pub fn idiv_r(&mut self, r: Gpr) {
        self.u8(0xf7);
        self.modrm_reg(7, r);
    }

    /// `imul r32, r32`.
    pub fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.u8(0x0f);
        self.u8(0xaf);
        self.modrm_reg(dst.num(), src);
    }

    /// `imul r32, [mem]`.
    pub fn imul_rm(&mut self, dst: Gpr, m: MemRef) {
        self.u8(0x0f);
        self.u8(0xaf);
        self.modrm_mem(dst.num(), m);
    }

    /// `imul r32, r32, imm`.
    pub fn imul_rri(&mut self, dst: Gpr, src: Gpr, imm: i32) {
        if (-128..=127).contains(&imm) {
            self.u8(0x6b);
            self.modrm_reg(dst.num(), src);
            self.u8(imm as u8);
        } else {
            self.u8(0x69);
            self.modrm_reg(dst.num(), src);
            self.u32(imm as u32);
        }
    }

    /// `shl/shr/sar/rol/ror r32, imm8`.
    pub fn shift_ri(&mut self, op: ShiftOp, r: Gpr, count: u8) {
        if count == 1 {
            self.u8(0xd1);
            self.modrm_reg(op.group_num(), r);
        } else {
            self.u8(0xc1);
            self.modrm_reg(op.group_num(), r);
            self.u8(count);
        }
    }

    /// `shl/... r32, cl`.
    pub fn shift_rcl(&mut self, op: ShiftOp, r: Gpr) {
        self.u8(0xd3);
        self.modrm_reg(op.group_num(), r);
    }

    // ---- control flow ---------------------------------------------------

    /// Near conditional jump (`0F 8x rel32`).
    pub fn jcc(&mut self, cond: Cond, target: Label) {
        self.u8(0x0f);
        self.u8(0x80 + cond.num());
        self.rel32_to(target);
    }

    /// Short conditional jump (`7x rel8`); target must stay in range.
    pub fn jcc_short(&mut self, cond: Cond, target: Label) {
        self.u8(0x70 + cond.num());
        self.rel8_to(target);
    }

    /// Near unconditional jump.
    pub fn jmp(&mut self, target: Label) {
        self.u8(0xe9);
        self.rel32_to(target);
    }

    /// Short unconditional jump.
    pub fn jmp_short(&mut self, target: Label) {
        self.u8(0xeb);
        self.rel8_to(target);
    }

    /// `jmp r32`.
    pub fn jmp_r(&mut self, r: Gpr) {
        self.u8(0xff);
        self.modrm_reg(4, r);
    }

    /// `jmp [mem]`.
    pub fn jmp_m(&mut self, m: MemRef) {
        self.u8(0xff);
        self.modrm_mem(4, m);
    }

    /// `call rel32`.
    pub fn call(&mut self, target: Label) {
        self.u8(0xe8);
        self.rel32_to(target);
    }

    /// `call r32`.
    pub fn call_r(&mut self, r: Gpr) {
        self.u8(0xff);
        self.modrm_reg(2, r);
    }

    /// `call [mem]`.
    pub fn call_m(&mut self, m: MemRef) {
        self.u8(0xff);
        self.modrm_mem(2, m);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.u8(0xc3);
    }

    /// `ret imm16`.
    pub fn ret_n(&mut self, n: u16) {
        self.u8(0xc2);
        self.u16(n);
    }

    /// `loop rel8`.
    pub fn loop_(&mut self, target: Label) {
        self.u8(0xe2);
        self.rel8_to(target);
    }

    /// `jecxz rel8`.
    pub fn jecxz(&mut self, target: Label) {
        self.u8(0xe3);
        self.rel8_to(target);
    }

    /// `setcc r8`.
    pub fn setcc_r(&mut self, cond: Cond, r: Gpr) {
        self.u8(0x0f);
        self.u8(0x90 + cond.num());
        self.modrm_reg(0, r);
    }

    /// `cmovcc r32, r32`.
    pub fn cmovcc_rr(&mut self, cond: Cond, dst: Gpr, src: Gpr) {
        self.u8(0x0f);
        self.u8(0x40 + cond.num());
        self.modrm_reg(dst.num(), src);
    }

    /// `cmovcc r32, [mem]`.
    pub fn cmovcc_rm(&mut self, cond: Cond, dst: Gpr, m: MemRef) {
        self.u8(0x0f);
        self.u8(0x40 + cond.num());
        self.modrm_mem(dst.num(), m);
    }

    // ---- misc -------------------------------------------------------------

    /// `cwde`.
    pub fn cwde(&mut self) {
        self.u8(0x98);
    }

    /// `cdq`.
    pub fn cdq(&mut self) {
        self.u8(0x99);
    }

    /// `cld`.
    pub fn cld(&mut self) {
        self.u8(0xfc);
    }

    /// `std`.
    pub fn std_(&mut self) {
        self.u8(0xfd);
    }

    /// One-byte `nop`.
    pub fn nop(&mut self) {
        self.u8(0x90);
    }

    /// `hlt` — ends the simulated program.
    pub fn hlt(&mut self) {
        self.u8(0xf4);
    }

    /// `int3` — raises a breakpoint fault.
    pub fn int3(&mut self) {
        self.u8(0xcc);
    }

    /// `leave`.
    pub fn leave(&mut self) {
        self.u8(0xc9);
    }

    /// `enter frame, 0`.
    pub fn enter(&mut self, frame: u16) {
        self.u8(0xc8);
        self.u16(frame);
        self.u8(0);
    }

    /// `movs` of width `w`, with optional `rep`.
    pub fn movs(&mut self, w: Width, rep: bool) {
        if rep {
            self.u8(0xf3);
        }
        self.opsize(w);
        self.u8(if w == Width::W8 { 0xa4 } else { 0xa5 });
    }

    /// `stos` of width `w`, with optional `rep`.
    pub fn stos(&mut self, w: Width, rep: bool) {
        if rep {
            self.u8(0xf3);
        }
        self.opsize(w);
        self.u8(if w == Width::W8 { 0xaa } else { 0xab });
    }

    /// `lods` of width `w`, with optional `rep`.
    pub fn lods(&mut self, w: Width, rep: bool) {
        if rep {
            self.u8(0xf3);
        }
        self.opsize(w);
        self.u8(if w == Width::W8 { 0xac } else { 0xad });
    }

    /// `pusha`.
    pub fn pusha(&mut self) {
        self.u8(0x60);
    }

    /// `popa`.
    pub fn popa(&mut self) {
        self.u8(0x61);
    }

    /// `cpuid`.
    pub fn cpuid(&mut self) {
        self.u8(0x0f);
        self.u8(0xa2);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::{decode, Inst, Mnemonic, Operand, Rm, ShiftCount, StrOp};

    /// The memory operand of a `mov` decoded from `i`, either side.
    fn mov_mem(i: &Inst) -> Option<MemRef> {
        match i.mnemonic {
            Mnemonic::Mov {
                src: Operand::Mem(m),
                ..
            }
            | Mnemonic::Mov { dst: Rm::Mem(m), .. } => Some(m),
            _ => None,
        }
    }

    fn roundtrip(f: impl FnOnce(&mut Asm)) -> Inst {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let code = asm.finish();
        let i = decode(&code, 0x1000).expect("emitted code must decode");
        assert_eq!(i.len as usize, code.len(), "length mismatch for {i}");
        i
    }

    #[test]
    fn mov_forms_round_trip() {
        let i = roundtrip(|a| a.mov_ri(Gpr::Esi, 0xdead_beef));
        assert_eq!(
            i.mnemonic,
            Mnemonic::Mov {
                dst: Rm::Reg(Gpr::Esi),
                src: Operand::Imm(0xdead_beefu32 as i32)
            }
        );

        let i = roundtrip(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Ebp, -4)));
        assert_eq!(
            i.mnemonic,
            Mnemonic::Mov {
                dst: Rm::Reg(Gpr::Eax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Ebp, -4))
            }
        );

        let i = roundtrip(|a| a.mov_mr(MemRef::base_index(Gpr::Ebx, Gpr::Edx, 8, 0x100), Gpr::Ecx));
        assert_eq!(
            i.mnemonic,
            Mnemonic::Mov {
                dst: Rm::Mem(MemRef::base_index(Gpr::Ebx, Gpr::Edx, 8, 0x100)),
                src: Operand::Reg(Gpr::Ecx)
            }
        );
    }

    #[test]
    fn esp_addressing_round_trips() {
        let i = roundtrip(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Esp, 8)));
        assert_eq!(mov_mem(&i), Some(MemRef::base_disp(Gpr::Esp, 8)));
        let i = roundtrip(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Esp, 0)));
        assert_eq!(mov_mem(&i), Some(MemRef::base_disp(Gpr::Esp, 0)));
    }

    #[test]
    fn ebp_no_disp_gets_disp8_zero() {
        let i = roundtrip(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Ebp, 0)));
        assert_eq!(mov_mem(&i), Some(MemRef::base_disp(Gpr::Ebp, 0)));
    }

    #[test]
    fn alu_imm_width_selection() {
        let i = roundtrip(|a| a.alu_ri(AluOp::Add, Gpr::Eax, 5));
        assert_eq!(i.len, 3, "short imm8 form expected");
        let i = roundtrip(|a| a.alu_ri(AluOp::Add, Gpr::Eax, 0x1234));
        assert_eq!(i.len, 6, "imm32 form expected");
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Alu {
                src: Operand::Imm(0x1234),
                ..
            }
        ));
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut asm = Asm::new(0x2000);
        let top = asm.here();
        asm.dec_r(Gpr::Ecx);
        let out = asm.label();
        asm.jcc(Cond::E, out);
        asm.jmp_short(top);
        asm.bind(out);
        asm.hlt();
        let code = asm.finish();

        // decode the jcc at 0x2001
        let i = decode(&code[1..], 0x2001).unwrap();
        assert!(matches!(i.mnemonic, Mnemonic::Jcc { cond: Cond::E, .. }));
        let jcc_end = 0x2001 + i.len as u32;
        let jmp = decode(&code[(1 + i.len as usize)..], jcc_end).unwrap();
        assert_eq!(jmp.direct_target(), Some(0x2000));
        assert_eq!(i.direct_target(), Some(jcc_end + 2)); // skips the 2-byte jmp_short
    }

    #[test]
    fn shift_one_uses_d1_form() {
        let count = |i: Inst| match i.mnemonic {
            Mnemonic::Shift { count, .. } => Some(count),
            _ => None,
        };
        let i = roundtrip(|a| a.shift_ri(ShiftOp::Shl, Gpr::Eax, 1));
        assert_eq!(i.len, 2);
        assert_eq!(count(i), Some(ShiftCount::Imm(1)));
        let i = roundtrip(|a| a.shift_ri(ShiftOp::Sar, Gpr::Edx, 7));
        assert_eq!(count(i), Some(ShiftCount::Imm(7)));
    }

    #[test]
    fn string_ops_with_rep() {
        let i = roundtrip(|a| a.movs(Width::W32, true));
        assert_eq!(
            i.mnemonic,
            Mnemonic::Str {
                op: StrOp::Movs,
                rep: true
            }
        );
        let i = roundtrip(|a| a.stos(Width::W8, false));
        assert_eq!(
            i.mnemonic,
            Mnemonic::Str {
                op: StrOp::Stos,
                rep: false
            }
        );
        assert_eq!(i.width, Width::W8);
    }

    #[test]
    fn misc_round_trips() {
        assert_eq!(roundtrip(|a| a.leave()).mnemonic, Mnemonic::Leave);
        assert_eq!(roundtrip(|a| a.cpuid()).mnemonic, Mnemonic::Cpuid);
        assert!(matches!(
            roundtrip(|a| a.enter(32)).mnemonic,
            Mnemonic::Enter { frame: 32, .. }
        ));
        assert!(matches!(
            roundtrip(|a| a.setcc_r(Cond::G, Gpr::Ecx)).mnemonic,
            Mnemonic::Setcc { cond: Cond::G, .. }
        ));
        assert!(matches!(
            roundtrip(|a| a.cmovcc_rr(Cond::L, Gpr::Eax, Gpr::Ebx)).mnemonic,
            Mnemonic::Cmovcc { cond: Cond::L, .. }
        ));
        assert!(matches!(
            roundtrip(|a| a.imul_rri(Gpr::Eax, Gpr::Ebx, 1000)).mnemonic,
            Mnemonic::ImulImm { imm: 1000, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut asm = Asm::new(0);
        let l = asm.label();
        asm.jmp(l);
        let _ = asm.finish();
    }

    #[test]
    fn absolute_memory_operand() {
        let i = roundtrip(|a| a.mov_rm(Gpr::Eax, MemRef::abs(0x1234_5678)));
        assert_eq!(mov_mem(&i), Some(MemRef::abs(0x1234_5678)));
    }
}
