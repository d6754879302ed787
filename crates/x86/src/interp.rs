//! The functional x86 interpreter.
//!
//! This is the *reference semantics* for the whole repository: the BBT and
//! SBT translators are tested differentially against it, and the VMM falls
//! back to it for precise-state recovery after faults in optimized code
//! (the "Precise State Mapping — May Use Interpreter" arc of Fig. 1).

use cdvm_mem::Memory;

use crate::reg::{read_gpr, write_gpr};
use crate::{
    alu, decode::Decoder, BranchKind, DecodeError, Flags, Gpr, Inst, MemRef, Mnemonic,
    Operand, Rm, ShiftCount, StrOp, Width,
};

/// Architected x86 register state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cpu {
    /// The eight GPRs, indexed by [`Gpr`] number.
    pub gpr: [u32; 8],
    /// EFLAGS.
    pub flags: Flags,
    /// Instruction pointer.
    pub eip: u32,
}

impl Cpu {
    /// A CPU about to execute its first instruction at `pc`.
    pub fn at(pc: u32) -> Cpu {
        Cpu {
            eip: pc,
            ..Cpu::default()
        }
    }

    /// Reads a register at the given width.
    pub fn read(&self, r: Gpr, w: Width) -> u32 {
        read_gpr(&self.gpr, r, w)
    }

    /// Writes a register at the given width (merging partials).
    pub fn write(&mut self, r: Gpr, w: Width, v: u32) {
        write_gpr(&mut self.gpr, r, w, v);
    }

    /// Computes the effective address of a memory operand.
    pub fn effective_addr(&self, m: MemRef) -> u32 {
        let mut a = m.disp as u32;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.gpr[b as usize]);
        }
        if let Some(i) = m.index {
            a = a.wrapping_add(self.gpr[i as usize].wrapping_mul(m.scale as u32));
        }
        a
    }
}

/// One architectural memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u32,
    /// Access width.
    pub width: Width,
    /// True for stores.
    pub is_store: bool,
}

/// Up to eight memory accesses (PUSHA is the worst case).
#[derive(Debug, Clone, Copy)]
pub struct MemList {
    items: [MemAccess; 8],
    len: u8,
}

impl Default for MemList {
    fn default() -> Self {
        const ZERO: MemAccess = MemAccess {
            addr: 0,
            width: Width::W8,
            is_store: false,
        };
        MemList {
            items: [ZERO; 8],
            len: 0,
        }
    }
}

impl MemList {
    fn push(&mut self, a: MemAccess) {
        self.items[self.len as usize] = a;
        self.len += 1;
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the recorded accesses.
    pub fn iter(&self) -> impl Iterator<Item = MemAccess> + '_ {
        self.items[..self.len as usize].iter().copied()
    }
}

/// Control-transfer outcome of a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Branch classification.
    pub kind: BranchKind,
    /// Whether the branch redirected fetch.
    pub taken: bool,
    /// The resolved target (the fall-through address for not-taken).
    pub target: u32,
}

/// Everything the timing model needs to know about one retired
/// instruction.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Address of the instruction.
    pub pc: u32,
    /// Encoded length in bytes.
    pub len: u8,
    /// The decoded instruction.
    pub inst: Inst,
    /// Where execution continues.
    pub next_pc: u32,
    /// Branch outcome, if this was a CTI.
    pub branch: Option<BranchOutcome>,
    /// Architectural memory accesses.
    pub mem: MemList,
    /// True if this was `HLT` — the program is finished.
    pub halted: bool,
}

impl Retired {
    /// A record for [`exec_into`] to overwrite; it describes no real
    /// retirement.
    fn blank() -> Self {
        Retired {
            pc: 0,
            len: 1,
            inst: Inst::new(Mnemonic::Nop, Width::W32, 1),
            next_pc: 1,
            branch: None,
            mem: MemList::default(),
            halted: false,
        }
    }
}

/// Architectural faults the subset can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `#DE`: divide by zero or quotient overflow.
    DivideError {
        /// Address of the faulting instruction.
        pc: u32,
    },
    /// `#BP` from `INT3`.
    Breakpoint {
        /// Address of the faulting instruction.
        pc: u32,
    },
    /// Instruction bytes failed to decode.
    Decode {
        /// Address of the undecodable bytes.
        pc: u32,
        /// Underlying decode error.
        err: DecodeError,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::DivideError { pc } => write!(f, "divide error at {pc:#x}"),
            Fault::Breakpoint { pc } => write!(f, "breakpoint at {pc:#x}"),
            Fault::Decode { pc, err } => write!(f, "decode fault at {pc:#x}: {err}"),
        }
    }
}

impl std::error::Error for Fault {}

/// The interpreter: a [`Decoder`] in front of [`exec`].
#[derive(Debug, Default)]
pub struct Interp {
    /// Decoded-instruction cache.
    pub decoder: Decoder,
}

impl Interp {
    /// Creates an interpreter with an empty decode cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes and executes one instruction at `cpu.eip`.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on divide error, breakpoint, or undecodable
    /// bytes; architectural state is left at the faulting instruction.
    pub fn step(&mut self, cpu: &mut Cpu, mem: &mut impl Memory) -> Result<Retired, Fault> {
        let pc = cpu.eip;
        let inst = self
            .decoder
            .decode_at(mem, pc)
            .map_err(|err| Fault::Decode { pc, err })?;
        exec(cpu, mem, inst, pc)
    }

    /// Decodes and executes instructions back-to-back until the retire
    /// closure returns `false` or a fault surfaces.
    ///
    /// The closure receives every [`Retired`] in architectural order plus
    /// the decoded instruction's memoized micro-op-count slot
    /// ([`Decoder::uop_memo`]; `0` = not yet computed) so callers that
    /// model hardware cracking pay one side-table fill per decoded
    /// instruction per decoder generation instead of a map probe per
    /// execution. The slot dies with the decode it annotates, so a store
    /// into fetched code (which clears the decoder) leaves no stale count
    /// behind. The step core is monomorphized per closure and inlined
    /// into this loop, keeping `Cpu` and the decode cursor in registers
    /// across instructions — the caller's per-step dispatch disappears.
    ///
    /// Observable behavior is identical to calling [`Interp::step`] in a
    /// loop: the decoder's request/hit counters advance per instruction,
    /// and a batch ending mid-stream leaves architectural state exactly
    /// where single-stepping would.
    ///
    /// # Errors
    ///
    /// Returns the first [`Fault`], with architectural state at the
    /// faulting instruction; retirements before it have fully applied.
    #[inline]
    pub fn step_batch(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut impl Memory,
        retire: &mut impl FnMut(&Retired, &mut u32) -> bool,
    ) -> Result<(), Fault> {
        // One record for the whole batch, rewritten in place by every
        // retirement: the closure reads the memory accesses where `exec`
        // wrote them, with no per-instruction copy.
        let mut r = Retired::blank();
        while self.step_inline(cpu, mem, &mut r, retire)? {}
        Ok(())
    }

    /// One step of the batch core. `inline(always)` so the decode → exec
    /// → retire sequence fuses into the `step_batch` loop for each
    /// concrete closure.
    #[inline(always)]
    fn step_inline(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut impl Memory,
        r: &mut Retired,
        retire: &mut impl FnMut(&Retired, &mut u32) -> bool,
    ) -> Result<bool, Fault> {
        let pc = cpu.eip;
        let (inst, idx) = self
            .decoder
            .decode_at_indexed(mem, pc)
            .map_err(|err| Fault::Decode { pc, err })?;
        exec_into(cpu, mem, inst, pc, r)?;
        Ok(retire(r, self.decoder.uop_memo(idx)))
    }
}

#[inline(always)]
fn read_operand(
    cpu: &Cpu,
    mem: &mut impl Memory,
    op: Operand,
    w: Width,
    acc: &mut MemList,
) -> u32 {
    match op {
        Operand::Reg(r) => cpu.read(r, w),
        Operand::Imm(i) => (i as u32) & w.mask(),
        Operand::Mem(m) => {
            let addr = cpu.effective_addr(m);
            acc.push(MemAccess {
                addr,
                width: w,
                is_store: false,
            });
            match w {
                Width::W8 => mem.read_u8(addr) as u32,
                Width::W16 => mem.read_u16(addr) as u32,
                Width::W32 => mem.read_u32(addr),
            }
        }
    }
}

#[inline(always)]
fn read_rm(cpu: &Cpu, mem: &mut impl Memory, rm: Rm, w: Width, acc: &mut MemList) -> u32 {
    read_operand(cpu, mem, rm.into(), w, acc)
}

#[inline(always)]
fn write_rm(cpu: &mut Cpu, mem: &mut impl Memory, rm: Rm, w: Width, v: u32, acc: &mut MemList) {
    match rm {
        Rm::Reg(r) => cpu.write(r, w, v),
        Rm::Mem(m) => {
            let addr = cpu.effective_addr(m);
            acc.push(MemAccess {
                addr,
                width: w,
                is_store: true,
            });
            match w {
                Width::W8 => mem.write_u8(addr, v as u8),
                Width::W16 => mem.write_u16(addr, v as u16),
                Width::W32 => mem.write_u32(addr, v),
            }
        }
    }
}

#[inline(always)]
fn push32(cpu: &mut Cpu, mem: &mut impl Memory, v: u32, acc: &mut MemList) {
    let sp = cpu.gpr[Gpr::Esp as usize].wrapping_sub(4);
    cpu.gpr[Gpr::Esp as usize] = sp;
    acc.push(MemAccess {
        addr: sp,
        width: Width::W32,
        is_store: true,
    });
    mem.write_u32(sp, v);
}

#[inline(always)]
fn pop32(cpu: &mut Cpu, mem: &mut impl Memory, acc: &mut MemList) -> u32 {
    let sp = cpu.gpr[Gpr::Esp as usize];
    acc.push(MemAccess {
        addr: sp,
        width: Width::W32,
        is_store: false,
    });
    let v = mem.read_u32(sp);
    cpu.gpr[Gpr::Esp as usize] = sp.wrapping_add(4);
    v
}

/// Deterministic CPUID identity values, keyed by the EAX leaf.
pub fn cpuid_values(leaf: u32) -> [u32; 4] {
    [
        0x0000_0001 ^ leaf.rotate_left(3),
        0x756e_6547, // "Genu"
        0x6c65_746e, // "ntel"
        0x4965_6e69, // "ineI"
    ]
}

/// Executes one *pre-decoded* instruction at `pc` against architectural
/// state. Exposed so translated-code engines and tests can replay cracked
/// semantics without re-decoding.
///
/// # Errors
///
/// Returns a [`Fault`] on divide error or breakpoint; architectural state
/// is unchanged in that case.
pub fn exec(
    cpu: &mut Cpu,
    mem: &mut impl Memory,
    inst: Inst,
    pc: u32,
) -> Result<Retired, Fault> {
    let mut r = Retired::blank();
    exec_into(cpu, mem, inst, pc, &mut r)?;
    Ok(r)
}

/// [`exec`] writing its [`Retired`] record into `out`, which holds
/// whatever the previous retirement left there (every field is
/// rewritten; on a fault `out` is unspecified).
///
/// `inst` is taken by value, so its typed operands stay in registers
/// for the whole dispatch, and the memory accesses are recorded straight
/// into `out` instead of a local list that is copied out afterwards.
#[inline(always)]
fn exec_into(
    cpu: &mut Cpu,
    mem: &mut impl Memory,
    inst: Inst,
    pc: u32,
    out: &mut Retired,
) -> Result<(), Fault> {
    let w = inst.width;
    let acc = &mut out.mem;
    acc.len = 0;
    let fall = pc.wrapping_add(inst.len as u32);
    let mut next = fall;
    let mut branch = None;
    let mut halted = false;

    // A taken-or-not direct branch: `next` and the outcome for `target`.
    let cond_branch = |taken: bool, target: u32| {
        let to = if taken { target } else { fall };
        (
            to,
            Some(BranchOutcome {
                kind: BranchKind::Conditional,
                taken,
                target: to,
            }),
        )
    };
    let jump = |kind, target| {
        Some(BranchOutcome {
            kind,
            taken: true,
            target,
        })
    };

    match inst.mnemonic {
        Mnemonic::Mov { dst, src } => {
            let v = read_operand(cpu, mem, src, w, acc);
            write_rm(cpu, mem, dst, w, v, acc);
        }
        Mnemonic::Movzx { from, dst, src } => {
            let v = read_rm(cpu, mem, src, from, acc);
            cpu.write(dst, w, v);
        }
        Mnemonic::Movsx { from, dst, src } => {
            let v = read_rm(cpu, mem, src, from, acc);
            cpu.write(dst, w, from.sext(v));
        }
        Mnemonic::Lea { dst, addr } => {
            let a = cpu.effective_addr(addr);
            cpu.write(dst, w, a);
        }
        Mnemonic::Xchg { dst, src } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            let b = cpu.read(src, w);
            write_rm(cpu, mem, dst, w, b, acc);
            cpu.write(src, w, a);
        }
        Mnemonic::Push { src } => {
            let v = read_operand(cpu, mem, src, Width::W32, acc);
            push32(cpu, mem, v, acc);
        }
        Mnemonic::Pop { dst } => {
            let v = pop32(cpu, mem, acc);
            write_rm(cpu, mem, dst, Width::W32, v, acc);
        }
        Mnemonic::Alu { op, dst, src } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            let b = read_operand(cpu, mem, src, w, acc);
            let (r, s) = alu::alu(op, w, a, b, cpu.flags.cf());
            if !op.discards_result() {
                write_rm(cpu, mem, dst, w, r, acc);
            }
            cpu.flags.set_status(s);
        }
        Mnemonic::Inc { dst } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            let (r, s) = alu::inc(w, a);
            write_rm(cpu, mem, dst, w, r, acc);
            cpu.flags.set_status_keep_cf(s);
        }
        Mnemonic::Dec { dst } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            let (r, s) = alu::dec(w, a);
            write_rm(cpu, mem, dst, w, r, acc);
            cpu.flags.set_status_keep_cf(s);
        }
        Mnemonic::Neg { dst } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            let (r, s) = alu::neg(w, a);
            write_rm(cpu, mem, dst, w, r, acc);
            cpu.flags.set_status(s);
        }
        Mnemonic::Not { dst } => {
            let a = read_rm(cpu, mem, dst, w, acc);
            write_rm(cpu, mem, dst, w, !a & w.mask(), acc);
        }
        Mnemonic::Mul { src } | Mnemonic::ImulWide { src } => {
            let a = cpu.read(Gpr::Eax, w);
            let b = read_rm(cpu, mem, src, w, acc);
            let (lo, hi, s) = if matches!(inst.mnemonic, Mnemonic::Mul { .. }) {
                alu::mul(w, a, b)
            } else {
                alu::imul_wide(w, a, b)
            };
            match w {
                Width::W8 => cpu.write(Gpr::Eax, Width::W16, (hi << 8) | lo),
                _ => {
                    cpu.write(Gpr::Eax, w, lo);
                    cpu.write(Gpr::Edx, w, hi);
                }
            }
            cpu.flags.set_status(s);
        }
        Mnemonic::Imul { dst, src } => {
            let a = cpu.read(dst, w);
            let b = read_rm(cpu, mem, src, w, acc);
            let (r, s) = alu::imul_trunc(w, a, b);
            cpu.write(dst, w, r);
            cpu.flags.set_status(s);
        }
        Mnemonic::ImulImm { dst, src, imm } => {
            let a = read_rm(cpu, mem, src, w, acc);
            let (r, s) = alu::imul_trunc(w, a, (imm as u32) & w.mask());
            cpu.write(dst, w, r);
            cpu.flags.set_status(s);
        }
        Mnemonic::Div { src } | Mnemonic::Idiv { src } => {
            let divisor = read_rm(cpu, mem, src, w, acc);
            let (lo, hi) = match w {
                Width::W8 => {
                    let ax = cpu.read(Gpr::Eax, Width::W16);
                    (ax & 0xff, (ax >> 8) & 0xff)
                }
                _ => (cpu.read(Gpr::Eax, w), cpu.read(Gpr::Edx, w)),
            };
            let res = if matches!(inst.mnemonic, Mnemonic::Div { .. }) {
                alu::div(w, lo, hi, divisor)
            } else {
                alu::idiv(w, lo, hi, divisor)
            };
            let Some((q, r)) = res else {
                return Err(Fault::DivideError { pc });
            };
            match w {
                Width::W8 => cpu.write(Gpr::Eax, Width::W16, (r << 8) | (q & 0xff)),
                _ => {
                    cpu.write(Gpr::Eax, w, q);
                    cpu.write(Gpr::Edx, w, r);
                }
            }
        }
        Mnemonic::Shift { op, dst, count } => {
            let count = match count {
                ShiftCount::Imm(c) => u32::from(c),
                ShiftCount::Cl => cpu.read(Gpr::Ecx, Width::W8),
            };
            let a = read_rm(cpu, mem, dst, w, acc);
            if let Some((r, f)) = alu::shift(op, w, a, count, cpu.flags) {
                write_rm(cpu, mem, dst, w, r, acc);
                cpu.flags = f;
            }
        }
        Mnemonic::Jcc { cond, target } => {
            (next, branch) = cond_branch(cond.eval(cpu.flags), target);
        }
        Mnemonic::Jmp { target } => {
            next = target;
            branch = jump(BranchKind::Unconditional, next);
        }
        Mnemonic::JmpInd { target } => {
            next = read_rm(cpu, mem, target, Width::W32, acc);
            branch = jump(BranchKind::Indirect, next);
        }
        Mnemonic::Call { target } => {
            push32(cpu, mem, fall, acc);
            next = target;
            branch = jump(BranchKind::Call, next);
        }
        Mnemonic::CallInd { target } => {
            let target = read_rm(cpu, mem, target, Width::W32, acc);
            push32(cpu, mem, fall, acc);
            next = target;
            branch = jump(BranchKind::Indirect, next);
        }
        Mnemonic::Ret { pop } => {
            next = pop32(cpu, mem, acc);
            cpu.gpr[Gpr::Esp as usize] = cpu.gpr[Gpr::Esp as usize].wrapping_add(u32::from(pop));
            branch = jump(BranchKind::Return, next);
        }
        Mnemonic::Loop { target } => {
            let c = cpu.gpr[Gpr::Ecx as usize].wrapping_sub(1);
            cpu.gpr[Gpr::Ecx as usize] = c;
            (next, branch) = cond_branch(c != 0, target);
        }
        Mnemonic::Jecxz { target } => {
            (next, branch) = cond_branch(cpu.gpr[Gpr::Ecx as usize] == 0, target);
        }
        Mnemonic::Setcc { cond, dst } => {
            let v = cond.eval(cpu.flags) as u32;
            write_rm(cpu, mem, dst, Width::W8, v, acc);
        }
        Mnemonic::Cmovcc { cond, dst, src } => {
            let v = read_rm(cpu, mem, src, w, acc);
            if cond.eval(cpu.flags) {
                cpu.write(dst, w, v);
            }
        }
        Mnemonic::Cwde => {
            if w == Width::W16 {
                // CBW: AX = sext(AL)
                let v = Width::W8.sext(cpu.read(Gpr::Eax, Width::W8));
                cpu.write(Gpr::Eax, Width::W16, v);
            } else {
                let v = Width::W16.sext(cpu.read(Gpr::Eax, Width::W16));
                cpu.write(Gpr::Eax, Width::W32, v);
            }
        }
        Mnemonic::Cdq => {
            if w == Width::W16 {
                // CWD: DX = sign of AX
                let v = if cpu.read(Gpr::Eax, Width::W16) & 0x8000 != 0 {
                    0xffff
                } else {
                    0
                };
                cpu.write(Gpr::Edx, Width::W16, v);
            } else {
                let v = ((cpu.gpr[Gpr::Eax as usize] as i32) >> 31) as u32;
                cpu.gpr[Gpr::Edx as usize] = v;
            }
        }
        Mnemonic::Cld => cpu.flags.set(Flags::DF, false),
        Mnemonic::Std => cpu.flags.set(Flags::DF, true),
        Mnemonic::Str { op, rep } => {
            if exec_string(cpu, mem, op, rep, w, acc) {
                next = pc; // microcode loops back to the same instruction
            }
        }
        Mnemonic::Pusha => {
            let orig_esp = cpu.gpr[Gpr::Esp as usize];
            for r in [
                Gpr::Eax,
                Gpr::Ecx,
                Gpr::Edx,
                Gpr::Ebx,
                Gpr::Esp,
                Gpr::Ebp,
                Gpr::Esi,
                Gpr::Edi,
            ] {
                let v = if r == Gpr::Esp {
                    orig_esp
                } else {
                    cpu.gpr[r as usize]
                };
                push32(cpu, mem, v, acc);
            }
        }
        Mnemonic::Popa => {
            for r in [
                Gpr::Edi,
                Gpr::Esi,
                Gpr::Ebp,
                Gpr::Esp,
                Gpr::Ebx,
                Gpr::Edx,
                Gpr::Ecx,
                Gpr::Eax,
            ] {
                let v = pop32(cpu, mem, acc);
                if r != Gpr::Esp {
                    cpu.gpr[r as usize] = v;
                }
            }
        }
        Mnemonic::Enter { frame, .. } => {
            push32(cpu, mem, cpu.gpr[Gpr::Ebp as usize], acc);
            cpu.gpr[Gpr::Ebp as usize] = cpu.gpr[Gpr::Esp as usize];
            cpu.gpr[Gpr::Esp as usize] =
                cpu.gpr[Gpr::Esp as usize].wrapping_sub(u32::from(frame));
        }
        Mnemonic::Leave => {
            cpu.gpr[Gpr::Esp as usize] = cpu.gpr[Gpr::Ebp as usize];
            let v = pop32(cpu, mem, acc);
            cpu.gpr[Gpr::Ebp as usize] = v;
        }
        Mnemonic::Nop => {}
        Mnemonic::Hlt => {
            halted = true;
            next = pc;
        }
        Mnemonic::Int3 => return Err(Fault::Breakpoint { pc }),
        Mnemonic::Cpuid => {
            let vals = cpuid_values(cpu.gpr[Gpr::Eax as usize]);
            cpu.gpr[Gpr::Eax as usize] = vals[0];
            cpu.gpr[Gpr::Ebx as usize] = vals[1];
            cpu.gpr[Gpr::Ecx as usize] = vals[2];
            cpu.gpr[Gpr::Edx as usize] = vals[3];
        }
    }

    cpu.eip = next;
    out.pc = pc;
    out.len = inst.len;
    out.inst = inst;
    out.next_pc = next;
    out.branch = branch;
    out.halted = halted;
    Ok(())
}

/// Executes one iteration of a string instruction. Returns true while a
/// `REP` loop has iterations left: the instruction then retires to its
/// own address.
fn exec_string(
    cpu: &mut Cpu,
    mem: &mut impl Memory,
    op: StrOp,
    rep: bool,
    w: Width,
    acc: &mut MemList,
) -> bool {
    if rep && cpu.gpr[Gpr::Ecx as usize] == 0 {
        return false;
    }
    let step = if cpu.flags.df() {
        (w.bytes() as i32).wrapping_neg() as u32
    } else {
        w.bytes()
    };
    let esi = cpu.gpr[Gpr::Esi as usize];
    let edi = cpu.gpr[Gpr::Edi as usize];
    match op {
        StrOp::Movs => {
            acc.push(MemAccess {
                addr: esi,
                width: w,
                is_store: false,
            });
            let v = match w {
                Width::W8 => mem.read_u8(esi) as u32,
                Width::W16 => mem.read_u16(esi) as u32,
                Width::W32 => mem.read_u32(esi),
            };
            acc.push(MemAccess {
                addr: edi,
                width: w,
                is_store: true,
            });
            match w {
                Width::W8 => mem.write_u8(edi, v as u8),
                Width::W16 => mem.write_u16(edi, v as u16),
                Width::W32 => mem.write_u32(edi, v),
            }
            cpu.gpr[Gpr::Esi as usize] = esi.wrapping_add(step);
            cpu.gpr[Gpr::Edi as usize] = edi.wrapping_add(step);
        }
        StrOp::Stos => {
            let v = cpu.read(Gpr::Eax, w);
            acc.push(MemAccess {
                addr: edi,
                width: w,
                is_store: true,
            });
            match w {
                Width::W8 => mem.write_u8(edi, v as u8),
                Width::W16 => mem.write_u16(edi, v as u16),
                Width::W32 => mem.write_u32(edi, v),
            }
            cpu.gpr[Gpr::Edi as usize] = edi.wrapping_add(step);
        }
        StrOp::Lods => {
            acc.push(MemAccess {
                addr: esi,
                width: w,
                is_store: false,
            });
            let v = match w {
                Width::W8 => mem.read_u8(esi) as u32,
                Width::W16 => mem.read_u16(esi) as u32,
                Width::W32 => mem.read_u32(esi),
            };
            cpu.write(Gpr::Eax, w, v);
            cpu.gpr[Gpr::Esi as usize] = esi.wrapping_add(step);
        }
    }
    if rep {
        let c = cpu.gpr[Gpr::Ecx as usize].wrapping_sub(1);
        cpu.gpr[Gpr::Ecx as usize] = c;
        return c != 0;
    }
    false
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::{Asm, AluOp, Cond};
    use cdvm_mem::GuestMem;

    const BASE: u32 = 0x40_0000;
    const STACK: u32 = 0x7f_0000;

    fn run(build: impl FnOnce(&mut Asm)) -> (Cpu, GuestMem, u64) {
        let mut asm = Asm::new(BASE);
        build(&mut asm);
        asm.hlt();
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(BASE, &code);
        let mut cpu = Cpu::at(BASE);
        cpu.gpr[Gpr::Esp as usize] = STACK;
        let mut interp = Interp::new();
        let mut steps = 0u64;
        loop {
            let r = interp.step(&mut cpu, &mut mem).expect("no faults");
            steps += 1;
            if r.halted {
                break;
            }
            assert!(steps < 1_000_000, "runaway test program");
        }
        (cpu, mem, steps)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10 via loop
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 0);
            a.mov_ri(Gpr::Ecx, 10);
            let top = a.here();
            a.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ecx);
            a.loop_(top);
        });
        assert_eq!(cpu.gpr[0], 55);
        assert_eq!(cpu.gpr[1], 0);
    }

    #[test]
    fn call_ret_stack_discipline() {
        let (cpu, _, _) = run(|a| {
            let f = a.label();
            a.mov_ri(Gpr::Eax, 1);
            a.call(f);
            a.alu_ri(AluOp::Add, Gpr::Eax, 100);
            let done = a.label();
            a.jmp(done);
            a.bind(f);
            a.alu_ri(AluOp::Add, Gpr::Eax, 10);
            a.ret();
            a.bind(done);
        });
        assert_eq!(cpu.gpr[0], 111);
        assert_eq!(cpu.gpr[Gpr::Esp as usize], STACK);
    }

    #[test]
    fn memory_read_modify_write() {
        let (cpu, mut mem, _) = run(|a| {
            a.mov_ri(Gpr::Ebx, 0x10_0000);
            a.mov_mi(MemRef::base_disp(Gpr::Ebx, 0), 41);
            a.inc_m(MemRef::base_disp(Gpr::Ebx, 0));
            a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Ebx, 0));
        });
        assert_eq!(cpu.gpr[0], 42);
        assert_eq!(mem.read_u32(0x10_0000), 42);
    }

    #[test]
    fn flags_feed_conditional_branches() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 5);
            a.alu_ri(AluOp::Cmp, Gpr::Eax, 9);
            let less = a.label();
            a.jcc(Cond::L, less);
            a.mov_ri(Gpr::Ebx, 0);
            let end = a.label();
            a.jmp(end);
            a.bind(less);
            a.mov_ri(Gpr::Ebx, 1);
            a.bind(end);
        });
        assert_eq!(cpu.gpr[Gpr::Ebx as usize], 1);
    }

    #[test]
    fn div_writes_quotient_and_remainder() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 100);
            a.mov_ri(Gpr::Edx, 0);
            a.mov_ri(Gpr::Ecx, 7);
            a.div_r(Gpr::Ecx);
        });
        assert_eq!(cpu.gpr[0], 14);
        assert_eq!(cpu.gpr[2], 2);
    }

    #[test]
    fn idiv_with_cdq() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, (-100i32) as u32);
            a.cdq();
            a.mov_ri(Gpr::Ecx, 7);
            a.idiv_r(Gpr::Ecx);
        });
        assert_eq!(cpu.gpr[0] as i32, -14);
        assert_eq!(cpu.gpr[2] as i32, -2);
    }

    #[test]
    fn divide_error_faults_precisely() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Gpr::Eax, 1);
        asm.mov_ri(Gpr::Ecx, 0);
        let fault_pc = asm.pc();
        asm.div_r(Gpr::Ecx);
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(BASE, &code);
        let mut cpu = Cpu::at(BASE);
        let mut interp = Interp::new();
        interp.step(&mut cpu, &mut mem).unwrap();
        interp.step(&mut cpu, &mut mem).unwrap();
        let e = interp.step(&mut cpu, &mut mem).unwrap_err();
        assert_eq!(e, Fault::DivideError { pc: fault_pc });
        assert_eq!(cpu.eip, fault_pc, "EIP left at faulting instruction");
        assert_eq!(cpu.gpr[0], 1, "state unchanged by faulting div");
    }

    #[test]
    fn rep_movs_copies_block() {
        let (cpu, mut mem, steps) = run(|a| {
            a.mov_ri(Gpr::Esi, 0x10_0000);
            a.mov_ri(Gpr::Edi, 0x20_0000);
            a.mov_ri(Gpr::Ecx, 4);
            a.mov_mi(MemRef::abs(0x10_0000), 0x11);
            a.mov_mi(MemRef::abs(0x10_0004), 0x22);
            a.mov_mi(MemRef::abs(0x10_0008), 0x33);
            a.mov_mi(MemRef::abs(0x10_000c), 0x44);
            a.cld();
            a.movs(Width::W32, true);
        });
        assert_eq!(mem.read_u32(0x20_0000), 0x11);
        assert_eq!(mem.read_u32(0x20_000c), 0x44);
        assert_eq!(cpu.gpr[Gpr::Ecx as usize], 0);
        assert_eq!(cpu.gpr[Gpr::Esi as usize], 0x10_0010);
        // 8 setup instructions + 4 iterations + hlt
        assert_eq!(steps, 13);
    }

    #[test]
    fn stos_with_direction_flag() {
        let (cpu, mut mem, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 0xab);
            a.mov_ri(Gpr::Edi, 0x10_0008);
            a.mov_ri(Gpr::Ecx, 3);
            a.std_();
            a.stos(Width::W32, true);
            a.cld();
        });
        assert_eq!(mem.read_u32(0x10_0008), 0xab);
        assert_eq!(mem.read_u32(0x10_0004), 0xab);
        assert_eq!(mem.read_u32(0x10_0000), 0xab);
        assert_eq!(cpu.gpr[Gpr::Edi as usize], 0x10_0008u32.wrapping_sub(12));
    }

    #[test]
    fn pusha_popa_round_trip() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 1);
            a.mov_ri(Gpr::Ebx, 2);
            a.mov_ri(Gpr::Esi, 3);
            a.pusha();
            a.mov_ri(Gpr::Eax, 99);
            a.mov_ri(Gpr::Ebx, 99);
            a.mov_ri(Gpr::Esi, 99);
            a.popa();
        });
        assert_eq!(cpu.gpr[0], 1);
        assert_eq!(cpu.gpr[3], 2);
        assert_eq!(cpu.gpr[6], 3);
        assert_eq!(cpu.gpr[Gpr::Esp as usize], STACK);
    }

    #[test]
    fn enter_leave_frames() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Ebp, 0x1234);
            a.enter(0x20);
            a.mov_rr(Gpr::Eax, Gpr::Esp);
            a.leave();
        });
        assert_eq!(cpu.gpr[Gpr::Ebp as usize], 0x1234);
        assert_eq!(cpu.gpr[Gpr::Esp as usize], STACK);
        assert_eq!(cpu.gpr[0], STACK - 4 - 0x20);
    }

    #[test]
    fn setcc_and_cmov() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 3);
            a.alu_ri(AluOp::Cmp, Gpr::Eax, 5);
            a.mov_ri(Gpr::Ebx, 0);
            a.setcc_r(Cond::B, Gpr::Ebx);
            a.mov_ri(Gpr::Ecx, 77);
            a.mov_ri(Gpr::Edx, 0);
            a.cmovcc_rr(Cond::B, Gpr::Edx, Gpr::Ecx);
            a.cmovcc_rr(Cond::A, Gpr::Esi, Gpr::Ecx);
        });
        assert_eq!(cpu.gpr[Gpr::Ebx as usize], 1);
        assert_eq!(cpu.gpr[Gpr::Edx as usize], 77);
        assert_eq!(cpu.gpr[Gpr::Esi as usize], 0);
    }

    #[test]
    fn indirect_call_through_register() {
        let (cpu, _, _) = run(|a| {
            let f = a.label();
            let start = a.label();
            a.jmp(start);
            a.bind(f);
            a.mov_ri(Gpr::Eax, 42);
            a.ret();
            a.bind(start);
            // compute address of f into ebx: base + 5 (jmp is 5 bytes)
            a.mov_ri(Gpr::Ebx, BASE + 5);
            a.call_r(Gpr::Ebx);
        });
        assert_eq!(cpu.gpr[0], 42);
    }

    #[test]
    fn cpuid_is_deterministic() {
        let (cpu1, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 0);
            a.cpuid();
        });
        let (cpu2, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 0);
            a.cpuid();
        });
        assert_eq!(cpu1.gpr, cpu2.gpr);
        assert_eq!(cpu1.gpr[Gpr::Ebx as usize], 0x756e_6547);
        assert_eq!(cpu1.gpr[Gpr::Edx as usize], 0x4965_6e69);
    }

    #[test]
    fn high_byte_arithmetic() {
        let (cpu, _, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 0x0000_1200);
            a.mov_ri8(Gpr::Ebx, 0x34); // BL
            // add ah, bl: ah=0x12 + 0x34 = 0x46
            a.alu_rr8(AluOp::Add, Gpr::Esp /* AH */, Gpr::Ebx);
        });
        assert_eq!(cpu.gpr[0], 0x0000_4600);
    }

    #[test]
    fn xchg_mem_reg() {
        let (cpu, mut mem, _) = run(|a| {
            a.mov_ri(Gpr::Eax, 7);
            a.mov_mi(MemRef::abs(0x10_0000), 9);
            a.mov_ri(Gpr::Ebx, 0x10_0000);
            // xchg [ebx], eax
            a.xchg_m(MemRef::base_disp(Gpr::Ebx, 0), Gpr::Eax);
        });
        assert_eq!(cpu.gpr[0], 9);
        assert_eq!(mem.read_u32(0x10_0000), 7);
    }

    #[test]
    fn retired_records_memory_accesses() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Gpr::Ebx, 0x10_0000);
        asm.alu_mr(AluOp::Add, MemRef::base_disp(Gpr::Ebx, 4), Gpr::Eax);
        asm.hlt();
        let code = asm.finish();
        let mut mem = GuestMem::new();
        mem.load(BASE, &code);
        let mut cpu = Cpu::at(BASE);
        let mut interp = Interp::new();
        interp.step(&mut cpu, &mut mem).unwrap();
        let r = interp.step(&mut cpu, &mut mem).unwrap();
        let accesses: Vec<_> = r.mem.iter().collect();
        assert_eq!(accesses.len(), 2);
        assert!(!accesses[0].is_store);
        assert!(accesses[1].is_store);
        assert_eq!(accesses[0].addr, 0x10_0004);
    }
}
