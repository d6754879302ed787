//! The cracking tables: one x86 instruction → micro-op sequence.

use cdvm_fisa::{regs, Op, SysOp, Uop};
use cdvm_x86::{
    AluOp, Cond, Gpr, Inst, MemRef, Mnemonic, Operand, Rm, ShiftCount, ShiftOp, StrOp, Width,
};

/// Symbolic description of an instruction's final control transfer.
///
/// The cracker leaves control transfers symbolic: turning them into exit
/// stubs, chained branches, inline REP loops or superblock side exits is
/// the translator's policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtiSpec {
    /// Conditional branch on the condition register (`Jcc`).
    CondFlags {
        /// Branch condition.
        cond: Cond,
        /// Taken target (absolute x86 address).
        target: u32,
        /// Fall-through x86 address.
        fall: u32,
    },
    /// Branch if a native register is non-zero (`LOOP`).
    CondNz {
        /// Register to test.
        reg: u8,
        /// Taken target.
        target: u32,
        /// Fall-through.
        fall: u32,
    },
    /// Branch if a native register is zero (`JECXZ`).
    CondZ {
        /// Register to test.
        reg: u8,
        /// Taken target.
        target: u32,
        /// Fall-through.
        fall: u32,
    },
    /// Unconditional direct branch (`JMP`).
    Direct {
        /// Target x86 address.
        target: u32,
    },
    /// Direct call; the return-address push is already in the body.
    DirectCall {
        /// Call target.
        target: u32,
        /// Return (fall-through) address.
        fall: u32,
    },
    /// Indirect transfer; the x86 target value sits in a native register.
    Indirect {
        /// Register holding the x86 target.
        reg: u8,
    },
    /// `REP`-prefixed string instruction: the body is one iteration; the
    /// translator wraps it in an ECX-counted microcode loop.
    Rep {
        /// Which string operation (for diagnostics).
        kind: StrOp,
    },
    /// `HLT`.
    Halt,
    /// `INT3` (and other software traps).
    Trap {
        /// Trap code.
        code: u8,
    },
}

/// The result of cracking one instruction.
#[derive(Debug, Clone)]
pub struct Cracked {
    /// Body micro-ops (complete semantics for non-CTIs; everything up to
    /// the final transfer for CTIs).
    pub uops: Vec<Uop>,
    /// The final control transfer, if any.
    pub cti: Option<CtiSpec>,
    /// `Flag_cmplx`: punted to software/microcode by the hardware assists.
    pub complex: bool,
}

impl Cracked {
    /// Total encoded micro-op bytes (the `µops_bytes` CSR quantity).
    pub fn encoded_uop_bytes(&self) -> usize {
        self.uops.iter().map(|u| u.encoded_len() as usize).sum()
    }
}

/// A structural failure while cracking one instruction.
///
/// Every operand shape an [`Inst`] can hold cracks; the one limit left is
/// the bounded temporary register file. An exhaustive sweep of the
/// decoder's forms (the `form_sweep` test) finds no decoded instruction
/// that reaches it. It is *not* an architectural fault: callers demote
/// the instruction (hardware punts to software, translators fall back to
/// the interpreter) rather than raising a guest-visible exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrackError {
    /// The cracking-temporary file (R8–R15) overflowed.
    TempsExhausted {
        /// Address of the instruction.
        pc: u32,
    },
}

impl CrackError {
    /// Address of the instruction that failed to crack.
    pub fn pc(&self) -> u32 {
        match *self {
            CrackError::TempsExhausted { pc } => pc,
        }
    }
}

impl std::fmt::Display for CrackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrackError::TempsExhausted { pc } => {
                write!(f, "cracking temporaries exhausted at {pc:#x}")
            }
        }
    }
}

impl std::error::Error for CrackError {}

/// Micro-op emission context: collects micro-ops and allocates the
/// cracking temporaries R8–R15.
///
/// Rather than threading `Result` through every helper, the context
/// records temporary exhaustion; [`crack`] checks it once at the end.
/// Emission after a failure is harmless — the uops are discarded with
/// the error.
struct E {
    uops: Vec<Uop>,
    tmp: u8,
    pc: u32,
    failed: Option<CrackError>,
}

/// Addressing mode resolved for the memory micro-ops.
#[derive(Clone, Copy)]
enum Addr {
    BaseDisp(u8, i32),
    Indexed(u8, u8, u8, i32),
}

impl E {
    fn new(pc: u32) -> E {
        E {
            uops: Vec::with_capacity(4),
            tmp: regs::T0,
            pc,
            failed: None,
        }
    }

    fn t(&mut self) -> u8 {
        let r = self.tmp;
        if r > regs::T7 {
            // Saturate instead of panicking: record the failure and keep
            // handing out T7 so emission stays well-formed until crack()
            // discards it.
            self.failed.get_or_insert(CrackError::TempsExhausted { pc: self.pc });
            return regs::T7;
        }
        self.tmp += 1;
        r
    }

    fn push(&mut self, u: Uop) {
        self.uops.push(u);
    }

    /// Loads a 32-bit constant into `rd`.
    fn limm(&mut self, rd: u8, v: u32) {
        for u in Uop::limm32(rd, v) {
            self.push(u);
        }
    }

    /// `rd = rs + imm` with arbitrary immediate (no flags).
    fn add_imm(&mut self, rd: u8, rs: u8, imm: i32) {
        if imm == 0 {
            if rd != rs {
                self.push(Uop::alu(Op::Mov, rd, rd, rs));
            }
            return;
        }
        if (-128..128).contains(&imm) {
            self.push(Uop::alui(Op::Add, rd, rs, imm));
        } else {
            let t = self.t();
            self.limm(t, imm as u32);
            self.push(Uop::alu(Op::Add, rd, rs, t));
        }
    }

    /// Resolves a memory operand into a load/store addressing form,
    /// emitting any address-generation micro-ops.
    fn addr(&mut self, m: MemRef) -> Addr {
        let i14 = |d: i32| (-(1 << 13)..(1 << 13)).contains(&d);
        let i6 = |d: i32| (-32..32).contains(&d);
        match (m.base, m.index) {
            (None, None) => {
                let t = self.t();
                self.limm(t, m.disp as u32);
                Addr::BaseDisp(t, 0)
            }
            (Some(b), None) => {
                let b = b.num();
                if i14(m.disp) {
                    Addr::BaseDisp(b, m.disp)
                } else {
                    let t = self.t();
                    self.add_imm(t, b, m.disp);
                    Addr::BaseDisp(t, 0)
                }
            }
            (None, Some(i)) => {
                let t = self.t();
                self.limm(t, m.disp as u32);
                Addr::Indexed(t, i.num(), m.scale, 0)
            }
            (Some(b), Some(i)) => {
                let (b, i) = (b.num(), i.num());
                if i6(m.disp) {
                    Addr::Indexed(b, i, m.scale, m.disp)
                } else {
                    let t = self.t();
                    let mut agen = Uop::alu(Op::Agen { scale: m.scale }, t, b, i);
                    agen.imm = 0;
                    self.push(agen);
                    if i14(m.disp) {
                        Addr::BaseDisp(t, m.disp)
                    } else {
                        self.add_imm(t, t, m.disp);
                        Addr::BaseDisp(t, 0)
                    }
                }
            }
        }
    }

    /// Emits a load of width `w` into `rd`.
    fn load_into(&mut self, w: Width, rd: u8, m: MemRef) {
        match self.addr(m) {
            Addr::BaseDisp(b, d) => self.push(Uop::ld(w, rd, b, d)),
            Addr::Indexed(b, i, s, d) => self.push(Uop {
                op: Op::Ld {
                    w,
                    indexed: true,
                    scale: s,
                },
                rd,
                rs1: b,
                rs2: i,
                imm: d,
                w: Width::W32,
                set_flags: false,
                fusible: false,
            }),
        }
    }

    /// Emits a load of width `w`, returning the destination temp.
    fn load(&mut self, w: Width, m: MemRef) -> u8 {
        let t = self.t();
        self.load_into(w, t, m);
        t
    }

    /// Emits a store of `val` at width `w`.
    fn store(&mut self, w: Width, m: MemRef, val: u8) {
        match self.addr(m) {
            Addr::BaseDisp(b, d) => self.push(Uop::st(w, val, b, d)),
            Addr::Indexed(b, i, s, d) => self.push(Uop {
                op: Op::St {
                    w,
                    indexed: true,
                    scale: s,
                },
                rd: val,
                rs1: b,
                rs2: i,
                imm: d,
                w: Width::W32,
                set_flags: false,
                fusible: false,
            }),
        }
    }

    /// Produces a native register holding the operand *value*. For 8-bit
    /// reads of the high-byte registers (`AH`..`BH`) this extracts the
    /// byte; otherwise registers are used directly (flag-width ALU ops
    /// mask their inputs, matching hardware).
    fn read_val(&mut self, op: Operand, w: Width) -> u8 {
        match op {
            Operand::Reg(r) => {
                let n = r.num();
                if w == Width::W8 && n >= 4 {
                    let t = self.t();
                    self.push(Uop::alui(Op::ExtHi8, t, n - 4, 0));
                    t
                } else {
                    n
                }
            }
            Operand::Imm(i) => {
                let t = self.t();
                self.limm(t, i as u32);
                t
            }
            Operand::Mem(m) => self.load(w, m),
        }
    }

    /// Writes `val` to the operand at width `w` (deposits for partials).
    fn write(&mut self, op: Rm, w: Width, val: u8) {
        match op {
            Rm::Reg(r) => {
                let n = r.num();
                match w {
                    Width::W32 => {
                        if n != val {
                            self.push(Uop::alu(Op::Mov, n, n, val));
                        }
                    }
                    Width::W16 => self.push(Uop::alu(Op::Dep16, n, n, val)),
                    Width::W8 => {
                        if n < 4 {
                            self.push(Uop::alu(Op::DepLo8, n, n, val));
                        } else {
                            self.push(Uop::alu(Op::DepHi8, n - 4, n - 4, val));
                        }
                    }
                }
            }
            Rm::Mem(m) => self.store(w, m, val),
        }
    }

    /// Emits a flag-setting ALU op `rd = rs1 <op> src` where `src` is an
    /// operand value register or a small immediate.
    fn aluf(&mut self, op: Op, w: Width, rd: u8, rs1: u8, src: FlagSrc) {
        match src {
            FlagSrc::Reg(r) => self.push(Uop::alu(op, rd, rs1, r).with_flags(w)),
            FlagSrc::Imm(i) => self.push(Uop::alui(op, rd, rs1, i).with_flags(w)),
        }
    }

    /// Truncating signed multiply `dst = a * b` (flags from the widening
    /// product).
    fn imul_trunc(&mut self, w: Width, dst: Gpr, a: u8, b: u8) {
        let lo = self.t();
        let hi = self.t();
        let mut u = Uop::alu(Op::MulLo, lo, a, b);
        u.w = w;
        self.push(u);
        self.push(Uop::alu(Op::MulHiS, hi, a, b).with_flags(w));
        self.write(Rm::Reg(dst), w, lo);
    }

    /// Resolves an operand into a flag-ALU source, materialising large
    /// immediates.
    fn flag_src(&mut self, op: Operand, w: Width) -> FlagSrc {
        match op {
            Operand::Imm(i) if (-32..32).contains(&i) => FlagSrc::Imm(i),
            other => FlagSrc::Reg(self.read_val(other, w)),
        }
    }
}

#[derive(Clone, Copy)]
enum FlagSrc {
    Reg(u8),
    Imm(i32),
}

fn alu_op(op: AluOp) -> Op {
    match op {
        AluOp::Add => Op::Add,
        AluOp::Adc => Op::Adc,
        AluOp::Sub => Op::Sub,
        AluOp::Sbb => Op::Sbb,
        AluOp::And => Op::And,
        AluOp::Or => Op::Or,
        AluOp::Xor => Op::Xor,
        AluOp::Cmp => Op::CmpF,
        AluOp::Test => Op::TestF,
    }
}

fn shift_op(op: ShiftOp) -> Op {
    match op {
        ShiftOp::Shl => Op::Shl,
        ShiftOp::Shr => Op::Shr,
        ShiftOp::Sar => Op::Sar,
        ShiftOp::Rol => Op::Rol,
        ShiftOp::Ror => Op::Ror,
    }
}

/// Cracks one decoded instruction at `pc` into micro-ops.
///
/// The returned body is *complete* for non-CTI instructions: executing it
/// against a [`cdvm_fisa::NativeState`] whose low registers mirror the
/// architected state reproduces the interpreter's effects exactly
/// (property-tested). CTIs additionally return a [`CtiSpec`].
///
/// # Errors
///
/// Returns a [`CrackError`] when the instruction exhausts the cracking
/// temporaries. Callers are expected to *demote*: the hardware assists
/// punt to software and the translators leave the instruction to the
/// interpreter.
pub fn crack(inst: &Inst, pc: u32) -> Result<Cracked, CrackError> {
    let mut e = E::new(pc);
    let w = inst.width;
    let fall = pc.wrapping_add(inst.len as u32);
    let mut cti = None;

    match inst.mnemonic {
        Mnemonic::Mov { dst, src } => match (dst, src, w) {
            (Rm::Reg(r), Operand::Imm(i), Width::W32) => {
                e.limm(r.num(), i as u32);
            }
            (Rm::Reg(rd), Operand::Reg(rs), Width::W32) => {
                e.push(Uop::alu(Op::Mov, rd.num(), rd.num(), rs.num()));
            }
            (Rm::Reg(rd), Operand::Mem(m), Width::W32) => {
                e.load_into(Width::W32, rd.num(), m);
            }
            _ => {
                let v = e.read_val(src, w);
                e.write(dst, w, v);
            }
        },
        Mnemonic::Movzx { from, dst, src } | Mnemonic::Movsx { from, dst, src } => {
            let v = e.read_val(src.into(), from);
            let t = e.t();
            let op = match (inst.mnemonic, from) {
                (Mnemonic::Movzx { .. }, Width::W8) => Op::Zext8,
                (Mnemonic::Movzx { .. }, _) => Op::Zext16,
                (_, Width::W8) => Op::Sext8,
                _ => Op::Sext16,
            };
            e.push(Uop::alui(op, t, v, 0));
            e.write(Rm::Reg(dst), w, t);
        }
        Mnemonic::Lea { dst, addr: m } => {
            let rd = dst.num();
            match (m.base, m.index) {
                (Some(b), None) => e.add_imm(rd, b.num(), m.disp),
                (None, None) => e.limm(rd, m.disp as u32),
                (Some(b), Some(i)) if (-32..32).contains(&m.disp) => {
                    let mut agen = Uop::alu(Op::Agen { scale: m.scale }, rd, b.num(), i.num());
                    agen.imm = m.disp;
                    e.push(agen);
                }
                (Some(b), Some(i)) => {
                    let mut agen = Uop::alu(Op::Agen { scale: m.scale }, rd, b.num(), i.num());
                    agen.imm = 0;
                    e.push(agen);
                    e.add_imm(rd, rd, m.disp);
                }
                (None, Some(i)) => {
                    let t = e.t();
                    e.limm(t, m.disp as u32);
                    let mut agen = Uop::alu(Op::Agen { scale: m.scale }, rd, t, i.num());
                    agen.imm = 0;
                    e.push(agen);
                }
            }
        }
        Mnemonic::Xchg { dst, src } => match (dst, w) {
            (Rm::Reg(ra), Width::W32) => {
                let t = e.t();
                e.push(Uop::alu(Op::Mov, t, t, ra.num()));
                e.push(Uop::alu(Op::Mov, ra.num(), ra.num(), src.num()));
                e.push(Uop::alu(Op::Mov, src.num(), src.num(), t));
            }
            _ => {
                let va = e.read_val(dst.into(), w);
                let t = e.t();
                e.push(Uop::alu(Op::Mov, t, t, va));
                let vb = e.read_val(Operand::Reg(src), w);
                e.write(dst, w, vb);
                e.write(Rm::Reg(src), w, t);
            }
        },
        Mnemonic::Push { src } => {
            let v = e.read_val(src, Width::W32);
            e.push(Uop::st(Width::W32, v, regs::ESP, -4));
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, -4));
        }
        Mnemonic::Pop { dst } => match dst {
            Rm::Reg(r) if r != Gpr::Esp => {
                e.push(Uop::ld(Width::W32, r.num(), regs::ESP, 0));
                e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, 4));
            }
            _ => {
                let t = e.t();
                e.push(Uop::ld(Width::W32, t, regs::ESP, 0));
                e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, 4));
                e.write(dst, Width::W32, t);
            }
        },
        Mnemonic::Alu { op, dst, src } => {
            let nop = alu_op(op);
            if op == AluOp::Cmp || op == AluOp::Test {
                let a = e.read_val(dst.into(), w);
                let b = e.flag_src(src, w);
                e.aluf(nop, w, 0, a, b);
            } else {
                match dst {
                    Rm::Reg(r) if w == Width::W32 => {
                        let b = e.flag_src(src, w);
                        e.aluf(nop, w, r.num(), r.num(), b);
                    }
                    Rm::Reg(_) => {
                        let a = e.read_val(dst.into(), w);
                        let b = e.flag_src(src, w);
                        let t = e.t();
                        e.aluf(nop, w, t, a, b);
                        e.write(dst, w, t);
                    }
                    Rm::Mem(m) => {
                        let b = e.flag_src(src, w);
                        let a = e.load(w, m);
                        let t = e.t();
                        e.aluf(nop, w, t, a, b);
                        e.store(w, m, t);
                    }
                }
            }
        }
        Mnemonic::Inc { dst } | Mnemonic::Dec { dst } | Mnemonic::Neg { dst } => {
            let op = match inst.mnemonic {
                Mnemonic::Inc { .. } => Op::IncF,
                Mnemonic::Dec { .. } => Op::DecF,
                _ => Op::Neg,
            };
            match dst {
                Rm::Reg(r) if w == Width::W32 => {
                    let mut u = Uop::alui(op, r.num(), r.num(), 0).with_flags(w);
                    u.set_flags = true;
                    e.push(u);
                }
                _ => {
                    let a = e.read_val(dst.into(), w);
                    let t = e.t();
                    e.push(Uop::alui(op, t, a, 0).with_flags(w));
                    e.write(dst, w, t);
                }
            }
        }
        Mnemonic::Not { dst } => match dst {
            Rm::Reg(r) if w == Width::W32 => {
                e.push(Uop::alui(Op::Not, r.num(), r.num(), 0));
            }
            _ => {
                let a = e.read_val(dst.into(), w);
                let t = e.t();
                e.push(Uop::alui(Op::Not, t, a, 0));
                e.write(dst, w, t);
            }
        },
        Mnemonic::Mul { src } | Mnemonic::ImulWide { src } => {
            let hi_op = if matches!(inst.mnemonic, Mnemonic::Mul { .. }) {
                Op::MulHiU
            } else {
                Op::MulHiS
            };
            let b = e.read_val(src.into(), w);
            let lo = e.t();
            let hi = e.t();
            let mut u = Uop::alu(Op::MulLo, lo, regs::EAX, b);
            u.w = w;
            e.push(u);
            e.push(Uop::alu(hi_op, hi, regs::EAX, b).with_flags(w));
            match w {
                Width::W8 => {
                    // AX = hi:lo
                    let t = e.t();
                    e.push(Uop::alui(Op::Shl, t, hi, 8));
                    e.push(Uop::alu(Op::Or, t, t, lo));
                    e.push(Uop::alu(Op::Dep16, regs::EAX, regs::EAX, t));
                }
                Width::W16 => {
                    e.push(Uop::alu(Op::Dep16, regs::EAX, regs::EAX, lo));
                    e.push(Uop::alu(Op::Dep16, regs::EDX, regs::EDX, hi));
                }
                Width::W32 => {
                    e.push(Uop::alu(Op::Mov, regs::EAX, regs::EAX, lo));
                    e.push(Uop::alu(Op::Mov, regs::EDX, regs::EDX, hi));
                }
            }
        }
        Mnemonic::Imul { dst, src } => {
            let a = e.read_val(Operand::Reg(dst), w);
            let b = e.read_val(src.into(), w);
            e.imul_trunc(w, dst, a, b);
        }
        Mnemonic::ImulImm { dst, src, imm } => {
            let a = e.read_val(src.into(), w);
            let b = e.t();
            e.limm(b, imm as u32);
            e.imul_trunc(w, dst, a, b);
        }
        Mnemonic::Div { src } | Mnemonic::Idiv { src } => {
            let (qop, rop) = if matches!(inst.mnemonic, Mnemonic::Div { .. }) {
                (Op::DivQ, Op::DivR)
            } else {
                (Op::IDivQ, Op::IDivR)
            };
            let d = e.read_val(src.into(), w);
            let q = e.t();
            let r = e.t();
            let mut uq = Uop::alu(qop, q, d, regs::VMM_SP);
            uq.w = w;
            e.push(uq);
            let mut ur = Uop::alu(rop, r, d, regs::VMM_SP);
            ur.w = w;
            e.push(ur);
            match w {
                Width::W8 => {
                    e.push(Uop::alu(Op::DepLo8, regs::EAX, regs::EAX, q));
                    e.push(Uop::alu(Op::DepHi8, regs::EAX, regs::EAX, r));
                }
                Width::W16 => {
                    e.push(Uop::alu(Op::Dep16, regs::EAX, regs::EAX, q));
                    e.push(Uop::alu(Op::Dep16, regs::EDX, regs::EDX, r));
                }
                Width::W32 => {
                    e.push(Uop::alu(Op::Mov, regs::EAX, regs::EAX, q));
                    e.push(Uop::alu(Op::Mov, regs::EDX, regs::EDX, r));
                }
            }
        }
        Mnemonic::Shift { op, dst, count } => {
            let nop = shift_op(op);
            let count = match count {
                ShiftCount::Imm(c) => FlagSrc::Imm(i32::from(c) & 31),
                ShiftCount::Cl => FlagSrc::Reg(regs::ECX),
            };
            match dst {
                Rm::Reg(r) if w == Width::W32 => {
                    e.aluf(nop, w, r.num(), r.num(), count);
                }
                _ => {
                    let a = e.read_val(dst.into(), w);
                    let t = e.t();
                    e.aluf(nop, w, t, a, count);
                    e.write(dst, w, t);
                }
            }
        }
        Mnemonic::Jcc { cond, target } => {
            cti = Some(CtiSpec::CondFlags { cond, target, fall });
        }
        Mnemonic::Jmp { target } => {
            cti = Some(CtiSpec::Direct { target });
        }
        Mnemonic::JmpInd { target } => {
            let t = e.read_val(target.into(), Width::W32);
            cti = Some(CtiSpec::Indirect { reg: t });
        }
        Mnemonic::Call { target } => {
            let t = e.t();
            e.limm(t, fall);
            e.push(Uop::st(Width::W32, t, regs::ESP, -4));
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, -4));
            cti = Some(CtiSpec::DirectCall { target, fall });
        }
        Mnemonic::CallInd { target } => {
            let target = e.read_val(target.into(), Width::W32);
            let t = e.t();
            e.limm(t, fall);
            e.push(Uop::st(Width::W32, t, regs::ESP, -4));
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, -4));
            cti = Some(CtiSpec::Indirect { reg: target });
        }
        Mnemonic::Ret { pop } => {
            let t = e.t();
            e.push(Uop::ld(Width::W32, t, regs::ESP, 0));
            e.add_imm(regs::ESP, regs::ESP, 4 + i32::from(pop));
            cti = Some(CtiSpec::Indirect { reg: t });
        }
        Mnemonic::Loop { target } => {
            e.push(Uop::alui(Op::Add, regs::ECX, regs::ECX, -1));
            cti = Some(CtiSpec::CondNz {
                reg: regs::ECX,
                target,
                fall,
            });
        }
        Mnemonic::Jecxz { target } => {
            cti = Some(CtiSpec::CondZ {
                reg: regs::ECX,
                target,
                fall,
            });
        }
        Mnemonic::Setcc { cond, dst } => {
            let t = e.t();
            e.push(Uop {
                op: Op::Setcc(cond),
                rd: t,
                rs1: 0,
                rs2: 0,
                imm: 0,
                w: Width::W32,
                set_flags: false,
                fusible: false,
            });
            e.write(dst, Width::W8, t);
        }
        Mnemonic::Cmovcc { cond, dst, src } => {
            let v = e.read_val(src.into(), w);
            let r = dst.num();
            if w == Width::W32 {
                e.push(Uop {
                    op: Op::Cmovcc(cond),
                    rd: r,
                    rs1: r,
                    rs2: v,
                    imm: 0,
                    w: Width::W32,
                    set_flags: false,
                    fusible: false,
                });
            } else {
                let cur = e.read_val(Operand::Reg(dst), w);
                let t = e.t();
                e.push(Uop {
                    op: Op::Cmovcc(cond),
                    rd: t,
                    rs1: cur,
                    rs2: v,
                    imm: 0,
                    w: Width::W32,
                    set_flags: false,
                    fusible: false,
                });
                e.write(Rm::Reg(dst), w, t);
            }
        }
        Mnemonic::Cwde => {
            if w == Width::W16 {
                let t = e.t();
                e.push(Uop::alui(Op::Sext8, t, regs::EAX, 0));
                e.push(Uop::alu(Op::Dep16, regs::EAX, regs::EAX, t));
            } else {
                e.push(Uop::alui(Op::Sext16, regs::EAX, regs::EAX, 0));
            }
        }
        Mnemonic::Cdq => {
            if w == Width::W16 {
                let t = e.t();
                e.push(Uop::alui(Op::Sext16, t, regs::EAX, 0));
                e.push(Uop::alui(Op::Sar, t, t, 15));
                e.push(Uop::alu(Op::Dep16, regs::EDX, regs::EDX, t));
            } else {
                e.push(Uop::alui(Op::Sar, regs::EDX, regs::EAX, 31));
            }
        }
        Mnemonic::Cld => e.push(Uop::alui(Op::Sys(SysOp::Cld), 0, 0, 0)),
        Mnemonic::Std => e.push(Uop::alui(Op::Sys(SysOp::Std), 0, 0, 0)),
        Mnemonic::Str { op, rep } => {
            crack_string(&mut e, op, w);
            if rep {
                cti = Some(CtiSpec::Rep { kind: op });
            }
        }
        Mnemonic::Pusha => {
            let order = [
                regs::EAX,
                regs::ECX,
                regs::EDX,
                regs::EBX,
                regs::ESP,
                regs::EBP,
                regs::ESI,
                regs::EDI,
            ];
            for (k, r) in order.iter().enumerate() {
                e.push(Uop::st(Width::W32, *r, regs::ESP, -4 * (k as i32 + 1)));
            }
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, -32));
        }
        Mnemonic::Popa => {
            let order = [
                (regs::EDI, 0),
                (regs::ESI, 4),
                (regs::EBP, 8),
                // ESP slot skipped
                (regs::EBX, 16),
                (regs::EDX, 20),
                (regs::ECX, 24),
                (regs::EAX, 28),
            ];
            for (r, off) in order {
                e.push(Uop::ld(Width::W32, r, regs::ESP, off));
            }
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, 32));
        }
        Mnemonic::Enter { frame, .. } => {
            e.push(Uop::st(Width::W32, regs::EBP, regs::ESP, -4));
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, -4));
            e.push(Uop::alu(Op::Mov, regs::EBP, regs::EBP, regs::ESP));
            e.add_imm(regs::ESP, regs::ESP, -i32::from(frame));
        }
        Mnemonic::Leave => {
            e.push(Uop::alu(Op::Mov, regs::ESP, regs::ESP, regs::EBP));
            e.push(Uop::ld(Width::W32, regs::EBP, regs::ESP, 0));
            e.push(Uop::alui(Op::Add, regs::ESP, regs::ESP, 4));
        }
        Mnemonic::Nop => {}
        Mnemonic::Hlt => cti = Some(CtiSpec::Halt),
        Mnemonic::Int3 => cti = Some(CtiSpec::Trap { code: 3 }),
        Mnemonic::Cpuid => {
            // Mirror cdvm_x86::cpuid_values: eax' = 1 ^ rotl(eax, 3), then
            // fixed identity constants.
            let t = e.t();
            e.push(Uop::alui(Op::Rol, t, regs::EAX, 3));
            e.push(Uop::alui(Op::Xor, regs::EAX, t, 1));
            let vals = cdvm_x86::cpuid_values(0);
            e.limm(regs::EBX, vals[1]);
            e.limm(regs::ECX, vals[2]);
            e.limm(regs::EDX, vals[3]);
        }
    }

    if let Some(err) = e.failed {
        return Err(err);
    }
    Ok(Cracked {
        uops: e.uops,
        cti,
        complex: inst.mnemonic.is_complex(),
    })
}

/// One iteration of a string instruction, with runtime DF handling.
fn crack_string(e: &mut E, op: StrOp, w: Width) {
    let bytes = w.bytes() as i32;
    // step = bytes - 2*bytes*DF
    let t_df = e.t();
    e.push(Uop::alui(Op::RdDf, t_df, 0, 0));
    e.push(Uop::alui(Op::Shl, t_df, t_df, bytes.trailing_zeros() as i32 + 1));
    let t_step = e.t();
    e.push(Uop::alui(Op::Limm, t_step, 0, bytes));
    e.push(Uop::alu(Op::Sub, t_step, t_step, t_df));

    match op {
        StrOp::Movs => {
            let v = e.t();
            e.push(Uop::ld(w, v, regs::ESI, 0));
            e.push(Uop::st(w, v, regs::EDI, 0));
            e.push(Uop::alu(Op::Add, regs::ESI, regs::ESI, t_step));
            e.push(Uop::alu(Op::Add, regs::EDI, regs::EDI, t_step));
        }
        StrOp::Stos => {
            e.push(Uop::st(w, regs::EAX, regs::EDI, 0));
            e.push(Uop::alu(Op::Add, regs::EDI, regs::EDI, t_step));
        }
        StrOp::Lods => {
            let v = e.t();
            e.push(Uop::ld(w, v, regs::ESI, 0));
            match w {
                Width::W32 => e.push(Uop::alu(Op::Mov, regs::EAX, regs::EAX, v)),
                Width::W16 => e.push(Uop::alu(Op::Dep16, regs::EAX, regs::EAX, v)),
                Width::W8 => e.push(Uop::alu(Op::DepLo8, regs::EAX, regs::EAX, v)),
            }
            e.push(Uop::alu(Op::Add, regs::ESI, regs::ESI, t_step));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_x86::{decode, Asm};

    fn crack_one(build: impl FnOnce(&mut Asm)) -> Cracked {
        let mut asm = Asm::new(0x1000);
        build(&mut asm);
        let code = asm.finish();
        let inst = decode(&code, 0x1000).expect("decodes");
        crack(&inst, 0x1000).expect("cracks")
    }

    #[test]
    fn simple_alu_is_one_uop() {
        let c = crack_one(|a| a.alu_rr(AluOp::Add, Gpr::Eax, Gpr::Ebx));
        assert_eq!(c.uops.len(), 1);
        assert_eq!(c.uops[0].op, Op::Add);
        assert!(c.uops[0].set_flags);
        assert_eq!(c.uops[0].rd, regs::EAX);
        assert!(c.cti.is_none());
        assert!(!c.complex);
    }

    #[test]
    fn load_op_is_two_uops() {
        let c = crack_one(|a| a.alu_rm(AluOp::Add, Gpr::Eax, MemRef::base_disp(Gpr::Ebp, -8)));
        assert_eq!(c.uops.len(), 2);
        assert!(matches!(c.uops[0].op, Op::Ld { .. }));
        assert_eq!(c.uops[1].op, Op::Add);
    }

    #[test]
    fn rmw_is_three_uops() {
        let c = crack_one(|a| a.alu_mr(AluOp::Add, MemRef::base_disp(Gpr::Ebx, 4), Gpr::Ecx));
        // ld, add, st
        assert_eq!(c.uops.len(), 3);
        assert!(matches!(c.uops[2].op, Op::St { .. }));
    }

    #[test]
    fn push_is_store_plus_update() {
        let c = crack_one(|a| a.push_r(Gpr::Esi));
        assert_eq!(c.uops.len(), 2);
        assert!(matches!(c.uops[0].op, Op::St { .. }));
        assert_eq!(c.uops[0].imm, -4);
        assert_eq!(c.uops[1].op, Op::Add);
    }

    #[test]
    fn call_pushes_return_address() {
        let c = crack_one(|a| {
            let l = a.label();
            a.call(l);
            a.bind(l);
        });
        assert!(matches!(
            c.cti,
            Some(CtiSpec::DirectCall { target: 0x1005, fall: 0x1005 })
        ));
        // limm(fall) + st + esp update
        assert!(c.uops.len() >= 3);
    }

    #[test]
    fn ret_is_indirect() {
        let c = crack_one(|a| a.ret());
        assert!(matches!(c.cti, Some(CtiSpec::Indirect { .. })));
        assert!(matches!(c.uops[0].op, Op::Ld { .. }));
    }

    #[test]
    fn jcc_has_no_body() {
        let c = crack_one(|a| {
            let l = a.label();
            a.jcc(Cond::E, l);
            a.bind(l);
        });
        assert!(c.uops.is_empty());
        assert!(matches!(
            c.cti,
            Some(CtiSpec::CondFlags { cond: Cond::E, .. })
        ));
    }

    #[test]
    fn loop_preserves_flags() {
        let c = crack_one(|a| {
            let l = a.here();
            a.loop_(l);
        });
        assert_eq!(c.uops.len(), 1);
        assert!(!c.uops[0].set_flags, "LOOP must not touch flags");
        assert!(matches!(c.cti, Some(CtiSpec::CondNz { .. })));
    }

    #[test]
    fn rep_movs_is_complex_with_rep_cti() {
        let c = crack_one(|a| a.movs(Width::W32, true));
        assert!(c.complex);
        assert!(matches!(c.cti, Some(CtiSpec::Rep { kind: StrOp::Movs })));
        assert!(c.uops.iter().any(|u| matches!(u.op, Op::RdDf)));
    }

    #[test]
    fn high_byte_alu_extracts_and_merges() {
        // add ah, bl
        let c = crack_one(|a| a.alu_rr8(AluOp::Add, Gpr::Esp, Gpr::Ebx));
        let ops: Vec<_> = c.uops.iter().map(|u| u.op).collect();
        assert!(ops.contains(&Op::ExtHi8));
        assert!(ops.contains(&Op::DepHi8));
    }

    #[test]
    fn div_faults_before_writeback() {
        let c = crack_one(|a| a.div_r(Gpr::Ecx));
        // DivQ and DivR precede the Mov writebacks
        assert!(matches!(c.uops[0].op, Op::DivQ));
        assert!(matches!(c.uops[1].op, Op::DivR));
        assert!(matches!(c.uops[2].op, Op::Mov));
    }

    #[test]
    fn big_displacement_synthesised() {
        let c = crack_one(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Ebx, 0x10_0000)));
        // limm pair + add + ld, or limm pair + ld with base
        assert!(c.uops.len() >= 3);
        assert!(matches!(c.uops.last().unwrap().op, Op::Ld { .. }));
    }

    #[test]
    fn uop_count_distribution_is_realistic() {
        // The paper's design assumes most x86 instructions crack into a
        // small number of micro-ops with ≤16 bytes of encoding.
        let insts: Vec<Cracked> = vec![
            crack_one(|a| a.mov_ri(Gpr::Eax, 5)),
            crack_one(|a| a.alu_rr(AluOp::Sub, Gpr::Ecx, Gpr::Edx)),
            crack_one(|a| a.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Esp, 8))),
            crack_one(|a| a.push_r(Gpr::Eax)),
            crack_one(|a| a.lea(Gpr::Edi, MemRef::base_index(Gpr::Eax, Gpr::Ecx, 4, 3))),
        ];
        for c in &insts {
            assert!(c.uops.len() <= 4);
            assert!(c.encoded_uop_bytes() <= 16);
        }
    }

    #[test]
    fn crack_error_reports_pc() {
        let e = CrackError::TempsExhausted { pc: 0x1234 };
        assert_eq!(e.pc(), 0x1234);
        assert!(e.to_string().contains("0x1234"));
    }

    #[test]
    fn halt_and_trap_ctis() {
        assert!(matches!(crack_one(|a| a.hlt()).cti, Some(CtiSpec::Halt)));
        assert!(matches!(
            crack_one(|a| a.int3()).cti,
            Some(CtiSpec::Trap { code: 3 })
        ));
    }

    use cdvm_x86::{AluOp, Cond, Gpr, MemRef, Width};
}
