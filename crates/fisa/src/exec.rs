//! Functional executor for translated (implementation-ISA) code.

use std::collections::BTreeSet;

use cdvm_mem::Memory;
use cdvm_x86::{alu, AluOp, BranchKind, Flags, MemAccess, ShiftOp, Width};

use crate::encoding;
use crate::regs;
use crate::uop::{ExitCode, Op, SysOp, Uop, UopMeta};
use crate::xlt::XltAssist;
use crate::NativeState;

/// Where the executor fetches encoded micro-ops from (the BBT and SBT
/// code caches, merged by address range in the VMM).
pub trait CodeSource {
    /// Fetches the halfword at `addr`, or `None` if the address is not
    /// mapped translated code.
    fn fetch_hw(&self, addr: u32) -> Option<u16>;

    /// The x86 instructions the micro-op at `addr` retires (default 0).
    /// Read once when the micro-op is decoded into a run, so the runs
    /// covering a changed credit must be invalidated.
    fn credit(&self, _addr: u32) -> u32 {
        0
    }

    /// Fetches up to 4 bytes for decoding (default in terms of
    /// [`CodeSource::fetch_hw`]).
    fn fetch_window(&self, addr: u32) -> Option<[u8; 4]> {
        let h0 = self.fetch_hw(addr)?;
        let h1 = self.fetch_hw(addr + 2).unwrap_or(0);
        let b0 = h0.to_le_bytes();
        let b1 = h1.to_le_bytes();
        Some([b0[0], b0[1], b1[0], b1[1]])
    }
}

/// Faults raised by native execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NFault {
    /// Divide error in translated code; the VMM recovers precise x86
    /// state via the interpreter.
    DivideError {
        /// Native PC of the faulting micro-op.
        native_pc: u32,
    },
    /// Explicit trap micro-op (translated `INT3`).
    Trap {
        /// Trap code.
        code: u32,
        /// Native PC of the trap.
        native_pc: u32,
    },
    /// Fetch outside mapped translated code (stale chain, VMM bug).
    BadFetch {
        /// The unmapped address.
        addr: u32,
    },
    /// Undecodable bytes in the code cache.
    BadEncoding {
        /// Address of the bad micro-op.
        addr: u32,
    },
    /// An `XLTx86` micro-op executed with no backend unit configured.
    NoXltUnit {
        /// Native PC of the micro-op.
        native_pc: u32,
    },
}

impl std::fmt::Display for NFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NFault::DivideError { native_pc } => write!(f, "divide error at {native_pc:#x}"),
            NFault::Trap { code, native_pc } => write!(f, "trap {code} at {native_pc:#x}"),
            NFault::BadFetch { addr } => write!(f, "fetch outside code cache at {addr:#x}"),
            NFault::BadEncoding { addr } => write!(f, "bad micro-op encoding at {addr:#x}"),
            NFault::NoXltUnit { native_pc } => {
                write!(f, "XLTx86 executed without a backend unit at {native_pc:#x}")
            }
        }
    }
}

impl std::error::Error for NFault {}

/// Control returned to the VMM runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NExit {
    /// An exit stub fired.
    VmExit {
        /// Why the translated code exited.
        code: ExitCode,
        /// The [`regs::VMM_ARG`] payload (usually an x86 PC).
        arg: u32,
    },
    /// Translated `HLT`.
    Halt,
}

/// One retired micro-op, as seen by the timing model.
#[derive(Debug, Clone, Copy)]
pub struct NRetired {
    /// Native PC of the micro-op.
    pub pc: u32,
    /// Encoded length (2 or 4 bytes).
    pub len: u8,
    /// The micro-op itself (fusible bit ⇒ head of a macro-op pair).
    pub uop: Uop,
    /// Decode-time static classification of `uop`.
    pub meta: UopMeta,
    /// x86 instructions this micro-op retires ([`CodeSource::credit`]).
    pub credit: u32,
    /// Data memory access, if any.
    pub mem: Option<MemAccess>,
    /// Branch outcome, if this was a control transfer.
    pub branch: Option<(BranchKind, bool, u32)>,
    /// VMM exit, if one fired.
    pub exit: Option<NExit>,
}

/// A decoded straight-line run: `dense[start..end]` holds the micro-ops
/// decoded forward from the entry PC up to (and including) the first
/// unconditional redirect — `Br`, `Jr`, `VmExit`, `Halt`, `Trap` — or the
/// length cap. Conditional branches stay *inside* runs: superblocks with
/// side exits execute end-to-end off one run on the not-taken path.
#[derive(Clone, Copy)]
struct Run {
    start: u32,
    end: u32,
    /// First native PC past the run (for patch-address containment).
    end_pc: u32,
}

impl Run {
    fn uops(&self) -> usize {
        (self.end - self.start) as usize
    }
}

/// Open-addressing map from run entry PC to [`Run`]. SipHash-free for
/// the dispatch path; key 0 is free (native PC 0 is never code).
struct RunMap {
    keys: Vec<u32>,
    vals: Vec<Run>,
    len: usize,
    mask: usize,
    /// The live entry PCs in address order: a patched address can only
    /// lie in a run entered at most [`MAX_RUN_BYTES`] below it, so patch
    /// invalidation looks up those few entries instead of sweeping
    /// every slot.
    entries: BTreeSet<u32>,
    /// Micro-ops held by the live runs.
    uops: usize,
}

const EMPTY_KEY: u32 = 0;

/// Safety cap on run length (a run normally ends at a redirect long
/// before this; the cap bounds decode-ahead over degenerate byte runs).
const MAX_RUN: usize = 256;

/// Upper bound on a run's span in bytes: at most [`MAX_RUN`] micro-ops
/// of at most 4 encoded bytes each.
const MAX_RUN_BYTES: u32 = 4 * MAX_RUN as u32;

/// Slack of the decode arena: it is rebuilt from the live runs once it
/// holds more than twice their micro-ops plus this many.
const COMPACT_FLOOR: usize = 4 * MAX_RUN;

impl RunMap {
    fn new() -> Self {
        let n = 1 << 12;
        RunMap {
            keys: vec![EMPTY_KEY; n],
            vals: vec![
                Run {
                    start: 0,
                    end: 0,
                    end_pc: 0
                };
                n
            ],
            len: 0,
            mask: n - 1,
            entries: BTreeSet::new(),
            uops: 0,
        }
    }

    #[inline]
    fn slot(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9e37_79b9) as usize >> 7) & self.mask
    }

    #[inline]
    fn get(&self, key: u32) -> Option<Run> {
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Adds a run for an entry PC that has none (`build_run` decodes on
    /// a lookup miss).
    fn insert(&mut self, key: u32, val: Run) {
        let fresh = self.entries.insert(key);
        debug_assert!(fresh, "run at {key:#x} decoded twice");
        self.uops += val.uops();
        self.place(key, val);
    }

    /// Stores `key -> val` in the probe table only (the entry index and
    /// the micro-op count are the caller's business: rehashing moves
    /// entries without adding any).
    fn place(&mut self, key: u32, val: Run) {
        debug_assert_ne!(key, EMPTY_KEY, "native PC 0 is never translated code");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot(key);
        loop {
            if self.keys[i] == EMPTY_KEY || self.keys[i] == key {
                if self.keys[i] == EMPTY_KEY {
                    self.len += 1;
                }
                self.keys[i] = key;
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, key: u32) {
        // Standard open-addressing deletion: empty the slot, then
        // re-insert the remainder of the probe cluster.
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY_KEY {
                return;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.keys[i] = EMPTY_KEY;
        self.len -= 1;
        self.uops -= self.vals[i].uops();
        self.entries.remove(&key);
        let mut j = (i + 1) & self.mask;
        while self.keys[j] != EMPTY_KEY {
            let (k, v) = (self.keys[j], self.vals[j]);
            self.keys[j] = EMPTY_KEY;
            self.len -= 1;
            self.place(k, v);
            j = (j + 1) & self.mask;
        }
    }

    /// Removes every run whose decoded PC range contains any of `addrs`
    /// (code patches landed there, so the cached micro-ops are stale).
    /// Only runs entered in `(a - MAX_RUN_BYTES, a]` can contain `a`, so
    /// each patched address costs one ordered-index range lookup, however
    /// many runs are cached.
    fn remove_containing(&mut self, addrs: &[u32]) {
        let mut stale = Vec::new();
        for &a in addrs {
            let lo = a.saturating_sub(MAX_RUN_BYTES - 1);
            for &k in self.entries.range(lo..=a) {
                if self.get(k).is_some_and(|r| a < r.end_pc) {
                    stale.push(k);
                }
            }
        }
        for k in stale {
            self.remove(k);
        }
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
        self.entries.clear();
        self.uops = 0;
    }

    fn grow(&mut self) {
        let new_len = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_len]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            vec![
                Run {
                    start: 0,
                    end: 0,
                    end_pc: 0
                };
                new_len
            ],
        );
        self.mask = new_len - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.place(k, v);
            }
        }
    }
}

/// One cached micro-op with what the retire path reads of it: encoded
/// length, decode-time [`UopMeta`] and retirement credit.
type Decoded = (Uop, u8, UopMeta, u32);

/// True if `op` unconditionally redirects control (and therefore ends a
/// decoded run).
fn ends_run(op: &Op) -> bool {
    matches!(
        op,
        Op::Br | Op::Jr | Op::VmExit(_) | Op::Sys(SysOp::Halt) | Op::Sys(SysOp::Trap)
    )
}

/// The implementation-ISA functional executor.
///
/// Decoded micro-ops are cached as straight-line *runs* (a stand-in for
/// the real machine's pipeline decode; the encoded bytes in the code
/// cache remain the ground truth). Sequential execution is served from a
/// cursor into the dense run storage — no per-micro-op table probe; only
/// control transfers re-probe the run map. The VMM must call
/// [`Executor::invalidate`] whenever a code-cache generation is flushed
/// and [`Executor::invalidate_at`] for every patched site and for every
/// address whose [`CodeSource::credit`] changes.
pub struct Executor {
    runs: RunMap,
    dense: Vec<Decoded>,
    // Cursor over the run currently executing: `dense[cur_pos]` is the
    // next micro-op iff the machine's PC equals `cur_pc` (a taken branch
    // or fault retry breaks the equality and falls back to the map).
    cur_pos: usize,
    cur_end: usize,
    cur_pc: u32,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            runs: RunMap::new(),
            dense: Vec::new(),
            cur_pos: 0,
            cur_end: 0,
            cur_pc: 0,
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cached_runs", &self.runs.len)
            .field("cached_uops", &self.dense.len())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with an empty decode cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoded runs currently cached (diagnostic: invalidation tests
    /// check that flushed code-cache generations are shed, not accreted).
    pub fn cached_runs(&self) -> usize {
        self.runs.len
    }

    /// Micro-ops held in the decode arena, for live runs and for runs
    /// dropped since the arena was last rebuilt (diagnostic: it stays
    /// within twice the live runs' micro-ops plus a fixed slack).
    pub fn cached_uops(&self) -> usize {
        self.dense.len()
    }

    /// Clears the decode cache (call after any code-cache flush/patch).
    pub fn invalidate(&mut self) {
        self.runs.clear();
        self.dense.clear();
        self.reset_cursor();
    }

    /// Invalidates a single address (after chaining patches one site):
    /// every cached run covering it is dropped and re-decoded on next
    /// entry.
    pub fn invalidate_at(&mut self, addr: u32) {
        self.invalidate_all_at(&[addr]);
    }

    /// Batched [`Executor::invalidate_at`] for a whole cluster of
    /// patched sites.
    pub fn invalidate_all_at(&mut self, addrs: &[u32]) {
        if addrs.is_empty() {
            return;
        }
        self.runs.remove_containing(addrs);
        // Dropped runs leave their micro-ops in the arena, and a run
        // entered again is appended afresh: rebuild the arena once the
        // dead micro-ops outnumber the live ones. Appends keep this
        // bound, so only dropping runs can break it.
        if self.dense.len() > 2 * self.runs.uops + COMPACT_FLOOR {
            self.compact();
        }
        // The cursor may be mid-way through a dropped run.
        self.reset_cursor();
    }

    /// Rebuilds the decode arena from the live runs alone and points
    /// each run at its new range.
    fn compact(&mut self) {
        let mut dense = Vec::with_capacity(2 * self.runs.uops);
        for (&key, run) in self.runs.keys.iter().zip(&mut self.runs.vals) {
            if key != EMPTY_KEY {
                let start = dense.len() as u32;
                dense.extend_from_slice(&self.dense[run.start as usize..run.end as usize]);
                run.start = start;
                run.end = dense.len() as u32;
            }
        }
        self.dense = dense;
    }

    fn reset_cursor(&mut self) {
        self.cur_pos = 0;
        self.cur_end = 0;
        self.cur_pc = 0;
    }

    /// Decodes forward from `pc` to the next unconditional redirect,
    /// caches the run, points the cursor past its first micro-op, and
    /// returns that first micro-op.
    #[inline(never)]
    fn build_run(&mut self, code: &impl CodeSource, pc: u32) -> Result<Decoded, NFault> {
        let window = code.fetch_window(pc).ok_or(NFault::BadFetch { addr: pc })?;
        let (fu, fl) =
            encoding::decode_one(&window, 0).map_err(|_| NFault::BadEncoding { addr: pc })?;
        let first = (fu, fl, UopMeta::of(&fu), code.credit(pc));
        let start = self.dense.len();
        self.dense.push(first);
        let mut p = pc.wrapping_add(first.1 as u32);
        let mut last = first.0.op;
        // Decode ahead while the code stays straight-line and decodable;
        // an undecodable tail is not an error here — execution only
        // faults if it actually reaches it (and then re-decodes at that
        // PC, reporting the same fault the per-step path would).
        while !ends_run(&last) && self.dense.len() - start < MAX_RUN {
            let Some(w) = code.fetch_window(p) else { break };
            let Ok((u, l)) = encoding::decode_one(&w, 0) else {
                break;
            };
            self.dense.push((u, l, UopMeta::of(&u), code.credit(p)));
            p = p.wrapping_add(l as u32);
            last = u.op;
        }
        let end = self.dense.len();
        self.runs.insert(
            pc,
            Run {
                start: start as u32,
                end: end as u32,
                end_pc: p,
            },
        );
        self.cur_pos = start + 1;
        self.cur_end = end;
        self.cur_pc = pc.wrapping_add(first.1 as u32);
        Ok(first)
    }

    /// Executes one micro-op at `st.pc`.
    ///
    /// # Errors
    ///
    /// Returns an [`NFault`] on divide errors, traps, bad fetches, or a
    /// missing XLT unit; `st.pc` is left at the faulting micro-op.
    pub fn step(
        &mut self,
        st: &mut NativeState,
        mem: &mut impl Memory,
        code: &impl CodeSource,
        xlt: Option<&mut dyn XltAssist>,
    ) -> Result<NRetired, NFault> {
        self.step_inner(st, mem, code, xlt)
    }

    /// Executes micro-ops back-to-back, invoking `retire` after each one
    /// retires, until a fault, until the retired micro-op carries a VMM
    /// exit, or until `retire` returns `false`.
    ///
    /// This is [`Executor::step`] with the per-micro-op loop moved
    /// inside the executor: the run cursor and machine state stay hot
    /// across iterations and `retire` (a monomorphized closure) inlines
    /// into the loop, instead of paying a full call boundary and an
    /// [`NRetired`] move per micro-op. The observable sequence of
    /// retirements is identical to calling `step` in a loop.
    ///
    /// # Errors
    ///
    /// Propagates the same [`NFault`]s as [`Executor::step`]; `retire`
    /// is not called for the faulting micro-op.
    pub fn step_batch(
        &mut self,
        st: &mut NativeState,
        mem: &mut impl Memory,
        code: &impl CodeSource,
        mut xlt: Option<&mut dyn XltAssist>,
        retire: &mut impl FnMut(&NRetired) -> bool,
    ) -> Result<(), NFault> {
        loop {
            let reborrow = match xlt {
                Some(ref mut x) => Some::<&mut dyn XltAssist>(&mut **x),
                None => None,
            };
            let r = self.step_inner(st, mem, code, reborrow)?;
            let more = retire(&r);
            if r.exit.is_some() || !more {
                return Ok(());
            }
        }
    }

    #[inline(always)]
    fn step_inner(
        &mut self,
        st: &mut NativeState,
        mem: &mut impl Memory,
        code: &impl CodeSource,
        mut xlt: Option<&mut dyn XltAssist>,
    ) -> Result<NRetired, NFault> {
        let pc = st.pc;
        let (u, len, meta, credit) = if pc == self.cur_pc && self.cur_pos < self.cur_end {
            // Sequential: serve straight from the run cursor.
            let hit = self.dense[self.cur_pos];
            self.cur_pos += 1;
            self.cur_pc = pc.wrapping_add(hit.1 as u32);
            hit
        } else if let Some(run) = self.runs.get(pc) {
            // Control transfer into a cached run (block entry, side-exit
            // target, loop back-edge).
            let hit = self.dense[run.start as usize];
            self.cur_pos = run.start as usize + 1;
            self.cur_end = run.end as usize;
            self.cur_pc = pc.wrapping_add(hit.1 as u32);
            hit
        } else {
            self.build_run(code, pc)?
        };
        let fall = pc.wrapping_add(len as u32);
        let mut next = fall;
        let mut mem_acc = None;
        let mut branch = None;
        let mut exit = None;

        let b_src = |st: &NativeState| {
            if u.rs2 == regs::VMM_SP {
                u.imm as u32
            } else {
                st.r[u.rs2 as usize]
            }
        };

        match u.op {
            Op::Add | Op::Adc | Op::Sub | Op::Sbb | Op::And | Op::Or | Op::Xor => {
                let a = st.r[u.rs1 as usize];
                let b = b_src(st);
                if u.set_flags {
                    let op = match u.op {
                        Op::Add => AluOp::Add,
                        Op::Adc => AluOp::Adc,
                        Op::Sub => AluOp::Sub,
                        Op::Sbb => AluOp::Sbb,
                        Op::And => AluOp::And,
                        Op::Or => AluOp::Or,
                        _ => AluOp::Xor,
                    };
                    let (r, s) = alu::alu(op, u.w, a, b, st.flags.cf());
                    st.r[u.rd as usize] = r;
                    st.flags.set_status(s);
                } else {
                    let r = match u.op {
                        Op::Add => a.wrapping_add(b),
                        Op::Adc => a.wrapping_add(b).wrapping_add(st.flags.cf() as u32),
                        Op::Sub => a.wrapping_sub(b),
                        Op::Sbb => a.wrapping_sub(b).wrapping_sub(st.flags.cf() as u32),
                        Op::And => a & b,
                        Op::Or => a | b,
                        _ => a ^ b,
                    };
                    st.r[u.rd as usize] = r;
                }
            }
            Op::Shl | Op::Shr | Op::Sar | Op::Rol | Op::Ror => {
                let a = st.r[u.rs1 as usize];
                let count = b_src(st);
                let op = match u.op {
                    Op::Shl => ShiftOp::Shl,
                    Op::Shr => ShiftOp::Shr,
                    Op::Sar => ShiftOp::Sar,
                    Op::Rol => ShiftOp::Rol,
                    _ => ShiftOp::Ror,
                };
                if u.set_flags {
                    match alu::shift(op, u.w, a, count, st.flags) {
                        Some((r, f)) => {
                            st.r[u.rd as usize] = r;
                            st.flags = f;
                        }
                        None => st.r[u.rd as usize] = a & u.w.mask(),
                    }
                } else {
                    let c = count & 31;
                    let r = match op {
                        ShiftOp::Shl => a.wrapping_shl(c),
                        ShiftOp::Shr => a.wrapping_shr(c),
                        ShiftOp::Sar => ((a as i32) >> c.min(31)) as u32,
                        ShiftOp::Rol => a.rotate_left(c),
                        ShiftOp::Ror => a.rotate_right(c),
                    };
                    st.r[u.rd as usize] = r;
                }
            }
            Op::MulLo => {
                let a = st.r[u.rs1 as usize];
                let b = b_src(st);
                st.r[u.rd as usize] = a.wrapping_mul(b) & u.w.mask();
            }
            Op::MulHiU => {
                let a = st.r[u.rs1 as usize];
                let b = b_src(st);
                let (_, hi, s) = alu::mul(u.w, a, b);
                st.r[u.rd as usize] = hi;
                if u.set_flags {
                    st.flags.set_status(s);
                }
            }
            Op::MulHiS => {
                let a = st.r[u.rs1 as usize];
                let b = b_src(st);
                let (_, hi, s) = alu::imul_wide(u.w, a, b);
                st.r[u.rd as usize] = hi;
                if u.set_flags {
                    st.flags.set_status(s);
                }
            }
            Op::DivQ | Op::DivR | Op::IDivQ | Op::IDivR => {
                let divisor = st.r[u.rs1 as usize];
                let (lo, hi) = match u.w {
                    Width::W8 => {
                        let ax = st.r[regs::EAX as usize] & 0xffff;
                        (ax & 0xff, (ax >> 8) & 0xff)
                    }
                    _ => (
                        st.r[regs::EAX as usize] & u.w.mask(),
                        st.r[regs::EDX as usize] & u.w.mask(),
                    ),
                };
                let signed = matches!(u.op, Op::IDivQ | Op::IDivR);
                let res = if signed {
                    alu::idiv(u.w, lo, hi, divisor)
                } else {
                    alu::div(u.w, lo, hi, divisor)
                };
                let Some((q, r)) = res else {
                    return Err(NFault::DivideError { native_pc: pc });
                };
                st.r[u.rd as usize] = if matches!(u.op, Op::DivQ | Op::IDivQ) {
                    q
                } else {
                    r
                };
            }
            Op::CmpF => {
                let (_, s) = alu::alu(
                    AluOp::Cmp,
                    u.w,
                    st.r[u.rs1 as usize],
                    b_src(st),
                    st.flags.cf(),
                );
                st.flags.set_status(s);
            }
            Op::TestF => {
                let (_, s) = alu::alu(
                    AluOp::Test,
                    u.w,
                    st.r[u.rs1 as usize],
                    b_src(st),
                    st.flags.cf(),
                );
                st.flags.set_status(s);
            }
            Op::IncF => {
                let (r, s) = alu::inc(u.w, st.r[u.rs1 as usize]);
                st.r[u.rd as usize] = r;
                st.flags.set_status_keep_cf(s);
            }
            Op::DecF => {
                let (r, s) = alu::dec(u.w, st.r[u.rs1 as usize]);
                st.r[u.rd as usize] = r;
                st.flags.set_status_keep_cf(s);
            }
            Op::Neg => {
                let a = st.r[u.rs1 as usize];
                if u.set_flags {
                    let (r, s) = alu::neg(u.w, a);
                    st.r[u.rd as usize] = r;
                    st.flags.set_status(s);
                } else {
                    st.r[u.rd as usize] = a.wrapping_neg();
                }
            }
            Op::Not => st.r[u.rd as usize] = !st.r[u.rs1 as usize],
            Op::Sext8 => st.r[u.rd as usize] = Width::W8.sext(st.r[u.rs1 as usize]),
            Op::Sext16 => st.r[u.rd as usize] = Width::W16.sext(st.r[u.rs1 as usize]),
            Op::Zext8 => st.r[u.rd as usize] = st.r[u.rs1 as usize] & 0xff,
            Op::Zext16 => st.r[u.rd as usize] = st.r[u.rs1 as usize] & 0xffff,
            Op::DepLo8 => {
                st.r[u.rd as usize] =
                    (st.r[u.rs1 as usize] & !0xff) | (st.r[u.rs2 as usize] & 0xff)
            }
            Op::DepHi8 => {
                st.r[u.rd as usize] =
                    (st.r[u.rs1 as usize] & !0xff00) | ((st.r[u.rs2 as usize] & 0xff) << 8)
            }
            Op::ExtHi8 => st.r[u.rd as usize] = (st.r[u.rs1 as usize] >> 8) & 0xff,
            Op::Dep16 => {
                st.r[u.rd as usize] =
                    (st.r[u.rs1 as usize] & 0xffff_0000) | (st.r[u.rs2 as usize] & 0xffff)
            }
            Op::Mov => st.r[u.rd as usize] = b_src(st),
            Op::Setcc(c) => st.r[u.rd as usize] = c.eval(st.flags) as u32,
            Op::Cmovcc(c) => {
                st.r[u.rd as usize] = if c.eval(st.flags) {
                    st.r[u.rs2 as usize]
                } else {
                    st.r[u.rs1 as usize]
                }
            }
            Op::Agen { scale } => {
                st.r[u.rd as usize] = st.r[u.rs1 as usize]
                    .wrapping_add(st.r[u.rs2 as usize].wrapping_mul(scale as u32))
                    .wrapping_add(u.imm as u32);
            }
            Op::Ld { w, indexed, scale } => {
                let mut addr = st.r[u.rs1 as usize].wrapping_add(u.imm as u32);
                if indexed {
                    addr = addr.wrapping_add(st.r[u.rs2 as usize].wrapping_mul(scale as u32));
                }
                mem_acc = Some(MemAccess {
                    addr,
                    width: w,
                    is_store: false,
                });
                st.r[u.rd as usize] = match w {
                    Width::W8 => mem.read_u8(addr) as u32,
                    Width::W16 => mem.read_u16(addr) as u32,
                    Width::W32 => mem.read_u32(addr),
                };
            }
            Op::St { w, indexed, scale } => {
                let mut addr = st.r[u.rs1 as usize].wrapping_add(u.imm as u32);
                if indexed {
                    addr = addr.wrapping_add(st.r[u.rs2 as usize].wrapping_mul(scale as u32));
                }
                mem_acc = Some(MemAccess {
                    addr,
                    width: w,
                    is_store: true,
                });
                let v = st.r[u.rd as usize];
                match w {
                    Width::W8 => mem.write_u8(addr, v as u8),
                    Width::W16 => mem.write_u16(addr, v as u16),
                    Width::W32 => mem.write_u32(addr, v),
                }
            }
            Op::Limm => st.r[u.rd as usize] = u.imm as u32,
            Op::Limmh => {
                st.r[u.rd as usize] =
                    (st.r[u.rd as usize] & 0xffff) | ((u.imm as u32 & 0xffff) << 16)
            }
            Op::Bcc(c) => {
                let taken = c.eval(st.flags);
                let target = fall.wrapping_add((u.imm as u32) << 1);
                if taken {
                    next = target;
                }
                branch = Some((
                    BranchKind::Conditional,
                    taken,
                    if taken { target } else { fall },
                ));
            }
            Op::Bnz | Op::Bz => {
                let v = st.r[u.rs1 as usize];
                let taken = (v != 0) == matches!(u.op, Op::Bnz);
                let target = fall.wrapping_add((u.imm as u32) << 1);
                if taken {
                    next = target;
                }
                branch = Some((
                    BranchKind::Conditional,
                    taken,
                    if taken { target } else { fall },
                ));
            }
            Op::RdDf => st.r[u.rd as usize] = st.flags.df() as u32,
            Op::Br => {
                next = fall.wrapping_add((u.imm as u32) << 1);
                branch = Some((BranchKind::Unconditional, true, next));
            }
            Op::Jr => {
                next = st.r[u.rs1 as usize];
                branch = Some((BranchKind::Indirect, true, next));
            }
            Op::VmExit(code) => {
                exit = Some(NExit::VmExit {
                    code,
                    arg: st.r[regs::VMM_ARG as usize],
                });
            }
            Op::Sys(SysOp::Nop) => {}
            Op::Sys(SysOp::Halt) => exit = Some(NExit::Halt),
            Op::Sys(SysOp::Trap) => {
                return Err(NFault::Trap {
                    code: u.imm as u32,
                    native_pc: pc,
                })
            }
            Op::Sys(SysOp::Cld) => st.flags.set(Flags::DF, false),
            Op::Sys(SysOp::Std) => st.flags.set(Flags::DF, true),
            Op::Xlt => {
                let Some(unit) = xlt.as_deref_mut() else {
                    return Err(NFault::NoXltUnit { native_pc: pc });
                };
                let src = st.f[u.rs1 as usize].to_le_bytes();
                let out = unit.xlt(&src, st.r[regs::X86_PC as usize]);
                let mut dst = [0u8; 16];
                let n = out.uop_bytes.len().min(16);
                dst[..n].copy_from_slice(&out.uop_bytes[..n]);
                st.f[u.rd as usize] = u128::from_le_bytes(dst);
                st.csr = out.csr;
            }
            Op::LdF => {
                let addr = st.r[u.rs1 as usize].wrapping_add(u.imm as u32);
                let mut buf = [0u8; 16];
                mem.read_bytes(addr, &mut buf);
                st.f[u.rd as usize] = u128::from_le_bytes(buf);
                mem_acc = Some(MemAccess {
                    addr,
                    width: Width::W32,
                    is_store: false,
                });
            }
            Op::StF => {
                let addr = st.r[u.rs1 as usize].wrapping_add(u.imm as u32);
                mem.write_bytes(addr, &st.f[u.rd as usize].to_le_bytes());
                mem_acc = Some(MemAccess {
                    addr,
                    width: Width::W32,
                    is_store: true,
                });
            }
            Op::MovCsr => st.r[u.rd as usize] = st.csr.to_bits(),
        }

        st.pc = next;
        Ok(NRetired {
            pc,
            len,
            uop: u,
            meta,
            credit,
            mem: mem_acc,
            branch,
            exit,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use cdvm_mem::GuestMem;
    use cdvm_x86::Cond;

    /// A flat code source over a byte vector based at 0x8000_0000.
    struct Flat(Vec<u8>);

    impl CodeSource for Flat {
        fn fetch_hw(&self, addr: u32) -> Option<u16> {
            let off = addr.checked_sub(0x8000_0000)? as usize;
            if off + 2 > self.0.len() {
                return None;
            }
            Some(u16::from_le_bytes([self.0[off], self.0[off + 1]]))
        }
    }

    fn run(uops: Vec<Uop>) -> (NativeState, GuestMem, Vec<NRetired>) {
        let code = Flat(encoding::encode(&uops));
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        let mut log = Vec::new();
        loop {
            let r = ex.step(&mut st, &mut mem, &code, None).expect("no fault");
            let done = r.exit.is_some();
            log.push(r);
            if done {
                break;
            }
            assert!(log.len() < 10_000, "runaway micro-op test");
        }
        (st, mem, log)
    }

    fn halt() -> Uop {
        Uop::alui(Op::Sys(SysOp::Halt), 0, 0, 0)
    }

    #[test]
    fn alu_and_limm() {
        let mut uops = Uop::limm32(regs::T0, 0x1234_5678);
        uops.push(Uop::alui(Op::Add, regs::EAX, regs::T0, 8));
        uops.push(halt());
        let (st, _, _) = run(uops);
        assert_eq!(st.r[regs::EAX as usize], 0x1234_5680);
    }

    #[test]
    fn flag_setting_matches_x86() {
        let uops = vec![
            Uop::alui(Op::Limm, regs::T0, 0, 0x7fff),
            Uop::alui(Op::Limmh, regs::T0, 0, 0x7fff),
            Uop::alui(Op::Limm, regs::T1, 0, 1),
            // 0x7fff7fff + 1... not overflow; test 0x7fffffff instead
            Uop::alui(Op::Limm, regs::T0, 0, -1),
            Uop::alui(Op::Limmh, regs::T0, 0, 0x7fff),
            Uop::alu(Op::Add, regs::T2, regs::T0, regs::T1).with_flags(Width::W32),
            halt(),
        ];
        let (st, _, _) = run(uops);
        assert_eq!(st.r[regs::T2 as usize], 0x8000_0000);
        assert!(st.flags.of() && st.flags.sf() && !st.flags.cf());
    }

    #[test]
    fn memory_round_trip_and_access_events() {
        let mut uops = Uop::limm32(regs::T0, 0x10_0000);
        uops.extend(Uop::limm32(regs::T1, 0xdead_beef));
        uops.push(Uop::st(Width::W32, regs::T1, regs::T0, 4));
        uops.push(Uop::ld(Width::W32, regs::T2, regs::T0, 4));
        uops.push(halt());
        let (st, mut mem, log) = run(uops);
        assert_eq!(st.r[regs::T2 as usize], 0xdead_beef);
        assert_eq!(mem.read_u32(0x10_0004), 0xdead_beef);
        let stores: Vec<_> = log.iter().filter_map(|r| r.mem).filter(|m| m.is_store).collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].addr, 0x10_0004);
    }

    #[test]
    fn branches_and_conditions() {
        // t0 = 3; loop: t0 -= 1 (flags); bne loop; halt
        let uops = vec![
            Uop::alui(Op::Limm, regs::T0, 0, 3),
            Uop::alui(Op::Sub, regs::T0, regs::T0, 1).with_flags(Width::W32),
            Uop {
                op: Op::Bcc(Cond::Ne),
                rd: 0,
                rs1: 0,
                rs2: regs::VMM_SP,
                imm: -4, // back over the 4-byte sub and the 4-byte bcc
                w: Width::W32,
                set_flags: false,
                fusible: false,
            },
            halt(),
        ];
        let (st, _, log) = run(uops);
        assert_eq!(st.r[regs::T0 as usize], 0);
        let takens = log
            .iter()
            .filter(|r| matches!(r.branch, Some((_, true, _))))
            .count();
        assert_eq!(takens, 2);
    }

    #[test]
    fn vmexit_carries_arg() {
        let mut uops = Uop::limm32(regs::VMM_ARG, 0x40_1000);
        uops.push(Uop::vmexit(ExitCode::TranslateMiss));
        let code = Flat(encoding::encode(&uops));
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        loop {
            let r = ex.step(&mut st, &mut mem, &code, None).unwrap();
            if let Some(NExit::VmExit { code, arg }) = r.exit {
                assert_eq!(code, ExitCode::TranslateMiss);
                assert_eq!(arg, 0x40_1000);
                break;
            }
        }
    }

    #[test]
    fn divide_fault_reported() {
        let uops = vec![
            Uop::alui(Op::Limm, regs::EAX, 0, 10),
            Uop::alui(Op::Limm, regs::EDX, 0, 0),
            Uop::alui(Op::Limm, regs::T0, 0, 0),
            Uop::alu(Op::DivQ, regs::T1, regs::T0, regs::VMM_SP),
            halt(),
        ];
        let code = Flat(encoding::encode(&uops));
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        let mut fault = None;
        for _ in 0..5 {
            match ex.step(&mut st, &mut mem, &code, None) {
                Ok(_) => {}
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(fault, Some(NFault::DivideError { .. })));
    }

    #[test]
    fn partial_register_deposits() {
        let uops = vec![
            Uop::alui(Op::Limm, regs::EAX, 0, 0x1234),
            Uop::alui(Op::Limmh, regs::EAX, 0, 0x5678),
            Uop::alui(Op::Limm, regs::T0, 0, 0xab),
            Uop::alu(Op::DepHi8, regs::EAX, regs::EAX, regs::T0),
            Uop::alu(Op::ExtHi8, regs::T1, regs::EAX, regs::VMM_SP),
            halt(),
        ];
        let (st, _, _) = run(uops);
        assert_eq!(st.r[regs::EAX as usize], 0x5678_ab34);
        assert_eq!(st.r[regs::T1 as usize], 0xab);
    }

    #[test]
    fn bad_fetch_faults() {
        let code = Flat(vec![]);
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        let err = ex.step(&mut st, &mut mem, &code, None).unwrap_err();
        assert_eq!(err, NFault::BadFetch { addr: 0x8000_0000 });
    }

    #[test]
    fn jr_is_indirect_branch() {
        let mut uops = Uop::limm32(regs::T0, 0x8000_0000);
        let jr_idx = uops.len();
        uops.push(Uop::alu(Op::Jr, 0, regs::T0, regs::VMM_SP));
        let code = Flat(encoding::encode(&uops));
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        for _ in 0..=jr_idx {
            ex.step(&mut st, &mut mem, &code, None).unwrap();
        }
        assert_eq!(st.pc, 0x8000_0000, "jr jumped back to the start");
    }

    #[test]
    fn step_returns_err_without_state_advance_on_trap() {
        let uops = vec![Uop {
            op: Op::Sys(SysOp::Trap),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 3,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        }];
        let code = Flat(encoding::encode(&uops));
        let mut st = NativeState::new();
        st.pc = 0x8000_0000;
        let mut mem = GuestMem::new();
        let mut ex = Executor::new();
        let e = ex.step(&mut st, &mut mem, &code, None).unwrap_err();
        assert_eq!(
            e,
            NFault::Trap {
                code: 3,
                native_pc: 0x8000_0000
            }
        );
        assert_eq!(st.pc, 0x8000_0000);
    }

    /// Flat code bytes at an arbitrary base address.
    struct Arena {
        base: u32,
        bytes: Vec<u8>,
    }

    impl CodeSource for Arena {
        fn fetch_hw(&self, addr: u32) -> Option<u16> {
            let off = addr.checked_sub(self.base)? as usize;
            let b = self.bytes.get(off..off + 2)?;
            Some(u16::from_le_bytes([b[0], b[1]]))
        }
    }

    /// Every cached run as `(entry, end_pc, micro-ops)`, read straight off
    /// the probe table, after checking the ordered index lists exactly
    /// the table's keys.
    fn live_runs(ex: &Executor) -> BTreeSet<(u32, u32, u32)> {
        let runs: BTreeSet<(u32, u32, u32)> = ex
            .runs
            .keys
            .iter()
            .zip(&ex.runs.vals)
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, r)| (k, r.end_pc, r.end - r.start))
            .collect();
        let keys: BTreeSet<u32> = runs.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(ex.runs.entries, keys, "index out of step with the table");
        assert_eq!(ex.runs.len, keys.len());
        runs
    }

    #[test]
    fn indexed_patch_invalidation_matches_a_full_sweep() {
        use cdvm_mem::Rng64;

        let nop = Uop {
            op: Op::Sys(SysOp::Nop),
            rd: 0,
            rs1: 0,
            rs2: regs::VMM_SP,
            imm: 0,
            w: Width::W32,
            set_flags: false,
            fusible: false,
        };
        let wide = Uop::alui(Op::Add, 1, 2, 100);
        let exit = Uop::vmexit(ExitCode::TranslateMiss);
        assert_eq!((nop.encoded_len(), wide.encoded_len()), (2, 4));

        let mut rng = Rng64::new(0x5eed_2006);
        let (mut capped, mut shared_end, mut dropped_at_reach) = (0, 0, 0);
        // Low bases make the lookup window saturate at address 0.
        for base in [0x8000_0000u32, 0x0010_0000, 0x40, 2] {
            for _ in 0..6 {
                // Straight-line stretches of mixed 2- and 4-byte micro-ops
                // ending in exits, plus one exit-free stretch of 4-byte
                // micro-ops long enough for runs entered in it to hit the
                // MAX_RUN cap and span exactly MAX_RUN_BYTES.
                let mut uops = Vec::new();
                let long_at = rng.range_usize(0, 400);
                while uops.len() < 900 {
                    if uops.len() == long_at {
                        uops.extend(std::iter::repeat_n(wide, MAX_RUN + 40));
                    }
                    uops.push(match rng.below(12) {
                        0 => exit,
                        1..=5 => wide,
                        _ => nop,
                    });
                }
                let code = Arena {
                    base,
                    bytes: encoding::encode(&uops),
                };
                let end = base + code.bytes.len() as u32;
                let mut starts = Vec::with_capacity(uops.len());
                let mut pc = base;
                for u in &uops {
                    starts.push(pc);
                    pc += u32::from(u.encoded_len());
                }

                let mut ex = Executor::new();
                let refill = |ex: &mut Executor, rng: &mut Rng64, n: usize| {
                    for _ in 0..n {
                        let pc = starts[rng.range_usize(0, starts.len())];
                        if ex.runs.get(pc).is_none() {
                            ex.build_run(&code, pc).expect("decodable run");
                        }
                    }
                };
                refill(&mut ex, &mut rng, 300);
                for _ in 0..40 {
                    let before = live_runs(&ex);
                    let list: Vec<(u32, u32, u32)> = before.iter().copied().collect();
                    capped += list.iter().filter(|r| r.2 == MAX_RUN as u32).count();
                    shared_end += list.windows(2).filter(|w| w[0].1 == w[1].1).count();
                    let cluster: Vec<u32> = (0..rng.range_usize(1, 7))
                        .map(|_| {
                            let (k, e, _) = list[rng.range_usize(0, list.len())];
                            match rng.below(8) {
                                // A run's first and last byte, and the
                                // bytes just outside it.
                                0 => k,
                                1 => k.wrapping_sub(1),
                                2 => e - 1,
                                3 => e,
                                // The farthest byte a run can reach.
                                4 => k + MAX_RUN_BYTES - 1,
                                // Arena edges.
                                5 => [base, base - 1, end - 1, end][rng.range_usize(0, 4)],
                                _ => rng.range_u32(base - 2, end + 2),
                            }
                        })
                        .collect();
                    let survivors: BTreeSet<(u32, u32, u32)> = before
                        .iter()
                        .filter(|&&(k, e, _)| !cluster.iter().any(|&a| k <= a && a < e))
                        .copied()
                        .collect();
                    dropped_at_reach += before
                        .iter()
                        .filter(|&&(k, e, _)| e - k == MAX_RUN_BYTES)
                        .filter(|&&(k, _, _)| cluster.contains(&(k + MAX_RUN_BYTES - 1)))
                        .count();
                    ex.invalidate_all_at(&cluster);
                    assert_eq!(live_runs(&ex), survivors, "patch cluster {cluster:x?}");
                    refill(&mut ex, &mut rng, 20);
                }
                ex.invalidate();
                assert!(live_runs(&ex).is_empty());
            }
        }
        assert!(capped > 0, "no run hit the MAX_RUN cap");
        assert!(shared_end > 0, "no two runs shared an end");
        assert!(dropped_at_reach > 0, "no patch landed on a run's farthest byte");
    }

    #[test]
    fn patch_churn_keeps_the_arena_bounded_and_runs_intact() {
        use cdvm_mem::Rng64;
        use std::collections::BTreeMap;

        let nop = Uop::alui(Op::Sys(SysOp::Nop), 0, 0, 0);
        let wide = Uop::alui(Op::Add, 1, 2, 100);
        let exit = Uop::vmexit(ExitCode::TranslateMiss);
        let mut rng = Rng64::new(0xa4e4_2006);
        let uops: Vec<Uop> = (0..600)
            .map(|_| match rng.below(10) {
                0 => exit,
                1..=5 => wide,
                _ => nop,
            })
            .collect();
        let base = 0x8000_0000u32;
        let code = Arena {
            base,
            bytes: encoding::encode(&uops),
        };
        let end = base + code.bytes.len() as u32;
        let mut starts = Vec::with_capacity(uops.len());
        let mut pc = base;
        for u in &uops {
            starts.push(pc);
            pc += u32::from(u.encoded_len());
        }
        // What a fresh executor decodes at each entry.
        let mut fresh: BTreeMap<u32, Vec<Decoded>> = BTreeMap::new();

        let mut ex = Executor::new();
        let mut compactions = 0;
        for step in 0..1500 {
            if rng.bool(0.75) {
                let pc = starts[rng.range_usize(0, starts.len())];
                if ex.runs.get(pc).is_none() {
                    ex.build_run(&code, pc).expect("decodable run");
                }
            } else {
                let stored = ex.cached_uops();
                let cluster: Vec<u32> = (0..rng.range_usize(1, 4))
                    .map(|_| rng.range_u32(base, end))
                    .collect();
                ex.invalidate_all_at(&cluster);
                compactions += usize::from(ex.cached_uops() < stored);
            }
            let live = live_runs(&ex);
            let live_uops: usize = live.iter().map(|r| r.2 as usize).sum();
            assert_eq!(ex.runs.uops, live_uops, "live count after step {step}");
            assert!(
                ex.cached_uops() <= 2 * live_uops + COMPACT_FLOOR,
                "step {step}: {} micro-ops stored for {live_uops} live",
                ex.cached_uops()
            );
            for &(entry, _, _) in &live {
                let want = fresh.entry(entry).or_insert_with(|| {
                    let mut ex = Executor::new();
                    ex.build_run(&code, entry).expect("decodable run");
                    ex.dense
                });
                let run = ex.runs.get(entry).expect("live run");
                assert!(
                    ex.dense[run.start as usize..run.end as usize] == want[..],
                    "run at {entry:#x} after step {step}"
                );
            }
        }
        assert!(compactions > 0, "the arena was never rebuilt");
    }
}
