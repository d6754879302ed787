//! The x86 instruction decoder.
//!
//! Implements the classic IA-32 variable-length decode algorithm: prefix
//! scan, one/two-byte opcode dispatch, ModRM/SIB/displacement/immediate
//! parsing. The same tables drive the software BBT, the dual-mode frontend
//! decoder model and the `XLTx86` backend unit — in silicon these would
//! share PLAs; here they share this module.

use cdvm_mem::{fib_slot, Memory};

use crate::{
    AluOp, Cond, Gpr, Inst, MemRef, Mnemonic, Operand, Rm, ShiftCount, ShiftOp, StrOp, Width,
};

/// Architectural maximum instruction length in bytes.
pub const MAX_INST_LEN: usize = 15;

/// Reasons a byte sequence fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes before the instruction was complete.
    Truncated,
    /// Unimplemented or invalid one-byte opcode.
    Unknown(u8),
    /// Unimplemented or invalid `0x0F`-escaped opcode.
    UnknownExt(u8),
    /// Unimplemented group extension (`opcode /ext`).
    UnknownGroup {
        /// The group opcode byte.
        opcode: u8,
        /// The ModRM `reg` extension field.
        ext: u8,
    },
    /// More than [`MAX_INST_LEN`] bytes of prefixes and payload.
    TooLong,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction truncated"),
            DecodeError::Unknown(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::UnknownExt(op) => write!(f, "unknown opcode 0f {op:#04x}"),
            DecodeError::UnknownGroup { opcode, ext } => {
                write!(f, "unknown group op {opcode:#04x} /{ext}")
            }
            DecodeError::TooLong => write!(f, "instruction exceeds 15 bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        if self.pos > MAX_INST_LEN {
            return Err(DecodeError::TooLong);
        }
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        // One bounds check when the whole word fits in the window and under
        // the length limit; the byte-at-a-time fallback preserves the exact
        // Truncated/TooLong precedence at the edges.
        if self.pos + 2 <= MAX_INST_LEN {
            if let Some(s) = self.bytes.get(self.pos..self.pos + 2) {
                self.pos += 2;
                return Ok(u16::from_le_bytes([s[0], s[1]]));
            }
        }
        Ok(u16::from(self.u8()?) | (u16::from(self.u8()?) << 8))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        if self.pos + 4 <= MAX_INST_LEN {
            if let Some(s) = self.bytes.get(self.pos..self.pos + 4) {
                self.pos += 4;
                return Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]));
            }
        }
        Ok(u32::from(self.u16()?) | (u32::from(self.u16()?) << 16))
    }

    fn imm(&mut self, w: Width) -> Result<i32, DecodeError> {
        Ok(match w {
            Width::W8 => self.u8()? as i8 as i32,
            Width::W16 => self.u16()? as i16 as i32,
            Width::W32 => self.u32()? as i32,
        })
    }
}

/// ModRM decode result: either a register or a memory operand, plus the
/// `reg` field (register number or group extension).
struct ModRm {
    reg: u8,
    rm: Rm,
}

impl ModRm {
    /// The `reg` field read as a register.
    fn reg(&self) -> Gpr {
        Gpr::from_num(self.reg)
    }
}

fn modrm(r: &mut Reader<'_>) -> Result<ModRm, DecodeError> {
    let b = r.u8()?;
    let md = b >> 6;
    let reg = (b >> 3) & 7;
    let rm = b & 7;

    if md == 3 {
        return Ok(ModRm {
            reg,
            rm: Rm::Reg(Gpr::from_num(rm)),
        });
    }

    let mut mem = MemRef {
        scale: 1,
        ..MemRef::default()
    };

    if rm == 4 {
        // SIB byte.
        let sib = r.u8()?;
        let scale = 1u8 << (sib >> 6);
        let index = (sib >> 3) & 7;
        let base = sib & 7;
        if index != 4 {
            mem.index = Some(Gpr::from_num(index));
            mem.scale = scale;
        }
        if base == 5 && md == 0 {
            mem.disp = r.u32()? as i32;
            return Ok(ModRm {
                reg,
                rm: Rm::Mem(mem),
            });
        }
        mem.base = Some(Gpr::from_num(base));
    } else if rm == 5 && md == 0 {
        mem.disp = r.u32()? as i32;
        return Ok(ModRm {
            reg,
            rm: Rm::Mem(mem),
        });
    } else {
        mem.base = Some(Gpr::from_num(rm));
    }

    match md {
        1 => mem.disp = r.u8()? as i8 as i32,
        2 => mem.disp = r.u32()? as i32,
        _ => {}
    }
    Ok(ModRm {
        reg,
        rm: Rm::Mem(mem),
    })
}

fn inst(mnemonic: Mnemonic, width: Width) -> Result<Inst, DecodeError> {
    Ok(Inst::new(mnemonic, width, 0))
}

/// Decodes one instruction from `bytes`, which must start at the
/// instruction's first byte; `pc` is the instruction's address (used to
/// resolve relative branch targets to absolute ones).
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated input, opcodes outside the
/// implemented subset, or over-long instructions.
pub fn decode(bytes: &[u8], pc: u32) -> Result<Inst, DecodeError> {
    let mut r = Reader::new(bytes);
    let mut wide = Width::W32;
    let mut rep = false;

    // Prefix scan.
    let opcode = loop {
        let b = r.u8()?;
        match b {
            0x66 => wide = Width::W16,
            0xf2 | 0xf3 => rep = true,
            0x2e | 0x3e | 0x26 | 0x36 | 0x64 | 0x65 | 0xf0 => {}
            _ => break b,
        }
    };

    let mut out = decode_opcode(&mut r, opcode, wide, rep, pc)?;
    // The subset has no 16-bit stack and no 16-bit EIP: under `66`, IA-32
    // would move ESP by 2, read a 16-bit immediate or displacement, or
    // truncate EIP, so these forms are refused.
    let stack = matches!(
        out.mnemonic,
        Mnemonic::Push { .. }
            | Mnemonic::Pop { .. }
            | Mnemonic::Pusha
            | Mnemonic::Popa
            | Mnemonic::Enter { .. }
            | Mnemonic::Leave
    );
    if wide == Width::W16 && (stack || out.mnemonic.is_cti()) {
        return Err(DecodeError::Unknown(opcode));
    }
    out.len = r.pos as u8;
    Ok(out)
}

/// The absolute target of a relative branch whose displacement of width
/// `w` ends the instruction.
fn rel_target(r: &mut Reader<'_>, w: Width, pc: u32) -> Result<u32, DecodeError> {
    let rel = r.imm(w)?;
    Ok(pc.wrapping_add(r.pos as u32).wrapping_add(rel as u32))
}

fn decode_opcode(
    r: &mut Reader<'_>,
    opcode: u8,
    wide: Width,
    rep: bool,
    pc: u32,
) -> Result<Inst, DecodeError> {
    // The classic ALU block: 0x00-0x3d, 8 ops x 6 forms. Bit 0 selects
    // the width, bit 2 the accumulator-immediate forms and bit 1 the
    // direction of the ModRM forms.
    if opcode < 0x40 && (opcode & 7) < 6 {
        let op = AluOp::from_group_num(opcode >> 3);
        let w = if opcode & 1 == 0 { Width::W8 } else { wide };
        let (dst, src) = if opcode & 4 != 0 {
            (Rm::Reg(Gpr::Eax), Operand::Imm(r.imm(w)?))
        } else {
            let mr = modrm(r)?;
            if opcode & 2 == 0 {
                (mr.rm, Operand::Reg(mr.reg()))
            } else {
                (Rm::Reg(mr.reg()), mr.rm.into())
            }
        };
        return inst(Mnemonic::Alu { op, dst, src }, w);
    }

    // Byte form for even opcodes of the paired encodings.
    let w = if opcode & 1 == 0 { Width::W8 } else { wide };
    match opcode {
        0x0f => decode_0f(r, wide, pc),

        0x40..=0x47 => inst(
            Mnemonic::Inc {
                dst: Rm::Reg(Gpr::from_num(opcode - 0x40)),
            },
            wide,
        ),
        0x48..=0x4f => inst(
            Mnemonic::Dec {
                dst: Rm::Reg(Gpr::from_num(opcode - 0x48)),
            },
            wide,
        ),
        0x50..=0x57 => inst(
            Mnemonic::Push {
                src: Operand::Reg(Gpr::from_num(opcode - 0x50)),
            },
            Width::W32,
        ),
        0x58..=0x5f => inst(
            Mnemonic::Pop {
                dst: Rm::Reg(Gpr::from_num(opcode - 0x58)),
            },
            Width::W32,
        ),
        0x60 => inst(Mnemonic::Pusha, Width::W32),
        0x61 => inst(Mnemonic::Popa, Width::W32),
        0x68 | 0x6a => {
            let imm = r.imm(if opcode == 0x68 { Width::W32 } else { Width::W8 })?;
            inst(
                Mnemonic::Push {
                    src: Operand::Imm(imm),
                },
                Width::W32,
            )
        }
        0x69 | 0x6b => {
            let mr = modrm(r)?;
            let imm = r.imm(if opcode == 0x69 { wide } else { Width::W8 })?;
            inst(
                Mnemonic::ImulImm {
                    dst: mr.reg(),
                    src: mr.rm,
                    imm,
                },
                wide,
            )
        }
        0x70..=0x7f => {
            let cond = Cond::from_num(opcode - 0x70);
            let target = rel_target(r, Width::W8, pc)?;
            inst(Mnemonic::Jcc { cond, target }, Width::W32)
        }
        0x80 | 0x81 | 0x83 => {
            let w = if opcode == 0x80 { Width::W8 } else { wide };
            let mr = modrm(r)?;
            let imm = r.imm(if opcode == 0x81 { w } else { Width::W8 })?;
            let op = AluOp::from_group_num(mr.reg);
            inst(
                Mnemonic::Alu {
                    op,
                    dst: mr.rm,
                    src: Operand::Imm(imm),
                },
                w,
            )
        }
        0x84 | 0x85 => {
            let mr = modrm(r)?;
            inst(
                Mnemonic::Alu {
                    op: AluOp::Test,
                    dst: mr.rm,
                    src: Operand::Reg(mr.reg()),
                },
                w,
            )
        }
        0x86 | 0x87 => {
            let mr = modrm(r)?;
            inst(
                Mnemonic::Xchg {
                    dst: mr.rm,
                    src: mr.reg(),
                },
                w,
            )
        }
        0x88 | 0x89 => {
            let mr = modrm(r)?;
            inst(
                Mnemonic::Mov {
                    dst: mr.rm,
                    src: Operand::Reg(mr.reg()),
                },
                w,
            )
        }
        0x8a | 0x8b => {
            let mr = modrm(r)?;
            inst(
                Mnemonic::Mov {
                    dst: Rm::Reg(mr.reg()),
                    src: mr.rm.into(),
                },
                w,
            )
        }
        0x8d => {
            let mr = modrm(r)?;
            match mr.rm {
                Rm::Mem(addr) => inst(
                    Mnemonic::Lea {
                        dst: mr.reg(),
                        addr,
                    },
                    wide,
                ),
                Rm::Reg(_) => Err(DecodeError::Unknown(opcode)),
            }
        }
        0x8f => {
            let mr = modrm(r)?;
            if mr.reg != 0 {
                return Err(DecodeError::UnknownGroup { opcode, ext: mr.reg });
            }
            inst(Mnemonic::Pop { dst: mr.rm }, Width::W32)
        }
        0x90 => inst(Mnemonic::Nop, Width::W32),
        0x91..=0x97 => inst(
            Mnemonic::Xchg {
                dst: Rm::Reg(Gpr::Eax),
                src: Gpr::from_num(opcode - 0x90),
            },
            wide,
        ),
        0x98 => inst(Mnemonic::Cwde, wide),
        0x99 => inst(Mnemonic::Cdq, wide),
        0xa4 | 0xa5 => inst(Mnemonic::Str { op: StrOp::Movs, rep }, w),
        0xa8 | 0xa9 => {
            let imm = r.imm(w)?;
            inst(
                Mnemonic::Alu {
                    op: AluOp::Test,
                    dst: Rm::Reg(Gpr::Eax),
                    src: Operand::Imm(imm),
                },
                w,
            )
        }
        0xaa | 0xab => inst(Mnemonic::Str { op: StrOp::Stos, rep }, w),
        0xac | 0xad => inst(Mnemonic::Str { op: StrOp::Lods, rep }, w),
        0xb0..=0xbf => {
            let w = if opcode < 0xb8 { Width::W8 } else { wide };
            let imm = r.imm(w)?;
            inst(
                Mnemonic::Mov {
                    dst: Rm::Reg(Gpr::from_num(opcode & 7)),
                    src: Operand::Imm(imm),
                },
                w,
            )
        }
        0xc0 | 0xc1 | 0xd0..=0xd3 => {
            let mr = modrm(r)?;
            let op = ShiftOp::from_group_num(mr.reg)
                .ok_or(DecodeError::UnknownGroup { opcode, ext: mr.reg })?;
            let count = match opcode {
                0xc0 | 0xc1 => ShiftCount::Imm(r.u8()?),
                0xd0 | 0xd1 => ShiftCount::Imm(1),
                _ => ShiftCount::Cl,
            };
            inst(
                Mnemonic::Shift {
                    op,
                    dst: mr.rm,
                    count,
                },
                w,
            )
        }
        0xc2 => {
            let pop = r.u16()?;
            inst(Mnemonic::Ret { pop }, Width::W32)
        }
        0xc3 => inst(Mnemonic::Ret { pop: 0 }, Width::W32),
        0xc6 | 0xc7 => {
            let mr = modrm(r)?;
            if mr.reg != 0 {
                return Err(DecodeError::UnknownGroup { opcode, ext: mr.reg });
            }
            let imm = r.imm(w)?;
            inst(
                Mnemonic::Mov {
                    dst: mr.rm,
                    src: Operand::Imm(imm),
                },
                w,
            )
        }
        0xc8 => {
            let frame = r.u16()?;
            let nesting = r.u8()?;
            inst(Mnemonic::Enter { frame, nesting }, Width::W32)
        }
        0xc9 => inst(Mnemonic::Leave, Width::W32),
        0xcc => inst(Mnemonic::Int3, Width::W32),
        0xe2 => {
            let target = rel_target(r, Width::W8, pc)?;
            inst(Mnemonic::Loop { target }, Width::W32)
        }
        0xe3 => {
            let target = rel_target(r, Width::W8, pc)?;
            inst(Mnemonic::Jecxz { target }, Width::W32)
        }
        0xe8 => {
            let target = rel_target(r, Width::W32, pc)?;
            inst(Mnemonic::Call { target }, Width::W32)
        }
        0xe9 | 0xeb => {
            let target = rel_target(r, if opcode == 0xe9 { Width::W32 } else { Width::W8 }, pc)?;
            inst(Mnemonic::Jmp { target }, Width::W32)
        }
        0xf4 => inst(Mnemonic::Hlt, Width::W32),
        0xf6 | 0xf7 => {
            let mr = modrm(r)?;
            let src = mr.rm;
            let m = match mr.reg {
                0 => Mnemonic::Alu {
                    op: AluOp::Test,
                    dst: src,
                    src: Operand::Imm(r.imm(w)?),
                },
                2 => Mnemonic::Not { dst: src },
                3 => Mnemonic::Neg { dst: src },
                4 => Mnemonic::Mul { src },
                5 => Mnemonic::ImulWide { src },
                6 => Mnemonic::Div { src },
                7 => Mnemonic::Idiv { src },
                ext => return Err(DecodeError::UnknownGroup { opcode, ext }),
            };
            inst(m, w)
        }
        0xfc => inst(Mnemonic::Cld, Width::W32),
        0xfd => inst(Mnemonic::Std, Width::W32),
        0xfe => {
            let mr = modrm(r)?;
            match mr.reg {
                0 => inst(Mnemonic::Inc { dst: mr.rm }, Width::W8),
                1 => inst(Mnemonic::Dec { dst: mr.rm }, Width::W8),
                ext => Err(DecodeError::UnknownGroup { opcode, ext }),
            }
        }
        0xff => {
            let mr = modrm(r)?;
            match mr.reg {
                0 => inst(Mnemonic::Inc { dst: mr.rm }, wide),
                1 => inst(Mnemonic::Dec { dst: mr.rm }, wide),
                2 => inst(Mnemonic::CallInd { target: mr.rm }, Width::W32),
                4 => inst(Mnemonic::JmpInd { target: mr.rm }, Width::W32),
                6 => inst(Mnemonic::Push { src: mr.rm.into() }, Width::W32),
                ext => Err(DecodeError::UnknownGroup { opcode, ext }),
            }
        }
        op => Err(DecodeError::Unknown(op)),
    }
}

fn decode_0f(r: &mut Reader<'_>, wide: Width, pc: u32) -> Result<Inst, DecodeError> {
    let op2 = r.u8()?;
    match op2 {
        0x1f => {
            // Multi-byte NOP: consumes a ModRM (and its addressing bytes).
            let _ = modrm(r)?;
            inst(Mnemonic::Nop, Width::W32)
        }
        0x40..=0x4f => {
            let cond = Cond::from_num(op2 - 0x40);
            let mr = modrm(r)?;
            inst(
                Mnemonic::Cmovcc {
                    cond,
                    dst: mr.reg(),
                    src: mr.rm,
                },
                wide,
            )
        }
        0x80..=0x8f => {
            let cond = Cond::from_num(op2 - 0x80);
            let target = rel_target(r, Width::W32, pc)?;
            inst(Mnemonic::Jcc { cond, target }, Width::W32)
        }
        0x90..=0x9f => {
            let cond = Cond::from_num(op2 - 0x90);
            let mr = modrm(r)?;
            inst(Mnemonic::Setcc { cond, dst: mr.rm }, Width::W8)
        }
        0xa2 => inst(Mnemonic::Cpuid, Width::W32),
        0xaf => {
            let mr = modrm(r)?;
            inst(
                Mnemonic::Imul {
                    dst: mr.reg(),
                    src: mr.rm,
                },
                wide,
            )
        }
        0xb6 | 0xb7 | 0xbe | 0xbf => {
            let from = if op2 & 1 == 0 { Width::W8 } else { Width::W16 };
            let mr = modrm(r)?;
            let (dst, src) = (mr.reg(), mr.rm);
            let m = if op2 < 0xbe {
                Mnemonic::Movzx { from, dst, src }
            } else {
                Mnemonic::Movsx { from, dst, src }
            };
            inst(m, wide)
        }
        op => Err(DecodeError::UnknownExt(op)),
    }
}

/// Sequential-successor link value meaning "not discovered yet".
const NO_SEQ: u32 = u32::MAX;
/// Initial slot count of the decoded-cache table (power of two).
const DECODER_SLOTS: usize = 1024;

/// A decoder with a flat decoded-instruction cache.
///
/// Decoded instructions live in an arena (`Vec<Inst>` laid out in discovery
/// order, i.e. the decoded basic blocks of the running program) addressed
/// through a power-of-two open-addressing table keyed by PC, with two fast
/// paths layered on top:
///
/// * every arena entry carries a *sequential link* to the instruction that
///   textually follows it, and a one-entry hint remembers the instruction
///   just served — so straight-line interpretation follows a pointer chain
///   instead of probing the table per PC;
/// * instruction fetch uses [`Memory::read_slice`] to borrow the bytes in
///   place, falling back to a copied window only across page boundaries.
///
/// Invalidation is generation-based: [`Decoder::clear`] bumps a 32-bit
/// generation tag instead of scrubbing the table (O(1)); slots with a
/// mismatched tag act as tombstones and are reclaimed on insert or rehash.
/// If the tag counter wraps, the table is scrubbed for real and the counter
/// restarts — same semantics, different clear cost. Self-modifying code is
/// caught by comparing [`Memory::code_version`] on every request against
/// the version observed last time; each decoded range is reported back via
/// [`Memory::note_code_fetch`] so the memory knows which stores to flag.
#[derive(Debug)]
pub struct Decoder {
    keys: Vec<u32>,
    /// Generation tag per slot; `0` = empty, current generation = live,
    /// anything else = tombstone.
    tags: Vec<u32>,
    idxs: Vec<u32>,
    arena: Vec<Inst>,
    seq: Vec<u32>,
    /// Memoized cracked-micro-op count per arena entry (`0` = not yet
    /// computed). Arena-parallel, so it shares the arena's lifetime:
    /// [`Decoder::clear`] (SMC, flushes, generation wrap) drops both
    /// together — no separate invalidation path exists or is needed.
    uops: Vec<u32>,
    /// Fallback cell for [`Decoder::uop_memo`] with an out-of-range
    /// index (never taken for indices returned by
    /// [`Decoder::decode_at_indexed`] in the same generation).
    uop_scratch: u32,
    generation: u32,
    /// Slots holding any key, live or stale; drives the growth policy.
    occupied: usize,
    /// Live entries — distinct PCs decoded since the last clear.
    footprint: usize,
    /// [`Memory::code_version`] observed at the previous request.
    mem_version: u64,
    /// `(expected next PC, arena index of the predecessor)` hint.
    last: Option<(u32, u32)>,
    decodes: u64,
    cache_hits: u64,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder {
            keys: vec![0; DECODER_SLOTS],
            tags: vec![0; DECODER_SLOTS],
            idxs: vec![0; DECODER_SLOTS],
            arena: Vec::new(),
            seq: Vec::new(),
            uops: Vec::new(),
            uop_scratch: 0,
            generation: 1,
            occupied: 0,
            footprint: 0,
            mem_version: 0,
            last: None,
            decodes: 0,
            cache_hits: 0,
        }
    }
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn find(&self, pc: u32) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut i = fib_slot(pc, mask);
        loop {
            let t = self.tags[i];
            if t == 0 {
                return None;
            }
            if t == self.generation && self.keys[i] == pc {
                return Some(self.idxs[i]);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, pc: u32, idx: u32) {
        if (self.occupied + 1) * 4 > self.keys.len() * 3 {
            self.rehash();
        }
        let mask = self.keys.len() - 1;
        let mut i = fib_slot(pc, mask);
        let mut grave = None;
        loop {
            let t = self.tags[i];
            if t == 0 {
                // Prefer reclaiming the first tombstone on the probe path.
                let at = match grave {
                    Some(g) => g,
                    None => {
                        self.occupied += 1;
                        i
                    }
                };
                self.keys[at] = pc;
                self.tags[at] = self.generation;
                self.idxs[at] = idx;
                self.footprint += 1;
                return;
            }
            if t == self.generation && self.keys[i] == pc {
                self.idxs[i] = idx;
                return;
            }
            if t != self.generation && grave.is_none() {
                grave = Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-places live entries into a table big enough for them, dropping
    /// tombstones accumulated by generation bumps.
    fn rehash(&mut self) {
        let mut cap = self.keys.len();
        while (self.footprint + 1) * 4 > cap * 3 {
            cap *= 2;
        }
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; cap]);
        let old_idxs = std::mem::replace(&mut self.idxs, vec![0; cap]);
        self.occupied = 0;
        let mask = cap - 1;
        for (s, t) in old_tags.iter().copied().enumerate() {
            if t != self.generation {
                continue;
            }
            let mut i = fib_slot(old_keys[s], mask);
            while self.tags[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = old_keys[s];
            self.tags[i] = self.generation;
            self.idxs[i] = old_idxs[s];
            self.occupied += 1;
        }
    }

    /// Records `idx` as the sequential successor of the previously served
    /// instruction when `pc` continues it.
    #[inline]
    fn link_last(&mut self, pc: u32, idx: u32) {
        if let Some((expect, prev)) = self.last {
            if expect == pc {
                self.seq[prev as usize] = idx;
            }
        }
    }

    /// Decodes the instruction at `pc`, fetching bytes from `mem`.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] from [`decode`].
    #[inline]
    pub fn decode_at(&mut self, mem: &mut impl Memory, pc: u32) -> Result<Inst, DecodeError> {
        self.decode_at_indexed(mem, pc).map(|(i, _)| i)
    }

    /// Decodes the instruction at `pc` and also returns its arena index.
    /// The index identifies the cached decode for side-table annotation
    /// (see [`Decoder::uop_memo`]) and stays valid until the next
    /// [`Decoder::clear`].
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] from [`decode`].
    #[inline]
    pub fn decode_at_indexed(
        &mut self,
        mem: &mut impl Memory,
        pc: u32,
    ) -> Result<(Inst, u32), DecodeError> {
        self.decodes += 1;
        let v = mem.code_version();
        if v != self.mem_version {
            // A store hit a page we decoded from: drop everything.
            self.mem_version = v;
            self.clear();
        }
        if let Some((expect, prev)) = self.last {
            if expect == pc {
                let nxt = self.seq[prev as usize];
                if nxt != NO_SEQ {
                    self.cache_hits += 1;
                    let i = self.arena[nxt as usize];
                    self.last = Some((pc.wrapping_add(u32::from(i.len)), nxt));
                    return Ok((i, nxt));
                }
            }
        }
        if let Some(idx) = self.find(pc) {
            self.cache_hits += 1;
            self.link_last(pc, idx);
            let i = self.arena[idx as usize];
            self.last = Some((pc.wrapping_add(u32::from(i.len)), idx));
            return Ok((i, idx));
        }
        let i = match mem.read_slice(pc, MAX_INST_LEN + 1) {
            Some(window) => decode(window, pc),
            None => {
                let mut window = [0u8; MAX_INST_LEN + 1];
                mem.read_bytes(pc, &mut window);
                decode(&window, pc)
            }
        }?;
        mem.note_code_fetch(pc, u32::from(i.len));
        let idx = self.arena.len() as u32;
        self.arena.push(i);
        self.seq.push(NO_SEQ);
        self.uops.push(0);
        self.insert(pc, idx);
        self.link_last(pc, idx);
        self.last = Some((pc.wrapping_add(u32::from(i.len)), idx));
        Ok((i, idx))
    }

    /// The memoized cracked-micro-op count slot for arena index `idx`
    /// (`0` = not yet computed; counts are always clamped to at least 1
    /// by the writer, so 0 is unambiguous). Straight-line regions share
    /// the arena's generation tags: one fill per decoded instruction per
    /// generation replaces the per-execution map probe, and SMC/flush
    /// invalidation falls out of [`Decoder::clear`] dropping the arena.
    #[inline]
    pub fn uop_memo(&mut self, idx: u32) -> &mut u32 {
        match self.uops.get_mut(idx as usize) {
            Some(slot) => slot,
            None => {
                self.uop_scratch = 0;
                &mut self.uop_scratch
            }
        }
    }

    /// Total decode requests served.
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// Requests served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Number of distinct PCs decoded — the *static* instruction footprint
    /// touched so far (the paper's M_BBT measurement for this engine).
    pub fn static_footprint(&self) -> usize {
        self.footprint
    }

    /// Drops all cached decodes (O(1): bumps the invalidation generation;
    /// the table is only scrubbed if the 32-bit tag space wraps).
    pub fn clear(&mut self) {
        self.arena.clear();
        self.seq.clear();
        self.uops.clear();
        self.footprint = 0;
        self.last = None;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.tags.fill(0);
            self.occupied = 0;
            self.generation = 1;
        }
    }

    /// Current invalidation generation (test scaffolding).
    #[doc(hidden)]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Test scaffolding: jumps the invalidation generation forward so the
    /// wrap-around path is reachable without four billion clears. Must only
    /// move the counter forward, never back onto a tag still in the table.
    #[doc(hidden)]
    pub fn force_generation(&mut self, generation: u32) {
        self.generation = generation;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn d(bytes: &[u8]) -> Inst {
        decode(bytes, 0x1000).expect("decodes")
    }

    #[test]
    fn mov_reg_imm32() {
        let i = d(&[0xb8, 0x78, 0x56, 0x34, 0x12]); // mov eax, 0x12345678
        assert_eq!(
            i.mnemonic,
            Mnemonic::Mov {
                dst: Rm::Reg(Gpr::Eax),
                src: Operand::Imm(0x1234_5678)
            }
        );
        assert_eq!(i.len, 5);
    }

    #[test]
    fn alu_rm_r_with_sib() {
        // add [eax+ecx*4+8], ebx
        let i = d(&[0x01, 0x5c, 0x88, 0x08]);
        assert_eq!(
            i.mnemonic,
            Mnemonic::Alu {
                op: AluOp::Add,
                dst: Rm::Mem(MemRef::base_index(Gpr::Eax, Gpr::Ecx, 4, 8)),
                src: Operand::Reg(Gpr::Ebx)
            }
        );
        assert_eq!(i.len, 4);
    }

    #[test]
    fn alu_group1_imm8_sext() {
        // sub esp, 0x10 (83 /5)
        let i = d(&[0x83, 0xec, 0x10]);
        assert_eq!(
            i.mnemonic,
            Mnemonic::Alu {
                op: AluOp::Sub,
                dst: Rm::Reg(Gpr::Esp),
                src: Operand::Imm(0x10)
            }
        );
        // and with negative imm8
        let i = d(&[0x83, 0xc0, 0xff]); // add eax, -1
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Alu {
                src: Operand::Imm(-1),
                ..
            }
        ));
    }

    #[test]
    fn jcc_short_resolves_target() {
        // je +6 at pc=0x1000: target = 0x1000 + 2 + 6
        let i = d(&[0x74, 0x06]);
        assert!(matches!(i.mnemonic, Mnemonic::Jcc { cond: Cond::E, .. }));
        assert_eq!(i.direct_target(), Some(0x1008));
    }

    #[test]
    fn jcc_near_and_backward() {
        // jne rel32 = -16 at 0x1000, len 6 -> 0x1000+6-16 = 0xff6
        let i = d(&[0x0f, 0x85, 0xf0, 0xff, 0xff, 0xff]);
        assert!(matches!(i.mnemonic, Mnemonic::Jcc { cond: Cond::Ne, .. }));
        assert_eq!(i.direct_target(), Some(0xff6));
        assert_eq!(i.len, 6);
    }

    #[test]
    fn call_and_ret() {
        let i = d(&[0xe8, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Call { target: 0x1105 });
        assert_eq!(i.direct_target(), Some(0x1105));
        let i = d(&[0xc2, 0x08, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Ret { pop: 8 });
    }

    #[test]
    fn operand_size_prefix() {
        let i = d(&[0x66, 0xb8, 0x34, 0x12]); // mov ax, 0x1234
        assert_eq!(i.width, Width::W16);
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Mov {
                src: Operand::Imm(0x1234),
                ..
            }
        ));
        assert_eq!(i.len, 4);
    }

    #[test]
    fn operand_size_prefix_refuses_stack_and_branch_forms() {
        let refused =
            |bytes: &[u8], opcode| assert_eq!(decode(bytes, 0), Err(DecodeError::Unknown(opcode)));
        // push imm16 would be 4 bytes on IA-32, not a 6-byte push imm32.
        refused(&[0x66, 0x68, 0, 0, 0, 0], 0x68);
        // push ax moves ESP by 2, not 4.
        refused(&[0x66, 0x50], 0x50);
        // call rel16 and jz rel16 truncate EIP.
        refused(&[0x66, 0xe8, 0, 0, 0, 0], 0xe8);
        refused(&[0x66, 0x0f, 0x84, 0, 0, 0, 0], 0x0f);
        for bytes in [
            &[0x66, 0x5f][..],
            &[0x66, 0x6a, 1],
            &[0x66, 0x75, 0],
            &[0x66, 0xc3],
            &[0x66, 0xc9],
            &[0x66, 0xff, 0xd0], // call ax
            &[0x66, 0xff, 0x30], // push word [eax]
        ] {
            assert!(decode(bytes, 0).is_err(), "{bytes:02x?}");
        }
        // Without the prefix, and for the prefixed non-stack forms, the
        // same bytes still decode.
        assert_eq!(decode(&[0x68, 0, 0, 0, 0], 0).unwrap().len, 5);
        assert_eq!(decode(&[0x0f, 0x84, 0, 0, 0, 0], 0).unwrap().len, 6);
        assert_eq!(decode(&[0x66, 0xff, 0xc0], 0).unwrap().len, 3); // inc ax
    }

    #[test]
    fn rep_movsd() {
        let i = d(&[0xf3, 0xa5]);
        assert_eq!(
            i.mnemonic,
            Mnemonic::Str {
                op: StrOp::Movs,
                rep: true
            }
        );
        assert_eq!(i.width, Width::W32);
        assert!(i.mnemonic.is_complex());
    }

    #[test]
    fn group3_forms() {
        let i = d(&[0xf7, 0xd8]); // neg eax
        assert_eq!(i.mnemonic, Mnemonic::Neg { dst: Rm::Reg(Gpr::Eax) });
        let i = d(&[0xf7, 0xe1]); // mul ecx
        assert_eq!(i.mnemonic, Mnemonic::Mul { src: Rm::Reg(Gpr::Ecx) });
        let i = d(&[0xf6, 0xc2, 0x01]); // test dl, 1
        assert!(matches!(i.mnemonic, Mnemonic::Alu { op: AluOp::Test, .. }));
        assert_eq!(i.width, Width::W8);
    }

    #[test]
    fn shifts() {
        let shift = |op, count| Mnemonic::Shift {
            op,
            dst: Rm::Reg(Gpr::Eax),
            count,
        };
        let i = d(&[0xc1, 0xe0, 0x04]); // shl eax, 4
        assert_eq!(i.mnemonic, shift(ShiftOp::Shl, ShiftCount::Imm(4)));
        let i = d(&[0xd3, 0xf8]); // sar eax, cl
        assert_eq!(i.mnemonic, shift(ShiftOp::Sar, ShiftCount::Cl));
        let i = d(&[0xd1, 0xc8]); // ror eax, 1
        assert_eq!(i.mnemonic, shift(ShiftOp::Ror, ShiftCount::Imm(1)));
    }

    #[test]
    fn movzx_movsx() {
        let i = d(&[0x0f, 0xb6, 0xc1]); // movzx eax, cl
        assert_eq!(
            i.mnemonic,
            Mnemonic::Movzx {
                from: Width::W8,
                dst: Gpr::Eax,
                src: Rm::Reg(Gpr::Ecx)
            }
        );
        let i = d(&[0x0f, 0xbf, 0xd3]); // movsx edx, bx
        assert_eq!(
            i.mnemonic,
            Mnemonic::Movsx {
                from: Width::W16,
                dst: Gpr::Edx,
                src: Rm::Reg(Gpr::Ebx)
            }
        );
    }

    #[test]
    fn lea_with_disp32_only() {
        // lea eax, [0x1234]
        let i = d(&[0x8d, 0x05, 0x34, 0x12, 0x00, 0x00]);
        assert_eq!(
            i.mnemonic,
            Mnemonic::Lea {
                dst: Gpr::Eax,
                addr: MemRef::abs(0x1234)
            }
        );
    }

    #[test]
    fn ebp_base_requires_disp() {
        // mod=01 rm=101: [ebp+disp8]
        let i = d(&[0x8b, 0x45, 0xfc]); // mov eax, [ebp-4]
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Mov { src: Operand::Mem(m), .. } if m == MemRef::base_disp(Gpr::Ebp, -4)
        ));
    }

    #[test]
    fn esp_base_via_sib() {
        // mov eax, [esp+8]: 8b 44 24 08
        let i = d(&[0x8b, 0x44, 0x24, 0x08]);
        assert!(matches!(
            i.mnemonic,
            Mnemonic::Mov { src: Operand::Mem(m), .. } if m == MemRef::base_disp(Gpr::Esp, 8)
        ));
    }

    #[test]
    fn indirect_jumps() {
        let i = d(&[0xff, 0xe0]); // jmp eax
        assert_eq!(
            i.mnemonic,
            Mnemonic::JmpInd {
                target: Rm::Reg(Gpr::Eax)
            }
        );
        let i = d(&[0xff, 0x10]); // call [eax]
        assert!(matches!(i.mnemonic, Mnemonic::CallInd { .. }));
    }

    #[test]
    fn errors() {
        assert_eq!(decode(&[0xb8], 0), Err(DecodeError::Truncated));
        assert!(matches!(decode(&[0x0f, 0xff], 0), Err(DecodeError::UnknownExt(0xff))));
        assert!(matches!(
            decode(&[0xff, 0b00_111_000 | 0xc0], 0),
            Err(DecodeError::UnknownGroup { opcode: 0xff, ext: 7 })
        ));
    }

    #[test]
    fn decoder_cache_counts_static_footprint() {
        use cdvm_mem::GuestMem;
        let mut mem = GuestMem::new();
        mem.load(0x100, &[0x90, 0x90]);
        let mut dec = Decoder::new();
        dec.decode_at(&mut mem, 0x100).unwrap();
        dec.decode_at(&mut mem, 0x100).unwrap();
        dec.decode_at(&mut mem, 0x101).unwrap();
        assert_eq!(dec.static_footprint(), 2);
        assert_eq!(dec.decodes(), 3);
        assert_eq!(dec.cache_hits(), 1);
    }

    #[test]
    fn multibyte_nop() {
        let i = d(&[0x0f, 0x1f, 0x44, 0x00, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Nop);
        assert_eq!(i.len, 5);
    }

    #[test]
    fn enter_decodes_operands() {
        let i = d(&[0xc8, 0x20, 0x00, 0x00]); // enter 0x20, 0
        assert_eq!(
            i.mnemonic,
            Mnemonic::Enter {
                frame: 0x20,
                nesting: 0
            }
        );
    }
}
