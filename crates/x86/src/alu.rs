//! Flag-setting arithmetic, shared verbatim by the x86 interpreter and the
//! implementation-ISA executor.
//!
//! Both execution engines funnel through these helpers so that translated
//! code provably computes the same architected flag state as direct
//! interpretation — a property the differential test suite leans on.
//! Where hardware leaves a flag *undefined* (logic-op `AF`, multiply
//! `ZF`/`SF`/`PF`, shift `OF` for counts > 1) we pick one deterministic
//! definition and use it everywhere.

use crate::flags::parity;
use crate::{Flags, Width};

/// Two-operand ALU operations of the classic x86 group (opcodes
/// `0x00`–`0x3D` plus `TEST`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Bitwise inclusive or.
    Or,
    /// Add with carry.
    Adc,
    /// Subtract with borrow.
    Sbb,
    /// Bitwise and.
    And,
    /// Subtraction.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Compare (subtract without writeback).
    Cmp,
    /// Test (and without writeback).
    Test,
}

impl AluOp {
    /// True for `Cmp`/`Test`, which discard their result.
    pub fn discards_result(self) -> bool {
        matches!(self, AluOp::Cmp | AluOp::Test)
    }

    /// The group number used in x86 `/r` extension encodings (0–7).
    ///
    /// # Panics
    ///
    /// Panics for [`AluOp::Test`], which has no group-1 encoding.
    #[allow(
        clippy::unreachable,
        reason = "asking for TEST's group number is an assembler programmer error"
    )]
    pub fn group_num(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Or => 1,
            AluOp::Adc => 2,
            AluOp::Sbb => 3,
            AluOp::And => 4,
            AluOp::Sub => 5,
            AluOp::Xor => 6,
            AluOp::Cmp => 7,
            AluOp::Test => unreachable!("TEST has no group encoding"),
        }
    }

    /// Inverse of [`AluOp::group_num`], reading the low three bits of `n`
    /// (a ModRM `reg` field or an opcode's operation bits).
    pub fn from_group_num(n: u8) -> AluOp {
        match n & 7 {
            0 => AluOp::Add,
            1 => AluOp::Or,
            2 => AluOp::Adc,
            3 => AluOp::Sbb,
            4 => AluOp::And,
            5 => AluOp::Sub,
            6 => AluOp::Xor,
            _ => AluOp::Cmp,
        }
    }
}

/// Shift and rotate operations (x86 group 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Logical/arithmetic left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
    /// Rotate left.
    Rol,
    /// Rotate right.
    Ror,
}

impl ShiftOp {
    /// The group-2 `/r` extension number.
    pub fn group_num(self) -> u8 {
        match self {
            ShiftOp::Rol => 0,
            ShiftOp::Ror => 1,
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Inverse of [`ShiftOp::group_num`] for the subset we implement.
    pub fn from_group_num(n: u8) -> Option<ShiftOp> {
        match n {
            0 => Some(ShiftOp::Rol),
            1 => Some(ShiftOp::Ror),
            4 => Some(ShiftOp::Shl),
            5 => Some(ShiftOp::Shr),
            7 => Some(ShiftOp::Sar),
            _ => None,
        }
    }
}

// The flag kernels below are branch-free: every flag is derived
// arithmetically (compare → 0/1 → multiply by the flag's bit) instead of
// through per-flag `if`s, so the batched interpreter/executor retire
// loops see straight-line code with no data-dependent control flow. The
// comparisons compile to `setcc`/`csel`-style selects; results are
// bit-identical to the branching forms they replace (the differential
// suites pin this).

#[inline(always)]
fn zsp(w: Width, res: u32) -> u32 {
    let m = res & w.mask();
    u32::from(m == 0) * Flags::ZF
        | u32::from(m & w.sign_bit() != 0) * Flags::SF
        | u32::from(parity(m)) * Flags::PF
}

#[inline(always)]
fn add_like(w: Width, a: u32, b: u32, carry_in: bool) -> (u32, u32) {
    let a = a & w.mask();
    let b = b & w.mask();
    let wide = a as u64 + b as u64 + carry_in as u64;
    let res = (wide as u32) & w.mask();
    let cf = u32::from(wide > w.mask() as u64) * Flags::CF;
    // Signed overflow: both operands agree in sign and the result flips.
    let of = u32::from((a ^ res) & (b ^ res) & w.sign_bit() != 0) * Flags::OF;
    // AF is bit 4, exactly the nibble-carry bit of a^b^res.
    let af = (a ^ b ^ res) & Flags::AF;
    (res, zsp(w, res) | cf | of | af)
}

#[inline(always)]
fn sub_like(w: Width, a: u32, b: u32, borrow_in: bool) -> (u32, u32) {
    let a = a & w.mask();
    let b = b & w.mask();
    let wide = (a as u64)
        .wrapping_sub(b as u64)
        .wrapping_sub(borrow_in as u64);
    let res = (wide as u32) & w.mask();
    let cf = u32::from((b as u64 + borrow_in as u64) > a as u64) * Flags::CF;
    let of = u32::from((a ^ b) & (a ^ res) & w.sign_bit() != 0) * Flags::OF;
    let af = (a ^ b ^ res) & Flags::AF;
    (res, zsp(w, res) | cf | of | af)
}

#[inline(always)]
fn logic_like(w: Width, res: u32) -> (u32, u32) {
    let res = res & w.mask();
    (res, zsp(w, res)) // CF = OF = AF = 0
}

/// Performs a two-operand ALU operation at `w`, returning the result and
/// the new status-flag bits ([`Flags::STATUS_MASK`] layout).
///
/// `Cmp` and `Test` still return the internal result; the caller decides
/// whether to write it back (see [`AluOp::discards_result`]).
pub fn alu(op: AluOp, w: Width, a: u32, b: u32, cf_in: bool) -> (u32, u32) {
    match op {
        AluOp::Add => add_like(w, a, b, false),
        AluOp::Adc => add_like(w, a, b, cf_in),
        AluOp::Sub | AluOp::Cmp => sub_like(w, a, b, false),
        AluOp::Sbb => sub_like(w, a, b, cf_in),
        AluOp::Or => logic_like(w, (a | b) & w.mask()),
        AluOp::And | AluOp::Test => logic_like(w, (a & b) & w.mask()),
        AluOp::Xor => logic_like(w, (a ^ b) & w.mask()),
    }
}

/// `INC`: adds one without touching `CF`. Returns (result, status bits);
/// combine with [`Flags::set_status_keep_cf`].
pub fn inc(w: Width, a: u32) -> (u32, u32) {
    add_like(w, a, 1, false)
}

/// `DEC`: subtracts one without touching `CF`.
pub fn dec(w: Width, a: u32) -> (u32, u32) {
    sub_like(w, a, 1, false)
}

/// `NEG`: two's complement negation. `CF` is set iff the operand was
/// non-zero.
pub fn neg(w: Width, a: u32) -> (u32, u32) {
    sub_like(w, 0, a, false)
}

/// Shift or rotate `a` by `count` (already masked to 5 bits by the caller
/// or not — this function applies the architectural `& 31` mask).
///
/// Returns `None` when the masked count is zero: hardware leaves *all*
/// flags unchanged in that case. Rotates preserve `ZF`/`SF`/`PF`/`AF`
/// (only `CF`/`OF` change), which is why the full incoming flags are
/// needed.
pub fn shift(op: ShiftOp, w: Width, a: u32, count: u32, flags_in: Flags) -> Option<(u32, Flags)> {
    let count = count & 31;
    if count == 0 {
        return None;
    }
    let bits = w.bits();
    let a = a & w.mask();
    let mut f = flags_in;
    let res;
    match op {
        ShiftOp::Shl => {
            res = if count >= bits { 0 } else { (a << count) & w.mask() };
            let cf = if count <= bits {
                (a >> (bits - count)) & 1 != 0
            } else {
                false
            };
            f.set_status(zsp(w, res));
            f.set(Flags::CF, cf);
            f.set(Flags::OF, ((res & w.sign_bit() != 0) as u32 ^ cf as u32) != 0);
        }
        ShiftOp::Shr => {
            res = if count >= bits { 0 } else { a >> count };
            let cf = if count <= bits {
                (a >> (count - 1)) & 1 != 0
            } else {
                false
            };
            f.set_status(zsp(w, res));
            f.set(Flags::CF, cf);
            f.set(Flags::OF, a & w.sign_bit() != 0);
        }
        ShiftOp::Sar => {
            let sa = w.sext(a) as i32;
            let sh = count.min(31);
            res = ((sa >> sh) as u32) & w.mask();
            let cf = (sa >> (sh - 1).min(31)) & 1 != 0;
            f.set_status(zsp(w, res));
            f.set(Flags::CF, cf);
            f.set(Flags::OF, false);
        }
        ShiftOp::Rol => {
            let r = count % bits;
            res = if r == 0 {
                a
            } else {
                ((a << r) | (a >> (bits - r))) & w.mask()
            };
            let cf = res & 1 != 0;
            f.set(Flags::CF, cf);
            f.set(
                Flags::OF,
                ((res & w.sign_bit() != 0) as u32 ^ cf as u32) != 0,
            );
        }
        ShiftOp::Ror => {
            let r = count % bits;
            res = if r == 0 {
                a
            } else {
                ((a >> r) | (a << (bits - r))) & w.mask()
            };
            let msb = res & w.sign_bit() != 0;
            let msb2 = res & (w.sign_bit() >> 1) != 0;
            f.set(Flags::CF, msb);
            f.set(Flags::OF, msb ^ msb2);
        }
    }
    Some((res, f))
}

/// Unsigned widening multiply (`MUL`): returns (low, high, status).
/// `CF`/`OF` are set iff the high half is non-zero.
pub fn mul(w: Width, a: u32, b: u32) -> (u32, u32, u32) {
    let prod = (a & w.mask()) as u64 * (b & w.mask()) as u64;
    let lo = (prod as u32) & w.mask();
    let hi = ((prod >> w.bits()) as u32) & w.mask();
    let s = zsp(w, lo) | u32::from(hi != 0) * (Flags::CF | Flags::OF);
    (lo, hi, s)
}

/// Signed widening multiply (one-operand `IMUL`): returns (low, high,
/// status). `CF`/`OF` are set iff the product does not fit in `w`.
pub fn imul_wide(w: Width, a: u32, b: u32) -> (u32, u32, u32) {
    let prod = (w.sext(a) as i32 as i64) * (w.sext(b) as i32 as i64);
    let lo = (prod as u32) & w.mask();
    let hi = ((prod >> w.bits()) as u32) & w.mask();
    let s = zsp(w, lo) | u32::from(prod != w.sext(lo) as i32 as i64) * (Flags::CF | Flags::OF);
    (lo, hi, s)
}

/// Truncating signed multiply (two/three-operand `IMUL`): returns
/// (result, status).
pub fn imul_trunc(w: Width, a: u32, b: u32) -> (u32, u32) {
    let (lo, _, s) = imul_wide(w, a, b);
    (lo, s)
}

/// Unsigned divide (`DIV`): `hi:lo / divisor`. Returns `None` on divide
/// error (`#DE`): zero divisor or quotient overflow. Flags are
/// architecturally undefined; we leave them unchanged.
pub fn div(w: Width, lo: u32, hi: u32, divisor: u32) -> Option<(u32, u32)> {
    let divisor = (divisor & w.mask()) as u64;
    if divisor == 0 {
        return None;
    }
    let dividend = ((hi & w.mask()) as u64) << w.bits() | (lo & w.mask()) as u64;
    let q = dividend / divisor;
    let r = dividend % divisor;
    if q > w.mask() as u64 {
        return None;
    }
    Some((q as u32, r as u32))
}

/// Signed divide (`IDIV`). Returns `None` on `#DE`.
pub fn idiv(w: Width, lo: u32, hi: u32, divisor: u32) -> Option<(u32, u32)> {
    let divisor = w.sext(divisor) as i32 as i64;
    if divisor == 0 {
        return None;
    }
    let dividend = ((w.sext(hi) as i32 as i64) << w.bits()) | (lo & w.mask()) as i64;
    let q = dividend / divisor;
    let r = dividend % divisor;
    let (min, max) = match w {
        Width::W8 => (i8::MIN as i64, i8::MAX as i64),
        Width::W16 => (i16::MIN as i64, i16::MAX as i64),
        Width::W32 => (i32::MIN as i64, i32::MAX as i64),
    };
    if q < min || q > max {
        return None;
    }
    Some(((q as u32) & w.mask(), (r as u32) & w.mask()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn add_carry_and_overflow() {
        let (r, s) = alu(AluOp::Add, Width::W32, 0xffff_ffff, 1, false);
        assert_eq!(r, 0);
        assert!(s & Flags::CF != 0 && s & Flags::ZF != 0 && s & Flags::OF == 0);

        let (r, s) = alu(AluOp::Add, Width::W32, 0x7fff_ffff, 1, false);
        assert_eq!(r, 0x8000_0000);
        assert!(s & Flags::OF != 0 && s & Flags::SF != 0 && s & Flags::CF == 0);

        let (r, s) = alu(AluOp::Add, Width::W8, 0xf0, 0x20, false);
        assert_eq!(r, 0x10);
        assert!(s & Flags::CF != 0);
    }

    #[test]
    fn adc_uses_carry_in() {
        let (r, _) = alu(AluOp::Adc, Width::W32, 1, 2, true);
        assert_eq!(r, 4);
    }

    #[test]
    fn sub_borrow_and_overflow() {
        let (r, s) = alu(AluOp::Sub, Width::W32, 0, 1, false);
        assert_eq!(r, 0xffff_ffff);
        assert!(s & Flags::CF != 0 && s & Flags::SF != 0);

        let (r, s) = alu(AluOp::Sub, Width::W32, 0x8000_0000, 1, false);
        assert_eq!(r, 0x7fff_ffff);
        assert!(s & Flags::OF != 0);

        let (_, s) = alu(AluOp::Cmp, Width::W32, 5, 5, false);
        assert!(s & Flags::ZF != 0 && s & Flags::CF == 0);
    }

    #[test]
    fn sbb_uses_borrow_in() {
        let (r, s) = alu(AluOp::Sbb, Width::W32, 5, 5, true);
        assert_eq!(r, 0xffff_ffff);
        assert!(s & Flags::CF != 0);
    }

    #[test]
    fn logic_clears_cf_of() {
        let (r, s) = alu(AluOp::And, Width::W32, 0xff00, 0x0ff0, false);
        assert_eq!(r, 0x0f00);
        assert!(s & (Flags::CF | Flags::OF | Flags::AF) == 0);
        let (r, s) = alu(AluOp::Xor, Width::W32, 7, 7, true);
        assert_eq!(r, 0);
        assert!(s & Flags::ZF != 0);
    }

    #[test]
    fn aux_carry() {
        let (_, s) = alu(AluOp::Add, Width::W32, 0x0f, 0x01, false);
        assert!(s & Flags::AF != 0);
        let (_, s) = alu(AluOp::Add, Width::W32, 0x0e, 0x01, false);
        assert!(s & Flags::AF == 0);
    }

    #[test]
    fn inc_dec_preserve_cf_by_contract() {
        let (r, s) = inc(Width::W8, 0xff);
        assert_eq!(r, 0);
        assert!(s & Flags::ZF != 0);
        let (r, s) = dec(Width::W32, 0);
        assert_eq!(r, u32::MAX);
        assert!(s & Flags::SF != 0);
    }

    #[test]
    fn neg_sets_cf_for_nonzero() {
        let (r, s) = neg(Width::W32, 5);
        assert_eq!(r, (-5i32) as u32);
        assert!(s & Flags::CF != 0);
        let (r, s) = neg(Width::W32, 0);
        assert_eq!(r, 0);
        assert!(s & Flags::CF == 0);
    }

    #[test]
    fn shl_flags() {
        let f = Flags::new();
        let (r, nf) = shift(ShiftOp::Shl, Width::W8, 0x81, 1, f).unwrap();
        assert_eq!(r, 0x02);
        assert!(nf.cf());
        assert!(shift(ShiftOp::Shl, Width::W32, 1, 0, f).is_none());
        let (r, nf) = shift(ShiftOp::Shl, Width::W32, 1, 31, f).unwrap();
        assert_eq!(r, 0x8000_0000);
        assert!(nf.sf() && !nf.cf());
    }

    #[test]
    fn shr_sar() {
        let f = Flags::new();
        let (r, nf) = shift(ShiftOp::Shr, Width::W32, 0x8000_0001, 1, f).unwrap();
        assert_eq!(r, 0x4000_0000);
        assert!(nf.cf() && nf.of());
        let (r, nf) = shift(ShiftOp::Sar, Width::W32, 0x8000_0000, 1, f).unwrap();
        assert_eq!(r, 0xc000_0000);
        assert!(!nf.of());
        let (r, _) = shift(ShiftOp::Sar, Width::W8, 0x80, 2, f).unwrap();
        assert_eq!(r, 0xe0);
    }

    #[test]
    fn rotates_preserve_zsp() {
        let mut f = Flags::new();
        f.set(Flags::ZF, true);
        let (r, nf) = shift(ShiftOp::Rol, Width::W8, 0x81, 1, f).unwrap();
        assert_eq!(r, 0x03);
        assert!(nf.cf());
        assert!(nf.zf(), "rotate must not clobber ZF");
        let (r, nf) = shift(ShiftOp::Ror, Width::W8, 0x01, 1, f).unwrap();
        assert_eq!(r, 0x80);
        assert!(nf.cf());
    }

    #[test]
    fn rotate_full_width_is_identity() {
        let f = Flags::new();
        let (r, _) = shift(ShiftOp::Rol, Width::W8, 0xa5, 8, f).unwrap();
        assert_eq!(r, 0xa5);
    }

    #[test]
    fn unsigned_multiply() {
        let (lo, hi, s) = mul(Width::W32, 0xffff_ffff, 2);
        assert_eq!(lo, 0xffff_fffe);
        assert_eq!(hi, 1);
        assert!(s & Flags::CF != 0 && s & Flags::OF != 0);
        let (_, hi, s) = mul(Width::W32, 3, 4);
        assert_eq!(hi, 0);
        assert!(s & Flags::CF == 0);
    }

    #[test]
    fn signed_multiply() {
        let (lo, hi, s) = imul_wide(Width::W32, (-2i32) as u32, 3);
        assert_eq!(lo, (-6i32) as u32);
        assert_eq!(hi, 0xffff_ffff);
        assert!(s & Flags::CF == 0, "-6 fits in 32 bits");
        let (r, s) = imul_trunc(Width::W32, 0x10000, 0x10000);
        assert_eq!(r, 0);
        assert!(s & Flags::OF != 0);
    }

    #[test]
    fn divide_and_faults() {
        assert_eq!(div(Width::W32, 100, 0, 7), Some((14, 2)));
        assert_eq!(div(Width::W32, 1, 0, 0), None);
        assert_eq!(div(Width::W32, 0, 1, 1), None, "quotient overflow");
        assert_eq!(
            idiv(Width::W32, (-100i32) as u32, u32::MAX, 7),
            Some(((-14i32) as u32, (-2i32) as u32))
        );
        assert_eq!(idiv(Width::W32, 5, 0, 0), None);
    }

    #[test]
    fn width_masking_in_alu() {
        let (r, s) = alu(AluOp::Add, Width::W16, 0xffff, 1, false);
        assert_eq!(r, 0);
        assert!(s & Flags::CF != 0 && s & Flags::ZF != 0);
    }
}
