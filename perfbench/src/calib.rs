//! The host-speed yardstick: a fixed kernel timed beside the measured
//! work, so that host times can be scaled to one host speed.
//!
//! On a shared host the speed of simulator code drifts by up to ~1.8x for
//! seconds to minutes at a time, while a DRAM pointer chase or an ALU loop
//! moves by less than 10%. What does track the drift is branchy,
//! dispatch-bound code like the simulator's own: in a three-minute probe on
//! a 2-vCPU Xeon VM, a fixed bytecode interpreter's time correlated 0.72
//! with a batch of simulator jobs run beside it, and over 15 s windows the
//! median of job time divided by kernel time spread 0.05 (IQR/median)
//! where the fastest job time spread 0.38.
//!
//! The kernel is the benchmark's own code, so a change to the program
//! does not move it. [`Yardstick::scale`] times one run of it and returns
//! `NOMINAL_MS / measured`: a host time multiplied by that factor reads as
//! it would on a host where the kernel takes [`NOMINAL_MS`].

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the nominal host speed: about its fastest time
/// on a 2-vCPU Xeon (Emerald Rapids) VM.
pub const NOMINAL_MS: f64 = 2.0;

/// Interpreter steps per kernel run.
const STEPS: usize = 1_000_000;
/// Kernel data words (4 MiB).
const MEM_WORDS: usize = 1 << 20;
/// Kernel program length.
const PROG_LEN: usize = 1 << 16;

/// One kernel instruction: opcode, two register numbers, immediate.
type Op = (u8, u8, u8, u32);

/// The yardstick kernel and its state.
pub struct Yardstick {
    prog: Vec<Op>,
    mem: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Yardstick {
    /// Generates the kernel's fixed program.
    pub fn new() -> Yardstick {
        let mut x = 12345u64;
        let prog = (0..PROG_LEN)
            .map(|_| {
                let r = xorshift(&mut x);
                (
                    r as u8,
                    (r >> 8) as u8 & 15,
                    (r >> 12) as u8 & 15,
                    (r >> 32) as u32,
                )
            })
            .collect();
        Yardstick {
            prog,
            mem: vec![0; MEM_WORDS],
        }
    }

    /// Times one kernel run and returns the factor that scales a host
    /// time measured now to the nominal host speed.
    pub fn scale(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        NOMINAL_MS / (t.elapsed().as_secs_f64() * 1e3)
    }

    /// A bytecode interpreter: indirect dispatch, data-dependent branches
    /// and scattered loads and stores.
    fn run(&mut self) -> u32 {
        let (prog, mem) = (&self.prog, &mut self.mem);
        let mask = mem.len() - 1;
        let mut r = [1u32; 16];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let (op, a, b, imm) = prog[pc];
            let (a, b) = (a as usize, b as usize);
            pc += 1;
            match op % 16 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_sub(imm),
                2 => r[a] ^= r[b].rotate_left(imm & 31),
                3 => r[a] = r[a].wrapping_mul(r[b] | 1),
                4 => r[a] = mem[r[b] as usize & mask],
                5 => mem[(r[a] ^ imm) as usize & mask] = r[b],
                6 if r[a] & 1 == 0 => pc = imm as usize % PROG_LEN,
                7 if r[a] > r[b] => pc += imm as usize & 7,
                8 => r[a] = r[b] >> (imm & 15),
                9 => r[a] = r[a].wrapping_add(imm),
                10 => r[a] = u32::from(r[a] < r[b]),
                11 => r[a] = r[a].count_ones() + r[b],
                12 => r[a] = mem[r[a].wrapping_add(imm) as usize & mask],
                13 => r[a] |= imm,
                14 => r[a] &= r[b] | imm,
                15 => pc = r[a] as usize % PROG_LEN,
                _ => {}
            }
            if pc >= PROG_LEN {
                pc = 0;
            }
        }
        r.iter().fold(0, |x, y| x ^ y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_the_factor_is_positive() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.mem, b.mem);
        let f = a.scale();
        assert!(f.is_finite() && f > 0.0);
    }
}
