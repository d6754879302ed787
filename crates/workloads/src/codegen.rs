//! The workload code generator.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use cdvm_mem::{GuestMem, Memory, Rng64};
use cdvm_x86::{AluOp, Asm, Cond, Gpr, MemRef, ShiftOp, Width};

use crate::AppProfile;

/// Guest code base address.
pub const CODE_BASE: u32 = 0x40_0000;
/// Guest data base (globals).
pub const DATA_BASE: u32 = 0x1000_0000;
/// Function-pointer table base.
const FTAB_BASE: u32 = 0x1800_0000;
/// Dispatcher schedule base.
const SCHED_BASE: u32 = 0x2000_0000;

/// A generated, ready-to-run guest program.
pub struct Workload {
    /// Application name.
    pub name: String,
    /// Memory image with code, globals, function table and schedule
    /// resident (the paper's memory-startup scenario). The globals pages
    /// are shared copy-on-write with a process-wide template of the same
    /// size, so a build allocates only its code, function-table and
    /// schedule pages; a guest store copies the page it lands in.
    pub mem: GuestMem,
    /// Entry PC.
    pub entry: u32,
    /// Static x86 instructions generated.
    pub static_insts: usize,
    /// Dispatcher calls scheduled.
    pub scheduled_calls: usize,
    /// Rough a-priori dynamic instruction estimate.
    pub approx_dynamic: u64,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("static_insts", &self.static_insts)
            .field("scheduled_calls", &self.scheduled_calls)
            .finish()
    }
}

/// Counts instructions as they are emitted.
struct Emitter {
    asm: Asm,
    insts: usize,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            asm: Asm::new(CODE_BASE),
            insts: 0,
        }
    }
}

macro_rules! emit {
    ($e:expr, $n:expr, $body:expr) => {{
        $e.insts += $n;
        $body
    }};
}

struct FuncSpec {
    addr: u32,
    /// Estimated dynamic instructions per call.
    per_call: u64,
}

/// Builds one application at `scale` (1.0 = the paper's 100M-instruction
/// reference length; footprint and schedule both scale so overhead
/// *ratios* are preserved).
pub fn build_app(profile: &AppProfile, scale: f64) -> Workload {
    build_app_run(profile, scale, 1.0)
}

/// Builds one application with an independent run-length multiplier:
/// `scale` sets the static footprint (the app), `length_mult` stretches
/// the dispatcher schedule (the trace length). The paper's 500M-
/// instruction runs are the 100M apps with `length_mult = 5` — execution
/// counts grow while the hot threshold stays fixed, which is what makes
/// hotspot coverage rise on longer traces.
pub fn build_app_run(profile: &AppProfile, scale: f64, length_mult: f64) -> Workload {
    let mut rng = Rng64::new(profile.seed);
    let nfuncs = ((profile.funcs as f64 * scale) as usize).max(32);
    let ncalls = ((profile.calls as f64 * scale * length_mult) as usize).max(200);

    let mut e = Emitter::new();
    let mut mem = globals(profile.data_kb);

    // ---- driver ---------------------------------------------------------
    let entry = e.asm.pc();
    // ebp = function table, esi = schedule cursor, edi = schedule end.
    // Every generated function preserves EBP/ESI/EDI (callee-saved).
    e.insts += 3;
    e.asm.mov_ri(Gpr::Ebp, FTAB_BASE);
    e.asm.mov_ri(Gpr::Esi, SCHED_BASE);
    e.asm.mov_ri(Gpr::Edi, SCHED_BASE + 4 * ncalls as u32);
    let loop_top = e.asm.here();
    let done = e.asm.label();
    e.insts += 7;
    e.asm.alu_rr(AluOp::Cmp, Gpr::Esi, Gpr::Edi);
    e.asm.jcc(Cond::Ae, done);
    e.asm.mov_rm(Gpr::Eax, MemRef::base_disp(Gpr::Esi, 0));
    e.asm.alu_ri(AluOp::Add, Gpr::Esi, 4);
    e.asm
        .mov_rm(Gpr::Ebx, MemRef::base_index(Gpr::Ebp, Gpr::Eax, 4, 0));
    e.asm.call_r(Gpr::Ebx);
    e.asm.jmp(loop_top);
    e.asm.bind(done);
    e.insts += 1;
    e.asm.hlt();

    // NOTE: the dispatcher reads the function table via EBP (callee-saved
    // by every generated function), initialised below.

    // ---- shared utility functions ---------------------------------------
    let mut utils = Vec::new();
    for _ in 0..8 {
        let addr = e.asm.pc();
        gen_util(&mut e, &mut rng, profile);
        utils.push(addr);
    }

    // ---- leaf functions --------------------------------------------------
    let mut funcs: Vec<FuncSpec> = Vec::with_capacity(nfuncs);
    for i in 0..nfuncs {
        let addr = e.asm.pc();
        let hot_rank = i as f64 / (nfuncs as f64 / 8.0).max(1.0);
        let inner = 1 + (profile.inner_loop as f64 / (1.0 + hot_rank)) as u32;
        let per_call = gen_func(&mut e, &mut rng, profile, inner, &utils);
        funcs.push(FuncSpec { addr, per_call });
    }

    let code = e.asm.finish();
    mem.load(CODE_BASE, &code);

    // ---- data: function table, schedule (globals came with `mem`) --------
    for (i, f) in funcs.iter().enumerate() {
        mem.write_u32(FTAB_BASE + 4 * i as u32, f.addr);
    }

    // Zipf weights with cumulative prefix sums per phase window.
    let weights: Vec<f64> = (0..nfuncs)
        .map(|i| 1.0 / ((i + 1) as f64).powf(profile.zipf_s))
        .collect();
    let mut prefix = Vec::with_capacity(nfuncs + 1);
    prefix.push(0.0);
    for w in &weights {
        prefix.push(prefix.last().copied().unwrap_or(0.0) + w);
    }

    let mut approx_dynamic = 0u64;
    let phases = profile.phases.max(1);
    // Calls arrive in batches (a drawn function repeats several times
    // consecutively): real call sites live in loops, making indirect
    // call targets mostly monomorphic over short windows.
    let mut c = 0usize;
    while c < ncalls {
        let phase = c * phases / ncalls;
        // Cumulative window: later phases can reach colder functions.
        let window = ((phase + 1) * nfuncs / phases).clamp(1, nfuncs);
        let total = prefix[window];
        let x: f64 = rng.f64() * total;
        let idx = match prefix[..=window]
            .binary_search_by(|p| p.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i.min(window - 1),
            Err(i) => (i - 1).min(window - 1),
        };
        let batch = rng.range_usize(4, 16).min(ncalls - c);
        for _ in 0..batch {
            mem.write_u32(SCHED_BASE + 4 * c as u32, idx as u32);
            approx_dynamic += funcs[idx].per_call + 8;
            c += 1;
        }
    }

    Workload {
        name: profile.name.to_string(),
        mem,
        entry,
        static_insts: e.insts,
        scheduled_calls: ncalls,
        approx_dynamic,
    }
}

/// Globals images by size in KiB. The globals depend only on their size,
/// so every build clones (copy-on-write) the image of its size instead of
/// writing its own pages.
static GLOBALS: Mutex<BTreeMap<u32, GuestMem>> = Mutex::new(BTreeMap::new());

/// A copy-on-write clone of the globals image of `data_kb` KiB.
fn globals(data_kb: u32) -> GuestMem {
    // The map is only ever extended by whole entries, so a panic while
    // the lock was held leaves it consistent.
    let mut images = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    globals_in(&mut images, data_kb).clone()
}

/// The globals image of `data_kb` KiB in `images`, built on first use:
/// every 7th word `k` holds `k * 0x9e3779b9`, the rest read zero. A new
/// size starts from a clone of the largest smaller one, so the sizes
/// share the pages they have in common.
fn globals_in(images: &mut BTreeMap<u32, GuestMem>, data_kb: u32) -> &GuestMem {
    if !images.contains_key(&data_kb) {
        let (from, mut mem) = match images.range(..data_kb).next_back() {
            Some((&kb, mem)) => (kb, mem.clone()),
            None => (0, GuestMem::new()),
        };
        for k in (from * 256..data_kb * 256).filter(|k| k % 7 == 0) {
            mem.write_u32(DATA_BASE + k * 4, k.wrapping_mul(0x9e37_79b9));
        }
        images.insert(data_kb, mem);
    }
    &images[&data_kb]
}

/// Entry shim: the driver expects `EBP == FTAB_BASE`; `System` starts
/// with zeroed registers, so workloads prepend this initialisation by
/// convention — `build_app` emits it as the first instruction.
fn gen_util(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile) {
    // Small straight-line helper: a few ALU ops on caller-saved regs.
    let n = rng.range_usize(3, 8);
    for _ in 0..n {
        gen_alu_op(e, rng, profile, &[Gpr::Eax, Gpr::Ecx, Gpr::Edx]);
    }
    emit!(e, 1, e.asm.ret());
}

/// One generated leaf function; returns its estimated per-call dynamic
/// instruction count.
fn gen_func(
    e: &mut Emitter,
    rng: &mut Rng64,
    profile: &AppProfile,
    inner: u32,
    utils: &[u32],
) -> u64 {
    let mut per_call = 0u64;
    // Globals this function touches.
    let g = |rng: &mut Rng64| {
        DATA_BASE + rng.range_u32(0, profile.data_kb * 1024 / 4) * 4
    };
    let g0 = g(rng);
    let g1 = g(rng);

    emit!(e, 2, {
        e.asm.push_r(Gpr::Ebp);
        e.asm.mov_rr(Gpr::Ebp, Gpr::Esp);
    });
    // Keep EBP live for locals but restore the dispatcher's table pointer
    // on exit; we therefore use EBP only via save/restore.
    per_call += 2;

    // A few straight-line blocks with a biased forward branch each.
    let nblocks = rng.range_usize(2, 5);
    for _ in 0..nblocks {
        let n = rng.range_usize(3, 7);
        for _ in 0..n {
            gen_body_op(e, rng, profile, g0, g1);
        }
        per_call += n as u64;
        // Alternating or biased conditional.
        if rng.bool(0.5) {
            // Alternating on a global counter (gshare food).
            emit!(e, 4, {
                e.asm.mov_rm(Gpr::Eax, MemRef::abs(g0));
                e.asm.inc_r(Gpr::Eax);
                e.asm.mov_mr(MemRef::abs(g0), Gpr::Eax);
                e.asm.alu_ri(AluOp::Test, Gpr::Eax, 1);
            });
            per_call += 4;
        } else {
            emit!(e, 2, {
                e.asm.mov_rm(Gpr::Eax, MemRef::abs(g1));
                e.asm.alu_ri(AluOp::Test, Gpr::Eax, 0x10);
            });
            per_call += 2;
        }
        let skip = e.asm.label();
        emit!(e, 1, e.asm.jcc(Cond::Ne, skip));
        let filler = rng.range_usize(1, 4);
        for _ in 0..filler {
            gen_alu_op(e, rng, profile, &[Gpr::Ecx, Gpr::Edx]);
        }
        e.asm.bind(skip);
        per_call += 1 + filler as u64 / 2;
    }

    // The hot inner loop.
    let loop_body = rng.range_usize(2, 5);
    emit!(e, 1, e.asm.mov_ri(Gpr::Ecx, inner));
    let top = e.asm.here();
    for _ in 0..loop_body {
        gen_body_op(e, rng, profile, g0, g1);
    }
    emit!(e, 2, {
        e.asm.dec_r(Gpr::Ecx);
        e.asm.jcc(Cond::Ne, top);
    });
    per_call += 1 + (loop_body as u64 + 2) * inner as u64;

    // Occasional REP MOVS block copy (complex path; Winzip-heavy).
    if rng.bool(profile.rep_prob) {
        let words = rng.range_u32(4, 16);
        emit!(e, 7, {
            e.asm.push_r(Gpr::Esi);
            e.asm.push_r(Gpr::Edi);
            e.asm.mov_ri(Gpr::Esi, g0 & !3);
            e.asm.mov_ri(Gpr::Edi, (g1 & !3) ^ 0x40);
            e.asm.mov_ri(Gpr::Ecx, words);
            e.asm.cld();
            e.asm.movs(Width::W32, true);
        });
        emit!(e, 2, {
            e.asm.pop_r(Gpr::Edi);
            e.asm.pop_r(Gpr::Esi);
        });
        per_call += 9 + words as u64;
    }

    // Occasional direct call into a shared utility (call depth 2).
    if rng.bool(0.35) {
        let u = utils[rng.range_usize(0, utils.len())];
        // Register-indirect call to the shared utility (the call/return
        // pairing still exercises the RAS).
        emit!(e, 2, {
            e.asm.mov_ri(Gpr::Edx, u);
            e.asm.call_r(Gpr::Edx);
        });
        per_call += 2 + 8;
    }

    emit!(e, 2, {
        e.asm.pop_r(Gpr::Ebp);
        e.asm.ret();
    });
    per_call += 2;
    per_call
}

/// One register-only ALU instruction.
fn gen_alu_op(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile, regs: &[Gpr]) {
    let chained = rng.bool(profile.chain_prob);
    let d = regs[rng.range_usize(0, regs.len())];
    let s = regs[rng.range_usize(0, regs.len())];
    let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];
    let op = ops[rng.range_usize(0, ops.len())];
    emit!(e, 1, {
        if chained && d != s {
            e.asm.alu_rr(op, d, s);
        } else if rng.bool(0.3) {
            e.asm.shift_ri(
                [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][rng.range_usize(0, 3)],
                d,
                rng.range_u32(1, 8) as u8,
            );
        } else {
            e.asm.alu_ri(op, d, rng.range_i32(-64, 64));
        }
    });
}

/// One body operation: ALU or memory, per the profile's mix.
fn gen_body_op(e: &mut Emitter, rng: &mut Rng64, profile: &AppProfile, g0: u32, g1: u32) {
    if rng.bool(profile.mem_ratio) {
        let addr = if rng.bool(0.5) { g0 } else { g1 };
        let addr = addr.wrapping_add(rng.range_u32(0, 16) * 4) & !3;
        match rng.range_u32(0, 3) {
            0 => emit!(e, 1, e.asm.mov_rm(Gpr::Edx, MemRef::abs(addr))),
            1 => emit!(e, 1, e.asm.mov_mr(MemRef::abs(addr), Gpr::Eax)),
            _ => emit!(e, 1, e.asm.alu_rm(AluOp::Add, Gpr::Eax, MemRef::abs(addr))),
        }
    } else {
        gen_alu_op(e, rng, profile, &[Gpr::Eax, Gpr::Edx]);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::winstone2004;
    use cdvm_mem::PAGE_SIZE;

    /// Checks every byte of the globals, and of the page past them,
    /// against a dense fill of the pattern.
    fn check_globals(mem: &mut GuestMem, data_kb: u32) {
        let len = data_kb as usize * 1024;
        let mut want = vec![0u8; len + PAGE_SIZE];
        for (k, word) in want[..len].chunks_exact_mut(4).enumerate() {
            if k % 7 == 0 {
                word.copy_from_slice(&(k as u32).wrapping_mul(0x9e37_79b9).to_le_bytes());
            }
        }
        let mut got = vec![0xa5u8; want.len()];
        mem.read_bytes(DATA_BASE, &mut got);
        let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
        assert_eq!(first_diff, None, "{data_kb} KiB of globals");
    }

    /// FNV-1a over the address and bytes of every resident page, after
    /// checking that the non-zero pages of the four regions a build
    /// writes are all of them.
    fn image_hash(mem: &mut GuestMem) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut pages = 0;
        for base in [CODE_BASE, DATA_BASE, FTAB_BASE, SCHED_BASE] {
            for addr in (base..base + (4 << 20)).step_by(PAGE_SIZE) {
                let page = mem.read_slice(addr, PAGE_SIZE).unwrap();
                if page.iter().all(|&b| b == 0) {
                    continue;
                }
                pages += 1;
                for b in addr.to_le_bytes().iter().chain(page) {
                    hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(
            pages,
            mem.resident_pages(),
            "a resident page lies elsewhere"
        );
        hash
    }

    #[test]
    fn shared_globals_match_a_dense_fill() {
        let stock = winstone2004();
        for p in &stock {
            check_globals(&mut build_app_run(p, 0.002, 0.1).mem, p.data_kb);
        }
        // First use in either order: ascending sizes extend each other,
        // descending ones are filled from nothing.
        let sizes = [0, 1, 3, 1023, 3072];
        let descending: Vec<u32> = sizes.iter().rev().copied().collect();
        for order in [&sizes[..], &descending[..]] {
            let mut images = BTreeMap::new();
            for &kb in order {
                check_globals(&mut globals_in(&mut images, kb).clone(), kb);
            }
            for &kb in order {
                let p = AppProfile {
                    data_kb: kb,
                    ..stock[0].clone()
                };
                check_globals(&mut build_app_run(&p, 0.002, 0.1).mem, kb);
            }
        }
        // IE has the largest globals.
        let ie = &stock[3];
        let a = image_hash(&mut build_app_run(ie, 0.002, 0.1).mem);
        let b = image_hash(&mut build_app_run(ie, 0.002, 0.1).mem);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_generation() {
        let p = &winstone2004()[1];
        let a = build_app(p, 0.01);
        let b = build_app(p, 0.01);
        assert_eq!(a.static_insts, b.static_insts);
        assert_eq!(a.scheduled_calls, b.scheduled_calls);
        assert_eq!(a.approx_dynamic, b.approx_dynamic);
    }

    #[test]
    fn footprint_scales() {
        let p = &winstone2004()[0];
        let small = build_app(p, 0.01);
        let big = build_app(p, 0.05);
        assert!(big.static_insts > small.static_insts * 3);
    }

    #[test]
    fn reference_scale_footprint_near_150k() {
        let p = &winstone2004()[9]; // Word
        let wl = build_app(p, 1.0);
        // ≈30 instructions per function × ~5200 functions.
        assert!(
            (100_000..260_000).contains(&wl.static_insts),
            "static footprint {} should be O(150K) at reference scale",
            wl.static_insts
        );
    }
}
