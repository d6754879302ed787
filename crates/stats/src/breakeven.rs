//! Breakeven ("catch-up") detection between two startup curves.

use crate::LogSampler;

/// Finds the first cycle count at which the VM curve has retired at
/// least as many instructions as the reference curve — the paper's
/// breakeven metric (§3.1: "the time at which the co-designed VM has
/// executed the same number of instructions", *not* the instantaneous
/// IPC crossover).
///
/// Both curves must sample cumulative retired instructions. Returns
/// `None` if the VM never catches up while the reference is still
/// running (rendered as an off-scale bar in Fig. 9): once the reference
/// has finished, a VM that retires the same program only draws level
/// with it at its own, later end, and that is a finish time, not a
/// breakeven.
pub fn breakeven_cycles(reference: &LogSampler, vm: &LogSampler) -> Option<u64> {
    let end = reference.samples().last()?.cycles;
    let caught_up = |c: u64| match (vm.value_at(c), reference.value_at(c)) {
        (Some(v), Some(r)) => v >= r,
        _ => false,
    };
    // Scan the VM's sample points, the last one clamped to the
    // reference's end; refine between points by bisection on the
    // interpolated curves.
    let mut prev: Option<u64> = None;
    for s in vm.samples() {
        let at = s.cycles.min(end);
        if at > 1000 && caught_up(at) {
            let mut lo = prev.unwrap_or(at / 2).max(1);
            let mut hi = at;
            for _ in 0..48 {
                let mid = lo + (hi - lo) / 2;
                if mid == lo {
                    break;
                }
                if caught_up(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            return Some(hi);
        }
        if at == end {
            return None;
        }
        prev = Some(at);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(ipc_early: f64, ipc_late: f64, switch: u64, end: u64) -> LogSampler {
        let mut s = LogSampler::new(16);
        let mut v = 0.0;
        let mut c = 0u64;
        while c < end {
            let step = (c / 64).max(1);
            let ipc = if c < switch { ipc_early } else { ipc_late };
            v += ipc * step as f64;
            c += step;
            s.record(c, v);
        }
        s.finish(c, v);
        s
    }

    #[test]
    fn vm_with_startup_lag_catches_up() {
        // Reference: constant IPC 1.0; VM: 0.2 for 100K cycles then 1.1.
        let reference = curve(1.0, 1.0, 0, 100_000_000);
        let vm = curve(0.2, 1.1, 100_000, 100_000_000);
        let be = breakeven_cycles(&reference, &vm).expect("catches up");
        // Analytic: 0.2*1e5 + 1.1*(t-1e5) = t  =>  t = 9e4/0.1 = 900_000.
        assert!(
            (700_000..1_200_000).contains(&be),
            "breakeven ≈ 0.9M cycles, got {be}"
        );
    }

    #[test]
    fn never_catches_up() {
        let reference = curve(1.0, 1.0, 0, 10_000_000);
        let vm = curve(0.5, 0.9, 1000, 10_000_000);
        assert_eq!(breakeven_cycles(&reference, &vm), None);
    }

    #[test]
    fn no_breakeven_after_the_reference_finishes() {
        // The reference retires 1M instructions by 1M cycles and stops;
        // the VM retires the same program at half the rate. It draws
        // level only at its own end (2M cycles), which is a finish time.
        let reference = curve(1.0, 1.0, 0, 1_000_000);
        let vm = curve(0.5, 0.5, 0, 2_000_000);
        assert_eq!(breakeven_cycles(&reference, &vm), None);
    }

    #[test]
    fn equal_curves_break_even_early() {
        let reference = curve(1.0, 1.0, 0, 1_000_000);
        let vm = curve(1.0, 1.0, 0, 1_000_000);
        let be = breakeven_cycles(&reference, &vm).unwrap();
        assert!(be <= 2000, "identical machines break even immediately: {be}");
    }
}
