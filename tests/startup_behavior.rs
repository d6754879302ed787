//! Startup-behaviour invariants: the qualitative claims of the paper's
//! evaluation must hold on a mid-sized generated workload.


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_core::{Status, System};
use cdvm_stats::{breakeven_cycles, LogSampler};
use cdvm_uarch::{CycleCat, MachineKind};
use cdvm_workloads::{build_app, build_app_run, winstone2004};

const SCALE: f64 = 0.01; // ~1M-instruction runs: fast but structured

fn curve(kind: MachineKind) -> (System, LogSampler) {
    let wl = build_app(&winstone2004()[4], SCALE); // Norton
    let mut sys = System::new(kind, wl.mem, wl.entry);
    let mut sampler = LogSampler::new(16);
    loop {
        let st = sys.run_slice(2000);
        sampler.record(sys.cycles(), sys.x86_retired() as f64);
        if st != Status::Running {
            break;
        }
    }
    sampler.finish(sys.cycles(), sys.x86_retired() as f64);
    (sys, sampler)
}

#[test]
fn startup_ordering_and_overheads() {
    let (ref_sys, ref_curve) = curve(MachineKind::RefSuperscalar);
    let (soft_sys, soft_curve) = curve(MachineKind::VmSoft);
    let (be_sys, be_curve) = curve(MachineKind::VmBe);
    let (fe_sys, fe_curve) = curve(MachineKind::VmFe);

    // 1. Early in the run the software VM lags the reference badly
    //    (Fig. 2: at 1M cycles the baseline VM has executed ~1/4 the
    //    instructions of the reference).
    let probe = 200_000;
    let r = ref_curve.value_at(probe).unwrap_or(0.0);
    let s = soft_curve.value_at(probe).unwrap_or(0.0);
    assert!(
        s < 0.8 * r,
        "VM.soft must lag the reference early: {s} vs {r}"
    );

    // 2. The assists shrink the lag (Fig. 8): at the same probe point the
    //    assisted VMs retire more than VM.soft.
    let b = be_curve.value_at(probe).unwrap_or(0.0);
    let f = fe_curve.value_at(probe).unwrap_or(0.0);
    assert!(b > s, "VM.be ahead of VM.soft at {probe}: {b} vs {s}");
    assert!(f > s, "VM.fe ahead of VM.soft at {probe}: {f} vs {s}");
    // VM.fe tracks the reference closely in cold code.
    assert!(
        f > 0.85 * r,
        "VM.fe follows the reference startup curve: {f} vs {r}"
    );

    // 3. Breakeven (Fig. 9): VM.fe catches up with the reference while
    //    it is still running. On this short trace VM.be and VM.soft
    //    finish after the reference, so neither breaks even within it;
    //    VM.be still finishes first.
    assert!(
        breakeven_cycles(&ref_curve, &fe_curve).is_some(),
        "VM.fe breaks even within the trace"
    );
    assert!(
        be_sys.cycles() < soft_sys.cycles(),
        "VM.be finishes before VM.soft: {} vs {}",
        be_sys.cycles(),
        soft_sys.cycles()
    );

    // 4. BBT translation overhead fraction ordering (Fig. 10 / §5.3:
    //    9.9% software vs 2.7% hardware-assisted).
    let soft_frac = soft_sys.category_fraction(CycleCat::BbtXlate);
    let be_frac = be_sys.category_fraction(CycleCat::BbtXlate);
    assert!(
        soft_frac > 2.0 * be_frac,
        "XLTx86 must cut BBT overhead substantially: soft {soft_frac:.4} vs be {be_frac:.4}"
    );
    assert_eq!(fe_sys.category_fraction(CycleCat::BbtXlate), 0.0);

    // 5. Decoder-activity ordering (Fig. 11): Ref ≈ 1, VM.fe cold-heavy,
    //    VM.be small, VM.soft zero.
    let act = |sys: &System| sys.timing.decoder_active_cycles() / sys.timing.cycles_f();
    assert!(act(&ref_sys) > 0.99);
    assert!(act(&fe_sys) > act(&be_sys), "fe decodes all cold code");
    assert!(act(&be_sys) > 0.0, "XLTx86 was active");
    assert_eq!(soft_sys.timing.decoder_active_cycles(), 0.0);
}

#[test]
fn steady_state_vm_beats_reference_on_hot_loops() {
    // Long-running, loop-dominated workload: after startup the VM's
    // fused macro-ops win (the paper's +8% steady state). Use a hot
    // profile and measure tail IPC (instructions/cycles over the last
    // half of the run).
    let tail_rate = |kind: MachineKind| {
        // Winzip's app at small footprint, run long enough that the
        // working set is promoted and the tail is SBT-dominated. The
        // threshold is scaled with the (shortened) trace the same way
        // the eq2 harness scales it, so the steady-state *code quality*
        // is what this test measures.
        let wl = build_app_run(&winstone2004()[8], 0.004, 40.0);
        let mut cfg = cdvm_uarch::MachineConfig::preset(kind);
        cfg.hot_threshold = 1500;
        let mut sys = System::with_config(cfg, wl.mem, wl.entry);
        // First half: warm up.
        let st = sys.run_slice(wl.approx_dynamic / 2);
        assert_eq!(st, Status::Running, "warm-up should not finish the run");
        let c0 = sys.cycles();
        let i0 = sys.x86_retired();
        sys.run_to_completion(u64::MAX);
        (sys.x86_retired() - i0) as f64 / (sys.cycles() - c0) as f64
    };
    let r = tail_rate(MachineKind::RefSuperscalar);
    let v = tail_rate(MachineKind::VmSoft);
    let gain = v / r;
    assert!(
        gain > 1.0,
        "steady-state VM IPC must exceed the reference: gain {gain:.3}"
    );
    assert!(
        gain < 1.35,
        "steady-state gain should be modest (paper ≈ +8%): gain {gain:.3}"
    );
}

#[test]
fn hotspot_coverage_grows_with_run_length() {
    let coverage = |length_mult: f64| {
        // Same app (fixed footprint), different trace lengths — the
        // paper's comparison between its 100M and 500M runs.
        let wl = build_app_run(&winstone2004()[1], 0.01, length_mult);
        let mut sys = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
        sys.run_to_completion(u64::MAX);
        sys.hotspot_coverage()
    };
    let short = coverage(1.0);
    let long = coverage(5.0);
    assert!(
        long > short,
        "coverage rises with run length (63% @100M → 75+% @500M in the paper): {short:.3} vs {long:.3}"
    );
}
