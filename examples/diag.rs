//! Development diagnostic: per-machine execution-mix dump for one app.
//!
//! `--trace` enables the VM event trace and prints a human-readable
//! timeline (first [`TIMELINE_CAP`] events plus per-kind totals) and the
//! per-phase cycle table after each run. `--series` / `--perfetto` arm
//! the flight recorder, print its histogram summaries, and dump
//! `target/figures/diag.series.json` + `diag.trace.json` (the latter
//! loads in <https://ui.perfetto.dev>).
use cdvm_bench::emit_telemetry;
use cdvm_core::vm::TransKind;
use cdvm_core::{Phase, Status, System, TelemetryConfig};
use cdvm_uarch::{CycleCat, MachineKind};
use cdvm_workloads::{build_app_run, winstone2004};

/// Max timeline rows printed before eliding (the ring holds far more).
const TIMELINE_CAP: usize = 200;

fn print_trace(sys: &System) {
    let Some(buf) = sys.trace() else {
        return;
    };
    println!("   -- event timeline ({} recorded, {} dropped) --", buf.recorded(), buf.dropped());
    for (i, rec) in buf.iter().enumerate() {
        if i >= TIMELINE_CAP {
            println!("   ... ({} more events in buffer)", buf.len() - TIMELINE_CAP);
            break;
        }
        println!("   [{:>12}] #{:<6} {}", rec.cycle, rec.seq, rec.event);
    }
    let mut kinds: Vec<(&'static str, u64)> = buf.kind_counts().into_iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("   -- event totals --");
    for (kind, n) in kinds {
        println!("   {kind:<20} {n}");
    }
}

fn print_phases(sys: &mut System) {
    let phases = sys.phase_snapshot();
    let total: f64 = phases.iter().map(|p| p.to_f64()).sum();
    println!("   -- phase cycles (sum {:.0}) --", total);
    for p in Phase::ALL {
        let v = phases[p as usize].to_f64();
        if v > 0.0 {
            println!("   {:<16} {:>14.0} ({:.1}%)", p.name(), v, 100.0 * v / total.max(1.0));
        }
    }
}

fn print_recorder(sys: &System) {
    let Some(rec) = sys.recorder() else {
        return;
    };
    println!(
        "   -- flight recorder ({} windows of {} cycles, {} phase segments) --",
        rec.windows().len(),
        rec.window_cycles(),
        rec.segments_recorded()
    );
    for (name, h) in [
        ("bbt_latency", rec.latency_histogram(TransKind::Bbt)),
        ("sbt_latency", rec.latency_histogram(TransKind::Sbt)),
        ("bbt_block_insts", rec.block_size_histogram(TransKind::Bbt)),
        ("sbt_block_insts", rec.block_size_histogram(TransKind::Sbt)),
        ("chains/episode", rec.chain_histogram()),
    ] {
        if h.is_empty() {
            continue;
        }
        println!(
            "   {name:<18} n={:<7} p50={:<8} p90={:<8} p99={:<8} max={}",
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let export = args.iter().any(|a| a == "--series" || a == "--perfetto");
    args.retain(|a| a != "--trace" && a != "--series" && a != "--perfetto");
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.01);
    let lmult: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5.0);
    let profile = &winstone2004()[8]; // Winzip
    let thr: u32 = std::env::var("THR").ok().and_then(|s| s.parse().ok()).unwrap_or(8000);
    let mut flights = Vec::new();
    for kind in [MachineKind::RefSuperscalar, MachineKind::VmSoft] {
        let wl = build_app_run(profile, scale, lmult);
        let mut cfg = cdvm_uarch::MachineConfig::preset(kind);
        cfg.hot_threshold = thr;
        let mut sys = System::with_config(cfg, wl.mem, wl.entry);
        if trace || export {
            // `--trace` prints the event ring; the exports also need the
            // flight recorder.
            let full = TelemetryConfig::full();
            sys.set_telemetry(TelemetryConfig {
                recorder: full.recorder.filter(|_| export),
                ..full
            });
        }
        let st = sys.run_to_completion(u64::MAX);
        assert_eq!(st, Status::Halted);
        println!("== {kind} cycles={} insts={} ipc={:.3}", sys.cycles(), sys.x86_retired(),
                 sys.x86_retired() as f64 / sys.cycles() as f64);
        println!("   coverage={:.3} bbt_ret={} sbt_ret={} x86mode={}",
                 sys.hotspot_coverage(), sys.stats.bbt_retired, sys.stats.sbt_retired, sys.stats.x86_mode_retired);
        for c in CycleCat::ALL {
            let f = sys.category_fraction(c);
            if f > 0.001 { println!("   {c:?}: {:.1}%", f*100.0); }
        }
        if let Some(vm) = sys.vm.as_ref() {
            println!("   vmstats: {:?}", vm.stats);
            println!("   vm_exits={:?} total={} mode_switches={}", sys.stats.vm_exit_kinds, sys.stats.vm_exits, sys.stats.mode_switches);
            println!("   uop fused frac (sbt): {:.3}", vm.stats.sbt_fused_uops as f64 / vm.stats.sbt_uops.max(1) as f64);
            println!("   bbt uops/inst: {:.2}  sbt uops/inst: {:.2}",
                     vm.stats.bbt_uops as f64 / vm.stats.bbt_x86_insts.max(1) as f64,
                     vm.stats.sbt_uops as f64 / vm.stats.sbt_x86_insts.max(1) as f64);
        }
        if trace {
            print_phases(&mut sys);
            print_trace(&sys);
        }
        if export {
            print_recorder(&sys);
            flights.push((format!("{kind}/{}", profile.name), sys.take_telemetry()));
        }
        // tail IPC over second half
        let wl2 = build_app_run(profile, scale, lmult);
        let mut cfg2 = cdvm_uarch::MachineConfig::preset(kind);
        cfg2.hot_threshold = thr;
        let mut sys2 = System::with_config(cfg2, wl2.mem, wl2.entry);
        sys2.run_slice(wl2.approx_dynamic / 2);
        let (c0, i0) = (sys2.cycles(), sys2.x86_retired());
        sys2.run_to_completion(u64::MAX);
        println!("   tail ipc: {:.3}", (sys2.x86_retired() - i0) as f64 / (sys2.cycles() - c0) as f64);
    }
    if export {
        emit_telemetry("diag", flights.iter().map(|(label, t)| (label, t)));
    }
}
