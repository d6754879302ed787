//! Context-switch scenarios (§3.1 of the paper): after a disruption at
//! mid-run, compare *code-cache startup* (scenario 3 — hardware caches
//! cold, translations survive) against re-entering *memory startup*
//! (scenario 2 — a long context switch also evicted every translation).
//!
//! The second half is the cold-vs-warm *restart* ablation: the process
//! dies at mid-run, but a crash-safe translation-state image was saved
//! moments before. Restarting resumed from that image is measured
//! against restarting cold, with the startup transient quantified by the
//! flight recorder (cycles until windowed IPC reaches 90% of the run's
//! final IPC). Pass `--series` or `--perfetto` to dump both restart
//! flights as `target/figures/context_switch.series.json` /
//! `.trace.json`.

use cdvm_bench::{emit_telemetry, time_to_steady};
use cdvm_core::{Status, System, Telemetry, TelemetryConfig};
use cdvm_uarch::MachineKind;
use cdvm_workloads::{build_app, winstone2004};

fn reference_total(profile_idx: usize, scale: f64) -> u64 {
    let profile = &winstone2004()[profile_idx];
    let wl = build_app(profile, scale);
    let mut probe = System::new(MachineKind::RefSuperscalar, wl.mem, wl.entry);
    assert_eq!(probe.run_to_completion(u64::MAX), Status::Halted);
    probe.x86_retired()
}

fn run(profile_idx: usize, scale: f64, total: u64, disrupt: Option<bool>) -> (u64, u64) {
    let profile = &winstone2004()[profile_idx];
    let wl = build_app(profile, scale);
    let mut sys = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    assert_eq!(sys.run_slice(total / 2), Status::Running);
    match disrupt {
        None => {}
        Some(false) => sys.context_switch_flush(), // scenario 3
        Some(true) => sys.long_context_switch(),   // scenario 2 again
    }
    let mid = sys.cycles();
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    (mid, sys.cycles())
}

/// Where a restart's startup transient ends (see [`time_to_steady`]).
fn steady_point(t: &Telemetry) -> u64 {
    time_to_steady(t.recorder.as_deref().expect("telemetry armed"))
}

/// The restart ablation: first invocation crashes at mid-run; its warm
/// image (saved crash-safely before the crash) either survives to warm
/// the restart, or the restart pays full memory startup again.
fn restart_ablation(profile_idx: usize, scale: f64, total: u64, export: bool) {
    let profile = &winstone2004()[profile_idx];

    // First invocation: runs halfway, then dies. The image below is what
    // a periodic crash-safe save (temp + fsync + atomic rename) would
    // have left on disk.
    let wl = build_app(profile, scale);
    let mut first = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    assert_eq!(first.run_slice(total / 2), Status::Running);
    let image = first.snapshot_bytes();
    drop(first); // the crash

    // Restart cold: every translation is rebuilt from scratch.
    let wl = build_app(profile, scale);
    let mut cold = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    cold.set_telemetry(TelemetryConfig::full());
    assert_eq!(cold.run_to_completion(u64::MAX), Status::Halted);
    let cold_cycles = cold.cycles();
    let retired = cold.x86_retired();
    let cold_flight = cold.take_telemetry();

    // Restart warm: resumed from the image.
    let wl = build_app(profile, scale);
    let mut warm = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
    warm.set_telemetry(TelemetryConfig::full());
    let outcome = warm.restore_image_bytes(&image);
    assert!(
        !outcome.is_cold_boot() && !outcome.is_degraded(),
        "mid-run image must restore cleanly, got {outcome:?}"
    );
    assert_eq!(warm.run_to_completion(u64::MAX), Status::Halted);
    assert_eq!(warm.x86_retired(), retired, "restart must not change guest semantics");
    let warm_cycles = warm.cycles();
    let warm_flight = warm.take_telemetry();

    let cold_steady = steady_point(&cold_flight);
    let warm_steady = steady_point(&warm_flight);
    println!("\ncrash at mid-run, then restart (warm image saved before the crash):\n");
    println!(
        "  cold restart:   {cold_cycles:>12} cycles total, steady IPC at {cold_steady:>10} cycles"
    );
    println!(
        "  warm restart:   {warm_cycles:>12} cycles total, steady IPC at {warm_steady:>10} cycles  \
         ({} sections, {} bytes)",
        outcome.applied,
        image.len()
    );
    println!(
        "  resuming the image removes {:.0}% of the restart's startup transient\n\
         and {:.1}% of total restart cycles.",
        (1.0 - warm_steady as f64 / cold_steady.max(1) as f64) * 100.0,
        (1.0 - warm_cycles as f64 / cold_cycles.max(1) as f64) * 100.0
    );
    assert!(warm_cycles <= cold_cycles, "a warm restart can never cost extra cycles");

    if export {
        emit_telemetry(
            "context_switch",
            [
                ("restart-cold/VM.soft", &cold_flight),
                ("restart-warm/VM.soft", &warm_flight),
            ],
        );
    }
}

fn main() {
    let export = std::env::args().any(|a| a == "--series" || a == "--perfetto");
    let scale = 0.02;
    let total = reference_total(5, scale);
    let (_, plain) = run(5, scale, total, None);
    let (_, cache_flush) = run(5, scale, total, Some(false));
    let (_, evicted) = run(5, scale, total, Some(true));

    println!("Outlook at scale {scale} on VM.soft, disruption at mid-run:\n");
    println!("  undisturbed run:                     {plain:>12} cycles");
    println!(
        "  scenario 3 (caches flushed):         {cache_flush:>12} cycles  (+{})",
        cache_flush - plain
    );
    println!(
        "  scenario 2 (translations evicted):   {evicted:>12} cycles  (+{})",
        evicted - plain
    );
    println!();
    let refill = cache_flush - plain;
    let retrans = evicted - plain;
    println!(
        "re-translation costs {:.1}x the plain cache refill — \"this translation\n\
         time is an additional VM startup overhead\" (§3.1, scenario 2).",
        retrans as f64 / refill.max(1) as f64
    );
    assert!(cache_flush >= plain);
    assert!(evicted > cache_flush, "eviction must cost more than a cache flush");

    restart_ablation(5, scale, total, export);
}
