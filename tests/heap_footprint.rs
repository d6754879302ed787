//! Per-`System` heap footprint: a `System` should request heap in
//! proportion to the code its guest touches, not to table or code-cache
//! capacities fixed in advance. A warm pool stamps a `System` per job
//! and a batch run builds one per job, so every fixed reservation is
//! paid once per job.
//!
//! The counting global allocator sees every allocation in this binary,
//! so the binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::panic)]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cdvm_core::{System, TelemetryConfig};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app, winstone2004};
use counting_alloc::LIVE;

#[test]
fn system_heap_stays_small() {
    const FRESH_LIMIT: isize = 640 << 10;
    const WARM_LIMIT: isize = 768 << 10;
    let word = winstone2004().into_iter().find(|p| p.name == "Word").unwrap();
    let wl = build_app(&word, 0.005);

    // Live heap a new System holds, optionally after restoring `image`
    // (whose code-cache arenas it then holds). Telemetry armed from the
    // environment is switched off first: it is opt-in and sized by its
    // own configuration.
    let footprint = |kind: MachineKind, image: Option<&[u8]>| {
        let cfg = MachineConfig::preset(kind);
        let mem = wl.mem.clone();
        let before = LIVE.load(Ordering::Relaxed);
        let mut sys = System::with_config(cfg, mem, wl.entry);
        sys.set_telemetry(TelemetryConfig::default());
        if let Some(image) = image {
            let outcome = sys.restore_image_bytes(image);
            assert!(
                !outcome.is_cold_boot() && !outcome.is_degraded(),
                "{kind}: {outcome:?}"
            );
        }
        let live = LIVE.load(Ordering::Relaxed) - before;
        drop(sys);
        live
    };

    // Cold runs first: they also initialize every lazily built table, so
    // none of that lands in a measurement below.
    let images: Vec<(MachineKind, Vec<u8>)> = MachineKind::ALL
        .iter()
        .map(|&kind| {
            let mut sys = System::with_config(MachineConfig::preset(kind), wl.mem.clone(), wl.entry);
            sys.run_to_completion(u64::MAX);
            (kind, sys.snapshot_bytes())
        })
        .collect();

    for (kind, image) in &images {
        let fresh = footprint(*kind, None);
        let warm = footprint(*kind, Some(image));
        eprintln!("{kind}: {} KiB fresh, {} KiB warm", fresh >> 10, warm >> 10);
        assert!(
            fresh < FRESH_LIMIT,
            "{kind}: a fresh System holds {} KiB (limit {})",
            fresh >> 10,
            FRESH_LIMIT >> 10
        );
        assert!(
            warm < WARM_LIMIT,
            "{kind}: a warm-restored System holds {} KiB (limit {})",
            warm >> 10,
            WARM_LIMIT >> 10
        );
    }
}
