//! Live heap of a started service: the warm pool keeps golden images,
//! not stamped machines, so once its entries are prepared it holds the
//! images and the shared app memory, and nothing per idle `System`.
//!
//! The counting global allocator sees every allocation in this binary,
//! so the binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::panic)]
#[path = "../../../tests/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cdvm_serve::{ServeConfig, Service};
use cdvm_uarch::MachineKind;
use cdvm_workloads::{build_app_run, winstone2004};
use counting_alloc::LIVE;

#[test]
fn a_started_pool_holds_images_not_machines() {
    const SCALE: f64 = 0.005;
    const LIMIT: isize = 2 << 20;
    let apps: Vec<_> = winstone2004()
        .into_iter()
        .filter(|p| p.name == "Word" || p.name == "Excel")
        .collect();
    assert_eq!(apps.len(), 2);
    // The first build of each size also makes the process-wide globals
    // template, which every later build shares: keep it out of the count.
    for p in &apps {
        drop(build_app_run(p, SCALE, 1.0));
    }
    let catalog = MachineKind::ALL
        .iter()
        .flat_map(|&kind| apps.iter().map(move |p| (kind, p.clone())))
        .collect();
    let before = LIVE.load(Ordering::Relaxed);
    let svc = Service::start(ServeConfig {
        workers: 1,
        scale: SCALE,
        catalog,
        ..ServeConfig::default()
    });
    let live = LIVE.load(Ordering::Relaxed) - before;
    let entries = svc.pool().states();
    eprintln!("{} entries hold {} KiB", entries.len(), live >> 10);
    assert_eq!(entries.len(), 10);
    assert!(
        entries.iter().all(|e| e.image_bytes > 0),
        "every entry prepared a warm image"
    );
    assert!(
        live < LIMIT,
        "a started service holds {} KiB (limit {})",
        live >> 10,
        LIMIT >> 10
    );
    svc.drain(None).unwrap();
}
