//! Live heap of a repeated build of the ten stock apps. Every build
//! shares its globals pages copy-on-write with a process-wide template,
//! so once the templates exist a build holds only its code,
//! function-table and schedule pages (the globals are 14 MiB per set).
//!
//! The counting global allocator sees every allocation in this binary,
//! so the binary holds exactly one test.

#![allow(clippy::unwrap_used, clippy::panic)]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cdvm_workloads::{build_app_run, winstone2004};
use counting_alloc::LIVE;

#[test]
fn a_second_app_set_shares_the_globals() {
    const LIMIT: isize = 2 << 20;
    let profiles = winstone2004();
    // The startup benchmark's footprint scale and run length.
    let build = || -> Vec<_> {
        profiles
            .iter()
            .map(|p| build_app_run(p, 0.02, 0.1))
            .collect()
    };
    let first = build();
    let before = LIVE.load(Ordering::Relaxed);
    let second = build();
    let live = LIVE.load(Ordering::Relaxed) - before;
    eprintln!(
        "a second set of {} apps holds {} KiB",
        second.len(),
        live >> 10
    );
    assert!(
        live < LIMIT,
        "a second app set holds {} KiB (limit {})",
        live >> 10,
        LIMIT >> 10
    );
    drop(first);
}
