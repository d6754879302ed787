//! Tier-1 tests for the crash-safe warm-image subsystem (DESIGN.md
//! §3.10): snapshot idempotence (save → restore → save is
//! byte-identical), restore gating (config, workload, cold-boot, file
//! and reserved-header guards), warm-vs-cold architected-state equality,
//! and the corruption campaign — every [`ImageFault`] mode against every
//! section, asserting salvage-or-cold-boot with structured evidence and
//! never a panic.

#![allow(clippy::unwrap_used, clippy::panic)]

use cdvm_core::{
    image_summary, FaultInjector, ImageFault, RestoreError, Status, System, TelemetryConfig,
    VmError,
};
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app, winstone2004};

const SCALE: f64 = 0.002;
const TRACE_CAPACITY: usize = 1 << 12;

/// The image header and section-table entry sizes (format version 1) —
/// used to reconstruct payload offsets from an [`image_summary`], which
/// reports sections in table order with their lengths.
const HEADER_BYTES: usize = 28;
const ENTRY_BYTES: usize = 28;

fn fresh(kind: MachineKind, profile_idx: usize) -> System {
    let wl = build_app(&winstone2004()[profile_idx], SCALE);
    System::with_config(MachineConfig::preset(kind), wl.mem, wl.entry)
}

/// Runs one workload to completion and returns its warm image plus the
/// final architected observables the warm run must reproduce.
fn warm_image(kind: MachineKind, profile_idx: usize) -> (Vec<u8>, u64, cdvm_x86::Cpu) {
    let mut sys = fresh(kind, profile_idx);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    let retired = sys.x86_retired();
    let cpu = sys.cpu();
    (sys.snapshot_bytes(), retired, cpu)
}

#[test]
fn save_restore_save_is_byte_identical() {
    // Idempotence on every machine kind, including the VM-less
    // reference machine (whose image carries only meta + sets).
    for kind in [
        MachineKind::RefSuperscalar,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
        MachineKind::VmInterp,
    ] {
        let (img, _, _) = warm_image(kind, 3);
        let mut sys = fresh(kind, 3);
        let out = sys.restore_image_bytes(&img);
        assert!(!out.is_cold_boot(), "{kind:?}: restore must apply");
        assert_eq!(out.dropped, 0, "{kind:?}: nothing to salvage around");
        assert_eq!(out.error, None, "{kind:?}: clean image restores cleanly");
        let img2 = sys.snapshot_bytes();
        assert_eq!(img, img2, "{kind:?}: save -> restore -> save must be byte-identical");
    }
}

#[test]
fn warm_restore_reaches_identical_architected_state() {
    // The warm run executes the same guest with translations
    // pre-installed: fewer cycles, identical architecture.
    for kind in [MachineKind::VmSoft, MachineKind::VmBe, MachineKind::VmInterp] {
        let (img, cold_retired, cold_cpu) = warm_image(kind, 3);
        let mut warm = fresh(kind, 3);
        let out = warm.restore_image_bytes(&img);
        assert!(!out.is_cold_boot() && !out.is_degraded(), "{kind:?}: {out:?}");
        assert_eq!(warm.run_to_completion(u64::MAX), Status::Halted, "{kind:?}");
        assert_eq!(warm.x86_retired(), cold_retired, "{kind:?}: retired count");
        assert_eq!(warm.cpu().gpr, cold_cpu.gpr, "{kind:?}: final registers");
        assert_eq!(warm.cpu().eip, cold_cpu.eip, "{kind:?}: final eip");
    }
}

#[test]
fn restore_gates_reject_mismatched_and_late_restores() {
    let (img, _, _) = warm_image(MachineKind::VmSoft, 3);

    // Config gate: an image saved under VM.soft cannot warm a VM.be.
    let mut other = fresh(MachineKind::VmBe, 3);
    let out = other.restore_image_bytes(&img);
    assert_eq!(out.error, Some(RestoreError::ConfigMismatch));
    assert!(out.is_cold_boot());
    assert_eq!(other.run_to_completion(u64::MAX), Status::Halted);

    // Workload gate: same machine, different guest code bytes.
    let mut patched = fresh(MachineKind::VmSoft, 3);
    {
        use cdvm_mem::Memory;
        let entry = patched.cpu().eip;
        let b = patched.mem.read_u8(entry);
        patched.mem.write_u8(entry, b ^ 0x01);
    }
    let out = patched.restore_image_bytes(&img);
    assert_eq!(out.error, Some(RestoreError::WorkloadMismatch));

    // Cold-boot gate: nothing may have executed yet.
    let mut late = fresh(MachineKind::VmSoft, 3);
    late.run_slice(64);
    let out = late.restore_image_bytes(&img);
    assert_eq!(out.error, Some(RestoreError::NotColdBoot));

    // File gate: an unreadable image degrades to a cold boot.
    let mut nofile = fresh(MachineKind::VmSoft, 3);
    let out = nofile.restore_image(std::path::Path::new("/nonexistent/warm.cdvmimg"));
    assert_eq!(out.error, Some(RestoreError::ReadFailed));
    assert_eq!(nofile.run_to_completion(u64::MAX), Status::Halted);

    // Reserved-header gate: the words after the version (a delta flag
    // and parent checksum in older writers) must be zero.
    for at in [12, 16] {
        let mut flagged = img.clone();
        flagged[at] = 1;
        let mut sys = fresh(MachineKind::VmSoft, 3);
        let out = sys.restore_image_bytes(&flagged);
        assert_eq!(out.error, Some(RestoreError::Malformed), "byte {at}");
        assert!(out.is_cold_boot(), "byte {at}");
        assert_eq!(sys.stats.restore_failed, 1, "byte {at}");
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted, "byte {at}");
    }
}

#[test]
fn atomic_file_save_round_trips() {
    let dir = std::env::temp_dir().join(format!("cdvm-snapres-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.cdvmimg");

    let mut sys = fresh(MachineKind::VmSoft, 0);
    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
    sys.save_image(&path).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, sys.snapshot_bytes());

    let mut warm = fresh(MachineKind::VmSoft, 0);
    let out = warm.restore_image(&path);
    assert!(!out.is_cold_boot() && !out.is_degraded(), "{out:?}");
    assert_eq!(warm.run_to_completion(u64::MAX), Status::Halted);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_section_survives_targeted_corruption() {
    // Flip a payload byte in each section in turn: meta damage must
    // cold-boot (nothing else can be trusted), everything else must be
    // dropped by salvage while the rest applies — and the guest always
    // completes.
    let (img, cold_retired, _) = warm_image(MachineKind::VmSoft, 3);
    let summary = image_summary(&img).unwrap();
    let mut offset = HEADER_BYTES + ENTRY_BYTES * summary.sections.len();
    for info in &summary.sections {
        let name = info.name();
        if info.len == 0 {
            continue;
        }
        let mut bad = img.clone();
        bad[offset] ^= 0x40;
        offset += info.len as usize;

        let mut sys = fresh(MachineKind::VmSoft, 3);
        sys.set_telemetry(TelemetryConfig {
            trace: Some(TRACE_CAPACITY),
            recorder: None,
        });
        let out = sys.restore_image_bytes(&bad);
        assert!(out.error.is_some(), "{name}: damage must surface");
        if name == "meta" {
            assert!(out.is_cold_boot(), "{name}: gate section falls back cold");
            assert_eq!(sys.stats.restore_failed, 1);
            assert_eq!(sys.stats.restores, 0);
        } else {
            assert!(out.dropped >= 1, "{name}: damaged section dropped, got {out:?}");
            assert!(out.applied >= 1, "{name}: intact sections salvaged");
            assert_eq!(sys.stats.restores, 1, "{name}");
            assert_eq!(
                sys.stats.restore_degraded,
                u64::from(out.dropped),
                "{name}: stats-visible degradation"
            );
        }
        assert!(
            matches!(sys.last_vm_error(), Some(VmError::Restore(_))),
            "{name}: structured error recorded"
        );
        let trace_has_restore_event = sys
            .trace()
            .map(|buf| {
                buf.iter().any(|r| {
                    let k = r.event.kind();
                    k == "restore_applied" || k == "restore_failed"
                })
            })
            .unwrap_or(false);
        assert!(trace_has_restore_event, "{name}: trace evidence present");
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted, "{name}");
        assert_eq!(sys.x86_retired(), cold_retired, "{name}: guest unaffected");
    }
}

#[test]
fn random_corruption_campaign_never_panics() {
    let (img, cold_retired, _) = warm_image(MachineKind::VmSoft, 3);
    let mut inj = FaultInjector::new(0x5eed_cafe);
    for round in 0..4 {
        for kind in ImageFault::ALL {
            let mut bad = img.clone();
            let report = inj.corrupt_image(&mut bad, kind);
            let mut sys = fresh(MachineKind::VmSoft, 3);
            let out = sys.restore_image_bytes(&bad);
            if out.is_cold_boot() {
                assert!(out.error.is_some(), "round {round}, {report}: cause named");
                assert!(
                    matches!(sys.last_vm_error(), Some(VmError::Restore(_))),
                    "round {round}, {report}"
                );
                assert_eq!(sys.stats.restore_failed, 1, "round {round}, {report}");
            }
            // Whatever happened to the image, the guest still runs to its
            // architected end with the right result.
            assert_eq!(
                sys.run_to_completion(u64::MAX),
                Status::Halted,
                "round {round}, {report}"
            );
            assert_eq!(
                sys.x86_retired(),
                cold_retired,
                "round {round}, {report}: corruption must never change guest semantics"
            );
        }
    }
}

#[test]
fn image_summary_reports_layout() {
    let (img, _, _) = warm_image(MachineKind::VmSoft, 3);
    let s = image_summary(&img).unwrap();
    assert_eq!(s.version, 1);
    assert!(s.whole_ok);
    assert_eq!(s.total_bytes, img.len());
    let names: Vec<&str> = s.sections.iter().map(|i| i.name()).collect();
    assert_eq!(
        names,
        vec![
            "meta",
            "bbt_cache",
            "sbt_cache",
            "bbt_table",
            "sbt_table",
            "blocks",
            "counters",
            "edges",
            "credits",
            "chains",
            "sets"
        ],
        "a VM image carries every section in canonical order"
    );
    assert!(s.sections.iter().all(|i| i.checksum_ok));

    // The reference machine's image carries only the gate and the sets.
    let (ref_img, _, _) = warm_image(MachineKind::RefSuperscalar, 3);
    let rs = image_summary(&ref_img).unwrap();
    let ref_names: Vec<&str> = rs.sections.iter().map(|i| i.name()).collect();
    assert_eq!(ref_names, vec!["meta", "sets"]);
}

#[test]
fn concurrent_restores_from_one_image_file_agree() {
    // The serve-layer warm pool restores many instances from one golden
    // image, potentially on several workers at once. Restoring the same
    // image file concurrently into independent fresh systems must be
    // clean on every thread and reach the same architected end.
    let kind = MachineKind::VmSoft;
    let (img, cold_retired, cold_cpu) = warm_image(kind, 3);
    let dir = std::env::temp_dir().join(format!("cdvm-snapres-conc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.cdvmimg");
    {
        let mut sys = fresh(kind, 3);
        assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
        sys.save_image(&path).unwrap();
    }

    let results: Vec<(u64, [u32; 8], u32)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                s.spawn(move || {
                    let mut sys = fresh(kind, 3);
                    let out = sys.restore_image(&path);
                    assert!(
                        !out.is_cold_boot() && !out.is_degraded(),
                        "concurrent restore stays clean: {out:?}"
                    );
                    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
                    (sys.x86_retired(), sys.cpu().gpr, sys.cpu().eip)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (retired, gpr, eip) in results {
        assert_eq!(retired, cold_retired, "every thread retires the cold count");
        assert_eq!(gpr, cold_cpu.gpr, "every thread ends in the cold registers");
        assert_eq!(eip, cold_cpu.eip, "every thread ends at the cold eip");
    }

    // And the bytes on disk equal the in-memory golden image: the file
    // readers shared it without tearing it.
    assert_eq!(std::fs::read(&path).unwrap(), img);
    std::fs::remove_dir_all(&dir).unwrap();
}
