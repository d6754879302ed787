//! Service-level chaos campaign.
//!
//! Drives the fleet service through worker kills, injected job panics,
//! corrupted warm images (every `ImageFault` mode), deadline expiry,
//! overload bursts, cancellation and drain — and audits the lifecycle
//! invariants after each storm:
//!
//! * no admitted job is lost (every one reaches a terminal state);
//! * no job is duplicated (`double_terminal` stays zero and the
//!   terminal counters add up to the admitted count);
//! * completed results are bit-identical to the batch harness
//!   (`run_jobs`) — warm or cold, retries or not — and a warm job's
//!   cycles equal a batch warm run's (`run_cold_warm`);
//! * the degradation ladder holds: warm stamp → cold boot (breaker) →
//!   shed at admission, never a wrong answer.

#![allow(clippy::unwrap_used, clippy::panic)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use cdvm_bench::{run_cold_warm, run_jobs};
use cdvm_core::{FaultInjector, ImageFault};
use cdvm_serve::{
    JobSpec, JobState, OverloadScope, PoolConfig, ServeConfig, ServeError, Service, SloConfig,
    SloKind, SloState, WarmLevel,
};
use cdvm_stats::MetricValue;
use cdvm_uarch::MachineKind;
use cdvm_workloads::{winstone2004, AppProfile};

const SCALE: f64 = 0.005;
const WAIT: Duration = Duration::from_secs(120);

/// SLO windows shrunk so the chaos campaign can watch an alert fire
/// *and* clear within a test's lifetime (slow window = 8 × 50 ms).
fn test_slo() -> SloConfig {
    SloConfig {
        bucket_ms: 50,
        fast_buckets: 2,
        slow_buckets: 8,
        fast_burn: 2.0,
        slow_burn: 1.0,
        error_rate_target: 0.9,
        ..SloConfig::default()
    }
}

fn slo_state(svc: &Service, kind: SloKind) -> SloState {
    svc.slo()
        .into_iter()
        .find(|s| s.kind == kind)
        .expect("objective registered")
}

fn catalog(machines: &[MachineKind], apps: &[&str]) -> Vec<(MachineKind, AppProfile)> {
    let profiles = winstone2004();
    let mut out = Vec::new();
    for m in machines {
        for app in apps {
            let p = profiles
                .iter()
                .find(|p| p.name == *app)
                .expect("app exists in catalog");
            out.push((*m, p.clone()));
        }
    }
    out
}

fn config(machines: &[MachineKind], apps: &[&str]) -> ServeConfig {
    ServeConfig {
        workers: 2,
        scale: SCALE,
        catalog: catalog(machines, apps),
        global_queue_cap: 256,
        tenant_queue_cap: 256,
        // The CI neutrality check re-runs this campaign with
        // `CDVM_SPANS=0`: every invariant must hold with span
        // recording disarmed too.
        spans: cdvm_core::trace::env_switch("CDVM_SPANS", true),
        ..ServeConfig::default()
    }
}

/// The batch harness's ground truth for the same catalog:
/// `(machine, app) → (cycles, x86_retired)`.
fn batch_truth(
    machines: &[MachineKind],
    apps: &[&str],
) -> HashMap<(MachineKind, String), (u64, u64)> {
    let matrix = run_jobs(catalog(machines, apps), SCALE, 1.0);
    assert!(
        matrix.is_complete(),
        "batch reference run must not drop jobs"
    );
    matrix
        .results
        .iter()
        .map(|r| ((r.kind, r.app.clone()), (r.cycles, r.x86_retired)))
        .collect()
}

fn wait_terminal(svc: &Service, id: u64) -> JobState {
    let st = svc.wait(id, WAIT).expect("job exists");
    assert!(st.is_terminal(), "job {id} still {} after {WAIT:?}", st.name());
    st
}

fn health_u64(svc: &Service, key: &str) -> u64 {
    match svc.health().get(key) {
        Some(MetricValue::U64(v)) => *v,
        other => panic!("health[{key}] = {other:?}"),
    }
}

/// Asserts the exactly-once audit over a finished set of jobs: terminal
/// counters add up and no double terminal transition was ever refused.
fn audit(svc: &Service, admitted: u64) {
    let total = health_u64(svc, "completed")
        + health_u64(svc, "failed")
        + health_u64(svc, "expired")
        + health_u64(svc, "cancelled");
    assert_eq!(
        total, admitted,
        "every admitted job gets exactly one terminal state"
    );
    assert_eq!(
        health_u64(svc, "double_terminal"),
        0,
        "no double terminal transitions"
    );
}

#[test]
fn warm_and_cold_service_match_batch_results() {
    let machines = [MachineKind::VmSoft, MachineKind::VmBe];
    let apps = ["Word", "Excel"];
    let truth = batch_truth(&machines, &apps);
    // The batch warm run of each pair: cold to its end, then warm from
    // that run's image, as the pool prepares and stamps its images.
    let warm_truth: HashMap<(MachineKind, String), u64> = catalog(&machines, &apps)
        .iter()
        .map(|(m, p)| ((*m, p.name.to_string()), run_cold_warm(*m, p, SCALE).warm_cycles))
        .collect();
    let (mut cold_total, mut warm_total) = (0, 0);

    // Cold lane: no warm pool — results must be bit-identical to the
    // batch harness in both cycles and retired instructions.
    let cold = Service::start(ServeConfig {
        pool: PoolConfig {
            warm: false,
            ..PoolConfig::default()
        },
        ..config(&machines, &apps)
    });
    let mut cold_fnv = HashMap::new();
    for m in &machines {
        for app in &apps {
            let id = cold.submit(JobSpec::new("t0", app, *m)).expect("admitted");
            match wait_terminal(&cold, id) {
                JobState::Completed(out) => {
                    let (cycles, retired) = truth[&(*m, app.to_string())];
                    assert_eq!(out.warm, WarmLevel::Cold);
                    assert_eq!(out.cycles, cycles, "cold cycles identical ({m}, {app})");
                    assert_eq!(out.x86_retired, retired, "cold retired identical ({m}, {app})");
                    cold_fnv.insert((*m, app.to_string()), out.arch_fnv);
                    cold_total += out.cycles;
                }
                st => panic!("cold job ended {st:?}"),
            }
        }
    }
    audit(&cold, (machines.len() * apps.len()) as u64);

    // Warm lane: a warm run skips modeled translation startup work (the
    // whole point of the paper), so its cycles are the batch warm run's,
    // not the cold run's — but the architected outcome must be
    // identical: retired count and final register state.
    let warm = Service::start(config(&machines, &apps));
    for m in &machines {
        for app in &apps {
            let id = warm.submit(JobSpec::new("t0", app, *m)).expect("admitted");
            match wait_terminal(&warm, id) {
                JobState::Completed(out) => {
                    let (_, retired) = truth[&(*m, app.to_string())];
                    assert_eq!(out.warm, WarmLevel::Warm, "healthy image serves warm");
                    assert_eq!(
                        out.cycles,
                        warm_truth[&(*m, app.to_string())],
                        "warm cycles identical to the batch warm run ({m}, {app})"
                    );
                    warm_total += out.cycles;
                    assert_eq!(out.x86_retired, retired, "warm retired identical ({m}, {app})");
                    assert_eq!(
                        out.arch_fnv,
                        cold_fnv[&(*m, app.to_string())],
                        "warm architected state identical ({m}, {app})"
                    );
                }
                st => panic!("warm job ended {st:?}"),
            }
        }
    }
    audit(&warm, (machines.len() * apps.len()) as u64);
    // Over the catalog, serving from warm images must cost fewer modeled
    // cycles than cold boots (on VM.be alone a warm restore costs more;
    // VM.soft's skipped BBT work outweighs that).
    assert!(
        warm_total < cold_total,
        "warm jobs took {warm_total} modeled cycles against {cold_total} cold"
    );
}

#[test]
fn worker_kills_lose_no_jobs() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word", "Excel"];
    let truth = batch_truth(&machines, &apps);
    let svc = Arc::new(Service::start(ServeConfig {
        workers: 3,
        ..config(&machines, &apps)
    }));

    let mut ids = Vec::new();
    for i in 0..30 {
        let app = apps[i % apps.len()];
        let tenant = format!("tenant{}", i % 3);
        ids.push(
            svc.submit(JobSpec::new(&tenant, app, MachineKind::VmSoft))
                .expect("admitted"),
        );
    }
    // Storm: kill every worker, several times, while the backlog drains.
    for round in 0..4u64 {
        for w in 0..3 {
            assert!(svc.kill_worker(w));
        }
        std::thread::sleep(Duration::from_millis(10 * (round + 1)));
    }

    let (_, retired_word) = truth[&(MachineKind::VmSoft, "Word".to_string())];
    let (_, retired_excel) = truth[&(MachineKind::VmSoft, "Excel".to_string())];
    for (i, id) in ids.iter().enumerate() {
        match wait_terminal(&svc, *id) {
            JobState::Completed(out) => {
                let want = if i % 2 == 0 { retired_word } else { retired_excel };
                assert_eq!(out.x86_retired, want, "job {id} retired identical after kills");
            }
            st => panic!("job {id} ended {st:?} under worker kills"),
        }
    }
    assert!(health_u64(&svc, "worker_deaths") >= 1, "kills actually landed");
    audit(&svc, ids.len() as u64);
}

#[test]
fn injected_panics_retry_then_poison() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(config(&machines, &apps));

    // One injected panic: the retry (with backoff) completes the job.
    let mut flaky = JobSpec::new("flaky", "Word", MachineKind::VmSoft);
    flaky.chaos_panic_attempts = 1;
    let id = svc.submit(flaky).expect("admitted");
    match wait_terminal(&svc, id) {
        JobState::Completed(out) => {
            assert_eq!(out.attempts, 2, "first attempt panicked, second completed");
        }
        st => panic!("flaky job ended {st:?}"),
    }
    assert!(health_u64(&svc, "retries") >= 1);

    // A deterministic crasher: exhausts its attempts, goes terminal
    // exactly once, and poisons its signature.
    let mut crasher = JobSpec::new("crash", "Word", MachineKind::VmSoft);
    crasher.chaos_panic_attempts = u32::MAX;
    let id = svc.submit(crasher.clone()).expect("admitted");
    match wait_terminal(&svc, id) {
        JobState::Failed { message, attempts } => {
            assert_eq!(attempts, 3, "default max_attempts consumed");
            assert!(message.contains("chaos"), "panic payload surfaced: {message}");
        }
        st => panic!("crasher ended {st:?}"),
    }
    // Resubmission of the poisoned signature fails fast: no retries, no
    // execution, no retry storm.
    let id = svc.submit(crasher).expect("admitted (then fails fast)");
    match wait_terminal(&svc, id) {
        JobState::Failed { message, attempts } => {
            assert_eq!(attempts, 1, "poisoned signature never retries");
            assert!(message.contains("poisoned"), "fail-fast reason: {message}");
        }
        st => panic!("poisoned resubmission ended {st:?}"),
    }
    // An innocent job with a different signature still completes.
    let id = svc
        .submit(JobSpec::new("innocent", "Word", MachineKind::VmSoft))
        .expect("admitted");
    assert!(matches!(wait_terminal(&svc, id), JobState::Completed(_)));
    audit(&svc, 4);
}

#[test]
fn poison_expires_into_a_probe_and_clears_by_admin() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(ServeConfig {
        poison_ttl_ms: 100,
        ..config(&machines, &apps)
    });

    // A deterministic crasher poisons its signature.
    let mut crasher = JobSpec::new("crash", "Word", MachineKind::VmSoft);
    crasher.chaos_panic_attempts = u32::MAX;
    let id = svc.submit(crasher.clone()).expect("admitted");
    assert!(matches!(
        wait_terminal(&svc, id),
        JobState::Failed { attempts: 3, .. }
    ));

    // Past the TTL the next same-signature job runs as a half-open
    // probe instead of failing fast; a clean probe un-poisons.
    std::thread::sleep(Duration::from_millis(150));
    let id = svc
        .submit(JobSpec::new("crash", "Word", MachineKind::VmSoft))
        .expect("admitted");
    match wait_terminal(&svc, id) {
        JobState::Completed(out) => assert_eq!(out.attempts, 1, "probe ran, not fail-fast"),
        st => panic!("probe job ended {st:?}"),
    }

    // A failed probe re-poisons: the crasher burns its attempts again
    // (it is not fail-fasted — the signature was cleared)...
    let id = svc.submit(crasher).expect("admitted");
    assert!(matches!(
        wait_terminal(&svc, id),
        JobState::Failed { attempts: 3, .. }
    ));
    // ... and the admin override un-poisons without waiting the TTL.
    assert_eq!(svc.clear_poison(None), 1, "one poisoned signature cleared");
    let id = svc
        .submit(JobSpec::new("crash", "Word", MachineKind::VmSoft))
        .expect("admitted");
    assert!(matches!(wait_terminal(&svc, id), JobState::Completed(_)));
    // Clearing an unknown signature is a counted no-op.
    assert_eq!(svc.clear_poison(Some("nobody/None/VmSoft")), 0);
    audit(&svc, 4);
}

#[test]
fn terminal_records_are_evicted_past_retention() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(ServeConfig {
        terminal_retention: 4,
        ..config(&machines, &apps)
    });
    let ids: Vec<u64> = (0..8)
        .map(|_| {
            svc.submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
                .expect("admitted")
        })
        .collect();
    // Quiesce (drain waits for every job's terminal state) so eviction
    // for all eight completions has happened.
    svc.drain(None).expect("drain without persistence");
    let retained = ids.iter().filter(|id| svc.status(**id).is_some()).count();
    assert_eq!(retained, 4, "only the newest terminal records remain");
    for id in ids.iter().filter(|id| svc.status(**id).is_some()) {
        assert!(matches!(svc.status(*id), Some(st) if st.is_terminal()));
    }
    // Eviction never touches the exactly-once audit counters.
    audit(&svc, ids.len() as u64);
}

#[test]
fn corrupted_images_serve_cold_then_recover() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let truth = batch_truth(&machines, &apps);
    let (_, retired) = truth[&(MachineKind::VmSoft, "Word".to_string())];
    let svc = Service::start(ServeConfig {
        workers: 1,
        pool: PoolConfig {
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..PoolConfig::default()
        },
        slo: test_slo(),
        ..config(&machines, &apps)
    });
    let good = svc
        .pool()
        .image_bytes(MachineKind::VmSoft, "Word")
        .expect("golden image exists");
    assert!(!good.is_empty(), "prep produced a warm image");
    let mut injector = FaultInjector::new(0xc0de);
    let mut admitted = 0u64;

    for (round, fault) in ImageFault::ALL.iter().enumerate() {
        // Restore the pristine image, then corrupt it with this mode.
        assert!(svc
            .pool()
            .set_image_bytes(MachineKind::VmSoft, "Word", good.clone()));
        let report = svc
            .pool()
            .corrupt_image(MachineKind::VmSoft, "Word", &mut injector, *fault)
            .expect("entry exists");
        let clean_before = svc
            .pool()
            .health(MachineKind::VmSoft, "Word")
            .expect("health")
            .restores_clean;

        // Every job over the damaged image still completes with the
        // right answer — warm degraded or cold, never wrong.
        for _ in 0..4 {
            let id = svc
                .submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
                .expect("admitted");
            admitted += 1;
            match wait_terminal(&svc, id) {
                JobState::Completed(out) => {
                    assert_eq!(
                        out.x86_retired, retired,
                        "round {round} ({report:?}): result identical over damaged image"
                    );
                }
                st => panic!("round {round} ({report:?}): job ended {st:?}"),
            }
        }
        if round == 0 {
            // Image corruption means every stamp in the window was
            // degraded or cold: the warm-stamp SLO alert must have
            // fired while the damage was being served. (`fired` is the
            // latched clear→firing edge count; the instantaneous flag
            // may already have aged out by the time the jobs finish.)
            let s = slo_state(&svc, SloKind::WarmStamp);
            assert!(s.fired >= 1, "corruption trips the warm-stamp alert: {s:?}");
        }
        let health = svc
            .pool()
            .health(MachineKind::VmSoft, "Word")
            .expect("health");
        // A corrupted image can never restore clean (the whole-image
        // checksum covers every byte), so the breaker must have tripped
        // within the four stamps. The one exception is `ZeroLength`: an
        // emptied image means "no image" — every stamp is a plain cold
        // boot with no restore to fail, so the breaker stays closed.
        assert_eq!(
            health.restores_clean, clean_before,
            "round {round} ({report:?}): no clean restore from a damaged image"
        );
        assert_eq!(
            health.quarantined,
            !matches!(fault, ImageFault::ZeroLength),
            "round {round} ({report:?}): breaker trips after repeated bad restores"
        );

        // Repair the image: cooldown cold stamps, then a half-open probe
        // restores clean and closes the breaker.
        assert!(svc
            .pool()
            .set_image_bytes(MachineKind::VmSoft, "Word", good.clone()));
        let mut last_warm = WarmLevel::Cold;
        for _ in 0..6 {
            let id = svc
                .submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
                .expect("admitted");
            admitted += 1;
            match wait_terminal(&svc, id) {
                JobState::Completed(out) => last_warm = out.warm,
                st => panic!("round {round}: recovery job ended {st:?}"),
            }
        }
        let health = svc
            .pool()
            .health(MachineKind::VmSoft, "Word")
            .expect("health");
        assert!(
            !health.quarantined,
            "round {round}: breaker closes after a clean probe"
        );
        assert_eq!(
            last_warm,
            WarmLevel::Warm,
            "round {round}: service is warm again after recovery"
        );
    }
    // Recovery clears the alert on its own: once the bad stamps age out
    // of the slow window, warm traffic drives both burns back to zero.
    std::thread::sleep(Duration::from_millis(500));
    for _ in 0..4 {
        let id = svc
            .submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
            .expect("admitted");
        admitted += 1;
        assert!(matches!(wait_terminal(&svc, id), JobState::Completed(_)));
    }
    let s = slo_state(&svc, SloKind::WarmStamp);
    assert!(!s.firing, "warm-stamp alert clears after recovery: {s:?}");
    assert!(s.fired >= 1, "the monotonic fire count survives the clear");
    audit(&svc, admitted);
}

#[test]
fn deadlines_expire_jobs() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(config(&machines, &apps));

    // Instruction-budget deadline, wired into the fuel watchdog.
    let mut slow = JobSpec::new("t0", "Word", MachineKind::VmSoft);
    slow.deadline_insts = Some(1_000);
    let id = svc.submit(slow).expect("admitted");
    match wait_terminal(&svc, id) {
        JobState::Expired { .. } => {}
        st => panic!("fuel-deadline job ended {st:?}"),
    }

    // Wall-clock deadline that is already over when the job is popped.
    let mut late = JobSpec::new("t0", "Word", MachineKind::VmSoft);
    late.deadline_ms = Some(0);
    let id = svc.submit(late).expect("admitted");
    match wait_terminal(&svc, id) {
        JobState::Expired { .. } => {}
        st => panic!("wall-deadline job ended {st:?}"),
    }

    assert_eq!(health_u64(&svc, "expired"), 2);
    audit(&svc, 2);
}

#[test]
fn overload_sheds_with_structured_errors() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(ServeConfig {
        workers: 1,
        global_queue_cap: 6,
        tenant_queue_cap: 3,
        slo: test_slo(),
        ..config(&machines, &apps)
    });

    let mut admitted = Vec::new();
    let mut tenant_shed = 0u64;
    let mut global_shed = 0u64;
    for tenant in ["a", "b", "c"] {
        for _ in 0..6 {
            match svc.submit(JobSpec::new(tenant, "Word", MachineKind::VmSoft)) {
                Ok(id) => admitted.push(id),
                Err(ServeError::Overloaded {
                    scope,
                    retry_after_ms,
                }) => {
                    assert!(retry_after_ms >= 1, "retry hint is always actionable");
                    match scope {
                        OverloadScope::Tenant => tenant_shed += 1,
                        OverloadScope::Global => global_shed += 1,
                    }
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    assert!(
        tenant_shed + global_shed > 0,
        "an 18-job burst into cap 6 must shed"
    );
    assert!(tenant_shed > 0, "the per-tenant bound sheds first");
    assert_eq!(
        health_u64(&svc, "shed"),
        tenant_shed + global_shed,
        "every rejection is counted"
    );
    // Each shed consumed error budget with no good traffic yet in the
    // window: the error-rate SLO alert must be firing.
    let s = slo_state(&svc, SloKind::ErrorRate);
    assert!(s.firing, "overload trips the error-rate alert: {s:?}");
    assert!(s.fired >= 1);

    // The fleet stays live through the burst: everything admitted
    // completes, and once drained the service admits again.
    for id in &admitted {
        assert!(matches!(wait_terminal(&svc, *id), JobState::Completed(_)));
    }
    // Once the sheds age out of the slow window and clean traffic flows,
    // the alert clears on its own (the monotonic `fired` count stays).
    std::thread::sleep(Duration::from_millis(500));
    let id = svc
        .submit(JobSpec::new("a", "Word", MachineKind::VmSoft))
        .expect("admission recovers after the backlog drains");
    assert!(matches!(wait_terminal(&svc, id), JobState::Completed(_)));
    let s = slo_state(&svc, SloKind::ErrorRate);
    assert!(!s.firing, "error-rate alert clears after the burst: {s:?}");
    assert!(s.fired >= 1, "the monotonic fire count survives the clear");
    audit(&svc, admitted.len() as u64 + 1);
}

#[test]
fn cancellation_is_exactly_once() {
    let machines = [MachineKind::VmSoft];
    let apps = ["Word"];
    let svc = Service::start(ServeConfig {
        workers: 1,
        ..config(&machines, &apps)
    });

    let ids: Vec<u64> = (0..8)
        .map(|_| {
            svc.submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
                .expect("admitted")
        })
        .collect();
    // Cancel the back half of the queue; each job races its own
    // execution, so it ends Completed or Cancelled — but exactly once.
    for id in &ids[4..] {
        svc.cancel(*id);
    }
    let mut cancelled = 0u64;
    for id in &ids {
        match wait_terminal(&svc, *id) {
            JobState::Completed(_) => {}
            JobState::Cancelled => cancelled += 1,
            st => panic!("job {id} ended {st:?}"),
        }
    }
    assert_eq!(health_u64(&svc, "cancelled"), cancelled);
    assert_eq!(health_u64(&svc, "completed"), ids.len() as u64 - cancelled);
    audit(&svc, ids.len() as u64);
    // Cancelling a terminal or unknown job is a clean no-op.
    assert!(!svc.cancel(ids[0]));
    assert!(!svc.cancel(u64::MAX));
}

#[test]
fn drain_finishes_inflight_persists_images_and_rejects_new_work() {
    let machines = [MachineKind::VmSoft, MachineKind::VmBe];
    let apps = ["Word"];
    let svc = Service::start(config(&machines, &apps));
    let ids: Vec<u64> = (0..6)
        .map(|i| {
            let m = machines[i % 2];
            svc.submit(JobSpec::new("t0", "Word", m)).expect("admitted")
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("cdvm_serve_drain_{}", std::process::id()));
    assert!(!svc.is_drained(), "not drained before drain is requested");
    let persisted = svc.drain(Some(&dir)).expect("drain persists the pool");
    // `is_drained` flips only once drain has fully completed (jobs
    // terminal, workers joined, images persisted) — the signal a host
    // process exits on, unlike `is_draining` (set at drain start).
    assert!(svc.is_drained() && svc.is_draining());
    assert_eq!(persisted.len(), 2, "one healthy image per catalog entry");
    for p in &persisted {
        let bytes = std::fs::read(p).expect("persisted image readable");
        assert!(!bytes.is_empty(), "persisted image non-empty: {}", p.display());
    }

    // Every in-flight job finished before the fleet stopped.
    for id in &ids {
        assert!(matches!(svc.status(*id), Some(st) if st.is_terminal()));
    }
    // And nothing is admitted after drain.
    match svc.submit(JobSpec::new("t0", "Word", MachineKind::VmSoft)) {
        Err(ServeError::Draining) => {}
        other => panic!("post-drain submit: {other:?}"),
    }
    audit(&svc, ids.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_pairs_are_rejected_at_admission() {
    let svc = Service::start(config(&[MachineKind::VmSoft], &["Word"]));
    match svc.submit(JobSpec::new("t0", "Excel", MachineKind::VmSoft)) {
        Err(ServeError::UnknownApp { .. }) => {}
        other => panic!("unknown app: {other:?}"),
    }
    match svc.submit(JobSpec::new("t0", "Word", MachineKind::VmBe)) {
        Err(ServeError::UnknownApp { .. }) => {}
        other => panic!("unknown machine: {other:?}"),
    }
    match svc.wait(99, Duration::from_millis(1)) {
        Err(ServeError::UnknownJob { id: 99 }) => {}
        other => panic!("unknown job: {other:?}"),
    }
}

#[test]
fn concurrent_checkouts_of_one_pool_slot_are_isolated() {
    // Many workers hitting the same golden entry at once: every stamped
    // instance is independent (CoW memory, own translation state) and
    // reaches the same architected end.
    use cdvm_core::Status;
    use cdvm_serve::{PoolConfig, WarmPool};

    let pool = WarmPool::prepare(
        &catalog(&[MachineKind::VmSoft], &["Word"]),
        SCALE,
        PoolConfig::default(),
    );
    let results: Vec<(u64, WarmLevel)> = std::thread::scope(|s| {
        let pool = &pool;
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let (mut sys, info) = pool
                        .checkout(MachineKind::VmSoft, "Word")
                        .expect("served pair");
                    assert_eq!(sys.run_to_completion(u64::MAX), Status::Halted);
                    (sys.x86_retired(), info.warm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    let retired = results[0].0;
    for (r, warm) in &results {
        assert_eq!(*r, retired, "all concurrent checkouts agree");
        assert_eq!(*warm, WarmLevel::Warm, "healthy image stamps warm");
    }
    let health = pool
        .health(MachineKind::VmSoft, "Word")
        .expect("health exists");
    assert_eq!(health.restores_failed, 0);
    assert_eq!(health.restores_clean, 6, "each checkout stamps the instance it returns");
    assert!(!health.quarantined);
}

#[test]
fn each_job_restores_its_image_exactly_once() {
    const JOBS: u64 = 3;
    let svc = Service::start(ServeConfig {
        workers: 1,
        ..config(&[MachineKind::VmSoft], &["Word"])
    });
    for _ in 0..JOBS {
        let id = svc
            .submit(JobSpec::new("t0", "Word", MachineKind::VmSoft))
            .expect("admitted");
        assert!(matches!(wait_terminal(&svc, id), JobState::Completed(_)));
    }
    let health = svc
        .pool()
        .health(MachineKind::VmSoft, "Word")
        .expect("served pair");
    // No instance is stamped ahead of a job, so the image is restored
    // once per job and never for an instance left waiting.
    assert_eq!(health.restores_clean, JOBS);
    assert_eq!(
        health.restores_degraded + health.restores_failed + health.cold_stamps,
        0
    );
    audit(&svc, JOBS);
}
