//! Observability-plane acceptance tests: span trees agree with the
//! job's telemetry to the nanosecond, the Prometheus exposition parses
//! under the strict text-format checker, the merged Perfetto document
//! stacks service spans above the VM's flight-recorder tracks, and
//! disarming spans changes nothing about the modeled results.

#![allow(clippy::unwrap_used, clippy::panic)]

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cdvm_bench::testjson::{Json, Parser};
use cdvm_serve::api::ApiServer;
use cdvm_serve::{JobSpec, JobState, PoolConfig, ServeConfig, Service};
use cdvm_stats::{parse_exposition, MetricValue, Metrics, PromKind};
use cdvm_uarch::MachineKind;
use cdvm_workloads::winstone2004;

const SCALE: f64 = 0.005;
const WAIT: Duration = Duration::from_secs(120);

fn config(apps: &[&str]) -> ServeConfig {
    let profiles = winstone2004();
    let catalog = apps
        .iter()
        .map(|app| {
            (
                MachineKind::VmSoft,
                profiles
                    .iter()
                    .find(|p| p.name == *app)
                    .expect("app exists")
                    .clone(),
            )
        })
        .collect();
    ServeConfig {
        workers: 1,
        scale: SCALE,
        catalog,
        global_queue_cap: 256,
        tenant_queue_cap: 256,
        ..ServeConfig::default()
    }
}

fn complete(svc: &Service, spec: JobSpec) -> (u64, cdvm_serve::JobOutput) {
    let id = svc.submit(spec).expect("admitted");
    match svc.wait(id, WAIT).expect("job exists") {
        JobState::Completed(out) => (id, out),
        st => panic!("job ended {st:?}"),
    }
}

/// Pulls the span list out of a `job_spans` document as
/// `(name, start_ns, end_ns, attrs)` tuples.
fn span_list(doc: &Metrics) -> Vec<(String, u64, u64, Metrics)> {
    let Some(MetricValue::List(items)) = doc.get("spans") else {
        panic!("spans list missing: {doc:?}");
    };
    items
        .iter()
        .map(|it| {
            let MetricValue::Map(m) = it else {
                panic!("span entry is not a map: {it:?}");
            };
            let name = match m.get("name") {
                Some(MetricValue::Str(s)) => s.clone(),
                other => panic!("span name {other:?}"),
            };
            let num = |key: &str| match m.get(key) {
                Some(MetricValue::U64(v)) => *v,
                other => panic!("span {name} [{key}] = {other:?}"),
            };
            let (start, end) = (num("start_ns"), num("end_ns"));
            let attrs = match m.get("attrs") {
                Some(MetricValue::Map(a)) => a.clone(),
                _ => Metrics::new(),
            };
            (name, start, end, attrs)
        })
        .collect()
}

fn attr_str<'a>(attrs: &'a Metrics, key: &str) -> &'a str {
    match attrs.get(key) {
        Some(MetricValue::Str(s)) => s,
        other => panic!("attr {key} = {other:?}"),
    }
}

#[test]
fn span_tree_agrees_with_job_telemetry_exactly() {
    let svc = Service::start(config(&["Word"]));
    let (id, out) = complete(&svc, JobSpec::new("t0", "Word", MachineKind::VmSoft));

    let doc = svc.job_spans(id).expect("spans retained");
    assert_eq!(doc.get("job"), Some(&MetricValue::U64(id)));
    assert_eq!(
        doc.get("state"),
        Some(&MetricValue::Str("completed".to_string()))
    );
    let spans = span_list(&doc);
    let names: Vec<&str> = spans.iter().map(|(n, ..)| n.as_str()).collect();
    assert_eq!(
        names,
        ["admission", "queued", "stamp", "run", "terminal"],
        "the happy path records exactly one span per lifecycle stage"
    );

    // Boundary consistency, to the nanosecond: the spans are recorded
    // from the same `Instant`s that produce the job's telemetry.
    let queued = &spans[1];
    assert_eq!(
        queued.2 - queued.1,
        out.queue_ns,
        "queued span duration IS the telemetry's queue_ns"
    );
    let (stamp, run, terminal) = (&spans[2], &spans[3], &spans[4]);
    assert!(
        queued.2 <= stamp.1,
        "the queue wait ends at worker pickup, at or before the checkout"
    );
    assert_eq!(stamp.2, run.1, "the run starts where the stamp ends");
    assert!(run.2 <= terminal.1, "the run closes before the terminal marker");
    assert!(
        terminal.1 - spans[0].1 >= out.latency_ns,
        "terminal marker lands at or after submission + latency"
    );

    // Attribute checks: restore outcome on the stamp, measurements on
    // the run, state on the terminal marker.
    assert_eq!(attr_str(&stamp.3, "warm"), "warm");
    assert_eq!(run.3.get("cycles"), Some(&MetricValue::U64(out.cycles)));
    assert_eq!(
        run.3.get("x86_retired"),
        Some(&MetricValue::U64(out.x86_retired))
    );
    assert_eq!(attr_str(&terminal.3, "state"), "completed");
}

#[test]
fn retry_spans_record_backoff_and_second_attempt() {
    let svc = Service::start(config(&["Word"]));
    let mut flaky = JobSpec::new("t0", "Word", MachineKind::VmSoft);
    flaky.chaos_panic_attempts = 1;
    let (id, out) = complete(&svc, flaky);
    assert_eq!(out.attempts, 2);

    let spans = span_list(&svc.job_spans(id).expect("spans retained"));
    let names: Vec<&str> = spans.iter().map(|(n, ..)| n.as_str()).collect();
    // Attempt 1 panics before checkout (no stamp/run), then backoff,
    // then attempt 2 completes.
    assert_eq!(
        names,
        ["admission", "queued", "retry_backoff", "queued", "stamp", "run", "terminal"]
    );
    let backoff = &spans[2];
    assert!(
        attr_str(&backoff.3, "error").contains("chaos"),
        "the failed attempt's panic message rides the backoff span"
    );
    assert_eq!(backoff.3.get("attempt"), Some(&MetricValue::U64(1)));
    let requeue = &spans[3];
    assert_eq!(requeue.3.get("attempt"), Some(&MetricValue::U64(2)));
    assert_eq!(
        backoff.2, requeue.1,
        "the second queue wait starts at the retry's due time"
    );
}

#[test]
fn prometheus_exposition_parses_and_covers_the_fleet() {
    let svc = Service::start(ServeConfig {
        global_queue_cap: 2,
        ..config(&["Word"])
    });
    // Two completions and at least one shed so counters move.
    let (_, _) = complete(&svc, JobSpec::new("t0", "Word", MachineKind::VmSoft));
    let (_, _) = complete(&svc, JobSpec::new("t1", "Word", MachineKind::VmSoft));
    let mut sheds = 0u32;
    let mut admitted = 0u32;
    for _ in 0..8 {
        match svc.submit(JobSpec::new("burst", "Word", MachineKind::VmSoft)) {
            Ok(_) => admitted += 1,
            Err(_) => sheds += 1,
        }
    }
    svc.drain(None).expect("drain");

    let text = svc.prometheus();
    let families = parse_exposition(&text).expect("exposition parses strictly");
    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family {name} missing:\n{text}"))
    };

    let jobs = family("cdvm_jobs_total");
    assert_eq!(jobs.kind, PromKind::Counter);
    let completed = jobs
        .sample("cdvm_jobs_total", &[("outcome", "completed")])
        .expect("completed outcome present");
    // The two sequential jobs plus every admitted burst job (the drain
    // ran them all to completion).
    assert_eq!(completed.value, f64::from(2 + admitted));

    if sheds > 0 {
        assert_eq!(
            family("cdvm_sheds_total").samples[0].value,
            f64::from(sheds),
            "sheds are exported"
        );
    }
    assert_eq!(family("cdvm_inflight").kind, PromKind::Gauge);
    let quarantined = family("cdvm_pool_quarantined");
    assert!(
        quarantined
            .sample("cdvm_pool_quarantined", &[("machine", "VM.soft"), ("app", "Word")])
            .is_some(),
        "pool gauges carry (machine, app) labels: {quarantined:?}"
    );
    let restores = family("cdvm_pool_restores_total");
    assert!(
        restores
            .sample(
                "cdvm_pool_restores_total",
                &[("machine", "VM.soft"), ("app", "Word"), ("kind", "clean")]
            )
            .is_some(),
        "restore outcomes are labelled"
    );

    let latency = family("cdvm_job_latency_ns");
    assert_eq!(latency.kind, PromKind::Histogram);
    let count = latency
        .sample("cdvm_job_latency_ns_count", &[])
        .expect("_count present");
    assert_eq!(
        count.value,
        f64::from(2 + admitted),
        "every completion was observed"
    );

    let burn = family("cdvm_slo_burn_rate");
    for objective in ["run_latency", "warm_stamp", "error_rate"] {
        for window in ["fast", "slow"] {
            assert!(
                burn.sample(
                    "cdvm_slo_burn_rate",
                    &[("objective", objective), ("window", window)]
                )
                .is_some(),
                "burn rate exported for {objective}/{window}"
            );
        }
    }
    assert_eq!(family("cdvm_slo_firing").kind, PromKind::Gauge);
    assert_eq!(family("cdvm_slo_alerts_total").kind, PromKind::Counter);
    assert_eq!(family("cdvm_trace_dropped_total").kind, PromKind::Counter);
    assert_eq!(family("cdvm_uncrackable_insts_total").kind, PromKind::Counter);
}

#[test]
fn merged_perfetto_trace_stacks_service_spans_above_vm_tracks() {
    let svc = Service::start(ServeConfig {
        pool: PoolConfig {
            capture: true,
            ..PoolConfig::default()
        },
        ..config(&["Word"])
    });
    let (id, out) = complete(&svc, JobSpec::new("acme", "Word", MachineKind::VmSoft));

    let trace = svc.job_trace(id).expect("trace retained");
    let doc = Parser::parse(&trace);
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("envelope");
    assert!(!events.is_empty());

    let mut stamp_ts = None;
    let mut stamp_end = f64::INFINITY;
    let mut restore_ts = None;
    let mut vm_min_ts = f64::INFINITY;
    let mut saw_vm_process = false;
    let mut saw_service_run = false;
    for ev in events {
        let pid = ev.get("pid").and_then(Json::as_num).expect("pid");
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        if ph == "M" {
            if pid == 2.0 && name == "process_name" {
                saw_vm_process = true;
            }
            continue;
        }
        let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
        if pid == 1.0 && name == "stamp" {
            stamp_ts = Some(ts);
            if let Some(dur) = ev.get("dur") {
                stamp_end = ts + dur.as_num().expect("dur");
            }
        }
        if pid == 2.0 && name == "restore_applied" {
            restore_ts = Some(ts);
        }
        if pid == 1.0 && name == "run" && ph == "X" {
            saw_service_run = true;
            let dur_us = ev.get("dur").and_then(Json::as_num).expect("dur");
            // The run span brackets the modeled execution; its
            // wall-clock duration is the run_ns telemetry minus the
            // stamp (checkout) time, so it can only be shorter.
            assert!(
                dur_us <= out.run_ns as f64 / 1000.0 + 1.0,
                "run span {dur_us}µs vs run_ns {}", out.run_ns
            );
        }
        if pid == 2.0 {
            vm_min_ts = vm_min_ts.min(ts);
        }
    }
    assert!(saw_service_run, "service run span rendered:\n{trace}");
    assert!(saw_vm_process, "VM process row present in the merge");
    let stamp_ts = stamp_ts.expect("service stamp span rendered");
    assert!(
        vm_min_ts >= stamp_ts - 1e-6,
        "VM tracks are offset onto the service timeline at the job's \
         stamp point (vm {vm_min_ts} < stamp {stamp_ts})"
    );
    // Capture is armed before the golden-image restore, so the restore
    // lands on the VM's event track under the stamp span that paid for it.
    let restore_ts = restore_ts.expect("restore event on the VM track");
    assert!(
        restore_ts >= stamp_ts - 1e-6 && restore_ts <= stamp_end + 1e-6,
        "restore at {restore_ts} outside the stamp span [{stamp_ts}, {stamp_end}]"
    );
}

#[test]
fn hostile_tenant_names_survive_the_span_and_trace_writers() {
    let tenant = "evil\"tenant\\{}\n\tA";
    let svc = Service::start(config(&["Word"]));
    let (id, _) = complete(&svc, JobSpec::new(tenant, "Word", MachineKind::VmSoft));

    // The spans document and the merged trace must both stay valid JSON
    // with the tenant name intact after escaping.
    let doc = Parser::parse(&svc.job_spans(id).expect("spans").to_json());
    assert_eq!(doc.get("tenant").and_then(Json::as_str).expect("tenant"), tenant);
    let trace = svc.job_trace(id).expect("trace");
    let tdoc = Parser::parse(&trace);
    let labelled = tdoc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("envelope")
        .iter()
        .any(|ev| {
            ev.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .is_some_and(|n| n.contains(tenant))
        });
    assert!(labelled, "process label carries the raw tenant name:\n{trace}");
}

#[test]
fn disarmed_spans_change_nothing_about_the_modeled_results() {
    let armed = Service::start(config(&["Word"]));
    let disarmed = Service::start(ServeConfig {
        spans: false,
        ..config(&["Word"])
    });
    let (id_a, out_a) = complete(&armed, JobSpec::new("t0", "Word", MachineKind::VmSoft));
    let (id_d, out_d) = complete(&disarmed, JobSpec::new("t0", "Word", MachineKind::VmSoft));

    // Spans never touch the simulator: modeled cycles, retired count and
    // the architected fingerprint are bit-identical either way.
    assert_eq!(out_a.cycles, out_d.cycles);
    assert_eq!(out_a.x86_retired, out_d.x86_retired);
    assert_eq!(out_a.arch_fnv, out_d.arch_fnv);

    assert!(
        !span_list(&armed.job_spans(id_a).expect("doc")).is_empty(),
        "armed service records spans"
    );
    assert!(
        span_list(&disarmed.job_spans(id_d).expect("doc")).is_empty(),
        "disarmed service records none"
    );
}

/// One raw HTTP request against a bound [`ApiServer`].
fn http(addr: std::net::SocketAddr, req: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(req.as_bytes()).expect("write");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn api_serves_metrics_spans_trace_and_event_cursors() {
    let svc = Arc::new(Service::start(ServeConfig {
        pool: PoolConfig {
            capture: true,
            ..PoolConfig::default()
        },
        ..config(&["Word"])
    }));
    let server = ApiServer::bind(Arc::clone(&svc), 0, None).expect("bind");
    let addr = server.addr();
    let (id, _) = complete(&svc, JobSpec::new("acme", "Word", MachineKind::VmSoft));

    // /metrics speaks the Prometheus text content type and parses.
    let (head, body) = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert!(head.contains("200 OK"), "{head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    assert!(parse_exposition(&body).expect("parses").iter().any(|f| f.name == "cdvm_jobs_total"));

    // /jobs/<id>/spans returns the span tree as JSON.
    let (head, body) = http(addr, &format!("GET /jobs/{id}/spans HTTP/1.1\r\n\r\n"));
    assert!(head.contains("200 OK"), "{head}");
    let doc = Parser::parse(&body);
    assert!(!doc.get("spans").and_then(Json::as_arr).expect("spans").is_empty());

    // /jobs/<id>/trace returns the merged Perfetto document.
    let (head, body) = http(addr, &format!("GET /jobs/{id}/trace HTTP/1.1\r\n\r\n"));
    assert!(head.contains("200 OK"), "{head}");
    assert!(!Parser::parse(&body).get("traceEvents").and_then(Json::as_arr).expect("envelope").is_empty());

    // /tenants/<t>/events carries both the legacy `last` field and the
    // new `next_after` cursor, and the cursor actually paginates.
    let (_, body) = http(addr, "GET /tenants/acme/events?after=0 HTTP/1.1\r\n\r\n");
    let doc = Parser::parse(&body);
    assert_eq!(doc.get("last"), doc.get("next_after"));
    assert_eq!(doc.get("events").and_then(Json::as_arr).expect("events").len(), 1);
    let cursor = doc.get("next_after").and_then(Json::as_num).expect("cursor") as u64;
    let (_, body) = http(addr, &format!("GET /tenants/acme/events?after={cursor} HTTP/1.1\r\n\r\n"));
    assert!(
        Parser::parse(&body).get("events").and_then(Json::as_arr).expect("events").is_empty(),
        "resuming at next_after yields nothing new"
    );

    // Unknown jobs 404 on both observability routes.
    let (head, _) = http(addr, "GET /jobs/999999/spans HTTP/1.1\r\n\r\n");
    assert!(head.contains("404"), "{head}");
    let (head, _) = http(addr, "GET /jobs/999999/trace HTTP/1.1\r\n\r\n");
    assert!(head.contains("404"), "{head}");
}
