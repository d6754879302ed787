//! The API's edges, over a real socket: malformed framing and hostile
//! request bodies are refused and leave the service serving, and
//! `/healthz` and `/metrics` report the same value for every number both
//! export.

#![allow(clippy::unwrap_used, clippy::panic)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cdvm_bench::testjson::{Json, Parser};
use cdvm_serve::api::ApiServer;
use cdvm_serve::{JobSpec, JobState, PoolConfig, ServeConfig, Service, SloConfig};
use cdvm_stats::parse_exposition;
use cdvm_uarch::MachineKind;
use cdvm_workloads::winstone2004;

/// Runs this binary's tests one at a time: the accept-latency test times
/// round trips, which a sibling test's simulation would slow on a small
/// host.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(apps: &[&str]) -> ServeConfig {
    let profiles = winstone2004();
    let catalog = apps
        .iter()
        .map(|app| {
            let p = profiles
                .iter()
                .find(|p| p.name == *app)
                .expect("app exists");
            (MachineKind::VmSoft, p.clone())
        })
        .collect();
    ServeConfig {
        workers: 1,
        scale: 0.005,
        catalog,
        ..ServeConfig::default()
    }
}

/// One HTTP request: the status code and the body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("write head");
    s.write_all(body.as_bytes()).expect("write body");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status");
    (status, body.to_string())
}

#[test]
fn hostile_bodies_get_400_and_the_service_keeps_serving() {
    let _serial = serial();
    let svc = Arc::new(Service::start(config(&["Word"])));
    let server = ApiServer::bind(Arc::clone(&svc), 0, None).expect("bind");
    let addr = server.addr();

    // A deterministic crasher poisons its signature, so a hostile body
    // that cleared the poison table would show.
    let mut crasher = JobSpec::new("crasher", "Word", MachineKind::VmSoft);
    crasher.chaos_panic_attempts = u32::MAX;
    let id = svc.submit(crasher).expect("admitted");
    let state = svc.wait(id, Duration::from_secs(120)).expect("known job");
    assert!(matches!(state, JobState::Failed { .. }), "{state:?}");
    let poisoned = || {
        let (_, health) = request(addr, "GET", "/healthz", "");
        Parser::parse(&health)
            .get("poison_entries")
            .and_then(Json::as_num)
    };
    assert_eq!(poisoned(), Some(1.0));

    // Both nest 100,000 deep in well under the 1 MiB body cap: a reader
    // that recursed without a bound would overflow the connection
    // thread's stack and abort the whole process.
    let deep_arrays = "[".repeat(100_000);
    let deep_objects = "{\"a\": ".repeat(100_000);
    for body in [&deep_arrays, &deep_objects] {
        let (status, reply) = request(addr, "POST", "/jobs", body);
        assert_eq!(status, 400, "{reply}");
        let error = Parser::parse(&reply)
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        assert_eq!(error.as_deref(), Some("body is not a flat JSON object"));
        // The other body-reading route refuses it too, and clears
        // nothing.
        let (status, reply) = request(addr, "POST", "/poison/clear", body);
        assert_eq!(status, 400, "{reply}");
        assert_eq!(poisoned(), Some(1.0), "a refused body clears nothing");
    }

    let (status, reply) = request(
        addr,
        "POST",
        "/jobs",
        r#"{"tenant": "t", "app": "Word", "machine": "vm.soft"}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let id = Parser::parse(&reply).get("job").and_then(Json::as_num).expect("job id") as u64;
    let (status, reply) = request(addr, "GET", &format!("/jobs/{id}?wait_ms=120000"), "");
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        Parser::parse(&reply).get("state").and_then(Json::as_str),
        Some("completed")
    );
}

#[test]
fn an_idle_server_accepts_without_delay() {
    let _serial = serial();
    // A cold pool prepares nothing, so the service is idle from the
    // start and the round trips below time the front door alone.
    let svc = Arc::new(Service::start(ServeConfig {
        pool: PoolConfig {
            warm: false,
            ..PoolConfig::default()
        },
        ..config(&["Word"])
    }));
    let server = ApiServer::bind(Arc::clone(&svc), 0, None).expect("bind");
    let mut rtt: Vec<Duration> = (0..41)
        .map(|_| {
            let t = Instant::now();
            let (status, reply) = request(server.addr(), "GET", "/no/such/route", "");
            assert_eq!(status, 404, "{reply}");
            t.elapsed()
        })
        .collect();
    rtt.sort();
    // An accept loop that polls sleeps between polls, so a request waits
    // on average half the poll period before it is even read.
    assert!(
        rtt[rtt.len() / 2] < Duration::from_micros(1500),
        "median round trip {:?} (sorted: {rtt:?})",
        rtt[rtt.len() / 2]
    );
}

/// Sends `raw` as it is and returns the reply's status and body. A
/// refused request is answered before the server has read all of it,
/// and must still end in a clean close: a server that closed over the
/// unread rest would reset the connection instead.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw).expect("write request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("a clean close");
    let reply = String::from_utf8_lossy(&buf).into_owned();
    let status = reply
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status in {reply:?}"));
    (status, reply)
}

#[test]
fn malformed_framing_is_refused_before_routing() {
    let _serial = serial();
    let svc = Arc::new(Service::start(config(&["Word"])));
    let server = ApiServer::bind(Arc::clone(&svc), 0, None).expect("bind");
    let addr = server.addr();
    let mut crasher = JobSpec::new("crasher", "Word", MachineKind::VmSoft);
    crasher.chaos_panic_attempts = u32::MAX;
    let id = svc.submit(crasher).expect("admitted");
    let state = svc.wait(id, Duration::from_secs(120)).expect("known job");
    assert!(matches!(state, JobState::Failed { .. }), "{state:?}");
    let poisoned = || {
        let (_, health) = request(addr, "GET", "/healthz", "");
        Parser::parse(&health)
            .get("poison_entries")
            .and_then(Json::as_num)
    };
    assert_eq!(poisoned(), Some(1.0));

    let clear = r#"{"signature": "crasher/Word/VmSoft"}"#;
    let post_clear = |length: &str| {
        format!("POST /poison/clear HTTP/1.1\r\ncontent-length: {length}\r\n\r\n{clear}")
    };
    let long = "a".repeat(9000);
    let headers = |n: usize| "x-h: 1\r\n".repeat(n);
    // An 8 KiB line, terminator included, is the longest one read.
    let longest = format!("x-pad: {}\r\n", "a".repeat(8192 - 9));
    let cases: Vec<(String, u16)> = vec![
        // A length that does not parse used to read as 0, so this
        // cleared every poisoned signature.
        (post_clear("4x"), 400),
        (post_clear(&format!("-{}", clear.len())), 400),
        (post_clear(&format!("+{}", clear.len())), 400),
        (post_clear(""), 400),
        (
            format!(
                "POST /poison/clear HTTP/1.1\r\ncontent-length: {}\r\ncontent-length: {}\r\n\r\n{clear}",
                clear.len(),
                clear.len() - 1
            ),
            400,
        ),
        // Above 1 MiB: refused before any body byte is read.
        (post_clear("1048577"), 413),
        (post_clear("99999999999999999999999"), 413),
        (format!("GET /{long} HTTP/1.1\r\n\r\n"), 431),
        (format!("GET /healthz HTTP/1.1\r\nx-pad: {long}\r\n\r\n"), 431),
        // A client that never sends a newline.
        (long.clone(), 431),
        (format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(65)), 431),
        (format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(64)), 200),
        (format!("GET /healthz HTTP/1.1\r\n{longest}\r\n"), 200),
        ("GET\r\n\r\n".to_string(), 400),
    ];
    for (raw, want) in &cases {
        let (status, reply) = raw_request(addr, raw.as_bytes());
        let head: String = raw.chars().take(60).collect();
        assert_eq!(status, *want, "{head:?}: {reply}");
        assert_eq!(poisoned(), Some(1.0), "{head:?} cleared the poison");
    }

    // Framed correctly, the same body clears exactly that signature.
    let (status, reply) = raw_request(addr, post_clear(&clear.len().to_string()).as_bytes());
    assert_eq!(status, 200, "{reply}");
    assert_eq!(poisoned(), Some(0.0));
}

/// One shared number: `/healthz` key, `/metrics` family, labels.
type Shared = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

/// The service-wide numbers.
const SERVICE: [Shared; 18] = [
    ("draining", "cdvm_draining", &[]),
    ("inflight", "cdvm_inflight", &[]),
    ("queued", "cdvm_queued", &[]),
    ("delayed", "cdvm_delayed", &[]),
    ("completed", "cdvm_jobs_total", &[("outcome", "completed")]),
    ("failed", "cdvm_jobs_total", &[("outcome", "failed")]),
    ("expired", "cdvm_jobs_total", &[("outcome", "expired")]),
    ("cancelled", "cdvm_jobs_total", &[("outcome", "cancelled")]),
    ("shed", "cdvm_sheds_total", &[]),
    ("retries", "cdvm_retries_total", &[]),
    ("orphan_requeues", "cdvm_orphan_requeues_total", &[]),
    ("worker_deaths", "cdvm_worker_deaths_total", &[]),
    ("poisoned", "cdvm_poisoned_total", &[]),
    ("poison_entries", "cdvm_poison_entries", &[]),
    ("double_terminal", "cdvm_double_terminal_total", &[]),
    ("steals", "cdvm_steals_total", &[]),
    ("trace_dropped", "cdvm_trace_dropped_total", &[]),
    ("uncrackable_insts", "cdvm_uncrackable_insts_total", &[]),
];

/// Per pool image; `/metrics` adds `machine` and `app` labels first.
const POOL: [Shared; 7] = [
    (
        "restores_clean",
        "cdvm_pool_restores_total",
        &[("kind", "clean")],
    ),
    (
        "restores_degraded",
        "cdvm_pool_restores_total",
        &[("kind", "degraded")],
    ),
    (
        "restores_failed",
        "cdvm_pool_restores_total",
        &[("kind", "failed")],
    ),
    ("cold_stamps", "cdvm_pool_cold_stamps_total", &[]),
    ("quarantined", "cdvm_pool_quarantined", &[]),
    ("quarantines", "cdvm_pool_quarantines_total", &[]),
    ("probes", "cdvm_pool_probes_total", &[]),
];

/// Per SLO objective; `/metrics` adds the `objective` label first.
const SLO: [Shared; 4] = [
    ("fast_burn", "cdvm_slo_burn_rate", &[("window", "fast")]),
    ("slow_burn", "cdvm_slo_burn_rate", &[("window", "slow")]),
    ("firing", "cdvm_slo_firing", &[]),
    ("fired", "cdvm_slo_alerts_total", &[]),
];

/// A `/healthz` scalar as an exposition sample value.
fn sample_value(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(n)) => *n,
        Some(Json::Bool(b)) => f64::from(u8::from(*b)),
        other => panic!("not a scalar: {other:?}"),
    }
}

#[test]
fn healthz_and_metrics_agree_on_every_shared_number() {
    let _serial = serial();
    let svc = Arc::new(Service::start(ServeConfig {
        global_queue_cap: 2,
        // Hour-wide SLO buckets: no window rolls between the two reads,
        // so the burn rates are the same number in both.
        slo: SloConfig {
            bucket_ms: 3_600_000,
            ..SloConfig::default()
        },
        ..config(&["Word", "Excel"])
    }));
    for app in ["Word", "Excel"] {
        let id = svc
            .submit(JobSpec::new("t", app, MachineKind::VmSoft))
            .expect("admitted");
        let st = svc.wait(id, Duration::from_secs(120)).expect("job exists");
        assert!(matches!(st, JobState::Completed(_)), "{st:?}");
    }
    // Burst until admission control sheds one.
    while svc
        .submit(JobSpec::new("burst", "Word", MachineKind::VmSoft))
        .is_ok()
    {}
    svc.drain(None).expect("drain");

    let server = ApiServer::bind(Arc::clone(&svc), 0, None).expect("bind");
    let (status, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = Parser::parse(&body);
    let (status, text) = request(server.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let families = parse_exposition(&text).expect("exposition parses strictly");
    let sample = |family: &str, labels: &[(&str, &str)]| {
        families
            .iter()
            .find(|f| f.name == family)
            .and_then(|f| f.sample(family, labels))
            .unwrap_or_else(|| panic!("no {family} sample labelled {labels:?}:\n{text}"))
            .value
    };

    let mut compared = 0;
    for (key, family, labels) in SERVICE {
        assert_eq!(
            sample_value(health.get(key)),
            sample(family, labels),
            "{key}"
        );
        compared += 1;
    }
    let Some(Json::Obj(images)) = health.get("pool") else {
        panic!("pool missing: {body}");
    };
    assert_eq!(images.len(), 2);
    for (_, img) in images {
        let machine = img.get("machine").and_then(Json::as_str).expect("machine");
        let app = img.get("app").and_then(Json::as_str).expect("app");
        for (key, family, extra) in POOL {
            let mut labels = vec![("machine", machine), ("app", app)];
            labels.extend_from_slice(extra);
            assert_eq!(
                sample_value(img.get(key)),
                sample(family, &labels),
                "{app} {key}"
            );
            compared += 1;
        }
    }
    let objectives = health.get("slo").and_then(Json::as_arr).expect("slo");
    assert_eq!(objectives.len(), 3);
    for o in objectives {
        let objective = o.get("objective").and_then(Json::as_str).expect("objective");
        for (key, family, extra) in SLO {
            let mut labels = vec![("objective", objective)];
            labels.extend_from_slice(extra);
            assert_eq!(
                sample_value(o.get(key)),
                sample(family, &labels),
                "{objective} {key}"
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 18 + 7 * 2 + 4 * 3);

    // The comparison is not between zeros: jobs completed, some were
    // shed, the pool restored, and the error-rate objective burned.
    assert!(sample_value(health.get("completed")) >= 2.0);
    assert!(sample_value(health.get("shed")) >= 1.0);
    assert!(
        sample(
            "cdvm_pool_restores_total",
            &[("app", "Word"), ("kind", "clean")]
        ) >= 1.0
    );
    assert!(
        sample(
            "cdvm_slo_burn_rate",
            &[("objective", "error_rate"), ("window", "fast")]
        ) > 0.0
    );
}
