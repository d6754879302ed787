//! The `serve_http` workload: the `cdvm-serve` warm pool behind its HTTP
//! API on a localhost socket, driven by a closed loop.
//!
//! The 50 `(machine, app)` pairs form five fixed groups of ten, and a
//! round submits one group. Two client threads, one tenant each, split
//! the group and keep a fixed window of jobs in flight: each job is a
//! `POST /jobs` followed by a `GET /jobs/<id>?wait_ms` whose response is
//! read without blocking, so jobs queue behind the one simulation worker
//! and the queue does real work. The first client also reads
//! `GET /metrics` and `GET /healthz` once per round.
//!
//! Rounds cycle through the groups until the measured phase ends. The
//! yardstick kernel (see [`crate::calib`]) runs before every round and
//! every set-up, and scales that round's host times to the nominal host
//! speed. Throughput comes from each group's median scaled round, and the
//! latency percentiles from every scaled job latency.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdvm_core::Status;
use cdvm_serve::api::ApiServer;
use cdvm_serve::{ServeConfig, Service};
use cdvm_uarch::MachineKind;
use cdvm_workloads::build_app_run;

use crate::batch::job_order;
use crate::calib::Yardstick;
use crate::check::{self, EndState, Served};
use crate::http::{self, str_field, u64_field, Json, Pending};
use crate::layers::{self, Probe};
use crate::stats::{median, Samples};
use crate::trace::{write_perfetto, LayerTable, Tracer};
use crate::{peak_rss_mb, seeded_profiles, Args, Outcome};

/// Workload scale of the served apps (jobs of tens of milliseconds).
const SCALE: f64 = 0.005;
/// Simulation workers. One, on a two-core host: the other core runs the
/// clients and the HTTP connection threads. With two workers every round
/// was slowed whenever either core was, and in interleaved runs their
/// throughput spread about twice as wide as one worker's.
const WORKERS: usize = 1;
/// Client threads, one tenant each.
const CLIENTS: usize = 2;
/// Jobs each client keeps in flight.
const IN_FLIGHT: usize = 2;
/// Jobs per round: one group of pairs.
const GROUP: usize = 10;
/// Minimum rounds per group (per mode in traced runs): at least 100 job
/// latencies, 10 of them beyond the p90.
const MIN_ROUNDS: usize = 2;
/// The first client reads `/metrics` and `/healthz` after this many of
/// its jobs completed in a round.
const OBSERVE_AFTER: usize = 3;
/// Service start-ups; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 5;
/// Poll interval while every in-flight job is still running.
const POLL: Duration = Duration::from_micros(200);

/// The API's name for each machine.
fn api_name(kind: MachineKind) -> &'static str {
    match kind {
        MachineKind::RefSuperscalar => "ref",
        MachineKind::VmSoft => "vm.soft",
        MachineKind::VmBe => "vm.be",
        MachineKind::VmFe => "vm.fe",
        MachineKind::VmInterp => "vm.interp",
    }
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    id: u64,
    machine: MachineKind,
    app: usize,
    /// `POST /jobs` sent to terminal state read.
    latency_ns: u64,
    /// `POST /jobs` round trip.
    post_ns: u64,
    /// The terminal state document (`GET /jobs/<id>`).
    doc: Json,
}

impl Sample {
    fn field(&self, key: &str) -> u64 {
        u64_field(&self.doc, key).unwrap_or(0)
    }

    fn state(&self) -> &str {
        str_field(&self.doc, "state").unwrap_or("unreadable")
    }

    fn completed(&self) -> bool {
        self.state() == "completed"
    }
}

/// What one client thread saw in one round.
#[derive(Default)]
struct ClientRound {
    samples: Vec<Sample>,
    /// Jobs refused at `POST /jobs` or whose state could not be read.
    refused: u64,
    metrics_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    metrics_bytes: usize,
    errors: Vec<String>,
}

struct InFlight {
    id: u64,
    machine: MachineKind,
    app: usize,
    sent: Instant,
    post_ns: u64,
    get: Pending,
}

/// Client `c`'s share of a round: its slice of the group.
fn client_jobs(c: usize, group: &[(usize, MachineKind)]) -> &[(usize, MachineKind)] {
    let per = group.len() / CLIENTS;
    &group[c * per..if c + 1 == CLIENTS {
        group.len()
    } else {
        (c + 1) * per
    }]
}

/// Runs client `c`'s share of one round.
fn client_round(
    addr: SocketAddr,
    c: usize,
    apps: &[&str],
    group: &[(usize, MachineKind)],
    mut tr: Option<&mut Tracer>,
) -> ClientRound {
    let mut out = ClientRound::default();
    let tenant = format!("client{c}");
    let start = tr.as_ref().map_or(0, |t| t.now());
    let mut todo = client_jobs(c, group).iter();
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut completions = 0usize;
    let mut wait_since: Option<u64> = None;
    loop {
        while inflight.len() < IN_FLIGHT {
            let Some(&(app, machine)) = todo.next() else {
                break;
            };
            let body = format!(
                "{{\"tenant\": \"{tenant}\", \"app\": \"{}\", \"machine\": \"{}\"}}",
                apps[app],
                api_name(machine)
            );
            let sent = Instant::now();
            let t0 = tr.as_ref().map_or(0, |t| t.now());
            let resp = http::request(addr, "POST", "/jobs", &body);
            let post_ns = sent.elapsed().as_nanos() as u64;
            let id = match resp {
                Ok(r) if r.status == 202 => {
                    let id = http::parse_json(&r.body)
                        .ok()
                        .and_then(|j| u64_field(&j, "job"));
                    if id.is_none() {
                        out.errors
                            .push(format!("POST /jobs: no job id in {}", r.body.trim()));
                    }
                    id
                }
                Ok(r) => {
                    out.errors
                        .push(format!("POST /jobs: {} {}", r.status, r.body.trim()));
                    None
                }
                Err(e) => {
                    out.errors.push(format!("POST /jobs: {e}"));
                    None
                }
            };
            if let Some(t) = tr.as_deref_mut() {
                t.record("api.post", id.unwrap_or(0), t0, t.now());
            }
            let Some(id) = id else {
                out.refused += 1;
                continue;
            };
            match Pending::get(addr, &format!("/jobs/{id}?wait_ms=60000")) {
                Ok(get) => inflight.push(InFlight {
                    id,
                    machine,
                    app,
                    sent,
                    post_ns,
                    get,
                }),
                Err(e) => {
                    out.refused += 1;
                    out.errors.push(format!("GET /jobs/{id}: {e}"));
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let poll_start = tr.as_ref().map_or(0, |t| t.now());
        let mut done = None;
        for (k, f) in inflight.iter_mut().enumerate() {
            match f.get.poll() {
                Ok(None) => {}
                Ok(Some(r)) => {
                    done = Some((k, Ok(r)));
                    break;
                }
                Err(e) => {
                    done = Some((k, Err(e)));
                    break;
                }
            }
        }
        let Some((k, resp)) = done else {
            wait_since.get_or_insert(poll_start);
            std::thread::sleep(POLL);
            continue;
        };
        let f = inflight.swap_remove(k);
        let latency_ns = f.sent.elapsed().as_nanos() as u64;
        if let (Some(t), Some(since)) = (tr.as_deref_mut(), wait_since.take()) {
            t.record("client.wait", 0, since, poll_start);
        }
        let read_start = tr.as_ref().map_or(0, |t| t.now());
        let doc = resp
            .map_err(|e| e.to_string())
            .and_then(|r| http::parse_json(&r.body));
        if let Some(t) = tr.as_deref_mut() {
            t.record("api.read", f.id, read_start, t.now());
        }
        match doc {
            Ok(doc) => out.samples.push(Sample {
                id: f.id,
                machine: f.machine,
                app: f.app,
                latency_ns,
                post_ns: f.post_ns,
                doc,
            }),
            Err(e) => {
                out.refused += 1;
                out.errors.push(format!("GET /jobs/{}: {e}", f.id));
            }
        }
        completions += 1;
        if c == 0 && completions == OBSERVE_AFTER {
            for (path, name) in [("/metrics", "api.metrics"), ("/healthz", "api.healthz")] {
                let t = Instant::now();
                let t0 = tr.as_ref().map_or(0, |t| t.now());
                let r = http::request(addr, "GET", path, "");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some(t) = tr.as_deref_mut() {
                    t.record(name, 0, t0, t.now());
                }
                match r {
                    Ok(r) if r.status == 200 => {
                        if path == "/metrics" {
                            out.metrics_ms.push(ms);
                            out.metrics_bytes = r.body.len();
                        } else {
                            out.healthz_ms.push(ms);
                        }
                    }
                    Ok(r) => out.errors.push(format!("GET {path}: {}", r.status)),
                    Err(e) => out.errors.push(format!("GET {path}: {e}")),
                }
            }
        }
    }
    if let Some(t) = tr {
        t.wall_ns += t.now() - start;
    }
    out
}

/// One round of both clients.
struct Round {
    group: usize,
    traced: bool,
    wall_ns: u64,
    /// The yardstick's scale factor, timed just before the round.
    scale: f64,
    clients: Vec<ClientRound>,
}

impl Round {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| c.samples.iter())
    }
}

/// End-to-end figures from scaled rounds.
struct Estimate {
    jobs_per_s: f64,
    ns_per_inst: f64,
    latency_ms: Samples,
}

/// Throughput from each group's median scaled round, latency percentiles
/// over every scaled job latency. Rounds with a failed job are not kept.
fn estimate(rounds: &[&Round], groups: usize) -> Estimate {
    let (mut jobs, mut wall_ns, mut insts) = (0usize, 0.0, 0u64);
    let mut latency = Vec::new();
    for g in 0..groups {
        let kept: Vec<&Round> = rounds
            .iter()
            .copied()
            .filter(|r| r.group == g)
            .filter(|r| {
                r.clients.iter().all(|c| c.refused == 0) && r.samples().all(Sample::completed)
            })
            .collect();
        // Every kept round of a group runs the same jobs.
        let Some(first) = kept.first() else { continue };
        jobs += first.samples().count();
        insts += first.samples().map(|s| s.field("x86_retired")).sum::<u64>();
        wall_ns += median(
            &kept
                .iter()
                .map(|r| r.wall_ns as f64 * r.scale)
                .collect::<Vec<_>>(),
        );
        latency.extend(
            kept.iter()
                .flat_map(|r| r.samples().map(|s| s.latency_ns as f64 * r.scale / 1e6)),
        );
    }
    Estimate {
        jobs_per_s: jobs as f64 / (wall_ns.max(1.0) / 1e9),
        ns_per_inst: wall_ns / insts.max(1) as f64,
        latency_ms: Samples::new(latency),
    }
}

/// Per-layer metrics of the service layers, reported as zero by
/// workloads that do not exercise them.
pub fn absent_layers(out: &mut Outcome) {
    for (name, unit) in SERVE_LAYERS {
        out.metric(name, 0.0, unit);
    }
}

const SERVE_LAYERS: [(&str, &str); 13] = [
    ("serve.start_s", "s"),
    ("serve.queue_ms", "ms"),
    ("serve.stamp_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.steals", "count"),
    ("api.post_ms", "ms"),
    ("api.overhead_ms", "ms"),
    ("api.metrics_ms", "ms"),
    ("api.healthz_ms", "ms"),
    ("stats.prom_render_ms", "ms"),
    ("stats.metrics_kb", "KiB"),
];

/// Fetches `GET /jobs/<id>/spans` for `ids`, 16 requests at a time, and
/// returns each job's `stamp` and `run` span durations in ms. Jobs whose
/// record the service has already evicted are left out.
fn span_durations(addr: SocketAddr, ids: &[u64]) -> BTreeMap<u64, (f64, f64)> {
    let mut out = BTreeMap::new();
    for chunk in ids.chunks(16) {
        let mut pending: Vec<(u64, Pending)> = chunk
            .iter()
            .filter_map(|&id| Some((id, Pending::get(addr, &format!("/jobs/{id}/spans")).ok()?)))
            .collect();
        while !pending.is_empty() {
            let mut k = 0;
            while k < pending.len() {
                match pending[k].1.poll() {
                    Ok(None) => k += 1,
                    Ok(Some(r)) => {
                        let (id, _) = pending.swap_remove(k);
                        let Ok(doc) = http::parse_json(&r.body) else {
                            continue;
                        };
                        let spans = match doc.get("spans") {
                            Some(Json::Arr(spans)) => spans.as_slice(),
                            _ => &[],
                        };
                        let (mut stamp, mut run) = (None, None);
                        for s in spans {
                            let ms = u64_field(s, "dur_ns").unwrap_or(0) as f64 / 1e6;
                            match str_field(s, "name") {
                                Some("stamp") => stamp = Some(ms),
                                Some("run") => run = Some(ms),
                                _ => {}
                            }
                        }
                        if let (Some(stamp), Some(run)) = (stamp, run) {
                            out.insert(id, (stamp, run));
                        }
                    }
                    Err(_) => {
                        pending.swap_remove(k);
                    }
                }
            }
            std::thread::sleep(POLL);
        }
    }
    out
}

/// Runs the `serve_http` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let profiles = seeded_profiles(args.seed);
    let apps: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    let pairs: Vec<(usize, MachineKind)> = job_order(profiles.len(), MachineKind::ALL.len())
        .into_iter()
        .map(|(a, m)| (a, MachineKind::ALL[m]))
        .collect();
    let cfg = ServeConfig {
        workers: WORKERS,
        scale: SCALE,
        catalog: pairs
            .iter()
            .map(|&(a, m)| (m, profiles[a].clone()))
            .collect(),
        // Bounds the job table, so peak memory does not grow with the
        // number of jobs a run completes.
        terminal_retention: 1024,
        ..ServeConfig::default()
    };

    // Set-up: warm-pool prep and bind, repeated so its median is steady.
    // Each discarded instance is drained before the next starts, so only
    // one service is ever alive.
    let mut yard = Yardstick::new();
    let mut setup_s = Vec::new();
    let mut start_s = Vec::new();
    let mut set_up = || -> Result<(Arc<Service>, ApiServer), String> {
        let scale = yard.scale();
        let t = Instant::now();
        let svc = Arc::new(Service::start(cfg.clone()));
        start_s.push(t.elapsed().as_secs_f64());
        let api = ApiServer::bind(Arc::clone(&svc), 0, None).map_err(|e| format!("bind: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64() * scale);
        Ok((svc, api))
    };
    for _ in 1..SETUP_REPS {
        let (svc, mut api) = set_up()?;
        api.stop();
        svc.drain(None).map_err(|e| format!("drain: {e}"))?;
    }
    let (svc, mut api) = set_up()?;
    let addr = api.addr();

    // Measured phase. Traced runs alternate plain and traced rounds, so
    // both see the same host conditions and their difference is the
    // tracing overhead.
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(epoch, c as u32 + 1))
        .collect();
    let groups: Vec<&[(usize, MachineKind)]> = pairs.chunks(GROUP).collect();
    let per_mode = groups.len() * MIN_ROUNDS;
    let min_rounds = if args.trace { 2 * per_mode } else { per_mode };
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || Instant::now() < deadline {
        // Traced runs trace every other pass over the groups.
        let (group, pass) = (rounds.len() % groups.len(), rounds.len() / groups.len());
        let traced = args.trace && pass % 2 == 1;
        let scale = yard.scale();
        let t = Instant::now();
        let clients = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, tr)| {
                    let (apps, jobs) = (&apps, groups[group]);
                    s.spawn(move || client_round(addr, c, apps, jobs, traced.then_some(tr)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        rounds.push(Round {
            group,
            traced,
            wall_ns: t.elapsed().as_nanos() as u64,
            scale,
            clients,
        });
    }

    let health = http::request(addr, "GET", "/healthz", "")
        .ok()
        .and_then(|r| http::parse_json(&r.body).ok())
        .ok_or("GET /healthz failed after the run")?;
    let samples: Vec<&Sample> = rounds.iter().flat_map(Round::samples).collect();
    let traced: Vec<&Sample> = rounds
        .iter()
        .filter(|r| r.traced)
        .flat_map(Round::samples)
        .collect();
    let spans = if args.trace {
        span_durations(addr, &traced.iter().map(|s| s.id).collect::<Vec<_>>())
    } else {
        BTreeMap::new()
    };
    let prom_ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(svc.prometheus());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    api.stop();
    svc.drain(None).map_err(|e| format!("drain: {e}"))?;

    // Correctness: every served job against a cold batch run of its pair.
    let all_clients = || rounds.iter().flat_map(|r| r.clients.iter());
    let mut failures: Vec<String> = all_clients()
        .flat_map(|c| c.errors.iter().cloned())
        .collect();
    let t = Instant::now();
    let wls: Vec<_> = profiles
        .iter()
        .map(|p| build_app_run(p, SCALE, 1.0))
        .collect();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut refs: BTreeMap<(u8, usize), EndState> = BTreeMap::new();
    let mut probe = Probe::default();
    let mut scratch = Tracer::new(Instant::now(), 0);
    for &(a, kind) in &pairs {
        let mut run = layers::run_job(kind, &wls[a], args.trace.then_some(&mut scratch), 0);
        if run.status != Status::Halted {
            failures.push(format!(
                "batch {kind:?}/{}: ended {:?}",
                apps[a], run.status
            ));
            continue;
        }
        refs.insert(
            (kind as u8, a),
            EndState::capture(&mut run.sys, profiles[a].data_kb),
        );
        if args.trace {
            probe.add_slices(kind, &run.slices);
            probe.add_counts(&run.sys);
            probe.add_replay(&mut run.sys, &wls[a]);
        }
    }
    let served: Vec<Served> = samples
        .iter()
        .map(|s| Served {
            machine: s.machine,
            app: s.app,
            state: s.state().to_string(),
            message: str_field(&s.doc, "message").unwrap_or("").to_string(),
            cycles: s.field("cycles"),
            x86_retired: s.field("x86_retired"),
            arch_fnv: str_field(&s.doc, "arch_fnv")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0),
        })
        .collect();
    failures.extend(check::served(&served, &refs));
    let double_terminal = u64_field(&health, "double_terminal");
    if double_terminal != Some(0) {
        failures.push(format!("/healthz double_terminal = {double_terminal:?}"));
    }
    // The modeled cost of the fixed job list: every pair once.
    let completed = served.iter().filter(|s| s.state == "completed");
    let pair_cycles: BTreeMap<(u8, usize), u64> = completed
        .clone()
        .map(|s| ((s.machine as u8, s.app), s.cycles))
        .collect();
    let mut list_cycles = 0u64;
    for &(a, kind) in &pairs {
        match pair_cycles.get(&(kind as u8, a)) {
            Some(c) => list_cycles += c,
            None => failures.push(format!("{kind:?}/{}: never served", apps[a])),
        }
    }
    for f in failures.iter().take(20) {
        println!("check failed: {f}");
    }

    let attempted: u64 = all_clients()
        .map(|c| c.samples.len() as u64 + c.refused)
        .sum();
    let completed = completed.count() as u64;
    let mut out = Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: attempted - completed,
        metrics: Vec::new(),
    };
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let best = estimate(&plain, groups.len());
    let walls = Samples::new(plain.iter().map(|r| r.wall_ns as f64 / 1e6).collect());
    let scales: Vec<f64> = plain.iter().map(|r| r.scale).collect();
    println!(
        "serve_http: {} rounds of {GROUP} jobs, seed {}; unscaled round ms min {:.1} median {:.1} \
         max {:.1}; latency n={} beyond p90={} (every scaled job latency)",
        rounds.len(),
        args.seed,
        walls.percentile(0.01).unwrap_or(0.0),
        walls.median().unwrap_or(0.0),
        walls.percentile(100.0).unwrap_or(0.0),
        best.latency_ms.len(),
        best.latency_ms.beyond(90.0)
    );
    println!(
        "yardstick: round scale min {:.3} median {:.3} max {:.3}; set-up scales median of {}",
        scales.iter().copied().reduce(f64::min).unwrap_or(0.0),
        median(&scales),
        scales.iter().copied().reduce(f64::max).unwrap_or(0.0),
        setup_s.len()
    );
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("ns_per_inst", best.ns_per_inst, "ns");
        out.metric("jobs_per_s", best.jobs_per_s, "1/s");
        out.metric(
            "job_p50_ms",
            best.latency_ms.percentile(50.0).unwrap_or(0.0),
            "ms",
        );
        out.metric(
            "job_p90_ms",
            best.latency_ms.percentile(90.0).unwrap_or(0.0),
            "ms",
        );
        out.metric("modeled_mcycles", list_cycles as f64 / 1e6, "Mcycles");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metric(
            "success_rate",
            completed as f64 / attempted.max(1) as f64,
            "fraction",
        );
        return Ok(out);
    }

    let p50 = |v: Vec<f64>| Samples::new(v).median().unwrap_or(0.0);
    out.metric("workloads.build_ms", build_ms, "ms");
    probe.metrics(&mut out);
    let h = |k: &str| u64_field(&health, k).unwrap_or(0) as f64;
    let layer_values = [
        median(&start_s),
        p50(traced
            .iter()
            .map(|s| s.field("queue_ns") as f64 / 1e6)
            .collect()),
        p50(spans.values().map(|d| d.0).collect()),
        p50(spans.values().map(|d| d.1).collect()),
        h("retries"),
        h("shed"),
        h("steals"),
        p50(traced.iter().map(|s| s.post_ns as f64 / 1e6).collect()),
        p50(traced
            .iter()
            .map(|s| s.latency_ns.saturating_sub(s.field("latency_ns")) as f64 / 1e6)
            .collect()),
        p50(all_clients()
            .flat_map(|c| c.metrics_ms.iter().copied())
            .collect()),
        p50(all_clients()
            .flat_map(|c| c.healthz_ms.iter().copied())
            .collect()),
        median(&prom_ms),
        all_clients().map(|c| c.metrics_bytes).max().unwrap_or(0) as f64 / 1024.0,
    ];
    for ((name, unit), v) in SERVE_LAYERS.iter().zip(layer_values) {
        out.metric(name, v, unit);
    }
    let traced_rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let with = estimate(&traced_rounds, groups.len());
    let overhead = 100.0 * (best.jobs_per_s / with.jobs_per_s.max(1e-9) - 1.0);
    out.metric("trace.overhead_pct", overhead, "%");

    println!(
        "replay: {} translation errors, {} cold-boot restores",
        probe.replay_errors, probe.restore_failures
    );
    let table = LayerTable::build(&tracers.iter().collect::<Vec<_>>());
    table.print("serve_http client threads, traced rounds (sum over both threads)");
    // Where each traced job's client-observed latency went, from the
    // service's own per-job figures and spans.
    let with_spans: Vec<&Sample> = traced
        .iter()
        .copied()
        .filter(|s| spans.contains_key(&s.id))
        .collect();
    let sum_ms = |f: &dyn Fn(&Sample) -> f64| with_spans.iter().map(|s| f(s)).sum::<f64>();
    let lat = sum_ms(&|s| s.latency_ns as f64 / 1e6);
    let server = sum_ms(&|s| s.field("latency_ns") as f64 / 1e6);
    let queue = sum_ms(&|s| s.field("queue_ns") as f64 / 1e6);
    let stamp = sum_ms(&|s| spans[&s.id].0);
    let runs = sum_ms(&|s| spans[&s.id].1);
    println!(
        "job latency by layer over {} traced jobs with spans (ms):",
        with_spans.len()
    );
    println!("  api (client - service latency) {:>12.3}", lat - server);
    println!("  serve.queue                    {queue:>12.3}");
    println!("  serve.stamp                    {stamp:>12.3}");
    println!("  serve.run                      {runs:>12.3}");
    println!(
        "  serve.other                    {:>12.3}",
        server - queue - stamp - runs
    );
    println!("  sum = client latency           {lat:>12.3}");
    println!("trace overhead: {overhead:.2}% (median scaled plain vs traced rounds, jobs/s)");
    let path = write_perfetto("serve_http", &tracers.iter().collect::<Vec<_>>())
        .map_err(|e| format!("writing trace: {e}"))?;
    println!("perfetto trace: {}", path.display());
    Ok(out)
}
