//! A hand-rolled localhost HTTP/1.1 JSON API over [`Service`].
//!
//! The workspace takes no network or serialization dependency, so the
//! HTTP framing lives here. Request bodies are read with the workspace
//! JSON reader ([`cdvm_stats::json`], depth-bounded and non-panicking)
//! and must be flat objects of strings, booleans and non-negative
//! integers; responses are built with
//! [`Metrics::to_json`](cdvm_stats::Metrics::to_json).
//!
//! Framing is bounded and refused rather than guessed, before anything
//! is routed: a request line or header line above 8 KiB, or more than 64
//! header lines, get 431; a request line without a method and a target,
//! or a `Content-Length` that is not a decimal number (or disagrees with
//! another one), gets 400; a length above 1 MiB gets 413 without a body
//! byte being read.
//!
//! | Method & path                     | Action                                     |
//! |-----------------------------------|--------------------------------------------|
//! | `POST /jobs`                      | submit `{tenant, app, machine, ...}`       |
//! | `GET /jobs/<id>[?wait_ms=N]`      | job status (result once completed)         |
//! | `POST /jobs/<id>/cancel`          | request cancellation                       |
//! | `GET /jobs/<id>/spans`            | the job's recorded span tree               |
//! | `GET /jobs/<id>/trace`            | merged Perfetto (Chrome trace) document    |
//! | `GET /tenants/<t>/metrics`        | tenant telemetry snapshot                  |
//! | `GET /tenants/<t>/events?after=N` | per-job summaries newer than seq `N`       |
//! | `GET /healthz`                    | service health, SLO and pool/breaker state |
//! | `GET /metrics`                    | Prometheus text exposition (format 0.0.4)  |
//! | `POST /poison/clear`              | un-poison `{signature}` (or all, no body)  |
//! | `POST /drain`                     | graceful drain (persists warm images)      |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdvm_stats::json::{Json, Parser};
use cdvm_stats::Metrics;
use cdvm_uarch::MachineKind;

use crate::error::{OverloadScope, ServeError};
use crate::job::{JobSpec, JobState};
use crate::service::Service;

/// Parses the API's machine names (the paper's labels, case-insensitive;
/// `-` and `_` are accepted for `.`): `vm.soft`, `vm.be`, `vm.fe`,
/// `vm.interp`, `ref`.
pub fn parse_machine(s: &str) -> Option<MachineKind> {
    let norm: String = s
        .trim()
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c == '-' || c == '_' { '.' } else { c })
        .collect();
    match norm.as_str() {
        "vm.soft" | "vmsoft" => Some(MachineKind::VmSoft),
        "vm.be" | "vmbe" => Some(MachineKind::VmBe),
        "vm.fe" | "vmfe" => Some(MachineKind::VmFe),
        "vm.interp" | "vminterp" => Some(MachineKind::VmInterp),
        "ref" | "ref.superscalar" | "refsuperscalar" => Some(MachineKind::RefSuperscalar),
        _ => None,
    }
}

/// Reads a request body as a flat JSON object: every value a string, a
/// boolean or a non-negative integer. `None` for anything else, so
/// nested or malformed bodies are refused before they reach the service.
fn flat_object(body: &str) -> Option<Json> {
    let doc = Parser::try_parse(body).ok()?;
    let Json::Obj(fields) = &doc else {
        return None;
    };
    let scalar = |v: &Json| match v {
        Json::Str(_) | Json::Bool(_) => true,
        Json::Num(n) => n.is_finite() && n.is_sign_positive() && n.fract() == 0.0,
        _ => false,
    };
    fields.iter().all(|(_, v)| scalar(v)).then_some(doc)
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key)?.as_str()
}

fn num_field(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)?.as_num().map(|n| n as u64)
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

/// A running API server bound to a localhost port.
pub struct ApiServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Connections currently being handled (incremented before the
    /// connection thread spawns, decremented after its response is
    /// written). A host process draining to exit must wait for this to
    /// reach zero, or it races the `POST /drain` response write.
    active: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Decrements the active-connection count when the connection thread
/// finishes (response written) — or panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ApiServer {
    /// Binds `127.0.0.1:port` (0 picks a free port) and serves `service`
    /// until [`ApiServer::stop`] or drop. `persist_dir` is where
    /// `POST /drain` saves the healthy warm images.
    ///
    /// # Errors
    ///
    /// Any socket bind error.
    pub fn bind(
        service: Arc<Service>,
        port: u16,
        persist_dir: Option<PathBuf>,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        let active2 = Arc::clone(&active);
        let accept_thread = std::thread::Builder::new()
            .name("cdvm-serve-api".to_string())
            .spawn(move || loop {
                // Blocks until a client connects; `stop` wakes it with
                // a connection of its own, which is dropped here.
                let accepted = listener.accept();
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let dir = persist_dir.clone();
                        active2.fetch_add(1, Ordering::SeqCst);
                        let guard = ConnGuard(Arc::clone(&active2));
                        // One thread per connection: a blocking wait
                        // (`?wait_ms=`, `/drain`) must not stall the
                        // accept loop or other clients.
                        // (A failed spawn drops the closure — and
                        // with it the guard — so the slot is
                        // released either way.)
                        let _ = std::thread::Builder::new()
                            .name("cdvm-serve-conn".to_string())
                            .spawn(move || {
                                let _guard = guard;
                                handle_conn(&service, stream, dir.as_deref());
                            });
                    }
                    // A failing accept (say, out of descriptors) would
                    // fail again at once: back off instead of spinning.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })?;
        Ok(ApiServer {
            addr,
            stop,
            active,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (use when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being handled. Zero (after
    /// [`Service::is_drained`] flips) means every response — including
    /// the drain's own — has been written.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops the accept loop (in-flight connections finish).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The loop blocks in `accept`: connect once to wake it. If
            // even that fails, the thread is left to end with the process
            // rather than joined forever.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Longest request line or header line read, terminator included.
const MAX_LINE: u64 = 8 << 10;
/// Most header lines read per request.
const MAX_HEADERS: usize = 64;
/// Largest request body read.
const MAX_BODY: u64 = 1 << 20;
/// How long a refused connection is drained before it closes.
const DRAIN_TIME: Duration = Duration::from_millis(200);

/// A request whose framing was read in full.
struct Request {
    method: String,
    target: String,
    body: String,
}

/// Why no request was read: the connection ended or failed mid-request
/// (nothing to answer), or the framing is refused with this response.
enum Framing {
    Gone,
    Refused(Resp),
}

fn handle_conn(service: &Service, stream: TcpStream, persist_dir: Option<&std::path::Path>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let req = match read_request(&mut reader) {
        Ok(req) => req,
        Err(Framing::Gone) => return,
        Err(Framing::Refused(resp)) => {
            refuse(&stream, reader.into_inner(), &resp);
            return;
        }
    };
    let (path, query) = req.target.split_once('?').unwrap_or((&req.target, ""));
    let resp = route(service, &req.method, path, query, &req.body, persist_dir);
    let _ = write_response(&stream, &resp);
}

/// Reads the request line, the headers and the body, within the bounds
/// above. Only `Content-Length` is interpreted; a request is routed only
/// once its body has been read in full.
fn read_request(reader: &mut impl BufRead) -> Result<Request, Framing> {
    let line = read_line(reader)?;
    if line.is_empty() {
        return Err(Framing::Gone);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(refused(400, "Bad Request", "malformed request line"));
    };
    let (method, target) = (method.to_string(), target.to_string());
    let mut content_len = None;
    let mut headers = 0;
    loop {
        let h = read_line(reader)?;
        if h == "\r\n" || h == "\n" || h.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(refused(
                431,
                "Request Header Fields Too Large",
                "too many header lines",
            ));
        }
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(refused(400, "Bad Request", "unparseable Content-Length"));
        }
        // All digits: too many of them only means too large.
        let n = value.parse::<u64>().unwrap_or(u64::MAX);
        if content_len.is_some_and(|c| c != n) {
            return Err(refused(400, "Bad Request", "conflicting Content-Length"));
        }
        content_len = Some(n);
    }
    let len = content_len.unwrap_or(0);
    if len > MAX_BODY {
        return Err(refused(413, "Payload Too Large", "body above 1 MiB"));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body).map_err(|_| Framing::Gone)?;
    Ok(Request {
        method,
        target,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Reads one line of at most [`MAX_LINE`] bytes, terminator included;
/// empty at end of input.
fn read_line(reader: &mut impl BufRead) -> Result<String, Framing> {
    let mut buf = Vec::new();
    reader
        .take(MAX_LINE)
        .read_until(b'\n', &mut buf)
        .map_err(|_| Framing::Gone)?;
    if buf.len() as u64 == MAX_LINE && buf.last() != Some(&b'\n') {
        return Err(refused(
            431,
            "Request Header Fields Too Large",
            "line above 8 KiB",
        ));
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn refused(status: u16, reason: &'static str, msg: &str) -> Framing {
    Framing::Refused(Resp::error(status, reason, msg))
}

/// Answers a refused request, then discards what the client sends for
/// at most [`DRAIN_TIME`] before closing: closing a socket with unread
/// input resets the connection, which can destroy the response before
/// the client reads it.
fn refuse(stream: &TcpStream, mut input: TcpStream, resp: &Resp) {
    if write_response(stream, resp).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIME;
    let _ = input.set_read_timeout(Some(DRAIN_TIME));
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline && matches!(input.read(&mut buf), Ok(n) if n > 0) {}
}

/// A response: status, reason, content type, extra headers, body.
struct Resp {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn json(status: u16, reason: &'static str, m: &Metrics) -> Resp {
        Resp {
            status,
            reason,
            content_type: "application/json",
            headers: Vec::new(),
            body: m.to_json(),
        }
    }

    /// A plain-text body: the Prometheus exposition and the raw Chrome
    /// trace document (one JSON event per line — served as text so the
    /// file downloads straight into Perfetto).
    fn text(status: u16, reason: &'static str, content_type: &'static str, body: String) -> Resp {
        Resp {
            status,
            reason,
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    fn error(status: u16, reason: &'static str, msg: &str) -> Resp {
        let mut m = Metrics::new();
        m.set("error", msg);
        Resp::json(status, reason, &m)
    }
}

fn write_response(mut stream: &TcpStream, r: &Resp) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        r.status,
        r.reason,
        r.content_type,
        r.body.len()
    );
    for (k, v) in &r.headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&r.body);
    stream.write_all(out.as_bytes())
}

fn query_u64(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn route(
    service: &Service,
    method: &str,
    path: &str,
    query: &str,
    body: &str,
    persist_dir: Option<&std::path::Path>,
) -> Resp {
    let segs: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segs.as_slice()) {
        ("POST", ["jobs"]) => post_job(service, body),
        ("GET", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => get_job(service, id, query_u64(query, "wait_ms")),
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["jobs", id, "spans"]) => match id.parse::<u64>() {
            Ok(id) => match service.job_spans(id) {
                Some(m) => Resp::json(200, "OK", &m),
                None => Resp::error(404, "Not Found", "unknown job"),
            },
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["jobs", id, "trace"]) => match id.parse::<u64>() {
            Ok(id) => match service.job_trace(id) {
                Some(body) => Resp::text(200, "OK", "application/json", body),
                None => Resp::error(404, "Not Found", "unknown job"),
            },
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("POST", ["jobs", id, "cancel"]) => match id.parse::<u64>() {
            Ok(id) => {
                let mut m = Metrics::new();
                m.set("job", id).set("cancelled", service.cancel(id));
                Resp::json(200, "OK", &m)
            }
            Err(_) => Resp::error(400, "Bad Request", "job id must be an integer"),
        },
        ("GET", ["tenants", t, "metrics"]) => match service.tenant_metrics(t) {
            Some(m) => Resp::json(200, "OK", &m),
            None => Resp::error(404, "Not Found", "unknown tenant"),
        },
        ("GET", ["tenants", t, "events"]) => {
            let after = query_u64(query, "after").unwrap_or(0);
            let (events, last) = service.tenant_events(t, after);
            let mut m = Metrics::new();
            // `next_after` is the cursor to pass back; `last` is kept
            // for clients written against the original field name.
            m.set("last", last).set("next_after", last).set("events", events);
            Resp::json(200, "OK", &m)
        }
        ("GET", ["healthz"]) => Resp::json(200, "OK", &service.health()),
        ("GET", ["metrics"]) => Resp::text(
            200,
            "OK",
            "text/plain; version=0.0.4",
            service.prometheus(),
        ),
        ("POST", ["poison", "clear"]) => match poison_target(body) {
            Ok(sig) => {
                let mut m = Metrics::new();
                m.set("cleared", service.clear_poison(sig.as_deref()) as u64);
                Resp::json(200, "OK", &m)
            }
            Err(msg) => Resp::error(400, "Bad Request", msg),
        },
        ("POST", ["drain"]) => match service.drain(persist_dir) {
            Ok(paths) => {
                let mut m = Metrics::new();
                m.set("drained", true).set(
                    "persisted",
                    paths
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>(),
                );
                Resp::json(200, "OK", &m)
            }
            Err(e) => Resp::error(500, "Internal Server Error", &format!("persist failed: {e}")),
        },
        _ => Resp::error(404, "Not Found", "no such route"),
    }
}

/// Reads a `POST /jobs` body into a job spec, or the 400 message.
fn job_spec(body: &str) -> Result<JobSpec, &'static str> {
    let doc = flat_object(body).ok_or("body is not a flat JSON object")?;
    let app = str_field(&doc, "app").ok_or("missing \"app\"")?;
    let machine = str_field(&doc, "machine")
        .and_then(parse_machine)
        .ok_or("missing or unknown \"machine\" (vm.soft, vm.be, vm.fe, vm.interp, ref)")?;
    let mut spec = JobSpec::new(str_field(&doc, "tenant").unwrap_or("default"), app, machine);
    spec.deadline_insts = num_field(&doc, "deadline_insts");
    spec.deadline_ms = num_field(&doc, "deadline_ms");
    Ok(spec)
}

/// Reads a `POST /poison/clear` body: a string `signature`
/// (`tenant/app/machine`) names the one entry to clear; an empty body or
/// a flat object without `signature` clears them all. Anything else is
/// the 400 message, and clears nothing.
fn poison_target(body: &str) -> Result<Option<String>, &'static str> {
    if body.trim().is_empty() {
        return Ok(None);
    }
    let doc = flat_object(body).ok_or("body is not a flat JSON object")?;
    match doc.get("signature") {
        None => Ok(None),
        Some(Json::Str(sig)) => Ok(Some(sig.clone())),
        Some(_) => Err("\"signature\" must be a string"),
    }
}

fn post_job(service: &Service, body: &str) -> Resp {
    let spec = match job_spec(body) {
        Ok(spec) => spec,
        Err(msg) => return Resp::error(400, "Bad Request", msg),
    };
    match service.submit(spec) {
        Ok(id) => {
            let mut m = Metrics::new();
            m.set("job", id);
            Resp::json(202, "Accepted", &m)
        }
        Err(ServeError::Overloaded {
            scope,
            retry_after_ms,
        }) => {
            let mut m = Metrics::new();
            m.set(
                "error",
                match scope {
                    OverloadScope::Global => "overloaded: service",
                    OverloadScope::Tenant => "overloaded: tenant queue",
                },
            )
            .set("retry_after_ms", retry_after_ms);
            let mut r = Resp::json(429, "Too Many Requests", &m);
            r.headers.push((
                "retry-after".to_string(),
                format!("{}", retry_after_ms.div_ceil(1000).max(1)),
            ));
            r
        }
        Err(ServeError::Draining) => Resp::error(503, "Service Unavailable", "draining"),
        Err(ServeError::UnknownApp { app }) => {
            Resp::error(404, "Not Found", &format!("unknown (machine, app): {app}"))
        }
        Err(e) => Resp::error(400, "Bad Request", &e.to_string()),
    }
}

fn get_job(service: &Service, id: u64, wait_ms: Option<u64>) -> Resp {
    let state = match wait_ms {
        Some(ms) => service.wait(id, Duration::from_millis(ms.min(60_000))).ok(),
        None => service.status(id),
    };
    match state {
        None => Resp::error(404, "Not Found", "unknown job"),
        Some(state) => {
            let mut m = Metrics::new();
            m.set("job", id).set("state", state.name());
            match &state {
                JobState::Completed(out) => {
                    m.set("warm", out.warm.name())
                        .set("attempts", u64::from(out.attempts))
                        .set("cycles", out.cycles)
                        .set("x86_retired", out.x86_retired)
                        .set("arch_fnv", format!("{:016x}", out.arch_fnv))
                        .set("latency_ns", out.latency_ns)
                        .set("queue_ns", out.queue_ns)
                        .set("run_ns", out.run_ns);
                }
                JobState::Failed { message, attempts } => {
                    m.set("message", message.as_str())
                        .set("attempts", u64::from(*attempts));
                }
                JobState::Expired { attempts } => {
                    m.set("attempts", u64::from(*attempts));
                }
                _ => {}
            }
            Resp::json(200, "OK", &m)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    use crate::pool::PoolConfig;
    use crate::service::ServeConfig;

    /// A service with an empty catalog: a well-formed job body gets 404
    /// for its unknown (machine, app), so a 400 always comes from the
    /// body itself.
    fn service() -> Service {
        Service::start(ServeConfig {
            workers: 1,
            pool: PoolConfig {
                warm: false,
                ..PoolConfig::default()
            },
            ..ServeConfig::default()
        })
    }

    /// A `POST` through the router: status and error message.
    fn post_to(svc: &Service, path: &str, body: &str) -> (u16, String) {
        let r = route(svc, "POST", path, "", body, None);
        let doc = Parser::try_parse(&r.body).expect("a JSON reply");
        (
            r.status,
            doc.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
        )
    }

    /// `POST /jobs` through the router: status and error message.
    fn post(svc: &Service, body: &str) -> (u16, String) {
        post_to(svc, "/jobs", body)
    }

    #[test]
    fn flat_json_round_trip() {
        let body = r#"{ "tenant": "acme", "app": "wordA", "machine": "vm.soft",
                        "deadline_ms": 250, "flag": true }"#;
        let spec = job_spec(body).expect("parses");
        assert_eq!(spec.tenant, "acme");
        assert_eq!(spec.app, "wordA");
        assert_eq!(spec.machine, MachineKind::VmSoft);
        assert_eq!(spec.deadline_ms, Some(250));
        assert_eq!(spec.deadline_insts, None);
        // A boolean is a flat value but not a number.
        let spec = job_spec(r#"{"app": "a", "machine": "ref", "deadline_insts": true}"#);
        assert_eq!(spec.expect("parses").deadline_insts, None);
        let (status, err) = post(&service(), body);
        assert_eq!(
            (status, err.as_str()),
            (404, "unknown (machine, app): VM.soft/wordA")
        );
    }

    #[test]
    fn flat_json_rejects_nesting_and_garbage() {
        let svc = service();
        for body in [
            "{\"a\": {\"b\": 1}}",
            "[1, 2]",
            "{\"a\": -1}",
            "{\"a\" 1}",
            "",
            "{\"a\": 2.5}",
            "{\"a\": null}",
            "{\"a\": [1]}",
        ] {
            let got = post(&svc, body);
            assert_eq!(
                got,
                (400, "body is not a flat JSON object".to_string()),
                "{body:?}"
            );
        }
        assert_eq!(post(&svc, "{}"), (400, "missing \"app\"".to_string()));
    }

    #[test]
    fn poison_clear_takes_a_string_signature_or_nothing() {
        assert_eq!(poison_target(""), Ok(None));
        assert_eq!(poison_target(" \r\n"), Ok(None));
        assert_eq!(poison_target("{}"), Ok(None));
        assert_eq!(poison_target(r#"{"note": "all"}"#), Ok(None));
        assert_eq!(
            poison_target(r#"{"signature": "t/Word/VmSoft"}"#),
            Ok(Some("t/Word/VmSoft".to_string()))
        );
        let svc = service();
        for body in ["", "{}", r#"{"signature": "t/Word/VmSoft"}"#] {
            assert_eq!(
                post_to(&svc, "/poison/clear", body),
                (200, String::new()),
                "{body:?}"
            );
        }
        let not_flat = "body is not a flat JSON object".to_string();
        for body in [
            "garbage",
            "[1]",
            "[[[",
            "{\"signature\": {\"a\": 1}}",
            "null",
            "\"t/Word\"",
        ] {
            assert_eq!(
                post_to(&svc, "/poison/clear", body),
                (400, not_flat.clone()),
                "{body:?}"
            );
        }
        for body in [r#"{"signature": 5}"#, r#"{"signature": true}"#] {
            assert_eq!(
                post_to(&svc, "/poison/clear", body),
                (400, "\"signature\" must be a string".to_string()),
                "{body:?}"
            );
        }
    }

    #[test]
    fn machine_names_parse() {
        assert_eq!(parse_machine("vm.soft"), Some(MachineKind::VmSoft));
        assert_eq!(parse_machine("VM-BE"), Some(MachineKind::VmBe));
        assert_eq!(parse_machine("vm_fe"), Some(MachineKind::VmFe));
        assert_eq!(parse_machine("ref"), Some(MachineKind::RefSuperscalar));
        assert_eq!(parse_machine("z80"), None);
    }
}
