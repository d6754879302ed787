//! A minimal HTTP/1.1 client for the `cdvm-serve` API, and field access
//! on its JSON response bodies.
//!
//! The server answers every request with `connection: close`, so a
//! response is everything read up to end of stream.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub use cdvm_bench::testjson::Json;
use cdvm_bench::testjson::Parser;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(90)))?;
    stream.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    Ok(stream)
}

fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = send(addr, method, path, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// A sent request whose response is read without blocking.
pub struct Pending {
    stream: TcpStream,
    raw: Vec<u8>,
}

impl Pending {
    /// Sends `GET path`.
    pub fn get(addr: SocketAddr, path: &str) -> io::Result<Pending> {
        let stream = send(addr, "GET", path, "")?;
        stream.set_nonblocking(true)?;
        Ok(Pending {
            stream,
            raw: Vec::new(),
        })
    }

    /// Reads what has arrived; the response once the server has closed
    /// the connection.
    pub fn poll(&mut self) -> io::Result<Option<Response>> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return parse_response(&self.raw).map(Some),
                Ok(n) => self.raw.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Parses a response body with the workspace's JSON reader. That reader
/// panics on malformed input; here a malformed body becomes an error, so
/// the benchmark reports it as a check failure.
pub fn parse_json(body: &str) -> Result<Json, String> {
    std::panic::catch_unwind(|| Parser::parse(body)).map_err(|_| format!("malformed JSON {body:?}"))
}

/// Member `key` of an object as an unsigned integer; `None` when absent
/// or not a number. Every integer the service reports is far below 2^53,
/// so the reader's `f64` holds it exactly.
pub fn u64_field(doc: &Json, key: &str) -> Option<u64> {
    match doc.get(key)? {
        Json::Num(n) => Some(*n as u64),
        _ => None,
    }
}

/// Member `key` of an object as a string; `None` when absent or not a
/// string.
pub fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match doc.get(key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let r = parse_response(b"HTTP/1.1 202 Accepted\r\ncontent-length: 9\r\n\r\n{\"job\":1}")
            .expect("parses");
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{\"job\":1}");
        assert!(parse_response(b"garbage").is_err());
    }

    #[test]
    fn reads_fields_and_rejects_malformed_bodies() {
        let doc =
            parse_json(r#"{"job": 12, "state": "completed", "arch_fnv": "00ff"}"#).expect("parses");
        assert_eq!(u64_field(&doc, "job"), Some(12));
        assert_eq!(str_field(&doc, "state"), Some("completed"));
        assert_eq!(u64_field(&doc, "state"), None);
        assert_eq!(str_field(&doc, "missing"), None);
        assert!(parse_json("{\"job\": 1").is_err());
    }
}
