//! A small metrics registry with JSON export.
//!
//! Benches record run metrics into a [`Metrics`] tree and serialize it
//! to `<bench>.metrics.json` with [`Metrics::to_json`] so figure/table
//! runs are machine-readable without scraping stdout. The writer is hand-rolled
//! (the workspace takes no serialization dependency): keys keep
//! insertion order, strings are escaped per RFC 8259, and non-finite
//! floats serialize as `null` (JSON has no representation for them).

use std::fmt::Write as _;

/// A metric value: scalar, string, list, or nested map.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Unsigned counter.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form label.
    Str(String),
    /// Ordered list of values.
    List(Vec<MetricValue>),
    /// Nested metrics map (insertion-ordered).
    Map(Metrics),
}

impl MetricValue {
    /// The value as one exposition sample: numbers as themselves,
    /// booleans as 0/1; `None` for strings, lists and maps.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            MetricValue::U64(n) => Some(n as f64),
            MetricValue::I64(n) => Some(n as f64),
            MetricValue::F64(x) => Some(x),
            MetricValue::Bool(b) => Some(f64::from(u8::from(b))),
            _ => None,
        }
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::U64(v)
    }
}
impl From<usize> for MetricValue {
    fn from(v: usize) -> Self {
        MetricValue::U64(v as u64)
    }
}
impl From<i64> for MetricValue {
    fn from(v: i64) -> Self {
        MetricValue::I64(v)
    }
}
impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::F64(v)
    }
}
impl From<bool> for MetricValue {
    fn from(v: bool) -> Self {
        MetricValue::Bool(v)
    }
}
impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Str(v.to_string())
    }
}
impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Str(v)
    }
}
impl From<Metrics> for MetricValue {
    fn from(v: Metrics) -> Self {
        MetricValue::Map(v)
    }
}
impl<T: Into<MetricValue>> From<Vec<T>> for MetricValue {
    fn from(v: Vec<T>) -> Self {
        MetricValue::List(v.into_iter().map(Into::into).collect())
    }
}

/// An insertion-ordered key → value metrics map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, MetricValue)>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Sets `key` to `value`, replacing an existing entry in place (its
    /// position is kept) or appending a new one.
    pub fn set(&mut self, key: &str, value: impl Into<MetricValue>) -> &mut Self {
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key.to_string(), value)),
        }
        self
    }

    /// Looks up a top-level key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of top-level entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over top-level entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> + '_ {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes to pretty-printed JSON (2-space indent, trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_map(&mut out, self, 0);
        out.push('\n');
        out
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_map(out: &mut String, m: &Metrics, level: usize) {
    if m.entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (k, v)) in m.entries.iter().enumerate() {
        indent(out, level + 1);
        write_string(out, k);
        out.push_str(": ");
        write_value(out, v, level + 1);
        if i + 1 < m.entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    indent(out, level);
    out.push('}');
}

fn write_value(out: &mut String, v: &MetricValue, level: usize) {
    match v {
        MetricValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        MetricValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        MetricValue::F64(x) => {
            if x.is_finite() {
                // `{:?}` keeps round-trip precision and always includes
                // a decimal point or exponent, so the value re-parses as
                // a float.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        MetricValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        MetricValue::Str(s) => write_string(out, s),
        MetricValue::List(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(out, level + 1);
                write_value(out, item, level + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(out, level);
            out.push(']');
        }
        MetricValue::Map(m) => write_map(out, m, level),
    }
}

/// Escapes and quotes `s` per RFC 8259, appending to `out`. Shared with
/// the Chrome-trace writer so both exporters escape identically.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace_preserves_order() {
        let mut m = Metrics::new();
        m.set("b", 1u64).set("a", 2u64).set("b", 3u64);
        assert_eq!(m.get("b"), Some(&MetricValue::U64(3)));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "a"], "replace keeps position");
    }

    #[test]
    fn json_scalars_and_nesting() {
        let mut inner = Metrics::new();
        inner.set("cycles", 123u64).set("ipc", 0.5f64);
        let mut m = Metrics::new();
        m.set("bench", "fig2")
            .set("ok", true)
            .set("delta", -4i64)
            .set("run", inner)
            .set("list", vec![1u64, 2, 3]);
        let j = m.to_json();
        assert!(j.contains("\"bench\": \"fig2\""), "{j}");
        assert!(j.contains("\"ok\": true"), "{j}");
        assert!(j.contains("\"delta\": -4"), "{j}");
        assert!(j.contains("\"cycles\": 123"), "{j}");
        assert!(j.contains("\"ipc\": 0.5"), "{j}");
        assert!(j.contains("\"list\": [\n"), "{j}");
        assert!(j.ends_with("}\n"), "{j}");
    }

    #[test]
    fn json_escapes_strings() {
        let mut m = Metrics::new();
        m.set("path\"x", "a\\b\nc\u{1}");
        let j = m.to_json();
        assert!(j.contains("\"path\\\"x\""), "{j}");
        assert!(j.contains("\"a\\\\b\\nc\\u0001\""), "{j}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut m = Metrics::new();
        m.set("nan", f64::NAN).set("inf", f64::INFINITY);
        let j = m.to_json();
        assert!(j.contains("\"nan\": null"), "{j}");
        assert!(j.contains("\"inf\": null"), "{j}");
    }

    #[test]
    fn empty_containers() {
        let mut m = Metrics::new();
        m.set("e", Metrics::new())
            .set("l", Vec::<u64>::new());
        let j = m.to_json();
        assert!(j.contains("\"e\": {}"), "{j}");
        assert!(j.contains("\"l\": []"), "{j}");
        assert_eq!(Metrics::new().to_json(), "{}\n");
    }

    #[test]
    fn floats_reparse_as_floats() {
        let mut m = Metrics::new();
        m.set("x", 2.0f64);
        // 2.0 must not serialize as bare `2` (would re-parse as int).
        assert!(m.to_json().contains("\"x\": 2.0"));
    }
}
