//! The JSON reader, counterpart of [`Metrics::to_json`](crate::Metrics::to_json).
//!
//! Hand-rolled like the writers (the workspace takes no serialization
//! dependency). Nothing here panics: [`Parser::try_parse`] returns the
//! first error with its byte offset, and the `as_*` accessors return
//! `None` on a value of the wrong type. The serve API reads request
//! bodies from the network through it; tests and benches read the
//! workspace's own artifacts through `cdvm_bench::testjson`, which
//! panics on malformed input, as an assertion wants.
//!
//! The parser recurses once per container, so nesting is bounded by
//! [`MAX_DEPTH`]: an unbounded run of `[` would otherwise overflow the
//! reading thread's stack and abort the process.

/// Deepest container nesting accepted. The workspace's own documents
/// nest a handful of levels; the bound keeps a hostile document's
/// recursion far inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array's elements; `None` on non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number's value; `None` on non-numbers.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string's value; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

type Res<T> = Result<T, String>;

/// The recursive-descent parser over a byte slice.
pub struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Parses one complete JSON document; any syntax error, nesting
    /// past [`MAX_DEPTH`] or trailing bytes is an error.
    ///
    /// # Errors
    ///
    /// The first problem found, with its byte offset.
    pub fn try_parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing bytes after JSON document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Res<u8> {
        self.ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| self.err("unexpected end of JSON"))
    }

    /// The next byte, consumed.
    fn bump(&mut self, what: &str) -> Res<u8> {
        let c = *self.b.get(self.i).ok_or_else(|| self.err(what))?;
        self.i += 1;
        Ok(c)
    }

    fn eat(&mut self, c: u8) -> Res<()> {
        if self.peek()? != c {
            return Err(self.err(&format!("expected {:?}", c as char)));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Res<Json> {
        match self.peek()? {
            b'{' => {
                let mut kv = Vec::new();
                self.items(b'}', |p| {
                    let k = p.string()?;
                    p.eat(b':')?;
                    kv.push((k, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(kv))
            }
            b'[' => {
                let mut v = Vec::new();
                self.items(b']', |p| {
                    v.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(v))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses a container's comma-separated items up to `close`; the
    /// opening bracket is the peeked byte. One level of nesting.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Res<()>) -> Res<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.i += 1;
        if self.peek()? != close {
            loop {
                item(self)?;
                match self.peek()? {
                    b',' => self.i += 1,
                    c if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or {:?}", close as char))),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, v: Json) -> Res<Json> {
        if !self.b[self.i..].starts_with(word.as_bytes()) {
            return Err(self.err("bad literal"));
        }
        self.i += word.len();
        Ok(v)
    }

    fn string(&mut self) -> Res<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump("unterminated string")? {
                b'"' => return Ok(s),
                b'\\' => s.push(match self.bump("unterminated escape")? {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let cp = self
                            .b
                            .get(self.i..self.i + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        self.i += 4;
                        // Surrogates never appear in the workspace's
                        // output (its writers only escape control chars).
                        char::from_u32(cp).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(self.err("bad escape")),
                }),
                _ => {
                    // Multi-byte UTF-8: copy the raw bytes back out.
                    let start = self.i - 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xc0 == 0x80 {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("bad UTF-8"))?;
                    s.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Res<Json> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or_default();
        match text.parse() {
            Ok(n) if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) => Ok(Json::Num(n)),
            _ => Err(format!("bad number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_escapes() {
        let doc =
            Parser::try_parse(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": null}}"#).expect("valid");
        let a = doc.get("a").and_then(Json::as_arr).expect("a");
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_num(), Some(-25.0));
        assert_eq!(a[2].as_str(), Some("x\n\"yA"));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        // A value of the wrong type reads as `None`, never a panic.
        assert_eq!(a[0].as_str(), None);
        assert_eq!(a[2].as_num(), None);
        assert_eq!(doc.as_arr(), None);
    }

    #[test]
    fn round_trips_the_metrics_writer() {
        let mut inner = crate::Metrics::new();
        inner.set("ipc", 0.5f64).set("ok", true);
        let mut m = crate::Metrics::new();
        m.set("name", "a\"b\\c\u{1}é")
            .set("n", u64::from(u32::MAX))
            .set("run", inner)
            .set("list", vec![1u64, 2]);
        let doc = Parser::try_parse(&m.to_json()).expect("the writer's output parses");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b\\c\u{1}é"));
        assert_eq!(doc.get("n").and_then(Json::as_num), Some(f64::from(u32::MAX)));
        let run = doc.get("run").expect("run");
        assert_eq!(run.get("ipc"), Some(&Json::Num(0.5)));
        assert_eq!(run.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("list").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            " ",
            "{",
            "[",
            "}",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{,}",
            "{1: 2}",
            "\"abc",
            "\"\\",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "tru",
            "nul",
            "+1",
            ".5",
            "-",
            "1-2",
            "e5",
            "x",
            "[1 2]",
            "{\"a\":1}}",
        ] {
            let err = Parser::try_parse(bad).expect_err(bad);
            assert!(err.contains(" at byte "), "{bad:?}: {err}");
        }
        assert_eq!(
            Parser::try_parse("{} extra"),
            Err("trailing bytes after JSON document at byte 3".to_string()),
            "the offset points at the first trailing byte"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Parser::try_parse(&nested(MAX_DEPTH)).is_ok());
        let err = Parser::try_parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // The hostile case runs on this test thread's default stack: it
        // must be refused at the bound, long before the stack runs out.
        assert!(Parser::try_parse(&"[".repeat(100_000)).is_err());
        let objects = "{\"a\":".repeat(100_000);
        assert!(Parser::try_parse(&objects).is_err());
    }
}
