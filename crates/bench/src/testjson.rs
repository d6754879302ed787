//! The workspace JSON reader as tests and benches use it: the value
//! type, and a `Parser::parse` that panics on malformed input, as an
//! assertion wants. Network input goes through
//! `cdvm_stats::json::Parser::try_parse` instead, which never panics.

pub use cdvm_stats::json::Json;

/// Reads documents the workspace wrote itself.
pub struct Parser;

impl Parser {
    /// Parses one complete JSON document.
    ///
    /// # Panics
    ///
    /// On any syntax error, nesting past
    /// `cdvm_stats::json::MAX_DEPTH` or trailing bytes, with the
    /// byte offset of the first problem.
    #[allow(
        clippy::panic,
        reason = "tests parse through this and panic by contract"
    )]
    pub fn parse(text: &str) -> Json {
        cdvm_stats::json::Parser::try_parse(text).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "trailing bytes after JSON document at byte 3")]
    fn rejects_trailing_garbage() {
        super::Parser::parse("{} extra");
    }
}
