//! A minimal hand-rolled JSON reader (and string escaper) with no
//! dependencies.
//!
//! The workspace *writes* JSON by hand (no serialization dependency); this
//! module is the matching reader: a small recursive-descent parser
//! producing a [`Json`] tree with just enough accessors for its consumers
//! — `facadeprof` reading exported Chrome traces, and the job/server
//! layers parsing `JobSpec` submissions off the wire. It lives in
//! `metrics` because that is the workspace's dependency-free base crate.
//!
//! It is not a general-purpose JSON library: numbers parse to `f64`,
//! object keys keep document order, and duplicate keys keep the first
//! occurrence (`get` returns the first match).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value rounded to `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): the writer-side helper matching this module's reader, used by
/// every hand-rolled JSON emitter in the workspace.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deepest container nesting the parser accepts. The parser recurses per
/// nesting level, so without a bound a wire-supplied document of ~200k
/// `[` (well under the server's body cap) overflows the stack and aborts
/// the process; no document of ours nests beyond a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs a container parse one nesting level down, bounded by
    /// [`MAX_DEPTH`] so hostile input cannot recurse the stack away.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // A high surrogate followed by an escaped low
                            // one is a pair: one character outside the
                            // BMP, as other writers encode it. A lone
                            // surrogate maps to the replacement character.
                            let pair = (0xd800..0xdc00).contains(&unit)
                                && self.bytes[self.pos..].starts_with(b"\\u");
                            let c = if pair {
                                let at = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    low @ 0xdc00..0xe000 => char::from_u32(
                                        0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00),
                                    ),
                                    _ => {
                                        self.pos = at;
                                        None
                                    }
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash whole:
                    // both are ASCII, so the run ends on a character
                    // boundary, and each byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let n = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..n]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += n;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape (no sign), as a UTF-16 code
    /// unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let unit = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parses_nested_objects_and_unicode_escapes() {
        let doc = parse(r#"{"outer": {"inner": {"deep": "A\"\\"}}}"#).unwrap();
        let deep = doc
            .get("outer")
            .and_then(|o| o.get("inner"))
            .and_then(|i| i.get("deep"))
            .and_then(Json::as_str);
        assert_eq!(deep, Some("A\"\\"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "1.2.3",
            "{\"a\": 01x}",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // A body of ~200k '[' fits under the HTTP server's 256 KiB cap and
        // used to abort the process with a stack overflow.
        let hostile = "[".repeat(200_000);
        let err = parse(&hostile).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        let hostile = "{\"k\":".repeat(100_000);
        assert!(parse(&hostile).is_err());
        // Reasonable nesting still parses, and the depth counter unwinds
        // correctly between sibling containers.
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
        let (open, close) = ("[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        let siblings = format!("[{open}1{close}, {open}2{close}]");
        assert!(parse(&siblings).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\r\u{1}ζ";
        let doc = parse(&format!("{{\"k\": \"{}\"}}", escape(nasty))).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn round_trips_a_real_bench_report_shape() {
        let doc = parse(concat!(
            "{\n  \"benchmark\": \"graphchi_pagerank_trajectory\",\n",
            "  \"runs\": [\n",
            "    {\"threads\": 1, \"wall_secs\": 0.087123, \"peak_bytes\": 4063232},\n",
            "    {\"threads\": 2, \"wall_secs\": 0.062000, \"peak_bytes\": 4030464}\n",
            "  ],\n  \"trace\": {\"events\": 0, \"instants\": {}}\n}\n",
        ))
        .unwrap();
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("threads").unwrap().as_u64(), Some(1));
        assert!((runs[0].get("wall_secs").unwrap().as_f64().unwrap() - 0.087123).abs() < 1e-9);
        assert_eq!(runs[1].get("peak_bytes").unwrap().as_u64(), Some(4_030_464));
    }
}
