//! A small JSON codec: a recursive-descent parser and a streaming encoder.
//!
//! No serde in an offline build environment, and the wire schema is small
//! (see the [crate docs](crate)), so this module implements exactly what
//! the front-end needs:
//!
//! * [`Json::parse`] — strict RFC 8259 parsing into a [`Json`] tree, with a
//!   recursion-depth cap and byte offsets in every error;
//! * [`JsonWriter`] — an append-only streaming encoder that writes straight
//!   into a `String` (no intermediate tree when *building* responses).
//!
//! # Number fidelity
//!
//! `f64` values are encoded with Rust's shortest-round-trip `Display` and
//! decoded with `str::parse::<f64>`, so a finite double survives an
//! encode/decode round trip **bit for bit** — that is what lets the wire
//! integration tests demand bit-identical kriging means against the
//! in-process `predict_batch` path. Non-finite values encode as `null`
//! (JSON has no representation for them).

use exa_telemetry::{Stat, Value};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 32;

impl Json {
    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric field as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                c if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid — copy it through byte-wise.
                    let start = self.pos - 1;
                    while self
                        .peek()
                        .map(|b| b >= 0x80 && (b & 0xC0) == 0x80)
                        .unwrap_or(false)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was a valid &str"),
                    );
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by \uDC00..DFFF.
        if (0xD800..0xDC00).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&unit) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(unit).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16)
            .map_err(|_| self.err(format!("bad \\u escape {hex:?}")))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits"));
        }
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(JsonError {
                offset: int_start,
                message: "leading zeros are not allowed".into(),
            });
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.err(format!("number {text:?} overflows f64")));
        }
        Ok(Json::Num(value))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().map(|b| b.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Streaming JSON encoder: values are appended in document order and the
/// writer tracks commas/nesting, so response bodies are built in one pass
/// with no intermediate tree.
///
/// ```
/// use exa_wire::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("mean");
/// w.begin_array();
/// for v in [1.0, 0.5] {
///     w.number(v);
/// }
/// w.end_array();
/// w.key("model");
/// w.string("soil");
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"mean":[1,0.5],"model":"soil"}"#);
/// ```
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it holds a value (so the
    /// next entry needs a comma).
    stack: Vec<bool>,
    /// Set between a `key()` and its value.
    pending_key: bool,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Separator bookkeeping before any value (or key) is appended.
    fn prelude(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_values) = self.stack.last_mut() {
            if *has_values {
                self.out.push(',');
            }
            *has_values = true;
        }
    }

    pub fn begin_object(&mut self) {
        self.prelude();
        self.out.push('{');
        self.stack.push(false);
    }

    pub fn end_object(&mut self) {
        debug_assert!(self.stack.pop().is_some(), "unbalanced end_object");
        self.out.push('}');
    }

    pub fn begin_array(&mut self) {
        self.prelude();
        self.out.push('[');
        self.stack.push(false);
    }

    pub fn end_array(&mut self) {
        debug_assert!(self.stack.pop().is_some(), "unbalanced end_array");
        self.out.push(']');
    }

    /// Starts an object member; the next appended value becomes its value.
    pub fn key(&mut self, key: &str) {
        self.prelude();
        self.push_escaped(key);
        self.out.push(':');
        self.pending_key = true;
    }

    pub fn string(&mut self, value: &str) {
        self.prelude();
        self.push_escaped(value);
    }

    /// A finite `f64` in shortest-round-trip form; non-finite → `null`.
    pub fn number(&mut self, value: f64) {
        self.prelude();
        if value.is_finite() {
            // Rust's Display for f64 is shortest-round-trip and never uses
            // exponent notation, both of which keep the output valid JSON.
            std::fmt::Write::write_fmt(&mut self.out, format_args!("{value}"))
                .expect("fmt to string");
        } else {
            self.out.push_str("null");
        }
    }

    pub fn uint(&mut self, value: u64) {
        self.prelude();
        std::fmt::Write::write_fmt(&mut self.out, format_args!("{value}")).expect("fmt to string");
    }

    pub fn boolean(&mut self, value: bool) {
        self.prelude();
        self.out.push_str(if value { "true" } else { "false" });
    }

    pub fn null(&mut self) {
        self.prelude();
        self.out.push_str("null");
    }

    /// Splices a pre-encoded JSON value in verbatim — the writer handles
    /// only the surrounding separators. The caller vouches that `fragment`
    /// is one well-formed JSON value (an aggregator embedding a backend's
    /// already-encoded document should not decode and re-encode it).
    pub fn raw(&mut self, fragment: &str) {
        self.prelude();
        self.out.push_str(fragment);
    }

    /// Whole-field helpers for the common scalar shapes.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.string(value);
    }

    pub fn field_num(&mut self, key: &str, value: f64) {
        self.key(key);
        self.number(value);
    }

    pub fn field_uint(&mut self, key: &str, value: u64) {
        self.key(key);
        self.uint(value);
    }

    /// One member per stat, in table order, read from `snap`: the JSON
    /// rendering of a `stats_struct!` table (integers exact, floats
    /// shortest-round-trip).
    pub fn stats<'t, S: 't>(&mut self, table: impl IntoIterator<Item = &'t Stat<S>>, snap: &S) {
        for stat in table {
            self.key(stat.name);
            match (stat.read)(snap) {
                Value::Uint(v) => self.uint(v),
                Value::Num(v) => self.number(v),
            }
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unbalanced JSON document");
        self.out
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    std::fmt::Write::write_fmt(&mut self.out, format_args!("\\u{:04x}", c as u32))
                        .expect("fmt to string");
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_request_shape() {
        let doc = Json::parse(r#"{"targets":[[0.25,0.75],[0.5,0.5]],"variance":true}"#).unwrap();
        let targets = doc.get("targets").unwrap().as_array().unwrap();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].as_array().unwrap()[0].as_f64(), Some(0.25));
        assert_eq!(doc.get("variance").unwrap().as_bool(), Some(true));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        // The values a kriging response actually carries: products of many
        // irrational factors, spanning signs and magnitudes.
        let values = [
            0.1 + 0.2,
            -1.0 / 3.0,
            6.02214076e23_f64.recip(),
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            123_456_789.123_456_79,
        ];
        let mut w = JsonWriter::new();
        w.begin_array();
        for v in values {
            w.number(v);
        }
        w.end_array();
        let encoded = w.finish();
        let parsed = Json::parse(&encoded).unwrap();
        let arr = parsed.as_array().unwrap();
        for (orig, got) in values.iter().zip(arr) {
            let got = got.as_f64().unwrap();
            assert_eq!(
                orig.to_bits(),
                got.to_bits(),
                "{orig:e} lost bits through JSON"
            );
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "a\"b\\c\nd\te\u{1}é∞");
        w.end_object();
        let encoded = w.finish();
        let parsed = Json::parse(&encoded).unwrap();
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("a\"b\\c\nd\te\u{1}é∞")
        );
        // Escapes produced by other encoders parse too.
        let doc = Json::parse(r#"{"s":"é∑😀\/"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("é∑😀/"));
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (text, expect_offset) in [
            ("", 0),
            ("{", 1),
            ("[1,", 3),
            ("[1 2]", 3),
            (r#"{"a" 1}"#, 5),
            ("tru", 0),
            ("01", 0),
            ("1.", 2),
            ("1e", 2),
            ("-", 1),
            ("\"unterminated", 13),
            (r#""bad \x escape""#, 7),
            (r#""\ud800 unpaired""#, 7),
            ("[1] trailing", 4),
            ("1e999", 5),
            ("+1", 0),
            ("NaN", 0),
            ("Infinity", 0),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, expect_offset, "{text:?}: {err}");
        }
    }

    #[test]
    fn depth_cap_stops_recursion_bombs() {
        let bomb = "[".repeat(40_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn scalar_accessors_and_uint_semantics() {
        let doc = Json::parse(r#"{"n":42,"x":4.5,"neg":-1,"b":false,"z":null}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("x").unwrap().as_u64(), None);
        assert_eq!(doc.get("neg").unwrap().as_u64(), None);
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(4.5));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert!(doc.get("z").unwrap().is_null());
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_uint("big", u64::MAX);
        w.key("nan");
        w.number(f64::NAN);
        w.end_object();
        let enc = w.finish();
        assert_eq!(enc, format!(r#"{{"big":{},"nan":null}}"#, u64::MAX));
    }
}
