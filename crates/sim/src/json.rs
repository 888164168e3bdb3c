//! A minimal, dependency-free JSON value with a deterministic writer and a
//! strict parser.
//!
//! The figure sweep harness emits machine-readable results, the trace layer
//! ([`crate::trace`]) exports Chrome trace-event timelines, and the
//! `m2ndp-asm` / `m2ndp-trace` CLIs emit machine-readable diagnostics; the
//! environment is offline (no serde), so this module hand-rolls the small
//! subset of JSON they all need with two hard guarantees:
//!
//! * **Determinism** — objects keep insertion order and floats use Rust's
//!   shortest round-trip formatting, so the same results always serialize to
//!   the same bytes (the `figures --jobs N` determinism contract).
//! * **Exactness** — `u64` counters serialize as integers (no `f64`
//!   truncation at 2^53) and every finite `f64` round-trips bit-exactly.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (no map reordering), which
/// keeps emitted files byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialize as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (counters, cycles, bytes).
    U64(u64),
    /// A double (rates, nanoseconds, speedups).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from owned pairs.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Looks up a key in an object (first match), or `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (from either number variant), or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(u) => Some(*u as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// Serializes to a pretty-printed string (2-space indent, `\n` line
    /// endings, no trailing newline). Deterministic: identical values always
    /// produce identical bytes.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Json::F64(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: one value, nothing but whitespace
    /// after it).
    ///
    /// # Errors
    /// Returns a byte offset + message on malformed input, including arrays
    /// and objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a float deterministically: shortest representation that parses
/// back to the same bits, always with a decimal point or exponent so the
/// value reads back as a float. Non-finite values become `null` (JSON has no
/// NaN/Inf).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    // `{}` prints integral floats without a point ("4" for 4.0); add one so
    // the emitted token stays a float on re-parse.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure: byte offset and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input (e.g. 100 000
/// `[`) a [`ParseError`] instead of a stack overflow; the documents the
/// workspace writes nest fewer than 10 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays/objects nested too deeply"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
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
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                self.pos += 1;
                                self.eat("\\u")?;
                                self.pos -= 1; // hex4 advances past its 4 digits
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the run up to the next quote or escape —
                    // validating per character would make string parsing
                    // quadratic in the document size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(text);
                }
            }
        }
    }

    /// Parses exactly four hex digits starting just past the current `u`,
    /// leaving `pos` on the last digit (the caller's `pos += 1` steps off).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end - 1;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float && !text.starts_with('-') {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("invalid integer"))
        } else {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// One tool diagnostic in the machine-readable shape shared by the
/// `m2ndp-asm --format json` and `m2ndp-trace` CLIs: severity, an optional
/// `path` / `line` source anchor, and the human message. Editor tooling can
/// rebuild the conventional `path:line: message` form from the fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// `"error"`, `"warning"`, or `"note"`.
    pub severity: &'static str,
    /// Source file the diagnostic anchors to, when there is one.
    pub path: Option<String>,
    /// 1-based source line, when known.
    pub line: Option<u64>,
    /// The message, without the `path:line:` prefix.
    pub message: String,
}

impl Diagnostic {
    /// An error anchored at `path:line`.
    pub fn error_at(path: impl Into<String>, line: u64, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: "error",
            path: Some(path.into()),
            line: Some(line),
            message: message.into(),
        }
    }

    /// A file-level error with no line anchor.
    pub fn error_in(path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: "error",
            path: Some(path.into()),
            line: None,
            message: message.into(),
        }
    }

    /// The conventional compiler-style rendering for stderr:
    /// `path:line: message` with absent anchors elided.
    pub fn human(&self) -> String {
        match (&self.path, self.line) {
            (Some(p), Some(l)) => format!("{p}:{l}: {}", self.message),
            (Some(p), None) => format!("{p}: {}", self.message),
            _ => self.message.clone(),
        }
    }

    /// The JSON object for this diagnostic (`null` for absent anchors, so
    /// the shape is fixed regardless of what is known).
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            ("severity".to_string(), Json::Str(self.severity.to_string())),
            (
                "path".to_string(),
                self.path
                    .as_ref()
                    .map_or(Json::Null, |p| Json::Str(p.clone())),
            ),
            ("line".to_string(), self.line.map_or(Json::Null, Json::U64)),
            ("message".to_string(), Json::Str(self.message.clone())),
        ])
    }
}

/// Wraps tool diagnostics in the shared top-level report object:
/// `{"ok": bool, "diagnostics": [...]}` (ok = no error-severity entries).
pub fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    Json::Obj(vec![
        (
            "ok".to_string(),
            Json::Bool(diags.iter().all(|d| d.severity != "error")),
        ),
        (
            "diagnostics".to_string(),
            Json::Arr(diags.iter().map(Diagnostic::json).collect()),
        ),
    ])
}

/// The [`diagnostics_json`] envelope with tool-specific payload keys
/// appended after `ok`/`diagnostics` — the one machine-readable report
/// shape the `m2ndp-asm` and `m2ndp-trace` CLIs share.
pub fn report_json(diags: &[Diagnostic], payload: Vec<(String, Json)>) -> Json {
    match diagnostics_json(diags) {
        Json::Obj(mut pairs) => {
            pairs.extend(payload);
            Json::Obj(pairs)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" back\\slash \n\t\r ctrl\u{1} unicode→日本";
        let j = Json::Str(nasty.to_string());
        let text = j.pretty();
        assert_eq!(Json::parse(&text).expect("parses"), j);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            6.35,
            0.769_999_999_999_999_9,
            1e-300,
            2.5e300,
            -0.0,
            4.0,
        ] {
            let text = Json::F64(v).pretty();
            match Json::parse(&text).expect("parses") {
                Json::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("float {text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn u64_round_trips_exactly_beyond_f64_precision() {
        let v = u64::MAX - 1; // not representable as f64
        let text = Json::U64(v).pretty();
        assert_eq!(Json::parse(&text).expect("parses"), Json::U64(v));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).pretty(), "null");
        assert_eq!(Json::F64(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::F64(4.0).pretty(), "4.0");
        assert_eq!(Json::F64(-2.0).pretty(), "-2.0");
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::obj(vec![
            ("zebra".into(), Json::U64(1)),
            ("alpha".into(), Json::Bool(true)),
            ("mid".into(), Json::Null),
        ]);
        let text = j.pretty();
        let z = text.find("zebra").expect("zebra");
        let a = text.find("alpha").expect("alpha");
        assert!(z < a, "insertion order must survive serialization");
        assert_eq!(Json::parse(&text).expect("parses"), j);
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::obj(vec![
            ("schema_version".into(), Json::U64(1)),
            (
                "figures".into(),
                Json::obj(vec![(
                    "fig10c".into(),
                    Json::obj(vec![
                        (
                            "cells".into(),
                            Json::Arr(vec![
                                Json::obj(vec![
                                    ("key".into(), Json::Str("HISTO4096/M2NDP".into())),
                                    ("ns".into(), Json::F64(34_231.5)),
                                    ("cycles".into(), Json::U64(68_463)),
                                ]),
                                Json::Null,
                            ]),
                        ),
                        ("empty_arr".into(), Json::Arr(vec![])),
                        ("empty_obj".into(), Json::Obj(vec![])),
                    ]),
                )]),
            ),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).expect("parses"), doc);
        // Serialization is deterministic.
        assert_eq!(Json::parse(&text).expect("parses").pretty(), text);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(100_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&too_deep).is_err());

        let mut doc = Json::U64(7);
        for _ in 0..100 {
            doc = Json::Arr(vec![doc]);
        }
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).expect("100 levels parse"), doc);
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_limit).is_ok());
    }

    #[test]
    fn get_and_as_f64_helpers() {
        let j = Json::obj(vec![
            ("u".into(), Json::U64(3)),
            ("f".into(), Json::F64(1.5)),
        ]);
        assert_eq!(j.get("u").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("missing"), None);
    }
}
