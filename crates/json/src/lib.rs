//! # cct-json
//!
//! A dependency-free JSON value, writer, and parser shared across the
//! workspace: the committed `BENCH_*.json` baselines (`cct-bench`) and
//! the line-delimited wire protocol of the sampling service
//! (`cct-serve`).
//!
//! The build environment is offline (no serde), and both consumers need
//! the same operations: serialize a report or frame, re-parse it to
//! prove it is well-formed, and look up fields. This crate implements
//! exactly that: a small value tree, a canonical pretty-printer plus a
//! single-line [`Json::compact`] writer for line-delimited framing, and
//! a strict recursive-descent parser that rejects trailing garbage and
//! nesting deeper than [`MAX_DEPTH`].
//!
//! Numbers are stored as `f64`. For values that must round-trip
//! *exactly* at full `u64` range (RNG seeds), use [`Json::from_u64`] /
//! [`Json::as_u64`], which fall back to a decimal string above `2^53`.
//!
//! # Examples
//!
//! ```
//! use cct_json::Json;
//!
//! let frame = Json::Obj(vec![
//!     ("seed".into(), Json::from_u64(u64::MAX)),
//!     ("count".into(), Json::Num(3.0)),
//! ]);
//! let line = frame.compact();
//! assert!(!line.contains('\n'));
//! let parsed = Json::parse(&line).unwrap();
//! assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts
/// (serde_json's default). The parser recurses once per level, so
/// without a cap a single line of `[` overflows the stack; the deepest
/// document the workspace writes has 6 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, which covers every value the bench
    /// reports emit).
    Num(f64),
    /// A string (escapes are resolved on parse).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes a `u64` so it round-trips exactly through the `f64`-backed
    /// number representation: a plain number up to `2^53`, a decimal
    /// string above (where `f64` would silently round).
    pub fn from_u64(v: u64) -> Json {
        if v <= (1u64 << 53) {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// Decodes a `u64` written by [`Json::from_u64`] — or by any client
    /// that sends a non-negative integral number (≤ `2^53`) or a decimal
    /// string. `None` if this is neither, is negative, is fractional, or
    /// overflows.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) => {
                if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 {
                    Some(*x as u64)
                } else {
                    None
                }
            }
            Json::Str(s) => s.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes to a single line with no whitespace — the framing used
    /// by the line-delimited wire protocol, where one value is one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// or of the first array or object nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Emit integers without a fractional part; everything else with enough
/// digits to round-trip the gate math.
fn write_num(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:.6}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

/// Reads the 4 hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?,
        16,
    )
    .map_err(|_| "invalid \\u escape".to_string())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let scalar = if (0xD800..=0xDBFF).contains(&code) {
                            // UTF-16 high surrogate: standard encoders
                            // (ensure_ascii JSON) ship non-BMP characters
                            // as a \uHHHH\uHHHH pair; decode it as one
                            // scalar rather than two lone halves.
                            if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err(format!(
                                    "unpaired high surrogate at byte {}",
                                    *pos - 4
                                ));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!("invalid low surrogate at byte {}", *pos + 3));
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..=0xDFFF).contains(&code) {
                            return Err(format!("unpaired low surrogate at byte {}", *pos - 4));
                        } else {
                            code
                        };
                        out.push(char::from_u32(scalar).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (bytes are valid UTF-8 since
                // the input is a &str).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid utf8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_report_shape() {
        let doc = Json::Obj(vec![
            ("experiment".into(), Json::Str("e18".into())),
            (
                "rows".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("n".into(), Json::Num(256.0)),
                    ("speedup".into(), Json::Num(3.25)),
                    ("identical".into(), Json::Bool(true)),
                ])]),
            ),
        ]);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        let row = &parsed.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("n").unwrap().as_f64(), Some(256.0));
        assert_eq!(row.get("identical"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2,]nope",
            "{\"a\": 1} trailing",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"a\": 01x}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parses_numbers_strings_escapes() {
        let v = Json::parse(r#"{"x": -1.5e3, "s": "a\"b\n", "t": true, "z": null}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\n"));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).pretty(), "42\n");
        assert!(Json::Num(1.5).pretty().starts_with("1.5"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // ensure_ascii-style encoders ship non-BMP chars as UTF-16
        // pairs; they must come back as the original character.
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // BMP escapes are unaffected.
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        // Literal (already-UTF-8) non-BMP characters also pass through.
        assert_eq!(Json::parse("\"😀\"").unwrap().as_str(), Some("😀"));
        // Lone or malformed halves are errors, not U+FFFD mangling.
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn compact_is_one_line_and_reparses() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("s".into(), Json::Str("x\ny".into())),
            ("b".into(), Json::Bool(false)),
            ("o".into(), Json::Obj(vec![])),
        ]);
        let line = doc.compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert!(!line.contains(' '), "compact output has no padding");
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn u64_roundtrips_exactly_at_full_range() {
        for v in [0u64, 1, 42, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let j = Json::from_u64(v);
            assert_eq!(j.as_u64(), Some(v), "direct helper roundtrip of {v}");
            let reparsed = Json::parse(&j.compact()).unwrap();
            assert_eq!(reparsed.as_u64(), Some(v), "wire roundtrip of {v}");
        }
        // Values above 2^53 travel as strings, below as plain numbers.
        assert!(matches!(Json::from_u64(u64::MAX), Json::Str(_)));
        assert!(matches!(Json::from_u64(7), Json::Num(_)));
    }

    #[test]
    fn as_u64_rejects_lossy_inputs() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(2.0f64.powi(54)).as_u64(), None);
        assert_eq!(Json::Str("not a number".into()).as_u64(), None);
        assert_eq!(Json::Str("-3".into()).as_u64(), None);
        assert_eq!(Json::Bool(true).as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| {
            format!(
                "{}{{}}{}",
                r#"{"a":"#.repeat(depth - 1),
                "}".repeat(depth - 1)
            )
        };
        for nest in [arrays, objects] {
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Far past the cap the parser stops at level 129 instead of
        // recursing until the stack overflows.
        for open in ["[", r#"{"a":"#] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
    }
}
