//! Minimal JSON reader/writer.
//!
//! The build environment has no crates.io access, so everything that
//! speaks JSON — the CLI's `--format json` output, the `wire` renderers
//! and the HTTP server's request bodies — goes through this small
//! hand-rolled module instead of `serde_json`. It supports objects,
//! arrays, strings (with `\uXXXX` escapes), unsigned integers, `null`,
//! booleans, and finite floats (rank scores, fractional timings). A
//! [`Value::Raw`] carries text some other writer already serialized —
//! the search response, which `wire::write_response` streams — so it
//! can sit inside a composed document without being parsed back.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A floating-point number (CLI scores/timings; never NaN or
    /// infinite — non-finite floats serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys come back sorted, not in input order).
    Obj(BTreeMap<String, Value>),
    /// One pre-serialized JSON value, written verbatim. The producer
    /// vouches that it is valid, compact JSON; [`parse`] never yields
    /// it (serde_json's `RawValue` idea).
    Raw(String),
}

impl Value {
    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum container nesting (matches serde_json's default); deeper
/// input gets a `JsonError` instead of a stack overflow.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let mut float = false;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if self.peek() == Some(b'-') {
            float = true;
            self.pos += 1;
        }
        if !digits(self) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'-' | b'+')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("malformed number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are UTF-8");
        if float {
            return match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::Float(f)),
                _ => Err(self.err("malformed number")),
            };
        }
        text.parse()
            .map(Value::Num)
            .map_err(|_| self.err("integer out of range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode one multi-byte UTF-8 char (at most 4 bytes
                    // — never re-validate the whole remaining input).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(chunk) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()])
                                .expect("validated prefix")
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    let c = valid.chars().next().expect("non-empty valid prefix");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.ascend();
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.ascend();
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.ascend();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.ascend();
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Serializes a value compactly (no insignificant whitespace).
pub fn write(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            use fmt::Write as _;
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            use fmt::Write as _;
            if f.is_finite() {
                // Rust's Debug float rendering is shortest-round-trip
                // and valid JSON (always a '.' or exponent).
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null"); // JSON has no NaN/Infinity
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
        Value::Raw(text) => out.push_str(text),
    }
}

/// Writes `s` as a quoted JSON string: `"` and `\` escaped, `\n`,
/// `\r`, `\t` as their short escapes, other control characters as
/// `\u00XX`, everything else (non-ASCII included) as is.
pub fn write_string(s: &str, out: &mut String) {
    use fmt::Write as _;
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

/// Serializes a value to a fresh `String`.
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":true,"e":false}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn escapes_round_trip() {
        let original = Value::Str("quote\" slash\\ tab\t nl\n unicode → €".to_owned());
        let text = to_string(&original);
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parsing() {
        // A = 'A', é = 'é', 😀 = 😀 (surrogate pair).
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Value::Str("Aé😀".to_owned()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "1.",
            "-",
            "1e",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
        // 128 levels (the serde_json default) still parse.
        let ok = "[".repeat(128) + &"]".repeat(128);
        assert!(parse(&ok).is_ok());
        let too_deep = "[".repeat(129) + &"]".repeat(129);
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn floats_round_trip() {
        for (text, want) in [
            ("1.5", 1.5),
            ("-3", -3.0),
            ("0.8333333333333334", 0.833_333_333_333_333_4),
            ("2e3", 2000.0),
            ("-2.5e-2", -0.025),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_f64(), Some(want), "{text}");
            assert_eq!(parse(&to_string(&v)).unwrap(), v, "{text}");
        }
        // Integers stay integers (request fields are read with as_u64).
        assert_eq!(parse("7").unwrap(), Value::Num(7));
        // Non-finite floats degrade to null on write.
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn raw_is_written_verbatim() {
        let raw = r#"{"z":1,"a":[true,null]}"#;
        let doc = Value::Arr(vec![Value::Raw(raw.to_owned()), Value::Num(2)]);
        assert_eq!(to_string(&doc), format!("[{raw},2]"));
        assert_eq!(to_string(&Value::Raw(String::new())), "");
    }

    #[test]
    fn parse_never_yields_raw() {
        fn has_raw(v: &Value) -> bool {
            match v {
                Value::Raw(_) => true,
                Value::Arr(items) => items.iter().any(has_raw),
                Value::Obj(map) => map.values().any(has_raw),
                _ => false,
            }
        }
        let raw = Value::Raw(r#"{"k":[1,"x",{"n":null}]}"#.to_owned());
        let reparsed = parse(&to_string(&Value::Arr(vec![raw]))).unwrap();
        assert!(!has_raw(&reparsed));
        assert_eq!(
            reparsed.as_arr().unwrap()[0]
                .get("k")
                .unwrap()
                .as_arr()
                .unwrap()[1],
            Value::Str("x".to_owned())
        );
    }

    #[test]
    fn write_string_escapes_control_characters() {
        let mut out = String::new();
        write_string("a\u{0}b\u{1f}c\u{8}\u{c}\n\r\t\"\\é\u{7f}", &mut out);
        assert_eq!(
            out,
            "\"a\\u0000b\\u001fc\\u0008\\u000c\\n\\r\\t\\\"\\\\é\u{7f}\""
        );
        assert_eq!(
            parse(&out).unwrap().as_str(),
            Some("a\u{0}b\u{1f}c\u{8}\u{c}\n\r\t\"\\é\u{7f}")
        );
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
