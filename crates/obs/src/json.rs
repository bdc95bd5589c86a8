//! A hand-rolled JSON writer (and a small validator for tests).
//!
//! The crate is deliberately std-only so the workspace builds in offline
//! environments; this module is the entire serialization stack.

use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn push_escaped(out: &mut String, s: &str) {
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

/// A streaming JSON writer with automatic comma placement.
///
/// Values written at the top of an object must be preceded by [`JsonWriter::key`];
/// values inside arrays are written directly.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has at least one element.
    stack: Vec<bool>,
    /// Set between `key()` and the value it introduces.
    pending_key: bool,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Finish and return the accumulated JSON text.
    pub fn into_string(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
    }

    pub fn obj_begin(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    pub fn obj_end(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    pub fn arr_begin(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    pub fn arr_end(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Write an object key; the next write is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
        push_escaped(&mut self.out, k);
        self.out.push(':');
        self.pending_key = true;
        self
    }

    pub fn val_str(&mut self, v: &str) -> &mut Self {
        self.before_value();
        push_escaped(&mut self.out, v);
        self
    }

    pub fn val_u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        let _ = write!(self.out, "{v}");
        self
    }

    pub fn val_i64(&mut self, v: i64) -> &mut Self {
        self.before_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Finite floats print with shortest round-trip formatting; NaN and
    /// infinities (illegal in JSON) degrade to `null`.
    pub fn val_f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn val_bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).val_str(v)
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).val_u64(v)
    }

    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).val_f64(v)
    }

    /// Splice pre-serialized JSON in as the next value. The caller vouches
    /// that `json` is a single well-formed value (used to embed one
    /// document inside another, e.g. the substrate dump in a replay
    /// snapshot, without re-parsing).
    pub fn val_raw(&mut self, json: &str) -> &mut Self {
        self.before_value();
        self.out.push_str(json);
        self
    }
}

/// Validate that `s` is one syntactically well-formed JSON value: it is,
/// exactly when [`JsonValue::parse`] accepts it. Errors carry the byte
/// offset of the fault.
pub fn validate(s: &str) -> Result<(), String> {
    JsonValue::parse(s).map(drop)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {i}"));
                            }
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char in string at byte {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

/// A parsed JSON value, used by the journal decoder.
///
/// Numbers keep their raw source text: the journal carries 64-bit seeds and
/// event ids that do not survive a round-trip through `f64`, so integer
/// accessors parse the original digits instead.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Raw number text, e.g. `"-3e2"` or `"18446744073709551615"`.
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Key/value pairs in document order (duplicates preserved).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one JSON document. Errors carry the byte offset of the fault.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        let v = build_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
        Ok(v)
    }

    /// First value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value, exact for the full `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Object entries in document order.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

fn build_value(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > 256 {
        return Err("nesting too deep".into());
    }
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut entries = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(JsonValue::Obj(entries));
            }
            loop {
                skip_ws(b, i);
                let k = build_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                let v = build_value(b, i, depth + 1)?;
                entries.push((k, v));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(JsonValue::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut xs = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(JsonValue::Arr(xs));
            }
            loop {
                skip_ws(b, i);
                xs.push(build_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(JsonValue::Arr(xs));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => build_string(b, i).map(JsonValue::Str),
        Some(b't') => parse_lit(b, i, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, i, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, i, "null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            parse_number(b, i)?;
            Ok(JsonValue::Num(
                std::str::from_utf8(&b[start..*i])
                    .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?
                    .to_string(),
            ))
        }
        _ => Err(format!("expected value at byte {i}")),
    }
}

fn build_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    let start = *i;
    parse_string(b, i)?;
    let raw = std::str::from_utf8(&b[start + 1..*i - 1])
        .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?;
    if !raw.contains('\\') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                // Surrogate pairs are not produced by our writer; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape in string at byte {start}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_json() {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.field_str("name", "he said \"hi\"\n");
        w.field_u64("count", 42);
        w.key("xs").arr_begin();
        w.val_f64(1.5)
            .val_f64(f64::NAN)
            .val_bool(true)
            .val_str("t\tab");
        w.arr_end();
        w.key("nested").obj_begin().field_f64("pi", 3.25).obj_end();
        w.obj_end();
        let s = w.into_string();
        validate(&s).unwrap();
        assert!(s.contains("\\\"hi\\\""));
        assert!(s.contains("null")); // NaN degraded
        assert_eq!(
            s,
            r#"{"name":"he said \"hi\"\n","count":42,"xs":[1.5,null,true,"t\tab"],"nested":{"pi":3.25}}"#
        );
    }

    #[test]
    fn value_parser_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.field_str("s", "a\n\"b\"\t\\");
        w.field_u64("big", u64::MAX);
        w.key("xs").arr_begin();
        w.val_u64(1).val_bool(false).val_str("x");
        w.arr_end();
        w.key("o").obj_begin().field_u64("n", 7).obj_end();
        w.key("raw").val_raw("[1,2]");
        w.obj_end();
        let s = w.into_string();
        validate(&s).unwrap();
        let v = JsonValue::parse(&s).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\n\"b\"\t\\"));
        // u64::MAX survives exactly (would be lossy through f64).
        assert_eq!(v.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("xs").and_then(JsonValue::as_arr).unwrap().len(), 3);
        assert_eq!(
            v.get("o")
                .and_then(|o| o.get("n"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("raw").and_then(JsonValue::as_arr).unwrap(),
            &[JsonValue::Num("1".into()), JsonValue::Num("2".into())]
        );
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("[1] junk").is_err());
    }

    #[test]
    fn value_parser_unescapes() {
        let v = JsonValue::parse(r#""Aé\n""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\n"));
        assert!(JsonValue::parse(r#""\q""#).is_err());
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate(r#"{"a":[1,2.5,-3e2,"x",null,true,{}]}"#).unwrap();
        validate("[]").unwrap();
        assert!(validate(r#"{"a":1,}"#).is_err());
        assert!(validate(r#"{"a" 1}"#).is_err());
        assert!(validate("[1 2]").is_err());
        assert!(validate("{\"a\":01e}").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("[1] extra").is_err());
    }
}
