//! A JSON value, its writer and a parser, by hand.
//!
//! The harness adds no third-party crate, and the `serde_json` the
//! workspace resolves offline is a stand-in that cannot serialize, so
//! results, traces and the child-to-driver line all go through here.
//! Objects keep insertion order so files diff cleanly.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object; panics on any other variant,
    /// which would be a bug in the caller.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            other => panic!("set on non-object {other:?}"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The array under `key`; empty if there is none.
    pub fn list(&self, key: &str) -> &[Json] {
        self.get(key).map_or(&[], Json::items)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `get(key)` as a number, or an error naming the key.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number '{key}'"))
    }

    /// `get(key)` as a string, or an error naming the key.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string '{key}'"))
    }

    /// One line, no spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented, one member per line; arrays and objects that hold only
    /// scalars (a metric row, a span) stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(1), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a metric that is one was
            // never measured.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let inline = indent.is_none() || items.iter().all(Json::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if inline && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !inline {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !inline && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                let inline = indent.is_none() || members.iter().all(|(_, v)| v.is_scalar());
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if inline && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !inline {
                        newline(out, depth + 1);
                    }
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !inline && !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Deep enough for anything the harness writes; bounds recursion on a
/// hostile file handed to `compare`.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // The input is a &str and the scan stops only at ASCII
            // bytes, so the slice falls on character boundaries.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in what the
                            // harness writes; map them to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut inner = Json::obj();
        inner
            .set("unit", "cells/s")
            .set("median", 2.5e6)
            .set("quartiles", vec![Json::Num(1.0), Json::Num(2.0)]);
        let mut doc = Json::obj();
        doc.set("name", "a \"quoted\"\nline\ttab \\ back")
            .set("ok", true)
            .set("none", Json::Null)
            .set("count", 895_000u64)
            .set("nested", inner)
            .set("empty", Json::Arr(Vec::new()))
            .set("rows", vec![Json::obj(), Json::obj()]);
        doc
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let doc = sample();
        assert_eq!(parse(&doc.compact()).unwrap(), doc);
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
        assert!(!doc.compact().contains('\n'));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 1.2034567890123457;
        let text = Json::Num(v).compact();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(v));
        assert_eq!(Json::Num(895_000.0).compact(), "895000");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn accessors_name_the_missing_key() {
        let doc = sample();
        assert_eq!(doc.num("count").unwrap(), 895_000.0);
        assert!(doc.num("absent").unwrap_err().contains("absent"));
        assert!(doc.str("count").is_err());
        assert_eq!(doc.get("nested").unwrap().str("unit").unwrap(), "cells/s");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":1,}",
            "\"\\u12\"",
            "\"\\q\"",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u00b5s \\u0001\"").unwrap().as_str(),
            Some("\u{b5}s \u{1}")
        );
        let text = Json::Str("\u{1}µ".to_string()).compact();
        assert_eq!(text, "\"\\u0001µ\"");
    }
}
