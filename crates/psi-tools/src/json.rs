//! Hand-rolled flat-JSON codec shared by the line-oriented tools.
//!
//! The workspace is dependency-free by design, so every JSON surface
//! (trace export, event export, bench archives, the `psi-server` wire
//! protocol) is hand-rolled. The earlier codecs could stay trivial
//! because their objects held only integers; the server protocol
//! carries *program text* inside string fields, which needs real
//! string escaping on both sides. This module is the one shared
//! implementation: a writer ([`ObjectBuilder`], [`escape`]) and a
//! strict reader ([`parse_object`]) for **flat** JSON objects — string
//! values with full escape handling (including `\uXXXX` and surrogate
//! pairs), integer and float literals, booleans and `null`. Nested
//! objects and arrays are rejected: every line-oriented format in this
//! workspace is deliberately flat so it can be streamed, concatenated
//! and grepped.
//! The one multi-line format, the `BENCH_*.json` report, is built from
//! the same flat objects ([`ReportBuilder`], [`parse_report`]).

use psi_core::{PsiError, Result};
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal (quotes not
/// included). Control characters become `\uXXXX` escapes.
///
/// ```
/// use psi_tools::json::escape;
/// assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
/// assert_eq!(escape("\u{1}"), "\\u0001");
/// ```
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One parsed value of a flat JSON object.
///
/// Numbers keep their raw literal text and are converted on access
/// ([`JsonValue::as_u64`] and friends), so a round trip never loses
/// precision to an intermediate type.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string, unescaped.
    Str(String),
    /// A numeric literal, verbatim.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any numeric literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parsed flat JSON object: fields in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// The value of field `key` (first occurrence), if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All fields in source order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// The string field `key`, or a typed error naming the field.
    ///
    /// # Errors
    ///
    /// [`PsiError::Syntax`] if the field is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| field_err(key, "a string"))
    }

    /// The unsigned-integer field `key`, or a typed error.
    ///
    /// # Errors
    ///
    /// [`PsiError::Syntax`] if the field is missing or not a
    /// non-negative integer.
    pub fn u64_field(&self, key: &str) -> Result<u64> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| field_err(key, "a non-negative integer"))
    }
}

fn field_err(key: &str, expected: &str) -> PsiError {
    PsiError::Syntax {
        line: 1,
        column: 1,
        detail: format!("field \"{key}\" missing or not {expected}"),
    }
}

/// Parses one flat JSON object from `line`.
///
/// Strict by intent — wire input is untrusted: unterminated strings,
/// bad escapes, lone surrogates, nested objects/arrays, duplicate
/// garbage after the closing brace and non-string keys all produce a
/// typed [`PsiError::Syntax`] whose column points at the offending
/// character. Never panics.
///
/// ```
/// use psi_tools::json::parse_object;
/// let obj = parse_object(r#"{"cmd":"solve","goal":"p(X)","max":4}"#)?;
/// assert_eq!(obj.str_field("cmd")?, "solve");
/// assert_eq!(obj.u64_field("max")?, 4);
/// # Ok::<(), psi_core::PsiError>(())
/// ```
pub fn parse_object(line: &str) -> Result<JsonObject> {
    parse_whole(line, Scanner::parse_flat_object)
}

/// Runs `parse` over all of `text`, allowing only whitespace after it.
fn parse_whole<T>(text: &str, parse: impl FnOnce(&mut Scanner) -> Result<T>) -> Result<T> {
    let mut p = Scanner {
        chars: text.chars().collect(),
        pos: 0,
    };
    let value = parse(&mut p)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.err("trailing characters after object")),
    }
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
}

impl Scanner {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    fn err(&self, detail: impl Into<String>) -> PsiError {
        let before = &self.chars[..self.pos.min(self.chars.len())];
        PsiError::Syntax {
            line: before.iter().filter(|&&c| c == '\n').count() as u32 + 1,
            column: before.iter().rev().take_while(|&&c| c != '\n').count() as u32 + 1,
            detail: detail.into(),
        }
    }

    /// Parses `open item, item, ... close`, calling `item` for each
    /// member.
    fn parse_seq(
        &mut self,
        open: char,
        close: char,
        mut item: impl FnMut(&mut Scanner) -> Result<()>,
    ) -> Result<()> {
        self.skip_ws();
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(c) if c == close => return Ok(()),
                _ => return Err(self.err(format!("expected ',' or '{close}'"))),
            }
        }
    }

    /// Parses `"key":` and the whitespace after it.
    fn parse_key(&mut self) -> Result<String> {
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(':')?;
        self.skip_ws();
        Ok(key)
    }

    fn parse_flat_object(&mut self) -> Result<JsonObject> {
        let mut fields = Vec::new();
        self.parse_seq('{', '}', |p| {
            let key = p.parse_key()?;
            fields.push((key, p.parse_value()?));
            Ok(())
        })?;
        Ok(JsonObject { fields })
    }

    fn expect(&mut self, want: char) -> Result<()> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            _ => Err(self.err(format!("expected '{want}'"))),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some('"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some('t') => self.parse_word("true", JsonValue::Bool(true)),
            Some('f') => self.parse_word("false", JsonValue::Bool(false)),
            Some('n') => self.parse_word("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some('{') | Some('[') => {
                Err(self.err("nested objects and arrays are not part of this flat format"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_word(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        for want in word.chars() {
            if self.next() != Some(want) {
                return Err(self.err(format!("expected '{word}'")));
            }
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some('.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        Ok(JsonValue::Num(self.chars[start..self.pos].iter().collect()))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // High surrogate: a low surrogate must
                            // follow as another \uXXXX escape.
                            if self.next() != Some('\\') || self.next() != Some('u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(hi)
                                .ok_or_else(|| self.err("lone surrogate in \\u escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .next()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits after \\u"))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }
}

/// Builds one flat JSON object as a single line (no trailing newline).
///
/// ```
/// use psi_tools::json::ObjectBuilder;
/// let line = ObjectBuilder::new()
///     .str("event", "solution")
///     .u64("index", 1)
///     .bool("ok", true)
///     .finish();
/// assert_eq!(line, r#"{"event":"solution","index":1,"ok":true}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectBuilder {
    buf: String,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> ObjectBuilder {
        ObjectBuilder { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_str_literal(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a string field (value escaped).
    pub fn str(mut self, key: &str, value: &str) -> ObjectBuilder {
        self.key(key);
        push_str_literal(&mut self.buf, value);
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> ObjectBuilder {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (`Display` rendering, `null` for
    /// non-finite values, which JSON cannot carry).
    pub fn f64(mut self, key: &str, value: f64) -> ObjectBuilder {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> ObjectBuilder {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Finishes the object.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

fn push_str_literal(buf: &mut String, s: &str) {
    buf.push('"');
    buf.push_str(&escape(s));
    buf.push('"');
}

fn push_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(buf, "{value}");
    } else {
        buf.push_str("null");
    }
}

/// Builds a `BENCH_*.json` report document: a pretty-printed top-level
/// object whose header fields are scalars, one `"key": value` per
/// line starting with `"schema"`, and whose arrays hold one flat
/// [`ObjectBuilder`] object per line. [`parse_report`] reads it back.
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    buf: String,
}

impl ReportBuilder {
    /// Starts a report whose first header field is `"schema"`.
    pub fn new(schema: &str) -> ReportBuilder {
        let buf = String::from("{");
        ReportBuilder { buf }.str("schema", schema)
    }

    fn field(mut self, key: &str, value: impl FnOnce(&mut String)) -> ReportBuilder {
        self.buf
            .push_str(if self.buf.len() > 1 { ",\n  " } else { "\n  " });
        push_str_literal(&mut self.buf, key);
        self.buf.push_str(": ");
        value(&mut self.buf);
        self
    }

    /// Appends a string header field (value escaped).
    pub fn str(self, key: &str, value: &str) -> ReportBuilder {
        self.field(key, |buf| push_str_literal(buf, value))
    }

    /// Appends an unsigned-integer header field.
    pub fn u64(self, key: &str, value: u64) -> ReportBuilder {
        self.field(key, |buf| buf.push_str(&value.to_string()))
    }

    /// Appends a float header field, rendered as [`ObjectBuilder::f64`]
    /// renders one.
    pub fn f64(self, key: &str, value: f64) -> ReportBuilder {
        self.field(key, |buf| push_f64(buf, value))
    }

    /// Appends a boolean header field.
    pub fn bool(self, key: &str, value: bool) -> ReportBuilder {
        self.field(key, |buf| {
            buf.push_str(if value { "true" } else { "false" })
        })
    }

    /// Appends an array of flat objects, one per line.
    pub fn array(
        self,
        key: &str,
        entries: impl IntoIterator<Item = ObjectBuilder>,
    ) -> ReportBuilder {
        self.field(key, |buf| {
            buf.push('[');
            for (i, entry) in entries.into_iter().enumerate() {
                buf.push_str(if i == 0 { "\n    " } else { ",\n    " });
                buf.push_str(&entry.finish());
            }
            buf.push_str("\n  ]");
        })
    }

    /// Finishes the document (with a trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push_str("\n}\n");
        self.buf
    }
}

/// A parsed `BENCH_*.json` report: the scalar header fields and each
/// array of flat objects, both in document order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The header fields, `"schema"` first.
    pub header: JsonObject,
    /// The arrays, by key.
    pub arrays: Vec<(String, Vec<JsonObject>)>,
}

impl Report {
    /// The entries of array `key`.
    ///
    /// # Errors
    ///
    /// [`PsiError::Syntax`] if the report has no such array.
    pub fn array(&self, key: &str) -> Result<&[JsonObject]> {
        self.arrays
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, entries)| entries.as_slice())
            .ok_or_else(|| field_err(key, "an array"))
    }
}

/// Parses a report of the shape [`ReportBuilder`] writes: one
/// top-level object whose values are scalars (the header) or arrays
/// of flat objects. Whitespace is free, as in any JSON. Anything else
/// — a nested object, an array of scalars, a missing comma, a
/// truncated document — is a typed [`PsiError::Syntax`] whose line
/// and column point at the offending character; never panics.
///
/// ```
/// use psi_tools::json::{parse_report, ObjectBuilder, ReportBuilder};
/// let doc = ReportBuilder::new("demo-v1")
///     .array("rows", [ObjectBuilder::new().u64("p", 1)])
///     .finish();
/// assert_eq!(doc, "{\n  \"schema\": \"demo-v1\",\n  \"rows\": [\n    {\"p\":1}\n  ]\n}\n");
/// let report = parse_report(&doc)?;
/// assert_eq!(report.header.str_field("schema")?, "demo-v1");
/// assert_eq!(report.array("rows")?[0].u64_field("p")?, 1);
/// # Ok::<(), psi_core::PsiError>(())
/// ```
pub fn parse_report(text: &str) -> Result<Report> {
    parse_whole(text, |p| {
        let mut report = Report::default();
        p.parse_seq('{', '}', |p| {
            let key = p.parse_key()?;
            if p.peek() == Some('[') {
                let mut entries = Vec::new();
                p.parse_seq('[', ']', |p| {
                    entries.push(p.parse_flat_object()?);
                    Ok(())
                })?;
                report.arrays.push((key, entries));
            } else {
                report.header.fields.push((key, p.parse_value()?));
            }
            Ok(())
        })?;
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_round_trip() {
        let line = ObjectBuilder::new()
            .str("src", "p('a,b\"c').\nq(X) :- p(X).")
            .str("unicode", "λ→\u{1}\u{1F600}")
            .u64("max", u64::MAX)
            .f64("p50", 1.25)
            .bool("quick", false)
            .finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.str_field("src").unwrap(), "p('a,b\"c').\nq(X) :- p(X).");
        assert_eq!(obj.str_field("unicode").unwrap(), "λ→\u{1}\u{1F600}");
        assert_eq!(obj.u64_field("max").unwrap(), u64::MAX);
        assert_eq!(obj.get("p50").unwrap().as_f64(), Some(1.25));
        assert_eq!(obj.get("quick").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn unicode_escapes_decode_with_surrogate_pairs() {
        let obj = parse_object(r#"{"s":"\u0041\u00e9\ud83d\ude00\\\" \/ \n"}"#).unwrap();
        assert_eq!(obj.str_field("s").unwrap(), "Aé\u{1F600}\\\" / \n");
    }

    #[test]
    fn hostile_lines_produce_typed_errors() {
        let bad = [
            "",
            "{",
            "}",
            "{}x",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "{\"a\":\"unterminated",
            "{\"a\":\"bad \\q escape\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\ud800\\u0041\"}",
            "{\"a\":--1}",
            "{\"a\":1.}",
            "{\"a\":1e}",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":[1,2]}",
            "{\"a\":tru}",
            "{\"a\":\u{1}\"x\"}",
        ];
        for line in bad {
            match parse_object(line) {
                Err(PsiError::Syntax { .. }) => {}
                other => panic!("{line:?}: expected a syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_object_and_whitespace_are_fine() {
        assert!(parse_object("{}").unwrap().fields().is_empty());
        let obj = parse_object("  { \"a\" : 1 , \"b\" : null }  ").unwrap();
        assert_eq!(obj.u64_field("a").unwrap(), 1);
        assert_eq!(obj.get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn report_writer_and_reader_round_trip() {
        let doc = ReportBuilder::new("demo-v1")
            .str("grid", "de\"fault")
            .f64("ratio", 1.25)
            .bool("quick", true)
            .array("empty", [])
            .array(
                "rows",
                [
                    ObjectBuilder::new().str("p", "a,"),
                    ObjectBuilder::new().str("p", "[b]"),
                ],
            )
            .finish();
        assert!(doc.contains("\n  \"empty\": [\n  ],\n"), "{doc}");
        let report = parse_report(&doc).unwrap();
        let header = &report.header;
        assert_eq!(header.str_field("grid").unwrap(), "de\"fault");
        assert_eq!(header.get("ratio").unwrap().as_f64(), Some(1.25));
        assert_eq!(header.get("quick").unwrap().as_bool(), Some(true));
        assert!(report.array("empty").unwrap().is_empty());
        let rows: Vec<&str> = report
            .array("rows")
            .unwrap()
            .iter()
            .map(|r| r.str_field("p").unwrap())
            .collect();
        assert_eq!(rows, ["a,", "[b]"]);
        assert!(report.array("missing").is_err());
    }

    #[test]
    fn hostile_reports_produce_typed_errors() {
        let good = ReportBuilder::new("demo-v1")
            .u64("count", 1)
            .array("rows", [ObjectBuilder::new().u64("n", 1)])
            .finish();
        let truncated = &good[..good.len() / 2];
        let bad = [
            "",
            "{",
            truncated,
            "[\n]",
            "{\n  \"schema\": \"x\"\n}\n}",
            "{\n  \"schema\": \"x\",\n}",
            "{\n  \"schema\": \"x\"\n  \"count\": 1\n}",
            "{\n  \"schema\" \"x\"\n}",
            "{\n  \"schema\": {\"x\": 1}\n}",
            "{\n  \"rows\": [\n    {\"n\":{\"nested\":1}}\n  ]\n}",
            "{\n  \"rows\": [\n    [1]\n  ]\n}",
            "{\n  \"rows\": [\n    {\"n\":1}\n    {\"n\":2}\n  ]\n}",
            "{\n  \"rows\": [\n    {\"n\":1},\n  ]\n}",
            "{\n  \"rows\": [\n    {\"n\":1}\n  ]x\n}",
            "{\n  \"rows\": [\n    {\"n\":1}\n",
            "{\n  \"rows\": [\n    {\"n\":1}\n}",
            "{\n  1: [\n  ]\n}",
        ];
        for doc in bad {
            match parse_report(doc) {
                Err(PsiError::Syntax { .. }) => {}
                other => panic!("{doc:?}: expected a syntax error, got {other:?}"),
            }
        }
        // Errors name the offending document line.
        let nested = "{\n  \"schema\": \"x\",\n  \"rows\": [\n    {\"a\":[1]}\n  ]\n}";
        match parse_report(nested) {
            Err(PsiError::Syntax { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn missing_and_mistyped_fields_are_typed_errors() {
        let obj = parse_object(r#"{"a":"x","b":-3}"#).unwrap();
        assert!(obj.str_field("missing").is_err());
        assert!(obj.u64_field("a").is_err());
        assert!(obj.u64_field("b").is_err(), "negative is not u64");
        assert_eq!(obj.get("b").unwrap().as_i64(), Some(-3));
    }
}
