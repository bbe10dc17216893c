//! Offline shim for the `serde_json` crate.
//!
//! Owns the JSON value model ([`Value`], [`Map`], [`Number`]) and
//! renders and parses it: `to_string` / `to_string_pretty` write a
//! `&Value` in place, and a recursive-descent `from_str` returns a
//! `Value` tree. Covers the full JSON grammar (escapes included).
//! Decoding is linear in the input: a string copies each run of plain
//! bytes in one step, and an object resolves repeated keys in one pass
//! over its entries (O(k log k) in its `k` keys). Like upstream,
//! `from_str` rejects arrays and objects nested deeper than
//! [`RECURSION_LIMIT`], so hostile input cannot overflow the stack.

mod value;

use std::fmt::{self, Write as _};
pub use value::{Map, Number, Value};

/// How deeply `from_str` lets arrays and objects nest (upstream's default).
pub const RECURSION_LIMIT: usize = 128;

/// A parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    position: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for Error {}

/// Serializes to compact JSON.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out, None, 0);
    Ok(out)
}

/// Serializes to two-space-indented JSON.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out, Some(2), 0);
    Ok(out)
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, depth: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

/// Parses a JSON document into a [`Value`].
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        Error {
            message: message.to_string(),
            position: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == RECURSION_LIMIT {
                    return Err(self.error("recursion limit exceeded"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: nothing else ends a run.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by our traces;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from_u64(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from_i64(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::from_f64(v)))
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(Map::from_entries(entries)));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let mut map = Map::new();
        map.insert("name", Value::from("trace \"v1\"\n"));
        map.insert("round", Value::from(3u64));
        map.insert("ratio", Value::from(0.5));
        map.insert("tags", Value::from(vec![1u64, 2]));
        map.insert("none", Value::Null);
        let text = to_string(&Value::Object(map.clone())).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(back, Value::Object(map));
    }

    #[test]
    fn pretty_output_parses_back() {
        let mut inner = Map::new();
        inner.insert("k", Value::Bool(true));
        let value = Value::Array(vec![Value::Object(inner), Value::from(-4i64)]);
        let text = to_string_pretty(&value).unwrap();
        assert!(text.contains('\n'));
        assert_eq!(from_str(&text).unwrap(), value);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = from_str(r#"{"s": "aA\n\"b\"", "π": 3.5}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("aA\n\"b\""));
        assert_eq!(v.get("π").unwrap().as_f64(), Some(3.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "tru", "\"x", "{\"a\":}", "1 2", ""] {
            assert!(from_str(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_an_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&nested(RECURSION_LIMIT)).is_ok());
        let err = from_str(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert_eq!(err.to_string(), "recursion limit exceeded at byte 128");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(RECURSION_LIMIT + 1),
            "}".repeat(RECURSION_LIMIT + 1)
        );
        assert!(from_str(&objects).is_err());
        // Far past the limit, on a small stack: the parser stops at the
        // limit instead of recursing to the end of the input.
        let deep = "[".repeat(100_000);
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || from_str(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn integers_preserved_exactly() {
        let v = from_str("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = from_str("-9007199254740993").unwrap();
        assert_eq!(v.as_i64(), Some(-9007199254740993));
    }

    #[test]
    fn strings_keep_escapes_and_multibyte_characters_across_runs() {
        let v = from_str(r#""ab\u00e9π\"\\😀\n\/c\ud800""#).unwrap();
        assert_eq!(v.as_str(), Some("abéπ\"\\😀\n/c\u{fffd}"));
        let err = from_str(r#""abc"#).unwrap_err();
        assert_eq!(err.to_string(), "unterminated string at byte 4");
        let err = from_str(r#""abc\"#).unwrap_err();
        assert_eq!(err.to_string(), "invalid escape at byte 5");
        let err = from_str(r#""π\q""#).unwrap_err();
        assert_eq!(err.to_string(), "invalid escape at byte 4");
    }

    /// Decoding is linear in the input: at the old per-character and
    /// per-key costs each of these took minutes or more.
    #[test]
    fn large_strings_and_objects_parse_in_linear_time() {
        let bound = std::time::Duration::from_secs(10);
        let unit = "plain text é😀 \\n\\\" ";
        let text = format!("\"{}\"", unit.repeat(4 * 1024 * 1024 / unit.len()));
        let start = std::time::Instant::now();
        let parsed = from_str(&text).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < bound, "4 MiB string took {elapsed:?}");
        let expected = "plain text é😀 \n\" ".repeat(4 * 1024 * 1024 / unit.len());
        assert_eq!(parsed.as_str(), Some(expected.as_str()));

        let keys = 200_000;
        let body: Vec<String> = (0..keys).map(|i| format!("\"k{i}\":{i}")).collect();
        let text = format!("{{{}}}", body.join(","));
        let start = std::time::Instant::now();
        let parsed = from_str(&text).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < bound, "200k-key object took {elapsed:?}");
        let map = parsed.as_object().unwrap();
        assert_eq!(map.len(), keys);
        let (last_key, last_value) = map.iter().last().unwrap();
        assert_eq!(
            (last_key.as_str(), last_value.as_u64()),
            ("k199999", Some(199_999))
        );
    }

    fn error_text(input: &str) -> String {
        from_str(input).unwrap_err().to_string()
    }

    #[test]
    fn numbers_keep_their_integer_or_float_kind() {
        let number = |text: &str| match from_str(text).unwrap() {
            Value::Number(n) => n,
            other => panic!("{text} decoded as {other:?}"),
        };
        assert_eq!(number("0"), Number::PosInt(0));
        assert_eq!(number("-0"), Number::PosInt(0));
        assert_eq!(number("-12"), Number::NegInt(-12));
        assert_eq!(number("-9223372036854775808"), Number::NegInt(i64::MIN));
        assert_eq!(number("1.0"), Number::Float(1.0));
        assert_eq!(number("1e3"), Number::Float(1000.0));
        assert_eq!(number("2.5E-3"), Number::Float(0.0025));
        assert_eq!(number("-4e+2"), Number::Float(-400.0));
        // Integers past the 64-bit range fall back to a float.
        assert_eq!(
            number("18446744073709551616"),
            Number::Float(18446744073709551616.0)
        );
        assert_eq!(
            number("-9223372036854775809"),
            Number::Float(-9223372036854775809.0)
        );
    }

    #[test]
    fn malformed_numbers_are_errors_at_their_end() {
        assert_eq!(error_text("-"), "invalid number at byte 1");
        assert_eq!(error_text("[-x]"), "invalid number at byte 2");
        assert_eq!(error_text("1e"), "invalid number at byte 2");
        assert_eq!(error_text("+1"), "expected a JSON value at byte 0");
        assert_eq!(error_text(".5"), "expected a JSON value at byte 0");
        assert_eq!(error_text("1.5.2"), "trailing characters at byte 3");
    }

    #[test]
    fn structural_errors_name_what_was_expected_and_where() {
        assert_eq!(error_text(""), "expected a JSON value at byte 0");
        assert_eq!(error_text("   "), "expected a JSON value at byte 3");
        assert_eq!(error_text("[1 2]"), "expected ',' or ']' at byte 3");
        assert_eq!(error_text("[1,]"), "expected a JSON value at byte 3");
        assert_eq!(error_text("{\"a\" 1}"), "expected ':' at byte 5");
        assert_eq!(
            error_text("{\"a\":1 \"b\":2}"),
            "expected ',' or '}' at byte 7"
        );
        assert_eq!(error_text("{1:2}"), "expected '\"' at byte 1");
        assert_eq!(error_text("{\"a\":1,}"), "expected '\"' at byte 7");
        assert_eq!(error_text("\"a\" x"), "trailing characters at byte 4");
        assert_eq!(error_text("[1]]"), "trailing characters at byte 3");
    }

    #[test]
    fn error_positions_count_bytes_not_characters() {
        assert_eq!(error_text("[\"é\", x]"), "expected a JSON value at byte 7");
        assert_eq!(error_text("{\"😀\":1,,}"), "expected '\"' at byte 10");
    }

    #[test]
    fn literals_must_be_complete_and_lowercase() {
        assert_eq!(
            from_str("[true,false,null]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
        for bad in ["nul", "tru", "fals", "True", "NULL", "nan", "Infinity"] {
            assert_eq!(
                error_text(bad),
                "expected a JSON value at byte 0",
                "{bad:?}"
            );
        }
        assert_eq!(error_text("truex"), "trailing characters at byte 4");
        assert_eq!(error_text("[nullx]"), "expected ',' or ']' at byte 5");
    }

    #[test]
    fn whitespace_between_tokens_is_skipped() {
        let v = from_str(" \t\n\r{ \"a\" :\n[ 1 ,\t2 ] ,\r\n\"b\" : { } } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").unwrap().as_object().unwrap().is_empty());
        // Only JSON's four whitespace bytes count: not form feed or NBSP.
        assert_eq!(error_text("\u{c}1"), "expected a JSON value at byte 0");
        assert_eq!(error_text("1\u{a0}"), "trailing characters at byte 1");
    }

    #[test]
    fn unicode_escapes_are_bounds_and_hex_checked() {
        assert_eq!(
            from_str(r#""\u0041\u00e9\u03c0""#).unwrap().as_str(),
            Some("Aéπ")
        );
        assert_eq!(from_str(r#""\u00E9""#).unwrap().as_str(), Some("é"));
        assert_eq!(error_text(r#""\u00""#), "truncated \\u escape at byte 2");
        assert_eq!(error_text(r#""\u"#), "truncated \\u escape at byte 2");
        assert_eq!(error_text(r#""\u12G4""#), "invalid \\u escape at byte 2");
        // A multi-byte character cut by the four-byte window is an error,
        // not a slice across a character boundary.
        assert_eq!(error_text("\"\\u000é\""), "invalid \\u escape at byte 2");
        // Surrogates are not paired: each half becomes U+FFFD.
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_characters() {
        let text = to_string(&Value::from("a\"b\\c\n\r\t\u{0}\u{8}\u{1f} /é\u{7f}")).unwrap();
        // `/` and DEL pass through unescaped.
        assert_eq!(
            text,
            "\"a\\\"b\\\\c\\n\\r\\t\\u0000\\u0008\\u001f /é\u{7f}\""
        );
        assert_eq!(to_string(&Value::from("")).unwrap(), "\"\"");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let values = Value::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5]);
        let text = to_string(&values).unwrap();
        assert_eq!(text, "[null,null,null,0.5]");
        let back = from_str(&text).unwrap();
        assert!(back.as_array().unwrap()[..3].iter().all(Value::is_null));
    }

    #[test]
    fn floats_read_back_to_the_same_f64() {
        for x in [0.1, -2.5e-8, 1e300, 5e-324, 123456.789, -0.75, 3.0, 1e21] {
            let text = to_string(&Value::from(x)).unwrap();
            assert_eq!(from_str(&text).unwrap().as_f64(), Some(x), "{x} as {text}");
        }
    }

    #[test]
    fn compact_and_pretty_layouts_are_exact() {
        let mut inner = Map::new();
        inner.insert(
            "a",
            Value::from(vec![Value::from(1u64), Value::Object(Map::new())]),
        );
        inner.insert("b", Value::Array(Vec::new()));
        inner.insert("c", Value::Null);
        let value = Value::Object(inner);
        assert_eq!(
            to_string(&value).unwrap(),
            r#"{"a":[1,{}],"b":[],"c":null}"#
        );
        assert_eq!(
            to_string_pretty(&value).unwrap(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": [],\n  \"c\": null\n}"
        );
        assert_eq!(to_string_pretty(&Value::from(7u64)).unwrap(), "7");
    }

    #[test]
    fn repeated_keys_keep_the_first_position_and_the_last_value() {
        let v = from_str(r#"{"a":1,"b":2,"a":3,"c":4,"b":5}"#).unwrap();
        let entries: Vec<(&str, u64)> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().unwrap()))
            .collect();
        assert_eq!(entries, [("a", 3), ("b", 5), ("c", 4)]);
        // Each object resolves its own keys, at any depth.
        let v = from_str(r#"[{"x":1,"x":2},{"x":3,"y":{"x":4,"x":5}}]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].get("x").unwrap().as_u64(), Some(2));
        assert_eq!(items[1].get("x").unwrap().as_u64(), Some(3));
        assert_eq!(
            items[1].get("y").unwrap().get("x").unwrap().as_u64(),
            Some(5)
        );
        assert_eq!(items[1].get("y").unwrap().as_object().unwrap().len(), 1);
    }

    #[test]
    fn empty_keys_and_strings_are_ordinary_members() {
        let v = from_str(r#"{"":"","a":"","":"x"}"#).unwrap();
        let map = v.as_object().unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("").unwrap().as_str(), Some("x"));
        assert_eq!(map.get("a").unwrap().as_str(), Some(""));
        assert_eq!(to_string(&v).unwrap(), r#"{"":"x","a":""}"#);
    }

    #[test]
    fn the_depth_limit_counts_open_containers_not_total_ones() {
        // Arrays and objects share one limit.
        let mixed = |depth: usize| {
            let opens: String = (0..depth)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let closes: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{opens}0{closes}")
        };
        assert!(from_str(&mixed(RECURSION_LIMIT)).is_ok());
        assert!(from_str(&mixed(RECURSION_LIMIT + 1)).is_err());
        // Closing a container frees its level: siblings each reach the limit.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = nested(RECURSION_LIMIT - 1);
        assert!(from_str(&format!("[{deepest},{deepest},{deepest}]")).is_ok());
        let too_deep = nested(RECURSION_LIMIT);
        assert!(from_str(&format!("[{deepest},{too_deep}]")).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Characters that stress the string codec: every escape the
        /// writer emits, other control characters, and multi-byte text.
        const CHARS: &[char] = &[
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', 'é', 'π', '\u{2028}', '😀',
        ];

        fn arbitrary_string(rng: &mut TestRng, max: u64) -> String {
            (0..rng.below(max + 1))
                .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                .collect()
        }

        /// Arbitrary [`Value`] trees up to `depth` levels of nesting.
        /// Floats carry a fractional part, so their text reads back as a
        /// float rather than an integer.
        struct ArbitraryValue {
            depth: u32,
        }

        impl ArbitraryValue {
            fn draw(&self, rng: &mut TestRng, depth: u32) -> Value {
                let kinds = if depth == 0 { 6 } else { 8 };
                match rng.below(kinds) {
                    0 => Value::Null,
                    1 => Value::Bool(rng.below(2) == 1),
                    2 => Value::from(rng.next_u64()),
                    3 => Value::from(-(rng.below(1 << 62) as i64) - 1),
                    4 => Value::from(
                        (rng.below(1 << 20) as f64 + (1 + rng.below(7)) as f64 / 8.0)
                            * if rng.below(2) == 1 { -1.0 } else { 1.0 },
                    ),
                    5 => Value::String(arbitrary_string(rng, 12)),
                    6 => Value::Array(
                        (0..rng.below(5))
                            .map(|_| self.draw(rng, depth - 1))
                            .collect(),
                    ),
                    _ => {
                        let mut map = Map::new();
                        for _ in 0..rng.below(5) {
                            map.insert(arbitrary_string(rng, 4), self.draw(rng, depth - 1));
                        }
                        Value::Object(map)
                    }
                }
            }
        }

        impl Strategy for ArbitraryValue {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                self.draw(rng, self.depth)
            }
        }

        /// Fragments of JSON, valid and not, concatenated at random.
        struct JsonishText;

        const FRAGMENTS: &[&str] = &[
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\\ud83d", "\\x", "0", "-",
            "12", "1.5", "e", "E+", ".", "true", "nul", "null", "false", " ", "\n", "é", "😀",
            "\u{0}", "\"k\"", "x", "+", "/", "\\n",
        ];

        impl Strategy for JsonishText {
            type Value = String;
            fn generate(&self, rng: &mut TestRng) -> String {
                (0..rng.below(24))
                    .map(|_| FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize])
                    .collect()
            }
        }

        /// The document with one character removed, one fragment
        /// inserted, or its tail cut, at a random character boundary.
        fn mutate(text: &str, rng: &mut TestRng) -> String {
            let boundaries: Vec<usize> = text
                .char_indices()
                .map(|(i, _)| i)
                .chain([text.len()])
                .collect();
            let at = boundaries[rng.below(boundaries.len() as u64) as usize];
            let mut out = text[..at].to_string();
            match rng.below(3) {
                0 => out.push_str(text[at..].get(1..).unwrap_or("")),
                1 => {
                    out.push_str(FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]);
                    out.push_str(&text[at..]);
                }
                _ => {}
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_text_is_a_value_or_a_typed_error(text in JsonishText) {
                match from_str(&text) {
                    Ok(value) => prop_assert_eq!(from_str(&to_string(&value).unwrap()).unwrap(), value),
                    Err(err) => prop_assert!(err.position <= text.len(), "{err} in {text:?}"),
                }
            }

            #[test]
            fn values_round_trip_through_both_writers(value in ArbitraryValue { depth: 3 }) {
                prop_assert_eq!(from_str(&to_string(&value).unwrap()).unwrap(), value.clone());
                prop_assert_eq!(from_str(&to_string_pretty(&value).unwrap()).unwrap(), value);
            }

            #[test]
            fn mutated_documents_are_a_value_or_a_typed_error(
                value in ArbitraryValue { depth: 3 },
                seed in any::<u64>(),
            ) {
                let text = to_string(&value).unwrap();
                let mut rng = TestRng::deterministic(seed, 0);
                let mutated = mutate(&text, &mut rng);
                if let Err(err) = from_str(&mutated) {
                    prop_assert!(err.position <= mutated.len(), "{err} in {mutated:?}");
                }
            }

            #[test]
            fn repeated_keys_decode_as_an_insert_loop(
                keys in proptest::collection::vec("[ab\"é]{0,2}", 0..12),
                values in proptest::collection::vec(ArbitraryValue { depth: 1 }, 12),
            ) {
                let mut expected = Map::new();
                let mut members = Vec::new();
                for (key, value) in keys.iter().zip(values) {
                    members.push(format!(
                        "{}:{}",
                        to_string(&Value::from(key.as_str())).unwrap(),
                        to_string(&value).unwrap()
                    ));
                    expected.insert(key.clone(), value);
                }
                let text = format!("{{{}}}", members.join(","));
                prop_assert_eq!(from_str(&text).unwrap(), Value::Object(expected));
            }
        }
    }
}
