//! Offline shim for the `serde_json` crate.
//!
//! Renders and parses the [`Value`] model from the sibling `serde` shim:
//! `to_string` / `to_string_pretty` over anything implementing
//! `serde::Serialize`, and a recursive-descent `from_str` returning a
//! `Value` tree. Covers the full JSON grammar (escapes included) at the
//! scale this workspace needs — experiment artifacts and trace lines.
//! Like upstream, `from_str` rejects arrays and objects nested deeper than
//! [`RECURSION_LIMIT`], so hostile input cannot overflow the stack.

pub use serde::value::{Map, Number, Value};
use serde::Serialize;
use std::fmt;

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
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json_value(), &mut out, Some(2), 0);
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
                out.push_str(&format!("\\u{:04x}", c as u32));
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
            out.push_str(&" ".repeat(width * depth));
        }
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
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
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
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
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
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
}
