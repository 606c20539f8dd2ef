//! The workspace's one JSON codec: a total RFC 8259 parser into [`Value`]
//! and the string escaper every writer uses.
//!
//! Writers keep their own `format!` layouts, because trace goldens, bench
//! reports, analysis artifacts and serve responses are byte-stable
//! documents. Every string they interpolate goes through [`escape`].
//! Readers call [`parse`] and walk the result with the typed accessors.
//! The parser never panics: any input, however malformed or deeply nested,
//! yields a value or an error message.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The deepest checked-in
/// document nests 5 levels; the bound keeps the recursive descent within
/// a small thread stack whatever the input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal without fraction or exponent (holds every `u64`
    /// and `i64` exactly).
    Int(i128),
    /// A number literal with a fraction or exponent.
    Float(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn int<T: TryFrom<i128>>(&self) -> Option<T> {
        match *self {
            Value::Int(n) => T::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.int()
    }

    /// The value as an `i64`, if an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.int()
    }

    /// The value as a `u32`, if an integer in range.
    pub fn as_u32(&self) -> Option<u32> {
        self.int()
    }

    /// The value as an `f64`, if a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's items, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in document order, if an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The field `key` of an object; of duplicate keys the last one wins.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Parses one JSON document: a single value with optional surrounding
/// whitespace.
///
/// # Errors
///
/// A message naming the first syntax error and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes after value at byte {}", parser.pos));
    }
    Ok(value)
}

/// Escapes `text` for embedding between the quotes of a JSON string:
/// `"` and `\` are backslashed, `\n`, `\t` and `\r` use their short forms
/// and every other control character becomes `\u00XX`.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    /// A slice of the input between two offsets that sit on ASCII bytes
    /// (or the end), which are always char boundaries.
    fn slice(&self, start: usize) -> Result<&str, String> {
        self.text.get(start..self.pos).ok_or_else(|| format!("invalid text at byte {start}"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek()? {
            b'[' | b'{' if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            b'[' => self.array(depth + 1),
            b'{' => self.object(depth + 1),
            b'"' => self.string().map(Value::Str),
            b'-' | b'0'..=b'9' => self.number(),
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            other => Err(format!("unexpected `{}` at byte {}", other.escape_ascii(), self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("invalid number at byte {start}");
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = self.slice(start)?;
        let value = if float {
            text.parse::<f64>().ok().filter(|x| x.is_finite()).map(Value::Float)
        } else {
            text.parse::<i128>().ok().map(Value::Int)
        };
        value.ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.slice(run)?);
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape_sequence()?),
                _ => return Err(format!("unescaped control character at byte {}", self.pos - 1)),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let Some(&byte) = self.bytes.get(self.pos) else {
            return Err("unterminated escape".to_string());
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(format!("unpaired surrogate at byte {}", self.pos));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("unpaired surrogate at byte {}", self.pos));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                char::from_u32(code)
                    .ok_or_else(|| format!("unpaired surrogate at byte {}", self.pos))?
            }
            _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
        })
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self.bytes.get(self.pos..self.pos + 4).and_then(|digits| {
            digits.iter().try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
        });
        let code = code.ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }
}
