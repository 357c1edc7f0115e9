//! A dependency-free JSON value type, parser, and writer.
//!
//! The workspace has no serde (offline build), so it carries its own
//! minimal codec: UTF-8 text in, [`Value`] out, with precise error
//! positions. It lives in `fc_core` so the [`crate::plan::Plan`] wire form
//! and the `fc-service` JSON-lines protocol serialize through one codec —
//! a plan encoded by the library is byte-for-byte what the service speaks.
//!
//! A number is a [`Value::Number`] (`f64`), or a [`Value::Uint`] when it
//! is a non-negative integer token: seeds and counts use the whole `u64`
//! domain, which `f64` cannot hold exactly above 2⁵³. Every finite `f64`
//! is written as the shortest decimal that reads back as the same bits —
//! Ryu (Adams, PLDI 2018), byte for byte what `format!("{n}")` writes
//! (std is the reference its tests hold it to) — except that an integer
//! value below 10¹⁷ is written exactly and keeps a `.0`, so it reads back
//! as a `Number` and not a `Uint`, and that a nonzero magnitude below
//! 1e-6 or from 1e21 up is written as `format!("{n:e}")` does (`7.3e-179`,
//! JavaScript's rule): positional text would spell out up to ~330 digits
//! where the exponent form needs three. Non-finite numbers are written as
//! `null`.
//!
//! [`parse_with_rows`] is [`parse`] for protocol lines: it reads the
//! arrays of number rows under a few named keys straight into flat
//! buffers, and leaves every other value as `parse` gives it.

use std::collections::BTreeMap;
use std::fmt;

mod shortest;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number that is not a non-negative integer.
    Number(f64),
    /// A non-negative integer, kept exact (seeds and counts use the full
    /// `u64` domain, which `f64` cannot represent above 2^53).
    Uint(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Sorted keys give canonical output.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (lossy above 2^53 for
    /// integer values).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The numeric payload as a `u64`, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// Serializes to compact JSON (single line, sorted object keys).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the compact JSON text of the value to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(*n, out),
            Value::Uint(n) => write_uint(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => write_array(items, out, Value::write_json),
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Uint(n as u64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Uint(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}

/// Builds an object value from key/value pairs.
pub fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Builds an array of numbers from a float slice.
pub fn number_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Number(v)).collect())
}

/// Appends a JSON array, each item written by `write`.
pub fn write_array<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    mut write: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
    out.push(']');
}

/// Appends a JSON array of numbers.
pub fn write_numbers(values: &[f64], out: &mut String) {
    write_array(values.iter().copied(), out, write_number);
}

/// Appends the JSON text of a number (see the module docs).
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no inf/nan; the protocol encodes them as null and the
        // reader treats null numbers as an error, which is what a cost of
        // nan should be on the wire.
        out.push_str("null");
        return;
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    let n = n.abs();
    if n < 1e17 && (n as u64) as f64 == n {
        // Keep a fraction so floats and exact integers ([`Value::Uint`])
        // stay distinct across a round trip.
        write_uint(n as u64, out);
        out.push_str(".0");
        return;
    }
    let (digits, exponent) = shortest::shortest(n.to_bits());
    let mut buf = [0u8; 20];
    let text = ascii_digits(digits, &mut buf);
    // The value is 0.<text> x 10^point.
    let point = exponent + text.len() as i32;
    if !(1e-6..1e21).contains(&n) {
        // <first>.<rest>e<point - 1>, as `{:e}` writes it.
        let (first, rest) = text.split_at(1);
        out.push_str(first);
        if !rest.is_empty() {
            out.push('.');
            out.push_str(rest);
        }
        out.push('e');
        if point < 1 {
            out.push('-');
        }
        write_uint(u64::from((point - 1).unsigned_abs()), out);
    } else if point <= 0 {
        out.push_str("0.");
        push_zeros(point.unsigned_abs() as usize, out);
        out.push_str(text);
    } else if (point as usize) < text.len() {
        let (whole, fraction) = text.split_at(point as usize);
        out.push_str(whole);
        out.push('.');
        out.push_str(fraction);
    } else {
        out.push_str(text);
        push_zeros(point as usize - text.len(), out);
    }
}

/// Appends the decimal digits of `n`.
fn write_uint(n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    out.push_str(ascii_digits(n, &mut buf));
}

/// The decimal digits of `n`, written at the end of `buf`.
fn ascii_digits(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII")
}

fn push_zeros(count: usize, out: &mut String) {
    out.extend(std::iter::repeat_n('0', count));
}

/// Appends a JSON string literal.
pub fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting levels the parser accepts before rejecting the document; a
/// recursive-descent parser with unbounded depth lets one deeply nested
/// request line overflow the stack and abort the whole server process.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    Ok(parse_with_rows(input, &[])?.0)
}

/// Rows of numbers read flat: `data` holds them one after another, each
/// `dim` long (`dim` is 0 when there are no rows).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rows {
    /// The numbers, row after row.
    pub data: Vec<f64>,
    /// The length of every row.
    pub dim: usize,
}

/// The rows [`parse_with_rows`] read flat, each under its key.
pub type KeyedRows<'k> = Vec<(&'k str, Rows)>;

/// Parses one JSON document like [`parse`], except that when it is an
/// object, the value of each of its keys named in `keys` that is an array
/// of equal-length, non-empty arrays of numbers is read into [`Rows`] and
/// returned beside the object instead of in it. A `null` in a row reads as
/// NaN, and a number as [`Value::as_f64`] would give it. Any other value
/// under such a key stays in the object, exactly as `parse` reads it.
pub fn parse_with_rows<'k>(
    input: &str,
    keys: &[&'k str],
) -> Result<(Value, KeyedRows<'k>), JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        row_keys: keys,
        rows: Vec::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok((v, p.rows))
}

struct Parser<'a, 'k> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Keys of the top-level object whose values are read as [`Rows`].
    row_keys: &'a [&'k str],
    rows: KeyedRows<'k>,
}

impl<'a, 'k> Parser<'a, 'k> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected `{text}`)")))
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Scans a number token: its text, and whether it is digits only.
    fn number_token(&mut self) -> (&'a str, bool) {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        self.digits();
        let mut digits_only = !negative;
        if self.peek() == Some(b'.') {
            digits_only = false;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            digits_only = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        (&self.text[start..self.pos], digits_only)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let (text, digits_only) = self.number_token();
        // Non-negative integer tokens stay exact (f64 corrupts above 2^53).
        if digits_only {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| JsonError {
                message: "invalid number".into(),
                offset: start,
            })
    }

    /// Reads an array of rows as [`parse_with_rows`] describes, or leaves
    /// the position where it was and returns `None` for anything else (a
    /// syntax error included: the generic parse then reports it).
    fn rows(&mut self) -> Option<Rows> {
        let start = self.pos;
        let rows = self.scan_rows();
        if rows.is_none() {
            self.pos = start;
        }
        rows
    }

    fn scan_rows(&mut self) -> Option<Rows> {
        let mut rows = Rows::default();
        self.opening(b'[')?;
        if self.closing(b']') {
            return Some(rows);
        }
        loop {
            self.opening(b'[')?;
            let row_start = rows.data.len();
            loop {
                rows.data.push(match self.peek()? {
                    b'n' if self.bytes[self.pos..].starts_with(b"null") => {
                        self.pos += 4;
                        f64::NAN
                    }
                    b'-' | b'0'..=b'9' => {
                        let (text, _) = self.number_token();
                        text.parse::<f64>().ok().filter(|n| n.is_finite())?
                    }
                    _ => return None,
                });
                if !self.separator(b']')? {
                    break;
                }
            }
            let len = rows.data.len() - row_start;
            if rows.dim == 0 {
                rows.dim = len;
            } else if len != rows.dim {
                return None;
            }
            if !self.separator(b']')? {
                return Some(rows);
            }
        }
    }

    /// Consumes `byte` and the whitespace after it.
    fn opening(&mut self, byte: u8) -> Option<()> {
        (self.peek() == Some(byte)).then(|| {
            self.pos += 1;
            self.skip_ws();
        })
    }

    /// Consumes `close` (and the whitespace after it) if it comes next.
    fn closing(&mut self, close: u8) -> bool {
        let found = self.peek() == Some(close);
        if found {
            self.pos += 1;
            self.skip_ws();
        }
        found
    }

    /// After an array item: `Some(true)` past a `,`, `Some(false)` past
    /// `close`, `None` at anything else.
    fn separator(&mut self, close: u8) -> Option<bool> {
        self.skip_ws();
        if self.closing(close) {
            return Some(false);
        }
        self.opening(b',').map(|()| true)
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control character at once: those are ASCII, so the
                    // run ends on a character boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let mut cp = 0;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid unicode escape"))?;
            cp = cp * 16 + digit;
        }
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let row_key = match self.depth {
                1 => self.row_keys.iter().copied().find(|&k| k == key),
                _ => None,
            };
            // A repeated key keeps its last value, in either place.
            if let Some(row_key) = row_key {
                self.rows.retain(|(k, _)| *k != row_key);
            }
            match row_key.and_then(|k| Some((k, self.rows()?))) {
                Some(rows) => {
                    map.remove(&key);
                    self.rows.push(rows);
                }
                None => {
                    let value = self.value()?;
                    map.insert(key, value);
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"op":"ingest","points":[[1.5,-2],[0,3e2]],"tags":{"a":true,"b":null}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(v.get("op").unwrap().as_str(), Some("ingest"));
        let pts = v.get("points").unwrap().as_array().unwrap();
        assert_eq!(pts[0].as_array().unwrap()[1].as_f64(), Some(-2.0));
        assert_eq!(pts[1].as_array().unwrap()[1].as_f64(), Some(300.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::String("line\nquote\"back\\slash\ttab\u{1F600}\u{7}".into());
        let parsed = parse(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(
            parse(r#""\ud83d""#).is_err(),
            "lone high surrogate must fail"
        );
    }

    #[test]
    fn number_formatting_keeps_types_distinct() {
        assert_eq!(Value::Uint(3).to_json(), "3");
        assert_eq!(Value::Number(3.0).to_json(), "3.0");
        assert_eq!(Value::Number(3.25).to_json(), "3.25");
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for (text, what) in [
            ("", "unexpected end"),
            ("{", "unterminated or missing"),
            ("[1,]", "bad array"),
            ("{\"a\" 1}", "missing colon"),
            ("{\"a\":1,}", "trailing comma"),
            ("tru", "bad literal"),
            ("\"abc", "unterminated string"),
            ("1 2", "trailing characters"),
            ("\"\\x\"", "bad escape"),
            ("[1e999]", "non-finite number"),
        ] {
            assert!(parse(text).is_err(), "{what}: `{text}` should fail");
        }
        let err = parse("[1, 2, x]").unwrap_err();
        assert_eq!(err.offset, 7, "offset should point at the bad token: {err}");
    }

    #[test]
    fn large_u64_integers_stay_exact() {
        for n in [0u64, 1 << 53, u64::MAX, 1 << 60] {
            let v = Value::from(n);
            assert_eq!(v.to_json(), n.to_string());
            assert_eq!(parse(&v.to_json()).unwrap().as_u64(), Some(n));
        }
        // Fractions and negatives still parse as floats.
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        // Integers beyond u64 fall back to (lossy) floats.
        assert_eq!(
            parse("99999999999999999999999").unwrap().as_f64(),
            Some(1e23)
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep_ok).is_ok());
        // One hostile line must produce an error, not a stack overflow.
        let hostile = "[".repeat(200_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.message.contains("nested too deeply"), "{err}");
        let hostile_objects = "{\"a\":".repeat(500);
        assert!(parse(&hostile_objects)
            .unwrap_err()
            .message
            .contains("nested too deeply"));
    }

    #[test]
    fn as_usize_rejects_non_integers() {
        assert_eq!(Value::Number(4.0).as_usize(), Some(4));
        assert_eq!(Value::Number(4.5).as_usize(), None);
        assert_eq!(Value::Number(-1.0).as_usize(), None);
        assert_eq!(Value::String("4".into()).as_usize(), None);
    }

    /// What the writer must print: std's shortest round trip, `{:.1}` for
    /// integer values below 1e17, and `{:e}` for nonzero magnitudes below
    /// 1e-6 or from 1e21 up.
    fn reference(n: f64) -> String {
        if !n.is_finite() {
            "null".to_owned()
        } else if n.fract() == 0.0 && n.abs() < 1e17 {
            format!("{n:.1}")
        } else if !(1e-6..1e21).contains(&n.abs()) {
            format!("{n:e}")
        } else {
            format!("{n}")
        }
    }

    fn assert_writes_reference(n: f64) {
        let mut out = String::new();
        write_number(n, &mut out);
        assert_eq!(out, reference(n), "bits {:#018x}", n.to_bits());
    }

    /// splitmix64: a fixed stream of well-mixed 64-bit patterns.
    fn bit_patterns(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn numbers_are_written_as_std_writes_them() {
        for bits in bit_patterns(7).take(200_000) {
            assert_writes_reference(f64::from_bits(bits));
        }
        // Every power of two and three times one, normal and subnormal.
        for e in -1074..1024 {
            let p = if e < -1022 {
                f64::from_bits(1 << (e + 1074))
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            };
            for n in [p, 3.0 * p, -p] {
                assert_writes_reference(n);
            }
        }
        // Powers of ten and their neighbours.
        for k in -323..=308 {
            let bits = format!("1e{k}").parse::<f64>().unwrap().to_bits();
            for b in [bits - 1, bits, bits + 1] {
                assert_writes_reference(f64::from_bits(b));
            }
        }
        // Exact ties between two shortest candidates round half up.
        for bits in [0x3e60_0000_0000_0000, 0x4317_9085_685d_83c9] {
            assert_writes_reference(f64::from_bits(bits));
        }
        for a in 1..=317 {
            for b in 1..=317 {
                assert_writes_reference(f64::from(a) / f64::from(b));
            }
        }
        for n in [
            0.0,
            -0.0,
            1e17,
            -1e17,
            9.007199254740993e15,
            72057594037927940.0,
        ] {
            assert_writes_reference(n);
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_writes_reference(n);
        }
    }

    /// Both sides of both exponent-form boundaries, then a broad sample:
    /// every written number reads back as the same bits, and an exponent
    /// form as a `Number`, never a `Uint`.
    #[test]
    fn exponent_forms_read_back_as_the_same_float() {
        let edges = [1e-6, 1e21, f64::MIN_POSITIVE, 5e-324, f64::MAX];
        let around = edges.iter().flat_map(|x| {
            let b = x.to_bits();
            [b.saturating_sub(1), b, b.saturating_add(1)]
        });
        let cases: Vec<(f64, &str)> = vec![
            (1e-7, "1e-7"),
            (1e21, "1e21"),
            (1.5e300, "1.5e300"),
            (-7.3e-179, "-7.3e-179"),
            (999999999999999900000.0, "999999999999999900000"),
            (0.000001, "0.000001"),
        ];
        for (n, text) in cases {
            let mut out = String::new();
            write_number(n, &mut out);
            assert_eq!(out, text);
        }
        for bits in around.chain(bit_patterns(11).take(100_000)) {
            let n = f64::from_bits(bits);
            if !n.is_finite() {
                continue;
            }
            let mut out = String::new();
            write_number(n, &mut out);
            let back = parse(&out).unwrap();
            if out.contains('e') {
                assert!(matches!(back, Value::Number(_)), "{out}: {back:?}");
            }
            assert_eq!(back.as_f64().map(f64::to_bits), Some(n.to_bits()), "{out}");
        }
    }

    /// The long run: `cargo test --release -p fc-core -- --ignored`.
    #[test]
    #[ignore = "20 M values; run in release"]
    fn numbers_are_written_as_std_writes_them_at_scale() {
        for bits in bit_patterns(20_000_000).take(20_000_000) {
            assert_writes_reference(f64::from_bits(bits));
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let text = "é".repeat(1 << 19);
        let line = format!("\"{text}\"");
        let started = std::time::Instant::now();
        assert_eq!(parse(&line).unwrap().as_str(), Some(text.as_str()));
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(parse(r#""\u00E9""#).unwrap().as_str(), Some("é"));
    }

    /// `value` with every number an `f64`, as rows hold them.
    fn as_floats(value: Value) -> Value {
        match value {
            Value::Uint(n) => Value::Number(n as f64),
            Value::Array(items) => Value::Array(items.into_iter().map(as_floats).collect()),
            Value::Object(map) => {
                Value::Object(map.into_iter().map(|(k, v)| (k, as_floats(v))).collect())
            }
            other => other,
        }
    }

    /// `parse_with_rows`' document with its rows put back as `parse` reads
    /// them.
    fn rejoin((mut value, rows): (Value, KeyedRows<'_>)) -> Value {
        for (key, rows) in rows {
            let row = |r: &[f64]| {
                let cells = r.iter().map(|&x| match x.is_nan() {
                    true => Value::Null,
                    false => Value::Number(x),
                });
                Value::Array(cells.collect())
            };
            let nested = Value::Array(rows.data.chunks(rows.dim.max(1)).map(row).collect());
            if let Value::Object(map) = &mut value {
                map.insert(key.to_owned(), nested);
            }
        }
        value
    }

    #[test]
    fn rows_are_read_flat_only_where_asked() {
        let keys = ["points", "centers"];
        let text = r#"{"op":"x","points":[[1.5,-2],[0,3e2]], "centers" : [ [ 1 , null ] ] }"#;
        let (value, rows) = parse_with_rows(text, &keys).unwrap();
        assert_eq!(value.to_json(), r#"{"op":"x"}"#);
        assert_eq!(rows[0].0, "points");
        assert_eq!(rows[0].1.data, [1.5, -2.0, 0.0, 300.0]);
        assert_eq!(rows[0].1.dim, 2);
        assert_eq!((rows[1].0, rows[1].1.dim), ("centers", 2));
        assert!(rows[1].1.data[1].is_nan());
        // `parse` itself still nests.
        let nested = parse("[[1.5,-2],[0,3e2]]").unwrap();
        assert_eq!(nested.as_array().unwrap()[1].as_array().unwrap().len(), 2);
        for text in [
            r#"{"points":[]}"#,
            r#"{"points":7}"#,
            r#"{"points":null}"#,
            r#"{"points":[[1],[2,3]]}"#,
            r#"{"points":[[]]}"#,
            r#"{"points":[["a"]]}"#,
            r#"{"points":[1,2]}"#,
            r#"{"points":[[1,2],[3,4]],"points":9}"#,
            r#"{"points":9,"points":[[3,4]]}"#,
            r#"{"plan":{"points":[[1]]},"points":[[18446744073709551615,-0]]}"#,
            r#"[{"points":[[1]]}]"#,
            r#"{"points":[[1,2],[3,4]],"centers":[[5]]}"#,
        ] {
            assert_eq!(
                as_floats(rejoin(parse_with_rows(text, &keys).unwrap())),
                as_floats(parse(text).unwrap()),
                "{text}"
            );
        }
        // A malformed document fails as `parse` fails it.
        for text in [
            r#"{"points":[[1,2],[3,"#,
            r#"{"points":[[1e999]]}"#,
            r#"{"points":[[1,2]],}"#,
            r#"{"points":[[1 2]]}"#,
            r#"{"points":[[-]]}"#,
        ] {
            assert_eq!(
                parse_with_rows(text, &keys).unwrap_err(),
                parse(text).unwrap_err(),
                "{text}"
            );
        }
    }
}
