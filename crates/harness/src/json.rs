//! A deliberately minimal JSON dialect for the run manifest: objects,
//! arrays, strings, and unsigned integers.
//!
//! Rejecting everything else (floats, booleans, null) is a feature — the
//! manifest writes nothing of the sort, so their presence means a file is
//! not ours. Emission helpers ([`encode_str`]) live here too so writers
//! and readers agree on the escape set.

use std::collections::BTreeMap;

/// One parsed JSON value of the supported dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `{...}` with string keys.
    Object(BTreeMap<String, Value>),
    /// `[...]`.
    Array(Vec<Value>),
    /// `"..."`.
    Str(String),
    /// An unsigned integer (the only number form the dialect admits).
    Num(u64),
}

impl Value {
    /// The object's key map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An array of exactly `len` unsigned integers, if this is one.
    pub fn as_u64_array(&self, len: usize) -> Option<Vec<u64>> {
        match self {
            Value::Array(items) if items.len() == len => items.iter().map(Value::as_u64).collect(),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; `None` on any syntax error, trailing
/// garbage, or construct outside the supported dialect.
pub fn parse(input: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

/// JSON string escape (for keys and values emitted by hand-rolled
/// writers). Ids are plain ASCII by convention, but the encoder must not
/// be the thing enforcing that.
pub fn encode_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        (self.bump()? == b).then_some(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(Value::Object(map)),
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(Value::Array(items)),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.bump()? as char).to_digit(16)?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                // Multi-byte UTF-8 continuation: pass through raw. The
                // reassembled string is validated by construction since
                // the input was a &str.
                b => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    if b >= 0x80 {
                        while matches!(self.bytes.get(end), Some(&c) if c & 0xC0 == 0x80) {
                            end += 1;
                        }
                        self.pos = end;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse().ok().map(Value::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_strings_numbers_parse() {
        let v = parse("{\"a\":[1,2],\"b\":\"x\"}").unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64_array(2), Some(vec![1, 2]));
        assert_eq!(obj.get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn dialect_rejects_floats_booleans_null_and_trailing_garbage() {
        assert!(parse("1.5").is_none());
        assert!(parse("true").is_none());
        assert!(parse("null").is_none());
        assert!(parse("-3").is_none());
        assert!(parse("{} x").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let odd = "a/\"quoted\"\\slash\n\ttab-π";
        let parsed = parse(&encode_str(odd)).unwrap();
        assert_eq!(parsed.as_str(), Some(odd));
    }
}
