//! The one JSON value, parser and writer.
//!
//! Every machine-readable view builds a [`Json`] value and renders it
//! with `Display`: the `--stats --json` report, the `--trace` Chrome
//! trace, `build --json`, the daemon's request and response bodies and
//! `/v1/stats`. So string escaping, number rendering and key order are
//! decided here alone. The workspace builds offline with no external
//! crates, so this module hand-rolls the subset those need: objects,
//! arrays, strings with `\uXXXX` escapes, numbers, booleans and `null`.
//!
//! Object keys print in sorted order (`Obj` is a `BTreeMap`). A number
//! prints as an integer when it is one below 9e15, in shortest
//! round-trip form otherwise, and as `null` when it is not finite.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; the protocol's integers are
    /// well within the 53-bit exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`) so output is stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up a key on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload truncated to `u64`, if this is a
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.is_finite() => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(map) => {
                f.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal: `"` and `\` escaped, and every
/// control character as a short or `\u00XX` escape. Runs of characters
/// that need no escape are written whole (a response's rendered forms
/// are long strings).
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        f.write_str(&s[plain..i])?;
        if escape.is_empty() {
            write!(f, "\\u{:04x}", c as u32)?;
        } else {
            f.write_str(escape)?;
        }
        plain = i + c.len_utf8();
    }
    f.write_str(&s[plain..])?;
    f.write_char('"')
}

/// Builds an object from key/value pairs (a convenience for responses).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

/// Parser nesting ceiling: the protocol never nests more than a few
/// levels, and the cap keeps hostile input from recursing the host
/// stack away.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect \uXXXX low half
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad unicode escape".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(ch.ok_or("bad unicode escape")?);
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                Some(_) => {
                    // consume one full UTF-8 character
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad unicode escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "bad unicode escape".to_string())?;
        self.pos = end;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip() {
        let src = r#"{"op":"run","module":"main","limits":{"max_vm_steps":1000},"ok":true,"xs":[1,2.5,null,"a\nb"]}"#;
        let v = parse(src).expect("parse");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
        assert_eq!(
            v.get("limits")
                .and_then(|l| l.get("max_vm_steps"))
                .and_then(Json::as_u64),
            Some(1000)
        );
        let printed = v.to_string();
        assert_eq!(parse(&printed).expect("reparse"), v);
    }

    #[test]
    fn writes_sorted_keys_escapes_and_shortest_numbers() {
        let v = obj(vec![
            ("b", Json::Str("q\"b\\s\nn\u{1}é\t\r".to_string())),
            (
                "a",
                Json::Arr(vec![
                    Json::Num(1.5),
                    Json::Num(3.0),
                    Json::Num(-0.25),
                    Json::Num(1e20),
                    Json::Null,
                    Json::Bool(false),
                ]),
            ),
        ]);
        let printed = v.to_string();
        assert_eq!(
            printed,
            r#"{"a":[1.5,3,-0.25,100000000000000000000,null,false],"b":"q\"b\\s\nn\u0001é\t\r"}"#
        );
        assert_eq!(parse(&printed), Ok(v));
        // JSON has no NaN or infinity: they print as null
        let odd = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::NEG_INFINITY)]);
        assert_eq!(odd.to_string(), "[null,null]");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("{}extra").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth cap");
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("é😀"));
        let v = parse(r#""\uD83D\uDE00""#).expect("surrogate pair");
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_bad_surrogates() {
        // High surrogate followed by a non-low-surrogate escape.
        assert!(parse(r#""\uD800A""#).is_err());
        // High surrogate followed by another high surrogate.
        assert!(parse(r#""\uD800\uD800""#).is_err());
        // Lone surrogates (either half) are not scalar values.
        assert!(parse(r#""\uDC00""#).is_err());
    }
}
