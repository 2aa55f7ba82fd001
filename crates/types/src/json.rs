//! The workspace's one JSON codec.
//!
//! Every JSON artifact the reproduction writes or reads back — the run
//! ledger, the bench history and `--json` reports — goes
//! through this module. [`Json`] is the value type, [`parse`] the reader and
//! [`Json::render`] the one writer: every exporter builds a [`Json::Obj`]
//! and renders it. Exported integers are counts and indices far below
//! 2^53, which [`Json::Num`]'s `f64` holds exactly and renders as the
//! integer's own digits; 64-bit digests travel as hex strings.
//!
//! The rules, in one place:
//!
//! * numbers render with Rust's shortest round-trip formatting (`{}`), so
//!   parsing the text back yields the identical bits; `-0.0` renders `0`,
//!   and NaN and ±∞ render `null`, since JSON has no token for them;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` with short escapes and
//!   every other control character as `\u00XX`; everything else is written
//!   as UTF-8;
//! * the reader accepts every standard escape (surrogate pairs included)
//!   and returns `None` on malformed input, trailing text or nesting past
//!   32 levels — never a panic.

use std::fmt::Write as _;

/// Nesting limit of [`parse`]: no artifact the reproduction writes nests
/// more than a few levels deep, so anything past this is not one of ours.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes the value compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number: shortest round-trip digits, `0` for
/// `-0.0`, `null` for NaN and ±∞.
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parses one JSON document. Returns `None` on any syntax error, on
/// trailing non-whitespace, and on nesting deeper than 32 levels.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    (p.pos == text.len()).then_some(value)
}

/// Recursive-descent reader. `pos` only ever advances over ASCII bytes or
/// whole string runs, so it always sits on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let [b' ' | b'\t' | b'\n' | b'\r', ..] = self.rest() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.rest().first().copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':').then_some(())?;
                    Some((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            b'[' => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            b'"' => self.string().map(Json::Str),
            b'n' => self.keyword("null", Json::Null),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            _ => self.number(),
        }
    }

    /// The comma-separated items after the opening bracket at `pos`, up to
    /// and including `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Some(items);
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Option<Json> {
        self.rest().starts_with(word.as_bytes()).then(|| {
            self.pos += word.len();
            value
        })
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while let [b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E', ..] = self.rest() {
            self.pos += 1;
        }
        self.text[start..self.pos].parse().ok().map(Json::Num)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let run = &self.text[self.pos..];
            let stop = run.find(['"', '\\'])?;
            out.push_str(&run[..stop]);
            self.pos += stop + 1;
            if run.as_bytes()[stop] == b'"' {
                return Some(out);
            }
            let escape = *self.rest().first()?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return None,
            });
        }
    }

    /// The char of a `\uXXXX` escape whose `\u` is already consumed; a
    /// high surrogate must be followed by an escaped low surrogate.
    fn unicode_escape(&mut self) -> Option<char> {
        let high = self.hex4()?;
        if !(0xD800..0xDC00).contains(&high) {
            return char::from_u32(high);
        }
        if !self.rest().starts_with(b"\\u") {
            return None;
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xDC00..0xE000).contains(&low) {
            return None;
        }
        char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.text.get(self.pos..self.pos + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: f64) -> String {
        let mut out = String::new();
        write_num(&mut out, v);
        out
    }

    #[test]
    fn numbers_render_shortest_integers_without_fraction() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(1e20), "100000000000000000000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }

    /// Every integer up to 2^53 renders as its own digits, so exporters
    /// can hold counts in [`Json::Num`] without changing a byte.
    #[test]
    fn integers_up_to_two_to_the_53_render_as_their_digits() {
        for n in [0u64, 1, u64::from(u32::MAX), 1 << 32, 1 << 53] {
            assert_eq!(Json::Num(n as f64).render(), n.to_string());
        }
    }

    #[test]
    fn render_matches_the_compact_format() {
        let doc = Json::Obj(vec![
            ("k".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(1.5)])),
            ("s".into(), Json::Str("a\"b\\c\nd".into())),
            ("t".into(), Json::Bool(true)),
            ("n".into(), Json::Null),
        ]);
        assert_eq!(
            doc.render(),
            "{\"k\":[1,1.5],\"s\":\"a\\\"b\\\\c\\nd\",\"t\":true,\"n\":null}"
        );
        assert_eq!(parse(&doc.render()), Some(doc));
    }

    /// Every control char below 0x20 leaves the writer escaped (raw bytes
    /// would be invalid JSON) and reads back unchanged.
    #[test]
    fn control_chars_escape_and_round_trip() {
        for c in (0u8..0x20).map(char::from) {
            let raw = format!("x{c}y");
            let mut out = String::new();
            write_str(&mut out, &raw);
            assert!(!out.chars().any(|c| c < ' '), "{out:?}");
            assert_eq!(
                parse(&out),
                Some(Json::Str(raw)),
                "char {:#x}",
                u32::from(c)
            );
        }
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn reads_every_standard_escape() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00""#),
            Some(Json::Str("\"\\/\u{8}\u{c}\n\r\té😀".into()))
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x""#,
        ] {
            assert_eq!(parse(bad), None, "accepted {bad}");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse("{\"a\": [1, 2.5, null], \"b\": {\"c\": \"x\\ny\"}, \"d\": true}")
            .expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(obj.len(), 3);
        assert_eq!(obj[0].1.as_array().map(<[Json]>::len), Some(3));
        assert_eq!(obj[0].1.as_array().and_then(|a| a[1].as_num()), Some(2.5));
        assert_eq!(
            obj[1].1.as_object().and_then(|o| o[0].1.as_str()),
            Some("x\ny")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1} trailing",
            "-",
        ] {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
        assert_eq!(parse(" { } "), Some(Json::Obj(Vec::new())));
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH + 1)).is_some());
        assert_eq!(parse(&deep(MAX_DEPTH + 2)), None);
    }
}
