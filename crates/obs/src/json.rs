//! The workspace's one JSON module: a tree, a strict parser, and the
//! writers every emitter streams through.
//!
//! The workspace vendors no JSON library (DESIGN.md §5), so this module
//! carries the whole subset the workspace needs:
//!
//! * [`write_str`], [`write_f64`] and [`write_us`] — the one string
//!   escaper and the number writers. The Chrome-trace sink and the
//!   metrics snapshot stream through them without building a tree.
//! * [`Json`] — a document tree with member order preserved, built by
//!   the bench summaries, gate records and bundle manifests and printed
//!   with [`Json::to_pretty`].
//! * [`parse`] — a strict RFC 8259 recursive-descent parser with
//!   byte-offset errors and a nesting bound ([`MAX_DEPTH`]), so a
//!   third-party document (a bundle manifest) cannot overflow the stack.
//!
//! Numbers are kept as `f64`: every value the workspace round-trips is
//! a metric or a small integer well inside the 2⁵³ exact range.

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest at most four levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object member order is preserved, so a
/// parse→write round trip is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A number rounded to `decimals` places, the way `{v:.decimals$}`
    /// prints it (the printer then drops trailing zeros).
    pub fn rounded(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}").parse().unwrap_or(v))
    }

    /// Member lookup on an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the tree, indented two spaces per level, with a
    /// trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_f64(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => write_members(out, "[]", items.iter().map(|v| (None, v)), indent),
        Json::Obj(members) => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_members(out, "{}", members, indent);
        }
    }
}

/// Writes an array (`key` is `None`) or object body one member per
/// line; an empty one stays on one line as `[]` / `{}`.
fn write_members<'a>(
    out: &mut String,
    brackets: &str,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    indent: usize,
) {
    let pad = "  ".repeat(indent + 1);
    if members.len() == 0 {
        return out.push_str(brackets);
    }
    out.push_str(&brackets[..1]);
    for (i, (key, item)) in members.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, item, indent + 1);
    }
    out.push('\n');
    out.push_str(&pad[2..]);
    out.push_str(&brackets[1..]);
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends a nanosecond quantity to `out` as a microsecond JSON number
/// (Chrome trace `ts`/`dur` are microseconds), keeping sub-µs precision
/// as a decimal fraction: `1500` ns → `1.5`.
pub fn write_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1000).to_string());
    let frac = ns % 1000;
    if frac != 0 {
        out.push('.');
        out.push_str(format!("{frac:03}").trim_end_matches('0'));
    }
}

/// Appends an `f64` to `out` as a JSON number: the shortest decimal
/// that round-trips, integers bare (`7`, not `7.0`), and `null` for the
/// non-finite values JSON has no number for.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Parses exactly one JSON document (surrounding whitespace allowed).
///
/// The grammar is strict RFC 8259: no trailing commas, no single
/// quotes, no leading zeros (`01`), no bare fraction points (`1.`,
/// `1.e3`). Numbers that overflow `f64` are rejected, as is nesting
/// deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// A message carrying the byte offset of the first error — enough to
/// locate a corrupted baseline or manifest.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    /// Runs a container parser one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(format!("expected `,` or `}}` at byte {}", self.pos));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected `,` or `]` at byte {}", self.pos));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Take the longest plain run in one slice; it ends on an
            // ASCII byte, so both ends are char boundaries.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' | b'\\' | b'/' => char::from(esc),
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("invalid \\u escape at byte {}", self.pos)
                                })?;
                            self.pos += 4;
                            // The writer never emits surrogates (it escapes
                            // only control characters); a lone or paired
                            // surrogate from elsewhere maps to U+FFFD.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => {
                            return Err(format!(
                                "invalid escape `\\{}` at byte {}",
                                char::from(esc),
                                self.pos - 1
                            ))
                        }
                    };
                    s.push(c);
                }
                Some(_) => {
                    return Err(format!(
                        "unescaped control byte in string at byte {}",
                        self.pos
                    ))
                }
                None => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = self.eat(b'0') || self.digits() > 0;
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        } else {
            true
        };
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if int_ok && frac_ok && exp_ok && n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("invalid number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(parse("-0.5E+2").unwrap(), Json::Num(-50.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\\/\"").unwrap(),
            Json::Str("a\nbA/".to_string())
        );
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".to_string()));
        let doc = parse(r#"  {"a" : [ 1 ,2, {"b":false}], "c": "x", "d": null}  "#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (text, fragment) in [
            ("", "unexpected end"),
            ("{", "expected `\"`"),
            ("[1, 2", "expected"),
            ("[1,]", "unexpected `]`"),
            ("{\"a\":}", "unexpected `}`"),
            ("{\"a\" 1}", "expected `:`"),
            ("{\"a\":1,}", "expected `\"`"),
            ("{'a':1}", "expected `\"`"),
            ("{} extra", "trailing data"),
            ("1 2", "trailing data"),
            ("\"unterminated", "unterminated string"),
            ("\"tab\there\"", "unescaped control byte"),
            ("\"\\x\"", "invalid escape"),
            ("\"\\u12\"", "invalid \\u escape"),
            ("\"\\u+123\"", "invalid \\u escape"),
            ("tru", "invalid literal"),
            ("01", "trailing data"),
            ("-01", "trailing data"),
            ("[01]", "expected `,` or `]`"),
            ("01e", "trailing data"),
            ("1.", "invalid number"),
            ("1.e3", "invalid number"),
            ("-", "invalid number"),
            ("1e", "invalid number"),
            ("1e+", "invalid number"),
            ("1e400", "invalid number"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.contains(fragment),
                "`{text}` → `{err}` (wanted `{fragment}`)"
            );
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let err = parse(&("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1))).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn pretty_printer_layout() {
        let doc = Json::obj([
            ("bench", "sim".into()),
            ("n", 7u64.into()),
            ("rate", Json::rounded(12345.678, 1)),
            ("tags", Json::Arr(vec!["x".into(), Json::Null])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("ok", true.into())])),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"bench\": \"sim\",\n  \"n\": 7,\n  \"rate\": 12345.7,\n  \"tags\": [\n    \"x\",\n    null\n  ],\n  \"empty\": [],\n  \"nested\": {\n    \"ok\": true\n  }\n}\n"
        );
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn rounding_matches_fixed_decimal_formatting() {
        assert_eq!(Json::rounded(27.399999, 2), Json::Num(27.4));
        assert_eq!(Json::rounded(0.704, 2), Json::Num(0.7));
        assert_eq!(Json::rounded(108425.6, 0), Json::Num(108426.0));
    }

    #[test]
    fn microsecond_rendering() {
        let us = |ns: u64| {
            let mut s = String::new();
            write_us(&mut s, ns);
            s
        };
        assert_eq!(us(0), "0");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1");
        assert_eq!(us(1_500), "1.5");
        assert_eq!(us(2_000_001), "2000.001");
    }

    #[test]
    fn f64_rendering() {
        let f = |v: f64| {
            let mut s = String::new();
            write_f64(&mut s, v);
            s
        };
        assert_eq!(f(2.5), "2.5");
        assert_eq!(f(7.0), "7");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
        assert_eq!(parse(&f(1e300)).unwrap(), Json::Num(1e300));
    }
}
