//! JSON text: the one writer and reader in the workspace.
//!
//! * Flat exporter lines (trace/timeseries JSONL, metrics JSONL, alerts)
//!   are built with [`push_json_str`] and [`fmt_f64`], which keeps the
//!   Prometheus spellings of non-finite values.
//! * Documents (`results/*.json`) go through
//!   [`ToJson`] and [`to_json_pretty`]: 2-space indent, `"key": value`,
//!   `[]`/`{}` when empty, `null` for `None` and for non-finite floats,
//!   and a trailing newline. Floats print their shortest round-trip form,
//!   and whole numbers below 1e15 keep a `.0` so they read as floats.
//!   A plain struct gets its impl from [`json_fields!`](crate::json_fields).
//! * [`parse`] reads any of it back into a [`Value`].
//!
//! Escaping covers the mandatory set from RFC 8259.

use std::fmt::Write;

/// Append `s` as a JSON string (with surrounding quotes) to `out`.
pub fn push_json_str(out: &mut String, s: &str) {
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

/// Format an `f64` deterministically for JSON/Prometheus output. Uses Rust's
/// shortest-roundtrip `Display`, with non-finite values mapped to the
/// Prometheus spellings.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// A value that writes itself as pretty JSON. `indent` is the nesting
/// depth of the line the value starts on; nested lines go one level in.
pub trait ToJson {
    fn write_json(&self, out: &mut String, indent: usize);
}

/// `value` as a pretty JSON document with a trailing newline.
pub fn to_json_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out.push('\n');
    out
}

/// Write `items` between `open` and `close`, one per line at `indent + 1`;
/// an empty block stays on one line.
fn write_block<T>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// An object of `(key, value)` fields, written in the given order.
pub struct Object<'a>(pub &'a [(&'a str, &'a dyn ToJson)]);

impl ToJson for Object<'_> {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_block(out, indent, ('{', '}'), self.0, |out, (key, value)| {
            push_json_str(out, key);
            out.push_str(": ");
            value.write_json(out, indent + 1);
        });
    }
}

/// Implement [`ToJson`] for a struct as an object of the named fields, in
/// the order given: `json_fields! { Point { arch, total_cost } }`.
#[macro_export]
macro_rules! json_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                let fields: &[(&str, &dyn $crate::json::ToJson)] =
                    &[$((stringify!($field), &self.$field)),+];
                $crate::json::ToJson::write_json(&$crate::json::Object(fields), out, indent);
            }
        }
    };
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _: usize) {
        let v = *self;
        if !v.is_finite() {
            out.push_str("null");
        } else if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    }
}

macro_rules! display_to_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String, _: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}
display_to_json!(u64, u32, usize, bool);

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: usize) {
        push_json_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, _: usize) {
        push_json_str(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(v) => v.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        write_block(out, indent, ('[', ']'), self, |out, v| {
            v.write_json(out, indent + 1)
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

macro_rules! tuple_to_json {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, out: &mut String, indent: usize) {
                let items: &[&dyn ToJson] = &[$(&self.$idx),+];
                items.write_json(out, indent);
            }
        }
    };
}
tuple_to_json!(A.0, B.1);
tuple_to_json!(A.0, B.1, C.2);
tuple_to_json!(A.0, B.1, C.2, D.3, E.4);

/// A parsed JSON value. Numbers read as `f64`; object keys keep their order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let fields = self.as_object()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos == text.len() {
        Ok(value)
    } else {
        Err(p.error("end of input"))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn error(&self, expected: &str) -> String {
        let found = self.rest().chars().next();
        format!("expected {expected} at byte {}, found {found:?}", self.pos)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Skip whitespace, then consume `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let found = self.rest().starts_with(token);
        if found {
            self.pos += token.len();
        }
        found
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(&format!("{token:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.rest().as_bytes().first() {
            Some(b'{') => Ok(Value::Object(self.items("{", "}", |p| {
                let key = p.string()?;
                p.expect(":")?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Value::Array(self.items("[", "]", Self::value)?)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let words = [("true", Value::Bool(true)), ("false", Value::Bool(false))];
                for (word, value) in words.into_iter().chain([("null", Value::Null)]) {
                    if self.eat(word) {
                        return Ok(value);
                    }
                }
                Err(self.error("a value"))
            }
        }
    }

    /// Comma-separated items between `open` and `close`, each read by `item`.
    fn items<T>(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(",")?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let end = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let escape = self.rest().chars().next().ok_or("unterminated string")?;
            self.pos += escape.len_utf8();
            out.push(match escape {
                '"' | '\\' | '/' => escape,
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex = self.rest().get(..4).ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(hex, 16).ok();
                    code.and_then(char::from_u32).ok_or("bad \\u escape")?
                }
                _ => return Err(format!("bad escape \\{escape}")),
            });
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = self.rest();
        let len = rest
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(rest.len());
        self.pos += len;
        let text = &rest[..len];
        text.parse()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_control_chars() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_format_deterministically() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }

    /// Write `value` and parse it back.
    fn round_trip<T: ToJson + ?Sized>(value: &T) -> Value {
        parse(&to_json_pretty(value)).expect("the writer's output parses")
    }

    #[test]
    fn strings_round_trip_through_escapes() {
        let s = "quote\" back\\ slash/ nl\n cr\r tab\t bell\u{7} nul\u{0} unit\u{1f} é ✓ 🦀";
        assert_eq!(
            to_json_pretty(s).lines().count(),
            1,
            "control characters are escaped"
        );
        assert_eq!(round_trip(s), Value::String(s.into()));
        assert_eq!(
            parse(r#""\u00e9\b\f\/""#),
            Ok(Value::String("é\u{8}\u{c}/".into()))
        );
    }

    #[test]
    fn floats_read_back_bit_identical() {
        let values = [
            0.0,
            -0.0,
            5e-324,
            1e-300,
            0.1 + 0.2,
            1e15,
            1e16,
            u64::MAX as f64,
            f64::MAX,
        ];
        for v in values {
            let back = round_trip(&v).as_f64().expect("a number");
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "{v:e} wrote {:?}",
                to_json_pretty(&v)
            );
        }
        assert_eq!(to_json_pretty(&3.0), "3.0\n", "whole numbers keep .0");
        assert_eq!(to_json_pretty(&-0.0), "-0.0\n");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_json_pretty(&v), "null\n", "non-finite floats write null");
        }
    }

    struct Row {
        name: String,
        ratio: f64,
        last: Option<u64>,
        tags: Vec<(String, u32)>,
    }
    json_fields! { Row { name, ratio, last, tags } }

    #[test]
    fn nested_documents_round_trip() {
        let doc = (
            vec![(1.0, 0.5, -2.0), (0.1, 1e-9, 3e20)],
            vec![None, Some(0), Some(u32::MAX as u64)],
            (true, false),
        );
        let num = Value::Number;
        let arr = Value::Array;
        assert_eq!(
            round_trip(&doc),
            arr(vec![
                arr(vec![
                    arr(vec![num(1.0), num(0.5), num(-2.0)]),
                    arr(vec![num(0.1), num(1e-9), num(3e20)])
                ]),
                arr(vec![Value::Null, num(0.0), num(u32::MAX as f64)]),
                arr(vec![Value::Bool(true), Value::Bool(false)]),
            ])
        );
        let rows = [
            Row {
                name: "r\"1".into(),
                ratio: f64::NAN,
                last: None,
                tags: vec![],
            },
            Row {
                name: "r2".into(),
                ratio: 0.25,
                last: Some(7),
                tags: vec![("x\n".into(), 1)],
            },
        ];
        let tag = arr(vec![Value::String("x\n".into()), num(1.0)]);
        let fields = |name: &str, ratio, last, tags| {
            Value::Object(vec![
                ("name".into(), Value::String(name.into())),
                ("ratio".into(), ratio),
                ("last".into(), last),
                ("tags".into(), arr(tags)),
            ])
        };
        assert_eq!(
            round_trip(&rows[..]),
            arr(vec![
                fields("r\"1", Value::Null, Value::Null, vec![]),
                fields("r2", num(0.25), num(7.0), vec![tag]),
            ])
        );
        assert_eq!(round_trip(&Vec::<Row>::new()), arr(vec![]));
    }

    #[test]
    fn parser_rejects_malformed_text() {
        let bad = [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "nul",
            "1 2",
            "\"\\x\"",
            "[1 2]",
            "\"ab",
        ];
        for text in bad {
            assert!(parse(text).is_err(), "{text:?} should not parse");
        }
        let ok = Value::Object(vec![
            ("a".into(), Value::Array(vec![])),
            ("b".into(), Value::Object(vec![])),
        ]);
        assert_eq!(parse(" { \"a\" : [ ] , \"b\" : { } } "), Ok(ok));
    }
}
