//! Offline stand-in for `serde_json`, covering the subset the workspace
//! uses: the dynamic [`Value`] tree, the [`json!`] constructor macro,
//! compact/pretty serialization to strings, and a [`from_str`] parser for
//! reading those strings back (service snapshots round-trip through
//! disk). Object keys preserve insertion order (like serde_json with its
//! `preserve_order` feature), so artifact files diff cleanly across runs.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A JSON number: integers are kept exact so artifacts print `137`, not
/// `137.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    I64(i64),
    U64(u64),
    F64(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::I64(v) => write!(f, "{v}"),
            Number::U64(v) => write!(f, "{v}"),
            Number::F64(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's `null`.
                    write!(f, "null")
                }
            }
        }
    }
}

/// A dynamically-typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    /// Insertion-ordered object.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::I64(v)) => Some(*v as f64),
            Value::Number(Number::U64(v)) => Some(*v as f64),
            Value::Number(Number::F64(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(v)) => Some(*v),
            Value::Number(Number::I64(v)) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I64(v)) => Some(*v),
            Value::Number(Number::U64(v)) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object field lookup; returns `Null` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1)
                })
            }
            Value::Object(fields) => {
                write_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1)
                })
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            newline(out, width * (level + 1));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        newline(out, width * level);
    }
    out.push(close);
}

/// A line break followed by `width` spaces of indentation.
fn newline(out: &mut String, mut width: usize) {
    const SPACES: &str = "                                ";
    out.push('\n');
    while width > 0 {
        let run = width.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        width -= run;
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        f.write_str(&s)
    }
}

/// Compact serialization.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut s = String::new();
    value.write(&mut s, None, 0);
    Ok(s)
}

/// Two-space-indented serialization, matching serde_json's pretty style.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut s = String::new();
    value.write(&mut s, Some(2), 0);
    Ok(s)
}

/// Parse a JSON document into a [`Value`] tree.
///
/// Accepts exactly what [`to_string`]/[`to_string_pretty`] emit (plus
/// arbitrary standard JSON): numbers keep their integer/float identity
/// when the text has no fraction/exponent, strings decode the usual
/// escapes including `\uXXXX` pairs. Trailing non-whitespace after the
/// document is an error, so truncated snapshot files fail loudly.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(Error(format!("expected `{}` at byte {}", b as char, *pos)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a `\uXXXX` low surrogate
                            // must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(Error("unpaired surrogate".into()));
                            }
                            *pos += 2;
                            let second = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(Error("invalid low surrogate".into()));
                            }
                            let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            char::from_u32(cp).ok_or_else(|| Error("bad code point".into()))?
                        } else {
                            char::from_u32(first).ok_or_else(|| Error("bad code point".into()))?
                        };
                        out.push(c);
                    }
                    _ => return Err(Error(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote/escape in one
                // append; the input is a &str so the boundaries are valid
                // by construction. (Per-character validation of the full
                // remaining input would make parsing quadratic — fatal on
                // multi-megabyte snapshot fixtures.)
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| Error("invalid utf-8".into()))?;
                out.push_str(s);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, Error> {
    // `*pos` sits on the `u`; consume the four hex digits after it.
    let start = *pos + 1;
    let digits = bytes
        .get(start..start + 4)
        .ok_or_else(|| Error("truncated \\u escape".into()))?;
    let s = std::str::from_utf8(digits).map_err(|_| Error("bad \\u escape".into()))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| Error("bad \\u escape".into()))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error("bad number".into()))?;
    if text.is_empty() || text == "-" {
        return Err(Error(format!("expected number at byte {start}")));
    }
    if !is_float {
        if text.starts_with('-') {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(v)));
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::Number(Number::U64(v)));
        }
    }
    text.parse::<f64>()
        .map(|v| Value::Number(Number::F64(v)))
        .map_err(|_| Error(format!("invalid number `{text}`")))
}

/// Serialization error (cannot occur for `Value` trees; kept for API
/// compatibility with call sites that `.expect(..)` the result), also
/// returned by [`from_str`] on malformed input.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

// ---- conversions used by json!{} interpolation sites ----

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl From<&&str> for Value {
    fn from(v: &&str) -> Value {
        Value::String((*v).to_string())
    }
}

/// Tuples become two-element arrays (used for `(x, y)` sweep points).
impl<A, B> From<(A, B)> for Value
where
    Value: From<A> + From<B>,
{
    fn from((a, b): (A, B)) -> Value {
        Value::Array(vec![Value::from(a), Value::from(b)])
    }
}

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::I64(v as i64)) }
        }
    )*};
}
macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::U64(v as u64)) }
        }
    )*};
}
from_signed!(i8, i16, i32, i64, isize);
from_unsigned!(u8, u16, u32, u64, usize);

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::F64(v as f64))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F64(v))
    }
}

impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => Value::from(x),
            None => Value::Null,
        }
    }
}

impl<T> From<Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Value::from).collect())
    }
}

impl<T: Clone> From<&[T]> for Value
where
    Value: From<T>,
{
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Value::from).collect())
    }
}

impl<T: Clone> From<&Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(v: &Vec<T>) -> Value {
        Value::Array(v.iter().cloned().map(Value::from).collect())
    }
}

impl<K: Into<String>, V> From<BTreeMap<K, V>> for Value
where
    Value: From<V>,
{
    fn from(m: BTreeMap<K, V>) -> Value {
        Value::Object(
            m.into_iter()
                .map(|(k, v)| (k.into(), Value::from(v)))
                .collect(),
        )
    }
}

/// Build a [`Value`] with JSON syntax; interpolated expressions go
/// through `Value::from`.
///
/// Values in objects/arrays may be JSON literals (`null`, `true`,
/// nested `{..}`/`[..]`) or arbitrary Rust expressions; literal forms are
/// tried first so a nested `{"a": 1}` is parsed as JSON rather than as a
/// (malformed) block expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::json_array!([] $($tt)*) };
    ({ $($tt:tt)* }) => { $crate::json_object!(() $($tt)*) };
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal: array accumulator — `[done elems] remaining tokens...`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ([ $($done:expr),* ]) => { $crate::Value::Array(vec![ $($done),* ]) };
    // JSON-literal elements, with and without a following comma.
    ([ $($done:expr),* ] null , $($rest:tt)*) => {
        $crate::json_array!([ $($done,)* $crate::Value::Null ] $($rest)*)
    };
    ([ $($done:expr),* ] null) => {
        $crate::json_array!([ $($done,)* $crate::Value::Null ])
    };
    ([ $($done:expr),* ] { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_array!([ $($done,)* $crate::json_object!(() $($inner)*) ] $($rest)*)
    };
    ([ $($done:expr),* ] { $($inner:tt)* }) => {
        $crate::json_array!([ $($done,)* $crate::json_object!(() $($inner)*) ])
    };
    ([ $($done:expr),* ] [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_array!([ $($done,)* $crate::json_array!([] $($inner)*) ] $($rest)*)
    };
    ([ $($done:expr),* ] [ $($inner:tt)* ]) => {
        $crate::json_array!([ $($done,)* $crate::json_array!([] $($inner)*) ])
    };
    // Arbitrary expression elements.
    ([ $($done:expr),* ] $next:expr , $($rest:tt)*) => {
        $crate::json_array!([ $($done,)* $crate::Value::from($next) ] $($rest)*)
    };
    ([ $($done:expr),* ] $next:expr) => {
        $crate::json_array!([ $($done,)* $crate::Value::from($next) ])
    };
}

/// Internal: object accumulator — `(done pairs) remaining tokens...`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (( $($done:expr),* )) => { $crate::Value::Object(vec![ $($done),* ]) };
    // JSON-literal values, with and without a following comma.
    (( $($done:expr),* ) $key:literal : null , $($rest:tt)*) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::Value::Null) ) $($rest)*)
    };
    (( $($done:expr),* ) $key:literal : null) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::Value::Null) ))
    };
    (( $($done:expr),* ) $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::json_object!(() $($inner)*)) ) $($rest)*)
    };
    (( $($done:expr),* ) $key:literal : { $($inner:tt)* }) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::json_object!(() $($inner)*)) ))
    };
    (( $($done:expr),* ) $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::json_array!([] $($inner)*)) ) $($rest)*)
    };
    (( $($done:expr),* ) $key:literal : [ $($inner:tt)* ]) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::json_array!([] $($inner)*)) ))
    };
    // Arbitrary expression values.
    (( $($done:expr),* ) $key:literal : $val:expr , $($rest:tt)*) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::Value::from($val)) ) $($rest)*)
    };
    (( $($done:expr),* ) $key:literal : $val:expr) => {
        $crate::json_object!(( $($done,)* ($key.to_string(), $crate::Value::from($val)) ))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_interpolation() {
        let n = 3usize;
        let v = json!({
            "name": "bp",
            "n": n,
            "pi": 3.5,
            "ok": true,
            "missing": null,
            "opt": Some(7u32),
            "none": Option::<u32>::None,
            "seq": [1, 2, 3],
            "nested": {"a": [true, "x"]},
        });
        assert_eq!(v.get("name").as_str(), Some("bp"));
        assert_eq!(v.get("n").as_f64(), Some(3.0));
        assert_eq!(v.get("opt").as_f64(), Some(7.0));
        assert!(v.get("none").is_null());
        assert_eq!(v.get("seq").as_array().unwrap().len(), 3);
        assert_eq!(v.get("nested").get("a").as_array().unwrap().len(), 2);
    }

    #[test]
    fn pretty_roundtrips_integers_exactly() {
        let v = json!({"hits": 137u64, "neg": -3i64});
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"hits\": 137"), "{s}");
        assert!(s.contains("\"neg\": -3"), "{s}");
        assert_eq!(to_string(&v).unwrap(), "{\"hits\":137,\"neg\":-3}");
    }

    #[test]
    fn escaping() {
        let v = json!({"msg": "a\"b\\c\nd"});
        assert_eq!(to_string(&v).unwrap(), "{\"msg\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn vec_interpolation() {
        let years: Vec<i32> = vec![2002, 2024];
        let v = json!({ "years": years });
        assert_eq!(v.get("years").as_array().unwrap().len(), 2);
    }

    #[test]
    fn pretty_nested_layout() {
        let v = json!({
            "a": [1u64, [], {}, [2.5, {"b": null, "c": "x\u{1}y"}]],
            "d": {"e": {"f": [true, -0.0, f64::NAN]}},
        });
        let want = r#"{
  "a": [
    1,
    [],
    {},
    [
      2.5,
      {
        "b": null,
        "c": "x\u0001y"
      }
    ]
  ],
  "d": {
    "e": {
      "f": [
        true,
        -0,
        null
      ]
    }
  }
}"#;
        assert_eq!(to_string_pretty(&v).unwrap(), want);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[1,[],{},[2.5,{"b":null,"c":"x\u0001y"}]],"d":{"e":{"f":[true,-0,null]}}}"#
        );
    }

    #[test]
    fn parse_roundtrips_compact_and_pretty() {
        let v = json!({
            "name": "bp \"quoted\"\n",
            "hits": 137u64,
            "neg": -3i64,
            "mass": 0.1234567890123,
            "flag": true,
            "gap": null,
            "seq": [1u64, [2.5, "x"], {}],
            "empty": [],
        });
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&compact).unwrap(), v);
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let v = from_str(r#"{"s": "aA\n\té 😀"}"#).unwrap();
        assert_eq!(v.get("s").as_str(), Some("aA\n\té 😀"));
    }

    #[test]
    fn parse_number_identity() {
        let v = from_str("[137, -3, 2.5, 1e3, 18446744073709551615]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Value::Number(Number::U64(137)));
        assert_eq!(a[1], Value::Number(Number::I64(-3)));
        assert_eq!(a[2], Value::Number(Number::F64(2.5)));
        assert_eq!(a[3], Value::Number(Number::F64(1000.0)));
        assert_eq!(a[4], Value::Number(Number::U64(u64::MAX)));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "nan",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn expression_values() {
        // Method-call and path expressions must interpolate, not parse as
        // JSON literals.
        let xs = [1.0f64, 2.0, 3.0];
        let v = json!({
            "sum": xs.iter().sum::<f64>(),
            "arr": xs.iter().map(|x| json!(x * 2.0)).collect::<Vec<_>>(),
        });
        assert_eq!(v.get("sum").as_f64(), Some(6.0));
        assert_eq!(v.get("arr").as_array().unwrap().len(), 3);
    }
}
