//! Report serialization: an in-tree JSON value model, encoder, decoder,
//! and the [`ToReport`]/[`FromReport`] traits the workspace uses instead
//! of serde derives.
//!
//! Every JSON artifact the workspace persists — the `results/*.json`
//! tables, `--trace-out` artifacts, crash-torture reports and the bench
//! recordings — flows through this module, so the workspace needs no
//! external serialization crates and the on-disk field names are an
//! explicit, reviewable contract. Only types some artifact carries
//! implement the traits (traces persist in the binary `.ops` container
//! instead). The encoding mirrors what the previous serde derives
//! produced:
//!
//! * structs → objects with the field names in declaration order;
//! * `Vec<T>` → arrays;
//! * `Option<T>` → the inner value or `null`;
//! * newtype wrappers (e.g. `SimTime`) → the bare inner value;
//! * enum variants → externally tagged objects, `{"Variant": value}`.
//!
//! Non-finite floats have no JSON representation; they encode as `null`
//! (the same policy serde_json applies) and decode back as `f64::NAN`.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved on encode, matching how
    /// struct fields serialise in declaration order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is integral and fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64`; integers widen, `null` is NaN (the decode
    /// side of the non-finite policy).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object fields, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Encodes the value as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Encodes the value as pretty-printed JSON (two-space indent, the
    /// same layout serde_json's pretty printer produced).
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some("  "), 0);
        out
    }

    /// Decodes a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] describing the first syntax error, with
    /// its byte offset.
    pub fn decode(text: &str) -> Result<Value, ReportError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Error from decoding or schema-checking a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(String);

impl ReportError {
    /// Creates a schema error (wrong shape, missing field, bad variant).
    pub fn schema(msg: impl Into<String>) -> Self {
        ReportError(msg.into())
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "report error: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

/// Serialize into the report [`Value`] model.
pub trait ToReport {
    /// The value this type encodes as.
    fn to_report(&self) -> Value;
}

/// Deserialize from the report [`Value`] model.
pub trait FromReport: Sized {
    /// Reconstructs the type, or explains what didn't match.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] when the value has the wrong shape.
    fn from_report(v: &Value) -> Result<Self, ReportError>;
}

/// Fetches and converts a required object field.
///
/// # Errors
///
/// Returns a [`ReportError`] if the field is absent or mistyped.
pub fn field<T: FromReport>(obj: &Value, key: &str) -> Result<T, ReportError> {
    match obj.get(key) {
        Some(v) => T::from_report(v)
            .map_err(|e| ReportError::schema(format!("field `{key}`: {e}"))),
        None => Err(ReportError::schema(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------- encode

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            use fmt::Write as _;
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            use fmt::Write as _;
            let _ = write!(out, "{u}");
        }
        Value::Float(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// Writes a float exactly the way serde_json's ryu backend does: shortest
/// round-trip digits, plain decimal (with a `.0` suffix for integral
/// values) while the decimal point sits within ryu's window, scientific
/// notation outside it. Non-finite floats become `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == 0.0 {
        out.push_str(if x.is_sign_negative() { "-0.0" } else { "0.0" });
        return;
    }
    // `{:e}` gives the shortest mantissa and a base-10 exponent; reposition
    // the point under ryu's rules. `kk` is the number of digits that would
    // sit before the decimal point in plain notation.
    // lint: allow(H2): end-of-run report encoding; replay reaches it only
    // through name-based resolution of `encode`.
    let sci = format!("{x:e}");
    let (mant, exp) = sci.split_once('e').expect("float {:e} has an exponent");
    let exp: i64 = exp.parse().expect("float exponent parses");
    if mant.starts_with('-') {
        out.push('-');
    }
    // lint: allow(H2): end-of-run report encoding; replay reaches it only
    // through name-based resolution of `encode`.
    let digits: String = mant.chars().filter(char::is_ascii_digit).collect();
    let n = digits.len() as i64;
    let kk = exp + 1;
    if n <= kk && kk <= 16 {
        // Integral value: all digits before the point, pad with zeros.
        out.push_str(&digits);
        for _ in n..kk {
            out.push('0');
        }
        out.push_str(".0");
    } else if 0 < kk && kk <= 16 {
        out.push_str(&digits[..kk as usize]);
        out.push('.');
        out.push_str(&digits[kk as usize..]);
    } else if -5 < kk && kk <= 0 {
        out.push_str("0.");
        for _ in kk..0 {
            out.push('0');
        }
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if n > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        use fmt::Write as _;
        let _ = write!(out, "e{}", kk - 1);
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- decode

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ReportError {
        // lint: allow(H2): report-JSON parse error; replay reaches it only
        // because name-based resolution maps `Option::expect` onto
        // `Parser::expect`.
        ReportError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ReportError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            // lint: allow(H2): report-JSON parse error; replay reaches it only
            // because name-based resolution maps `Option::expect` onto
            // `Parser::expect`.
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ReportError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ReportError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ReportError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ReportError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid code point")),
                            }
                            // hex4 leaves pos past the digits; skip the
                            // outer `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ReportError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ReportError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// --------------------------------------------------------- trait impls

impl ToReport for bool {
    fn to_report(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromReport for bool {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        v.as_bool().ok_or_else(|| ReportError::schema("expected bool"))
    }
}

impl ToReport for f64 {
    fn to_report(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromReport for f64 {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        v.as_f64().ok_or_else(|| ReportError::schema("expected number"))
    }
}

impl ToReport for String {
    fn to_report(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromReport for String {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| ReportError::schema("expected string"))
    }
}

impl ToReport for &str {
    fn to_report(&self) -> Value {
        Value::Str((*self).to_owned())
    }
}

macro_rules! int_report {
    ($($t:ty),*) => {$(
        impl ToReport for $t {
            fn to_report(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
        }
        impl FromReport for $t {
            fn from_report(v: &Value) -> Result<Self, ReportError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| ReportError::schema("integer out of range")),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| ReportError::schema("integer out of range")),
                    _ => Err(ReportError::schema("expected integer")),
                }
            }
        }
    )*};
}

int_report!(u64, i64);

impl ToReport for u128 {
    fn to_report(&self) -> Value {
        // u128 exceeds JSON's interoperable integer range; encode as a
        // decimal string so no precision is lost.
        Value::Str(self.to_string())
    }
}

impl FromReport for u128 {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|_| ReportError::schema("expected decimal u128 string")),
            Value::Int(i) => u128::try_from(*i)
                .map_err(|_| ReportError::schema("negative u128")),
            Value::UInt(u) => Ok(u128::from(*u)),
            _ => Err(ReportError::schema("expected u128")),
        }
    }
}

impl<T: ToReport> ToReport for Option<T> {
    fn to_report(&self) -> Value {
        match self {
            Some(v) => v.to_report(),
            None => Value::Null,
        }
    }
}

impl<T: FromReport> FromReport for Option<T> {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_report(other).map(Some),
        }
    }
}

impl<T: ToReport> ToReport for Vec<T> {
    fn to_report(&self) -> Value {
        Value::Array(self.iter().map(ToReport::to_report).collect())
    }
}

impl<T: FromReport> FromReport for Vec<T> {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        v.as_array()
            .ok_or_else(|| ReportError::schema("expected array"))?
            .iter()
            .map(T::from_report)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let compact = v.encode();
        let pretty = v.encode_pretty();
        assert_eq!(&Value::decode(&compact).expect("compact"), v);
        assert_eq!(&Value::decode(&pretty).expect("pretty"), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::Int(0));
        round_trip(&Value::Int(-42));
        round_trip(&Value::Int(i64::MAX));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::UInt(u64::MAX));
        round_trip(&Value::Float(0.5));
        round_trip(&Value::Float(-1.25e-9));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Str("plain".into()));
    }

    #[test]
    fn floats_keep_a_fraction_marker() {
        assert_eq!(Value::Float(1.0).encode(), "1.0");
        assert_eq!(Value::Float(-3.0).encode(), "-3.0");
        assert_eq!(Value::Float(0.0).encode(), "0.0");
        assert_eq!(Value::Float(-0.0).encode(), "-0.0");
        // Ryu's window: plain decimal up to 16 integral digits and down to
        // four leading fraction zeros, scientific beyond.
        assert_eq!(Value::Float(1e15).encode(), "1000000000000000.0");
        assert_eq!(Value::Float(1e16).encode(), "1e16");
        assert_eq!(Value::Float(1e-5).encode(), "0.00001");
        assert_eq!(Value::Float(1e-6).encode(), "1e-6");
        assert_eq!(Value::Float(1e300).encode(), "1e300");
        assert_eq!(Value::Float(-2.5e-9).encode(), "-2.5e-9");
        assert_eq!(Value::Float(1234.5678).encode(), "1234.5678");
        // And decode back as floats, not integers.
        assert_eq!(Value::decode("1.0").expect("decode"), Value::Float(1.0));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Value::Float(f64::NAN).encode(), "null");
        assert_eq!(Value::Float(f64::INFINITY).encode(), "null");
        assert_eq!(Value::Float(f64::NEG_INFINITY).encode(), "null");
        // Decoding the null back through as_f64 yields NaN.
        let v = Value::decode("null").expect("decode");
        assert!(v.as_f64().expect("as_f64").is_nan());
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        for s in [
            "quote\"backslash\\slash/",
            "newline\ntab\tcr\r",
            "control\u{01}\u{1f}",
            "unicode: λ → 🚀 ümlaut",
            "backspace\u{08}formfeed\u{0C}",
        ] {
            round_trip(&Value::Str(s.to_owned()));
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Value::decode(r#""é🚀""#).expect("decode"),
            Value::Str("é🚀".into())
        );
        assert!(Value::decode(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::object(vec![
            ("title", Value::Str("demo".into())),
            (
                "rows",
                Value::Array(vec![
                    Value::Array(vec![Value::Int(1), Value::Float(2.5)]),
                    Value::Array(vec![]),
                    Value::object(vec![("Num", Value::Float(7.25))]),
                ]),
            ),
            ("empty", Value::Object(vec![])),
            ("flag", Value::Bool(false)),
            ("nothing", Value::Null),
        ]);
        round_trip(&v);
    }

    #[test]
    fn pretty_printing_matches_serde_json_layout() {
        let v = Value::object(vec![
            ("a", Value::Int(1)),
            ("b", Value::Array(vec![Value::Int(2)])),
        ]);
        assert_eq!(
            v.encode_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
            "[1] trailing", "{\"a\" 1}", "nulll",
        ] {
            assert!(Value::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_width_boundaries() {
        assert_eq!(
            Value::decode("9223372036854775807").expect("i64 max"),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            Value::decode("9223372036854775808").expect("u64 range"),
            Value::UInt(9223372036854775808)
        );
        assert_eq!(
            Value::decode("-9223372036854775808").expect("i64 min"),
            Value::Int(i64::MIN)
        );
        // Beyond u64: falls back to float.
        assert!(matches!(
            Value::decode("99999999999999999999999999").expect("big"),
            Value::Float(_)
        ));
    }

    #[test]
    fn option_and_vec_impls() {
        let none: Option<f64> = None;
        assert_eq!(none.to_report(), Value::Null);
        assert_eq!(Some(2.5f64).to_report(), Value::Float(2.5));
        assert_eq!(
            Option::<f64>::from_report(&Value::Null).expect("none"),
            None
        );

        let xs = vec![1.0f64, 2.5];
        let enc = xs.to_report();
        assert_eq!(enc.encode(), "[1.0,2.5]");
        let back: Vec<f64> = FromReport::from_report(&enc).expect("back");
        assert_eq!(back, xs);
    }

    #[test]
    fn u128_uses_decimal_strings() {
        let big: u128 = u128::MAX;
        let enc = big.to_report();
        assert_eq!(enc, Value::Str(big.to_string()));
        assert_eq!(u128::from_report(&enc).expect("back"), big);
        // Small u128s also accept plain integers.
        assert_eq!(u128::from_report(&Value::Int(7)).expect("int"), 7);
    }

    #[test]
    fn field_helper_reports_context() {
        let v = Value::object(vec![("n", Value::Int(3))]);
        assert_eq!(field::<u64>(&v, "n").expect("n"), 3);
        let err = field::<u64>(&v, "missing").expect_err("absent");
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn randomized_value_round_trip() {
        // Deterministic property loop: build arbitrary nested values from
        // a seeded RNG and require byte-exact re-decode, both compact and
        // pretty.
        use crate::rng::SimRng;

        fn arbitrary(rng: &mut SimRng, depth: usize) -> Value {
            let pick = if depth >= 4 { rng.below(6) } else { rng.below(8) };
            match pick {
                0 => Value::Null,
                1 => Value::Bool(rng.chance(0.5)),
                2 => Value::Int(rng.next_u64() as i64),
                // Force the high bit: a UInt that fits i64 decodes as Int
                // (the decoder prefers the signed type), which is a valid
                // canonicalisation but not a structural round trip.
                3 => Value::UInt(rng.next_u64() | 1 << 63),
                4 => {
                    // Finite floats only; non-finite is lossy by policy.
                    Value::Float((rng.f64() - 0.5) * 1e12)
                }
                5 => {
                    let len = rng.below(12) as usize;
                    let s: String = (0..len)
                        .map(|_| {
                            match rng.below(6) {
                                0 => '"',
                                1 => '\\',
                                2 => '\n',
                                3 => 'λ',
                                4 => char::from_u32(rng.below(26) as u32 + 'a' as u32)
                                    .expect("ascii"),
                                _ => char::from_u32(rng.below(0x1F) as u32 + 1)
                                    .expect("control"),
                            }
                        })
                        .collect();
                    Value::Str(s)
                }
                6 => {
                    let len = rng.below(5) as usize;
                    Value::Array((0..len).map(|_| arbitrary(rng, depth + 1)).collect())
                }
                _ => {
                    let len = rng.below(5) as usize;
                    Value::Object(
                        (0..len)
                            .map(|i| (format!("k{i}"), arbitrary(rng, depth + 1)))
                            .collect(),
                    )
                }
            }
        }

        let mut rng = SimRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let v = arbitrary(&mut rng, 0);
            let compact = v.encode();
            let decoded = Value::decode(&compact)
                .unwrap_or_else(|e| panic!("decode failed: {e}\ndoc: {compact}"));
            assert_eq!(decoded, v, "compact round trip\ndoc: {compact}");
            let pretty = v.encode_pretty();
            assert_eq!(
                Value::decode(&pretty).expect("pretty decode"),
                v,
                "pretty round trip"
            );
        }
    }
}
