//! One declaration per record type, one wire rule per field type.
//!
//! Every record the workspace writes as a line of JSON — the trace
//! events ([`crate::Event`]), the job server's write-ahead-log records,
//! the checkpoint state line and the `BENCH_matrix.json` cells — is
//! declared once through [`record!`](crate::record). From that one
//! declaration the macro generates the type (docs included), its
//! encoder and its decoder, so a field's name, type and doc are spelled
//! in one place and every reader decodes what every writer wrote.
//!
//! How a field travels is decided by its type alone, through
//! [`Field`]:
//!
//! * `u64` and `usize` as integers at full precision (seeds exceed
//!   2^53; the parser keeps number lexemes);
//! * `f64` as the shortest decimal that reads back to the same bits;
//!   non-finite values as `null`, read back as NaN (JSON has no NaN or
//!   infinity literals);
//! * `Option<u64>` as the integer or `null`;
//! * `bool` as `true`/`false`, `String` escaped;
//! * `Vec<T>` as an array of `T`, and a record as a nested object, so a
//!   list of records is an array of objects;
//! * `BTreeMap<String, T>` as an object in key order, so a
//!   [`MetricsSnapshot`](crate::MetricsSnapshot) is a record of maps;
//! * [`Histogram`](crate::Histogram) and
//!   [`CheckpointSource`](crate::CheckpointSource) by their own rules.
//!
//! Decoding looks fields up by name, so their order on the wire and any
//! extra fields do not matter; a missing or mistyped field is an error
//! naming it. A tagged record writes its `"type"` tag first; an enum of
//! records dispatches on it.

use crate::json::{parse, write_escaped, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A type with one wire rule: how its value is written into a line of
/// JSON and read back out of one.
pub trait Field: Sized {
    /// Appends the value's JSON to `out`.
    fn write(&self, out: &mut String);

    /// Reads a value from its parsed JSON.
    ///
    /// # Errors
    ///
    /// Describes the mismatch (`"is not a u64"`); the record it sits in
    /// names the field.
    fn read(v: &Json) -> Result<Self, String>;
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "is not a u64".into())
    }
}

impl Field for usize {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json) -> Result<Self, String> {
        usize::try_from(u64::read(v)?).map_err(|_| "does not fit a usize".into())
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            // `Display` for f64 is the shortest decimal that parses back
            // to the same bits.
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| "is not a number".into()),
        }
    }
}

impl Field for Option<u64> {
    fn write(&self, out: &mut String) {
        match self {
            Some(n) => n.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            _ => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| "is not a u64 or null".into()),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "is not a bool".into())
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_escaped(out, self);
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "is not a string".into())
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::read(item).map_err(|e| format!("item {i} {e}")))
                .collect(),
            _ => Err("is not an array".into()),
        }
    }
}

impl<T: Field> Field for BTreeMap<String, T> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, key);
            out.push(':');
            value.write(out);
        }
        out.push('}');
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(key, value)| {
                    T::read(value)
                        .map(|value| (key.clone(), value))
                        .map_err(|e| format!("key '{key}' {e}"))
                })
                .collect(),
            _ => Err("is not an object".into()),
        }
    }
}

/// Single-line JSON object writer: `{"type":"…","key":value,…}`.
///
/// The one object encoder every record shares: the encoders
/// [`record!`](crate::record) generates — trace events, write-ahead-log
/// records, the checkpoint state line, `BENCH_matrix.json` cells — all
/// write through it, so the wire rules of [`Field`] are applied the same
/// way everywhere. It appends to the caller's buffer.
#[derive(Debug)]
pub struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    /// Opens an object in `out`; a tagged one starts with
    /// `"type":"<tag>"`.
    pub fn open(out: &'a mut String, tag: Option<&str>) -> Self {
        out.push('{');
        if let Some(tag) = tag {
            out.push_str("\"type\":\"");
            out.push_str(tag);
            out.push('"');
        }
        Self {
            empty: tag.is_none(),
            out,
        }
    }

    /// Appends `"key":value`.
    pub fn field<T: Field>(self, key: &str, value: &T) -> Self {
        if !self.empty {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value.write(self.out);
        Self {
            out: self.out,
            empty: false,
        }
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Reads the field `key` of the object `obj`.
///
/// # Errors
///
/// `missing field '<key>'`, or the value's own error prefixed with
/// `field '<key>'`.
pub fn read_field<T: Field>(obj: &Json, key: &str) -> Result<T, String> {
    match obj.get(key) {
        Some(v) => T::read(v).map_err(|e| format!("field '{key}' {e}")),
        None => Err(format!("missing field '{key}'")),
    }
}

/// The `"type"` tag of a tagged record.
///
/// # Errors
///
/// When the object has no string `type` field.
pub fn tag(obj: &Json) -> Result<&str, String> {
    obj.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field 'type'".into())
}

/// A record encoded as one line of JSON (no trailing newline).
pub fn to_line<T: Field>(value: &T) -> String {
    let mut out = String::with_capacity(160);
    value.write(&mut out);
    out
}

/// Parses one line of JSON and reads a record from it.
///
/// # Errors
///
/// Malformed JSON, or the record's first missing or mistyped field.
pub fn from_line<T: Field>(line: &str) -> Result<T, String> {
    T::read(&parse(line)?)
}

/// Declares a record type once: the type itself, its [`Field`] encoder
/// and its decoder.
///
/// A struct record lists its fields; `= "tag"` after its name makes it
/// write `"type":"tag"` first (its decoder does not require the tag).
/// A field followed by `= <expr>` is not on the wire: it is left out
/// when writing and takes that value when read.
///
/// ```
/// bayes_obs::record! {
///     /// A point.
///     #[derive(Debug, PartialEq)]
///     pub struct Point = "point" {
///         /// Abscissa.
///         pub x: f64,
///         /// Label.
///         pub label: String,
///         /// In-memory only.
///         pub scratch: Vec<f64> = Vec::new(),
///     }
/// }
/// let p = Point { x: 0.5, label: "a".into(), scratch: vec![1.0] };
/// let line = bayes_obs::schema::to_line(&p);
/// assert_eq!(line, r#"{"type":"point","x":0.5,"label":"a"}"#);
/// let back: Point = bayes_obs::schema::from_line(&line).unwrap();
/// assert_eq!(back, Point { scratch: Vec::new(), ..p });
/// ```
///
/// An enum record gives each variant its tag, `Variant = "tag" { … }`;
/// it writes the tag first and dispatches on it when read. Its
/// associated `TYPES` lists every tag with its fields in wire order.
#[macro_export]
macro_rules! record {
    (@tag) => { None };
    (@tag $tag:literal) => { Some($tag) };
    (@write $w:ident, $value:expr, $field:ident) => {
        $w.field(stringify!($field), &$value)
    };
    (@write $w:ident, $value:expr, $field:ident, $local:expr) => { $w };
    (@read $v:ident, $field:ident) => {
        $crate::schema::read_field($v, stringify!($field))?
    };
    (@read $v:ident, $field:ident, $local:expr) => { $local };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(= $tag:literal)? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(= $local:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::schema::Field for $name {
            fn write(&self, out: &mut String) {
                let w = $crate::schema::ObjWriter::open(out, $crate::record!(@tag $($tag)?));
                $( let w = $crate::record!(@write w, self.$field, $field $(, $local)?); )*
                w.close();
            }

            fn read(v: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self {
                    $( $field: $crate::record!(@read v, $field $(, $local)?), )*
                })
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl $name {
            /// Every type tag, with its fields in wire order.
            pub const TYPES: &'static [(&'static str, &'static [&'static str])] =
                &[$( ($tag, &[$( stringify!($field) ),*]) ),*];
        }

        impl $crate::schema::Field for $name {
            fn write(&self, out: &mut String) {
                match self {
                    $(
                        Self::$variant { $( $field ),* } => {
                            $crate::schema::ObjWriter::open(out, Some($tag))
                                $( .field(stringify!($field), $field) )*
                                .close()
                        }
                    )*
                }
            }

            fn read(v: &$crate::json::Json) -> Result<Self, String> {
                match $crate::schema::tag(v)? {
                    $(
                        $tag => Ok(Self::$variant {
                            $( $field: $crate::schema::read_field(v, stringify!($field))?, )*
                        }),
                    )*
                    other => Err(format!("unknown {} type '{other}'", stringify!($name))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::record! {
        /// A nested record.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Inner {
            /// A count.
            pub n: usize,
            /// Values.
            pub xs: Vec<f64>,
        }
    }

    crate::record! {
        /// A tagged record with every field type.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Outer = "outer" {
            /// Unsigned.
            pub a: u64,
            /// Optional.
            pub b: Option<u64>,
            /// Float.
            pub c: f64,
            /// Flag.
            pub d: bool,
            /// Text.
            pub e: String,
            /// Nested.
            pub inner: Inner,
            /// A list of nested records.
            pub list: Vec<Inner>,
            /// Not written.
            pub local: Vec<u32> = vec![7],
        }
    }

    crate::record! {
        /// Two variants.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Either {
            /// First.
            One = "one" {
                /// Its field.
                x: u64,
            },
            /// Second, with no fields.
            Two = "two" {},
        }
    }

    fn outer() -> Outer {
        Outer {
            a: u64::MAX,
            b: None,
            c: -0.0,
            d: true,
            e: "q\"\n".into(),
            inner: Inner {
                n: 2,
                xs: vec![0.5, f64::INFINITY],
            },
            list: vec![
                Inner { n: 0, xs: vec![] },
                Inner {
                    n: 1,
                    xs: vec![0.1 + 0.2],
                },
            ],
            local: vec![1, 2],
        }
    }

    #[test]
    fn structs_write_in_declaration_order_and_skip_local_fields() {
        assert_eq!(
            to_line(&outer()),
            r#"{"type":"outer","a":18446744073709551615,"b":null,"c":-0,"d":true,"e":"q\"\n","inner":{"n":2,"xs":[0.5,null]},"list":[{"n":0,"xs":[]},{"n":1,"xs":[0.30000000000000004]}]}"#
        );
        let back: Outer = from_line(&to_line(&outer())).unwrap();
        assert_eq!(back.local, vec![7]);
        assert!(back.inner.xs[1].is_nan());
        assert_eq!(back.c.to_bits(), (-0.0f64).to_bits());
        assert_eq!(to_line(&back), to_line(&outer()));
    }

    #[test]
    fn enums_dispatch_on_their_tag() {
        for e in [Either::One { x: 3 }, Either::Two {}] {
            assert_eq!(from_line::<Either>(&to_line(&e)), Ok(e));
        }
        assert_eq!(to_line(&Either::Two {}), r#"{"type":"two"}"#);
        assert_eq!(Either::TYPES, &[("one", &["x"][..]), ("two", &[][..])]);
        assert!(from_line::<Either>(r#"{"type":"three"}"#)
            .unwrap_err()
            .contains("unknown Either type 'three'"));
        assert!(from_line::<Either>(r#"{"x":1}"#).is_err());
    }

    #[test]
    fn errors_name_the_field() {
        let line = to_line(&outer());
        let missing = line.replace("\"d\":true,", "");
        assert_eq!(
            from_line::<Outer>(&missing).unwrap_err(),
            "missing field 'd'"
        );
        let nested = line.replace("\"n\":1", "\"n\":-1");
        assert_eq!(
            from_line::<Outer>(&nested).unwrap_err(),
            "field 'list' item 1 field 'n' is not a u64"
        );
        let big = line.replace("\"n\":2", "\"n\":18446744073709551616");
        assert!(from_line::<Outer>(&big).unwrap_err().contains("'n'"));
        // Field order and extra fields do not matter.
        let shuffled =
            r#"{"e":"","d":false,"extra":[1],"c":1,"b":5,"a":0,"list":[],"inner":{"xs":[],"n":0}}"#;
        let back: Outer = from_line(shuffled).unwrap();
        assert_eq!((back.a, back.b, back.c), (0, Some(5), 1.0));
    }
}
