//! SQL values.
//!
//! A [`Datum`] is one cell of a row. The encoded size matters as much as the
//! value: the paper's cost results hinge on bytes moved and (de)serialized,
//! so every datum knows its wire size and encodes to a real binary format
//! (see [`crate::row`]).

use std::cmp::Ordering;
use std::fmt;

/// One SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    /// 64-bit integer (also used for ids and versions).
    Int(i64),
    Float(f64),
    Text(String),
    /// Opaque bytes (serialized application payloads).
    Bytes(Vec<u8>),
    /// A synthetic application payload: behaves like `Bytes` of length `len`
    /// for all size accounting, but is stored in 16 physical bytes. The
    /// evaluation sweeps value sizes up to 1 MB over 100K keys — materializing
    /// those would need ~100 GB of host RAM, while the paper's cost metrics
    /// depend only on byte *counts*. `seed` distinguishes payload contents
    /// (two payloads are equal iff `len` and `seed` match).
    Payload { len: u64, seed: u64 },
}

impl Datum {
    /// Type tag used in the binary encoding and error messages.
    pub const fn type_name(&self) -> &'static str {
        match self {
            Datum::Null => "null",
            Datum::Bool(_) => "bool",
            Datum::Int(_) => "int",
            Datum::Float(_) => "float",
            Datum::Text(_) => "text",
            Datum::Bytes(_) => "bytes",
            Datum::Payload { .. } => "payload",
        }
    }

    /// Encoded wire size in bytes: 1 tag byte plus the payload.
    pub fn encoded_size(&self) -> u64 {
        1 + match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 8,
            Datum::Float(_) => 8,
            Datum::Text(s) => 4 + s.len() as u64,
            Datum::Bytes(b) => 4 + b.len() as u64,
            // Accounted as if it were `Bytes` of the declared length.
            Datum::Payload { len, .. } => 4 + *len,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// SQL comparison semantics: NULL compares with nothing (returns None),
    /// numerics compare across Int/Float, other type mixes are incomparable.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Float(a), Datum::Float(b)) => a.partial_cmp(b),
            (Datum::Int(a), Datum::Float(b)) => (*a as f64).partial_cmp(b),
            (Datum::Float(a), Datum::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (Datum::Bytes(a), Datum::Bytes(b)) => Some(a.cmp(b)),
            (Datum::Payload { len: l1, seed: s1 }, Datum::Payload { len: l2, seed: s2 }) => {
                Some((l1, s1).cmp(&(l2, s2)))
            }
            _ => None,
        }
    }

    /// SQL equality: NULL equals nothing, including NULL.
    pub fn sql_eq(&self, other: &Datum) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Bytes(b) => write!(f, "x'{}B'", b.len()),
            Datum::Payload { len, seed } => write!(f, "payload({len}B, seed={seed:#x})"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_string())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}

impl From<Vec<u8>> for Datum {
    fn from(v: Vec<u8>) -> Self {
        Datum::Bytes(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_sizes_count_payloads() {
        assert_eq!(Datum::Null.encoded_size(), 1);
        assert_eq!(Datum::Int(5).encoded_size(), 9);
        assert_eq!(Datum::Text("abc".into()).encoded_size(), 8);
        assert_eq!(Datum::Bytes(vec![0; 100]).encoded_size(), 105);
    }

    #[test]
    fn null_never_equals_anything() {
        assert!(!Datum::Null.sql_eq(&Datum::Null));
        assert!(!Datum::Null.sql_eq(&Datum::Int(0)));
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert!(Datum::Int(2).sql_eq(&Datum::Float(2.0)));
        assert_eq!(
            Datum::Int(1).sql_cmp(&Datum::Float(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incompatible_types_are_incomparable() {
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Text("1".into())), None);
        assert!(!Datum::Bool(true).sql_eq(&Datum::Int(1)));
    }

    #[test]
    fn text_compares_lexicographically() {
        assert_eq!(
            Datum::Text("abc".into()).sql_cmp(&Datum::Text("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn payload_accounts_at_declared_length() {
        let p = Datum::Payload { len: 1 << 20, seed: 7 };
        assert_eq!(p.encoded_size(), 5 + (1 << 20));
        assert!(p.sql_eq(&Datum::Payload { len: 1 << 20, seed: 7 }));
        assert!(!p.sql_eq(&Datum::Payload { len: 1 << 20, seed: 8 }));
        assert!(!p.sql_eq(&Datum::Bytes(vec![])));
    }

    #[test]
    fn from_impls_build_expected_variants() {
        assert_eq!(Datum::from(3i64), Datum::Int(3));
        assert_eq!(Datum::from("x"), Datum::Text("x".into()));
        assert_eq!(Datum::from(true), Datum::Bool(true));
    }
}
