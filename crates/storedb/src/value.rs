//! Column values.


/// A typed column value.
///
/// Ordering across variants is total (Int < Float < Text < Blob) so values
/// can key B-tree indexes; within a variant the natural order applies.
/// Floats are ordered by their IEEE total order, so NaN is allowed but sorts
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float (ordered by `total_cmp`).
    Float(f64),
    /// A UTF-8 string.
    Text(String),
    /// Raw bytes (e.g. an image payload's size stands in for its content).
    Blob(Vec<u8>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// The approximate in-memory size of the value, in bytes — the unit the
    /// cost model charges for moving it.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Text(s) => s.len() as u64,
            Value::Blob(b) => b.len() as u64,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Blob(_) => 3,
        }
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_owned())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Value {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Value::Int(v) => {
                w.u8(0);
                v.save(w);
            }
            Value::Float(v) => {
                w.u8(1);
                w.f64(*v);
            }
            Value::Text(s) => {
                w.u8(2);
                w.str(s);
            }
            Value::Blob(b) => {
                w.u8(3);
                w.bytes(b);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Value::Int(i64::load(r)?)),
            1 => Ok(Value::Float(r.f64()?)),
            2 => Ok(Value::Text(r.str()?)),
            3 => Ok(Value::Blob(r.bytes()?.to_vec())),
            other => Err(SnapError::Corrupt(format!("unknown Value tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_cross_variant() {
        let mut vals = vec![
            Value::text("b"),
            Value::Int(3),
            Value::Float(1.5),
            Value::text("a"),
            Value::Int(-1),
            Value::Blob(vec![1]),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Int(-1),
                Value::Int(3),
                Value::Float(1.5),
                Value::text("a"),
                Value::text("b"),
                Value::Blob(vec![1]),
            ]
        );
    }

    #[test]
    fn nan_sorts_deterministically() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-1.0),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Float(-1.0));
        // NaN lands last under IEEE total order (positive NaN).
        assert!(matches!(vals[2], Value::Float(v) if v.is_nan()));
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::text("abcd").size_bytes(), 4);
        assert_eq!(Value::Blob(vec![0; 100]).size_bytes(), 100);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(1.0f64), Value::Float(1.0));
    }
}
