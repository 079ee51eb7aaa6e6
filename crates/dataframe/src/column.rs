//! Typed columns and scalar values.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::error::{DfError, DfResult};
use crate::geometry::Geometry;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Timestamp: seconds since the Unix epoch.
    Ts,
    /// Geometry (point / envelope / polygon).
    Geom,
}

impl DType {
    /// Human-readable name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::I64 => "i64",
            DType::Str => "str",
            DType::Bool => "bool",
            DType::Ts => "timestamp",
            DType::Geom => "geometry",
        }
    }
}

/// A single scalar value (one row of one column).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit float.
    F64(f64),
    /// 64-bit signed integer.
    I64(i64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Timestamp (epoch seconds).
    Ts(i64),
    /// Geometry.
    Geom(Geometry),
}

impl Value {
    /// The value's logical type.
    pub fn dtype(&self) -> DType {
        match self {
            Value::F64(_) => DType::F64,
            Value::I64(_) => DType::I64,
            Value::Str(_) => DType::Str,
            Value::Bool(_) => DType::Bool,
            Value::Ts(_) => DType::Ts,
            Value::Geom(_) => DType::Geom,
        }
    }

    /// Extract an f64, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) | Value::Ts(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract an i64 (also accepts timestamps).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) | Value::Ts(v) => Some(*v),
            _ => None,
        }
    }

    /// A key usable for hashing/grouping: integers and strings hash
    /// directly; floats hash by bit pattern.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::F64(v) => GroupKey::Bits(v.to_bits()),
            Value::I64(v) | Value::Ts(v) => GroupKey::Int(*v),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Bool(b) => GroupKey::Int(*b as i64),
            Value::Geom(_) => GroupKey::Str(format!("{:?}", self)),
        }
    }
}

/// Hashable projection of a [`Value`] used by group-by and joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// Integer-like key.
    Int(i64),
    /// Float key by bit pattern.
    Bits(u64),
    /// String key.
    Str(String),
}

/// A column's payload: a window of rows onto a shared, immutable vector
/// (Arrow's buffer + offset). Cloning and [`Buffer::slice`] are O(1) and
/// share storage; it reads as a plain `&[T]` through `Deref`.
#[derive(Clone)]
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    start: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// Rows `[start, end)` of this buffer, sharing its storage.
    ///
    /// # Panics
    /// If the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Buffer<T> {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} of {} rows",
            self.len
        );
        Buffer {
            data: Arc::clone(&self.data),
            start: self.start + start,
            len: end - start,
        }
    }

    /// Append one value, first taking a private copy of the rows if the
    /// storage is shared or wider than this window.
    fn push(&mut self, value: T)
    where
        T: Clone,
    {
        if self.start != 0 || self.len != self.data.len() {
            *self = self.to_vec().into();
        }
        Arc::make_mut(&mut self.data).push(value);
        self.len += 1;
    }
}

impl<T> Deref for Buffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data[self.start..self.start + self.len]
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(data: Vec<T>) -> Self {
        Buffer {
            start: 0,
            len: data.len(),
            data: Arc::new(data),
        }
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit floats.
    F64(Buffer<f64>),
    /// 64-bit integers.
    I64(Buffer<i64>),
    /// Strings.
    Str(Buffer<String>),
    /// Booleans.
    Bool(Buffer<bool>),
    /// Timestamps (epoch seconds).
    Ts(Buffer<i64>),
    /// Geometries.
    Geom(Buffer<Geometry>),
}

impl Column {
    /// The column's logical type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::F64(_) => DType::F64,
            Column::I64(_) => DType::I64,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
            Column::Ts(_) => DType::Ts,
            Column::Geom(_) => DType::Geom,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Ts(v) => v.len(),
            Column::Geom(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    ///
    /// # Panics
    /// If `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::F64(v) => Value::F64(v[row]),
            Column::I64(v) => Value::I64(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Ts(v) => Value::Ts(v[row]),
            Column::Geom(v) => Value::Geom(v[row].clone()),
        }
    }

    /// An empty column of the same type.
    pub fn empty_like(&self) -> Column {
        Column::empty(self.dtype())
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DType) -> Column {
        match dtype {
            DType::F64 => Column::F64(Vec::new().into()),
            DType::I64 => Column::I64(Vec::new().into()),
            DType::Str => Column::Str(Vec::new().into()),
            DType::Bool => Column::Bool(Vec::new().into()),
            DType::Ts => Column::Ts(Vec::new().into()),
            DType::Geom => Column::Geom(Vec::new().into()),
        }
    }

    /// Append one value; the value type must match.
    pub fn push(&mut self, value: Value) -> DfResult<()> {
        match (self, value) {
            (Column::F64(v), Value::F64(x)) => v.push(x),
            (Column::I64(v), Value::I64(x)) => v.push(x),
            (Column::Str(v), Value::Str(x)) => v.push(x),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (Column::Ts(v), Value::Ts(x)) => v.push(x),
            (Column::Geom(v), Value::Geom(x)) => v.push(x),
            (col, value) => {
                return Err(DfError::TypeMismatch {
                    column: String::from("<push>"),
                    expected: col.dtype().name(),
                    found: value.dtype().name(),
                })
            }
        }
        Ok(())
    }

    /// Keep only rows where `mask` is true. `mask.len()` must equal rows.
    pub fn filter(&self, mask: &[bool]) -> Column {
        fn keep<T: Clone>(v: &[T], mask: &[bool]) -> Buffer<T> {
            v.iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            Column::F64(v) => Column::F64(keep(v, mask)),
            Column::I64(v) => Column::I64(keep(v, mask)),
            Column::Str(v) => Column::Str(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Ts(v) => Column::Ts(keep(v, mask)),
            Column::Geom(v) => Column::Geom(keep(v, mask)),
        }
    }

    /// Rows selected by `indices`, in order (gather).
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[T], idx: &[usize]) -> Buffer<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Column::F64(v) => Column::F64(gather(v, indices)),
            Column::I64(v) => Column::I64(gather(v, indices)),
            Column::Str(v) => Column::Str(gather(v, indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Ts(v) => Column::Ts(gather(v, indices)),
            Column::Geom(v) => Column::Geom(gather(v, indices)),
        }
    }

    /// Concatenate same-typed columns.
    pub fn concat(parts: &[&Column]) -> DfResult<Column> {
        let first = parts
            .first()
            .ok_or_else(|| DfError::InvalidArgument("concat of zero columns".into()))?;
        if let Some(part) = parts.iter().find(|p| p.dtype() != first.dtype()) {
            return Err(DfError::TypeMismatch {
                column: String::from("<concat>"),
                expected: first.dtype().name(),
                found: part.dtype().name(),
            });
        }
        macro_rules! cat {
            ($variant:ident) => {{
                let slices: Vec<&[_]> = parts
                    .iter()
                    .map(|part| match part {
                        Column::$variant(v) => &v[..],
                        _ => unreachable!("dtype checked above"),
                    })
                    .collect();
                Column::$variant(slices.concat().into())
            }};
        }
        Ok(match first {
            Column::F64(_) => cat!(F64),
            Column::I64(_) => cat!(I64),
            Column::Str(_) => cat!(Str),
            Column::Bool(_) => cat!(Bool),
            Column::Ts(_) => cat!(Ts),
            Column::Geom(_) => cat!(Geom),
        })
    }

    /// Rows `[start, end)`, sharing this column's storage.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        match self {
            Column::F64(v) => Column::F64(v.slice(start, end)),
            Column::I64(v) => Column::I64(v.slice(start, end)),
            Column::Str(v) => Column::Str(v.slice(start, end)),
            Column::Bool(v) => Column::Bool(v.slice(start, end)),
            Column::Ts(v) => Column::Ts(v.slice(start, end)),
            Column::Geom(v) => Column::Geom(v.slice(start, end)),
        }
    }

    /// Borrow as `&[f64]`, or a type error.
    pub fn f64s(&self) -> DfResult<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => Err(DfError::TypeMismatch {
                column: String::from("<f64s>"),
                expected: "f64",
                found: other.dtype().name(),
            }),
        }
    }

    /// Borrow as `&[i64]` (integers or timestamps).
    pub fn i64s(&self) -> DfResult<&[i64]> {
        match self {
            Column::I64(v) | Column::Ts(v) => Ok(v),
            other => Err(DfError::TypeMismatch {
                column: String::from("<i64s>"),
                expected: "i64",
                found: other.dtype().name(),
            }),
        }
    }

    /// Borrow as `&[Geometry]`.
    pub fn geoms(&self) -> DfResult<&[Geometry]> {
        match self {
            Column::Geom(v) => Ok(v),
            other => Err(DfError::TypeMismatch {
                column: String::from("<geoms>"),
                expected: "geometry",
                found: other.dtype().name(),
            }),
        }
    }

    /// Borrow as `&[String]`.
    pub fn strs(&self) -> DfResult<&[String]> {
        match self {
            Column::Str(v) => Ok(v),
            other => Err(DfError::TypeMismatch {
                column: String::from("<strs>"),
                expected: "str",
                found: other.dtype().name(),
            }),
        }
    }

    /// Approximate heap footprint in bytes (used by the memory-scaling
    /// experiments).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::F64(v) => v.len() * 8,
            Column::I64(v) | Column::Ts(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            Column::Geom(v) => v.iter().map(|g| g.approx_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_and_len() {
        let c = Column::F64(vec![1.0, 2.0].into());
        assert_eq!(c.dtype(), DType::F64);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.value(1), Value::F64(2.0));
    }

    #[test]
    fn push_type_checked() {
        let mut c = Column::I64(vec![].into());
        c.push(Value::I64(5)).unwrap();
        assert!(c.push(Value::F64(1.0)).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn push_onto_shared_storage_copies_and_leaves_the_source_untouched() {
        let whole = Column::I64(vec![1, 2, 3, 4].into());
        let mut window = whole.slice(1, 3);
        window.push(Value::I64(9)).unwrap();
        assert_eq!(window, Column::I64(vec![2, 3, 9].into()));
        let mut copy = whole.clone();
        copy.push(Value::I64(5)).unwrap();
        assert_eq!(copy.len(), 5);
        assert_eq!(whole, Column::I64(vec![1, 2, 3, 4].into()));
    }

    #[test]
    fn filter_take_slice() {
        let c = Column::I64(vec![10, 20, 30, 40].into());
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::I64(vec![10, 30].into())
        );
        assert_eq!(c.take(&[3, 0]), Column::I64(vec![40, 10].into()));
        assert_eq!(c.slice(1, 3), Column::I64(vec![20, 30].into()));
    }

    #[test]
    fn concat_same_type() {
        let a = Column::Str(vec!["a".into()].into());
        let b = Column::Str(vec!["b".into(), "c".into()].into());
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(Column::concat(&[&a, &Column::I64(vec![1].into())]).is_err());
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Ts(7).as_i64(), Some(7));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn group_keys_distinguish_values() {
        assert_ne!(Value::F64(1.0).group_key(), Value::F64(2.0).group_key());
        assert_eq!(Value::I64(5).group_key(), Value::Ts(5).group_key());
        assert_ne!(Value::Str("a".into()).group_key(), Value::Str("b".into()).group_key());
    }

    #[test]
    fn typed_accessors() {
        let c = Column::F64(vec![1.5].into());
        assert_eq!(c.f64s().unwrap(), &[1.5]);
        assert!(c.i64s().is_err());
        let ts = Column::Ts(vec![100].into());
        assert_eq!(ts.i64s().unwrap(), &[100]);
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = Column::F64(vec![0.0; 10].into());
        let big = Column::F64(vec![0.0; 1000].into());
        assert!(big.approx_bytes() > small.approx_bytes() * 50);
    }
}
