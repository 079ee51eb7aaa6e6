//! The tensor's JSON codec: `{"shape":[..],"data":[..]}` read straight
//! into a pooled buffer and written into one pre-sized string, with no
//! `serde::Value` tree in between.
//!
//! It is the format of [`Tensor`]'s `serde` impls, byte for byte and bit
//! for bit, on the same tokenizer ([`serde_json::Reader`]):
//!
//! * [`from_str`] accepts what `serde_json::from_str::<Tensor>` accepts
//!   and yields the same bits: members in any order and with any
//!   whitespace, unknown members skipped (but checked), the first of a
//!   duplicated key kept. Every number is `str::parse::<f64>` of the same
//!   token, cast to `f32`.
//! * Nothing is allocated for the data before its size is known and
//!   bounded: the shape product is checked, and it must fit in the bytes
//!   left (`n` numbers take at least `2n` bytes), so a hostile shape is an
//!   error, not an allocation.
//! * [`to_string`] writes what `serde_json::to_string(&tensor)` writes:
//!   the same `{}` text of each value as `f64`, and `null` for NaN and
//!   infinities (which no reader accepts back).
//!
//! `tests/json_codec.rs` holds the codec to the `serde` path on
//! generated, reordered, truncated and bit-flipped bodies.

use std::sync::Arc;

use serde::{Deserialize, Value};
use serde_json::{Error, Reader};

use crate::pool::Buffer;
use crate::Tensor;

/// Bytes reserved per element before writing: the `{}` text of an `f32`
/// widened to `f64` is up to 24 bytes and around 20 for typical weights.
const BYTES_PER_ELEMENT: usize = 20;

fn error(msg: impl std::fmt::Display) -> Error {
    serde::DeError::custom(msg).into()
}

/// Parse a document that is one tensor object.
pub fn from_str(input: &str) -> Result<Tensor, Error> {
    let mut reader = Reader::new(input);
    let tensor = read(&mut reader)?;
    reader.end()?;
    Ok(tensor)
}

/// Read one tensor object at the reader's position, leaving the reader
/// after its closing `}`.
pub fn read(reader: &mut Reader<'_>) -> Result<Tensor, Error> {
    let mut shape = None;
    let mut data = None;
    // Where a `data` that came before `shape` starts: it is checked and
    // skipped, then read once the shape says how much to allocate.
    let mut data_at = None;
    let mut more = reader.begin_object()?;
    while more {
        let key = reader.key()?;
        if key == "shape" && shape.is_none() {
            shape = Some(read_shape(reader)?);
        } else if key == "data" && data.is_none() && data_at.is_none() {
            match &shape {
                Some(shape) => data = Some(read_data(reader, shape)?),
                None => {
                    data_at = Some(reader.offset());
                    reader.skip_value()?;
                }
            }
        } else {
            reader.skip_value()?;
        }
        more = reader.object_next()?;
    }
    let shape = shape.ok_or_else(|| error("missing tensor field `shape`"))?;
    let data = match (data, data_at) {
        (Some(data), _) => data,
        (None, Some(at)) => read_data(&mut reader.at(at), &shape)?,
        (None, None) => return Err(error("missing tensor field `data`")),
    };
    Ok(Tensor::from_shared(Arc::new(data), &shape))
}

fn read_shape(reader: &mut Reader<'_>) -> Result<Vec<usize>, Error> {
    let mut shape = Vec::new();
    let mut more = reader.begin_array()?;
    while more {
        // `usize`'s own check: no fraction, no sign, below 2^64.
        shape.push(usize::from_value(&Value::Number(reader.number()?))?);
        more = reader.array_next()?;
    }
    Ok(shape)
}

/// The `data` array of a tensor of `shape`, into a pooled buffer sized
/// once, after the element count is checked against the bytes left.
fn read_data(reader: &mut Reader<'_>, shape: &[usize]) -> Result<Buffer, Error> {
    let mismatch = || error(format!("tensor data length does not match shape {shape:?}"));
    let n = shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|&n| n <= reader.remaining() / 2)
        .ok_or_else(mismatch)?;
    let mut buf = Buffer::uninit(n);
    let slots = buf.as_mut_slice();
    let mut len = 0;
    let mut more = reader.begin_array()?;
    while more {
        let x = reader.number()?;
        *slots.get_mut(len).ok_or_else(mismatch)? = x as f32;
        len += 1;
        more = reader.array_next()?;
    }
    if len != n {
        return Err(mismatch());
    }
    Ok(buf)
}

/// `tensor` as `serde_json::to_string(tensor)` writes it.
pub fn to_string(tensor: &Tensor) -> String {
    let mut out = String::new();
    write(tensor, &mut out);
    out
}

/// Append `tensor` as one JSON object.
pub fn write(tensor: &Tensor, out: &mut String) {
    out.push('{');
    write_members(tensor, out);
    out.push('}');
}

/// Append the object's two members, `"shape":[..],"data":[..]`, for a
/// caller that writes them into a larger object.
pub fn write_members(tensor: &Tensor, out: &mut String) {
    out.reserve(32 + BYTES_PER_ELEMENT * (tensor.ndim() + tensor.len()));
    out.push_str("\"shape\":");
    write_array(tensor.shape().iter().map(|&d| d as f64), out);
    out.push_str(",\"data\":");
    write_array(tensor.as_slice().iter().map(|&x| f64::from(x)), out);
}

fn write_array(items: impl Iterator<Item = f64>, out: &mut String) {
    out.push('[');
    for (i, x) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::write_number(x, out);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_for_bit() {
        let t = Tensor::from_vec(vec![0.1, -0.0, 1e-45, f32::MAX, -3.5, 7.0], &[2, 3]);
        let json = to_string(&t);
        assert_eq!(json, serde_json::to_string(&t).unwrap());
        let back = from_str(&json).unwrap();
        assert_eq!(back.shape(), t.shape());
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));
    }

    #[test]
    fn reads_reordered_members_and_skips_unknown_ones() {
        let t =
            from_str(r#" { "note" : {"a":[1,{}]}, "data" : [1 , 2] , "shape" : [2] } "#).unwrap();
        assert_eq!(t.as_slice(), &[1.0, 2.0]);
        let first = from_str(r#"{"shape":[1],"data":[5],"data":[1,2,3],"shape":[9]}"#).unwrap();
        assert_eq!(first.as_slice(), &[5.0]);
    }

    #[test]
    fn hostile_shapes_are_errors_before_any_allocation() {
        for bad in [
            r#"{"shape":[1099511627776,1099511627776],"data":[]}"#,
            r#"{"shape":[1000000000],"data":[1,2]}"#,
            r#"{"data":[1,2],"shape":[1000000000]}"#,
            r#"{"shape":[-3,2],"data":[]}"#,
            r#"{"shape":[1.5],"data":[1]}"#,
            r#"{"shape":[2],"data":[1]}"#,
            r#"{"shape":[1],"data":[1,2]}"#,
            r#"{"shape":[1],"data":[null]}"#,
            r#"{"shape":[1]}"#,
            r#"{"data":[1]}"#,
        ] {
            assert!(from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_finite_values_write_as_null() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0], &[3]);
        assert_eq!(to_string(&t), r#"{"shape":[3],"data":[null,null,1]}"#);
    }
}
