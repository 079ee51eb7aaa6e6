//! Differential property suite for the tensor JSON codec
//! (`geotorch_tensor::json`) against the `serde` path it replaces on the
//! hot routes (`serde_json::from_str::<Tensor>` / `serde_json::to_string`).
//!
//! * **Reader.** On every body — generated tensors rendered with reordered,
//!   duplicated and unknown members and random whitespace; every prefix of
//!   a small body; every single-bit flip of one; hostile shapes — the codec
//!   and the `serde` path agree: both succeed with the same shape and the
//!   same bits, or both fail. A hostile shape fails before the pool hands
//!   out a buffer.
//! * **Writer.** The codec's text equals `serde_json::to_string` byte for
//!   byte, NaN and infinities (written `null`) included.

use std::sync::{Mutex, MutexGuard};

use geotorch_tensor::{json, pool, Tensor};
use proptest::prelude::*;

/// The pool counters are process-wide, so the one test that reads them
/// must not overlap another test's allocations.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `Ok` when the codec and the `serde` path agree on `body`.
fn agree(body: &str) -> Result<(), String> {
    match (json::from_str(body), serde_json::from_str::<Tensor>(body)) {
        (Ok(ours), Ok(want)) if ours.shape() == want.shape() && bits(&ours) == bits(&want) => {
            Ok(())
        }
        (Ok(ours), Ok(want)) => Err(format!("decoded {ours:?}, serde {want:?}: {body:?}")),
        (Err(_), Err(_)) => Ok(()),
        (Ok(_), Err(e)) => Err(format!("accepted what serde rejects ({e}): {body:?}")),
        (Err(e), Ok(_)) => Err(format!("rejected what serde accepts ({e}): {body:?}")),
    }
}

/// An `f32` from a mix of edge values and raw bit patterns (which cover
/// subnormals and, rarely, NaN and the infinities).
fn value() -> impl Strategy<Value = f32> {
    (0u8..4, any::<u32>(), 0usize..12).prop_map(|(pick, raw, i)| match pick {
        0 => [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            1e-30,
            3.4e38,
        ][i],
        1 => f32::from_bits(raw & 0x807f_ffff), // subnormal or zero
        _ => f32::from_bits(raw),
    })
}

/// A tensor of up to three axes of up to three elements (empty axes
/// included), with generated values.
fn tensor() -> impl Strategy<Value = Tensor> {
    prop::collection::vec(0usize..4, 0..4).prop_flat_map(|shape| {
        let n = shape.iter().product::<usize>();
        prop::collection::vec(value(), n).prop_map(move |data| Tensor::from_vec(data, &shape))
    })
}

/// One of the JSON whitespace bytes, or none.
fn ws(pick: u8) -> &'static str {
    ["", "", " ", "\n", "\t", "\r\n  "][pick as usize % 6]
}

/// `members` as one object, with whitespace `pad[i]` around its tokens.
fn object(members: &[(&str, String)], pad: &[u8]) -> String {
    let mut pad = pad.iter().cycle().map(|&p| ws(p));
    let mut out = format!("{}{{", pad.next().unwrap());
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (a, b, c, d) = (
            pad.next().unwrap(),
            pad.next().unwrap(),
            pad.next().unwrap(),
            pad.next().unwrap(),
        );
        out.push_str(&format!("{a}\"{key}\"{b}:{c}{value}{d}"));
    }
    out.push('}');
    out.push_str(pad.next().unwrap());
    out
}

fn shape_text(t: &Tensor) -> String {
    serde_json::to_string(&t.shape().to_vec()).unwrap()
}

fn data_text(t: &Tensor) -> String {
    serde_json::to_string(&t.as_slice().to_vec()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_serde_byte_for_byte(t in tensor()) {
        let _serial = serial();
        prop_assert_eq!(json::to_string(&t), serde_json::to_string(&t).unwrap());
    }

    #[test]
    fn reader_matches_serde_on_canonical_bodies(t in tensor()) {
        let _serial = serial();
        let body = serde_json::to_string(&t).unwrap();
        agree(&body).map_err(TestCaseError::fail)?;
        if t.as_slice().iter().all(|x| x.is_finite()) {
            prop_assert_eq!(bits(&json::from_str(&body).unwrap()), bits(&t));
        }
    }

    #[test]
    fn reader_matches_serde_on_rearranged_bodies(
        t in tensor(),
        other in tensor(),
        order in 0usize..6,
        extra in 0u8..8,
        pad in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let _serial = serial();
        let mut members = vec![("shape", shape_text(&t)), ("data", data_text(&t))];
        if order % 2 == 1 {
            members.swap(0, 1);
        }
        // Unknown members anywhere, and duplicates of either key holding
        // another tensor's (or no tensor's) values: the first one wins.
        let unknown = ("note", r#"{"a":[1,"x\"y",null,true,{"b":[]}],"shape":[-1]}"#.to_string());
        let at = (order / 2).min(members.len());
        match extra {
            0 => members.insert(at, unknown),
            1 => members.push(("shape", shape_text(&other))),
            2 => members.push(("data", data_text(&other))),
            3 => members.insert(at, ("data", data_text(&other))),
            4 => members.insert(at, ("shape", shape_text(&other))),
            5 => members.push(("data", "[null]".to_string())),
            6 => members.truncate(1),
            _ => {}
        }
        agree(&object(&members, &pad)).map_err(TestCaseError::fail)?;
    }
}

/// Small bodies in the canonical and a rearranged layout, for the
/// exhaustive truncation and bit-flip sweeps.
fn small_bodies() -> Vec<String> {
    let t = Tensor::from_vec(vec![1.5, -0.0, 1e-40, 3.25e7, 0.1, -2.0], &[2, 3]);
    vec![
        serde_json::to_string(&t).unwrap(),
        format!(
            r#" {{ "x" : [ {{"s":"a\\"b"}}, -1e-3 ], "data" : {} , "shape" : {}, "shape": [1] }} "#,
            data_text(&t),
            shape_text(&t)
        ),
    ]
}

#[test]
fn every_truncation_agrees() {
    let _serial = serial();
    for body in small_bodies() {
        for cut in 0..body.len() {
            let prefix = &body[..cut];
            assert!(
                json::from_str(prefix).is_err(),
                "accepted a truncated body {prefix:?}"
            );
            agree(prefix).unwrap();
        }
    }
}

#[test]
fn every_single_bit_flip_agrees() {
    let _serial = serial();
    for body in small_bodies() {
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut bytes = body.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    agree(&flipped).unwrap();
                }
            }
        }
    }
}

#[test]
fn hostile_shapes_fail_before_the_pool_hands_out_a_buffer() {
    let _serial = serial();
    let hostile = [
        r#"{"shape":[1099511627776,1099511627776],"data":[]}"#,
        r#"{"shape":[1099511627776,1099511627776],"data":[1,2,3]}"#,
        r#"{"data":[1,2,3],"shape":[1099511627776,1099511627776]}"#,
        r#"{"shape":[18446744073709551616],"data":[]}"#,
        r#"{"shape":[100000000],"data":[1]}"#,
        r#"{"shape":[-3,2],"data":[]}"#,
        r#"{"shape":[-0.5],"data":[]}"#,
        r#"{"shape":[1.5],"data":[1]}"#,
        r#"{"shape":[1e300],"data":[]}"#,
        r#"{"shape":[2,"2"],"data":[1,2,3,4]}"#,
        r#"{"shape":2,"data":[1,2]}"#,
    ];
    for body in hostile {
        agree(body).unwrap();
        let before = pool::stats();
        assert!(json::from_str(body).is_err(), "{body}");
        let after = pool::stats();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits, before.misses),
            "a buffer was taken for {body}"
        );
    }
    // A shape the body could hold is fine, in either member order.
    for body in [
        r#"{"shape":[2.0,-0],"data":[]}"#,
        r#"{"data":[],"shape":[0,7]}"#,
    ] {
        agree(body).unwrap();
        assert!(json::from_str(body).is_ok(), "{body}");
    }
}

#[test]
fn non_finite_values_write_as_null_like_serde() {
    let _serial = serial();
    let t = Tensor::from_vec(
        vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-45],
        &[5],
    );
    let text = json::to_string(&t);
    assert_eq!(text, serde_json::to_string(&t).unwrap());
    assert_eq!(
        text,
        r#"{"shape":[5],"data":[null,null,null,-0,0.000000000000000000000000000000000000000000001401298464324817]}"#
    );
    // JSON cannot carry them back: both readers refuse the `null`s.
    agree(&text).unwrap();
    assert!(json::from_str(&text).is_err());
}

#[test]
fn numbers_keep_the_serde_grammar() {
    let _serial = serial();
    for data in [
        "[inf]", "[NaN]", "[+1]", "[1e]", "[.5]", "[1.]", "[01]", "[-0]", "[1e-400]", "[1e39]",
        "[2.5E+3]",
    ] {
        agree(&format!(r#"{{"shape":[1],"data":{data}}}"#)).unwrap();
    }
    let nested = format!(
        r#"{{"x":{}{},"shape":[0],"data":[]}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    agree(&nested).unwrap();
    assert!(
        json::from_str(&nested).is_err(),
        "nesting past the cap is refused, not recursed into"
    );
}
