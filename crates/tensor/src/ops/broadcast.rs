//! NumPy-style broadcasting for binary elementwise operations.

use crate::{strides_for, Tensor};

/// Compute the broadcast result shape of two shapes, per NumPy rules:
/// trailing axes are aligned; each pair of dims must be equal or one of
/// them must be 1.
///
/// # Panics
/// If the shapes are not broadcast-compatible.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => panic!("shapes {:?} and {:?} are not broadcast-compatible", a, b),
        };
    }
    out
}

/// Strides for iterating `shape` as if broadcast to `out_shape`:
/// broadcast axes get stride 0.
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let rank = out_shape.len();
    let base = strides_for(shape);
    let mut out = vec![0; rank];
    let offset = rank - shape.len();
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 { 0 } else { base[i] };
    }
    out
}

/// Whether `t` is a single row broadcast along every leading axis of a
/// `[.., n]` result: shape `[n]`, `[1, n]`, `[1, 1, n]`, ….
fn is_row(t: &Tensor, n: usize) -> bool {
    n > 0 && t.len() == n && t.shape().last() == Some(&n)
}

/// Apply `f` elementwise over broadcast inputs, producing a tensor of the
/// broadcast shape. Fast paths cover equal shapes, scalar operands and a
/// full operand against a row.
/// Output buffers come from the size-class pool; every element is
/// written, so stale recycled contents never escape.
pub fn zip_broadcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.elementwise");
    let out_shape = broadcast_shape(a.shape(), b.shape());
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        let mut data = crate::pool::alloc_uninit(a.len());
        for ((d, &x), &y) in data.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
            *d = f(x, y);
        }
        return Tensor::from_vec(data, &out_shape);
    }
    // Fast path: one operand is a single element and the other already has
    // the broadcast shape.
    if b.len() == 1 && a.shape() == out_shape {
        let y = b.as_slice()[0];
        let mut data = crate::pool::alloc_uninit(a.len());
        for (d, &x) in data.iter_mut().zip(a.as_slice()) {
            *d = f(x, y);
        }
        return Tensor::from_vec(data, &out_shape);
    }
    if a.len() == 1 && b.shape() == out_shape {
        let x = a.as_slice()[0];
        let mut data = crate::pool::alloc_uninit(b.len());
        for (d, &y) in data.iter_mut().zip(b.as_slice()) {
            *d = f(x, y);
        }
        return Tensor::from_vec(data, &out_shape);
    }
    // Fast path: a full operand and one row (a bias add): zip row by row.
    let n = out_shape.last().copied().unwrap_or(1);
    if a.shape() == out_shape && is_row(b, n) {
        let mut data = crate::pool::alloc_uninit(a.len());
        for (d_row, a_row) in data.chunks_exact_mut(n).zip(a.as_slice().chunks_exact(n)) {
            for ((d, &x), &y) in d_row.iter_mut().zip(a_row).zip(b.as_slice()) {
                *d = f(x, y);
            }
        }
        return Tensor::from_vec(data, &out_shape);
    }

    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let total = crate::numel(&out_shape);
    let mut data = crate::pool::alloc_uninit(total);
    let mut index = vec![0usize; out_shape.len()];
    let (pa, pb) = (a.as_slice(), b.as_slice());
    let mut off_a = 0usize;
    let mut off_b = 0usize;
    for slot in data.iter_mut() {
        *slot = f(pa[off_a], pb[off_b]);
        // Odometer increment with incremental offset updates.
        for ax in (0..out_shape.len()).rev() {
            index[ax] += 1;
            off_a += sa[ax];
            off_b += sb[ax];
            if index[ax] < out_shape[ax] {
                break;
            }
            off_a -= sa[ax] * out_shape[ax];
            off_b -= sb[ax] * out_shape[ax];
            index[ax] = 0;
        }
    }
    Tensor::from_vec(data, &out_shape)
}

/// In-place variant of [`zip_broadcast`]: `dst[i] = f(dst[i], src[...])`,
/// broadcasting `src` against `dst`. Requires the broadcast shape to
/// equal `dst`'s shape (i.e. `src` must not enlarge `dst`). Mutates
/// `dst`'s buffer directly when it is uniquely held; a shared buffer is
/// copied first (copy-on-write), so results never differ from the
/// out-of-place op — only the allocation behaviour does.
///
/// # Panics
/// If broadcasting `src` against `dst` would change `dst`'s shape.
pub fn zip_broadcast_inplace(dst: &mut Tensor, src: &Tensor, f: impl Fn(f32, f32) -> f32) {
    let _t = geotorch_telemetry::scope!("tensor.elementwise");
    let out_shape = broadcast_shape(dst.shape(), src.shape());
    assert_eq!(
        out_shape,
        dst.shape(),
        "in-place op: operand of shape {:?} would broadcast {:?} to {:?}",
        src.shape(),
        dst.shape(),
        out_shape
    );
    // Fast path: identical shapes.
    if dst.shape() == src.shape() {
        // If dst and src share storage, as_mut_slice copy-on-writes dst,
        // so src still reads the pre-op values — same as out-of-place.
        let ps = src.as_slice();
        let pd = dst.as_mut_slice();
        for (d, &y) in pd.iter_mut().zip(ps) {
            *d = f(*d, y);
        }
        return;
    }
    // Fast path: scalar src.
    if src.len() == 1 {
        let y = src.as_slice()[0];
        for d in dst.as_mut_slice() {
            *d = f(*d, y);
        }
        return;
    }
    // Fast path: src is one row broadcast down dst.
    let n = out_shape.last().copied().unwrap_or(1);
    if is_row(src, n) {
        let row = src.as_slice();
        for d_row in dst.as_mut_slice().chunks_exact_mut(n) {
            for (d, &y) in d_row.iter_mut().zip(row) {
                *d = f(*d, y);
            }
        }
        return;
    }
    let ss = broadcast_strides(src.shape(), &out_shape);
    let ps = src.as_slice();
    let mut index = vec![0usize; out_shape.len()];
    let mut off_s = 0usize;
    let pd = dst.as_mut_slice();
    for d in pd.iter_mut() {
        *d = f(*d, ps[off_s]);
        for ax in (0..out_shape.len()).rev() {
            index[ax] += 1;
            off_s += ss[ax];
            if index[ax] < out_shape[ax] {
                break;
            }
            off_s -= ss[ax] * out_shape[ax];
            index[ax] = 0;
        }
    }
}

/// Reduce `grad` (shaped like the broadcast output) back to `shape` by
/// summing over the axes that were broadcast. This is the adjoint of
/// broadcasting and is used by autograd.
pub fn reduce_to_shape(grad: &Tensor, shape: &[usize]) -> Tensor {
    if grad.shape() == shape {
        return grad.clone();
    }
    let out_rank = grad.ndim();
    let offset = out_rank - shape.len();
    let mut result = grad.clone();
    // Sum away leading axes not present in the target shape.
    for _ in 0..offset {
        result = result.sum_axis(0);
    }
    // Sum (keeping dims) over axes where the target had extent 1.
    for (ax, &dim) in shape.iter().enumerate() {
        if dim == 1 && result.shape()[ax] != 1 {
            result = result.sum_axis_keepdim(ax);
        }
    }
    assert_eq!(
        result.shape(),
        shape,
        "reduce_to_shape produced {:?}, wanted {:?}",
        result.shape(),
        shape
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_shapes() {
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shape(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shape(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shape(&[], &[4, 5]), vec![4, 5]);
        assert_eq!(broadcast_shape(&[4, 1, 2], &[3, 1]), vec![4, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_shapes_panic() {
        broadcast_shape(&[2, 3], &[4, 3]);
    }

    #[test]
    fn zip_equal_shapes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = zip_broadcast(&a, &b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn zip_scalar() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let c = zip_broadcast(&a, &Tensor::scalar(5.0), |x, y| x * y);
        assert_eq!(c.as_slice(), &[5.0, 10.0]);
        let d = zip_broadcast(&Tensor::scalar(1.0), &a, |x, y| x - y);
        assert_eq!(d.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn zip_row_and_column() {
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        let c = zip_broadcast(&col, &row, |x, y| x + y);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    fn zip_vector_against_matrix() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]);
        let c = zip_broadcast(&m, &v, |x, y| x * y);
        assert_eq!(c.as_slice(), &[1.0, 0.0, -3.0, 4.0, 0.0, -6.0]);
    }

    #[test]
    fn row_fast_path_matches_elementwise_reference() {
        let m = Tensor::arange(24).reshape(&[2, 3, 4]).mul_scalar(0.37);
        let row = Tensor::from_vec(vec![1.5, -2.0, 0.25, 3.1], &[4]);
        let at = |i: usize| (m.as_slice()[i], row.as_slice()[i % 4]);
        let sub: Vec<f32> = (0..24).map(|i| at(i).0 - at(i).1).collect();
        let rsub: Vec<f32> = (0..24).map(|i| at(i).1 - at(i).0).collect();
        for shape in [&[4][..], &[1, 4], &[1, 1, 4]] {
            let row = row.reshape(shape);
            assert_eq!(zip_broadcast(&m, &row, |x, y| x - y).as_slice(), &sub[..]);
            assert_eq!(zip_broadcast(&row, &m, |x, y| x - y).as_slice(), &rsub[..], "odometer");
            let mut d = m.clone();
            zip_broadcast_inplace(&mut d, &row, |x, y| x - y);
            assert_eq!(d.as_slice(), &sub[..]);
        }
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = Tensor::ones(&[2, 3]);
        assert_eq!(reduce_to_shape(&g, &[2, 3]), g);
        let r = reduce_to_shape(&g, &[3]);
        assert_eq!(r.as_slice(), &[2.0, 2.0, 2.0]);
        let c = reduce_to_shape(&g, &[2, 1]);
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.as_slice(), &[3.0, 3.0]);
        let s = reduce_to_shape(&g, &[]);
        assert_eq!(s.item(), 6.0);
    }
}
