//! Shape manipulation: reshape, transpose, permute, slicing, concat, pad.

use crate::{numel, strides_for, Tensor};

impl Tensor {
    /// Reinterpret the buffer with a new shape (same element count).
    /// Tensors are always contiguous, so this is a zero-copy metadata
    /// move: the result shares storage with `self` (copy-on-write keeps
    /// later mutations of either side independent).
    ///
    /// # Panics
    /// If the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            numel(shape),
            "cannot reshape {:?} ({} elems) into {:?} ({} elems)",
            self.shape(),
            self.len(),
            shape,
            numel(shape)
        );
        Tensor::from_shared(self.storage(), shape)
    }

    /// Flatten into a 1-D tensor.
    pub fn flatten(&self) -> Tensor {
        self.reshape(&[self.len()])
    }

    /// Insert a new axis of extent 1 at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        assert!(axis <= self.ndim(), "unsqueeze axis out of range");
        let mut shape = self.shape().to_vec();
        shape.insert(axis, 1);
        self.reshape(&shape)
    }

    /// Remove an axis of extent 1 at `axis`.
    ///
    /// # Panics
    /// If the axis does not have extent 1.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        assert_eq!(
            self.shape()[axis],
            1,
            "squeeze axis {} has extent {} (must be 1)",
            axis,
            self.shape()[axis]
        );
        let mut shape = self.shape().to_vec();
        shape.remove(axis);
        self.reshape(&shape)
    }

    /// Transpose a 2-D tensor.
    ///
    /// # Panics
    /// If the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires 2-D, got {:?}", self.shape());
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = crate::pool::alloc_uninit(r * c);
        transpose_into(self.as_slice(), &mut out, r, c);
        Tensor::from_vec(out, &[c, r])
    }

    /// Permute axes: `perm[i]` names the source axis placed at position `i`.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let rank = self.ndim();
        assert_eq!(perm.len(), rank, "permute needs {} axes, got {:?}", rank, perm);
        let mut seen = vec![false; rank];
        for &p in perm {
            assert!(p < rank && !seen[p], "permute {:?} is not a permutation", perm);
            seen[p] = true;
        }
        if perm == [1, 0] {
            return self.transpose();
        }
        let src_shape = self.shape();
        let src_strides = strides_for(src_shape);
        let out_shape: Vec<usize> = perm.iter().map(|&p| src_shape[p]).collect();
        let total = self.len();
        let mut out = crate::pool::alloc_uninit(total);
        let src = self.as_slice();
        let mut index = vec![0usize; rank];
        let step: Vec<usize> = perm.iter().map(|&p| src_strides[p]).collect();
        let mut offset = 0usize;
        for slot in out.iter_mut() {
            *slot = src[offset];
            for ax in (0..rank).rev() {
                index[ax] += 1;
                offset += step[ax];
                if index[ax] < out_shape[ax] {
                    break;
                }
                offset -= step[ax] * out_shape[ax];
                index[ax] = 0;
            }
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Slice `[start, end)` along `axis`.
    ///
    /// # Panics
    /// If the range is empty-invalid or out of bounds.
    pub fn narrow(&self, axis: usize, start: usize, end: usize) -> Tensor {
        let shape = self.shape();
        assert!(axis < shape.len(), "narrow axis {} out of range", axis);
        assert!(
            start <= end && end <= shape[axis],
            "narrow range {}..{} invalid for axis of extent {}",
            start,
            end,
            shape[axis]
        );
        // Keeping the full extent is a no-op: share storage.
        if start == 0 && end == shape[axis] {
            return self.clone();
        }
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let n = shape[axis];
        let keep = end - start;
        let src = self.as_slice();
        let mut out = crate::pool::alloc_uninit(outer * keep * inner);
        for o in 0..outer {
            let base = (o * n + start) * inner;
            out[o * keep * inner..(o + 1) * keep * inner]
                .copy_from_slice(&src[base..base + keep * inner]);
        }
        let mut out_shape = shape.to_vec();
        out_shape[axis] = keep;
        Tensor::from_vec(out, &out_shape)
    }

    /// Select a single index along `axis`, removing the axis.
    pub fn index_axis(&self, axis: usize, index: usize) -> Tensor {
        self.narrow(axis, index, index + 1).squeeze(axis)
    }

    /// Concatenate tensors along `axis`. All other axes must match.
    ///
    /// # Panics
    /// If `tensors` is empty or shapes are incompatible.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = tensors[0].shape();
        assert!(axis < first.len(), "concat axis {} out of range", axis);
        for t in tensors {
            assert_eq!(t.ndim(), first.len(), "concat rank mismatch");
            for (ax, (&a, &b)) in first.iter().zip(t.shape()).enumerate() {
                assert!(
                    ax == axis || a == b,
                    "concat shape mismatch on axis {}: {:?} vs {:?}",
                    ax,
                    first,
                    t.shape()
                );
            }
        }
        // A one-tensor concat is a no-op: share storage.
        if tensors.len() == 1 {
            return tensors[0].clone();
        }
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let total_axis: usize = tensors.iter().map(|t| t.shape()[axis]).sum();
        let mut out = crate::pool::alloc_uninit(outer * total_axis * inner);
        let mut cursor = 0usize;
        for o in 0..outer {
            for t in tensors {
                let n = t.shape()[axis];
                let src = t.as_slice();
                let base = o * n * inner;
                out[cursor..cursor + n * inner].copy_from_slice(&src[base..base + n * inner]);
                cursor += n * inner;
            }
        }
        let mut out_shape = first.to_vec();
        out_shape[axis] = total_axis;
        Tensor::from_vec(out, &out_shape)
    }

    /// Stack tensors along a new leading axis.
    pub fn stack(tensors: &[&Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "stack of zero tensors");
        let shape = tensors[0].shape().to_vec();
        // Stacking one tensor is an unsqueeze: share storage.
        if tensors.len() == 1 {
            return tensors[0].unsqueeze(0);
        }
        let row = tensors[0].len();
        let mut out = crate::pool::alloc_uninit(tensors.len() * row);
        for (i, t) in tensors.iter().enumerate() {
            assert_eq!(t.shape(), &shape[..], "stack shape mismatch");
            out[i * row..(i + 1) * row].copy_from_slice(t.as_slice());
        }
        let mut out_shape = vec![tensors.len()];
        out_shape.extend_from_slice(&shape);
        Tensor::from_vec(out, &out_shape)
    }

    /// Zero-pad the last two axes by `pad` on every side (NCHW images).
    ///
    /// # Panics
    /// If the tensor has fewer than 2 axes.
    pub fn pad2d(&self, pad: usize) -> Tensor {
        if pad == 0 {
            return self.clone();
        }
        let rank = self.ndim();
        assert!(rank >= 2, "pad2d requires at least 2 axes");
        let (h, w) = (self.shape()[rank - 2], self.shape()[rank - 1]);
        let outer: usize = self.shape()[..rank - 2].iter().product();
        let (oh, ow) = (h + 2 * pad, w + 2 * pad);
        let mut out = crate::pool::alloc_zeroed(outer * oh * ow);
        let src = self.as_slice();
        for o in 0..outer {
            for i in 0..h {
                let src_base = (o * h + i) * w;
                let dst_base = (o * oh + i + pad) * ow + pad;
                out[dst_base..dst_base + w].copy_from_slice(&src[src_base..src_base + w]);
            }
        }
        let mut out_shape = self.shape().to_vec();
        out_shape[rank - 2] = oh;
        out_shape[rank - 1] = ow;
        Tensor::from_vec(out, &out_shape)
    }

    /// Remove `pad` elements from every side of the last two axes
    /// (the inverse of [`Tensor::pad2d`]).
    pub fn unpad2d(&self, pad: usize) -> Tensor {
        if pad == 0 {
            return self.clone();
        }
        let rank = self.ndim();
        let (h, w) = (self.shape()[rank - 2], self.shape()[rank - 1]);
        assert!(h > 2 * pad && w > 2 * pad, "unpad2d removes entire extent");
        self.narrow(rank - 2, pad, h - pad).narrow(rank - 1, pad, w - pad)
    }
}

/// `dst[j·rows + i] = src[i·cols + j]`: the transpose of a row-major
/// `rows × cols` matrix, 16 source rows at a time. Measured at
/// `[512, 64]`: ~14 µs, where the element-order loop took ~115 µs and
/// 8/16/32-wide square tiles 15–25 µs.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const N: usize = 16;
    for i0 in (0..rows).step_by(N) {
        interleave::<N>(&src[i0 * cols..], cols, N.min(rows - i0), cols, &mut dst[i0..], rows);
    }
}

/// `dst[j·ldd + r] = src[r·lds + j]` for `r < rows ≤ N`, `j < cols`:
/// `rows` strided source rows laid side by side. A full block streams
/// its `N` rows front to back in step and writes each `N`-lane
/// destination row as one contiguous copy. [`transpose_into`] and the
/// GEMM's packs (`ops::matmul`) are built on it.
pub(crate) fn interleave<const N: usize>(
    src: &[f32],
    lds: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    if rows == N {
        let src: [&[f32]; N] = std::array::from_fn(|r| &src[r * lds..][..cols]);
        for j in 0..cols {
            let lanes: [f32; N] = std::array::from_fn(|r| src[r][j]);
            dst[j * ldd..][..N].copy_from_slice(&lanes);
        }
    } else {
        for r in 0..rows {
            for (j, &v) in src[r * lds..][..cols].iter().enumerate() {
                dst[j * ldd + r] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_and_flatten() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.flatten().shape(), &[6]);
        assert_eq!(t.unsqueeze(0).shape(), &[1, 2, 3]);
        assert_eq!(t.unsqueeze(0).squeeze(0).shape(), &[2, 3]);
    }

    #[test]
    fn reshape_family_shares_storage() {
        let t = Tensor::arange(6);
        // Metadata moves: no copy, so the original is no longer unique.
        let r = t.reshape(&[2, 3]);
        assert!(!t.storage_unique());
        let views = [r.flatten(), r.unsqueeze(1), r.unsqueeze(1).squeeze(1)];
        for v in &views {
            assert_eq!(v.as_slice(), t.as_slice());
        }
        // Copy-on-write keeps views independent under mutation.
        let mut m = t.reshape(&[3, 2]);
        m.set(&[0, 0], 99.0);
        assert_eq!(t.at(&[0]), 0.0);
        assert_eq!(m.at(&[0, 0]), 99.0);
    }

    #[test]
    fn narrow_full_range_and_single_concat_share_storage() {
        let t = Tensor::arange(8).reshape(&[2, 4]);
        let full = t.narrow(1, 0, 4);
        assert_eq!(full, t);
        assert!(!t.storage_unique(), "full-range narrow is a clone");
        let one = Tensor::concat(&[&t], 0);
        assert_eq!(one, t);
        let stacked = Tensor::stack(&[&t]);
        assert_eq!(stacked.shape(), &[1, 2, 4]);
        assert_eq!(stacked.as_slice(), t.as_slice());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(tt.transpose(), t);
        // Ragged 16-row blocks and narrow or wide rows.
        for (r, c) in [(1, 1), (17, 33), (40, 16), (3, 100)] {
            let t = Tensor::arange(r * c).reshape(&[r, c]);
            let tt = t.transpose();
            assert_eq!(tt.shape(), &[c, r]);
            for (i, j) in (0..r).flat_map(|i| (0..c).map(move |j| (i, j))) {
                assert_eq!(tt.at(&[j, i]), t.at(&[i, j]));
            }
        }
    }

    #[test]
    fn permute_matches_transpose() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p.at(&[k, i, j]), t.at(&[i, j, k]));
                }
            }
        }
        let m = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(m.permute(&[1, 0]), m.transpose());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros(&[2, 3]).permute(&[0, 0]);
    }

    #[test]
    fn narrow_and_index_axis() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let n = t.narrow(1, 1, 3);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        let idx = t.index_axis(0, 1);
        assert_eq!(idx.shape(), &[3, 4]);
        assert_eq!(idx.at(&[0, 0]), 12.0);
    }

    #[test]
    fn concat_middle_axis() {
        let a = Tensor::arange(4).reshape(&[2, 1, 2]);
        let b = Tensor::arange(8).reshape(&[2, 2, 2]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3, 2]);
        assert_eq!(c.at(&[0, 0, 0]), a.at(&[0, 0, 0]));
        assert_eq!(c.at(&[0, 1, 0]), b.at(&[0, 0, 0]));
        assert_eq!(c.at(&[1, 2, 1]), b.at(&[1, 1, 1]));
    }

    #[test]
    fn concat_then_narrow_round_trips() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::arange(4).reshape(&[2, 2]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.narrow(1, 0, 3), a);
        assert_eq!(c.narrow(1, 3, 5), b);
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.at(&[0, 0, 0]), 1.0);
        assert_eq!(s.at(&[1, 0, 0]), 0.0);
    }

    #[test]
    fn pad_unpad_round_trip() {
        let t = Tensor::arange(12).reshape(&[1, 3, 4]);
        let p = t.pad2d(2);
        assert_eq!(p.shape(), &[1, 7, 8]);
        assert_eq!(p.at(&[0, 0, 0]), 0.0);
        assert_eq!(p.at(&[0, 2, 2]), t.at(&[0, 0, 0]));
        assert_eq!(p.unpad2d(2), t);
    }
}
