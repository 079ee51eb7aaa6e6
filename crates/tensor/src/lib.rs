//! # geotorch-tensor
//!
//! Dense, contiguous `f32` tensors and the compute kernels that power the
//! GeoTorch-RS deep-learning stack.
//!
//! This crate stands in for the tensor core of PyTorch in the GeoTorchAI
//! reproduction: it provides an n-dimensional array type with NumPy-style
//! broadcasting, reductions, matrix multiplication, and the convolution /
//! pooling kernels needed by the neural-network layers in `geotorch-nn`.
//!
//! ## Design notes
//!
//! * Tensors are always **contiguous** in row-major order. Axis-reordering
//!   views (`transpose`, `permute`) materialise a new buffer; this keeps
//!   every kernel simple and cache-friendly at the cost of some copies.
//!   Pure re-labelings (`reshape`, `squeeze`, `unsqueeze`, `flatten`) are
//!   zero-copy metadata moves sharing the storage `Arc`.
//! * Storage is an `Arc`-shared, pooled [`pool::Buffer`] with
//!   copy-on-write: cloning a tensor is O(1), in-place ops mutate
//!   directly when the buffer is uniquely held and copy otherwise, and
//!   freed buffers are recycled through a size-class [`pool`] (the
//!   caching-allocator analogue) so hot loops stay off the heap.
//! * The execution backend is selected through [`Device`]: `Device::Cpu`
//!   runs kernels on the calling thread, `Device::parallel()` fans heavy
//!   kernels (matmul, conv, pooling, reductions, softmax, large elementwise
//!   ops and the backward passes) out across a persistent worker pool that
//!   is woken per dispatch instead of spawning threads per call — see
//!   [`device`] for the pool design. In the paper's experiments this models
//!   the GPU-vs-CPU axis.
//! * Shape errors are programming errors and **panic** with descriptive
//!   messages, mirroring the behaviour of `ndarray` and PyTorch's eager
//!   mode. Fallible, data-dependent APIs live in the higher-level crates.
//!
//! ## Example
//!
//! ```
//! use geotorch_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[3.0, 3.0, 7.0, 7.0]);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod device;
pub mod json;
pub mod ops;
pub mod pool;
mod tensor;

pub use device::{with_device, worker_pool_size, Device, PARALLEL_THRESHOLD};
pub use tensor::Tensor;

/// Row-major strides (in elements) for a shape.
///
/// The last axis always has stride 1; an empty shape yields no strides.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (s, &dim) in strides.iter_mut().zip(shape.iter()).rev() {
        *s = acc;
        acc *= dim;
    }
    strides
}

/// Total number of elements implied by a shape.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn numel_products() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[0, 3]), 0);
    }
}
