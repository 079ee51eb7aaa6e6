//! The dense `f32` tensor type.

use std::fmt;
use std::sync::Arc;

use rand::distributions::Distribution;
use rand::Rng;

use crate::pool::Buffer;
use crate::{numel, strides_for};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Cloning is O(1) (shared storage); mutation copies the buffer only when it
/// is shared (copy-on-write). Storage lives in a pooled [`Buffer`]: when the
/// last handle drops, the backing vector is recycled through
/// [`crate::pool`] instead of freed, so steady-state training and serving
/// loops run without heap traffic.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Buffer>,
    shape: Vec<usize>,
}

impl Tensor {
    // ---------------------------------------------------------------- create

    /// Build a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "Tensor::from_vec: buffer of {} elements does not fit shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data: Arc::new(Buffer::from_vec(data)),
            shape: shape.to_vec(),
        }
    }

    /// Build a tensor by copying a slice into a pooled buffer — the
    /// allocation-free path (after warmup) for staging external data,
    /// e.g. the converter's batch assembly.
    ///
    /// # Panics
    /// If `data.len()` does not match the product of `shape`.
    pub fn from_slice(data: &[f32], shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "Tensor::from_slice: buffer of {} elements does not fit shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data: Arc::new(Buffer::copied_from(data)),
            shape: shape.to_vec(),
        }
    }

    /// Wrap an already-shared buffer under a new shape — the zero-copy
    /// path behind reshape/squeeze of contiguous tensors.
    ///
    /// # Panics
    /// If the buffer length does not match the product of `shape`.
    pub(crate) fn from_shared(data: Arc<Buffer>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "Tensor::from_shared: buffer of {} elements does not fit shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The shared storage handle (for zero-copy reshapes).
    pub(crate) fn storage(&self) -> Arc<Buffer> {
        Arc::clone(&self.data)
    }

    /// Whether this tensor is the only handle to its storage — the
    /// condition under which in-place ops mutate without copying.
    pub fn storage_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: Arc::new(Buffer::filled(1, value)),
            shape: Vec::new(),
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: Arc::new(Buffer::filled(numel(shape), value)),
            shape: shape.to_vec(),
        }
    }

    /// Tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = crate::pool::alloc_uninit(n);
        for (i, slot) in data.iter_mut().enumerate() {
            *slot = i as f32;
        }
        Tensor::from_vec(data, &[n])
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut data = crate::pool::alloc_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// Tensor with elements drawn from `dist` using `rng`.
    pub fn rand_with<D: Distribution<f32>, R: Rng>(shape: &[usize], dist: &D, rng: &mut R) -> Self {
        let mut data = crate::pool::alloc_uninit(numel(shape));
        data.iter_mut().for_each(|v| *v = dist.sample(rng));
        Tensor::from_vec(data, shape)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let dist = rand::distributions::Uniform::new(lo, hi);
        Tensor::rand_with(shape, &dist, rng)
    }

    // ------------------------------------------------------------- accessors

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        numel(&self.shape)
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        strides_for(&self.shape)
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer, copying if the storage is shared.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume into the flat buffer, cloning only if shared. The
    /// returned vector leaves the pool's lifecycle.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(buffer) => buffer.into_vec(),
            Err(arc) => arc.to_vec(),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// If the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Set the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.flat_index(index);
        self.as_mut_slice()[flat] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// If the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "Tensor::item on tensor with shape {:?}",
            self.shape
        );
        self.data[0]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut flat = 0;
        for ((&i, &dim), stride) in index.iter().zip(&self.shape).zip(self.strides()) {
            assert!(i < dim, "index {:?} out of bounds for shape {:?}", index, self.shape);
            flat += i * stride;
        }
        flat
    }

    /// True when both tensors have identical shape and all elements are
    /// within `tol` of each other.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 16;
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.len() <= MAX_SHOWN {
            write!(f, "{:?}", self.as_slice())
        } else {
            write!(f, "[{:?}, ...]", &self.as_slice()[..MAX_SHOWN])
        }
    }
}

impl serde::Serialize for Tensor {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("shape".to_string(), self.shape.to_value()),
            ("data".to_string(), self.as_slice().to_value()),
        ])
    }
}

impl serde::Deserialize for Tensor {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::DeError::custom(format!("missing tensor field `{name}`")))
        };
        let shape = Vec::<usize>::from_value(field("shape")?)?;
        let data = Vec::<f32>::from_value(field("data")?)?;
        if data.len() != numel(&shape) {
            return Err(serde::DeError::custom(format!(
                "tensor data length {} does not match shape {:?}",
                data.len(),
                shape
            )));
        }
        Ok(Tensor::from_vec(data, &shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_rejects_out_of_bounds() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    fn set_and_item() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 1], 7.0);
        assert_eq!(t.at(&[1, 1]), 7.0);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn copy_on_write_preserves_clones() {
        let a = Tensor::zeros(&[3]);
        let mut b = a.clone();
        b.set(&[0], 9.0);
        assert_eq!(a.at(&[0]), 0.0);
        assert_eq!(b.at(&[0]), 9.0);
    }

    #[test]
    fn eye_and_arange() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn rand_uniform_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = Tensor::rand_uniform(&[10], 0.0, 1.0, &mut rand::rngs::StdRng::seed_from_u64(1));
        let b = Tensor::rand_uniform(&[10], 0.0, 1.0, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0005, 2.0], &[2]);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-5));
        assert!(!a.allclose(&Tensor::from_vec(vec![1.0, 2.0], &[2, 1]), 1.0));
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn serde_rejects_mismatched_shape() {
        let bad = r#"{"shape":[3],"data":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<Tensor>(bad).is_err());
    }
}
