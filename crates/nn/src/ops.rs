//! Differentiable operations on [`Var`].
//!
//! Each op computes its value eagerly with `geotorch-tensor` kernels and
//! records a backward closure that maps the output gradient to gradients
//! for each parent. Broadcast ops use `reduce_to_shape` (the adjoint of
//! broadcasting) so gradients always match parameter shapes.

use geotorch_tensor::ops::broadcast::{reduce_to_shape, zip_broadcast};
use geotorch_tensor::ops::conv::{
    conv2d, conv2d_input_grad, conv2d_weight_grad, conv_transpose2d, upsample_nearest2d,
    upsample_nearest2d_backward,
};
use geotorch_tensor::ops::pool::{
    avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward, maxpool2d_values,
};
use geotorch_tensor::Tensor;

use crate::Var;

impl Var {
    // ------------------------------------------------------ binary (broadcast)

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().add(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![reduce_to_shape(g, &sa), reduce_to_shape(g, &sb)]),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().sub(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![reduce_to_shape(g, &sa), reduce_to_shape(&g.neg(), &sb)]
            }),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        let value = va.mul(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![
                    reduce_to_shape(&zip_broadcast(g, &vb, |x, y| x * y), &sa),
                    reduce_to_shape(&zip_broadcast(g, &va, |x, y| x * y), &sb),
                ]
            }),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        let value = va.div(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let ga = zip_broadcast(g, &vb, |x, y| x / y);
                let gb_full = {
                    let num = zip_broadcast(g, &va, |x, y| x * y);
                    let den = vb.square();
                    zip_broadcast(&num, &den, |x, y| -x / y)
                };
                vec![reduce_to_shape(&ga, &sa), reduce_to_shape(&gb_full, &sb)]
            }),
        )
    }

    // --------------------------------------------------------------- unary

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        Var::from_op(
            self.value().add_scalar(s),
            vec![self.clone()],
            Box::new(|g| vec![g.clone()]),
        )
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        Var::from_op(
            self.value().mul_scalar(s),
            vec![self.clone()],
            Box::new(move |g| vec![g.mul_scalar(s)]),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.mul_scalar(-1.0)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let v = self.value();
        Var::from_op(
            v.square(),
            vec![self.clone()],
            Box::new(move |g| vec![zip_broadcast(g, &v, |x, y| 2.0 * x * y)]),
        )
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt();
        let out_c = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![zip_broadcast(g, &out_c, |x, y| 0.5 * x / y)]),
        )
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        let out_c = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![zip_broadcast(g, &out_c, |x, y| x * y)]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let v = self.value();
        Var::from_op(
            v.relu(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![zip_broadcast(g, &v, |x, y| if y > 0.0 { x } else { 0.0 })]
            }),
        )
    }

    /// Leaky rectified linear unit: `x` for positive inputs, `alpha * x`
    /// otherwise. Keeps gradients alive where a plain ReLU would die.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let v = self.value();
        Var::from_op(
            v.map(move |x| if x > 0.0 { x } else { alpha * x }),
            vec![self.clone()],
            Box::new(move |g| {
                vec![zip_broadcast(g, &v, move |x, y| {
                    if y > 0.0 {
                        x
                    } else {
                        alpha * x
                    }
                })]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().sigmoid();
        let out_c = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![zip_broadcast(g, &out_c, |x, y| x * y * (1.0 - y))]),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = self.value().tanh();
        let out_c = out.clone();
        Var::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![zip_broadcast(g, &out_c, |x, y| x * (1.0 - y * y))]),
        )
    }

    // ---------------------------------------------------------- reductions

    /// Sum of all elements, as a scalar Var.
    pub fn sum_all(&self) -> Var {
        let shape = self.shape();
        Var::from_op(
            Tensor::scalar(self.value().sum()),
            vec![self.clone()],
            Box::new(move |g| vec![Tensor::full(&shape, g.item())]),
        )
    }

    /// Mean of all elements, as a scalar Var.
    pub fn mean_all(&self) -> Var {
        let n = self.value().len() as f32;
        self.sum_all().mul_scalar(1.0 / n)
    }

    /// Sum along `axis`, keeping it with extent 1 (grad broadcasts back).
    pub fn sum_axis_keepdim(&self, axis: usize) -> Var {
        let shape = self.shape();
        let value = self.value().sum_axis_keepdim(axis);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                vec![zip_broadcast(g, &Tensor::zeros(&shape), |x, _| x)]
            }),
        )
    }

    /// Mean along `axis`, keeping it with extent 1.
    pub fn mean_axis_keepdim(&self, axis: usize) -> Var {
        let n = self.shape()[axis] as f32;
        self.sum_axis_keepdim(axis).mul_scalar(1.0 / n)
    }

    // ---------------------------------------------------------- shape ops

    /// Reshape (element count preserved).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let src_shape = self.shape();
        let value = self.value().reshape(shape);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![g.reshape(&src_shape)]),
        )
    }

    /// Flatten all axes except the leading (batch) axis: `[B, ...] → [B, N]`.
    pub fn flatten_batch(&self) -> Var {
        let shape = self.shape();
        assert!(!shape.is_empty(), "flatten_batch needs at least one axis");
        let b = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.reshape(&[b, rest])
    }

    /// Permute axes; gradient applies the inverse permutation.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let perm_owned = perm.to_vec();
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let value = self.value().permute(&perm_owned);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![g.permute(&inverse)]),
        )
    }

    /// Slice `[start, end)` along `axis`; gradient scatters back into place.
    pub fn narrow(&self, axis: usize, start: usize, end: usize) -> Var {
        let src_shape = self.shape();
        let value = self.value().narrow(axis, start, end);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![embed_narrow(g, &src_shape, axis, start)]),
        )
    }

    /// Concatenate along `axis`; gradients split back to each input.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "Var::concat of zero inputs");
        let values: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let value = Tensor::concat(&refs, axis);
        let extents: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let parents: Vec<Var> = vars.iter().map(|v| (*v).clone()).collect();
        Var::from_op(
            value,
            parents,
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(extents.len());
                let mut offset = 0;
                for &e in &extents {
                    grads.push(g.narrow(axis, offset, offset + e));
                    offset += e;
                }
                grads
            }),
        )
    }

    // ------------------------------------------------------------- linalg

    /// 2-D matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        let (va, vb) = (self.value(), other.value());
        let value = va.matmul(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![g.matmul_nt(&vb), va.matmul_tn(g)]),
        )
    }

    /// Affine map `self · weightᵀ (+ bias)` for `self [B, in]`,
    /// `weight [out, in]`, `bias [out]` as **one** tape node: the product
    /// reads `weight` in place (no transposed copy) and the bias is added
    /// row-wise after the sum — the arithmetic of
    /// `self.matmul(&weight.permute(&[1, 0])).add(bias)`, bit for bit,
    /// in one node instead of three.
    ///
    /// Backward: `dx = g·W`, `dW = gᵀ·x`, `db` = the column sums of `g`
    /// in `sum_axis(0)`'s order. A constant leaf input (a batch of
    /// features) gets no gradient and is not on the tape at all.
    pub fn linear(&self, weight: &Var, bias: Option<&Var>) -> Var {
        let (x, w) = (self.value(), weight.value());
        let mut value = x.matmul_nt(&w);
        if let Some(b) = bias {
            assert_eq!(b.shape(), [w.shape()[0]], "linear bias must be [out]");
            value.add_(&b.value());
        }
        let (input_grad, parents) = layer_parents(self, weight, bias);
        let has_bias = bias.is_some();
        Var::from_op(
            value,
            parents,
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(3);
                if input_grad {
                    grads.push(g.matmul(&w));
                }
                grads.push(g.matmul_tn(&x));
                if has_bias {
                    grads.push(g.sum_axis(0));
                }
                grads
            }),
        )
    }

    // ----------------------------------------------------------- conv/pool

    /// 2-D convolution (`input = self [B,C,H,W]`, `weight [O,C,kh,kw]`).
    /// A constant input (an input batch) gets no gradient and is not on
    /// the tape, as in [`Var::linear`].
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, stride: usize, pad: usize) -> Var {
        let x = self.value();
        let w = weight.value();
        let value = conv2d(&x, &w, bias.map(|b| b.value()).as_ref(), stride, pad);
        let (input_grad, parents) = layer_parents(self, weight, bias);
        let has_bias = bias.is_some();
        Var::from_op(
            value,
            parents,
            Box::new(move |g| {
                let _t = geotorch_telemetry::scope!("nn.conv2d_bwd");
                let kernel = (w.shape()[2], w.shape()[3]);
                let mut grads = Vec::with_capacity(3);
                if input_grad {
                    grads.push(conv2d_input_grad(g, &w, (x.shape()[2], x.shape()[3]), stride, pad));
                }
                grads.push(conv2d_weight_grad(&x, g, kernel, stride, pad));
                if has_bias {
                    grads.push(sum_per_channel(g));
                }
                grads
            }),
        )
    }

    /// Transposed 2-D convolution (`weight [C,O,kh,kw]`). A constant input
    /// is not on the tape, as in [`Var::conv2d`].
    pub fn conv_transpose2d(
        &self,
        weight: &Var,
        bias: Option<&Var>,
        stride: usize,
        pad: usize,
    ) -> Var {
        let x = self.value();
        let w = weight.value();
        let value = conv_transpose2d(&x, &w, bias.map(|b| b.value()).as_ref(), stride, pad);
        let (input_grad, parents) = layer_parents(self, weight, bias);
        let has_bias = bias.is_some();
        Var::from_op(
            value,
            parents,
            Box::new(move |g| {
                let _t = geotorch_telemetry::scope!("nn.conv_transpose2d_bwd");
                // The forward is the adjoint of `conv2d(·, w)`, so its input
                // gradient is that conv of `g`, and its weight gradient is
                // that conv's with `g` as the input and `x` as the gradient.
                let kernel = (w.shape()[2], w.shape()[3]);
                let mut grads = Vec::with_capacity(3);
                if input_grad {
                    grads.push(conv2d(g, &w, None, stride, pad));
                }
                grads.push(conv2d_weight_grad(g, &x, kernel, stride, pad));
                if has_bias {
                    grads.push(sum_per_channel(g));
                }
                grads
            }),
        )
    }

    /// 2-D max pooling; gradient routes through the argmax positions. When
    /// nothing records (under [`crate::no_grad`], or over a constant) only
    /// the values are computed: no argmax, no backward closure.
    pub fn maxpool2d(&self, kernel: usize, stride: usize) -> Var {
        if !Var::records(std::slice::from_ref(self)) {
            return Var::constant(maxpool2d_values(&self.value(), kernel, stride));
        }
        let shape = self.shape();
        let (value, argmax) = maxpool2d(&self.value(), kernel, stride);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![maxpool2d_backward(g, &argmax, &shape)]),
        )
    }

    /// 2-D average pooling.
    pub fn avgpool2d(&self, kernel: usize, stride: usize) -> Var {
        let shape = self.shape();
        let value = avgpool2d(&self.value(), kernel, stride);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![avgpool2d_backward(g, kernel, stride, &shape)]),
        )
    }

    /// Nearest-neighbour upsampling by an integer factor.
    pub fn upsample_nearest2d(&self, factor: usize) -> Var {
        let value = upsample_nearest2d(&self.value(), factor);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| vec![upsample_nearest2d_backward(g, factor)]),
        )
    }
}

/// A layer op's parents — input, weight, optional bias — leaving a constant
/// input off (its gradient would be discarded), and whether the input is on.
fn layer_parents(input: &Var, weight: &Var, bias: Option<&Var>) -> (bool, Vec<Var>) {
    let input_grad = !input.is_constant();
    let mut parents: Vec<Var> = input_grad.then(|| input.clone()).into_iter().collect();
    parents.push(weight.clone());
    parents.extend(bias.cloned());
    (input_grad, parents)
}

/// Bias gradient of a conv: `g [B,O,H,W]` summed over batch and space.
fn sum_per_channel(g: &Tensor) -> Tensor {
    let (b, o) = (g.shape()[0], g.shape()[1]);
    g.reshape(&[b, o, g.shape()[2] * g.shape()[3]]).sum_axis(2).sum_axis(0)
}

/// Place `grad` (the gradient of a narrow) back into a zero tensor of the
/// parent's shape at `start` along `axis`.
fn embed_narrow(grad: &Tensor, parent_shape: &[usize], axis: usize, start: usize) -> Tensor {
    let outer: usize = parent_shape[..axis].iter().product();
    let inner: usize = parent_shape[axis + 1..].iter().product();
    let n = parent_shape[axis];
    let keep = grad.shape()[axis];
    let mut out = vec![0.0f32; geotorch_tensor::numel(parent_shape)];
    let src = grad.as_slice();
    for o in 0..outer {
        let dst_base = (o * n + start) * inner;
        let src_base = o * keep * inner;
        out[dst_base..dst_base + keep * inner]
            .copy_from_slice(&src[src_base..src_base + keep * inner]);
    }
    Tensor::from_vec(out, parent_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data, shape))
    }

    #[test]
    fn add_broadcast_bias_grad() {
        // y = x + b with b [3] broadcast over [2,3]: db = column sums of g.
        let x = param(vec![1.0; 6], &[2, 3]);
        let b = param(vec![0.0, 0.0, 0.0], &[3]);
        let y = x.add(&b).sum_all();
        y.backward();
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 6]);
    }

    #[test]
    fn div_gradients() {
        let a = param(vec![6.0], &[1]);
        let b = param(vec![2.0], &[1]);
        let y = a.div(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 0.5);
        assert_eq!(b.grad().unwrap().item(), -1.5);
    }

    #[test]
    fn matmul_gradients() {
        let a = param(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = param(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let y = a.matmul(&b).sum_all();
        y.backward();
        // dL/da = 1·bᵀ = ones×I = ones; dL/db = aᵀ·1.
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn leaky_relu_values_and_grad() {
        let x = param(vec![-2.0, 3.0], &[2]);
        let y = x.leaky_relu(0.1);
        assert_eq!(y.value().as_slice(), &[-0.2, 3.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.1, 1.0]);
    }

    #[test]
    fn relu_blocks_negative_grad() {
        let x = param(vec![-1.0, 2.0], &[2]);
        let y = x.relu().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn narrow_embeds_gradient() {
        let x = param(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let y = x.narrow(0, 1, 3).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let a = param(vec![1.0, 2.0], &[2]);
        let b = param(vec![3.0], &[1]);
        let y = Var::concat(&[&a, &b], 0).mul_scalar(2.0).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn permute_grad_round_trips() {
        let x = param((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let y = x.permute(&[1, 0]).mul_scalar(3.0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0; 6]);
    }

    #[test]
    fn mean_axis_keepdim_grad() {
        let x = param(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.mean_axis_keepdim(1).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn sum_axis_keepdim_shapes() {
        let x = param(vec![1.0; 12], &[2, 2, 3]);
        let s = x.sum_axis_keepdim(1);
        assert_eq!(s.shape(), vec![2, 1, 3]);
        s.sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 12]);
    }

    #[test]
    fn maxpool_grad_routes_to_max() {
        let x = param(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let y = x.maxpool2d(2, 2).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    /// When nothing records, max pooling takes values only: the result is
    /// a constant leaf with `maxpool2d`'s values, under `no_grad` and over a
    /// constant alike; a recorded pool stays a tape node.
    #[test]
    fn unrecorded_maxpool_is_a_constant_leaf() {
        let data = vec![1.0, 5.0, f32::NAN, 3.0, -2.0, 0.5, 7.0, f32::NEG_INFINITY, 4.0];
        let x = param(data.clone(), &[1, 1, 3, 3]);
        let recorded = x.maxpool2d(2, 1);
        assert!(!recorded.is_constant());
        let silent = crate::no_grad(|| x.maxpool2d(2, 1));
        assert!(silent.is_constant());
        let over_constant = Var::constant(Tensor::from_vec(data, &[1, 1, 3, 3])).maxpool2d(2, 1);
        assert!(over_constant.is_constant());
        let bits = |v: &Var| v.value().as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&silent), bits(&recorded));
        assert_eq!(bits(&over_constant), bits(&recorded));
    }

    #[test]
    fn flatten_batch_shape() {
        let x = param(vec![0.0; 24], &[2, 3, 4]);
        assert_eq!(x.flatten_batch().shape(), vec![2, 12]);
    }
}
