//! Gradient utilities.

use geotorch_tensor::Tensor;

use crate::Var;

/// Clip the global L2 norm of the gradients on `params` to `max_norm`.
/// Returns the pre-clip norm. Parameters without gradients are skipped.
///
/// Standard recurrent-network stabiliser (ConvLSTM backprop through many
/// steps can spike).
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut total_sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            total_sq += g.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
    }
    let norm = (total_sq as f32).sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                let clipped = g.mul_scalar(scale);
                p.zero_grad();
                // Re-seed the gradient with the clipped value.
                set_grad(p, clipped);
            }
        }
    }
    norm
}

fn set_grad(param: &Var, grad: Tensor) {
    // Accumulate into the cleared slot.
    // zero_grad left grad = None; emulate accumulation via backward-free
    // assignment by reusing the public accumulate path: create a
    // temporary graph is overkill, so Var exposes this internally.
    param.seed_grad(grad);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_grad_norm_scales_large_gradients() {
        let p = Var::parameter(Tensor::from_vec(vec![1.0, 1.0], &[2]));
        p.mul_scalar(3.0).sum_all().backward();
        // grad = [3, 3], norm = sqrt(18) ≈ 4.24
        let norm = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((norm - 18.0f32.sqrt()).abs() < 1e-4);
        let clipped = p.grad().unwrap();
        let new_norm: f32 = clipped.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let p = Var::parameter(Tensor::scalar(1.0));
        p.mul_scalar(0.5).sum_all().backward();
        let before = p.grad().unwrap();
        clip_grad_norm(std::slice::from_ref(&p), 10.0);
        assert_eq!(p.grad().unwrap(), before);
    }

    #[test]
    fn clip_skips_gradient_less_params() {
        let p = Var::parameter(Tensor::scalar(1.0));
        assert_eq!(clip_grad_norm(&[p], 1.0), 0.0);
    }
}
