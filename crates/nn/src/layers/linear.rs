//! Fully connected layer.

use rand::Rng;

use geotorch_tensor::Tensor;

use crate::init::kaiming_uniform;
use crate::{Layer, Module, Var};

/// Affine map `y = x Wᵀ + b` with `x [B, in]`, `W [out, in]`, `b [out]`.
pub struct Linear {
    weight: Var,
    bias: Option<Var>,
}

impl Linear {
    /// New layer with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Linear {
            weight: Var::parameter(kaiming_uniform(
                &[out_features, in_features],
                in_features,
                rng,
            )),
            bias: Some(Var::parameter(Tensor::zeros(&[out_features]))),
        }
    }

    /// New layer without a bias term.
    pub fn new_no_bias<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Linear {
            weight: Var::parameter(kaiming_uniform(
                &[out_features, in_features],
                in_features,
                rng,
            )),
            bias: None,
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Var> {
        let mut params = vec![self.weight.clone()];
        params.extend(self.bias.clone());
        params
    }
}

impl Layer for Linear {
    fn forward(&self, input: &Var) -> Var {
        input.linear(&self.weight, self.bias.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_close;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 4]));
        assert_eq!(l.forward(&x).shape(), vec![2, 3]);
        assert_eq!(l.in_features(), 4);
        assert_eq!(l.out_features(), 3);
        assert_eq!(l.parameters().len(), 2);
    }

    #[test]
    fn known_linear_map() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(2, 1, &mut rng);
        l.parameters()[0].assign(Tensor::from_vec(vec![2.0, 3.0], &[1, 2]));
        l.parameters()[1].assign(Tensor::from_vec(vec![1.0], &[1]));
        let x = Var::constant(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        assert_eq!(l.forward(&x).value().item(), 6.0);
    }

    #[test]
    fn gradients_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let l = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let params = l.parameters();
        assert_gradients_close(
            &params,
            |_| l.forward(&Var::constant(x.clone())).square().mean_all(),
            1e-3,
            5e-3,
        );
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let l = Linear::new_no_bias(3, 2, &mut rng);
        assert_eq!(l.parameters().len(), 1);
    }
}
