//! Recurrent cells: fully connected LSTM and convolutional LSTM.

use rand::Rng;

use geotorch_tensor::Tensor;

use crate::init::xavier_uniform;
use crate::layers::Conv2d;
use crate::{Layer, Module, Var};

/// A standard LSTM cell over flat feature vectors.
///
/// Gate layout along the `4H` axis is `[input, forget, cell, output]`.
pub struct LstmCell {
    w_ih: Var, // [4H, in]
    w_hh: Var, // [4H, H]
    bias: Var, // [4H]
    hidden_size: usize,
}

impl LstmCell {
    /// New cell with Xavier-initialised weights. The forget-gate bias is
    /// initialised to 1 (standard trick for gradient flow early in
    /// training).
    pub fn new<R: Rng>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden_size]);
        for i in hidden_size..2 * hidden_size {
            bias.as_mut_slice()[i] = 1.0;
        }
        LstmCell {
            w_ih: Var::parameter(xavier_uniform(
                &[4 * hidden_size, input_size],
                input_size,
                hidden_size,
                rng,
            )),
            w_hh: Var::parameter(xavier_uniform(
                &[4 * hidden_size, hidden_size],
                hidden_size,
                hidden_size,
                rng,
            )),
            bias: Var::parameter(bias),
            hidden_size,
        }
    }

    /// Zero initial state for a batch of `b` sequences.
    pub fn zero_state(&self, b: usize) -> (Var, Var) {
        (
            Var::constant(Tensor::zeros(&[b, self.hidden_size])),
            Var::constant(Tensor::zeros(&[b, self.hidden_size])),
        )
    }

    /// One timestep: `x [B, in]`, state `(h, c)` → new `(h, c)`.
    pub fn step(&self, x: &Var, state: (&Var, &Var)) -> (Var, Var) {
        let (h, c) = state;
        let gates = x
            .linear(&self.w_ih, None)
            .add(&h.linear(&self.w_hh, None))
            .add(&self.bias);
        let hs = self.hidden_size;
        let i = gates.narrow(1, 0, hs).sigmoid();
        let f = gates.narrow(1, hs, 2 * hs).sigmoid();
        let g = gates.narrow(1, 2 * hs, 3 * hs).tanh();
        let o = gates.narrow(1, 3 * hs, 4 * hs).sigmoid();
        let c_new = f.mul(c).add(&i.mul(&g));
        let h_new = o.mul(&c_new.tanh());
        (h_new, c_new)
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }
}

impl Module for LstmCell {
    fn parameters(&self) -> Vec<Var> {
        vec![self.w_ih.clone(), self.w_hh.clone(), self.bias.clone()]
    }
}

/// A convolutional LSTM cell (Shi et al., 2015) over `[B, C, H, W]` maps.
///
/// Both the input-to-state and state-to-state transitions are convolutions,
/// so the hidden state preserves the spatial grid — the key property the
/// paper's ConvLSTM model exploits for grid-based spatiotemporal data.
pub struct ConvLstmCell {
    conv_x: Conv2d, // in_channels → 4 * hidden_channels
    conv_h: Conv2d, // hidden_channels → 4 * hidden_channels (no bias)
    hidden_channels: usize,
}

impl ConvLstmCell {
    /// New cell; `kernel` must be odd so convolutions preserve extent.
    pub fn new<R: Rng>(
        in_channels: usize,
        hidden_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel % 2 == 1, "ConvLstmCell kernel must be odd");
        ConvLstmCell {
            conv_x: Conv2d::same(in_channels, 4 * hidden_channels, kernel, rng),
            conv_h: Conv2d::same(hidden_channels, 4 * hidden_channels, kernel, rng).without_bias(),
            hidden_channels,
        }
    }

    /// Zero initial state for batch `b` over an `h × w` grid.
    pub fn zero_state(&self, b: usize, h: usize, w: usize) -> (Var, Var) {
        (
            Var::constant(Tensor::zeros(&[b, self.hidden_channels, h, w])),
            Var::constant(Tensor::zeros(&[b, self.hidden_channels, h, w])),
        )
    }

    /// One timestep: `x [B, C, H, W]`, state `(h, c)` → new `(h, c)`.
    pub fn step(&self, x: &Var, state: (&Var, &Var)) -> (Var, Var) {
        let (h, c) = state;
        let gates = self.conv_x.forward(x).add(&self.conv_h.forward(h));
        let hc = self.hidden_channels;
        let i = gates.narrow(1, 0, hc).sigmoid();
        let f = gates.narrow(1, hc, 2 * hc).sigmoid();
        let g = gates.narrow(1, 2 * hc, 3 * hc).tanh();
        let o = gates.narrow(1, 3 * hc, 4 * hc).sigmoid();
        let c_new = f.mul(c).add(&i.mul(&g));
        let h_new = o.mul(&c_new.tanh());
        (h_new, c_new)
    }

    /// Hidden feature-map count.
    pub fn hidden_channels(&self) -> usize {
        self.hidden_channels
    }
}

impl Module for ConvLstmCell {
    fn parameters(&self) -> Vec<Var> {
        let mut params = self.conv_x.parameters();
        params.extend(self.conv_h.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_close;
    use rand::SeedableRng;

    #[test]
    fn lstm_step_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cell = LstmCell::new(5, 3, &mut rng);
        let (h0, c0) = cell.zero_state(2);
        let x = Var::constant(Tensor::ones(&[2, 5]));
        let (h1, c1) = cell.step(&x, (&h0, &c0));
        assert_eq!(h1.shape(), vec![2, 3]);
        assert_eq!(c1.shape(), vec![2, 3]);
        assert_eq!(cell.hidden_size(), 3);
        assert_eq!(cell.parameters().len(), 3);
    }

    #[test]
    fn lstm_state_evolves_over_sequence() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cell = LstmCell::new(2, 4, &mut rng);
        let (mut h, mut c) = cell.zero_state(1);
        let mut last = h.value();
        for t in 0..3 {
            let x = Var::constant(Tensor::full(&[1, 2], t as f32 + 1.0));
            let (h2, c2) = cell.step(&x, (&h, &c));
            h = h2;
            c = c2;
            assert_ne!(h.value(), last, "state should change with new input");
            last = h.value();
        }
    }

    #[test]
    fn lstm_gradients_flow_through_time() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cell = LstmCell::new(2, 2, &mut rng);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[1, 2], -1.0, 1.0, &mut rng))
            .collect();
        assert_gradients_close(
            &cell.parameters(),
            |_| {
                let (mut h, mut c) = cell.zero_state(1);
                for x in &xs {
                    let (h2, c2) = cell.step(&Var::constant(x.clone()), (&h, &c));
                    h = h2;
                    c = c2;
                }
                h.square().mean_all()
            },
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn convlstm_preserves_grid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cell = ConvLstmCell::new(2, 4, 3, &mut rng);
        let (h0, c0) = cell.zero_state(2, 8, 6);
        let x = Var::constant(Tensor::ones(&[2, 2, 8, 6]));
        let (h1, _) = cell.step(&x, (&h0, &c0));
        assert_eq!(h1.shape(), vec![2, 4, 8, 6]);
        assert_eq!(cell.hidden_channels(), 4);
    }

    #[test]
    fn convlstm_gradients_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cell = ConvLstmCell::new(1, 2, 3, &mut rng);
        let x0 = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let x1 = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        assert_gradients_close(
            &cell.parameters(),
            |_| {
                let (h0, c0) = cell.zero_state(1, 4, 4);
                let (h1, c1) = cell.step(&Var::constant(x0.clone()), (&h0, &c0));
                let (h2, _) = cell.step(&Var::constant(x1.clone()), (&h1, &c1));
                h2.square().mean_all()
            },
            1e-2,
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn convlstm_rejects_even_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        ConvLstmCell::new(1, 1, 2, &mut rng);
    }
}
