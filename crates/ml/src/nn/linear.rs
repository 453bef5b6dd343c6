//! Fully connected layer with manual backprop and per-layer Adam state.
//!
//! The layer keeps no activations: the caller (an [`Mlp`] and its
//! workspace) owns the input it fed forward and hands it back to the
//! backward pass, so no batch is ever copied into the layer.
//!
//! [`Mlp`]: crate::nn::Mlp

use crate::nn::optim::{AdamConfig, AdamState};
use crate::rng::normal;
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// `y = x W + b` with its parameter gradients and Adam state.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix, // in_dim x out_dim
    b: Vec<f64>,
    dw: Matrix,
    db: Vec<f64>,
    opt_w: AdamState,
    opt_b: AdamState,
}

impl Linear {
    /// He-initialized layer (suits the ReLU hidden stacks used throughout).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim.max(1) as f64).sqrt();
        let mut w = Matrix::zeros(in_dim, out_dim);
        for v in w.as_mut_slice() {
            *v = scale * normal(rng);
        }
        Linear {
            w,
            b: vec![0.0; out_dim],
            dw: Matrix::zeros(in_dim, out_dim),
            db: vec![0.0; out_dim],
            opt_w: AdamState::new(in_dim * out_dim),
            opt_b: AdamState::new(out_dim),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// `x W + b` as a new matrix.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// `x W + b` written into `out`, which is reshaped to `x.rows() x
    /// out_dim` (reusing its allocation).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out)
            .expect("linear: input width mismatch");
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    /// Parameter gradients for the input `x` that produced `d_out = dL/dy`:
    /// `dw = xᵀ d_out` and `db` = column sums of `d_out`, written into the
    /// layer's gradient storage.
    pub fn backward_params(&mut self, x: &Matrix, d_out: &Matrix) {
        x.t_matmul_into(d_out, &mut self.dw)
            .expect("linear: grad shape");
        d_out.col_sums_into(&mut self.db);
    }

    /// Input gradient `dL/dx = d_out Wᵀ`, written into `dx` (reshaped to
    /// `d_out.rows() x in_dim`).
    pub fn backward_input_into(&self, d_out: &Matrix, dx: &mut Matrix) {
        d_out.matmul_t_into(&self.w, dx).expect("linear: dx shape");
    }

    /// Applies one Adam step on the stored gradients.
    pub fn step(&mut self, cfg: &AdamConfig) {
        self.opt_w
            .step(self.w.as_mut_slice(), self.dw.as_slice(), cfg);
        self.opt_b.step(&mut self.b, &self.db, cfg);
    }

    /// Read access to the weights (tests / inspection).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read access to the bias.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn forward_is_affine() {
        let mut rng = rng_from_seed(1);
        let layer = Linear::new(2, 1, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let y = layer.forward(&x);
        let w = layer.weights();
        let expected = 1.0 * w.get(0, 0) + 2.0 * w.get(1, 0) + layer.bias()[0];
        assert!((y.get(0, 0) - expected).abs() < 1e-12);
        assert!((y.get(1, 0) - layer.bias()[0]).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = rng_from_seed(2);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let dy = Matrix::filled(2, 2, 1.0);
        layer.backward_params(&x, &dy);
        let mut dx = Matrix::zeros(0, 0);
        layer.backward_input_into(&dy, &mut dx);

        // Numerical dL/dx.
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f64 = layer.forward(&xp).as_slice().iter().sum();
                let lm: f64 = layer.forward(&xm).as_slice().iter().sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!((dx.get(r, c) - num).abs() < 1e-5, "dx[{r},{c}]");
            }
        }
    }

    #[test]
    fn step_reduces_simple_loss() {
        // Fit y = 2x with a single linear unit.
        let mut rng = rng_from_seed(3);
        let mut layer = Linear::new(1, 1, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![-1.0]]).unwrap();
        let target = [2.0, 4.0, -2.0];
        let cfg = AdamConfig::with_lr(0.05);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let y = layer.forward(&x);
            let mut dy = Matrix::zeros(3, 1);
            let mut loss = 0.0;
            for (i, &t) in target.iter().enumerate() {
                let e = y.get(i, 0) - t;
                loss += e * e / 3.0;
                dy.set(i, 0, 2.0 * e / 3.0);
            }
            layer.backward_params(&x, &dy);
            layer.step(&cfg);
            last = loss;
        }
        assert!(last < 1e-4, "loss {last}");
        assert!((layer.weights().get(0, 0) - 2.0).abs() < 0.05);
    }

    #[test]
    fn inference_equals_forward() {
        let mut rng = rng_from_seed(4);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::filled(2, 4, 0.3);
        // The training path writes into a reused buffer of another shape.
        let mut out = Matrix::filled(5, 7, f64::NAN);
        layer.forward_into(&x, &mut out);
        assert_eq!(out, layer.forward(&x));
    }
}
