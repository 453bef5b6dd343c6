//! Fully connected layer with manual backprop and per-layer Adam state.

use crate::nn::optim::{AdamConfig, AdamState};
use crate::rng::normal;
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// `y = x W + b` with cached activations for the backward pass.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix, // in_dim x out_dim
    b: Vec<f64>,
    dw: Matrix,
    db: Vec<f64>,
    input: Option<Matrix>,
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
            input: None,
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

    /// Forward pass that caches the input for backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let out = self.affine(x);
        self.input = Some(x.clone());
        out
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        self.affine(x)
    }

    fn affine(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.w).expect("linear: input width mismatch");
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        out
    }

    /// Backward pass: consumes `d_out = dL/dy`, stores `dw`/`db`, returns
    /// `dL/dx`.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        self.backward_params(d_out);
        d_out.matmul_t(&self.w).expect("linear: dx shape")
    }

    /// Parameter-only backward pass: stores `dw`/`db` and skips `dL/dx`,
    /// for a first layer whose input is data and has no gradient reader.
    pub fn backward_params(&mut self, d_out: &Matrix) {
        let x = self.input.as_ref().expect("linear backward before forward");
        self.dw = x.t_matmul(d_out).expect("linear: grad shape");
        self.db = d_out.col_sums();
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
        let mut layer = Linear::new(2, 1, &mut rng);
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
        let _ = layer.forward(&x);
        let dy = Matrix::filled(2, 2, 1.0);
        let dx = layer.backward(&dy);

        // Numerical dL/dx.
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f64 = layer.forward_inference(&xp).as_slice().iter().sum();
                let lm: f64 = layer.forward_inference(&xm).as_slice().iter().sum();
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
            layer.backward(&dy);
            layer.step(&cfg);
            last = loss;
        }
        assert!(last < 1e-4, "loss {last}");
        assert!((layer.weights().get(0, 0) - 2.0).abs() < 0.05);
    }

    #[test]
    fn inference_equals_forward() {
        let mut rng = rng_from_seed(4);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::filled(2, 4, 0.3);
        assert_eq!(layer.forward(&x), layer.forward_inference(&x));
    }
}
