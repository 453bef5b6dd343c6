//! Element-wise activations, applied in place.
//!
//! An activation keeps no cache: its backward pass reads the output the
//! forward pass wrote, which the [`Mlp`] workspace holds anyway as the next
//! layer's input.
//!
//! [`Mlp`]: crate::nn::Mlp

use vfl_tabular::Matrix;

/// Supported non-linearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Sigmoid,
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed through the *output* value (all three supported
    /// activations allow this, avoiding an input cache).
    #[inline]
    fn grad_from_output(&self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Forward pass in place: every element `x` becomes `act(x)`.
    pub fn forward_inplace(&self, x: &mut Matrix) {
        x.map_inplace(|v| self.apply(v));
    }

    /// Backward pass in place: `grad` holds `dL/dy` on entry and
    /// `dL/dx = dL/dy · act'(x)` on return, where `output` is the `y` the
    /// forward pass produced.
    pub fn backward_inplace(&self, output: &Matrix, grad: &mut Matrix) {
        assert_eq!(output.shape(), grad.shape(), "activation grad shape");
        for (d, &y) in grad.as_mut_slice().iter_mut().zip(output.as_slice()) {
            *d *= self.grad_from_output(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward then backward with `dL/dy = 1`: returns `(y, dL/dx)`.
    fn run(act: Activation, x: &[f64]) -> (Matrix, Matrix) {
        let mut y = Matrix::from_vec(1, x.len(), x.to_vec()).unwrap();
        act.forward_inplace(&mut y);
        let mut d = Matrix::filled(1, x.len(), 1.0);
        act.backward_inplace(&y, &mut d);
        (y, d)
    }

    #[test]
    fn inference_matches_forward() {
        // Inference runs one sample at a time, training a whole batch:
        // each row of the batched forward equals that row on its own.
        let batch = [-60.0, -1.5, -0.0, 0.0, 0.25, 3.0, 60.0, -2.0, 1e-9];
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let mut y = Matrix::from_vec(3, 3, batch.to_vec()).unwrap();
            act.forward_inplace(&mut y);
            for (i, row) in batch.chunks(3).enumerate() {
                let mut one = Matrix::from_vec(1, 3, row.to_vec()).unwrap();
                act.forward_inplace(&mut one);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(one.as_slice()), bits(y.row(i)), "{act:?} row {i}");
            }
        }
    }

    #[test]
    fn relu_clips_negatives() {
        let (y, dx) = run(Activation::Relu, &[-1.0, 0.0, 2.0]);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let (y, dx) = run(Activation::Sigmoid, &[-50.0, 0.0, 50.0]);
        assert!(y.get(0, 0) < 1e-12);
        assert!((y.get(0, 1) - 0.5).abs() < 1e-12);
        assert!(y.get(0, 2) > 1.0 - 1e-12);
        // Max slope 0.25 at x = 0.
        assert!((dx.get(0, 1) - 0.25).abs() < 1e-12);
        assert!(dx.get(0, 0) < 1e-12);
    }

    #[test]
    fn tanh_numerical_gradient() {
        let (_, dx) = run(Activation::Tanh, &[0.7]);
        let eps = 1e-6;
        let num = ((0.7f64 + eps).tanh() - (0.7f64 - eps).tanh()) / (2.0 * eps);
        assert!((dx.get(0, 0) - num).abs() < 1e-9);
    }
}
