//! Multi-layer perceptron built from [`Linear`] and [`ActLayer`] blocks,
//! with a classifier wrapper (the paper's 3-layer MLP base model, §4.1.2)
//! and a regressor wrapper (the ΔG estimation networks, §3.5.1).

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::nn::activation::{ActLayer, Activation};
use crate::nn::linear::Linear;
use crate::nn::loss::{bce_with_logits, mse_loss, probs_from_logits};
use crate::nn::optim::AdamConfig;
use crate::rng::{rng_from_seed, shuffle};
use rand::rngs::StdRng;
use vfl_tabular::{Matrix, Standardizer};

/// One block of the network. `Linear` is boxed: it carries weight/grad
/// matrices and Adam state, dwarfing the activation variant.
#[derive(Debug, Clone)]
enum Block {
    Linear(Box<Linear>),
    Act(ActLayer),
}

/// A plain feed-forward stack: `dims = [in, h1, ..., out]` with the chosen
/// activation between linear blocks (none after the output block).
#[derive(Debug, Clone)]
pub struct Mlp {
    blocks: Vec<Block>,
    in_dim: usize,
    out_dim: usize,
}

impl Mlp {
    /// Builds the stack. Panics if `dims` has fewer than two entries.
    pub fn new(dims: &[usize], hidden_act: Activation, rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let mut blocks = Vec::new();
        for w in dims.windows(2).enumerate() {
            let (i, pair) = w;
            blocks.push(Block::Linear(Box::new(Linear::new(pair[0], pair[1], rng))));
            if i + 2 < dims.len() {
                blocks.push(Block::Act(ActLayer::new(hidden_act)));
            }
        }
        Mlp {
            blocks,
            in_dim: dims[0],
            out_dim: *dims.last().expect("non-empty dims"),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Linear(l) => l.n_params(),
                Block::Act(_) => 0,
            })
            .sum()
    }

    /// Training forward pass (caches activations).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for b in &mut self.blocks {
            h = match b {
                Block::Linear(l) => l.forward(&h),
                Block::Act(a) => a.forward(&h),
            };
        }
        h
    }

    /// Inference forward pass (no caches, `&self`).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for b in &self.blocks {
            h = match b {
                Block::Linear(l) => l.forward_inference(&h),
                Block::Act(a) => a.forward_inference(&h),
            };
        }
        h
    }

    /// Backward pass from `dL/d(output)`; returns `dL/d(input)`.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        backprop(&mut self.blocks, d_out)
    }

    /// Backward pass that fills every parameter gradient but skips
    /// `dL/d(input)`: when the input is data, the first linear block's
    /// input gradient (its largest product) has no reader.
    pub fn backward_params(&mut self, d_out: &Matrix) {
        let (first, rest) = self
            .blocks
            .split_first_mut()
            .expect("Mlp::new builds at least one block");
        let d = backprop(rest, d_out);
        match first {
            Block::Linear(l) => l.backward_params(&d),
            Block::Act(_) => unreachable!("Mlp::new starts with a linear block"),
        }
    }

    /// Adam step on every linear block.
    pub fn step(&mut self, cfg: &AdamConfig) {
        for b in &mut self.blocks {
            if let Block::Linear(l) = b {
                l.step(cfg);
            }
        }
    }
}

/// Backpropagates `d_out` through `blocks` in reverse; returns the
/// gradient with respect to the first block's input.
fn backprop(blocks: &mut [Block], d_out: &Matrix) -> Matrix {
    blocks.iter_mut().rev().fold(d_out.clone(), |d, b| match b {
        Block::Linear(l) => l.backward(&d),
        Block::Act(a) => a.backward(&d),
    })
}

/// Mini-batch training hyper-parameters shared by the wrappers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f64,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // Paper defaults: lr 1e-2; 200 epochs for the isolated task-party
        // model; batch 128 (Titanic) / 512 (Credit, Adult).
        TrainConfig {
            epochs: 200,
            batch_size: 128,
            lr: 1e-2,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(MlError::InvalidConfig("epochs must be >= 1".into()));
        }
        if self.batch_size == 0 {
            return Err(MlError::InvalidConfig("batch_size must be >= 1".into()));
        }
        if self.lr <= 0.0 || self.lr.is_nan() {
            return Err(MlError::InvalidConfig("lr must be > 0".into()));
        }
        Ok(())
    }
}

/// Binary MLP classifier: standardizes inputs, trains with BCE + Adam.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    hidden: Vec<usize>,
    activation: Activation,
    train: TrainConfig,
    state: Option<(Mlp, Standardizer)>,
}

impl MlpClassifier {
    /// New classifier with the paper's embedding dims (e.g. `[64, 32]`).
    pub fn new(hidden: Vec<usize>, train: TrainConfig) -> Self {
        MlpClassifier {
            hidden,
            activation: Activation::Relu,
            train,
            state: None,
        }
    }

    /// Overrides the hidden activation.
    pub fn with_activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        self.train.validate()?;
        check_fit_inputs(x, y)?;
        let standardizer = Standardizer::fit(x);
        let mut xs = x.clone();
        standardizer.transform_inplace(&mut xs);

        let mut dims = vec![xs.cols()];
        dims.extend_from_slice(&self.hidden);
        dims.push(1);
        let mut rng = rng_from_seed(self.train.seed);
        let mut mlp = Mlp::new(&dims, self.activation, &mut rng);
        let adam = AdamConfig::with_lr(self.train.lr);

        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.train.epochs {
            shuffle(&mut order, &mut rng);
            for chunk in order.chunks(self.train.batch_size) {
                let xb = xs.select_rows(chunk)?;
                let yb: Vec<u8> = chunk.iter().map(|&i| y[i]).collect();
                let logits = mlp.forward(&xb);
                let (_, grad) = bce_with_logits(&logits, &yb);
                mlp.backward_params(&grad);
                mlp.step(&adam);
            }
        }
        self.state = Some((mlp, standardizer));
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let (mlp, standardizer) = self.state.as_ref().ok_or(MlError::NotFitted)?;
        if x.cols() != mlp.in_dim() {
            return Err(MlError::FeatureMismatch {
                expected: mlp.in_dim(),
                got: x.cols(),
            });
        }
        let mut xs = x.clone();
        standardizer.transform_inplace(&mut xs);
        Ok(probs_from_logits(&mlp.forward_inference(&xs)))
    }
}

/// Online MLP regressor used by the ΔG estimators: callers own the input
/// featurization; this wrapper owns the net, the optimizer, and MSE steps.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    mlp: Mlp,
    adam: AdamConfig,
}

impl MlpRegressor {
    /// Builds `in_dim -> hidden... -> 1` with ReLU hiddens.
    pub fn new(in_dim: usize, hidden: &[usize], lr: f64, seed: u64) -> Self {
        let mut dims = vec![in_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut rng = rng_from_seed(seed);
        MlpRegressor {
            mlp: Mlp::new(&dims, Activation::Relu, &mut rng),
            adam: AdamConfig::with_lr(lr),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// One gradient step on a batch; returns the batch MSE before the step.
    pub fn train_batch(&mut self, x: &Matrix, targets: &[f64]) -> f64 {
        let pred = self.mlp.forward(x);
        let (loss, grad) = mse_loss(&pred, targets);
        self.mlp.backward_params(&grad);
        self.mlp.step(&self.adam);
        loss
    }

    /// Like [`Self::train_batch`] but also returns the gradient w.r.t. the
    /// *input* (needed to train an upstream embedding).
    pub fn train_batch_with_input_grad(&mut self, x: &Matrix, targets: &[f64]) -> (f64, Matrix) {
        let pred = self.mlp.forward(x);
        let (loss, grad) = mse_loss(&pred, targets);
        let dx = self.mlp.backward(&grad);
        self.mlp.step(&self.adam);
        (loss, dx)
    }

    /// Predictions for a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let out = self.mlp.forward_inference(x);
        (0..out.rows()).map(|i| out.get(i, 0)).collect()
    }

    /// Current MSE on a batch without updating.
    pub fn evaluate(&self, x: &Matrix, targets: &[f64]) -> f64 {
        crate::metrics::mse(&self.predict(x), targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_from_probs;
    use crate::rng::normal;

    fn two_moons_ish(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        // Concentric-ring data: not linearly separable, needs the hidden layer.
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = (i % 2) as u8;
            let radius = if label == 1 { 2.0 } else { 0.5 };
            let angle = 2.0 * std::f64::consts::PI * (i as f64 / n as f64) * 7.3;
            rows.push(vec![
                radius * angle.cos() + 0.1 * normal(&mut rng),
                radius * angle.sin() + 0.1 * normal(&mut rng),
            ]);
            y.push(label);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn mlp_shapes_and_params() {
        let mut rng = rng_from_seed(1);
        let mlp = Mlp::new(&[5, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.n_params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_params_steps_like_backward() {
        let (x, y) = two_moons_ish(37, 9);
        let mut rng = rng_from_seed(10);
        let mut full = Mlp::new(&[2, 9, 5, 1], Activation::Relu, &mut rng);
        let mut params_only = full.clone();
        let adam = AdamConfig::with_lr(1e-2);
        for _ in 0..3 {
            let (_, grad) = bce_with_logits(&full.forward(&x), &y);
            full.backward(&grad);
            full.step(&adam);
            let (_, grad) = bce_with_logits(&params_only.forward(&x), &y);
            params_only.backward_params(&grad);
            params_only.step(&adam);
        }
        let bits = |m: &Mlp| -> Vec<u64> {
            let out = m.forward_inference(&x);
            out.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&full), bits(&params_only));
    }

    #[test]
    fn classifier_learns_nonlinear_boundary() {
        let (x, y) = two_moons_ish(240, 2);
        let mut clf = MlpClassifier::new(
            vec![16, 8],
            TrainConfig {
                epochs: 120,
                batch_size: 32,
                lr: 1e-2,
                seed: 3,
            },
        );
        clf.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&clf.predict_proba(&x).unwrap(), &y);
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn classifier_is_deterministic() {
        let (x, y) = two_moons_ish(100, 4);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 25,
            lr: 1e-2,
            seed: 5,
        };
        let mut a = MlpClassifier::new(vec![8], cfg);
        let mut b = MlpClassifier::new(vec![8], cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn regressor_fits_quadratic() {
        let mut rng = rng_from_seed(6);
        let xs: Vec<Vec<f64>> = (0..200).map(|_| vec![2.0 * normal(&mut rng)]).collect();
        let targets: Vec<f64> = xs.iter().map(|v| v[0] * v[0]).collect();
        let x = Matrix::from_rows(&xs).unwrap();
        let mut reg = MlpRegressor::new(1, &[32, 16], 5e-3, 7);
        for _ in 0..600 {
            reg.train_batch(&x, &targets);
        }
        let final_mse = reg.evaluate(&x, &targets);
        assert!(final_mse < 0.3, "mse {final_mse}");
    }

    #[test]
    fn train_config_validation() {
        assert!(TrainConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            lr: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn classifier_feature_mismatch() {
        let (x, y) = two_moons_ish(60, 8);
        let mut clf = MlpClassifier::new(
            vec![4],
            TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 1e-2,
                seed: 0,
            },
        );
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict_proba(&Matrix::zeros(2, 5)).is_err());
    }
}
