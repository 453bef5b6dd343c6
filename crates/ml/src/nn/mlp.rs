//! Multi-layer perceptron built from [`Linear`] layers and an
//! [`Activation`], with a classifier wrapper (the paper's 3-layer MLP base
//! model, §4.1.2) and a regressor wrapper (the ΔG estimation networks,
//! §3.5.1).
//!
//! Training runs in an [`MlpWorkspace`]: one buffer per layer boundary
//! holds the layer's output after its activation, which is also the next
//! layer's input, and one per boundary holds the gradient flowing back
//! through it. Buffers are reshaped per batch and allocate only until
//! they have seen the largest batch, so a fit allocates its workspace
//! once.

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::nn::activation::Activation;
use crate::nn::linear::Linear;
use crate::nn::loss::{bce_with_logits, mse_loss, probs_from_logits};
use crate::nn::optim::AdamConfig;
use crate::rng::{rng_from_seed, shuffle};
use rand::rngs::StdRng;
use vfl_tabular::{Matrix, Standardizer};

/// A plain feed-forward stack: `dims = [in, h1, ..., out]` with the chosen
/// activation between linear layers (none after the output layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    act: Activation,
}

/// Reused training buffers for one [`Mlp`] (see the module doc).
#[derive(Debug, Clone)]
pub struct MlpWorkspace {
    /// `outputs[l]`: layer `l`'s output after its activation (the last
    /// layer has none), which layer `l + 1` reads as its input.
    outputs: Vec<Matrix>,
    /// `grads[l]`: `dL/d(input of layer l)`; `grads[L]`: `dL/d(output)`.
    grads: Vec<Matrix>,
}

impl Mlp {
    /// Builds the stack. Panics if `dims` has fewer than two entries.
    pub fn new(dims: &[usize], hidden_act: Activation, rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        Mlp {
            layers: dims
                .windows(2)
                .map(|pair| Linear::new(pair[0], pair[1], rng))
                .collect(),
            act: hidden_act,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Linear::n_params).sum()
    }

    /// A workspace sized for batches of up to `batch` rows.
    pub fn workspace(&self, batch: usize) -> MlpWorkspace {
        MlpWorkspace {
            outputs: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(batch, l.out_dim()))
                .collect(),
            grads: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(batch, l.in_dim()))
                .chain([Matrix::zeros(batch, self.out_dim())])
                .collect(),
        }
    }

    /// Training forward pass on the batch `x`: keeps every layer's output
    /// in `ws` and returns the network output together with the buffer
    /// (shaped like it) into which the caller writes `dL/d(output)` for
    /// the backward pass.
    pub fn forward<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut MlpWorkspace,
    ) -> (&'w Matrix, &'w mut Matrix) {
        let last = self.layers.len() - 1;
        assert_eq!(ws.outputs.len(), last + 1, "workspace of another Mlp");
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.outputs.split_at_mut(l);
            let input = done.last().unwrap_or(x);
            layer.forward_into(input, &mut rest[0]);
            if l < last {
                self.act.forward_inplace(&mut rest[0]);
            }
        }
        let out = &ws.outputs[last];
        let d_out = &mut ws.grads[last + 1];
        d_out.resize(out.rows(), out.cols());
        (out, d_out)
    }

    /// Inference forward pass (no workspace, `&self`).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            self.act.forward_inplace(&mut h);
            h = layer.forward(&h);
        }
        h
    }

    /// Backward pass for the batch `x` of the last [`Mlp::forward`] on
    /// `ws`, from the `dL/d(output)` written there: fills every parameter
    /// gradient and returns `dL/d(input)`.
    pub fn backward<'w>(&mut self, x: &Matrix, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        self.backprop(x, ws, true);
        &ws.grads[0]
    }

    /// Like [`Mlp::backward`] but skips `dL/d(input)`: when the input is
    /// data, the first layer's input gradient (its largest product) has no
    /// reader.
    pub fn backward_params(&mut self, x: &Matrix, ws: &mut MlpWorkspace) {
        self.backprop(x, ws, false);
    }

    /// Walks the layers in reverse, each gradient overwriting its buffer
    /// in place.
    fn backprop(&mut self, x: &Matrix, ws: &mut MlpWorkspace, input_grad: bool) {
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let input = if l == 0 { x } else { &ws.outputs[l - 1] };
            let (below, above) = ws.grads.split_at_mut(l + 1);
            let d_out = &above[0];
            layer.backward_params(input, d_out);
            if l > 0 || input_grad {
                let dx = &mut below[l];
                layer.backward_input_into(d_out, dx);
                if l > 0 {
                    self.act.backward_inplace(input, dx);
                }
            }
        }
    }

    /// Adam step on every linear layer.
    pub fn step(&mut self, cfg: &AdamConfig) {
        for l in &mut self.layers {
            l.step(cfg);
        }
    }
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
        let batch = self.train.batch_size.min(n);
        let mut ws = mlp.workspace(batch);
        let mut xb = Matrix::zeros(batch, xs.cols());
        let mut yb = Vec::with_capacity(batch);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.train.epochs {
            shuffle(&mut order, &mut rng);
            for chunk in order.chunks(self.train.batch_size) {
                xs.select_rows_into(chunk, &mut xb)?;
                yb.clear();
                yb.extend(chunk.iter().map(|&i| y[i]));
                let (logits, d_out) = mlp.forward(&xb, &mut ws);
                bce_with_logits(logits, &yb, d_out);
                mlp.backward_params(&xb, &mut ws);
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
/// featurization; this wrapper owns the net, its workspace, the optimizer,
/// and MSE steps.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    mlp: Mlp,
    ws: MlpWorkspace,
    adam: AdamConfig,
}

impl MlpRegressor {
    /// Builds `in_dim -> hidden... -> 1` with ReLU hiddens.
    pub fn new(in_dim: usize, hidden: &[usize], lr: f64, seed: u64) -> Self {
        let mut dims = vec![in_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut rng = rng_from_seed(seed);
        let mlp = Mlp::new(&dims, Activation::Relu, &mut rng);
        MlpRegressor {
            ws: mlp.workspace(0),
            mlp,
            adam: AdamConfig::with_lr(lr),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// One gradient step on a batch; returns the batch MSE before the step.
    pub fn train_batch(&mut self, x: &Matrix, targets: &[f64]) -> f64 {
        let (pred, d_out) = self.mlp.forward(x, &mut self.ws);
        let loss = mse_loss(pred, targets, d_out);
        self.mlp.backward_params(x, &mut self.ws);
        self.mlp.step(&self.adam);
        loss
    }

    /// Like [`Self::train_batch`] but also returns the gradient w.r.t. the
    /// *input* (needed to train an upstream embedding).
    pub fn train_batch_with_input_grad(&mut self, x: &Matrix, targets: &[f64]) -> (f64, &Matrix) {
        let (pred, d_out) = self.mlp.forward(x, &mut self.ws);
        let loss = mse_loss(pred, targets, d_out);
        self.mlp.backward(x, &mut self.ws);
        self.mlp.step(&self.adam);
        (loss, &self.ws.grads[0])
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
        let (mut ws_full, mut ws_params) = (full.workspace(37), params_only.workspace(37));
        let adam = AdamConfig::with_lr(1e-2);
        for _ in 0..3 {
            let (logits, d_out) = full.forward(&x, &mut ws_full);
            bce_with_logits(logits, &y, d_out);
            full.backward(&x, &mut ws_full);
            full.step(&adam);
            let (logits, d_out) = params_only.forward(&x, &mut ws_params);
            bce_with_logits(logits, &y, d_out);
            params_only.backward_params(&x, &mut ws_params);
            params_only.step(&adam);
        }
        let bits = |m: &Mlp| -> Vec<u64> {
            let out = m.forward_inference(&x);
            out.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&full), bits(&params_only));
    }

    #[test]
    fn training_forward_matches_inference_across_batch_sizes() {
        // One workspace serves a large batch, a smaller one, then the large
        // one again; every output equals the allocating inference pass.
        let (x, _) = two_moons_ish(40, 11);
        let mut rng = rng_from_seed(12);
        let mlp = Mlp::new(&[2, 7, 3, 1], Activation::Tanh, &mut rng);
        let mut ws = mlp.workspace(40);
        for rows in [40usize, 13, 40] {
            let idx: Vec<usize> = (0..rows).collect();
            let xb = x.select_rows(&idx).unwrap();
            let (out, d_out) = mlp.forward(&xb, &mut ws);
            assert_eq!(d_out.shape(), (rows, 1));
            assert_eq!(*out, mlp.forward_inference(&xb), "{rows} rows");
        }
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
