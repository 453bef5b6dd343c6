//! Gradient-boosted decision trees for binary classification (logistic
//! loss, à la XGBoost/SecureBoost without the second-order weights).
//!
//! The paper's production motivation cites SecureBoost-style tree VFL
//! (\[2\], \[3\] in its references); this model lets the market run on a
//! boosted-tree base model in addition to the paper's Random Forest and
//! MLP, demonstrating that the bargaining layer is model-agnostic.

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::rng::rng_from_seed;
use crate::tree::{DecisionTree, MaxFeatures, Presort, Samples, TreeConfig};
use vfl_tabular::Matrix;

/// Regression tree fitted to residuals: reuses the CART machinery by
/// thresholding pseudo-residual signs and storing mean leaf values.
///
/// We fit each boosting stage on the *sign* of the residual (a binary
/// target CART can split on) and then set leaf values to the mean residual
/// of the samples that land there — the classic "fit structure on a proxy,
/// refit leaves on the true objective" trick, which keeps the whole learner
/// on one tree implementation.
#[derive(Debug, Clone)]
struct BoostStage {
    tree: DecisionTree,
    /// Value per node id ([`DecisionTree::leaf_index`]): each leaf's
    /// (scaled) mean stage residual. Split nodes' slots are never read.
    leaf_values: Vec<f64>,
}

impl BoostStage {
    fn value_for(&self, row: &[f64]) -> f64 {
        self.leaf_values[self.tree.leaf_index(row)]
    }
}

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    pub n_stages: usize,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    pub learning_rate: f64,
    /// Row subsampling fraction per stage (stochastic gradient boosting).
    pub subsample: f64,
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_stages: 30,
            max_depth: 4,
            min_samples_leaf: 4,
            learning_rate: 0.2,
            subsample: 0.8,
            seed: 0,
        }
    }
}

impl GbdtConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<()> {
        if self.n_stages == 0 {
            return Err(MlError::InvalidConfig("n_stages must be >= 1".into()));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err(MlError::InvalidConfig(
                "learning_rate must be in (0, 1]".into(),
            ));
        }
        if !(0.0 < self.subsample && self.subsample <= 1.0) {
            return Err(MlError::InvalidConfig("subsample must be in (0, 1]".into()));
        }
        TreeConfig {
            max_depth: self.max_depth,
            min_samples_leaf: self.min_samples_leaf,
            ..Default::default()
        }
        .validate()
    }
}

/// A fitted (or fittable) gradient-boosted tree classifier.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    cfg: GbdtConfig,
    base_logit: f64,
    stages: Vec<BoostStage>,
    n_features: Option<usize>,
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl GradientBoosting {
    /// Creates an unfitted model.
    pub fn new(cfg: GbdtConfig) -> Self {
        GradientBoosting {
            cfg,
            base_logit: 0.0,
            stages: Vec::new(),
            n_features: None,
        }
    }

    /// Number of fitted boosting stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    fn raw_score(&self, row: &[f64]) -> f64 {
        let mut score = self.base_logit;
        for stage in &self.stages {
            score += self.cfg.learning_rate * stage.value_for(row);
        }
        score
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        self.cfg.validate()?;
        check_fit_inputs(x, y)?;
        self.n_features = Some(x.cols());
        self.stages.clear();

        let n = x.rows();
        let pos = y.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let pos = pos.clamp(1e-6, 1.0 - 1e-6);
        self.base_logit = (pos / (1.0 - pos)).ln();

        let mut rng = rng_from_seed(self.cfg.seed);
        let mut scores = vec![self.base_logit; n];
        // The features never change between stages: sort them once.
        let presort = Presort::new(x);
        let mut samples = Samples::default();
        let subsample_k = ((n as f64) * self.cfg.subsample).round().max(1.0) as usize;

        for stage_idx in 0..self.cfg.n_stages {
            // Pseudo-residuals of logistic loss: y - sigmoid(score).
            let residuals: Vec<f64> = y
                .iter()
                .zip(&scores)
                .map(|(&t, &s)| t as f64 - sigmoid(s))
                .collect();

            // Stage rows (stochastic boosting).
            let rows: Vec<usize> = if subsample_k >= n {
                (0..n).collect()
            } else {
                crate::rng::sample_without_replacement(n, subsample_k, &mut rng)
            };

            // Structure: CART on the residual signs.
            let signs: Vec<u8> = residuals.iter().map(|&r| u8::from(r > 0.0)).collect();
            let mut tree = DecisionTree::new(TreeConfig {
                max_depth: self.cfg.max_depth,
                min_samples_split: 2 * self.cfg.min_samples_leaf,
                min_samples_leaf: self.cfg.min_samples_leaf,
                max_features: MaxFeatures::All,
                min_impurity_decrease: 0.0,
                seed: self.cfg.seed.wrapping_add(stage_idx as u64),
            });
            tree.fit_presorted(&signs, &presort, &presort.counts(&rows), &mut samples)?;

            // Leaf values: mean residual of each leaf's own stage rows. The
            // tree was fit on exactly these rows, so every leaf holds at
            // least one; only split nodes keep a count of 0.
            let mut sums = vec![(0.0, 0usize); tree.n_nodes()];
            for &i in &rows {
                let leaf = &mut sums[tree.leaf_index(x.row(i))];
                leaf.0 += residuals[i];
                leaf.1 += 1;
            }
            let leaf_values = sums
                .into_iter()
                .map(|(sum, count)| {
                    if count == 0 {
                        0.0
                    } else {
                        4.0 * sum / count as f64
                    }
                })
                .collect();
            let stage = BoostStage { tree, leaf_values };

            // Update scores on all rows.
            for (i, score) in scores.iter_mut().enumerate() {
                *score += self.cfg.learning_rate * stage.value_for(x.row(i));
            }
            self.stages.push(stage);
        }
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let expected = self.n_features.ok_or(MlError::NotFitted)?;
        if x.cols() != expected {
            return Err(MlError::FeatureMismatch {
                expected,
                got: x.cols(),
            });
        }
        Ok(x.iter_rows()
            .map(|row| sigmoid(self.raw_score(row)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_from_probs;
    use crate::rng::{normal, rng_from_seed};

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as u8;
            let c = if label == 1 { 1.5 } else { -1.5 };
            rows.push(vec![c + normal(&mut rng), c + normal(&mut rng)]);
            y.push(label);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn xor_clusters() -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let (a, b) = ((i / 50) % 2, i / 100);
            rows.push(vec![a as f64, b as f64]);
            y.push(((a + b) % 2) as u8);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// Every stage row's value is 4× the mean residual of the stage rows
    /// in its own leaf, also where distinct leaves share a probability
    /// (every pure leaf predicts exactly 0 or 1). Stage rows are redrawn
    /// here exactly as `fit` draws them.
    #[test]
    fn stage_values_are_each_leafs_own_mean_residual() {
        let (x, y) = blobs(200, 5);
        let cfg = GbdtConfig {
            n_stages: 6,
            ..Default::default()
        };
        let mut g = GradientBoosting::new(cfg);
        g.fit(&x, &y).unwrap();
        let n = x.rows();
        let k = ((n as f64) * cfg.subsample).round() as usize;
        let mut rng = rng_from_seed(cfg.seed);
        let mut scores = vec![g.base_logit; n];
        for (s, stage) in g.stages.iter().enumerate() {
            let rows = crate::rng::sample_without_replacement(n, k, &mut rng);
            let mut leaves: std::collections::HashMap<usize, Vec<usize>> = Default::default();
            for &i in &rows {
                leaves
                    .entry(stage.tree.leaf_index(x.row(i)))
                    .or_default()
                    .push(i);
            }
            for members in leaves.values() {
                let residual = |i: usize| y[i] as f64 - sigmoid(scores[i]);
                let mean = members.iter().map(|&i| residual(i)).sum::<f64>() / members.len() as f64;
                for &i in members {
                    let value = stage.value_for(x.row(i));
                    assert!(
                        (value - 4.0 * mean).abs() < 1e-12,
                        "stage {s} row {i}: {value} vs 4 x {mean}"
                    );
                }
            }
            for (i, score) in scores.iter_mut().enumerate() {
                *score += cfg.learning_rate * stage.value_for(x.row(i));
            }
        }
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = blobs(300, 1);
        let mut g = GradientBoosting::new(GbdtConfig::default());
        g.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&g.predict_proba(&x).unwrap(), &y);
        assert!(acc > 0.93, "acc {acc}");
        assert_eq!(g.n_stages(), 30);
    }

    #[test]
    fn learns_xor_like_interaction() {
        let (x, y) = xor_clusters();
        let mut g = GradientBoosting::new(GbdtConfig {
            n_stages: 40,
            max_depth: 3,
            subsample: 1.0,
            ..Default::default()
        });
        g.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&g.predict_proba(&x).unwrap(), &y);
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn boosting_beats_its_own_first_stage() {
        let (x, y) = blobs(400, 2);
        let fit_with = |stages: usize| {
            let mut g = GradientBoosting::new(GbdtConfig {
                n_stages: stages,
                subsample: 1.0,
                ..Default::default()
            });
            g.fit(&x, &y).unwrap();
            accuracy_from_probs(&g.predict_proba(&x).unwrap(), &y)
        };
        assert!(
            fit_with(30) >= fit_with(1),
            "more stages must not hurt training fit"
        );
    }

    #[test]
    fn probabilities_are_valid_and_deterministic() {
        let (x, y) = blobs(120, 3);
        let mut a = GradientBoosting::new(GbdtConfig {
            seed: 9,
            ..Default::default()
        });
        let mut b = GradientBoosting::new(GbdtConfig {
            seed: 9,
            ..Default::default()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let pa = a.predict_proba(&x).unwrap();
        assert_eq!(pa, b.predict_proba(&x).unwrap());
        assert!(pa.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn config_validation_and_errors() {
        assert!(GbdtConfig {
            n_stages: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(GbdtConfig {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(GbdtConfig {
            subsample: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        let g = GradientBoosting::new(GbdtConfig::default());
        assert!(matches!(
            g.predict_proba(&Matrix::zeros(1, 2)).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn feature_mismatch_reported() {
        let (x, y) = blobs(60, 4);
        let mut g = GradientBoosting::new(GbdtConfig {
            n_stages: 3,
            ..Default::default()
        });
        g.fit(&x, &y).unwrap();
        assert!(g.predict_proba(&Matrix::zeros(2, 5)).is_err());
    }
}
