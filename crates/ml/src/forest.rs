//! Random forest: bootstrap-sampled gini trees with feature subsampling,
//! trained in parallel on `std::thread::scope` workers. This is the paper's
//! tree-based VFL base model (§4.1.2).
//!
//! A fit sorts each feature once (`Presort`); every tree expands that
//! order by its bootstrap counts and grows in its worker's reused
//! `Samples` buffers.

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::rng::{bootstrap_indices, rng_from_seed};
use crate::tree::{DecisionTree, MaxFeatures, Presort, Samples, TreeConfig};
use vfl_tabular::Matrix;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    pub max_features: MaxFeatures,
    /// Draw bootstrap samples (true) or train every tree on all rows.
    pub bootstrap: bool,
    /// Worker threads; 0 = one per available core (capped at `n_trees`).
    pub n_threads: usize,
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 40,
            max_depth: 8,
            min_samples_leaf: 2,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            n_threads: 0,
            seed: 0,
        }
    }
}

impl ForestConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<()> {
        if self.n_trees == 0 {
            return Err(MlError::InvalidConfig("n_trees must be >= 1".into()));
        }
        self.tree_config(0).validate()
    }

    fn tree_config(&self, tree_idx: usize) -> TreeConfig {
        TreeConfig {
            max_depth: self.max_depth,
            min_samples_split: 2 * self.min_samples_leaf,
            min_samples_leaf: self.min_samples_leaf,
            max_features: self.max_features,
            min_impurity_decrease: 0.0,
            // Decorrelate trees: every tree gets its own stream.
            seed: self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(tree_idx as u64),
        }
    }
}

/// A fitted (or fittable) random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    cfg: ForestConfig,
    trees: Vec<DecisionTree>,
    n_features: Option<usize>,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(cfg: ForestConfig) -> Self {
        RandomForest {
            cfg,
            trees: Vec::new(),
            n_features: None,
        }
    }

    /// The forest's configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.cfg
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Worker count: `n_threads`, or one per available core when it is 0
    /// (the only case that asks the OS), capped at `n_trees`.
    fn resolve_threads(&self) -> usize {
        let t = match self.cfg.n_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        t.clamp(1, self.cfg.n_trees.max(1))
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        self.cfg.validate()?;
        check_fit_inputs(x, y)?;
        self.n_features = Some(x.cols());
        let presort = Presort::new(x);

        // Pre-draw bootstrap samples sequentially so results do not
        // depend on thread scheduling.
        let n = x.rows();
        let mut rng = rng_from_seed(self.cfg.seed);
        let mut tasks: Vec<(DecisionTree, Vec<u32>)> = (0..self.cfg.n_trees)
            .map(|i| {
                let counts = if self.cfg.bootstrap {
                    presort.counts(&bootstrap_indices(n, &mut rng))
                } else {
                    vec![1; n]
                };
                (DecisionTree::new(self.cfg.tree_config(i)), counts)
            })
            .collect();

        // Each worker fits one contiguous chunk of trees in its own buffers.
        let fit_chunk = |chunk: &mut [(DecisionTree, Vec<u32>)]| -> Result<()> {
            let mut samples = Samples::default();
            for (tree, counts) in chunk {
                tree.fit_presorted(y, &presort, counts, &mut samples)?;
            }
            Ok(())
        };
        let n_threads = self.resolve_threads();
        if n_threads == 1 {
            fit_chunk(&mut tasks)?;
        } else {
            let chunk = tasks.len().div_ceil(n_threads);
            let results: Vec<Result<()>> = std::thread::scope(|scope| {
                let handles: Vec<_> = tasks
                    .chunks_mut(chunk)
                    .map(|chunk_tasks| scope.spawn(|| fit_chunk(chunk_tasks)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("forest worker panicked"))
                    .collect()
            });
            results.into_iter().collect::<Result<()>>()?;
        }
        self.trees = tasks.into_iter().map(|(tree, _)| tree).collect();
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
        let mut probs = vec![0.0f64; x.rows()];
        for tree in &self.trees {
            for (p, row) in probs.iter_mut().zip(x.iter_rows()) {
                *p += tree.predict_row(row);
            }
        }
        let k = self.trees.len().max(1) as f64;
        for p in &mut probs {
            *p /= k;
        }
        Ok(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_from_probs;
    use crate::rng::normal;

    /// Two Gaussian blobs, linearly separable with margin.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as u8;
            let center = if label == 1 { 2.0 } else { -2.0 };
            rows.push(vec![center + normal(&mut rng), center + normal(&mut rng)]);
            y.push(label);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separable_data_high_accuracy() {
        let (x, y) = blobs(400, 1);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 15,
            ..Default::default()
        });
        f.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&f.predict_proba(&x).unwrap(), &y);
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn parallel_matches_serial() {
        let (x, y) = blobs(200, 2);
        let base = ForestConfig {
            n_trees: 8,
            seed: 9,
            ..Default::default()
        };
        let mut serial = RandomForest::new(ForestConfig {
            n_threads: 1,
            ..base
        });
        let mut parallel = RandomForest::new(ForestConfig {
            n_threads: 4,
            ..base
        });
        serial.fit(&x, &y).unwrap();
        parallel.fit(&x, &y).unwrap();
        assert_eq!(
            serial.predict_proba(&x).unwrap(),
            parallel.predict_proba(&x).unwrap()
        );
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = blobs(150, 3);
        let cfg = ForestConfig {
            n_trees: 6,
            seed: 42,
            ..Default::default()
        };
        let mut a = RandomForest::new(cfg);
        let mut b = RandomForest::new(cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = blobs(150, 3);
        let mut a = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 1,
            ..Default::default()
        });
        let mut b = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 2,
            ..Default::default()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_ne!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn probabilities_are_valid() {
        let (x, y) = blobs(100, 4);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 5,
            ..Default::default()
        });
        f.fit(&x, &y).unwrap();
        for p in f.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn validation_and_not_fitted() {
        assert!(ForestConfig {
            n_trees: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        let f = RandomForest::new(ForestConfig::default());
        assert!(matches!(
            f.predict_proba(&Matrix::zeros(1, 1)).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn no_bootstrap_uses_all_rows() {
        let (x, y) = blobs(60, 5);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 3,
            bootstrap: false,
            max_features: MaxFeatures::All,
            seed: 7,
            ..Default::default()
        });
        f.fit(&x, &y).unwrap();
        // Without bootstrap and with all features, all trees are identical.
        let probs = f.predict_proba(&x).unwrap();
        let mut single = DecisionTree::new(TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            ..Default::default()
        });
        single.fit(&x, &y).unwrap();
        let tree_probs = single.predict_proba(&x).unwrap();
        for (a, b) in probs.iter().zip(&tree_probs) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
