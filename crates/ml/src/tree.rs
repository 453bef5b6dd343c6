//! CART-style binary decision tree with gini splitting — the base learner of
//! the random forest (the paper trains Random Forest "with gini index as the
//! splitting metric", §4.1.2).

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::rng::{rng_from_seed, sample_without_replacement};
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(d))` features (random-forest default).
    Sqrt,
    /// `ceil(log2(d))` features.
    Log2,
    /// A fixed count (clamped to `d`).
    Count(usize),
    /// `ceil(f * d)` features for a fraction `f` in (0, 1].
    Frac(f64),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `d` features.
    pub fn resolve(&self, d: usize) -> usize {
        let k = match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (d as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Count(k) => *k,
            MaxFeatures::Frac(f) => (f * d as f64).ceil() as usize,
        };
        k.clamp(1, d.max(1))
    }
}

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    pub max_features: MaxFeatures,
    /// Minimum weighted gini decrease for a split to be kept.
    pub min_impurity_decrease: f64,
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            min_impurity_decrease: 0.0,
            seed: 0,
        }
    }
}

impl TreeConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<()> {
        if self.max_depth == 0 {
            return Err(MlError::InvalidConfig("max_depth must be >= 1".into()));
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidConfig(
                "min_samples_leaf must be >= 1".into(),
            ));
        }
        if self.min_impurity_decrease < 0.0 {
            return Err(MlError::InvalidConfig(
                "min_impurity_decrease must be >= 0".into(),
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Split {
        feature: u32,
        threshold: f64,
        left: u32,
        right: u32,
    },
    Leaf {
        prob: f64,
    },
}

/// A fitted (or fittable) decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    cfg: TreeConfig,
    nodes: Vec<Node>,
    n_features: Option<usize>,
}

/// Binary gini impurity `2 p (1 - p)` from positive count and total.
#[inline]
fn gini(pos: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

/// Best split found for one node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    decrease: f64,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(cfg: TreeConfig) -> Self {
        DecisionTree {
            cfg,
            nodes: Vec::new(),
            n_features: None,
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached (0 before fitting, 1 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, *left as usize).max(walk(nodes, *right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Fits on the rows of `x` selected by `indices` (used by the forest for
    /// bootstrap samples); `indices` may repeat rows.
    pub fn fit_on_indices(&mut self, x: &Matrix, y: &[u8], indices: &[usize]) -> Result<()> {
        self.cfg.validate()?;
        check_fit_inputs(x, y)?;
        if indices.is_empty() {
            return Err(MlError::DegenerateData("empty index set".into()));
        }
        self.nodes.clear();
        self.n_features = Some(x.cols());
        let mut idx = indices.to_vec();
        let mut rng = rng_from_seed(self.cfg.seed);
        self.build(x, y, &mut idx, 1, &mut rng);
        Ok(())
    }

    /// Recursively grows the tree; returns the created node id.
    fn build(
        &mut self,
        x: &Matrix,
        y: &[u8],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = idx.len();
        let pos = idx.iter().map(|&i| y[i] as usize).sum::<usize>();
        let prob = pos as f64 / n as f64;

        let is_pure = pos == 0 || pos == n;
        if is_pure || depth >= self.cfg.max_depth || n < self.cfg.min_samples_split {
            return self.push_leaf(prob);
        }
        let Some(split) = self.find_best_split(x, y, idx, rng) else {
            return self.push_leaf(prob);
        };
        if split.decrease < self.cfg.min_impurity_decrease {
            return self.push_leaf(prob);
        }

        // Partition in place: rows with value <= threshold go left.
        let mid = partition_by(idx, |i| x.get(i, split.feature) <= split.threshold);
        if mid < self.cfg.min_samples_leaf || n - mid < self.cfg.min_samples_leaf {
            return self.push_leaf(prob);
        }

        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { prob }); // placeholder, patched below
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        self.nodes[node_id] = Node::Split {
            feature: split.feature as u32,
            threshold: split.threshold,
            left: left as u32,
            right: right as u32,
        };
        node_id
    }

    fn push_leaf(&mut self, prob: f64) -> usize {
        self.nodes.push(Node::Leaf { prob });
        self.nodes.len() - 1
    }

    /// Scans candidate features for the gini-optimal threshold.
    fn find_best_split(
        &self,
        x: &Matrix,
        y: &[u8],
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<BestSplit> {
        let d = x.cols();
        let k = self.cfg.max_features.resolve(d);
        let candidates: Vec<usize> = if k >= d {
            (0..d).collect()
        } else {
            sample_without_replacement(d, k, rng)
        };

        let n = idx.len() as f64;
        let total_pos = idx.iter().map(|&i| y[i] as f64).sum::<f64>();
        let parent = gini(total_pos, n);
        let min_leaf = self.cfg.min_samples_leaf;

        let mut best: Option<BestSplit> = None;
        // Reused buffers across features.
        let mut pairs: Vec<(f64, u8)> = Vec::with_capacity(idx.len());
        for &f in &candidates {
            pairs.clear();
            pairs.extend(idx.iter().map(|&i| (x.get(i, f), y[i])));
            // Unstable is exact: the order inside a run of equal values is
            // never read. `left_pos` counts labels (exact in f64) and is
            // only scored at a boundary between distinct values, where the
            // threshold is unchanged too (`±0.0 + v == v` for `v != 0`).
            pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite feature values"));
            if pairs[0].0 == pairs[pairs.len() - 1].0 {
                continue; // constant feature in this node
            }
            let mut left_pos = 0.0;
            for s in 0..pairs.len() - 1 {
                left_pos += pairs[s].1 as f64;
                if pairs[s].0 == pairs[s + 1].0 {
                    continue; // can only split between distinct values
                }
                let n_left = (s + 1) as f64;
                let n_right = n - n_left;
                if (n_left as usize) < min_leaf || (n_right as usize) < min_leaf {
                    continue;
                }
                let child = (n_left * gini(left_pos, n_left)
                    + n_right * gini(total_pos - left_pos, n_right))
                    / n;
                let decrease = parent - child;
                if best.as_ref().is_none_or(|b| decrease > b.decrease) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: 0.5 * (pairs[s].0 + pairs[s + 1].0),
                        decrease,
                    });
                }
            }
        }
        best
    }

    /// Probability of the positive class for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert!(!self.nodes.is_empty(), "predict on unfitted tree");
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }
}

/// Stable-enough in-place partition; returns the count of items satisfying
/// the predicate (moved to the front).
fn partition_by(idx: &mut [usize], pred: impl Fn(usize) -> bool) -> usize {
    let mut mid = 0;
    for i in 0..idx.len() {
        if pred(idx[i]) {
            idx.swap(mid, i);
            mid += 1;
        }
    }
    mid
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        let indices: Vec<usize> = (0..x.rows()).collect();
        self.fit_on_indices(x, y, &indices)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let expected = self.n_features.ok_or(MlError::NotFitted)?;
        if x.cols() != expected {
            return Err(MlError::FeatureMismatch {
                expected,
                got: x.cols(),
            });
        }
        Ok(x.iter_rows().map(|row| self.predict_row(row)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_from_probs;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // 4 exact clusters of the XOR problem, 25 points each. Duplicated
        // points keep the candidate thresholds between clusters, where the
        // greedy gini scan must discover the (zero-first-step-gain) XOR
        // structure across two levels.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let (a, b) = ((i / 25) % 2, i / 50);
            rows.push(vec![a as f64, b as f64]);
            y.push(((a + b) % 2) as u8);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_xor_perfectly() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 4,
            ..Default::default()
        });
        t.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&t.predict_proba(&x).unwrap(), &y);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn depth_one_gives_single_leaf() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 1,
            ..Default::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.depth(), 1);
        // XOR at depth 1 is chance-level.
        let probs = t.predict_proba(&x).unwrap();
        assert!(probs.iter().all(|&p| (p - 0.5).abs() < 1e-9));
    }

    #[test]
    fn pure_labels_make_single_leaf() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &[1, 1, 1]).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_proba(&x).unwrap(), vec![1.0; 3]);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = [0, 0, 0, 1];
        let mut t = DecisionTree::new(TreeConfig {
            min_samples_leaf: 2,
            ..Default::default()
        });
        t.fit(&x, &y).unwrap();
        // The only split keeping >= 2 per side is at 1.5: leaves (0,0) (0,1).
        let probs = t.predict_proba(&x).unwrap();
        assert_eq!(probs, vec![0.0, 0.0, 0.5, 0.5]);
    }

    #[test]
    fn feature_mismatch_is_reported() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &[0, 1]).unwrap();
        let bad = Matrix::zeros(1, 3);
        assert!(matches!(
            t.predict_proba(&bad).unwrap_err(),
            MlError::FeatureMismatch {
                expected: 2,
                got: 3
            }
        ));
        let unfit = DecisionTree::new(TreeConfig::default());
        assert!(matches!(
            unfit.predict_proba(&bad).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn deterministic_with_subsampled_features() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_features: MaxFeatures::Count(1),
            seed: 3,
            ..Default::default()
        };
        let mut a = DecisionTree::new(cfg);
        let mut b = DecisionTree::new(cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn config_validation() {
        assert!(TreeConfig {
            max_depth: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            min_samples_leaf: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            min_impurity_decrease: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Log2.resolve(8), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
        assert_eq!(MaxFeatures::Frac(0.7).resolve(10), 7);
        assert_eq!(MaxFeatures::Frac(0.65).resolve(10), 7);
        assert_eq!(MaxFeatures::Frac(1.0).resolve(10), 10);
    }

    #[test]
    fn partition_by_moves_matches_front() {
        let mut idx = vec![5, 2, 8, 1, 9];
        let mid = partition_by(&mut idx, |v| v < 5);
        assert_eq!(mid, 2);
        let mut front = idx[..mid].to_vec();
        front.sort_unstable();
        assert_eq!(front, vec![1, 2]);
    }
}
