//! CART-style binary decision tree with gini splitting — the base learner of
//! the random forest (the paper trains Random Forest "with gini index as the
//! splitting metric", §4.1.2).
//!
//! **Presorting.** A fit sorts each feature's rows by value once
//! (`Presort`); every tree grown on the same matrix expands that order by
//! its sample's row counts (`Samples`). A node is one range of every
//! feature's sorted sample, and a split stable-partitions each range, so
//! both children stay sorted without sorting again. The split scan reads a
//! node's values in ascending order, exactly as sorting them would give:
//! it visits the same boundaries between distinct values with the same
//! left counts, in the same candidate order, so every tree is the one a
//! per-node sort grows.

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
        if let MaxFeatures::Frac(f) = self.max_features {
            if !(f > 0.0 && f <= 1.0) {
                return Err(MlError::InvalidConfig(format!(
                    "max_features fraction must be in (0, 1], got {f}"
                )));
            }
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

/// Each feature's rows in ascending order of value, sorted once per fit
/// and shared by every tree grown on the same matrix.
#[derive(Debug, Clone)]
pub(crate) struct Presort {
    n_rows: usize,
    n_features: usize,
    /// `rows[f * n_rows..][..n_rows]`: row ids by ascending feature `f`.
    rows: Vec<u32>,
    /// The matching values of feature `f`, ascending.
    vals: Vec<f64>,
}

impl Presort {
    /// Sorts every column of `x`. Panics on a NaN feature value.
    pub(crate) fn new(x: &Matrix) -> Presort {
        let (n, d) = x.shape();
        assert!(n <= u32::MAX as usize, "presort: too many rows");
        let mut rows = Vec::with_capacity(n * d);
        let mut vals = Vec::with_capacity(n * d);
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut col = vec![0.0; n];
        for f in 0..d {
            for (v, row) in col.iter_mut().zip(x.iter_rows()) {
                *v = row[f];
            }
            order.clear();
            order.extend(0..n as u32);
            // Unstable is exact: the order inside a run of equal values is
            // never read (see `DecisionTree::find_best_split`).
            order.sort_unstable_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .expect("finite feature values")
            });
            rows.extend_from_slice(&order);
            vals.extend(order.iter().map(|&r| col[r as usize]));
        }
        Presort {
            n_rows: n,
            n_features: d,
            rows,
            vals,
        }
    }

    /// Per-row sample counts for a list of (possibly repeated) row ids.
    pub(crate) fn counts(&self, indices: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_rows];
        for &i in indices {
            counts[i] += 1;
        }
        counts
    }
}

/// One tree's sample, feature-major: segment `f` holds the sampled rows
/// (a row drawn `c` times appears `c` times) by ascending feature `f`.
/// Reused across the trees of a fit, so it allocates once per worker.
#[derive(Debug, Clone, Default)]
pub(crate) struct Samples {
    /// Sample size: the length of every feature segment.
    m: usize,
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// Right-going entries of the range being partitioned.
    spill_rows: Vec<u32>,
    spill_vals: Vec<f64>,
    /// Per row of the matrix: does it go left at the current split?
    goes_left: Vec<bool>,
}

impl Samples {
    /// Expands `presort` by `counts`, keeping each feature's order.
    fn fill(&mut self, presort: &Presort, counts: &[u32]) {
        assert_eq!(counts.len(), presort.n_rows, "one count per row");
        self.m = counts.iter().map(|&c| c as usize).sum();
        self.rows.clear();
        self.vals.clear();
        let sorted = presort.rows.chunks_exact(presort.n_rows.max(1));
        for (rows, vals) in sorted.zip(presort.vals.chunks_exact(presort.n_rows.max(1))) {
            for (&r, &v) in rows.iter().zip(vals) {
                for _ in 0..counts[r as usize] {
                    self.rows.push(r);
                    self.vals.push(v);
                }
            }
        }
        self.spill_rows.resize(self.m, 0);
        self.spill_vals.resize(self.m, 0.0);
        self.goes_left.resize(presort.n_rows, false);
    }

    /// Feature `f`'s rows and values over the node range `lo..hi`.
    fn segment(&self, f: usize, lo: usize, hi: usize) -> (&[u32], &[f64]) {
        let base = f * self.m;
        (
            &self.rows[base + lo..base + hi],
            &self.vals[base + lo..base + hi],
        )
    }

    /// Marks which rows of `lo..hi` go left (`value <= threshold` on
    /// `feature`); returns the left count and the left positives.
    fn mark(
        &mut self,
        y: &[u8],
        feature: usize,
        threshold: f64,
        lo: usize,
        hi: usize,
    ) -> (usize, usize) {
        let base = feature * self.m;
        let (mut n_left, mut pos_left) = (0, 0);
        for (&r, &v) in self.rows[base + lo..base + hi]
            .iter()
            .zip(&self.vals[base + lo..base + hi])
        {
            let left = v <= threshold;
            self.goes_left[r as usize] = left;
            n_left += usize::from(left);
            pos_left += usize::from(left) * usize::from(y[r as usize]);
        }
        (n_left, pos_left)
    }

    /// Stable-partitions every feature's `lo..hi` by the marks, left rows
    /// first, so both halves stay sorted. Branch-free: every entry is
    /// written to both destinations and only the matching cursor moves.
    fn partition(&mut self, n_features: usize, lo: usize, hi: usize) {
        let m = self.m;
        for f in 0..n_features {
            let range = f * m + lo..f * m + hi;
            let (rows, vals) = (&mut self.rows[range.clone()], &mut self.vals[range]);
            let (mut l, mut r) = (0, 0);
            for p in 0..rows.len() {
                let (row, v) = (rows[p], vals[p]);
                let left = usize::from(self.goes_left[row as usize]);
                // `l <= p`: the slot written has already been read.
                rows[l] = row;
                vals[l] = v;
                self.spill_rows[r] = row;
                self.spill_vals[r] = v;
                l += left;
                r += 1 - left;
            }
            rows[l..].copy_from_slice(&self.spill_rows[..r]);
            vals[l..].copy_from_slice(&self.spill_vals[..r]);
        }
    }
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

    /// Fits on the rows of `x` selected by `indices` (bootstrap samples,
    /// boosting subsamples); `indices` may repeat rows, and only how often
    /// each row appears matters, not the order.
    pub fn fit_on_indices(&mut self, x: &Matrix, y: &[u8], indices: &[usize]) -> Result<()> {
        self.cfg.validate()?;
        check_fit_inputs(x, y)?;
        let presort = Presort::new(x);
        let counts = presort.counts(indices);
        self.fit_presorted(y, &presort, &counts, &mut Samples::default())
    }

    /// Fits on the sample that draws row `i` of the presorted matrix
    /// `counts[i]` times, growing it in the reused `samples` buffers.
    pub(crate) fn fit_presorted(
        &mut self,
        y: &[u8],
        presort: &Presort,
        counts: &[u32],
        samples: &mut Samples,
    ) -> Result<()> {
        self.cfg.validate()?;
        samples.fill(presort, counts);
        if samples.m == 0 {
            return Err(MlError::DegenerateData("empty index set".into()));
        }
        self.nodes.clear();
        self.n_features = Some(presort.n_features);
        let pos = counts
            .iter()
            .zip(y)
            .map(|(&c, &label)| c as usize * usize::from(label))
            .sum();
        let mut rng = rng_from_seed(self.cfg.seed);
        self.build(y, samples, 0..samples.m, pos, 1, &mut rng);
        Ok(())
    }

    /// Recursively grows the tree over the sample range `range` holding
    /// `pos` positives; returns the created node id.
    fn build(
        &mut self,
        y: &[u8],
        samples: &mut Samples,
        range: std::ops::Range<usize>,
        pos: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let (lo, hi) = (range.start, range.end);
        let n = hi - lo;
        let prob = pos as f64 / n as f64;

        if !self.may_split(n, pos, depth) {
            return self.push_leaf(prob);
        }
        let Some(split) = self.find_best_split(y, samples, lo, hi, pos, rng) else {
            return self.push_leaf(prob);
        };
        if split.decrease < self.cfg.min_impurity_decrease {
            return self.push_leaf(prob);
        }

        // Rows with value <= threshold go left.
        let (mid, pos_left) = samples.mark(y, split.feature, split.threshold, lo, hi);
        if mid < self.cfg.min_samples_leaf || n - mid < self.cfg.min_samples_leaf {
            return self.push_leaf(prob);
        }
        // A child that becomes a leaf needs only its counts, so the ranges
        // are partitioned only when a child may split again.
        if self.may_split(mid, pos_left, depth + 1)
            || self.may_split(n - mid, pos - pos_left, depth + 1)
        {
            let n_features = self.n_features.expect("set by fit_presorted");
            samples.partition(n_features, lo, hi);
        }

        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { prob }); // placeholder, patched below
        let left = self.build(y, samples, lo..lo + mid, pos_left, depth + 1, rng);
        let right = self.build(y, samples, lo + mid..hi, pos - pos_left, depth + 1, rng);
        self.nodes[node_id] = Node::Split {
            feature: split.feature as u32,
            threshold: split.threshold,
            left: left as u32,
            right: right as u32,
        };
        node_id
    }

    /// Whether a node of `n` samples, `pos` of them positive, at `depth`
    /// looks for a split; otherwise it is a leaf at once.
    fn may_split(&self, n: usize, pos: usize, depth: usize) -> bool {
        let is_pure = pos == 0 || pos == n;
        !is_pure && depth < self.cfg.max_depth && n >= self.cfg.min_samples_split
    }

    fn push_leaf(&mut self, prob: f64) -> usize {
        self.nodes.push(Node::Leaf { prob });
        self.nodes.len() - 1
    }

    /// Scans candidate features for the gini-optimal threshold.
    ///
    /// Each candidate's values arrive sorted. `left_pos` counts labels
    /// (exact in f64) and is only scored at a boundary between distinct
    /// values, where the threshold does not depend on the order inside a
    /// run of equal values either (`±0.0 + v == v` for `v != 0`).
    fn find_best_split(
        &self,
        y: &[u8],
        samples: &Samples,
        lo: usize,
        hi: usize,
        pos: usize,
        rng: &mut StdRng,
    ) -> Option<BestSplit> {
        let d = self.n_features.expect("set by fit_presorted");
        let k = self.cfg.max_features.resolve(d);
        let candidates: Vec<usize> = if k >= d {
            (0..d).collect()
        } else {
            sample_without_replacement(d, k, rng)
        };

        let n = (hi - lo) as f64;
        let total_pos = pos as f64;
        let parent = gini(total_pos, n);
        let min_leaf = self.cfg.min_samples_leaf;

        let mut best: Option<BestSplit> = None;
        for &f in &candidates {
            let (rows, vals) = samples.segment(f, lo, hi);
            if vals[0] == vals[vals.len() - 1] {
                continue; // constant feature in this node
            }
            let mut left_pos = 0.0;
            for s in 0..vals.len() - 1 {
                left_pos += y[rows[s] as usize] as f64;
                if vals[s] == vals[s + 1] {
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
                        threshold: 0.5 * (vals[s] + vals[s + 1]),
                        decrease,
                    });
                }
            }
        }
        best
    }

    /// Probability of the positive class for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        match self.nodes[self.leaf_index(row)] {
            Node::Leaf { prob } => prob,
            Node::Split { .. } => unreachable!("leaf_index ends on a leaf"),
        }
    }

    /// Index of the leaf `row` lands in: a node id below
    /// [`Self::n_nodes`], distinct for distinct leaves, so per-leaf values
    /// can be kept in a `Vec` of `n_nodes` slots.
    pub fn leaf_index(&self, row: &[f64]) -> usize {
        debug_assert!(!self.nodes.is_empty(), "predict on unfitted tree");
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { .. } => return id,
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
    fn partition_keeps_both_halves_sorted() {
        // Two features, row 1 drawn three times and row 3 not at all.
        let x = Matrix::from_rows(&[
            vec![3.0, -1.0],
            vec![1.0, 4.0],
            vec![2.0, 0.0],
            vec![0.5, 9.0],
            vec![1.0, 2.0],
        ])
        .unwrap();
        let y = [1, 0, 1, 0, 1];
        let presort = Presort::new(&x);
        let mut samples = Samples::default();
        samples.fill(&presort, &presort.counts(&[0, 1, 1, 2, 4, 1]));
        assert_eq!(samples.segment(0, 0, 6).0, &[1, 1, 1, 4, 2, 0]);
        // Feature 0 <= 1.5 sends rows 1 (three times) and 4 left.
        assert_eq!(samples.mark(&y, 0, 1.5, 0, 6), (4, 1));
        samples.partition(2, 0, 6);
        assert_eq!(samples.segment(0, 0, 4), (&[1, 1, 1, 4][..], &[1.0; 4][..]));
        assert_eq!(samples.segment(0, 4, 6), (&[2, 0][..], &[2.0, 3.0][..]));
        // Feature 1 keeps its ascending order inside each half.
        assert_eq!(
            samples.segment(1, 0, 4),
            (&[4, 1, 1, 1][..], &[2.0, 4.0, 4.0, 4.0][..])
        );
        assert_eq!(samples.segment(1, 4, 6), (&[0, 2][..], &[-1.0, 0.0][..]));
    }

    #[test]
    fn partition_by_moves_matches_front() {
        let x = Matrix::from_rows(&[
            vec![5.0, 4.0],
            vec![2.0, 3.0],
            vec![8.0, 2.0],
            vec![1.0, 1.0],
            vec![9.0, 0.0],
        ])
        .unwrap();
        let y = [1, 0, 1, 0, 1];
        let presort = Presort::new(&x);
        let mut samples = Samples::default();
        samples.fill(&presort, &presort.counts(&[0, 1, 2, 3, 4]));
        // Feature 0 <= 4.5 matches rows 1 and 3, both negatives.
        assert_eq!(samples.mark(&y, 0, 4.5, 0, 5), (2, 0));
        samples.partition(2, 0, 5);
        assert_eq!(samples.segment(0, 0, 5).0, &[3, 1, 0, 2, 4]);
        // Feature 1 ran 4, 3, 2, 1, 0: the matches move to the front and
        // the others keep their relative order behind them.
        assert_eq!(
            samples.segment(1, 0, 5),
            (&[3, 1, 4, 2, 0][..], &[1.0, 3.0, 0.0, 2.0, 4.0][..])
        );
        // A sub-range moves its own matches and leaves the rest alone.
        assert_eq!(samples.mark(&y, 0, 6.0, 2, 5), (1, 1));
        samples.partition(2, 2, 5);
        assert_eq!(samples.segment(0, 0, 5).0, &[3, 1, 0, 2, 4]);
        assert_eq!(
            samples.segment(1, 0, 5),
            (&[3, 1, 0, 4, 2][..], &[1.0, 3.0, 4.0, 0.0, 2.0][..])
        );
    }

    #[test]
    fn max_features_fraction_must_be_in_unit_interval() {
        for f in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = TreeConfig {
                max_features: MaxFeatures::Frac(f),
                ..Default::default()
            };
            assert!(
                matches!(cfg.validate(), Err(MlError::InvalidConfig(_))),
                "Frac({f}) accepted"
            );
            let (x, y) = xor_data();
            assert!(DecisionTree::new(cfg).fit(&x, &y).is_err(), "Frac({f}) fit");
        }
        for f in [1e-9, 0.5, 1.0] {
            let cfg = TreeConfig {
                max_features: MaxFeatures::Frac(f),
                ..Default::default()
            };
            assert!(cfg.validate().is_ok(), "Frac({f}) rejected");
        }
    }

    /// The per-node sort the presort replaced, kept as the reference:
    /// grows the node list of a tree on `indices` by re-sorting every
    /// candidate feature at every node.
    fn reference_nodes(cfg: TreeConfig, x: &Matrix, y: &[u8], indices: &[usize]) -> Vec<Node> {
        fn build(
            cfg: &TreeConfig,
            nodes: &mut Vec<Node>,
            x: &Matrix,
            y: &[u8],
            idx: &mut [usize],
            depth: usize,
            rng: &mut StdRng,
        ) -> usize {
            let n = idx.len();
            let pos = idx.iter().map(|&i| y[i] as usize).sum::<usize>();
            let leaf = |nodes: &mut Vec<Node>| {
                nodes.push(Node::Leaf {
                    prob: pos as f64 / n as f64,
                });
                nodes.len() - 1
            };
            if pos == 0 || pos == n || depth >= cfg.max_depth || n < cfg.min_samples_split {
                return leaf(nodes);
            }
            let d = x.cols();
            let k = cfg.max_features.resolve(d);
            let candidates: Vec<usize> = if k >= d {
                (0..d).collect()
            } else {
                sample_without_replacement(d, k, rng)
            };
            let (nf, total_pos) = (n as f64, pos as f64);
            let parent = gini(total_pos, nf);
            let mut best: Option<(usize, f64, f64)> = None;
            for &f in &candidates {
                let mut pairs: Vec<(f64, u8)> = idx.iter().map(|&i| (x.get(i, f), y[i])).collect();
                pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut left_pos = 0.0;
                for s in 0..pairs.len() - 1 {
                    left_pos += pairs[s].1 as f64;
                    if pairs[s].0 == pairs[s + 1].0 {
                        continue;
                    }
                    let n_left = (s + 1) as f64;
                    let n_right = nf - n_left;
                    if (n_left as usize) < cfg.min_samples_leaf
                        || (n_right as usize) < cfg.min_samples_leaf
                    {
                        continue;
                    }
                    let child = (n_left * gini(left_pos, n_left)
                        + n_right * gini(total_pos - left_pos, n_right))
                        / nf;
                    let decrease = parent - child;
                    if best.is_none_or(|b| decrease > b.2) {
                        best = Some((f, 0.5 * (pairs[s].0 + pairs[s + 1].0), decrease));
                    }
                }
            }
            let Some((feature, threshold, decrease)) = best else {
                return leaf(nodes);
            };
            if decrease < cfg.min_impurity_decrease {
                return leaf(nodes);
            }
            let mut mid = 0;
            for i in 0..n {
                if x.get(idx[i], feature) <= threshold {
                    idx.swap(mid, i);
                    mid += 1;
                }
            }
            if mid < cfg.min_samples_leaf || n - mid < cfg.min_samples_leaf {
                return leaf(nodes);
            }
            let id = leaf(nodes);
            let (l, r) = idx.split_at_mut(mid);
            let left = build(cfg, nodes, x, y, l, depth + 1, rng) as u32;
            let right = build(cfg, nodes, x, y, r, depth + 1, rng) as u32;
            nodes[id] = Node::Split {
                feature: feature as u32,
                threshold,
                left,
                right,
            };
            id
        }
        let mut nodes = Vec::new();
        let mut rng = rng_from_seed(cfg.seed);
        build(&cfg, &mut nodes, x, y, &mut indices.to_vec(), 1, &mut rng);
        nodes
    }

    /// Every bit of a node list, so `-0.0` and `+0.0` thresholds differ.
    fn node_bits(nodes: &[Node]) -> Vec<(u32, u64, u32, u32)> {
        nodes
            .iter()
            .map(|node| match *node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
                Node::Leaf { prob } => (u32::MAX, prob.to_bits(), 0, 0),
            })
            .collect()
    }

    #[test]
    fn presorted_growth_is_the_per_node_sort_bit_for_bit() {
        use rand::RngExt;
        // Values with heavy ties, signed zeros and adjacent floats (whose
        // midpoint rounds onto the upper value), over bootstrap, subsample
        // and full-row samples and every kind of feature subsampling.
        let palette = [
            -0.0,
            0.0,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            -2.5,
            3.25,
            1e-300,
            -1e-300,
        ];
        let mut rng = rng_from_seed(0x7ee);
        for case in 0..160 {
            let n = rng.random_range(1..60usize);
            let d = rng.random_range(1..7usize);
            let data: Vec<f64> = (0..n * d)
                .map(|_| match rng.random_range(0..3usize) {
                    0 => rng.random_range(-4.0..4.0),
                    _ => palette[rng.random_range(0..palette.len())],
                })
                .collect();
            let x = Matrix::from_vec(n, d, data).unwrap();
            let y: Vec<u8> = (0..n).map(|_| rng.random_range(0..2usize) as u8).collect();
            let indices: Vec<usize> = match case % 3 {
                0 => (0..n).map(|_| rng.random_range(0..n)).collect(),
                1 => sample_without_replacement(n, n.div_ceil(2), &mut rng),
                _ => (0..n).collect(),
            };
            let min_samples_leaf = rng.random_range(1..4usize);
            let cfg = TreeConfig {
                max_depth: rng.random_range(1..9usize),
                min_samples_split: rng.random_range(1..3usize) * min_samples_leaf,
                min_samples_leaf,
                max_features: [
                    MaxFeatures::All,
                    MaxFeatures::Sqrt,
                    MaxFeatures::Count(1),
                    MaxFeatures::Frac(0.5),
                ][case % 4],
                min_impurity_decrease: [0.0, 0.01][case % 2],
                seed: case as u64,
            };
            let mut tree = DecisionTree::new(cfg);
            tree.fit_on_indices(&x, &y, &indices).unwrap();
            assert_eq!(
                node_bits(&tree.nodes),
                node_bits(&reference_nodes(cfg, &x, &y, &indices)),
                "case {case}: {n}x{d} {cfg:?}"
            );
        }
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
}
