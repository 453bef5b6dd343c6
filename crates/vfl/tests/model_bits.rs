//! Model-bits tier: pins the exact `f64` bits of the fits `course_bits`
//! does not reach.
//!
//! `course_bits` covers the two base models as the oracle trains them.
//! This fixture, `tests/fixtures/model_bits.txt`, adds:
//!
//! - a GBDT fit (`MaxFeatures::All`, subsampled rows): the one caller of
//!   `DecisionTree::fit_on_indices` outside the forest;
//! - a forest at `benches/forest.rs` shape (400 rows, depth 8, 12 trees);
//! - a `bootstrap: false` forest, whose every tree sees each row once;
//! - a deep single tree with one candidate feature per split;
//! - a sigmoid-activated MLP classifier whose last batch is a remainder;
//! - `MlpRegressor::train_batch` losses and predictions after a few steps,
//!   plus the input gradient of `train_batch_with_input_grad` (the
//!   estimator backbone shares `Mlp` with the base model).
//!
//! The fixture was written on the commit before the course kernels gained
//! the presorted tree and the MLP workspace, so a pass here proves those
//! rewrites changed no output bit. Never regenerate it to make a kernel
//! change pass; `write_fixture` (ignored) exists only to pin a new
//! reference on a commit whose bits *are* the reference.

use vfl_ml::{
    Activation, Classifier, DecisionTree, ForestConfig, GbdtConfig, GradientBoosting, MaxFeatures,
    MlpClassifier, MlpRegressor, RandomForest, TrainConfig, TreeConfig,
};
use vfl_sim::{BundleMask, ScenarioConfig, VflScenario};
use vfl_tabular::synth::{self, DatasetId, SynthConfig};
use vfl_tabular::Matrix;

const FIXTURE: &str = "tests/fixtures/model_bits.txt";

/// Test rows whose probabilities are pinned.
const PROBA_ROWS: usize = 16;

/// Titanic at the forest bench's shape: 400 train rows, 180 test rows.
fn titanic() -> (Matrix, Vec<u8>, Matrix) {
    let ds = synth::generate(DatasetId::Titanic, SynthConfig::sized(600, 1)).unwrap();
    let assignment = synth::party_assignment(DatasetId::Titanic, &ds).unwrap();
    let scenario = VflScenario::build(
        &ds,
        &assignment,
        &ScenarioConfig {
            max_train_rows: 400,
            max_test_rows: 180,
            seed: 2,
            train_frac: 0.7,
        },
    )
    .unwrap();
    let (train, test) = scenario.joint_matrices(BundleMask::all(5)).unwrap();
    (train, scenario.y_train().to_vec(), test)
}

/// The classifiers pinned on the Titanic split.
fn classifiers() -> Vec<(&'static str, Box<dyn Classifier>)> {
    vec![
        (
            "gbdt",
            Box::new(GradientBoosting::new(GbdtConfig {
                n_stages: 12,
                max_depth: 4,
                min_samples_leaf: 4,
                learning_rate: 0.2,
                subsample: 0.8,
                seed: 31,
            })),
        ),
        (
            "forest_bench_shape",
            Box::new(RandomForest::new(ForestConfig {
                n_trees: 12,
                max_depth: 8,
                min_samples_leaf: 4,
                max_features: MaxFeatures::Frac(0.7),
                bootstrap: true,
                n_threads: 1,
                seed: 5,
            })),
        ),
        (
            "forest_no_bootstrap",
            Box::new(RandomForest::new(ForestConfig {
                n_trees: 5,
                max_depth: 6,
                min_samples_leaf: 2,
                max_features: MaxFeatures::Sqrt,
                bootstrap: false,
                n_threads: 1,
                seed: 32,
            })),
        ),
        (
            "tree_deep_one_feature",
            Box::new(DecisionTree::new(TreeConfig {
                max_depth: 12,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: MaxFeatures::Count(1),
                min_impurity_decrease: 0.0,
                seed: 33,
            })),
        ),
        (
            "mlp_sigmoid",
            Box::new(
                MlpClassifier::new(
                    vec![16, 8],
                    TrainConfig {
                        epochs: 4,
                        batch_size: 48,
                        lr: 1e-2,
                        seed: 34,
                    },
                )
                .with_activation(Activation::Sigmoid),
            ),
        ),
    ]
}

/// A deterministic `rows x cols` regressor input with its targets.
fn regression_batch(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f64 / 50.0 - 1.0) * if i % 7 == 0 { -0.5 } else { 1.0 })
        .collect();
    let x = Matrix::from_vec(rows, cols, data).unwrap();
    let targets = (0..rows).map(|r| (r as f64 * 0.37).sin()).collect();
    (x, targets)
}

/// One line per pinned value: `<cell> <quantity> <key> <bits as hex>`.
fn render() -> String {
    let mut out = String::new();
    let mut line = |cell: &str, quantity: &str, key: String, v: f64| {
        out.push_str(&format!("{cell} {quantity} {key} {:016x}\n", v.to_bits()));
    };

    let (train, y, test) = titanic();
    for (cell, mut clf) in classifiers() {
        clf.fit(&train, &y).unwrap();
        let proba = clf.predict_proba(&test).unwrap();
        for (i, &p) in proba.iter().take(PROBA_ROWS).enumerate() {
            line(cell, "proba", i.to_string(), p);
        }
    }

    // The estimators' backbone: 3 -> 64/32/16 -> 1 on an awkward batch.
    let (x, targets) = regression_batch(37, 3);
    let mut reg = MlpRegressor::new(3, &[64, 32, 16], 3e-3, 35);
    for step in 0..4 {
        line(
            "regressor",
            "loss",
            step.to_string(),
            reg.train_batch(&x, &targets),
        );
    }
    let (loss, dx) = reg.train_batch_with_input_grad(&x, &targets);
    line("regressor", "loss", "4".into(), loss);
    for (i, &g) in dx.as_slice().iter().take(PROBA_ROWS).enumerate() {
        line("regressor", "dx", i.to_string(), g);
    }
    for (i, &p) in reg.predict(&x).iter().take(PROBA_ROWS).enumerate() {
        line("regressor", "pred", i.to_string(), p);
    }
    out
}

#[test]
fn model_bits_match_the_pinned_fixture() {
    let pinned: Vec<&str> = include_str!("fixtures/model_bits.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let fresh = render();
    let fresh: Vec<&str> = fresh.lines().collect();
    let moved: Vec<String> = pinned
        .iter()
        .zip(&fresh)
        .filter(|(p, f)| p != f)
        .map(|(p, f)| format!("  pinned {p}\n  now    {f}"))
        .collect();
    assert!(
        moved.is_empty() && pinned.len() == fresh.len(),
        "{} of {} pinned model bits moved ({} rendered):\n{}",
        moved.len(),
        pinned.len(),
        fresh.len(),
        moved.join("\n")
    );
}

/// Rewrites the fixture from the current code. Run only on a commit whose
/// bits are meant to become the reference:
/// `cargo test --release -p vfl-sim --test model_bits -- --ignored`.
#[test]
#[ignore = "writes the fixture"]
fn write_fixture() {
    let header = "# Model bits: `<cell> <quantity> <key> <f64::to_bits hex>`.\n\
                  # Pinned before the presorted tree and the MLP workspace; see tests/model_bits.rs.\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    std::fs::write(path, format!("{header}{}", render())).unwrap();
}
