//! Course-bits tier: pins the exact `f64` bits real model fits produce.
//!
//! For every (dataset × base model) pair — Random Forest and the paper's
//! 3-layer MLP on Titanic, Credit and Adult at a small profile — the
//! fixture `tests/fixtures/course_bits.txt` records `to_bits()` of:
//!
//! - M0, the isolated task-party accuracy;
//! - ΔG of every catalog bundle;
//! - `predict_proba` on the first test rows of a model fit on the full
//!   bundle (accuracies are coarse; probabilities expose any drift in the
//!   fitted weights or trees).
//!
//! The fixture was generated before the course kernels were rewritten, so
//! a pass here is the proof that they changed no output bit. A failure
//! prints every line that moved. Never regenerate the fixture to make a
//! kernel change pass: `write_fixture` (ignored) exists only to pin a new
//! reference on a commit whose bits *are* the reference.

use vfl_ml::{ForestConfig, MaxFeatures, TrainConfig};
use vfl_sim::{
    BaseModelConfig, BundleCatalog, BundleMask, CatalogStrategy, GainOracle, ScenarioConfig,
    VflScenario,
};
use vfl_tabular::synth::{self, DatasetId, SynthConfig};

const FIXTURE: &str = "tests/fixtures/course_bits.txt";

/// Rows of the synthetic dataset, then the train/test caps. The caps are
/// not multiples of 4, so the MLP's last batch (158 = 128 + 30) and its
/// test pass leave row remainders in every product.
const ROWS: usize = 300;
const MAX_TRAIN_ROWS: usize = 158;
const MAX_TEST_ROWS: usize = 77;
/// Catalog size once a dataset has too many features to enumerate.
const CATALOG_TARGET: usize = 8;
/// Test rows whose probabilities are pinned.
const PROBA_ROWS: usize = 12;

fn scenario(id: DatasetId) -> VflScenario {
    let dataset = synth::generate(id, SynthConfig::sized(ROWS, 21)).unwrap();
    let assignment = synth::party_assignment(id, &dataset).unwrap();
    VflScenario::build(
        &dataset,
        &assignment,
        &ScenarioConfig {
            train_frac: 0.7,
            max_train_rows: MAX_TRAIN_ROWS,
            max_test_rows: MAX_TEST_ROWS,
            seed: 22,
        },
    )
    .unwrap()
}

/// The two base models at the small profile: a 4-tree forest and the
/// `[64, 32]` MLP with batch 128.
fn models() -> [(&'static str, BaseModelConfig); 2] {
    [
        (
            "forest",
            BaseModelConfig::RandomForest(ForestConfig {
                n_trees: 4,
                max_depth: 4,
                min_samples_leaf: 4,
                max_features: MaxFeatures::Frac(0.7),
                bootstrap: true,
                n_threads: 1,
                seed: 23,
            }),
        ),
        (
            "mlp",
            BaseModelConfig::Mlp {
                hidden: [64, 32],
                train: TrainConfig {
                    epochs: 3,
                    batch_size: 128,
                    lr: 1e-2,
                    seed: 24,
                },
            },
        ),
    ]
}

fn catalog(n_features: usize) -> BundleCatalog {
    let strategy = if (1usize << n_features.min(20)) - 1 <= CATALOG_TARGET * 2 {
        CatalogStrategy::AllSubsets
    } else {
        CatalogStrategy::Sampled {
            target: CATALOG_TARGET,
            seed: 25,
        }
    };
    BundleCatalog::generate(n_features, strategy).unwrap()
}

/// One line per pinned value: `<cell> <quantity> <key> <bits as hex>`.
fn render() -> String {
    let mut out = String::new();
    for id in DatasetId::ALL {
        let scenario = scenario(id);
        let catalog = catalog(scenario.n_data_features());
        for (name, model) in models() {
            let cell = format!("{id}/{name}");
            let oracle = GainOracle::new(scenario.clone(), model, 26).unwrap();
            let mut line = |quantity: &str, key: String, v: f64| {
                out.push_str(&format!("{cell} {quantity} {key} {:016x}\n", v.to_bits()));
            };
            line("m0", "-".into(), oracle.base_performance());
            for &bundle in catalog.bundles() {
                line(
                    "gain",
                    format!("{:x}", bundle.0),
                    oracle.gain(bundle).unwrap(),
                );
            }
            let full = BundleMask::all(scenario.n_data_features());
            let (train, test) = scenario.joint_matrices(full).unwrap();
            let mut clf = model.build(27);
            clf.fit(&train, scenario.y_train()).unwrap();
            let proba = clf.predict_proba(&test).unwrap();
            for (i, &p) in proba.iter().take(PROBA_ROWS).enumerate() {
                line("proba", i.to_string(), p);
            }
        }
    }
    out
}

#[test]
fn course_bits_match_the_pinned_fixture() {
    let pinned: Vec<&str> = include_str!("fixtures/course_bits.txt")
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
        "{} of {} pinned course bits moved ({} rendered):\n{}",
        moved.len(),
        pinned.len(),
        fresh.len(),
        moved.join("\n")
    );
}

/// Rewrites the fixture from the current code. Run only on a commit whose
/// bits are meant to become the reference:
/// `cargo test --release -p vfl-sim --test course_bits -- --ignored`.
#[test]
#[ignore = "writes the fixture"]
fn write_fixture() {
    let header = "# Course bits: `<dataset>/<model> <quantity> <key> <f64::to_bits hex>`.\n\
                  # Pinned before the course kernels were rewritten; see tests/course_bits.rs.\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    std::fs::write(path, format!("{header}{}", render())).unwrap();
}
