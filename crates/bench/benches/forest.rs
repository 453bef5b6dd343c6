//! Benchmark of the random-forest substrate (the Figure 2 base model):
//! training and prediction on Titanic-shaped data, and one course fit at
//! the exchange benchmark's forest cell shape.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vfl_ml::{Classifier, ForestConfig, MaxFeatures, RandomForest};
use vfl_sim::{BundleMask, ScenarioConfig, VflScenario};
use vfl_tabular::synth::{self, SynthConfig};
use vfl_tabular::DatasetId;

fn bench_forest(c: &mut Criterion) {
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
    let y = scenario.y_train().to_vec();

    let mut group = c.benchmark_group("forest");
    for (trees, threads) in [(12usize, 1usize), (12, 4), (40, 4)] {
        group.bench_function(format!("fit_{trees}trees_{threads}threads"), |b| {
            b.iter(|| {
                let mut f = RandomForest::new(ForestConfig {
                    n_trees: trees,
                    max_depth: 8,
                    min_samples_leaf: 4,
                    max_features: MaxFeatures::Frac(0.7),
                    bootstrap: true,
                    n_threads: threads,
                    seed: 5,
                });
                f.fit(black_box(&train), black_box(&y)).unwrap();
                black_box(f)
            })
        });
    }

    // One course fit at the exchange benchmark's forest cell shape: 300 x 29
    // input, 12 single-threaded trees of depth 6.
    let cell = VflScenario::build(
        &ds,
        &assignment,
        &ScenarioConfig {
            max_train_rows: 300,
            max_test_rows: 160,
            seed: 2,
            train_frac: 0.7,
        },
    )
    .unwrap();
    let (cell_train, _) = cell.joint_matrices(BundleMask::all(5)).unwrap();
    assert_eq!(cell_train.shape(), (300, 29), "cell-shape input");
    let cell_y = cell.y_train().to_vec();
    group.bench_function("course_fit_300x29_depth6_12trees", |b| {
        b.iter(|| {
            let mut f = RandomForest::new(ForestConfig {
                n_trees: 12,
                max_depth: 6,
                min_samples_leaf: 4,
                max_features: MaxFeatures::Frac(0.7),
                bootstrap: true,
                n_threads: 1,
                seed: 5,
            });
            f.fit(black_box(&cell_train), black_box(&cell_y)).unwrap();
            black_box(f)
        })
    });

    let mut fitted = RandomForest::new(ForestConfig {
        n_trees: 20,
        ..Default::default()
    });
    fitted.fit(&train, &y).unwrap();
    group.bench_function("predict_180_rows", |b| {
        b.iter(|| black_box(fitted.predict_proba(black_box(&test)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_forest
);
criterion_main!(benches);
