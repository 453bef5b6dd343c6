//! Benchmark of the MLP substrate (the Figure 3 base model and the §4.4
//! estimator backbone): training and inference cost, one course fit at the
//! exchange benchmark's cell shape, and the three `Matrix` products the
//! forward and backward passes are made of.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vfl_ml::{Classifier, MlpClassifier, MlpRegressor, TrainConfig};
use vfl_sim::{BundleMask, ScenarioConfig, VflScenario};
use vfl_tabular::synth::{self, SynthConfig};
use vfl_tabular::{DatasetId, Matrix};

fn bench_mlp(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("mlp");
    group.bench_function("classifier_fit_5_epochs", |b| {
        b.iter(|| {
            let mut clf = MlpClassifier::new(
                vec![64, 32],
                TrainConfig {
                    epochs: 5,
                    batch_size: 128,
                    lr: 1e-2,
                    seed: 3,
                },
            );
            clf.fit(black_box(&train), black_box(&y)).unwrap();
            black_box(clf)
        })
    });
    let mut fitted = MlpClassifier::new(
        vec![64, 32],
        TrainConfig {
            epochs: 5,
            batch_size: 128,
            lr: 1e-2,
            seed: 3,
        },
    );
    fitted.fit(&train, &y).unwrap();
    group.bench_function("classifier_predict_180", |b| {
        b.iter(|| black_box(fitted.predict_proba(black_box(&test)).unwrap()))
    });

    // One course fit at the exchange benchmark's cell shape: 300 x 29
    // input, [64, 32] hiddens, 10 epochs, batch 128.
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
    group.bench_function("classifier_fit_300x29_10_epochs", |b| {
        b.iter(|| {
            let mut clf = MlpClassifier::new(
                vec![64, 32],
                TrainConfig {
                    epochs: 10,
                    batch_size: 128,
                    lr: 1e-2,
                    seed: 3,
                },
            );
            clf.fit(black_box(&cell_train), black_box(&cell_y)).unwrap();
            black_box(clf)
        })
    });

    // Estimator-shaped regressor: 3 -> 64/32/16 -> 1 on a 128-sample buffer.
    let x = Matrix::from_rows(
        &(0..128)
            .map(|i| vec![i as f64 / 128.0, 0.5, 1.0])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let targets: Vec<f64> = (0..128).map(|i| (i as f64 / 128.0).sin()).collect();
    group.bench_function("regressor_train_batch_128", |b| {
        let mut reg = MlpRegressor::new(3, &[64, 32, 16], 3e-3, 7);
        b.iter(|| black_box(reg.train_batch(black_box(&x), black_box(&targets))))
    });
    group.finish();
}

/// Pseudo-random `rows x cols` operand (an LCG; the values only need to be
/// non-trivial).
fn operand(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// The three `Matrix` products at the MLP's forward shapes, each computing
/// an `m x n` result over inner dimension `k`.
fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for (m, k, n) in [(128usize, 29usize, 64usize), (128, 64, 32)] {
        let a = operand(m, k, 1);
        let b = operand(k, n, 2);
        let a_t = a.transpose();
        let b_t = b.transpose();
        group.bench_function(format!("matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(black_box(&a).matmul(black_box(&b)).unwrap()))
        });
        group.bench_function(format!("t_matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(black_box(&a_t).t_matmul(black_box(&b)).unwrap()))
        });
        group.bench_function(format!("matmul_t_{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(black_box(&a).matmul_t(black_box(&b_t)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mlp, bench_matmul
);
criterion_main!(benches);
