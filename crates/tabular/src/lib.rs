//! # vfl-tabular
//!
//! Column-typed tabular data substrate for the `vfl-bargain` reproduction of
//! *"A Bargaining-based Approach for Feature Trading in Vertical Federated
//! Learning"* (Cui et al., ICDE 2025).
//!
//! Provides:
//! * [`schema::Schema`] / [`frame::Frame`] / [`frame::Dataset`] — typed
//!   column storage with validation;
//! * [`matrix::Matrix`] — the dense `f64` interchange type shared with the
//!   ML and VFL crates;
//! * [`encode`] — one-hot encoding with an origin map so indicator columns
//!   of one original feature stay together (paper §4.1.1);
//! * [`split`] — train/test and vertical (two-party) splits;
//! * [`synth`] — deterministic synthetic stand-ins for the Titanic, Credit,
//!   and Adult datasets matching the paper's Table 2 shapes;
//! * [`csv`] — minimal CSV I/O for real-data substitution and experiment
//!   output;
//! * [`stats`] — aggregation helpers (mean/CI series, KDE) for the
//!   experiment harness.

pub mod column;
pub mod csv;
pub mod encode;
pub mod error;
pub mod frame;
mod gemm;
pub mod matrix;
pub mod schema;
pub mod split;
pub mod stats;
pub mod synth;

pub use column::Column;
pub use encode::{encode_frame, FeatureMap, Standardizer};
pub use error::{Result, TabularError};
pub use frame::{Dataset, Frame};
pub use matrix::Matrix;
pub use schema::{ColumnKind, ColumnSpec, Schema};
pub use split::{train_test_indices, PartyAssignment, TrainTestIndices};
pub use synth::{DatasetId, DatasetMeta, SynthConfig};
