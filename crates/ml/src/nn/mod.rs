//! Neural-network building blocks with manual backprop: linear layers,
//! activations, losses, Adam, MLPs, and an embedding table. No external ML
//! framework — this is the substrate the paper's PyTorch models map onto.

pub mod activation;
pub mod embedding;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use activation::Activation;
pub use embedding::Embedding;
pub use linear::Linear;
pub use loss::{bce_with_logits, mse_loss, probs_from_logits};
pub use mlp::{Mlp, MlpClassifier, MlpRegressor, TrainConfig};
pub use optim::{sgd_step, AdamConfig, AdamState};
