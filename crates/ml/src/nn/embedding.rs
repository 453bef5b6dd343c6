//! Learnable embedding table with mean pooling — the data party's bundle
//! featurizer: "embed each singular feature ... then take the average of
//! each feature variable's embedding as the representation of the whole
//! feature bundle" (paper §4.4).

use crate::nn::optim::{AdamConfig, AdamState};
use crate::rng::normal;
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// `vocab x dim` embedding table trained with Adam.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Matrix,
    grad: Matrix,
    opt: AdamState,
    /// The last training batch's id lists, kept for backprop and refilled
    /// in place by each [`Embedding::forward_mean`].
    cached_batch: Option<Vec<Vec<u32>>>,
}

impl Embedding {
    /// New table initialized ~N(0, 0.1²).
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        let mut table = Matrix::zeros(vocab, dim);
        for v in table.as_mut_slice() {
            *v = 0.1 * normal(rng);
        }
        Embedding {
            grad: Matrix::zeros(vocab, dim),
            opt: AdamState::new(vocab * dim),
            table,
            cached_batch: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    fn pool_into(&self, batch: &[Vec<u32>], out: &mut Matrix) {
        for (r, ids) in batch.iter().enumerate() {
            if ids.is_empty() {
                continue; // empty bundle pools to the zero vector
            }
            let inv = 1.0 / ids.len() as f64;
            for &id in ids {
                debug_assert!(
                    (id as usize) < self.table.rows(),
                    "embedding id out of range"
                );
                let src = self.table.row(id as usize);
                for (o, s) in out.row_mut(r).iter_mut().zip(src) {
                    *o += s * inv;
                }
            }
        }
    }

    /// Mean-pooled embeddings for a batch of id lists (training: caches the
    /// batch for backprop).
    pub fn forward_mean(&mut self, batch: &[Vec<u32>]) -> Matrix {
        let mut out = Matrix::zeros(batch.len(), self.dim());
        self.pool_into(batch, &mut out);
        let cached = self.cached_batch.get_or_insert_with(Vec::new);
        cached.resize_with(batch.len(), Vec::new);
        for (kept, ids) in cached.iter_mut().zip(batch) {
            kept.clear();
            kept.extend_from_slice(ids);
        }
        out
    }

    /// Mean-pooled embeddings without caching (inference).
    pub fn forward_mean_inference(&self, batch: &[Vec<u32>]) -> Matrix {
        let mut out = Matrix::zeros(batch.len(), self.dim());
        self.pool_into(batch, &mut out);
        out
    }

    /// Scatters the pooled gradient back onto the table rows.
    pub fn backward_mean(&mut self, d_pooled: &Matrix) {
        let Embedding {
            grad, cached_batch, ..
        } = self;
        let batch = cached_batch
            .as_ref()
            .expect("embedding backward before forward");
        assert_eq!(d_pooled.rows(), batch.len(), "embedding grad batch size");
        assert_eq!(d_pooled.cols(), grad.cols(), "embedding grad dim");
        grad.scale(0.0);
        for (r, ids) in batch.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let inv = 1.0 / ids.len() as f64;
            for &id in ids {
                let row = d_pooled.row(r);
                for (g, d) in grad.row_mut(id as usize).iter_mut().zip(row) {
                    *g += d * inv;
                }
            }
        }
    }

    /// Adam step on the whole table.
    pub fn step(&mut self, cfg: &AdamConfig) {
        // Split borrows: table (params) vs grad.
        let Embedding {
            table, grad, opt, ..
        } = self;
        opt.step(table.as_mut_slice(), grad.as_slice(), cfg);
    }

    /// Read access to the table (tests / inspection).
    pub fn table(&self) -> &Matrix {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn pooling_is_the_mean() {
        let mut rng = rng_from_seed(1);
        let mut emb = Embedding::new(4, 3, &mut rng);
        let batch = vec![vec![0, 2], vec![1], vec![]];
        let out = emb.forward_mean(&batch);
        for c in 0..3 {
            let expected = 0.5 * (emb.table().get(0, c) + emb.table().get(2, c));
            assert!((out.get(0, c) - expected).abs() < 1e-12);
            assert_eq!(out.get(1, c), emb.table().get(1, c));
            assert_eq!(out.get(2, c), 0.0);
        }
    }

    #[test]
    fn backward_distributes_by_membership() {
        let mut rng = rng_from_seed(2);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let batch = vec![vec![0, 1]];
        let _ = emb.forward_mean(&batch);
        let mut d = Matrix::zeros(1, 2);
        d.set(0, 0, 1.0);
        emb.backward_mean(&d);
        // Each member receives d/2; the untouched row stays zero.
        assert!((emb.grad.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((emb.grad.get(1, 0) - 0.5).abs() < 1e-12);
        assert_eq!(emb.grad.get(2, 0), 0.0);
    }

    #[test]
    fn gradient_step_moves_only_touched_rows() {
        let mut rng = rng_from_seed(3);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let before_untouched = emb.table().row(2).to_vec();
        let batch = vec![vec![0]];
        let _ = emb.forward_mean(&batch);
        emb.backward_mean(&Matrix::filled(1, 2, 1.0));
        emb.step(&AdamConfig::with_lr(0.1));
        assert_eq!(
            emb.table().row(2),
            &before_untouched[..],
            "untouched row must not move"
        );
    }

    #[test]
    fn learns_to_separate_two_tokens() {
        // Regression target: token 0 -> +1, token 1 -> -1, readout = first coord.
        let mut rng = rng_from_seed(4);
        let mut emb = Embedding::new(2, 1, &mut rng);
        let cfg = AdamConfig::with_lr(0.05);
        for _ in 0..300 {
            let batch = vec![vec![0], vec![1]];
            let out = emb.forward_mean(&batch);
            let mut d = Matrix::zeros(2, 1);
            d.set(0, 0, out.get(0, 0) - 1.0);
            d.set(1, 0, out.get(1, 0) + 1.0);
            emb.backward_mean(&d);
            emb.step(&cfg);
        }
        assert!((emb.table().get(0, 0) - 1.0).abs() < 0.05);
        assert!((emb.table().get(1, 0) + 1.0).abs() < 0.05);
    }
}
