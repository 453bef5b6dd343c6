//! Dense row-major `f64` matrix used as the common numeric interchange type
//! between the tabular, ML, and VFL crates.
//!
//! The matrix is deliberately simple: a contiguous `Vec<f64>` with row-major
//! layout, plus the handful of operations the reproduction needs (row/column
//! selection, horizontal stacking, transpose, and matrix multiplication with
//! transposed variants for the neural-network backward pass). The three
//! products share one register-tiled kernel whose accumulation order is
//! fixed: each output element sums its products in ascending inner index,
//! starting from `+0.0`, without fused multiply-add — so the bits do not
//! depend on the tiling or on which SIMD instance the CPU runs. The kernel
//! reads a transposed operand in place, and every product has a `*_into`
//! form that writes into a reused matrix.

use crate::error::{Result, TabularError};
use crate::gemm::{gemm_into, Mode};

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally sized rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TabularError::LengthMismatch {
                    expected: cols,
                    got: r.len(),
                    column: format!("row {i}"),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor. Panics on out-of-bounds access (debug-friendly; hot
    /// paths use `row()` slices instead).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a freshly allocated vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Returns a new matrix containing only the given rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out)?;
        Ok(out)
    }

    /// Returns a new matrix containing only the given columns (in order).
    pub fn select_cols(&self, indices: &[usize]) -> Result<Matrix> {
        for &c in indices {
            if c >= self.cols {
                return Err(TabularError::IndexOutOfBounds {
                    context: "Matrix::select_cols",
                    index: c,
                    len: self.cols,
                });
            }
        }
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in indices {
                data.push(row[c]);
            }
        }
        Ok(Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
        })
    }

    /// Horizontally stacks matrices that share a row count.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let rows = parts[0].rows;
        for p in parts {
            if p.rows != rows {
                return Err(TabularError::ShapeMismatch {
                    context: "Matrix::hstack",
                    lhs: (rows, parts[0].cols),
                    rhs: p.shape(),
                });
            }
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Vertically stacks matrices that share a column count.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = parts[0].cols;
        for p in parts {
            if p.cols != cols {
                return Err(TabularError::ShapeMismatch {
                    context: "Matrix::vstack",
                    lhs: (parts[0].rows, cols),
                    rhs: p.shape(),
                });
            }
        }
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros(cols, rows);
        for (r, row) in self.iter_rows().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * rows + r] = v;
            }
        }
        out
    }

    /// Sets the shape to `rows x cols`, keeping the allocation: the first
    /// `rows * cols` stored values stay in place and any new ones are zero.
    /// Grows the storage only when it is too small, so a buffer sized once
    /// for the largest shape is reshaped without allocating.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Writes the given rows (in order) into `out`, reshaping it to
    /// `indices.len() x self.cols()`: [`Matrix::select_rows`] into a reused
    /// buffer.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) -> Result<()> {
        if let Some(&i) = indices.iter().find(|&&i| i >= self.rows) {
            return Err(TabularError::IndexOutOfBounds {
                context: "Matrix::select_rows",
                index: i,
                len: self.rows,
            });
        }
        out.resize(indices.len(), self.cols);
        for (dst, &i) in out.data.chunks_exact_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(i));
        }
        Ok(())
    }

    /// `self * rhs`. Each output element sums its products in ascending
    /// inner index from `+0.0`, with no fused multiply-add, so every
    /// product here is bit-identical to the plain triple loop (see the
    /// `gemm` module for the contract).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] written into `out`, which is reshaped to the
    /// product's shape (reusing its allocation, see [`Matrix::resize`]).
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.rows, rhs.cols);
        gemm_into(
            Mode::Plain,
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(())
    }

    /// `self^T * rhs`, summed in ascending row order of `self` and `rhs`.
    /// The kernel reads the rows of `self` in place; no transpose is made.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::t_matmul`] written into `out`, which is reshaped to the
    /// product's shape.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.cols, rhs.cols);
        gemm_into(
            Mode::TransA,
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            self.rows,
            rhs.cols,
        );
        Ok(())
    }

    /// `self * rhs^T`, summed in ascending column order. The kernel packs
    /// `rhs` one column tile at a time; no transpose is made.
    pub fn matmul_t(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_t`] written into `out`, which is reshaped to the
    /// product's shape.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.rows, rhs.rows);
        gemm_into(
            Mode::TransB,
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
        );
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `rhs` element-wise in place.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TabularError::ShapeMismatch {
                context: "Matrix::add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum of every column, as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.col_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::col_sums`] written into `sums` (length `cols`): each sum
    /// starts at `+0.0` and adds the rows in order.
    pub fn col_sums_into(&self, sums: &mut [f64]) {
        assert_eq!(sums.len(), self.cols, "col_sums_into: output length");
        sums.fill(0.0);
        for r in 0..self.rows {
            for (s, v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Mean of every column, as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut sums = self.col_sums();
        let n = self.rows.max(1) as f64;
        for s in &mut sums {
            *s /= n;
        }
        sums
    }

    /// Frobenius norm, used for gradient sanity checks.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_right_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Matrix::zeros(2, 3);
        a.set(1, 2, 5.5);
        assert_eq!(a.get(1, 2), 5.5);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn row_and_col_extraction() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn select_rows_reorders() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(b.row(0), &[5.0, 6.0]);
        assert_eq!(b.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn select_rows_into_reuses_the_buffer() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::zeros(4, 2);
        let storage = out.as_slice().as_ptr();
        a.select_rows_into(&[2, 0, 2], &mut out).unwrap();
        assert_eq!(out, m(3, 2, &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]));
        a.select_rows_into(&[1], &mut out).unwrap();
        assert_eq!(out, m(1, 2, &[3.0, 4.0]));
        a.select_rows_into(&[0, 1, 2, 0], &mut out).unwrap();
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(out.as_slice().as_ptr(), storage, "no reallocation");
        assert!(a.select_rows_into(&[0, 3], &mut out).is_err());
    }

    #[test]
    fn resize_keeps_the_prefix_and_zero_fills() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.resize(1, 3);
        assert_eq!(a, m(1, 3, &[1.0, 2.0, 3.0]));
        a.resize(2, 3);
        assert_eq!(a, m(2, 3, &[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]));
    }

    #[test]
    fn select_rows_out_of_bounds() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(a.select_rows(&[5]).is_err());
    }

    #[test]
    fn select_cols_picks_subset() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.select_cols(&[0, 2]).unwrap();
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[1.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 6.0]);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn hstack_rejects_row_mismatch() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(3, 1, &[1.0, 2.0, 3.0]);
        assert!(Matrix::hstack(&[&a, &b]).is_err());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[0.5, 1.5, 2.5, 3.5, 4.5, 5.5]);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, 0.5, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0, 1.0, 0.0],
        );
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_moves_every_element() {
        for (rows, cols) in [(19, 11), (16, 8), (8, 1), (3, 9), (0, 4), (9, 0)] {
            let data = (0..rows * cols).map(|v| v as f64).collect();
            let a = Matrix::from_vec(rows, cols, data).unwrap();
            let t = a.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c), "{rows}x{cols} at ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_sums_and_means() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn map_and_scale() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_assign_elementwise() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        let b = m(1, 2, &[0.5, 0.5]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.5, 2.5]);
        let c = Matrix::zeros(2, 2);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn frobenius_norm_simple() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
