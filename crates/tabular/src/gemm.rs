//! The one product kernel behind [`Matrix::matmul`], [`Matrix::t_matmul`]
//! and [`Matrix::matmul_t`].
//!
//! **Accumulation-order contract.** Every output element is a sum that
//! starts at `+0.0` and adds the products `a[i][p] * b[p][j]` in ascending
//! `p`, each product rounded before it is added:
//! `c[i][j] = (((+0.0 + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …)`.
//! That is the order of the plain triple loop (the tests' reference), so
//! tiling never changes a bit. Two more details keep it so:
//!
//! - No zero skip is needed for exactness. For finite operands a term with
//!   `a == ±0.0` is `±0.0`, and adding `±0.0` to a sum that started at
//!   `+0.0` changes no bit: such a sum is never `−0.0`, because
//!   round-to-nearest gives `+0.0` for an exact zero sum and
//!   `+0.0 + −0.0 = +0.0`.
//! - No FMA. A fused multiply-add skips the product's rounding and so
//!   changes the bits; Rust never contracts `acc += x * y` on its own, and
//!   the AVX2 instance enables `avx2` only, not `fma`.
//!
//! The body is written once (`#[inline(always)]`) and instantiated twice:
//! a baseline build and an AVX2 build picked at run time.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Matrix::t_matmul`]: crate::Matrix::t_matmul
//! [`Matrix::matmul_t`]: crate::Matrix::matmul_t

/// Rows of a register tile.
const MR: usize = 4;
/// Columns of a register tile.
const NR: usize = 8;

/// Row-major `c = a · b` for an `m × k` matrix `a` and a `k × n` matrix `b`.
pub(crate) fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    let mut c = vec![0.0; m * n];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` only requires the `avx2` target feature,
        // which the CPU was just detected to support.
        unsafe { gemm_avx2(a, b, &mut c, m, k, n) };
        return c;
    }
    gemm_generic(a, b, &mut c, m, k, n);
    c
}

/// The baseline instance (SSE2 on x86-64).
fn gemm_generic(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_body(a, b, c, m, k, n);
}

/// The AVX2 instance: 4-wide vectors, still no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_body(a, b, c, m, k, n);
}

/// Walks `c` in `MR`-row blocks, then single rows for the remainder.
#[inline(always)]
fn gemm_body(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        row_block::<MR>(a, b, c, k, n, i);
        i += MR;
    }
    while i < m {
        row_block::<1>(a, b, c, k, n, i);
        i += 1;
    }
}

/// Rows `i..i + R` of `c` in `NR`-column tiles, then a 4-wide tile and
/// single columns for the remainder.
#[inline(always)]
fn row_block<const R: usize>(a: &[f64], b: &[f64], c: &mut [f64], k: usize, n: usize, i: usize) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR>(a, b, c, k, n, i, j);
        j += NR;
    }
    if j + 4 <= n {
        tile::<R, 4>(a, b, c, k, n, i, j);
        j += 4;
    }
    while j < n {
        tile::<R, 1>(a, b, c, k, n, i, j);
        j += 1;
    }
}

/// One `R × C` block of `c`, accumulated in registers over ascending `p`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    let mut acc = [[0.0f64; C]; R];
    for p in 0..k {
        let b_row: &[f64; C] = b[p * n + j..][..C].try_into().expect("C-wide slice");
        for r in 0..R {
            let x = a_rows[r][p];
            for q in 0..C {
                acc[r][q] += x * b_row[q];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..C].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// The original `matmul` loop, zero skip included.
    fn reference_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &x) in a[i * k..(i + 1) * k].iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// The original `t_matmul` loop: `a` is `k × m`, `b` is `k × n`.
    fn reference_t_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for r in 0..k {
            let b_row = &b[r * n..(r + 1) * n];
            for (i, &x) in a[r * m..(r + 1) * m].iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// The original `matmul_t` loop: `a` is `m × k`, `b` is `n × k`.
    fn reference_matmul_t(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for (x, y) in a[i * k..(i + 1) * k].iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn transpose(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut t = vec![0.0; a.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = a[r * cols + c];
            }
        }
        t
    }

    /// SplitMix64 stream of awkward operands: signed zeros, subnormals,
    /// values that cancel, and ordinary magnitudes.
    struct Operands(u64);

    impl Operands {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn value(&mut self) -> f64 {
            let r = self.next_u64();
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            match r % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(r >> 12) * if r & 1 == 0 { 1.0 } else { -1.0 },
                3 => 1.0,
                4 => -1.0,
                _ => unit * 8.0,
            }
        }

        fn matrix(&mut self, len: usize) -> Vec<f64> {
            (0..len).map(|_| self.value()).collect()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A kernel instance behind the `gemm` signature.
    type Instance = fn(&[f64], &[f64], usize, usize, usize) -> Vec<f64>;

    /// Every instance of the kernel this CPU can run.
    fn instances() -> Vec<(&'static str, Instance)> {
        let mut out: Vec<(&'static str, Instance)> = vec![
            ("dispatch", gemm),
            ("generic", |a, b, m, k, n| {
                let mut c = vec![0.0; m * n];
                gemm_generic(a, b, &mut c, m, k, n);
                c
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(("avx2", |a, b, m, k, n| {
                let mut c = vec![0.0; m * n];
                // SAFETY: pushed only when the CPU supports `avx2`.
                unsafe { gemm_avx2(a, b, &mut c, m, k, n) };
                c
            }));
        }
        out
    }

    /// Shapes covering full tiles, `m % 4 != 0`, `n % 8 != 0`, `n = 1`
    /// (the output layer), `k = 0`, `k = 1`, and the MLP's own shapes.
    const SHAPES: [(usize, usize, usize); 14] = [
        (1, 1, 1),
        (4, 3, 8),
        (5, 7, 9),
        (3, 2, 13),
        (7, 0, 5),
        (6, 1, 12),
        (9, 17, 1),
        (128, 32, 1),
        (13, 5, 4),
        (2, 64, 3),
        (30, 29, 64),
        (128, 29, 64),
        (128, 64, 32),
        (29, 128, 64),
    ];

    #[test]
    fn kernel_is_bit_identical_to_the_reference_loops() {
        let mut ops = Operands(0x5eed);
        for &(m, k, n) in &SHAPES {
            for _ in 0..3 {
                let a = ops.matrix(m * k);
                let b = ops.matrix(k * n);
                let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
                // The three original loops agree bit for bit (the zero
                // skip of the first two changes nothing) ...
                let want = bits(&reference_matmul(&a, &b, m, k, n));
                let shape = format!("{m}x{k}x{n}");
                assert_eq!(bits(&reference_t_matmul(&at, &b, m, k, n)), want, "{shape}");
                assert_eq!(bits(&reference_matmul_t(&a, &bt, m, k, n)), want, "{shape}");
                // ... and every kernel instance reproduces them,
                for (name, f) in instances() {
                    assert_eq!(bits(&f(&a, &b, m, k, n)), want, "{name} {shape}");
                }
                // as do the three `Matrix` products through their
                // transposed copies.
                let mat = |rows, cols, v: &[f64]| Matrix::from_vec(rows, cols, v.to_vec()).unwrap();
                let (am, bm) = (mat(m, k, &a), mat(k, n, &b));
                let products = [
                    ("matmul", am.matmul(&bm)),
                    ("t_matmul", mat(k, m, &at).t_matmul(&bm)),
                    ("matmul_t", am.matmul_t(&mat(n, k, &bt))),
                ];
                for (name, got) in products {
                    let got = got.unwrap();
                    assert_eq!(got.shape(), (m, n), "Matrix::{name} {shape}");
                    assert_eq!(bits(got.as_slice()), want, "Matrix::{name} {shape}");
                }
            }
        }
    }

    #[test]
    fn cancelling_sums_stay_positive_zero() {
        // (+0.0) + (−0.0) and x + (−x) must both round to +0.0, as in the
        // reference loops.
        let a = [-0.0, 2.0, -2.0, -0.0];
        let b = [1.0, 3.0, 3.0, 5.0];
        for (name, f) in instances() {
            let c = f(&a, &b, 1, 4, 1);
            assert_eq!(c[0].to_bits(), 0, "{name}");
        }
    }
}
