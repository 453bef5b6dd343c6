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
//! Transposed operands are read where they lie, never copied whole:
//! [`Mode::TransA`] walks the rows of `Aᵀ` (each holds `MR` contiguous
//! values of one column of `A`), and [`Mode::TransB`] packs one `k × NR`
//! panel of `B` per column tile into a per-thread buffer. Neither changes
//! which products are summed or in what order.
//!
//! The body is written once (`#[inline(always)]`) and instantiated twice
//! per mode: a baseline build and an AVX2 build picked at run time.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Matrix::t_matmul`]: crate::Matrix::t_matmul
//! [`Matrix::matmul_t`]: crate::Matrix::matmul_t

/// Rows of a register tile.
const MR: usize = 4;
/// Columns of a register tile.
const NR: usize = 8;

/// How the kernel reads its operands. The product is always the `m × n`
/// matrix `A · B` over inner dimension `k`; the mode says how `A` and `B`
/// are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// `a` holds `A` (`m × k`) and `b` holds `B` (`k × n`), row-major.
    Plain,
    /// `a` holds `Aᵀ` (`k × m`): the kernel reads the rows of `Aᵀ` in place.
    TransA,
    /// `b` holds `Bᵀ` (`n × k`): the kernel packs one `k × NR` panel of `B`
    /// per column tile into a per-thread buffer.
    TransB,
}

thread_local! {
    /// The `TransB` panel, kept across calls so a packed product allocates
    /// only the first time a thread meets a larger `k`.
    static PANEL: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Writes `c = A · B` into `c` (`m × n`, row-major), reading `a` and `b`
/// as `mode` says. Every element of `c` is overwritten.
pub(crate) fn gemm_into(
    mode: Mode,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(c.len(), m * n, "gemm: output length");
    if mode != Mode::TransB {
        dispatch(mode, a, b, c, m, k, n, &mut []);
        return;
    }
    PANEL.with(|cell| {
        let mut panel = cell.take();
        panel.resize(panel.len().max(k * NR), 0.0);
        dispatch(mode, a, b, c, m, k, n, &mut panel);
        cell.set(panel);
    });
}

/// Picks the instruction-set instance, then the operand mode.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    mode: Mode,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` only requires the `avx2` target feature,
        // which the CPU was just detected to support.
        unsafe { gemm_avx2(mode, a, b, c, m, k, n, panel) };
        return;
    }
    gemm_generic(mode, a, b, c, m, k, n, panel);
}

/// The baseline instance (SSE2 on x86-64).
#[allow(clippy::too_many_arguments)]
fn gemm_generic(
    mode: Mode,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut [f64],
) {
    gemm_body(mode, a, b, c, m, k, n, panel);
}

/// The AVX2 instance: 4-wide vectors, still no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    mode: Mode,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut [f64],
) {
    gemm_body(mode, a, b, c, m, k, n, panel);
}

/// The body of every instance: the operand mode picks the walk.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_body(
    mode: Mode,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut [f64],
) {
    match mode {
        Mode::Plain => row_blocks::<false>(a, b, c, m, k, n),
        Mode::TransA => row_blocks::<true>(a, b, c, m, k, n),
        Mode::TransB => packed_col_blocks(a, b, c, m, k, n, panel),
    }
}

/// Walks `c` in `MR`-row blocks, then single rows. `AT`: `a` holds `Aᵀ`.
#[inline(always)]
fn row_blocks<const AT: bool>(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        row_block::<MR, AT>(a, b, c, m, k, n, i);
        i += MR;
    }
    while i < m {
        row_block::<1, AT>(a, b, c, m, k, n, i);
        i += 1;
    }
}

/// Walks `c` in `NR`-column blocks, then a 4-wide block and single
/// columns, packing each block's slice of `B` from the stored `Bᵀ`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed_col_blocks(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut [f64],
) {
    let mut j = 0;
    while j + NR <= n {
        packed_col_block::<NR>(a, b, c, m, k, n, j, panel);
        j += NR;
    }
    if j + 4 <= n {
        packed_col_block::<4>(a, b, c, m, k, n, j, panel);
        j += 4;
    }
    while j < n {
        packed_col_block::<1>(a, b, c, m, k, n, j, panel);
        j += 1;
    }
}

/// Rows `i..i + R` of `c` in `NR`-column tiles, then a 4-wide tile and
/// single columns for the remainder; `b` is read in place.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_block<const R: usize, const AT: bool>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    i: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        tile::<R, NR, AT>(a, b, n, j, c, m, k, n, i, j);
        j += NR;
    }
    if j + 4 <= n {
        tile::<R, 4, AT>(a, b, n, j, c, m, k, n, i, j);
        j += 4;
    }
    while j < n {
        tile::<R, 1, AT>(a, b, n, j, c, m, k, n, i, j);
        j += 1;
    }
}

/// Columns `j..j + C` of `c` when `b` holds `Bᵀ`: packs the block's
/// `k × C` slice of `B` once, so every tile reads it as contiguous `C`-wide
/// rows, then walks the rows of `c` in `MR`-row tiles.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed_col_block<const C: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    panel: &mut [f64],
) {
    let panel = &mut panel[..k * C];
    for q in 0..C {
        for (p, &v) in b[(j + q) * k..][..k].iter().enumerate() {
            panel[p * C + q] = v;
        }
    }
    let mut i = 0;
    while i + MR <= m {
        tile::<MR, C, false>(a, panel, C, 0, c, m, k, n, i, j);
        i += MR;
    }
    while i < m {
        tile::<1, C, false>(a, panel, C, 0, c, m, k, n, i, j);
        i += 1;
    }
}

/// One `R × C` block of `c` at `(i, j)`, accumulated in registers over
/// ascending `p`. Row `p` of the `B` block is `b[b0 + p·ldb..][..C]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const C: usize, const AT: bool>(
    a: &[f64],
    b: &[f64],
    ldb: usize,
    b0: usize,
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    // Without `AT`, the `R` rows of `A` this tile reads.
    let a_rows: [&[f64]; R] =
        std::array::from_fn(|r| if AT { &[][..] } else { &a[(i + r) * k..][..k] });
    let mut acc = [[0.0f64; C]; R];
    for p in 0..k {
        // Column `p` of the tile's rows of `A`; with `AT` it is row `p` of
        // `Aᵀ`, `R` contiguous values.
        let x: [f64; R] = if AT {
            a[p * m + i..][..R].try_into().expect("R-wide slice")
        } else {
            let mut x = [0.0; R];
            for r in 0..R {
                x[r] = a_rows[r][p];
            }
            x
        };
        let b_row: &[f64; C] = b[b0 + p * ldb..][..C].try_into().expect("C-wide slice");
        for r in 0..R {
            for q in 0..C {
                acc[r][q] += x[r] * b_row[q];
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

    /// A kernel instance behind the `gemm_into` signature.
    type Instance = fn(Mode, &[f64], &[f64], &mut [f64], usize, usize, usize);

    /// A panel as large as any `TransB` product in these tests needs.
    fn panel(k: usize) -> Vec<f64> {
        vec![f64::NAN; k * NR]
    }

    /// Every instance of the kernel this CPU can run.
    fn instances() -> Vec<(&'static str, Instance)> {
        let mut out: Vec<(&'static str, Instance)> = vec![
            ("dispatch", gemm_into),
            ("generic", |mode, a, b, c, m, k, n| {
                gemm_generic(mode, a, b, c, m, k, n, &mut panel(k))
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(("avx2", |mode, a, b, c, m, k, n| {
                // SAFETY: pushed only when the CPU supports `avx2`.
                unsafe { gemm_avx2(mode, a, b, c, m, k, n, &mut panel(k)) }
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
                // ... and every kernel instance reproduces them in every
                // operand mode, over an output that starts dirty,
                let modes = [
                    (Mode::Plain, &a, &b),
                    (Mode::TransA, &at, &b),
                    (Mode::TransB, &a, &bt),
                ];
                for (name, f) in instances() {
                    for &(mode, lhs, rhs) in &modes {
                        let mut c = vec![f64::NAN; m * n];
                        f(mode, lhs, rhs, &mut c, m, k, n);
                        assert_eq!(bits(&c), want, "{name} {mode:?} {shape}");
                    }
                }
                // as do the three `Matrix` products and their write-into
                // forms, whose output buffer starts at another shape.
                let mat = |rows, cols, v: &[f64]| Matrix::from_vec(rows, cols, v.to_vec()).unwrap();
                let (am, bm) = (mat(m, k, &a), mat(k, n, &b));
                let (atm, btm) = (mat(k, m, &at), mat(n, k, &bt));
                let products = [
                    ("matmul", am.matmul(&bm)),
                    ("t_matmul", atm.t_matmul(&bm)),
                    ("matmul_t", am.matmul_t(&btm)),
                ];
                for (name, got) in products {
                    let got = got.unwrap();
                    assert_eq!(got.shape(), (m, n), "Matrix::{name} {shape}");
                    assert_eq!(bits(got.as_slice()), want, "Matrix::{name} {shape}");
                }
                type Into = fn(&Matrix, &Matrix, &mut Matrix) -> crate::Result<()>;
                let into: [(&str, &Matrix, &Matrix, Into); 3] = [
                    ("matmul_into", &am, &bm, Matrix::matmul_into),
                    ("t_matmul_into", &atm, &bm, Matrix::t_matmul_into),
                    ("matmul_t_into", &am, &btm, Matrix::matmul_t_into),
                ];
                for (name, lhs, rhs, f) in into {
                    for (rows, cols) in [(0, 0), (m + 3, n + 1), (1, m * n)] {
                        let mut out = Matrix::filled(rows, cols, f64::NAN);
                        f(lhs, rhs, &mut out).unwrap();
                        assert_eq!(out.shape(), (m, n), "Matrix::{name} {shape}");
                        assert_eq!(bits(out.as_slice()), want, "Matrix::{name} {shape}");
                    }
                }
            }
        }
    }

    #[test]
    fn trans_b_panel_survives_shrinking_and_growing_k() {
        // The per-thread panel is reused across calls: a product with a
        // larger `k` must not read a smaller call's stale panel, nor a
        // smaller `k` a larger one's.
        let mut ops = Operands(0xb7);
        for &(m, k, n) in &[(5, 3, 9), (6, 40, 11), (3, 2, 17), (9, 64, 8)] {
            let a = ops.matrix(m * k);
            let b = ops.matrix(k * n);
            let mut c = vec![0.0; m * n];
            gemm_into(Mode::TransB, &a, &transpose(&b, k, n), &mut c, m, k, n);
            assert_eq!(
                bits(&c),
                bits(&reference_matmul(&a, &b, m, k, n)),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn cancelling_sums_stay_positive_zero() {
        // (+0.0) + (−0.0) and x + (−x) must both round to +0.0, as in the
        // reference loops.
        let a = [-0.0, 2.0, -2.0, -0.0];
        let b = [1.0, 3.0, 3.0, 5.0];
        // A 1 × 4 row and a 4 × 1 column are stored as their transposes,
        // so the same slices serve every mode.
        for (name, f) in instances() {
            for mode in [Mode::Plain, Mode::TransA, Mode::TransB] {
                let mut c = [f64::NAN];
                f(mode, &a, &b, &mut c, 1, 4, 1);
                assert_eq!(c[0].to_bits(), 0, "{name} {mode:?}");
            }
        }
    }
}
