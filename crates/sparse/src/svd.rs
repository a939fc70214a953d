//! Randomized truncated SVD (Halko–Martinsson–Tropp range finding).
//!
//! Used by the NetMF embedding backend to factorize the (dense, symmetric)
//! log-similarity matrix `M ≈ U_d Σ_d V_dᵀ`, from which the node embedding
//! is `U_d Σ_d^{1/2}`. Power iterations sharpen the spectral decay, which
//! matters because log-transformed similarity matrices have heavy tails.

use crate::eigen::jacobi::jacobi_eig;
use crate::parallel::{default_threads, par_chunks_mut, par_map};
use crate::qr::qr_thin;
use crate::{DenseMatrix, Result, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a truncated SVD: `a ≈ u · diag(s) · vt`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Left singular vectors, `nrows × rank`.
    pub u: DenseMatrix,
    /// Singular values, descending, length `rank`.
    pub s: Vec<f64>,
    /// Right singular vectors transposed, `rank × ncols`.
    pub vt: DenseMatrix,
}

/// Options for [`rsvd`].
#[derive(Debug, Clone)]
pub struct RsvdOptions {
    /// Extra sampled directions beyond the target rank (default 8).
    pub oversample: usize,
    /// Power iterations (default 2).
    pub power_iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the dense products (default: autodetect, ≤ 16).
    pub threads: usize,
}

impl Default for RsvdOptions {
    fn default() -> Self {
        RsvdOptions {
            oversample: 8,
            power_iters: 2,
            seed: 17,
            threads: default_threads(),
        }
    }
}

/// Computes a rank-`rank` randomized SVD of `a`.
///
/// # Errors
/// [`SparseError::InvalidArgument`] if `rank == 0` or exceeds
/// `min(nrows, ncols)`.
pub fn rsvd(a: &DenseMatrix, rank: usize, opts: &RsvdOptions) -> Result<TruncatedSvd> {
    let (n, m) = (a.nrows(), a.ncols());
    if rank == 0 || rank > n.min(m) {
        return Err(SparseError::InvalidArgument(format!(
            "rsvd rank {rank} invalid for {n}x{m} matrix"
        )));
    }
    let l = (rank + opts.oversample).min(n.min(m));
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Sketch: Y = A Ω.
    let omega = gaussian(m, l, &mut rng);
    let mut y = matmul_par(a, &omega, opts.threads)?;
    let (mut q, _) = qr_thin(&y)?;
    // Power iterations with re-orthogonalization: Q ← orth(A Aᵀ Q).
    for _ in 0..opts.power_iters {
        let z = matmul_tn_par(a, &q, opts.threads)?; // Aᵀ Q  (m × l)
        let (qz, _) = qr_thin(&z)?;
        y = matmul_par(a, &qz, opts.threads)?; // A Qz (n × l)
        let (q2, _) = qr_thin(&y)?;
        q = q2;
    }
    // B = Qᵀ A  (l × m)
    let b = matmul_tn_par_left(&q, a, opts.threads)?;
    // Small-side eigendecomposition of B Bᵀ (l × l).
    let bbt = b.matmul(&b.transpose())?;
    let eig = jacobi_eig(&bbt)?;
    // Descending singular values.
    let mut order: Vec<usize> = (0..eig.values.len()).collect();
    order.sort_by(|&x, &y2| eig.values[y2].partial_cmp(&eig.values[x]).expect("finite"));
    let mut s = Vec::with_capacity(rank);
    let mut u_small = DenseMatrix::zeros(l, rank);
    for (j, &col) in order.iter().take(rank).enumerate() {
        s.push(eig.values[col].max(0.0).sqrt());
        u_small.set_col(j, &eig.vectors.col(col));
    }
    let u = q.matmul(&u_small)?; // n × rank
                                 // Vᵀ = Σ⁻¹ Ũᵀ B.
    let ut_b = u_small.transpose().matmul(&b)?; // rank × m
    let mut vt = ut_b;
    for j in 0..rank {
        let inv = if s[j] > 1e-300 { 1.0 / s[j] } else { 0.0 };
        for c in 0..m {
            vt[(j, c)] *= inv;
        }
    }
    Ok(TruncatedSvd { u, s, vt })
}

/// `A · B` with row-parallelism over `A`.
///
/// # Errors
/// Shape mismatch.
pub fn matmul_par(a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch(format!(
            "{}x{} · {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    let (n, k, m) = (a.nrows(), a.ncols(), b.ncols());
    let mut out = vec![0.0f64; n * m];
    let chunks: Vec<&mut [f64]> = out.chunks_mut(m).collect();
    let mut rows = chunks;
    par_chunks_mut(&mut rows, threads, |start, block| {
        for (off, out_row) in block.iter_mut().enumerate() {
            let i = start + off;
            let arow = a.row(i);
            for p in 0..k {
                let aip = arow[p];
                if aip == 0.0 {
                    continue;
                }
                let brow = b.row(p);
                for (j, &bpj) in brow.iter().enumerate() {
                    out_row[j] += aip * bpj;
                }
            }
        }
    });
    DenseMatrix::from_vec(n, m, out)
}

/// `Aᵀ · B` where both have `n` rows (result `a.ncols × b.ncols`),
/// computed as one partial product per contiguous row chunk on the
/// worker pool. The chunks depend only on `threads` and the partials are
/// summed in chunk order, so the result is deterministic for a given
/// thread count.
fn matmul_tn_par(a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    if a.nrows() != b.nrows() {
        return Err(SparseError::ShapeMismatch(format!(
            "tn: {} rows vs {} rows",
            a.nrows(),
            b.nrows()
        )));
    }
    // Small output (l × l or m × l with small l): per-chunk partials.
    let (ka, kb) = (a.ncols(), b.ncols());
    let rows = a.nrows();
    let chunk = rows.div_ceil(threads.clamp(1, rows.max(1))).max(1);
    let partials: Vec<DenseMatrix> = par_map(rows.div_ceil(chunk), threads, |t| {
        let mut acc = DenseMatrix::zeros(ka, kb);
        for r in t * chunk..((t + 1) * chunk).min(rows) {
            let arow = a.row(r);
            let brow = b.row(r);
            for (i, &ai) in arow.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                let acc_row = acc.row_mut(i);
                for (j, &bj) in brow.iter().enumerate() {
                    acc_row[j] += ai * bj;
                }
            }
        }
        acc
    });
    let mut out = DenseMatrix::zeros(ka, kb);
    for p in partials {
        out.add_scaled(1.0, &p)?;
    }
    Ok(out)
}

/// `Qᵀ · A` (result `q.ncols × a.ncols`), parallel over shared rows.
fn matmul_tn_par_left(q: &DenseMatrix, a: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    matmul_tn_par(q, a, threads)
}

fn gaussian(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    // Box–Muller from uniform pairs.
    let mut spare: Option<f64> = None;
    for v in m.data_mut() {
        *v = match spare.take() {
            Some(z) => z,
            None => {
                let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-300), rng.gen());
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                spare = Some(r * theta.sin());
                r * theta.cos()
            }
        };
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_matrix(n: usize, m: usize, rank: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = gaussian(n, rank, &mut rng);
        let v = gaussian(m, rank, &mut rng);
        let mut out = DenseMatrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0;
                for p in 0..rank {
                    // Decaying spectrum 1/(p+1).
                    acc += u[(i, p)] * v[(j, p)] / (p as f64 + 1.0);
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = low_rank_matrix(60, 40, 5, 3);
        let svd = rsvd(&a, 5, &RsvdOptions::default()).unwrap();
        // Reconstruction error should be tiny.
        let us = {
            let mut us = svd.u.clone();
            for j in 0..5 {
                for i in 0..60 {
                    us[(i, j)] *= svd.s[j];
                }
            }
            us
        };
        let rec = us.matmul(&svd.vt).unwrap();
        let mut err: f64 = 0.0;
        for i in 0..60 {
            for j in 0..40 {
                err = err.max((rec[(i, j)] - a[(i, j)]).abs());
            }
        }
        assert!(err < 1e-8, "reconstruction error {err}");
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let a = low_rank_matrix(50, 50, 10, 11);
        let svd = rsvd(&a, 8, &RsvdOptions::default()).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn orthonormal_u() {
        let a = low_rank_matrix(70, 30, 6, 5);
        let svd = rsvd(&a, 6, &RsvdOptions::default()).unwrap();
        for i in 0..6 {
            for j in i..6 {
                let d = crate::vecops::dot(&svd.u.col(i), &svd.u.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "u{i}·u{j} = {d}");
            }
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        let a = DenseMatrix::zeros(5, 4);
        assert!(rsvd(&a, 0, &RsvdOptions::default()).is_err());
        assert!(rsvd(&a, 5, &RsvdOptions::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let a = low_rank_matrix(40, 40, 4, 9);
        let s1 = rsvd(&a, 4, &RsvdOptions::default()).unwrap();
        let s2 = rsvd(&a, 4, &RsvdOptions::default()).unwrap();
        assert_eq!(s1.s, s2.s);
    }

    #[test]
    fn matmul_par_matches_sequential() {
        let a = low_rank_matrix(33, 21, 7, 1);
        let b = low_rank_matrix(21, 17, 7, 2);
        let c1 = a.matmul(&b).unwrap();
        let c2 = matmul_par(&a, &b, 4).unwrap();
        for i in 0..33 {
            for j in 0..17 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_tn_par_matches_transpose_product() {
        // Includes a zero row in `a` (skipped entries) and more threads
        // than some chunkings divide evenly.
        let mut a = low_rank_matrix(37, 9, 4, 3);
        for v in a.row_mut(5) {
            *v = 0.0;
        }
        let b = low_rank_matrix(37, 6, 4, 4);
        let reference = a.transpose().matmul(&b).unwrap();
        for threads in 1..=4 {
            let c = matmul_tn_par(&a, &b, threads).unwrap();
            assert_eq!((c.nrows(), c.ncols()), (9, 6));
            for (x, y) in c.data().iter().zip(reference.data()) {
                assert!((x - y).abs() < 1e-12, "threads {threads}: {x} vs {y}");
            }
            let again = matmul_tn_par(&a, &b, threads).unwrap();
            assert_eq!(
                c.data(),
                again.data(),
                "threads {threads} not deterministic"
            );
        }
        assert!(matmul_tn_par(&a, &DenseMatrix::zeros(36, 6), 2).is_err());
    }

    #[test]
    fn matmul_par_shape_check() {
        let a = DenseMatrix::zeros(3, 4);
        let b = DenseMatrix::zeros(5, 2);
        assert!(matmul_par(&a, &b, 2).is_err());
    }
}
