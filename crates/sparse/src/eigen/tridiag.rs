//! Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts).
//!
//! A from-scratch port of the classic `tql2` algorithm (EISPACK lineage):
//! O(n²) for all eigenvalues, O(n³) with eigenvectors. Rotations are
//! accumulated into the *transposed* eigenvector matrix, so each Givens
//! rotation updates two contiguous rows instead of walking two columns
//! of a row-major matrix with stride `n`; the arithmetic per element is
//! unchanged, so the result is bit-identical to the column-wise form.

use crate::{DenseMatrix, Result, SparseError};

/// A symmetric tridiagonal matrix given by its diagonal and off-diagonal.
#[derive(Debug, Clone)]
pub struct SymTridiag {
    /// Main diagonal, length `n`.
    pub diag: Vec<f64>,
    /// Off-diagonal, length `n - 1` (or empty when `n ≤ 1`).
    pub offdiag: Vec<f64>,
}

/// Eigen-decomposition of a [`SymTridiag`]: `values` ascending, `vectors`
/// column `j` is the unit eigenvector for `values[j]`.
#[derive(Debug, Clone)]
pub struct TridiagEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `n × n` matrix whose columns are the corresponding eigenvectors.
    pub vectors: DenseMatrix,
}

impl SymTridiag {
    /// Creates a tridiagonal matrix, validating the dimension relation.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] unless `offdiag.len() + 1 == diag.len()`
    /// (with the convention that a 0×0 or 1×1 matrix has an empty offdiag).
    pub fn new(diag: Vec<f64>, offdiag: Vec<f64>) -> Result<Self> {
        let n = diag.len();
        let expected = n.saturating_sub(1);
        if offdiag.len() != expected {
            return Err(SparseError::ShapeMismatch(format!(
                "offdiag length {} != n - 1 = {}",
                offdiag.len(),
                expected
            )));
        }
        Ok(SymTridiag { diag, offdiag })
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Full eigen-decomposition, eigenvalues ascending.
    ///
    /// # Errors
    /// [`SparseError::NoConvergence`] if any eigenvalue fails to converge
    /// within 50 QL sweeps (does not happen for finite input).
    pub fn eig(&self) -> Result<TridiagEig> {
        let n = self.dim();
        if n == 0 {
            return Ok(TridiagEig {
                values: Vec::new(),
                vectors: DenseMatrix::zeros(0, 0),
            });
        }
        let mut d = self.diag.clone();
        // e is padded to length n; e[n-1] is scratch.
        let mut e = {
            let mut e = self.offdiag.clone();
            e.push(0.0);
            e
        };
        // zt row j is eigenvector column j.
        let mut zt = DenseMatrix::identity(n);

        for l in 0..n {
            let mut iter = 0usize;
            loop {
                // Find the first negligible off-diagonal at or after l.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                if iter > 50 {
                    return Err(SparseError::NoConvergence {
                        algorithm: "tridiagonal QL",
                        iterations: iter,
                    });
                }
                // Wilkinson shift.
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let (mut s, mut c) = (1.0f64, 1.0f64);
                let mut p = 0.0f64;
                let mut underflow = false;
                for i in (l..m).rev() {
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        // Recover from underflow: skip this rotation chain.
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    // Accumulate the rotation into eigenvectors i and i+1.
                    let (head, tail) = zt.data_mut().split_at_mut((i + 1) * n);
                    let zi = &mut head[i * n..];
                    let zi1 = &mut tail[..n];
                    for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                        f = *b;
                        *b = s * *a + c * f;
                        *a = c * *a - s * f;
                    }
                }
                if underflow {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }

        // Sort ascending, permuting eigenvector columns alongside.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite eigenvalues"));
        let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let mut vectors = DenseMatrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for (rix, &v) in zt.row(old_c).iter().enumerate() {
                vectors[(rix, new_c)] = v;
            }
        }
        Ok(TridiagEig { values, vectors })
    }

    /// Eigenvalues only. This wraps [`Self::eig`], so it still pays for
    /// the O(n³) eigenvector accumulation, which dominates the QL cost
    /// at Lanczos sizes (n in the hundreds): each rotation updates 2n
    /// vector entries but only a few values.
    ///
    /// # Errors
    /// Propagates [`Self::eig`] errors.
    pub fn eigenvalues(&self) -> Result<Vec<f64>> {
        Ok(self.eig()?.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn residual(t: &SymTridiag, lambda: f64, v: &[f64]) -> f64 {
        let n = t.dim();
        let mut r = 0.0f64;
        for i in 0..n {
            let mut acc = t.diag[i] * v[i];
            if i > 0 {
                acc += t.offdiag[i - 1] * v[i - 1];
            }
            if i + 1 < n {
                acc += t.offdiag[i] * v[i + 1];
            }
            r = r.max((acc - lambda * v[i]).abs());
        }
        r
    }

    #[test]
    fn dimension_validation() {
        assert!(SymTridiag::new(vec![1.0, 2.0], vec![]).is_err());
        assert!(SymTridiag::new(vec![1.0, 2.0], vec![0.5]).is_ok());
        assert!(SymTridiag::new(vec![], vec![]).is_ok());
    }

    #[test]
    fn empty_and_scalar() {
        let e = SymTridiag::new(vec![], vec![]).unwrap().eig().unwrap();
        assert!(e.values.is_empty());
        let s = SymTridiag::new(vec![3.5], vec![]).unwrap().eig().unwrap();
        assert_eq!(s.values, vec![3.5]);
        assert_eq!(s.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn two_by_two_closed_form() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3.
        let t = SymTridiag::new(vec![2.0, 2.0], vec![1.0]).unwrap();
        let e = t.eig().unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
        for j in 0..2 {
            assert!(residual(&t, e.values[j], &e.vectors.col(j)) < 1e-13);
        }
    }

    #[test]
    fn path_laplacian_closed_form() {
        // The unnormalized Laplacian of the path P_n is tridiagonal with
        // eigenvalues 4 sin²(π i / (2n)), i = 0..n-1.
        let n = 12;
        let mut diag = vec![2.0; n];
        diag[0] = 1.0;
        diag[n - 1] = 1.0;
        let offdiag = vec![-1.0; n - 1];
        let t = SymTridiag::new(diag, offdiag).unwrap();
        let e = t.eig().unwrap();
        for i in 0..n {
            let expect = 4.0 * (PI * i as f64 / (2.0 * n as f64)).sin().powi(2);
            assert!(
                (e.values[i] - expect).abs() < 1e-12,
                "eigenvalue {i}: {} vs {expect}",
                e.values[i]
            );
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 20;
        // Arbitrary symmetric tridiagonal.
        let diag: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| (i as f64 * 1.3).cos()).collect();
        let t = SymTridiag::new(diag, off).unwrap();
        let e = t.eig().unwrap();
        for i in 0..n {
            for j in i..n {
                let d = crate::vecops::dot(&e.vectors.col(i), &e.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "v{i}·v{j} = {d}");
            }
            assert!(residual(&t, e.values[i], &e.vectors.col(i)) < 1e-10);
        }
        // Ascending order.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn block_diagonal_decoupled() {
        // Zero off-diagonal in the middle: two independent 2x2 blocks.
        let t = SymTridiag::new(vec![1.0, 1.0, 5.0, 5.0], vec![0.5, 0.0, 0.5]).unwrap();
        let e = t.eig().unwrap();
        let expect = [0.5, 1.5, 4.5, 5.5];
        for (v, ex) in e.values.iter().zip(&expect) {
            assert!((v - ex).abs() < 1e-13);
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // Diagonal matrix with repeats must come back exactly.
        let t = SymTridiag::new(vec![2.0, 2.0, 2.0], vec![0.0, 0.0]).unwrap();
        let e = t.eig().unwrap();
        assert_eq!(e.values, vec![2.0, 2.0, 2.0]);
    }
}
