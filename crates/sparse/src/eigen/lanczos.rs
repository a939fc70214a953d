//! Lanczos iteration with full reorthogonalization, deflation locking, and
//! a multiplicity-verification sweep, for the smallest eigenpairs of
//! bounded symmetric operators.
//!
//! This is the `Eigenvalues(L, k+1)` primitive of SGLA's Algorithms 1 & 2.
//! Normalized Laplacians have spectrum in `[0, 2]`, so rather than
//! shift-invert (which would require sparse linear solves) we run Lanczos on
//! the *spectral complement* `B = σI − L` with `σ ≥ λ_max(L)`: the smallest
//! eigenvalues of `L` are the dominant eigenvalues of `B`, which Lanczos
//! finds fastest.
//!
//! Two failure modes of textbook Lanczos are handled explicitly because
//! both occur routinely on multi-view Laplacians:
//!
//! 1. **Breakdown** (an invariant subspace, e.g. the constant vector of a
//!    connected view) — restart the three-term recurrence with a fresh
//!    random direction orthogonal to the basis; the projected matrix
//!    becomes block tridiagonal, which the QL solver handles transparently.
//! 2. **Missed multiplicity** — a single-vector Krylov space contains at
//!    most one direction per eigenvalue, so exactly repeated eigenvalues
//!    (disconnected graph views have `λ = 0` with multiplicity equal to the
//!    number of components) are silently *skipped*, with all residuals
//!    small. Residual checks cannot detect this. After the requested pairs
//!    converge we therefore run a cheap *verification sweep*: one more
//!    Lanczos pass deflated against everything found so far; if the
//!    complement contains an eigenvalue smaller than our k-th value, a copy
//!    was missed — lock it and re-verify.
//!
//! Each pass is a resumable factorization (`Krylov`). When a pass
//! locks no pair, the deflation set is unchanged, so the pass is
//! *extended* to twice its dimension (up to `max_dim`) instead of being
//! rerun from a new start vector: the extended space is exactly the one
//! a single longer pass from the same start would build, and none of the
//! operator applications or reorthogonalization sweeps already spent are
//! repeated. A pass that locks at least one pair is discarded, because
//! the next one must be deflated against the newly locked vectors.

use super::tridiag::SymTridiag;
use crate::linop::{LinOp, ShiftedNegOp};
use crate::parallel::{default_threads, par_chunks_mut, par_map};
use crate::{vecops, DenseMatrix, Result, SparseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the Lanczos driver.
#[derive(Debug, Clone)]
pub struct EigOptions {
    /// Relative residual tolerance for Ritz pairs (default `1e-8`).
    pub tol: f64,
    /// Maximum Krylov dimension per pass (default `0` = auto:
    /// `min(n, max(6(k+1), 420))`).
    pub max_dim: usize,
    /// RNG seed for start vectors (deterministic by default).
    pub seed: u64,
    /// Below this dimension the operator is materialized and solved densely
    /// by Jacobi (default 96).
    pub dense_fallback: usize,
    /// Run the multiplicity-verification sweep (default `true`). Disable
    /// only when the spectrum is known to be simple.
    pub verify_multiplicity: bool,
    /// Worker-pool width cap for reorthogonalization on large problems
    /// (default: [`default_threads`] — autodetect or `SGLA_THREADS`,
    /// ≤ 16). Work runs on the persistent pool, so per-pass dispatch is
    /// cheap even though a solve performs thousands of parallel regions.
    pub threads: usize,
    /// Optional warm-start block: an `n × c` matrix whose columns
    /// approximate the sought eigenvectors (e.g. the previous solve's
    /// output on a slightly perturbed operator). Columns are consumed
    /// as start directions — the first column seeds the first Lanczos
    /// pass, later columns seed breakdown restarts and deflated
    /// passes — so a good guess collapses each pass's Krylov growth.
    /// Results are identical in the limit; only convergence speed
    /// changes. Ignored on the dense fallback path. Default `None`.
    pub init: Option<DenseMatrix>,
}

impl Default for EigOptions {
    fn default() -> Self {
        EigOptions {
            tol: 1e-8,
            max_dim: 0,
            seed: 7,
            dense_fallback: 96,
            verify_multiplicity: true,
            threads: default_threads(),
            init: None,
        }
    }
}

/// Result of an eigen-computation.
#[derive(Debug, Clone)]
pub struct EigResult {
    /// The `k` smallest eigenvalues, ascending.
    pub values: Vec<f64>,
    /// `n × k` matrix of matching eigenvectors (empty when only values were
    /// requested).
    pub vectors: DenseMatrix,
    /// Total operator applications performed.
    pub matvecs: usize,
    /// Whether all requested pairs met the residual tolerance.
    pub converged: bool,
    /// Iteration-level work counters (observability; zero on the dense
    /// fallback path, which performs none of the counted steps).
    pub stats: EigStats,
}

/// Work counters of one Lanczos solve, surfaced so callers (training
/// spans, benchmarks) can attribute time without instrumenting the
/// solver's hot loops themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EigStats {
    /// Convergence rounds: Ritz-pair checks of a deflated Lanczos pass,
    /// over the locking passes and the multiplicity-verification probes.
    /// Extending a stalled pass to a larger dimension counts as one more
    /// round (the extension is checked again); it is not a new pass.
    pub rounds: usize,
    /// Breakdown restarts: invariant subspaces hit mid-pass, each
    /// answered with a fresh orthogonal start direction.
    pub restarts: usize,
    /// Full reorthogonalization sweeps performed (each sweep is two
    /// projection passes over deflation set + basis).
    pub reortho_sweeps: usize,
}

/// Computes the `k` smallest eigenvalues (no eigenvector matrix assembled)
/// of a symmetric operator. See [`smallest_eigenpairs`].
pub fn smallest_eigenvalues(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<Vec<f64>> {
    run(op, k, opts, false).map(|r| r.values)
}

/// Like [`smallest_eigenvalues`] but returns the full [`EigResult`]
/// (with an empty eigenvector matrix) so callers can read the matvec
/// and iteration counters alongside the values.
///
/// # Errors
/// See [`smallest_eigenpairs`].
pub fn smallest_eigenvalues_full(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<EigResult> {
    run(op, k, opts, false)
}

/// Computes the `k` smallest eigenpairs of a symmetric operator.
///
/// # Errors
/// * [`SparseError::InvalidArgument`] if `k == 0` or `k > n`.
/// * [`SparseError::NoConvergence`] if repeated deflated passes make no
///   progress (pathological operators; does not occur for finite symmetric
///   input with sane tolerances).
pub fn smallest_eigenpairs(op: &dyn LinOp, k: usize, opts: &EigOptions) -> Result<EigResult> {
    run(op, k, opts, true)
}

struct Locked {
    values: Vec<f64>,
    vectors: Vec<Vec<f64>>,
}

fn run(op: &dyn LinOp, k: usize, opts: &EigOptions, want_vectors: bool) -> Result<EigResult> {
    let n = op.dim();
    if k == 0 {
        return Err(SparseError::InvalidArgument(
            "requested 0 eigenpairs".into(),
        ));
    }
    if k > n {
        return Err(SparseError::InvalidArgument(format!(
            "requested {k} eigenpairs of a {n}-dimensional operator"
        )));
    }
    if n <= opts.dense_fallback || k + 2 >= n {
        return dense_path(op, k, want_vectors);
    }
    // Warm-start columns are popped front-first as start directions.
    let mut init_cols: std::collections::VecDeque<Vec<f64>> = match &opts.init {
        Some(block) => {
            if block.nrows() != n {
                return Err(SparseError::InvalidArgument(format!(
                    "warm-start block has {} rows for an {n}-dimensional operator",
                    block.nrows()
                )));
            }
            (0..block.ncols()).map(|j| block.col(j)).collect()
        }
        None => std::collections::VecDeque::new(),
    };

    let shift = match op.spectral_bound() {
        Some(b) => b * (1.0 + 1e-10) + 1e-12,
        None => estimate_bound(op, opts.seed) * 1.05 + 1e-12,
    };
    let b_op = ShiftedNegOp::new(op, shift);
    let max_dim = if opts.max_dim == 0 {
        n.min((6 * (k + 1)).max(420))
    } else {
        opts.max_dim.min(n)
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut matvecs = 0usize;
    let mut stats = EigStats::default();
    let mut locked = Locked {
        values: Vec::with_capacity(k + 4),
        vectors: Vec::with_capacity(k + 4),
    };
    let mut all_converged = true;

    // Phase 1: lock k pairs via deflated Lanczos passes.
    lock_pairs(
        &b_op,
        shift,
        k,
        opts,
        max_dim,
        &mut rng,
        &mut init_cols,
        &mut matvecs,
        &mut stats,
        &mut locked,
        &mut all_converged,
    )?;

    // Phase 2: verification sweep for missed multiplicities. Each round
    // asks the deflated complement for its single smallest eigenvalue; if
    // it undercuts our current k-th smallest, a copy was missed.
    if opts.verify_multiplicity && locked.vectors.len() < n {
        let mut verify_opts = opts.clone();
        verify_opts.tol = opts.tol.max(1e-6);
        for _round in 0..k {
            let kth = kth_smallest(&locked.values, k);
            let margin = 1e-8 * (1.0 + kth.abs());
            let mut probe = Locked {
                values: Vec::new(),
                vectors: Vec::new(),
            };
            let mut probe_conv = true;
            // A failed probe (no convergence in the complement) means the
            // complement has no easily reachable eigenvalue below ours;
            // treat as verified.
            let probe_res = lock_pairs(
                &b_op,
                shift,
                1,
                &verify_opts,
                max_dim,
                &mut rng,
                &mut init_cols,
                &mut matvecs,
                &mut stats,
                &mut ProbeInto {
                    base: &locked,
                    extra: &mut probe,
                },
                &mut probe_conv,
            );
            match probe_res {
                Ok(()) if !probe.values.is_empty() && probe.values[0] < kth - margin => {
                    locked.values.push(probe.values[0]);
                    locked.vectors.push(probe.vectors.swap_remove(0));
                }
                _ => break,
            }
            if locked.vectors.len() >= n {
                break;
            }
        }
    }

    // Assemble the k smallest of everything locked.
    let mut order: Vec<usize> = (0..locked.values.len()).collect();
    order.sort_by(|&a, &b| {
        locked.values[a]
            .partial_cmp(&locked.values[b])
            .expect("finite eigenvalues")
    });
    order.truncate(k);
    let values: Vec<f64> = order.iter().map(|&i| locked.values[i]).collect();
    let vectors = if want_vectors {
        let mut m = DenseMatrix::zeros(n, k);
        for (j, &i) in order.iter().enumerate() {
            m.set_col(j, &locked.vectors[i]);
        }
        m
    } else {
        DenseMatrix::zeros(0, 0)
    };
    Ok(EigResult {
        values,
        vectors,
        matvecs,
        converged: all_converged,
        stats,
    })
}

fn kth_smallest(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[k.min(v.len()) - 1]
}

/// Abstraction letting the verification probe deflate against the main
/// locked set while collecting results separately.
trait LockSink {
    fn deflate_vectors(&self) -> Vec<&[f64]>;
    fn locked_count(&self) -> usize;
    fn push(&mut self, value: f64, vector: Vec<f64>);
}

impl LockSink for Locked {
    fn deflate_vectors(&self) -> Vec<&[f64]> {
        self.vectors.iter().map(|v| v.as_slice()).collect()
    }
    fn locked_count(&self) -> usize {
        self.values.len()
    }
    fn push(&mut self, value: f64, vector: Vec<f64>) {
        self.values.push(value);
        self.vectors.push(vector);
    }
}

struct ProbeInto<'a> {
    base: &'a Locked,
    extra: &'a mut Locked,
}

impl LockSink for ProbeInto<'_> {
    fn deflate_vectors(&self) -> Vec<&[f64]> {
        self.base
            .vectors
            .iter()
            .chain(self.extra.vectors.iter())
            .map(|v| v.as_slice())
            .collect()
    }
    fn locked_count(&self) -> usize {
        self.extra.values.len()
    }
    fn push(&mut self, value: f64, vector: Vec<f64>) {
        self.extra.values.push(value);
        self.extra.vectors.push(vector);
    }
}

/// Runs deflated Lanczos passes until `target` pairs are locked into
/// `sink`. A pass that locks nothing is *extended* to twice its
/// dimension (capped at `max_dim`) rather than rerun from a new start;
/// once `max_dim` is reached, pairs are force-locked with
/// `converged = false`.
#[allow(clippy::too_many_arguments)]
fn lock_pairs<S: LockSink>(
    b_op: &ShiftedNegOp<'_, dyn LinOp + '_>,
    shift: f64,
    target: usize,
    opts: &EigOptions,
    max_dim: usize,
    rng: &mut StdRng,
    init: &mut std::collections::VecDeque<Vec<f64>>,
    matvecs: &mut usize,
    stats: &mut EigStats,
    sink: &mut S,
    all_converged: &mut bool,
) -> Result<()> {
    let n = b_op.dim();
    let mut m = n.min((2 * (target + 1) + 30).max(36));
    let mut rounds = 0usize;
    // The pass being grown; `None` after a lock changed the deflation set.
    let mut pass: Option<Krylov> = None;
    while sink.locked_count() < target {
        rounds += 1;
        stats.rounds += 1;
        if rounds > 64 {
            return Err(SparseError::NoConvergence {
                algorithm: "lanczos deflation loop",
                iterations: *matvecs,
            });
        }
        let deflate = sink.deflate_vectors();
        if deflate.len() >= n {
            // Nothing left in the complement.
            return Ok(());
        }
        let need = target - sink.locked_count();
        let m_pass = m.min(n - deflate.len());
        let kry =
            pass.get_or_insert_with(|| Krylov::start(n, &deflate, rng, init, stats, opts.threads));
        kry.extend(
            b_op,
            m_pass,
            &deflate,
            rng,
            init,
            matvecs,
            stats,
            opts.threads,
        );
        let m_eff = kry.alphas.len();
        if m_eff == 0 {
            return Ok(());
        }
        let tri = SymTridiag::new(kry.alphas.clone(), kry.betas[..m_eff - 1].to_vec())?;
        let te = tri.eig()?;
        let last_beta = kry.betas[m_eff - 1];
        let at_limit = m_pass >= max_dim.min(n - deflate.len()) || kry.exhausted;
        let mut newly = 0usize;
        for j in 0..need.min(m_eff) {
            let col = m_eff - 1 - j; // largest μ of B first = smallest λ
            let mu = te.values[col];
            let bottom = te.vectors[(m_eff - 1, col)];
            let resid = (last_beta * bottom).abs();
            let ok = resid <= opts.tol * mu.abs().max(1.0);
            if ok || at_limit {
                if !ok {
                    *all_converged = false;
                }
                let vec = assemble_ritz(&kry.basis, &te.vectors, col);
                sink.push(shift - mu, vec);
                newly += 1;
            } else {
                break;
            }
        }
        if sink.locked_count() >= target {
            return Ok(());
        }
        if newly == 0 {
            if at_limit {
                // Force-locked everything we could and still short: the
                // complement is exhausted.
                return Ok(());
            }
            // Nothing locked, so the deflation set is unchanged and the
            // pass stays valid: the next round extends it.
            m = (2 * m).min(max_dim);
        } else {
            // The deflation set grew; the next pass starts afresh.
            pass = None;
        }
    }
    Ok(())
}

/// A resumable Lanczos factorization `B Vⱼ = Vⱼ Tⱼ + r eⱼᵀ`, every
/// basis vector kept orthogonal to the deflation set and to the whole
/// basis (full reorthogonalization, two passes). Extending it from `m`
/// to `m'` steps yields bit for bit the factorization a single `m'`-step
/// run from the same start would have produced.
struct Krylov {
    /// Orthonormal basis: one vector per step, plus the start vector
    /// while no step has run.
    basis: Vec<Vec<f64>>,
    /// Diagonal of T.
    alphas: Vec<f64>,
    /// `betas[j]` couples basis vectors `j` and `j+1`; a zero marks a
    /// breakdown restart (block boundary). The last entry is the norm of
    /// the pending `residual`.
    betas: Vec<f64>,
    /// Orthogonalized, not yet normalized residual of the last step:
    /// the next basis direction.
    residual: Vec<f64>,
    /// Basis + deflation set span the whole space (or no direction
    /// orthogonal to them could be found).
    exhausted: bool,
}

impl Krylov {
    /// Picks the start vector: a warm-start column or a random direction,
    /// orthogonal to the deflation set.
    fn start(
        n: usize,
        deflate: &[&[f64]],
        rng: &mut StdRng,
        init: &mut std::collections::VecDeque<Vec<f64>>,
        stats: &mut EigStats,
        threads: usize,
    ) -> Self {
        let v0 = fresh_direction(n, deflate, &[], rng, init, stats, threads);
        Krylov {
            exhausted: v0.is_none(),
            basis: v0.into_iter().collect(),
            alphas: Vec::new(),
            betas: Vec::new(),
            residual: vec![0.0; n],
        }
    }

    /// Runs Lanczos steps until the factorization has `m` steps (capped
    /// at the dimension of the deflated complement) or is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        &mut self,
        op: &dyn LinOp,
        m: usize,
        deflate: &[&[f64]],
        rng: &mut StdRng,
        init: &mut std::collections::VecDeque<Vec<f64>>,
        matvecs: &mut usize,
        stats: &mut EigStats,
        threads: usize,
    ) {
        let n = op.dim();
        let m = m.min(n - deflate.len());
        let w = &mut self.residual;
        while self.alphas.len() < m && !self.exhausted {
            let j = self.alphas.len();
            if j > 0 {
                // Turn the previous step's residual into basis vector j.
                let beta = self.betas[j - 1];
                if beta > 1e-12 {
                    let inv = 1.0 / beta;
                    self.basis.push(w.iter().map(|x| x * inv).collect());
                } else {
                    // Invariant subspace: restart with a fresh orthogonal
                    // direction.
                    self.betas[j - 1] = 0.0;
                    stats.restarts += 1;
                    match fresh_direction(n, deflate, &self.basis, rng, init, stats, threads) {
                        Some(fresh) => self.basis.push(fresh),
                        None => {
                            self.exhausted = true;
                            break;
                        }
                    }
                }
            }
            op.matvec(&self.basis[j], w);
            *matvecs += 1;
            let alpha = vecops::dot(&self.basis[j], w);
            self.alphas.push(alpha);
            vecops::axpy(-alpha, &self.basis[j], w);
            if j > 0 && self.betas[j - 1] != 0.0 {
                vecops::axpy(-self.betas[j - 1], &self.basis[j - 1], w);
            }
            orthogonalize(w, deflate, &self.basis, threads);
            stats.reortho_sweeps += 1;
            self.betas.push(vecops::norm2(w));
        }
    }
}

/// Two-pass orthogonalization of `w` against the deflation set and the
/// Lanczos basis, with thread-parallel projections/updates on large
/// problems.
fn orthogonalize(w: &mut [f64], deflate: &[&[f64]], basis: &[Vec<f64>], threads: usize) {
    let n = w.len();
    let total = deflate.len() + basis.len();
    let parallel = threads > 1 && n * total > 1 << 18;
    for _pass in 0..2 {
        if parallel {
            // projections
            let projs: Vec<f64> = par_map(total, threads, |i| {
                let v: &[f64] = if i < deflate.len() {
                    deflate[i]
                } else {
                    &basis[i - deflate.len()]
                };
                vecops::dot(v, w)
            });
            // w -= Σ p_i v_i, parallel over element chunks
            par_chunks_mut(w, threads, |start, chunk| {
                for (i, &p) in projs.iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    let v: &[f64] = if i < deflate.len() {
                        deflate[i]
                    } else {
                        &basis[i - deflate.len()]
                    };
                    let vs = &v[start..start + chunk.len()];
                    for (c, &vv) in chunk.iter_mut().zip(vs) {
                        *c -= p * vv;
                    }
                }
            });
        } else {
            for v in deflate
                .iter()
                .copied()
                .chain(basis.iter().map(|b| b.as_slice()))
            {
                let p = vecops::dot(v, w);
                if p != 0.0 {
                    vecops::axpy(-p, v, w);
                }
            }
        }
    }
}

fn assemble_ritz(basis: &[Vec<f64>], tri_vectors: &DenseMatrix, col: usize) -> Vec<f64> {
    let n = basis.first().map_or(0, Vec::len);
    let m_eff = tri_vectors.nrows();
    let mut out = vec![0.0f64; n];
    for (j, v) in basis.iter().take(m_eff).enumerate() {
        let s = tri_vectors[(j, col)];
        if s != 0.0 {
            vecops::axpy(s, v, &mut out);
        }
    }
    vecops::normalize(&mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn fresh_direction(
    n: usize,
    deflate: &[&[f64]],
    basis: &[Vec<f64>],
    rng: &mut StdRng,
    init: &mut std::collections::VecDeque<Vec<f64>>,
    stats: &mut EigStats,
    threads: usize,
) -> Option<Vec<f64>> {
    if deflate.len() + basis.len() >= n {
        return None;
    }
    // Prefer warm-start columns: each is consumed once; one whose
    // direction is already spanned (tiny residual) falls through to
    // the next column or the random fallback.
    while let Some(mut w) = init.pop_front() {
        orthogonalize(&mut w, deflate, basis, threads);
        stats.reortho_sweeps += 1;
        if vecops::normalize(&mut w) > 1e-8 {
            return Some(w);
        }
    }
    for _attempt in 0..6 {
        let mut w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        orthogonalize(&mut w, deflate, basis, threads);
        stats.reortho_sweeps += 1;
        if vecops::normalize(&mut w) > 1e-8 {
            return Some(w);
        }
    }
    None
}

fn estimate_bound(op: &dyn LinOp, seed: u64) -> f64 {
    let n = op.dim();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    vecops::normalize(&mut x);
    let mut y = vec![0.0; n];
    let mut est = 0.0f64;
    for _ in 0..30 {
        op.matvec(&x, &mut y);
        let nrm = vecops::norm2(&y);
        if nrm == 0.0 {
            return 1.0;
        }
        est = nrm;
        std::mem::swap(&mut x, &mut y);
        vecops::scale(1.0 / est, &mut x);
    }
    est
}

fn dense_path(op: &dyn LinOp, k: usize, want_vectors: bool) -> Result<EigResult> {
    let n = op.dim();
    let mut a = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0f64; n];
    let mut col = vec![0.0f64; n];
    for j in 0..n {
        e[j] = 1.0;
        op.matvec(&e, &mut col);
        e[j] = 0.0;
        for i in 0..n {
            a[(i, j)] = col[i];
        }
    }
    let eig = super::jacobi::jacobi_eig(&a)?;
    let values = eig.values[..k].to_vec();
    let vectors = if want_vectors {
        let mut v = DenseMatrix::zeros(n, k);
        for j in 0..k {
            v.set_col(j, &eig.vectors.col(j));
        }
        v
    } else {
        DenseMatrix::zeros(0, 0)
    };
    Ok(EigResult {
        values,
        vectors,
        matvecs: n,
        converged: true,
        stats: EigStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, CsrMatrix};
    use std::f64::consts::PI;

    /// Normalized Laplacian of the cycle C_n: eigenvalues 1 − cos(2πj/n).
    fn cycle_norm_laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i, (i + 1) % n, -0.5).unwrap();
            coo.push(i, (i + n - 1) % n, -0.5).unwrap();
        }
        coo.to_csr()
    }

    fn cycle_eigs(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|j| 1.0 - (2.0 * PI * j as f64 / n as f64).cos())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn dense_fallback_small_cycle() {
        let n = 24;
        let l = cycle_norm_laplacian(n);
        let res = smallest_eigenpairs(&l, 5, &EigOptions::default()).unwrap();
        let expect = cycle_eigs(n);
        for j in 0..5 {
            assert!(
                (res.values[j] - expect[j]).abs() < 1e-9,
                "λ{j}: {} vs {}",
                res.values[j],
                expect[j]
            );
        }
        assert!(res.converged);
    }

    #[test]
    fn lanczos_large_cycle_with_degenerate_pairs() {
        let n = 400; // above dense fallback; eigenvalues have multiplicity 2
        let l = cycle_norm_laplacian(n);
        let res = smallest_eigenpairs(&l, 6, &EigOptions::default()).unwrap();
        let expect = cycle_eigs(n);
        for j in 0..6 {
            assert!(
                (res.values[j] - expect[j]).abs() < 1e-6,
                "λ{j}: {} vs {}",
                res.values[j],
                expect[j]
            );
        }
        for j in 0..6 {
            let v = res.vectors.col(j);
            let mut lv = vec![0.0; n];
            l.matvec(&v, &mut lv);
            let mut rmax: f64 = 0.0;
            for i in 0..n {
                rmax = rmax.max((lv[i] - res.values[j] * v[i]).abs());
            }
            assert!(rmax < 1e-5, "pair {j} residual {rmax}");
        }
    }

    #[test]
    fn eigenvalues_only_matches_pairs() {
        let l = cycle_norm_laplacian(300);
        let vals = smallest_eigenvalues(&l, 4, &EigOptions::default()).unwrap();
        let pairs = smallest_eigenpairs(&l, 4, &EigOptions::default()).unwrap();
        for (a, b) in vals.iter().zip(&pairs.values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn disconnected_graph_multiplicity() {
        // Two disjoint cycles of 150: eigenvalue 0 has multiplicity 2.
        let n = 300;
        let mut coo = CooMatrix::new(n, n);
        for block in 0..2 {
            let off = block * 150;
            for i in 0..150 {
                coo.push(off + i, off + i, 1.0).unwrap();
                coo.push(off + i, off + (i + 1) % 150, -0.5).unwrap();
                coo.push(off + i, off + (i + 149) % 150, -0.5).unwrap();
            }
        }
        let l = coo.to_csr();
        let res = smallest_eigenpairs(&l, 3, &EigOptions::default()).unwrap();
        assert!(res.values[0].abs() < 1e-7, "λ1 = {}", res.values[0]);
        assert!(res.values[1].abs() < 1e-7, "λ2 = {}", res.values[1]);
        assert!(res.values[2] > 1e-4, "λ3 = {}", res.values[2]);
    }

    #[test]
    fn identity_operator_extreme_multiplicity() {
        // Every Krylov space of I is 1-dimensional; requires restart AND
        // multiplicity handling.
        let n = 200;
        let i = CsrMatrix::identity(n);
        let res = smallest_eigenpairs(&i, 3, &EigOptions::default()).unwrap();
        for v in &res.values {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // Vectors must be mutually orthogonal even within the eigenspace.
        for a in 0..3 {
            for b in (a + 1)..3 {
                let d = vecops::dot(&res.vectors.col(a), &res.vectors.col(b));
                assert!(d.abs() < 1e-8, "v{a}·v{b} = {d}");
            }
        }
    }

    #[test]
    fn shifted_combination_degenerate_pairs() {
        // Regression test for silent multiplicity loss: 0.5·L_cycle + 0.5·I
        // has eigenvalues 0.5·λ_j + 0.5 with the cycle's multiplicity-2
        // structure.
        use crate::linop::ScaledSumOp;
        let n = 220;
        let l1 = cycle_norm_laplacian(n);
        let l2 = CsrMatrix::identity(n);
        let op = ScaledSumOp::new(vec![&l1, &l2], vec![0.5, 0.5]);
        let res = smallest_eigenvalues(&op, 5, &EigOptions::default()).unwrap();
        let expect = cycle_eigs(n);
        for j in 0..5 {
            assert!(
                (res[j] - (0.5 * expect[j] + 0.5)).abs() < 1e-6,
                "λ{j}: {} vs {}",
                res[j],
                0.5 * expect[j] + 0.5
            );
        }
    }

    #[test]
    fn invalid_k_rejected() {
        let l = cycle_norm_laplacian(10);
        assert!(smallest_eigenpairs(&l, 0, &EigOptions::default()).is_err());
        assert!(smallest_eigenpairs(&l, 11, &EigOptions::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let l = cycle_norm_laplacian(350);
        let a = smallest_eigenvalues(&l, 5, &EigOptions::default()).unwrap();
        let b = smallest_eigenvalues(&l, 5, &EigOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn path_graph_simple_spectrum() {
        // Normalized Laplacian of the path: all eigenvalues simple; checks
        // the solver against the dense reference.
        let n = 180;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        for i in 0..n - 1 {
            let di = if i == 0 || i == n - 1 { 1.0f64 } else { 2.0 };
            let dj = if i + 1 == n - 1 { 1.0f64 } else { 2.0 };
            let w = -1.0 / (di * dj).sqrt();
            coo.push_sym(i, i + 1, w).unwrap();
        }
        let l = coo.to_csr();
        let res = smallest_eigenvalues(&l, 4, &EigOptions::default()).unwrap();
        // Dense reference.
        let dense = super::super::jacobi::jacobi_eig(&l.to_dense()).unwrap();
        for j in 0..4 {
            assert!(
                (res[j] - dense.values[j]).abs() < 1e-7,
                "λ{j}: {} vs {}",
                res[j],
                dense.values[j]
            );
        }
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_values() {
        let l = cycle_norm_laplacian(400);
        let cold = smallest_eigenpairs(&l, 5, &EigOptions::default()).unwrap();
        // Warm-start from the cold solve's own vectors (the ideal
        // guess): values must match and the operator-application count
        // must drop.
        let warm_opts = EigOptions {
            init: Some(cold.vectors.clone()),
            ..EigOptions::default()
        };
        let warm = smallest_eigenpairs(&l, 5, &warm_opts).unwrap();
        for (a, b) in cold.values.iter().zip(&warm.values) {
            assert!((a - b).abs() < 1e-7, "warm {b} vs cold {a}");
        }
        assert!(
            warm.matvecs < cold.matvecs,
            "warm {} matvecs vs cold {}",
            warm.matvecs,
            cold.matvecs
        );
        // A wrong-sized warm block is rejected.
        let bad = EigOptions {
            init: Some(DenseMatrix::zeros(7, 2)),
            ..EigOptions::default()
        };
        assert!(smallest_eigenpairs(&l, 5, &bad).is_err());
    }

    /// Runs `start` + `extend` to each dimension in `steps` in turn and
    /// returns the factorization, the counters and the next RNG draw.
    fn grow(op: &dyn LinOp, deflate: &[&[f64]], steps: &[usize]) -> (Krylov, usize, EigStats, u64) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut init = std::collections::VecDeque::new();
        let (mut matvecs, mut stats) = (0usize, EigStats::default());
        let mut kry = Krylov::start(op.dim(), deflate, &mut rng, &mut init, &mut stats, 1);
        for &m in steps {
            kry.extend(
                op,
                m,
                deflate,
                &mut rng,
                &mut init,
                &mut matvecs,
                &mut stats,
                1,
            );
        }
        (kry, matvecs, stats, rng.gen::<u64>())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn extended_factorization_equals_one_longer_pass() {
        // The cycle has no breakdown; the identity breaks down at every
        // step, so its extension starts with a pending restart. The
        // two-cycle graph deflated against one vector covers deflation.
        let cycle = cycle_norm_laplacian(200);
        let ident = CsrMatrix::identity(150);
        let mut coo = CooMatrix::new(120, 120);
        for off in [0, 60] {
            for i in 0..60 {
                coo.push(off + i, off + i, 1.0).unwrap();
                coo.push(off + i, off + (i + 1) % 60, -0.5).unwrap();
                coo.push(off + i, off + (i + 59) % 60, -0.5).unwrap();
            }
        }
        let two = coo.to_csr();
        let flat = vec![1.0 / (120f64).sqrt(); 120];
        let cases: [(&dyn LinOp, Vec<&[f64]>); 3] = [
            (&cycle, vec![]),
            (&ident, vec![]),
            (&two, vec![flat.as_slice()]),
        ];
        for (op, deflate) in cases {
            for m in [1, 7, 36] {
                let (a, mv_a, st_a, rng_a) = grow(op, &deflate, &[m, 2 * m]);
                let (b, mv_b, st_b, rng_b) = grow(op, &deflate, &[2 * m]);
                assert_eq!(a.alphas.len(), 2 * m);
                assert_eq!(bits(&a.alphas), bits(&b.alphas), "alphas, m = {m}");
                assert_eq!(bits(&a.betas), bits(&b.betas), "betas, m = {m}");
                assert_eq!(bits(&a.residual), bits(&b.residual), "residual, m = {m}");
                assert_eq!(a.basis.len(), b.basis.len());
                for (x, y) in a.basis.iter().zip(&b.basis) {
                    assert_eq!(bits(x), bits(y), "basis, m = {m}");
                }
                assert_eq!((mv_a, st_a, rng_a), (mv_b, st_b, rng_b));
            }
        }
    }

    #[test]
    fn forced_non_convergence_is_reported() {
        // tol 0 cannot be met, and max_dim 8 stops the Krylov growth long
        // before the space is exhausted: pairs are force-locked.
        let l = cycle_norm_laplacian(400);
        let opts = EigOptions {
            tol: 0.0,
            max_dim: 8,
            ..EigOptions::default()
        };
        let res = smallest_eigenvalues_full(&l, 3, &opts).unwrap();
        assert!(!res.converged);
        assert!(
            smallest_eigenvalues_full(&l, 3, &EigOptions::default())
                .unwrap()
                .converged
        );
    }

    #[test]
    fn parallel_threads_same_answer() {
        let l = cycle_norm_laplacian(320);
        let mut o1 = EigOptions::default();
        o1.threads = 1;
        let mut o4 = EigOptions::default();
        o4.threads = 4;
        let a = smallest_eigenvalues(&l, 5, &o1).unwrap();
        let b = smallest_eigenvalues(&l, 5, &o4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8);
        }
    }
}
