//! View-Laplacian construction (Section III-B of the paper).
//!
//! Each of the `r` views of an MVAG contributes one normalized Laplacian
//! `Lᵢ`:
//!
//! * a graph view `Gᵢ` contributes `L(Gᵢ) = I − D^{-1/2} Aᵢ D^{-1/2}`;
//! * an attribute view `Xⱼ` contributes `L(G_K(Xⱼ))` — the normalized
//!   Laplacian of its similarity-weighted KNN graph.
//!
//! The resulting [`ViewLaplacians`] is the immutable input shared by SGLA,
//! SGLA+, and all the baseline integrations; building it is a one-time
//! preprocessing cost that the experiment harness includes in every
//! reported total runtime (as the paper does in Figs. 5–6).

use crate::{Result, SglaError};
use mvag_graph::knn::{knn_graph, knn_graph_with_stats, KnnConfig};
use mvag_graph::{Mvag, View};
use mvag_sparse::linop::ScaledSumOp;
use mvag_sparse::{CsrMatrix, FusedSumOp};

/// KNN construction parameters for attribute views.
#[derive(Debug, Clone)]
pub struct KnnParams {
    /// Default number of neighbours `K` (the paper uses 10).
    pub k: usize,
    /// Per-attribute-view overrides, keyed by the view's position among
    /// attribute views (0-based). The paper uses K = 200 for Yelp and
    /// K = 500 for IMDB whose attribute views are more informative.
    pub overrides: Vec<(usize, usize)>,
    /// Worker threads for the KNN search.
    pub threads: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 10,
            overrides: Vec::new(),
            threads: mvag_sparse::parallel::default_threads(),
        }
    }
}

impl KnnParams {
    /// The `K` to use for the `idx`-th attribute view.
    fn k_for(&self, idx: usize) -> usize {
        self.overrides
            .iter()
            .find_map(|&(i, k)| (i == idx).then_some(k))
            .unwrap_or(self.k)
    }
}

/// The `r` view Laplacians of an MVAG, ready for weighted aggregation.
#[derive(Debug, Clone)]
pub struct ViewLaplacians {
    laplacians: Vec<CsrMatrix>,
    n: usize,
    /// Which original views are graph views (true) vs attribute views.
    is_graph: Vec<bool>,
}

impl ViewLaplacians {
    /// Builds all view Laplacians from an MVAG.
    ///
    /// # Errors
    /// Propagates KNN-construction failures (e.g. `K ≥ n`).
    pub fn build(mvag: &Mvag, knn: &KnnParams) -> Result<Self> {
        let _phase = mvag_obs::span("train.views");
        let mut laplacians = Vec::with_capacity(mvag.r());
        let mut is_graph = Vec::with_capacity(mvag.r());
        let mut attr_idx = 0usize;
        for (view_idx, view) in mvag.views().iter().enumerate() {
            let mut span = mvag_obs::span("train.view_laplacian");
            span.counter("view", view_idx as u64);
            match view {
                View::Graph(g) => {
                    laplacians.push(g.normalized_laplacian());
                    is_graph.push(true);
                }
                View::Attributes(x) => {
                    let k = knn.k_for(attr_idx).min(x.nrows().saturating_sub(1)).max(1);
                    span.counter("knn_k", k as u64);
                    let (g, stats) = knn_graph_with_stats(
                        x,
                        &KnnConfig {
                            k,
                            threads: knn.threads,
                        },
                    )?;
                    span.counter("pairs_scored", stats.pairs_scored);
                    laplacians.push(g.normalized_laplacian());
                    is_graph.push(false);
                    attr_idx += 1;
                }
            }
        }
        Ok(ViewLaplacians {
            laplacians,
            n: mvag.n(),
            is_graph,
        })
    }

    /// Incrementally refreshes these view Laplacians for an updated
    /// MVAG (same views, `updated.n() >= self.n()` after an
    /// append-only delta): views flagged in `changed` are rebuilt from
    /// `updated` exactly as [`ViewLaplacians::build`] would, while
    /// unchanged views reuse their existing Laplacian, extended with
    /// identity rows for the appended (necessarily isolated) nodes —
    /// which is *bit-identical* to rebuilding them, at `O(nnz)` copy
    /// cost instead of a KNN search or Laplacian recomputation.
    ///
    /// Callers derive `changed` from
    /// [`MvagDelta::changed_views`](mvag_graph::MvagDelta::changed_views):
    /// a graph view changes only when it gains edges; an attribute
    /// view changes whenever rows are appended.
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] if `updated` does not line up
    /// with these views (count, kind, shrunken node count); propagates
    /// KNN-construction failures for rebuilt attribute views.
    pub fn update(
        &self,
        updated: &Mvag,
        knn: &KnnParams,
        changed: &[bool],
    ) -> Result<ViewLaplacians> {
        if updated.r() != self.r() || changed.len() != self.r() {
            return Err(SglaError::InvalidArgument(format!(
                "update: {} views / {} changed flags for {} existing Laplacians",
                updated.r(),
                changed.len(),
                self.r()
            )));
        }
        if updated.n() < self.n {
            return Err(SglaError::InvalidArgument(format!(
                "update: node count shrank from {} to {} (deltas are append-only)",
                self.n,
                updated.n()
            )));
        }
        let _phase = mvag_obs::span("train.views");
        let n_new = updated.n();
        let mut laplacians = Vec::with_capacity(self.r());
        let mut is_graph = Vec::with_capacity(self.r());
        let mut attr_idx = 0usize;
        for (i, view) in updated.views().iter().enumerate() {
            match view {
                View::Graph(g) => {
                    if !self.is_graph[i] {
                        return Err(SglaError::InvalidArgument(format!(
                            "update: view {i} changed kind (was an attribute view)"
                        )));
                    }
                    if changed[i] {
                        laplacians.push(g.normalized_laplacian());
                    } else {
                        laplacians.push(extend_laplacian(&self.laplacians[i], n_new)?);
                    }
                    is_graph.push(true);
                }
                View::Attributes(x) => {
                    if self.is_graph[i] {
                        return Err(SglaError::InvalidArgument(format!(
                            "update: view {i} changed kind (was a graph view)"
                        )));
                    }
                    if changed[i] {
                        let k = knn.k_for(attr_idx).min(x.nrows().saturating_sub(1)).max(1);
                        let g = knn_graph(
                            x,
                            &KnnConfig {
                                k,
                                threads: knn.threads,
                            },
                        )?;
                        laplacians.push(g.normalized_laplacian());
                    } else {
                        laplacians.push(extend_laplacian(&self.laplacians[i], n_new)?);
                    }
                    is_graph.push(false);
                    attr_idx += 1;
                }
            }
        }
        Ok(ViewLaplacians {
            laplacians,
            n: n_new,
            is_graph,
        })
    }

    /// Wraps pre-built Laplacians (all `n × n`, symmetric).
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] on shape inconsistencies or fewer
    /// than 2 views.
    pub fn from_laplacians(laplacians: Vec<CsrMatrix>) -> Result<Self> {
        if laplacians.len() < 2 {
            return Err(SglaError::InvalidArgument(format!(
                "need r >= 2 view Laplacians, got {}",
                laplacians.len()
            )));
        }
        let n = laplacians[0].nrows();
        for (i, l) in laplacians.iter().enumerate() {
            if l.nrows() != n || l.ncols() != n {
                return Err(SglaError::InvalidArgument(format!(
                    "view Laplacian {i} is {}x{}, expected {n}x{n}",
                    l.nrows(),
                    l.ncols()
                )));
            }
        }
        let r = laplacians.len();
        Ok(ViewLaplacians {
            laplacians,
            n,
            is_graph: vec![true; r],
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of views `r`.
    pub fn r(&self) -> usize {
        self.laplacians.len()
    }

    /// The individual Laplacians.
    pub fn laplacians(&self) -> &[CsrMatrix] {
        &self.laplacians
    }

    /// Whether view `i` originated from a graph view.
    pub fn is_graph_view(&self, i: usize) -> bool {
        self.is_graph[i]
    }

    /// A lazy aggregation operator `L(w) = Σ wᵢ Lᵢ` (Eq. 1) for the given
    /// weights — no materialization, `O(Σ nnz)` per matvec.
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] on weight-length mismatch.
    pub fn aggregate_op(&self, weights: &[f64]) -> Result<ScaledSumOp<'_>> {
        self.check_weights(weights)?;
        Ok(ScaledSumOp::new(
            self.laplacians.iter().collect(),
            weights.to_vec(),
        ))
    }

    /// A fused aggregation operator: pattern analysis runs once here,
    /// then [`FusedSumOp::set_weights`] refreshes the scratch CSR in
    /// `O(Σ nnz)` per weight vector while every matvec streams a single
    /// matrix instead of `r`. This is what the objective's inner
    /// eigensolves use — weights are fixed for the duration of a solve,
    /// so the refresh amortizes over hundreds of matvecs.
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] on weight-length mismatch.
    pub fn fused_op(&self, weights: &[f64]) -> Result<FusedSumOp<'_>> {
        self.check_weights(weights)?;
        Ok(FusedSumOp::new(
            self.laplacians.iter().collect(),
            weights.to_vec(),
        )?)
    }

    /// Validates a candidate weight vector against these views (length
    /// and finiteness) without constructing anything.
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] on mismatch or non-finite entries.
    pub fn validate_weights(&self, weights: &[f64]) -> Result<()> {
        self.check_weights(weights)
    }

    /// Materializes the MVAG Laplacian `L = Σ wᵢ Lᵢ` (Eq. 1).
    ///
    /// # Errors
    /// [`SglaError::InvalidArgument`] on weight-length mismatch.
    pub fn aggregate(&self, weights: &[f64]) -> Result<CsrMatrix> {
        self.check_weights(weights)?;
        let refs: Vec<&CsrMatrix> = self.laplacians.iter().collect();
        Ok(CsrMatrix::linear_combination(&refs, weights)?)
    }

    /// The `r` changed-flags of a no-op refresh (rebuild everything).
    pub fn all_changed(&self) -> Vec<bool> {
        vec![true; self.r()]
    }

    fn check_weights(&self, weights: &[f64]) -> Result<()> {
        if weights.len() != self.r() {
            return Err(SglaError::InvalidArgument(format!(
                "{} weights for {} views",
                weights.len(),
                self.r()
            )));
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(SglaError::InvalidArgument("non-finite view weight".into()));
        }
        Ok(())
    }
}

/// Extends an `n × n` normalized Laplacian to `n_new × n_new` by
/// adding identity rows/columns for appended isolated nodes — exactly
/// what `L(G) = I − D^{-1/2} A D^{-1/2}` yields for a graph whose new
/// nodes have no edges (the existing block is untouched because no
/// existing degree changes).
fn extend_laplacian(l: &CsrMatrix, n_new: usize) -> Result<CsrMatrix> {
    let n_old = l.nrows();
    if n_new == n_old {
        return Ok(l.clone());
    }
    let added = n_new - n_old;
    let nnz_old = l.nnz();
    let mut indptr = Vec::with_capacity(n_new + 1);
    indptr.extend_from_slice(l.indptr());
    let mut cols = Vec::with_capacity(nnz_old + added);
    cols.extend_from_slice(l.column_indices());
    let mut vals = Vec::with_capacity(nnz_old + added);
    vals.extend_from_slice(l.values());
    for i in n_old..n_new {
        cols.push(i);
        vals.push(1.0);
        indptr.push(cols.len());
    }
    CsrMatrix::from_raw_parts(n_new, n_new, indptr, cols, vals)
        .map_err(|e| SglaError::InvalidArgument(format!("extending Laplacian: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvag_graph::toy::{figure1_example, figure2_example};

    #[test]
    fn build_from_graph_views() {
        let mvag = figure2_example();
        let v = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        assert_eq!(v.r(), 2);
        assert_eq!(v.n(), 8);
        assert!(v.is_graph_view(0) && v.is_graph_view(1));
        for l in v.laplacians() {
            assert!(l.is_symmetric(1e-12));
            assert_eq!(l.nrows(), 8);
        }
    }

    #[test]
    fn build_with_attribute_views() {
        let mvag = figure1_example();
        let v = ViewLaplacians::build(
            &mvag,
            &KnnParams {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(v.r(), 4);
        assert!(!v.is_graph_view(2));
        assert!(!v.is_graph_view(3));
        // Attribute Laplacians are valid normalized Laplacians: symmetric,
        // diagonal entries in [0, 1].
        for l in &v.laplacians()[2..] {
            assert!(l.is_symmetric(1e-12));
            for d in l.diag() {
                assert!((0.0..=1.0 + 1e-12).contains(&d));
            }
        }
    }

    #[test]
    fn knn_override_applies() {
        let p = KnnParams {
            k: 10,
            overrides: vec![(1, 3)],
            threads: 1,
        };
        assert_eq!(p.k_for(0), 10);
        assert_eq!(p.k_for(1), 3);
    }

    #[test]
    fn incremental_update_is_bit_identical_to_full_rebuild() {
        use mvag_graph::generators::{random_append_delta, AppendConfig};
        let base = mvag_graph::toy::toy_mvag(60, 3, 11);
        let knn = KnnParams::default();
        let views = ViewLaplacians::build(&base, &knn).unwrap();

        // Append delta touching every view.
        let delta = random_append_delta(
            &base,
            &AppendConfig {
                added_nodes: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let updated = base.apply_delta(&delta).unwrap();
        let changed = delta.changed_views(&base).unwrap();
        let incremental = views.update(&updated, &knn, &changed).unwrap();
        let fresh = ViewLaplacians::build(&updated, &knn).unwrap();
        assert_eq!(incremental.n(), 65);
        for (a, b) in incremental.laplacians().iter().zip(fresh.laplacians()) {
            assert_eq!(a, b, "incremental Laplacian diverged from rebuild");
        }

        // Edge-only delta: only the touched graph view is rebuilt; the
        // untouched views are reused (and still match a full rebuild).
        let edges_only = mvag_graph::MvagDelta::append(
            0,
            vec![
                mvag_graph::ViewDelta::Edges(vec![(0, 59, 1.0)]),
                mvag_graph::ViewDelta::Edges(vec![]),
                mvag_graph::ViewDelta::Rows(mvag_sparse::DenseMatrix::zeros(0, 0)),
            ],
            Some(vec![]),
        );
        let changed = edges_only.changed_views(&base).unwrap();
        assert_eq!(changed, vec![true, false, false]);
        let patched = base.apply_delta(&edges_only).unwrap();
        let incremental = views.update(&patched, &knn, &changed).unwrap();
        let fresh = ViewLaplacians::build(&patched, &knn).unwrap();
        for (a, b) in incremental.laplacians().iter().zip(fresh.laplacians()) {
            assert_eq!(a, b);
        }

        // Misaligned inputs are rejected.
        assert!(views.update(&updated, &knn, &[true]).is_err());
        assert!(ViewLaplacians::build(&updated, &knn)
            .unwrap()
            .update(&base, &knn, &views.all_changed())
            .is_err());
    }

    #[test]
    fn aggregate_matches_operator() {
        let mvag = figure2_example();
        let v = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        let w = [0.6, 0.4];
        let mat = v.aggregate(&w).unwrap();
        let op = v.aggregate_op(&w).unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        mat.matvec(&x, &mut y1);
        use mvag_sparse::LinOp;
        op.matvec(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_validation() {
        let mvag = figure2_example();
        let v = ViewLaplacians::build(&mvag, &KnnParams::default()).unwrap();
        assert!(v.aggregate(&[0.5]).is_err());
        assert!(v.aggregate(&[0.5, f64::NAN]).is_err());
    }

    #[test]
    fn from_laplacians_validates() {
        let l = CsrMatrix::identity(4);
        assert!(ViewLaplacians::from_laplacians(vec![l.clone()]).is_err());
        assert!(ViewLaplacians::from_laplacians(vec![l.clone(), CsrMatrix::identity(5)]).is_err());
        assert!(ViewLaplacians::from_laplacians(vec![l.clone(), l]).is_ok());
    }
}
