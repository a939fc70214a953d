//! K-nearest-neighbour graph construction from attribute views.
//!
//! The paper (Section III-B) converts each attribute view `Xⱼ` into a KNN
//! graph `G_K(Xⱼ)`: every node connects to its `K` most cosine-similar
//! nodes, each edge weighted by the similarity. The result is symmetrized
//! by keeping an edge if *either* endpoint selected the other (union),
//! which is the prevalent convention (e.g. 2CMV \[26\]).
//!
//! The search is exact brute force, but each unordered pair is scored
//! once: with `m` nonzero rows of dimension `d` it costs `m(m−1)/2 · d`
//! multiply-adds, spread over the worker pool. Rows are normalized and
//! packed into 4-row micro-panels; the kernel walks only the tiles
//! `(I, J)` with `J ≥ I`, and a 4×4 register micro-kernel scores 16
//! independent pairs per sweep over `d`. Each pair keeps one accumulator
//! summed left to right, so every similarity equals
//! [`vecops::dot`] of the two normalized rows
//! bit for bit. A scored pair feeds both endpoints' bounded top-`K`
//! lists; each worker owns private lists, merged at the end.
//!
//! **Tie rule.** Candidates are ranked by the total order (similarity
//! descending, then neighbour index ascending), so among equally similar
//! candidates at the `K`-th boundary the lower index wins. The graph is
//! therefore identical for every thread count.
//!
//! The paper's `qnK` terms count the *resulting* nonzeros; the
//! construction itself is a one-time preprocessing cost reported as part
//! of total runtime in Figures 5–6 (as we do in the harness).

use crate::{Graph, GraphError, Result};
use mvag_sparse::parallel::par_map;
use mvag_sparse::{vecops, CooMatrix, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parameters for KNN graph construction.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Number of neighbours per node (the paper uses K = 10 by default and
    /// larger values for attribute-rich datasets).
    pub k: usize,
    /// Worker threads (default: autodetect, ≤ 16).
    pub threads: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 10,
            threads: mvag_sparse::parallel::default_threads(),
        }
    }
}

/// Work counters of one [`knn_graph_with_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnStats {
    /// Unordered pairs whose similarity was computed: `m(m−1)/2` for the
    /// `m` nonzero rows (pairs involving a zero row are skipped).
    pub pairs_scored: u64,
}

/// Rows per micro-panel (and side of the register micro-kernel).
const MICRO: usize = 4;
/// Rows per tile; a multiple of [`MICRO`].
const TILE: usize = 64;

/// Builds the similarity-weighted KNN graph of the rows of `x`.
///
/// Only strictly positive cosine similarities produce edges (a node with
/// no positively-similar peers can end up with fewer than `k` neighbours,
/// or isolated — downstream code must tolerate isolated nodes, and the
/// connectivity objective is what steers SGLA's weights away from such
/// views).
///
/// Each node keeps its `k` best candidates under the total order
/// (similarity descending, then neighbour index ascending): ties at the
/// `k`-th boundary go to the lower index, and the result does not depend
/// on `config.threads`.
///
/// # Errors
/// [`GraphError::InvalidArgument`] if `k == 0` or `k >= n`.
pub fn knn_graph(x: &DenseMatrix, config: &KnnConfig) -> Result<Graph> {
    knn_graph_with_stats(x, config).map(|(g, _)| g)
}

/// [`knn_graph`] plus the counters of the work it did.
///
/// # Errors
/// As [`knn_graph`].
pub fn knn_graph_with_stats(x: &DenseMatrix, config: &KnnConfig) -> Result<(Graph, KnnStats)> {
    let n = x.nrows();
    check_k(config.k, n)?;
    let k = config.k;
    let d = x.ncols();
    // Nonzero rows with their normalizing factors; zero rows score no
    // pairs and stay isolated.
    let live: Vec<(u32, f64)> = (0..n)
        .filter_map(|r| row_scale(x.row(r)).map(|inv| (r as u32, inv)))
        .collect();
    let panels = pack_panels(x, &live);
    let m = live.len();
    let blocks = m.div_ceil(TILE);
    let tiles: Vec<(usize, usize)> = (0..blocks)
        .flat_map(|a| (a..blocks).map(move |b| (a, b)))
        .collect();

    // Each worker claims tiles from a shared cursor and keeps private
    // per-row top-k lists; the tie rule makes the merge order-free.
    let cursor = AtomicUsize::new(0);
    let workers = config.threads.clamp(1, tiles.len().max(1));
    let parts = par_map(workers, workers, |_| {
        let mut top = TopK::new(m, k);
        let mut pairs = 0u64;
        loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(a, b)) = tiles.get(t) else { break };
            pairs += score_tile(&panels, d, m, a, b, &mut top);
        }
        (top, pairs)
    });
    let mut parts = parts.into_iter();
    let (mut top, mut pairs_scored) = parts.next().expect("at least one worker");
    for (part, pairs) in parts {
        top.absorb(&part);
        pairs_scored += pairs;
    }

    // Union-symmetrize: edge weight = max of the two directed similarities
    // (they are bit-identical, so either copy serves). Sorting the
    // (min, max) keys brings both copies of a mutual edge together.
    let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(m * k);
    for i in 0..m {
        for (j, sim) in top.row(i) {
            let (u, v) = (live[i].0, live[j as usize].0);
            edges.push((u.min(v), u.max(v), sim));
        }
    }
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    let graph = symmetric_graph(n, &edges)?;
    Ok((graph, KnnStats { pairs_scored }))
}

/// The row-scan reference for [`knn_graph`], kept as a test oracle (the
/// property tests and `kernel_bench --smoke` compare against it): each
/// row scores every other row with [`vecops::dot`], sorts its positive
/// similarities by (similarity descending, index ascending) and keeps
/// the first `k`. Single-threaded, `O(n² d)`; no training path calls it.
///
/// # Errors
/// As [`knn_graph`].
pub fn knn_graph_row_scan(x: &DenseMatrix, k: usize) -> Result<Graph> {
    let n = x.nrows();
    check_k(k, n)?;
    let normed: Vec<Option<Vec<f64>>> = (0..n)
        .map(|r| {
            let row = x.row(r);
            row_scale(row).map(|inv| row.iter().map(|v| v * inv).collect())
        })
        .collect();
    let mut edges = std::collections::BTreeMap::new();
    for (i, xi) in normed.iter().enumerate() {
        let Some(xi) = xi else { continue };
        let mut cands: Vec<(usize, f64)> = normed
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .filter_map(|(j, xj)| xj.as_ref().map(|xj| (j, vecops::dot(xi, xj))))
            .filter(|&(_, sim)| sim > 0.0)
            .collect();
        cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(j, sim) in cands.iter().take(k) {
            edges.insert((i.min(j) as u32, i.max(j) as u32), sim);
        }
    }
    let edges: Vec<(u32, u32, f64)> = edges.into_iter().map(|((u, v), s)| (u, v, s)).collect();
    symmetric_graph(n, &edges)
}

fn check_k(k: usize, n: usize) -> Result<()> {
    if k == 0 {
        return Err(GraphError::InvalidArgument("knn k must be >= 1".into()));
    }
    if k >= n {
        return Err(GraphError::InvalidArgument(format!(
            "knn k = {k} must be < n = {n}"
        )));
    }
    // Neighbour ids are stored as u32.
    if u32::try_from(n).is_err() {
        return Err(GraphError::InvalidArgument(format!(
            "knn n = {n} exceeds u32::MAX rows"
        )));
    }
    Ok(())
}

/// The factor that normalizes `row` to unit length, or `None` for a
/// (near-)zero row, which gets no neighbours.
fn row_scale(row: &[f64]) -> Option<f64> {
    let nrm = vecops::norm2(row);
    (nrm > f64::MIN_POSITIVE).then(|| 1.0 / nrm)
}

/// Builds the graph from deduplicated `(u, v, sim)` edges with `u < v`.
fn symmetric_graph(n: usize, edges: &[(u32, u32, f64)]) -> Result<Graph> {
    let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2);
    for &(u, v, sim) in edges {
        coo.push_sym(u as usize, v as usize, sim.clamp(0.0, 1.0))
            .map_err(GraphError::from)?;
    }
    Graph::from_adjacency(coo.to_csr())
}

/// Normalizes the `live` rows of `x` (row, factor) into 4-row
/// micro-panels: panel `p` holds live rows `4p..4p+4` interleaved as
/// `[t][row]`, so the micro-kernel reads the four values of column `t`
/// contiguously. A short last panel is padded with zero rows.
fn pack_panels(x: &DenseMatrix, live: &[(u32, f64)]) -> Vec<f64> {
    let d = x.ncols();
    let mut panels = vec![0.0; live.len().div_ceil(MICRO) * MICRO * d];
    for (l, &(r, inv)) in live.iter().enumerate() {
        let row = x.row(r as usize);
        let panel = &mut panels[(l / MICRO) * MICRO * d..][..MICRO * d];
        for (t, v) in row.iter().enumerate() {
            panel[t * MICRO + l % MICRO] = v * inv;
        }
    }
    panels
}

/// Scores every pair `i < j` with `i` in tile `a` and `j` in tile `b`
/// (`a ≤ b`), offers the positive ones to both rows' lists, and returns
/// the number of pairs scored.
fn score_tile(panels: &[f64], d: usize, m: usize, a: usize, b: usize, top: &mut TopK) -> u64 {
    let span = MICRO * d;
    let micro_range = |tile: usize| {
        let lo = tile * TILE / MICRO;
        lo..((tile + 1) * TILE).min(m).div_ceil(MICRO)
    };
    let mut pairs = 0u64;
    for pa in micro_range(a) {
        let pa_vals = &panels[pa * span..][..span];
        for pb in micro_range(b).filter(|&pb| pb >= pa) {
            let sims = micro_kernel(pa_vals, &panels[pb * span..][..span]);
            for (r, sims_r) in sims.iter().enumerate() {
                let i = pa * MICRO + r;
                for (c, &sim) in sims_r.iter().enumerate() {
                    let j = pb * MICRO + c;
                    if j <= i || j >= m {
                        continue;
                    }
                    pairs += 1;
                    if sim > 0.0 {
                        top.offer(i, j as u32, sim);
                        top.offer(j, i as u32, sim);
                    }
                }
            }
        }
    }
    pairs
}

/// The 4×4 dot products between two micro-panels. Each of the 16 sums
/// has its own accumulator, started at `-0.0` and added to left to
/// right — exactly the order of [`vecops::dot`] — so the results are
/// bit-identical to it; the speed comes from the 16 independent chains.
#[inline]
fn micro_kernel(a: &[f64], b: &[f64]) -> [[f64; MICRO]; MICRO] {
    let mut acc = [[-0.0f64; MICRO]; MICRO];
    for (at, bt) in a.chunks_exact(MICRO).zip(b.chunks_exact(MICRO)) {
        for r in 0..MICRO {
            for c in 0..MICRO {
                acc[r][c] += at[r] * bt[c];
            }
        }
    }
    acc
}

/// Bounded per-row candidate lists, each sorted best first under the
/// total order (similarity descending, index ascending).
struct TopK {
    k: usize,
    len: Vec<u32>,
    sim: Vec<f64>,
    nbr: Vec<u32>,
}

/// Whether candidate `(s1, j1)` ranks before `(s2, j2)`.
#[inline]
fn ranks_before(s1: f64, j1: u32, s2: f64, j2: u32) -> bool {
    s1 > s2 || (s1 == s2 && j1 < j2)
}

impl TopK {
    fn new(rows: usize, k: usize) -> Self {
        TopK {
            k,
            len: vec![0; rows],
            sim: vec![0.0; rows * k],
            nbr: vec![0; rows * k],
        }
    }

    /// Offers candidate `j` with similarity `s` to row `i`'s list.
    #[inline]
    fn offer(&mut self, i: usize, j: u32, s: f64) {
        let base = i * self.k;
        let len = self.len[i] as usize;
        let last = base + self.k - 1;
        if len == self.k && !ranks_before(s, j, self.sim[last], self.nbr[last]) {
            return;
        }
        let mut p = base + len.min(self.k - 1);
        while p > base && ranks_before(s, j, self.sim[p - 1], self.nbr[p - 1]) {
            self.sim[p] = self.sim[p - 1];
            self.nbr[p] = self.nbr[p - 1];
            p -= 1;
        }
        self.sim[p] = s;
        self.nbr[p] = j;
        if len < self.k {
            self.len[i] += 1;
        }
    }

    /// Row `i`'s candidates, best first.
    fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let base = i * self.k;
        let len = self.len[i] as usize;
        self.nbr[base..base + len]
            .iter()
            .copied()
            .zip(self.sim[base..base + len].iter().copied())
    }

    /// Merges another worker's lists into these. Every pair is scored by
    /// exactly one worker, so no candidate arrives twice.
    fn absorb(&mut self, other: &TopK) {
        for i in 0..self.len.len() {
            for (j, s) in other.row(i) {
                self.offer(i, j, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters in 2-D.
    fn two_blobs() -> DenseMatrix {
        let mut rows = Vec::new();
        for i in 0..6 {
            let t = i as f64 * 0.05;
            rows.push(vec![1.0 + t, 0.1 * t]); // blob A near +x axis
        }
        for i in 0..6 {
            let t = i as f64 * 0.05;
            rows.push(vec![-0.1 * t - 0.05, 1.0 + t]); // blob B near +y axis
        }
        DenseMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn knn_separates_blobs() {
        let x = two_blobs();
        let g = knn_graph(&x, &KnnConfig { k: 3, threads: 2 }).unwrap();
        // No edges across the two blobs: cross-cosine is ≈ 0 or negative.
        for i in 0..6 {
            let (cols, _) = g.neighbors(i);
            for &c in cols {
                assert!(c < 6, "node {i} connected across blobs to {c}");
            }
        }
        // All nodes in a blob have neighbours.
        for i in 0..12 {
            assert!(!g.neighbors(i).0.is_empty(), "node {i} isolated");
        }
    }

    #[test]
    fn edge_weights_are_cosine_similarities() {
        let x = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 1, threads: 1 }).unwrap();
        let w = g.adjacency().get(0, 1);
        assert!((w - (0.5f64).sqrt()).abs() < 1e-12, "w = {w}");
    }

    #[test]
    fn invalid_k_rejected() {
        let x = DenseMatrix::zeros(4, 2);
        assert!(knn_graph(&x, &KnnConfig { k: 0, threads: 1 }).is_err());
        assert!(knn_graph(&x, &KnnConfig { k: 4, threads: 1 }).is_err());
    }

    #[test]
    fn zero_rows_become_isolated() {
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 0.0], // zero attributes
            vec![0.8, 0.2],
        ])
        .unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 1 }).unwrap();
        assert!(g.neighbors(2).0.is_empty());
    }

    #[test]
    fn symmetric_result() {
        let x = two_blobs();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 2 }).unwrap();
        assert!(g.adjacency().is_symmetric(1e-12));
    }

    #[test]
    fn negative_similarity_excluded() {
        let x =
            DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.9, 0.05]]).unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 1 }).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 0.0);
        assert!(g.adjacency().get(0, 2) > 0.0);
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let x = two_blobs();
        let g1 = knn_graph(&x, &KnnConfig { k: 3, threads: 1 }).unwrap();
        let g2 = knn_graph(&x, &KnnConfig { k: 3, threads: 4 }).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn boundary_ties_keep_lowest_index_for_any_thread_count() {
        // Row 0 is the query; rows 1..=8 are four copies each of two
        // binary patterns, so row 0 sees exactly tied candidates. More
        // rows pad n past one tile.
        let query = vec![1.0, 1.0, 0.0, 0.0];
        let near = vec![1.0, 1.0, 1.0, 0.0]; // cosine √(2/3) to the query
        let far = vec![1.0, 0.0, 0.0, 1.0]; // cosine 1/2 to the query
        let mut rows = vec![query];
        for i in 0..8 {
            rows.push(if i % 2 == 0 { &far } else { &near }.clone());
        }
        for i in 0..70 {
            rows.push(vec![0.0, 0.0, (i % 3) as f64, 1.0 + (i % 5) as f64]);
        }
        let x = DenseMatrix::from_rows(&rows).unwrap();
        // k = 6: the four `near` copies (rows 2, 4, 6, 8) plus the two
        // lowest-index `far` copies (rows 1, 3) out of four tied ones.
        let reference = knn_graph_row_scan(&x, 6).unwrap();
        for threads in 1..=4 {
            let g = knn_graph(&x, &KnnConfig { k: 6, threads }).unwrap();
            assert_eq!(g, reference, "threads = {threads}");
        }
        // No other row selects row 0 (the `far` copies prefer each other
        // and the fillers on their last axis), so its neighbours are
        // exactly its own selection.
        assert_eq!(reference.neighbors(0).0, &[1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn pairs_scored_skips_zero_rows() {
        let mut rows: Vec<Vec<f64>> = (0..11).map(|i| vec![1.0, i as f64]).collect();
        rows[3] = vec![0.0, 0.0];
        rows[7] = vec![0.0, 0.0];
        let x = DenseMatrix::from_rows(&rows).unwrap();
        for threads in 1..=3 {
            let (_, stats) = knn_graph_with_stats(&x, &KnnConfig { k: 2, threads }).unwrap();
            assert_eq!(stats.pairs_scored, 9 * 8 / 2);
        }
    }
}
