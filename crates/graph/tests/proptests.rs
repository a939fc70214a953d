//! Property-based tests for the graph substrate.

use mvag_graph::generators::{balanced_labels, sbm, SbmConfig};
use mvag_graph::knn::{knn_graph, knn_graph_row_scan, knn_graph_with_stats, KnnConfig};
use mvag_graph::metrics::{
    connected_components, cut, normalized_cut, num_components, set_conductance, sweep_cut, volume,
};
use mvag_graph::Graph;
use mvag_sparse::eigen::{smallest_eigenvalues, EigOptions};
use mvag_sparse::DenseMatrix;
use proptest::prelude::*;

fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..4 * n).prop_map(move |edges| (n, edges))
    })
}

/// A node count that is often not a multiple of the 4-row micro-tile or
/// the 64-row tile: small (2..=5, including n < 4), within one tile
/// (5..65) or spanning two or three tiles (65..155).
fn knn_n_strategy() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..1000).prop_map(|(band, r)| match band {
        0 => 2 + r % 4,
        1 => 5 + r % 60,
        _ => 65 + r % 90,
    })
}

/// Attribute rows mixing what the tiled KNN kernel must get right: zero
/// rows, exact duplicates of earlier rows and binary rows (both plant
/// exactly tied similarities), and real rows with negative entries.
fn knn_input(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = match next() % 8 {
            0 => vec![0.0; d],
            1 | 2 if i > 0 => rows[next() as usize % i].clone(),
            3 | 4 => (0..d).map(|_| (next() % 2) as f64).collect(),
            _ => (0..d)
                .map(|_| (next() % 2001) as f64 / 1000.0 - 1.0)
                .collect(),
        };
        rows.push(row);
    }
    DenseMatrix::from_rows(&rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tiled_knn_equals_row_scan_oracle(
        n in knn_n_strategy(),
        d in 1usize..9,
        seed in 0u64..1_000_000,
        kk in 0usize..1000,
        threads in 1usize..=4,
    ) {
        let x = knn_input(n, d, seed);
        let k = 1 + kk % (n - 1);
        let (g, stats) = knn_graph_with_stats(&x, &KnnConfig { k, threads }).unwrap();
        let reference = knn_graph_row_scan(&x, k).unwrap();
        let (a, b) = (g.adjacency(), reference.adjacency());
        prop_assert_eq!(a.indptr(), b.indptr(), "n={} d={} k={} threads={}", n, d, k, threads);
        prop_assert_eq!(a.column_indices(), b.column_indices());
        let bits = |m: &mvag_sparse::CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(a), bits(b), "weights differ: n={} d={} k={}", n, d, k);
        // Every pair of nonzero rows is scored exactly once.
        let m = (0..n).filter(|&r| x.row(r).iter().any(|&v| v != 0.0)).count() as u64;
        prop_assert_eq!(stats.pairs_scored, m * m.saturating_sub(1) / 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn laplacian_spectrum_in_0_2((n, edges) in edges_strategy(30)) {
        let g = Graph::from_unweighted_edges(n, &edges).unwrap();
        let l = g.normalized_laplacian();
        let eig = mvag_sparse::eigen::jacobi_eig(&l.to_dense()).unwrap();
        prop_assert!(eig.values[0] > -1e-9, "λmin = {}", eig.values[0]);
        prop_assert!(eig.values[n - 1] < 2.0 + 1e-9, "λmax = {}", eig.values[n - 1]);
    }

    #[test]
    fn zero_eigenvalue_multiplicity_equals_nontrivial_components((n, edges) in edges_strategy(24)) {
        // For each connected component with at least one edge, the
        // normalized Laplacian contributes one ~0 eigenvalue; isolated
        // nodes contribute eigenvalue exactly 1 under our convention.
        let g = Graph::from_unweighted_edges(n, &edges).unwrap();
        let comp = connected_components(&g);
        let ncomp = num_components(&g);
        let isolated = g.isolated_nodes().len();
        let nontrivial = ncomp - isolated;
        let l = g.normalized_laplacian();
        let eig = mvag_sparse::eigen::jacobi_eig(&l.to_dense()).unwrap();
        let zeros = eig.values.iter().filter(|v| v.abs() < 1e-8).count();
        prop_assert_eq!(zeros, nontrivial, "components {:?}", comp);
    }

    #[test]
    fn cut_symmetric_between_set_and_complement((n, edges) in edges_strategy(20), mask_seed in 0u64..1000) {
        let g = Graph::from_unweighted_edges(n, &edges).unwrap();
        let members: Vec<bool> = (0..n).map(|i| (i as u64).wrapping_mul(mask_seed + 1).is_multiple_of(3)).collect();
        let complement: Vec<bool> = members.iter().map(|&b| !b).collect();
        prop_assert!((cut(&g, &members) - cut(&g, &complement)).abs() < 1e-10);
    }

    #[test]
    fn volumes_partition_total((n, edges) in edges_strategy(20)) {
        let g = Graph::from_unweighted_edges(n, &edges).unwrap();
        let members: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let complement: Vec<bool> = members.iter().map(|&b| !b).collect();
        let total = volume(&g, &members) + volume(&g, &complement);
        prop_assert!((total - g.total_volume()).abs() < 1e-10);
    }

    #[test]
    fn ncut_at_most_one((n, edges) in edges_strategy(20)) {
        let g = Graph::from_unweighted_edges(n, &edges).unwrap();
        let members: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
        if let Ok(phi) = normalized_cut(&g, &members) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&phi), "ϕ = {phi}");
        }
    }

    #[test]
    fn cheeger_inequality_on_connected_graphs(seed in 0u64..200) {
        // Random connected-ish SBM; skip disconnected draws.
        let labels = balanced_labels(40, 2).unwrap();
        let g = sbm(
            &labels,
            &SbmConfig { p_in: 0.4, p_out: 0.08, ..Default::default() },
            seed,
        ).unwrap();
        prop_assume!(num_components(&g) == 1);
        let l = g.normalized_laplacian();
        let vals = smallest_eigenvalues(&l, 2, &EigOptions::default()).unwrap();
        let lambda2 = vals[1];
        // Sweep over the Fiedler vector gives a certificate Φ ≤ √(2λ₂);
        // and Φ ≥ λ₂/2 for the true conductance, which the sweep bounds
        // from above.
        let pairs = mvag_sparse::eigen::smallest_eigenpairs(&l, 2, &EigOptions::default()).unwrap();
        let (phi_sweep, mask) = sweep_cut(&g, &pairs.vectors.col(1)).unwrap();
        prop_assert!(phi_sweep <= (2.0 * lambda2).sqrt() + 1e-9,
            "sweep ϕ = {} vs √(2λ₂) = {}", phi_sweep, (2.0 * lambda2).sqrt());
        // The set found is a valid bipartition with matching conductance.
        let direct = set_conductance(&g, &mask).unwrap();
        prop_assert!((direct - phi_sweep).abs() < 1e-9);
        prop_assert!(direct >= lambda2 / 2.0 - 1e-9);
    }

    #[test]
    fn knn_graph_node_degree_bounded(rows in proptest::collection::vec(
        proptest::collection::vec(-3.0f64..3.0, 4), 8..20), kk in 1usize..4) {
        let x = DenseMatrix::from_rows(&rows).unwrap();
        let n = x.nrows();
        prop_assume!(kk < n);
        let g = knn_graph(&x, &KnnConfig { k: kk, threads: 1 }).unwrap();
        // Union symmetrization: each node has between 0 and n-1 neighbours,
        // and at least k if it had k positive similarities.
        for i in 0..n {
            prop_assert!(g.neighbors(i).0.len() < n);
        }
        prop_assert!(g.adjacency().is_symmetric(1e-12));
        prop_assert!(g.adjacency().values().iter().all(|&w| (0.0..=1.0 + 1e-12).contains(&w)));
    }
}
