//! Kernel micro-benchmark: persistent-pool + fused-operator hot paths
//! against their pre-pool baselines, with built-in correctness gates.
//!
//! Four kernel families are timed at several sizes:
//!
//! * **spmv** — `CsrMatrix::matvec_parallel` (persistent pool, chunk
//!   stealing) vs the scoped-thread baseline
//!   (`parallel::scoped::matvec_parallel`, one spawn/join cycle per
//!   chunk per call — the pre-pool implementation);
//! * **fused-spmv** — one application of the integrated multi-view
//!   operator `Σ wᵥ Lᵥ`: [`FusedSumOp`] (single fused CSR pass) vs the
//!   lazy [`ScaledSumOp`] (one pass per view — the pre-fusing hot path
//!   of every inner eigensolve);
//! * **block-spmv** — [`CsrMatrix::matvec_block`] (one row traversal
//!   updates the whole block) vs `b` independent matvecs (the pre-block
//!   subspace-iteration inner loop);
//! * **knn** — KNN graph construction (the symmetric tiled kernel,
//!   which scores each pair once);
//! * **lanczos** — the `k = 5` smallest eigenvalues of the fused 3-view
//!   operator (the SGLA+ inner eigensolve), with its matvec count.
//!
//! Every timed pair is also *verified*: pooled vs sequential and block
//! vs column-wise must agree bit-for-bit, fused vs lazy within a 1e-10
//! relative tolerance, and the tiled KNN graph must equal the row-scan
//! reference (`knn_graph_row_scan`) bit-for-bit at 1 and `threads`
//! workers, and at the smallest Lanczos size the eigenvalues must match
//! dense Jacobi within 1e-7. Any divergence fails the run (nonzero exit) —
//! this is the CI gate that keeps the fused kernels honest.

use mvag_data::json::Value;
use mvag_graph::knn::{knn_graph, knn_graph_row_scan, KnnConfig};
use mvag_sparse::eigen::{jacobi_eig, smallest_eigenvalues_full, EigOptions};
use mvag_sparse::parallel::scoped;
use mvag_sparse::{CooMatrix, CsrMatrix, DenseMatrix, FusedSumOp, LinOp, ScaledSumOp};
use std::time::Instant;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Matrix sizes (node counts) to benchmark.
    pub sizes: Vec<usize>,
    /// Average stored entries per row.
    pub per_row: usize,
    /// Number of views for the fused-operator benchmark.
    pub views: usize,
    /// Block width for the multi-vector matvec.
    pub block: usize,
    /// Worker width for parallel kernels.
    pub threads: usize,
    /// KNN sizes (node counts) and dimensionality.
    pub knn_sizes: Vec<usize>,
    /// Attribute dimensionality for the KNN benchmark.
    pub knn_dim: usize,
    /// Lanczos sizes (node counts); the smallest is also solved densely
    /// as the reference.
    pub lanczos_sizes: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Smoke mode: tiny sizes, few reps — correctness gate only.
    pub smoke: bool,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        KernelBenchConfig {
            sizes: vec![2_000, 20_000, 120_000],
            per_row: 8,
            views: 3,
            block: 16,
            threads: mvag_sparse::parallel::default_threads(),
            knn_sizes: vec![500, 1_500],
            knn_dim: 32,
            lanczos_sizes: vec![400, 2_000],
            seed: 2025,
            smoke: false,
        }
    }
}

impl KernelBenchConfig {
    /// The reduced configuration used by `--smoke` (CI).
    pub fn smoke() -> Self {
        KernelBenchConfig {
            sizes: vec![400, 2_000],
            knn_sizes: vec![200],
            lanczos_sizes: vec![400],
            smoke: true,
            ..Default::default()
        }
    }

    fn reps_for(&self, nnz: usize) -> usize {
        if self.smoke {
            return 5;
        }
        // Aim for enough repetitions that the p50 is stable without the
        // large sizes taking minutes: ~2e8 streamed entries per kernel.
        (200_000_000 / nnz.max(1)).clamp(11, 301)
    }
}

/// Timing summary of one kernel at one size.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name.
    pub kernel: String,
    /// Problem size (nodes).
    pub n: usize,
    /// Stored entries involved in one application.
    pub nnz: usize,
    /// Repetitions measured (after warmup).
    pub reps: usize,
    /// Median per-application latency, microseconds.
    pub p50_us: f64,
    /// Mean per-application latency, microseconds.
    pub mean_us: f64,
    /// Operator applications per run, for kernels that apply an
    /// operator repeatedly (the eigensolve).
    pub matvecs: Option<usize>,
}

/// Full benchmark outcome.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// All timings, grouped by kernel family in insertion order.
    pub timings: Vec<KernelTiming>,
    /// Verification failures (empty for a healthy run).
    pub divergences: Vec<String>,
}

fn time_reps<F: FnMut()>(reps: usize, mut f: F) -> (f64, f64) {
    let warmup = (reps / 5).clamp(1, 3);
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p50 = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (p50, mean)
}

/// Deterministic random symmetric-ish CSR with strictly positive values
/// (no exact cancellation, so union-pattern fusing is bit-comparable to
/// the materialized linear combination).
fn random_csr(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for i in 0..n {
        for _ in 0..per_row / 2 {
            let s = next();
            let j = (s >> 33) as usize % n;
            let v = ((s >> 11) & 0xffff) as f64 / 65536.0 + 1e-3;
            coo.push_sym(i, j, v).expect("in bounds");
        }
    }
    coo.to_csr()
}

fn bench_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0)
        .collect()
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0f64, f64::max)
}

/// Runs the benchmark. Returns the report; verification failures are
/// collected in [`KernelBenchReport::divergences`] rather than panicking
/// so the binary can exit nonzero with a readable message.
pub fn run(config: &KernelBenchConfig) -> KernelBenchReport {
    let mut timings = Vec::new();
    let mut divergences = Vec::new();
    let threads = config.threads;

    for (si, &n) in config.sizes.iter().enumerate() {
        let seed = config.seed.wrapping_add(si as u64 * 977);
        let views: Vec<CsrMatrix> = (0..config.views)
            .map(|v| random_csr(n, config.per_row, seed.wrapping_add(v as u64 * 131)))
            .collect();
        let a = &views[0];
        let nnz = a.nnz();
        let x = bench_vector(n);
        let reps = config.reps_for(nnz);

        // --- spmv: scoped-thread baseline vs persistent pool ---
        let mut y_seq = vec![0.0f64; n];
        let mut y_scoped = vec![0.0f64; n];
        let mut y_pooled = vec![0.0f64; n];
        a.matvec(&x, &mut y_seq);
        let (p50, mean) = time_reps(reps, || a.matvec(&x, &mut y_seq));
        timings.push(KernelTiming {
            kernel: "spmv_sequential".into(),
            n,
            nnz,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let (p50, mean) = time_reps(reps, || {
            scoped::matvec_parallel(a, &x, &mut y_scoped, threads)
        });
        timings.push(KernelTiming {
            kernel: "spmv_scoped_baseline".into(),
            n,
            nnz,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let (p50, mean) = time_reps(reps, || a.matvec_parallel(&x, &mut y_pooled, threads));
        timings.push(KernelTiming {
            kernel: "spmv_pooled".into(),
            n,
            nnz,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        a.matvec(&x, &mut y_seq);
        if y_pooled != y_seq {
            divergences.push(format!(
                "n={n}: pooled spmv not bit-identical to sequential"
            ));
        }
        if y_scoped != y_seq {
            divergences.push(format!(
                "n={n}: scoped spmv not bit-identical to sequential"
            ));
        }

        // --- fused-spmv: the integrated operator Σ wᵥ Lᵥ three ways ---
        // scoped baseline: per-view scoped-thread matvec + axpy (the
        // pre-PR shape of a parallel multi-view application); lazy:
        // sequential V-pass ScaledSumOp (the pre-PR eigensolve hot
        // path); fused: single pooled pass over the scratch CSR.
        let refs: Vec<&CsrMatrix> = views.iter().collect();
        let weights: Vec<f64> = (0..config.views)
            .map(|v| (v + 1) as f64 / (config.views * (config.views + 1) / 2) as f64)
            .collect();
        let lazy = ScaledSumOp::new(refs.clone(), weights.clone());
        let build_t = Instant::now();
        let mut fused =
            FusedSumOp::with_threads(refs, weights.clone(), threads).expect("valid views");
        let fuse_build_us = build_t.elapsed().as_secs_f64() * 1e6;
        let refresh_t = Instant::now();
        fused.set_weights(&weights);
        let fuse_refresh_us = refresh_t.elapsed().as_secs_f64() * 1e6;
        let total_nnz: usize = views.iter().map(CsrMatrix::nnz).sum();
        let mut y_scoped_mv = vec![0.0f64; n];
        let mut tmp = vec![0.0f64; n];
        let (p50, mean) = time_reps(reps, || {
            y_scoped_mv.fill(0.0);
            for (m, &w) in views.iter().zip(&weights) {
                scoped::matvec_parallel(m, &x, &mut tmp, threads);
                for (o, &t) in y_scoped_mv.iter_mut().zip(&tmp) {
                    *o += w * t;
                }
            }
        });
        timings.push(KernelTiming {
            kernel: "multiview_spmv_scoped_baseline".into(),
            n,
            nnz: total_nnz,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let mut y_lazy = vec![0.0f64; n];
        let mut y_fused = vec![0.0f64; n];
        let (p50, mean) = time_reps(reps, || lazy.matvec(&x, &mut y_lazy));
        timings.push(KernelTiming {
            kernel: "multiview_spmv_lazy".into(),
            n,
            nnz: total_nnz,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let (p50, mean) = time_reps(reps, || fused.matvec(&x, &mut y_fused));
        timings.push(KernelTiming {
            kernel: "multiview_spmv_fused".into(),
            n,
            nnz: fused.fused_matrix().nnz(),
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        timings.push(KernelTiming {
            kernel: "multiview_fuse_weight_refresh".into(),
            n,
            nnz: total_nnz,
            reps: 1,
            p50_us: fuse_refresh_us,
            mean_us: fuse_refresh_us,
            matvecs: None,
        });
        timings.push(KernelTiming {
            kernel: "multiview_fuse_pattern_build".into(),
            n,
            nnz: total_nnz,
            reps: 1,
            p50_us: fuse_build_us,
            mean_us: fuse_build_us,
            matvecs: None,
        });
        let rel = max_rel_diff(&y_lazy, &y_fused);
        if rel > 1e-10 {
            divergences.push(format!(
                "n={n}: fused vs lazy multi-view matvec diverged (max rel diff {rel:.3e})"
            ));
        }
        let rel = max_rel_diff(&y_lazy, &y_scoped_mv);
        if rel > 1e-10 {
            divergences.push(format!(
                "n={n}: scoped vs lazy multi-view matvec diverged (max rel diff {rel:.3e})"
            ));
        }

        // --- block-spmv: b independent matvecs vs one blocked pass ---
        let b = config.block;
        let mut xb = DenseMatrix::zeros(n, b);
        for (i, v) in xb.data_mut().iter_mut().enumerate() {
            *v = ((i * 40503) % 997) as f64 / 498.5 - 1.0;
        }
        let mut yb = DenseMatrix::zeros(n, b);
        let mut xc = vec![0.0f64; n];
        let mut yc = vec![0.0f64; n];
        let mut y_cols = DenseMatrix::zeros(n, b);
        let block_reps = (reps / b).max(3);
        let (p50, mean) = time_reps(block_reps, || {
            for j in 0..b {
                for i in 0..n {
                    xc[i] = xb[(i, j)];
                }
                a.matvec(&xc, &mut yc);
                for i in 0..n {
                    y_cols[(i, j)] = yc[i];
                }
            }
        });
        timings.push(KernelTiming {
            kernel: "block_spmv_columnwise".into(),
            n,
            nnz: nnz * b,
            reps: block_reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let (p50, mean) = time_reps(block_reps, || a.matvec_block(&xb, &mut yb, threads));
        timings.push(KernelTiming {
            kernel: "block_spmv_fused".into(),
            n,
            nnz: nnz * b,
            reps: block_reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        if yb.data() != y_cols.data() {
            divergences.push(format!(
                "n={n}: block spmv not bit-identical to column-wise matvecs"
            ));
        }
    }

    // --- knn: symmetric tiled kernel vs the row-scan reference ---
    for &n in &config.knn_sizes {
        let mut x = DenseMatrix::zeros(n, config.knn_dim);
        let mut state = config.seed | 1;
        for v in x.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5;
        }
        let reps = if config.smoke { 2 } else { 5 };
        let knn_cfg = KnnConfig {
            k: 10,
            threads: config.threads,
        };
        let (p50, mean) = time_reps(reps, || {
            let g = knn_graph(&x, &knn_cfg).expect("valid knn input");
            std::hint::black_box(g.adjacency().nnz());
        });
        timings.push(KernelTiming {
            kernel: "knn_tiled".into(),
            n,
            nnz: n * 10,
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: None,
        });
        let reference = knn_graph_row_scan(&x, knn_cfg.k).expect("valid knn input");
        for threads in [1, config.threads] {
            let g = knn_graph(&x, &KnnConfig { threads, ..knn_cfg }).expect("valid knn input");
            // Weights are positive and finite, so `==` is bit equality.
            if g != reference {
                divergences.push(format!(
                    "n={n}: tiled knn graph ({threads} threads) not bit-identical to the row-scan reference"
                ));
            }
        }
    }

    // --- lanczos: k smallest eigenvalues of the fused 3-view operator ---
    for (li, &n) in config.lanczos_sizes.iter().enumerate() {
        let seed = config.seed.wrapping_add(li as u64 * 977);
        let views: Vec<CsrMatrix> = (0..config.views)
            .map(|v| random_csr(n, config.per_row, seed.wrapping_add(v as u64 * 131)))
            .collect();
        let weights = vec![1.0 / config.views as f64; config.views];
        let op = FusedSumOp::with_threads(views.iter().collect(), weights, threads)
            .expect("valid views");
        let opts = EigOptions {
            threads,
            ..EigOptions::default()
        };
        let k = 5;
        let solve = || smallest_eigenvalues_full(&op, k, &opts).expect("eigensolve");
        let res = solve();
        let reps = if config.smoke { 2 } else { 5 };
        let (p50, mean) = time_reps(reps, || {
            std::hint::black_box(solve());
        });
        timings.push(KernelTiming {
            kernel: "lanczos".into(),
            n,
            nnz: op.fused_matrix().nnz(),
            reps,
            p50_us: p50,
            mean_us: mean,
            matvecs: Some(res.matvecs),
        });
        if !res.converged {
            divergences.push(format!("n={n}: lanczos did not converge"));
        }
        if li == 0 {
            let dense = jacobi_eig(&op.fused_matrix().to_dense()).expect("dense eigensolve");
            let worst = res
                .values
                .iter()
                .zip(&dense.values)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if worst > 1e-7 {
                divergences.push(format!(
                    "n={n}: lanczos eigenvalues differ from dense Jacobi by {worst:.3e}"
                ));
            }
        }
    }

    KernelBenchReport {
        timings,
        divergences,
    }
}

impl KernelBenchReport {
    /// p50 of a kernel at a given size, if measured.
    pub fn p50(&self, kernel: &str, n: usize) -> Option<f64> {
        self.timings
            .iter()
            .find(|t| t.kernel == kernel && t.n == n)
            .map(|t| t.p50_us)
    }

    /// JSON form written to `BENCH_kernels.json`.
    pub fn to_json(&self, config: &KernelBenchConfig) -> Value {
        let timings = self
            .timings
            .iter()
            .map(|t| {
                let mut fields = vec![
                    ("kernel", Value::String(t.kernel.clone())),
                    ("n", Value::Number(t.n as f64)),
                    ("nnz", Value::Number(t.nnz as f64)),
                    ("reps", Value::Number(t.reps as f64)),
                    ("p50_us", Value::Number(t.p50_us)),
                    ("mean_us", Value::Number(t.mean_us)),
                ];
                if let Some(mv) = t.matvecs {
                    fields.push(("matvecs", Value::Number(mv as f64)));
                }
                Value::object(fields)
            })
            .collect();
        let speedups = config
            .sizes
            .iter()
            .map(|&n| {
                let ratio = |new: &str, old: &str| match (self.p50(old, n), self.p50(new, n)) {
                    (Some(o), Some(nw)) if nw > 0.0 => Value::Number(o / nw),
                    _ => Value::Null,
                };
                Value::object(vec![
                    ("n", Value::Number(n as f64)),
                    (
                        "spmv_pooled_vs_scoped",
                        ratio("spmv_pooled", "spmv_scoped_baseline"),
                    ),
                    (
                        "multiview_fused_vs_scoped",
                        ratio("multiview_spmv_fused", "multiview_spmv_scoped_baseline"),
                    ),
                    (
                        "multiview_fused_vs_lazy",
                        ratio("multiview_spmv_fused", "multiview_spmv_lazy"),
                    ),
                    (
                        "block_fused_vs_columnwise",
                        ratio("block_spmv_fused", "block_spmv_columnwise"),
                    ),
                ])
            })
            .collect();
        Value::object(vec![
            ("bench", Value::String("kernels".into())),
            ("threads", Value::Number(config.threads as f64)),
            ("views", Value::Number(config.views as f64)),
            ("block", Value::Number(config.block as f64)),
            ("per_row", Value::Number(config.per_row as f64)),
            ("smoke", Value::Bool(config.smoke)),
            ("verified", Value::Bool(self.divergences.is_empty())),
            (
                "divergences",
                Value::Array(
                    self.divergences
                        .iter()
                        .map(|d| Value::String(d.clone()))
                        .collect(),
                ),
            ),
            ("timings", Value::Array(timings)),
            ("speedups", Value::Array(speedups)),
        ])
    }
}

/// Runs the benchmark and writes the JSON report.
///
/// # Errors
/// Propagates I/O failures writing the report file.
pub fn run_to_file(
    config: &KernelBenchConfig,
    path: &std::path::Path,
) -> std::io::Result<KernelBenchReport> {
    let report = run(config);
    std::fs::write(path, report.to_json(config).to_string_pretty() + "\n")?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_verifies_all_kernels() {
        let mut config = KernelBenchConfig::smoke();
        config.sizes = vec![300];
        config.knn_sizes = vec![80];
        config.lanczos_sizes = vec![150];
        config.threads = 2;
        let report = run(&config);
        assert!(
            report.divergences.is_empty(),
            "kernel divergences: {:?}",
            report.divergences
        );
        assert!(report.p50("spmv_pooled", 300).is_some());
        assert!(report.p50("multiview_spmv_fused", 300).is_some());
        assert!(report.p50("block_spmv_fused", 300).is_some());
        assert!(report.p50("knn_tiled", 80).is_some());
        assert!(report.p50("lanczos", 150).is_some());
        let json = report.to_json(&config).to_string_pretty();
        assert!(json.contains("verified"));
        assert!(json.contains("speedups"));
    }
}
