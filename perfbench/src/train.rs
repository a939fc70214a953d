//! The training half: cold `Artifact::train` plus `encode`, a warm
//! `Artifact::update`, and the traced layer-by-layer ledger.

use crate::stats::cpu_s;
use crate::Metrics;
use mvag_eval::ClusterMetrics;
use mvag_graph::generators::{random_append_delta, AppendConfig};
use mvag_graph::{Mvag, MvagDelta};
use mvag_obs::SpanRecord;
use mvag_sparse::DenseMatrix;
use sgla_core::clustering::spectral_clustering_with;
use sgla_core::embedding::embed;
use sgla_core::{SglaPlus, ViewLaplacians};
use sgla_serve::{Artifact, ArtifactMeta, TrainConfig};
use std::time::{Duration, Instant};

/// Where a workload's training input comes from.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// A registry dataset at a scale.
    Registry { name: &'static str, scale: f64 },
    /// `toy_mvag(n, k, seed)`: two SBM graph views plus one attribute view.
    Toy { n: usize, k: usize },
}

/// The generated inputs of one run: the graph, the append delta the
/// update leg applies, and the training configuration.
pub struct Inputs {
    pub mvag: Mvag,
    pub delta: MvagDelta,
    pub added: usize,
    pub config: TrainConfig,
}

/// Share of `n` appended by the update leg's delta.
const APPEND_FRACTION: f64 = 0.05;

/// Generates the MVAG and the append delta from `seed` alone.
pub fn generate(input: Input, seed: u64) -> Result<Inputs, String> {
    let mvag = match input {
        Input::Registry { name, scale } => mvag_data::by_name(name)
            .ok_or_else(|| format!("unknown registry dataset '{name}'"))?
            .generate(scale, seed)
            .map_err(|e| format!("generating {name}: {e}"))?,
        Input::Toy { n, k } => mvag_data::toy_mvag(n, k, seed),
    };
    let added = ((mvag.n() as f64 * APPEND_FRACTION).round() as usize).max(1);
    // The append delta `update_bench` applies.
    let delta = random_append_delta(
        &mvag,
        &AppendConfig {
            added_nodes: added,
            edges_per_node: 10,
            within_cluster: 0.95,
            seed: seed.wrapping_add(7),
            ..Default::default()
        },
    )
    .map_err(|e| format!("append delta: {e}"))?;
    let mut config = TrainConfig::default();
    config.sgla.seed = seed;
    Ok(Inputs {
        mvag,
        delta,
        added,
        config,
    })
}

/// The untraced training leg's results.
pub struct TrainLeg {
    /// The artifact trained on the run's own inputs (iteration 0).
    pub artifact: Artifact,
    /// Wall seconds of each `train_with_views` + `encode` and each update.
    pub train_s: Vec<f64>,
    pub update_s: Vec<f64>,
    /// CPU seconds of the same calls, over all of the process's threads.
    pub train_cpu_s: Vec<f64>,
    pub update_cpu_s: Vec<f64>,
    pub nmi: Vec<f64>,
    pub acc: Vec<f64>,
    /// The process's `VmHWM` after iteration 0, in MiB: the peak of one
    /// train + update of the run's own graph, whatever the iteration
    /// count.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The seed of training iteration `i`: the run's seed first, then
/// seeds derived from it.
fn iteration_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        crate::Rng::stream(seed, 100 + i)
    }
}

/// The training leg always runs at least this many iterations.
pub const MIN_ITERATIONS: usize = 3;

/// Runs cold train + encode, then the warm update, for as many
/// iterations as fit in `budget` (at least [`MIN_ITERATIONS`]; an
/// iteration is not started if one as long as the slowest so far would
/// overrun). Iteration 0 trains `first`; each later one trains inputs
/// generated off the clock from a seed derived from `seed`. Every
/// artifact is checked off the clock: the codec round trip, and the
/// update's lineage (`update_bench`'s checks).
pub fn untraced(
    first: &Inputs,
    input: Input,
    seed: u64,
    budget: Duration,
) -> Result<TrainLeg, String> {
    let started = Instant::now();
    let mut artifact0 = None;
    let mut peak_rss_mb = 0.0;
    let (mut train_s, mut update_s, mut nmi, mut acc) = (vec![], vec![], vec![], vec![]);
    let (mut train_cpu_s, mut update_cpu_s) = (vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut generated;
    let mut slowest = Duration::ZERO;
    for i in 0.. {
        if i >= MIN_ITERATIONS && started.elapsed() + slowest >= budget {
            break;
        }
        let iteration = Instant::now();
        let inputs = if i == 0 {
            first
        } else {
            generated = generate(input, iteration_seed(seed, i as u64))?;
            &generated
        };
        let Inputs {
            mvag,
            delta,
            added,
            config,
        } = inputs;
        attempted += 1;
        let (t, cpu) = (Instant::now(), cpu_s());
        let trained = Artifact::train_with_views(mvag, config)
            .and_then(|(artifact, views)| Ok((artifact.encode()?, artifact, views)));
        let (elapsed, elapsed_cpu) = (t.elapsed().as_secs_f64(), cpu_s() - cpu);
        let (bytes, artifact, views) = match trained {
            Ok(out) => out,
            Err(e) => {
                failed += 1;
                eprintln!("train failed: {e}");
                if i == 0 {
                    return Err(format!("training failed: {e}"));
                }
                continue;
            }
        };
        train_s.push(elapsed);
        train_cpu_s.push(elapsed_cpu);
        failed += u64::from(!check_round_trip(&artifact, bytes, "trained"));
        let (n, a) = quality(&artifact, mvag)?;
        nmi.push(n);
        acc.push(a);

        attempted += 1;
        let (t, cpu) = (Instant::now(), cpu_s());
        let updated = artifact.update(&views, mvag, delta, config);
        let (elapsed, elapsed_cpu) = (t.elapsed().as_secs_f64(), cpu_s() - cpu);
        match updated {
            Ok(outcome) => {
                update_s.push(elapsed);
                update_cpu_s.push(elapsed_cpu);
                let a = &outcome.artifact;
                let mut ok = a.meta.n == mvag.n() + added && a.meta.update_count == 1;
                if !ok {
                    eprintln!(
                        "check failed: updated artifact has n = {}, update_count = {} \
                         (expected {} / 1)",
                        a.meta.n,
                        a.meta.update_count,
                        mvag.n() + added
                    );
                }
                ok &= a
                    .encode()
                    .is_ok_and(|bytes| check_round_trip(a, bytes, "updated"));
                failed += u64::from(!ok);
            }
            Err(e) => {
                failed += 1;
                eprintln!("update failed: {e}");
            }
        }
        if i == 0 {
            artifact0 = Some(artifact);
            peak_rss_mb = crate::stats::proc_status_mb("self", "VmHWM")?;
        }
        slowest = slowest.max(iteration.elapsed());
    }
    Ok(TrainLeg {
        artifact: artifact0.expect("iteration 0 either trains or returns"),
        train_s,
        update_s,
        train_cpu_s,
        update_cpu_s,
        nmi,
        acc,
        peak_rss_mb,
        attempted,
        failed,
    })
}

/// NMI and ACC of the artifact's labels against the planted ones.
fn quality(artifact: &Artifact, mvag: &Mvag) -> Result<(f64, f64), String> {
    let truth = mvag
        .labels()
        .ok_or("the generated MVAG carries no labels")?;
    let m = ClusterMetrics::compute(&artifact.labels, truth).map_err(|e| e.to_string())?;
    Ok((m.nmi, m.acc))
}

/// `Artifact::decode(encode(a)) == a`, reported on stderr when not.
fn check_round_trip(artifact: &Artifact, bytes: bytes::Bytes, what: &str) -> bool {
    let ok = Artifact::decode(bytes).is_ok_and(|decoded| decoded == *artifact);
    if !ok {
        eprintln!("check failed: the {what} artifact does not round-trip decode(encode(..))");
    }
    ok
}

fn timed<T, E: std::fmt::Display>(
    what: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = f().map_err(|e| format!("{what}: {e}"))?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// The traced run of the training half: an untraced `Artifact::train`
/// as the reference, then the same pipeline called layer by layer with
/// spans on, each call timed from outside. The layered result must
/// equal the reference bit for bit, and the layer times plus the
/// unattributed remainder must add up to the traced wall time.
pub fn traced(inputs: &Inputs, m: &mut Metrics) -> Result<Artifact, String> {
    let Inputs { mvag, config, .. } = inputs;
    mvag_obs::set_enabled(false);
    let ((reference_bytes, reference), untraced_s) = timed("train", || {
        Artifact::train(mvag, config).and_then(|a| Ok((a.encode()?, a)))
    })?;
    if !check_round_trip(&reference, reference_bytes, "trained") {
        return Err("the trained artifact does not round-trip".into());
    }

    mvag_obs::clear();
    mvag_obs::set_enabled(true);
    let wall = Instant::now();
    let layered = (|| {
        let k = mvag.k();
        let (views, views_s) = timed("views", || ViewLaplacians::build(mvag, &config.knn))?;
        let (outcome, integrate_s) = timed("integrate", || {
            SglaPlus::new(config.sgla.clone()).integrate(&views, k)
        })?;
        let (spectral, spectral_s) = timed("spectral", || {
            spectral_clustering_with(&outcome.laplacian, k, &config.spectral)
        })?;
        // `Artifact::train` clamps the embedding dimension for tiny graphs.
        let mut embed_params = config.embed.clone();
        embed_params.dim = embed_params.dim.min(mvag.n().saturating_sub(2)).max(1);
        let (embedding, embed_s) = timed("embed", || embed(&outcome.laplacian, &embed_params))?;
        let centroids = centroids_of(&embedding, &spectral.labels, k);
        let artifact = Artifact {
            meta: ArtifactMeta {
                dataset: mvag.name.clone(),
                n: mvag.n(),
                k,
                dim: embedding.ncols(),
                seed: config.sgla.seed,
                row_start: 0,
                row_end: mvag.n(),
                parent_seed: config.sgla.seed,
                update_count: 0,
                compaction_count: 0,
            },
            weights: outcome.weights,
            laplacian: outcome.laplacian,
            labels: spectral.labels,
            centroids,
            embedding,
            tombstones: Vec::new(),
        };
        let (bytes, encode_s) = timed("encode", || artifact.encode())?;
        Ok::<_, String>((
            artifact,
            bytes.len(),
            [views_s, integrate_s, spectral_s, embed_s, encode_s],
        ))
    })();
    let wall_s = wall.elapsed().as_secs_f64();
    mvag_obs::set_enabled(false);
    let spans = mvag_obs::drain();
    let (artifact, bytes, layers) = layered?;

    for (what, same) in [
        (
            "weights",
            bits(&artifact.weights) == bits(&reference.weights),
        ),
        ("labels", artifact.labels == reference.labels),
        (
            "embedding",
            bits(artifact.embedding.data()) == bits(reference.embedding.data()),
        ),
        ("artifact", artifact == reference),
    ] {
        if !same {
            return Err(format!(
                "the layer-by-layer pipeline's {what} differ from Artifact::train"
            ));
        }
    }

    let [views_s, integrate_s, spectral_s, embed_s, encode_s] = layers;
    let unattributed_s = wall_s - layers.iter().sum::<f64>();
    let sum = |name: &str, pick: &dyn Fn(&SpanRecord) -> f64| -> f64 {
        spans.iter().filter(|s| s.name == name).map(pick).sum()
    };
    let dur = |s: &SpanRecord| s.dur_us as f64 / 1e6;
    let counter = |key: &'static str| {
        move |s: &SpanRecord| {
            s.counters
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |&(_, v)| v as f64)
        }
    };
    let knn_s: f64 = spans
        .iter()
        .filter(|s| s.name == "train.view_laplacian" && s.counters.iter().any(|c| c.0 == "knn_k"))
        .map(dur)
        .sum();
    let eigensolve_s = sum("train.eigensolve", &dur);
    let aggregate_s = sum("train.aggregate", &dur);
    let surrogate_s = sum("train.surrogate", &dur);
    let kmeans_s = sum("train.kmeans", &dur);

    // Reconciliation: spans nest inside the calls timed around them.
    let slack = 1e-3;
    for (child, child_s, parent_s) in [
        ("views.knn_s", knn_s, views_s),
        (
            "sgla_plus eigensolve + surrogate + aggregate",
            eigensolve_s + surrogate_s + aggregate_s,
            integrate_s,
        ),
        ("clustering.kmeans_s", kmeans_s, spectral_s),
    ] {
        if child_s > parent_s + slack {
            return Err(format!(
                "ledger does not reconcile: {child} = {child_s:.6} s exceeds its layer's \
                 {parent_s:.6} s"
            ));
        }
    }
    if unattributed_s < -slack {
        return Err(format!(
            "ledger does not reconcile: layers sum past the wall time by {:.6} s",
            -unattributed_s
        ));
    }

    m.add("views.build_s", views_s, "s");
    m.add("views.knn_s", knn_s, "s");
    m.add("sgla_plus.integrate_s", integrate_s, "s");
    m.add(
        "sgla_plus.eigensolves",
        spans
            .iter()
            .filter(|s| s.name == "train.eigensolve")
            .count() as f64,
        "count",
    );
    m.add(
        "sgla_plus.matvecs",
        sum("train.eigensolve", &counter("matvecs")),
        "count",
    );
    m.add(
        "sgla_plus.reortho_sweeps",
        sum("train.eigensolve", &counter("reortho_sweeps")),
        "count",
    );
    m.add("sgla_plus.eigensolve_s", eigensolve_s, "s");
    m.add(
        "sgla_plus.surrogate_evals",
        sum("train.surrogate", &counter("surrogate_evals")),
        "count",
    );
    m.add("sgla_plus.aggregate_s", aggregate_s, "s");
    m.add("clustering.spectral_s", spectral_s, "s");
    m.add(
        "clustering.matvecs",
        sum("train.spectral", &counter("matvecs")),
        "count",
    );
    m.add("clustering.kmeans_s", kmeans_s, "s");
    m.add("embedding.embed_s", embed_s, "s");
    m.add("artifact.encode_s", encode_s, "s");
    m.add("artifact.bytes", bytes as f64, "bytes");
    m.add("train.traced_wall_s", wall_s, "s");
    m.add("train.unattributed_s", unattributed_s, "s");
    m.add("train.unattributed_share", unattributed_s / wall_s, "ratio");
    m.add(
        "train.trace_overhead_share",
        (wall_s - untraced_s) / untraced_s,
        "ratio",
    );
    Ok(reference)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-cluster mean embedding rows, in the same summation order as
/// `Artifact::train`, so the layered artifact can match it bit for bit.
fn centroids_of(embedding: &DenseMatrix, labels: &[usize], k: usize) -> DenseMatrix {
    let dim = embedding.ncols();
    let mut sums = DenseMatrix::zeros(k, dim);
    let mut counts = vec![0usize; k];
    for (i, &label) in labels.iter().enumerate() {
        counts[label] += 1;
        let dst = sums.row_mut(label);
        for (d, &v) in embedding.row(i).iter().enumerate() {
            dst[d] += v;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
    }
    sums
}
