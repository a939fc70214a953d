//! End-to-end and per-layer benchmark of the SGLA pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server-bin <path to sgla-serve> --work-dir <dir>
//! ```
//!
//! Every workload runs the shipped pipeline end to end: generate the
//! MVAG, train and encode an artifact, apply a warm append update, cut
//! a 4-shard layout, serve it from an `sgla-serve serve` child process
//! and drive that over HTTP. The workloads differ in which layer their
//! sizes load (see `BENCHMARK.json` and `README.md`). With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the per-layer ones. Every artifact and every response is
//! checked; any failure makes `correct` false and the exit code 1.

mod serve;
mod stats;
mod train;

use serve::{Phase, Query};
use stats::{mean, median, proc_status_mb, quantile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use train::Input;

/// Set-up is repeated this many times per run; its median is reported.
const SETUP_REPS: usize = 3;
/// Shares of the serving time, which is what training
/// (`Workload::train_share`) leaves of `--seconds`. Only a traced run
/// has the offered-rate and saturation phases.
const WARM_UP_SHARE: f64 = 0.1;
const LATENCY_SHARE: f64 = 0.4;
const OFFERED_SHARE: f64 = 0.3;
const SATURATION_SHARE: f64 = 0.2;
/// Saturation is measured in this many rounds; the median is reported.
const SATURATION_ROUNDS: usize = 8;

/// Which artifact a workload serves.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// The artifact the training leg produced.
    Trained,
    /// A synthetic `n × dim` layout drawn around `k` centroids.
    Synthetic { n: usize, dim: usize, k: usize },
}

struct Workload {
    name: &'static str,
    input: Input,
    layout: Layout,
    /// Offered rate of the open-loop phase, requests per second.
    offered_qps: f64,
    /// Share of `--seconds` the training leg repeats for (it always
    /// runs `train::MIN_ITERATIONS` times).
    train_share: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-attr",
        input: Input::Registry {
            name: "amazon-computers",
            scale: 0.08,
        },
        layout: Layout::Trained,
        offered_qps: 1000.0,
        train_share: 0.5,
    },
    Workload {
        name: "train-graph",
        input: Input::Registry {
            name: "dblp",
            scale: 0.12,
        },
        layout: Layout::Trained,
        offered_qps: 1000.0,
        train_share: 0.5,
    },
    Workload {
        name: "serve-mixed",
        input: Input::Toy { n: 600, k: 4 },
        layout: Layout::Synthetic {
            n: 50_000,
            dim: 64,
            k: 16,
        },
        offered_qps: 300.0,
        train_share: 0.4,
    },
];

/// splitmix64: a small seeded generator for inputs and request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The seed of sub-stream `tag` of `seed`. Seeds made by adding or
    /// xoring small numbers collide (`(s ^ 1) + 1 == s ^ 2` for every
    /// `s` divisible by 4), and a request stream that repeats another
    /// phase's ids turns top-k scans into cache hits.
    pub fn stream(seed: u64, tag: u64) -> u64 {
        Rng::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Metrics in the order they are reported: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut get = std::collections::BTreeMap::new();
    while let Some(key) = raw.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{key}'"))?
            .to_string();
        let value = raw.next().ok_or_else(|| format!("{key} needs a value"))?;
        get.insert(name, value);
    }
    let mut take = |name: &str| get.remove(name).ok_or(format!("missing --{name}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        server_bin: take("server-bin")?.into(),
        work_dir: take("work-dir")?.into(),
    };
    if let Some(extra) = get.keys().next() {
        return Err(format!("unknown argument --{extra}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let work = WorkDir(
        args.work_dir
            .join(format!("{}-{}", w.name, std::process::id())),
    );
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up, part 1: the generated inputs.
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(train::generate(w.input, args.seed)?);
        generate_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    eprintln!("{}: {}", w.name, inputs.mvag.summary());

    // Training.
    let mut trainer_peak_mb = 0.0;
    let trained = if args.trace {
        train::traced(&inputs, &mut m)?
    } else {
        let leg = train::untraced(
            &inputs,
            w.input,
            args.seed,
            Duration::from_secs_f64(w.train_share * args.seconds),
        )?;
        attempted += leg.attempted;
        failed += leg.failed;
        eprintln!(
            "train: {} iteration(s); wall s: train {:.3?}, update {:.3?}; \
             CPU s: train {:.3?}, update {:.3?}",
            leg.train_cpu_s.len(),
            leg.train_s,
            leg.update_s,
            leg.train_cpu_s,
            leg.update_cpu_s
        );
        m.add(
            "train_cpu_s",
            mean(&leg.train_cpu_s).ok_or("no train")?,
            "s",
        );
        m.add(
            "update_cpu_s",
            mean(&leg.update_cpu_s).ok_or("no update")?,
            "s",
        );
        m.add("nmi", median(&leg.nmi).ok_or("no nmi")?, "ratio");
        m.add("acc", median(&leg.acc).ok_or("no acc")?, "ratio");
        trainer_peak_mb = leg.peak_rss_mb;
        leg.artifact
    };

    // Set-up, part 2: write the layout, start the server, and wait for
    // its first verified answer. Every repetition but the last is
    // stopped; the last one serves the load.
    let mut server_s = Vec::new();
    let mut oracle = None;
    let mut expected_first = String::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let dir = serve::layout_dir(&work.0, rep);
        let t = Instant::now();
        let synthetic;
        let artifact = match w.layout {
            Layout::Trained => &trained,
            Layout::Synthetic { n, dim, k } => {
                synthetic = serve::synthesize(n, dim, k, args.seed)?;
                &synthetic
            }
        };
        artifact
            .save_sharded(&dir, serve::SHARDS)
            .map_err(|e| format!("writing the layout: {e}"))?;
        let write_s = t.elapsed().as_secs_f64();
        if oracle.is_none() {
            let router = serve::oracle(&dir)?;
            expected_first = Query::Point(0).expected(&router)?;
            oracle = Some(router);
        }
        drop(server.take());
        if rep >= 2 {
            let _ = std::fs::remove_dir_all(serve::layout_dir(&work.0, rep - 1));
        }
        let (started, start_s) = serve::start(&args.server_bin, &dir, args.trace, &expected_first)?;
        attempted += 1;
        server_s.push(write_s + start_s);
        server = Some(started);
    }
    let oracle = oracle.expect("SETUP_REPS > 0");
    let server = server.expect("SETUP_REPS > 0");
    let n = oracle.meta().n;

    // Serving. An untraced run gives the latency phase all the serving
    // time after the warm-up. A traced run shares that time with the
    // offered-rate and saturation phases, whose figures are per-layer.
    let serve_secs = (1.0 - w.train_share) * args.seconds;
    let warm = serve::warm_up(
        server.addr,
        Rng::stream(args.seed, 1),
        n,
        WARM_UP_SHARE * serve_secs,
    );
    let latency_share = if args.trace {
        LATENCY_SHARE
    } else {
        1.0 - WARM_UP_SHARE
    };
    let latency = serve::latency(
        server.addr,
        Rng::stream(args.seed, 3),
        n,
        latency_share * serve_secs,
    );
    let mut phases = vec![warm, latency];
    if args.trace {
        let before = serve::scrape(server.addr)?;
        let open = serve::open_loop(
            server.addr,
            Rng::stream(args.seed, 2),
            n,
            w.offered_qps,
            OFFERED_SHARE * serve_secs,
        );
        let after = serve::scrape(server.addr)?;
        let rounds = serve::saturate(
            server.addr,
            Rng::stream(args.seed, 4),
            n,
            SATURATION_SHARE * serve_secs,
            SATURATION_ROUNDS,
        );
        let round_qps: Vec<f64> = rounds.iter().map(|r| r.ok() as f64 / r.secs).collect();
        eprintln!("saturation rounds (1/s): {round_qps:.0?}");
        let layout = serve::layout_dir(&work.0, SETUP_REPS - 1);
        let probe_failed = serve::traced_layers(
            &server, &oracle, &layout, &open, &before, &after, args.seed, &mut m,
        )?;
        attempted += serve::PROBES as u64;
        failed += probe_failed as u64;

        let lags: Vec<f64> = open.samples.iter().map(|s| s.lag_us).collect();
        m.add("client.offered_qps", w.offered_qps, "1/s");
        m.add("client.achieved_qps", open.ok() as f64 / open.secs, "1/s");
        m.add(
            "client.lag_p99_us",
            quantile(&lags, 0.99).unwrap_or(0.0),
            "us",
        );
        serve::report_latency(&open, "client.", true, &mut m)?;
        m.add(
            "client.saturation_qps",
            median(&round_qps).ok_or("no saturation round")?,
            "1/s",
        );
        phases.push(open);
        phases.push(Phase {
            name: "saturation",
            secs: rounds.iter().map(|r| r.secs).sum(),
            samples: rounds.into_iter().flat_map(|r| r.samples).collect(),
        });
    }
    let server_peak_mb = proc_status_mb(&server.pid(), "VmHWM")?;
    drop(server);

    // Off the clock: every recorded response against the oracle.
    for phase in &phases {
        let bad = serve::verify(phase, &oracle)?;
        serve::log_phase(phase, bad);
        attempted += phase.samples.len() as u64;
        failed += bad as u64;
        if args.trace {
            let prefix = match phase.name {
                "offered-rate" => "client".to_string(),
                other => format!("client.{other}"),
            };
            m.add(
                &format!("{prefix}.sent"),
                phase.samples.len() as f64,
                "count",
            );
            m.add(&format!("{prefix}.failed"), bad as f64, "count");
        }
    }

    if args.trace {
        m.add("error_rate", failed as f64 / attempted as f64, "ratio");
    } else {
        m.add(
            "setup_s",
            median(&generate_s).ok_or("no set-up")? + median(&server_s).ok_or("no set-up")?,
            "s",
        );
        m.add("peak_rss_mb", trainer_peak_mb.max(server_peak_mb), "MiB");
        serve::report_latency(&phases[1], "", false, &mut m)?;
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

fn result_line(outcome: &Outcome) -> String {
    use mvag_data::json::Value;
    let metrics = outcome
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                name.as_str(),
                Value::object(vec![
                    ("value", Value::from(*value)),
                    ("unit", Value::from(*unit)),
                ]),
            )
        })
        .collect();
    Value::object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::object(metrics)),
    ])
    .to_string_compact()
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            if let Some((name, ..)) = outcome.metrics.0.iter().find(|m| !m.1.is_finite()) {
                eprintln!("error: metric {name} is not a finite number");
                return ExitCode::FAILURE;
            }
            println!("{}", result_line(&outcome));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
