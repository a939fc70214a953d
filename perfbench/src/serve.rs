//! The serving half: a sharded layout served by an `sgla-serve serve`
//! child process, driven over keep-alive connections at an offered rate
//! and then to saturation, with every response checked off the clock
//! against a `ShardRouter` opened in this process.

use crate::stats::{median, proc_status_mb, quantile, Scrape};
use crate::{Metrics, Rng};
use mvag_data::json::Value;
use mvag_sparse::{CsrMatrix, DenseMatrix};
use sgla_serve::store::MmapMode;
use sgla_serve::{
    Artifact, ArtifactMeta, EngineConfig, HttpClient, Neighbor, RouterConfig, ShardRouter,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Keep-alive connections of the warm-up and offered-rate phases.
pub const CONNECTIONS: usize = 2;
/// Closed-loop connections of the saturation phase.
pub const SATURATION_CONNECTIONS: usize = 8;
/// Entries of the server's top-k cache (`sgla-serve serve` default).
pub const TOPK_CACHE: usize = 4096;
/// Shards every served layout is cut into.
pub const SHARDS: usize = 4;
/// `k` of every `/topk` request in the mix.
const TOPK_K: usize = 10;
/// Ids per `POST /embed` request in the mix.
const EMBED_IDS: usize = 8;
/// `?explain=1` top-k probes of a traced run.
pub const PROBES: usize = 64;
/// A request unanswered this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// How long before a request's due time the open-loop generator stops
/// sleeping and spins.
const SPIN_TAIL: Duration = Duration::from_micros(150);

/// A synthetic embedding layout: `n × dim` rows drawn around `k`
/// centroids, each row labelled with the centroid it was drawn from.
/// The graph is irrelevant to serving, so the Laplacian is the identity.
pub fn synthesize(n: usize, dim: usize, k: usize, seed: u64) -> Result<Artifact, String> {
    let mut rng = Rng::new(Rng::stream(seed, 6));
    let centroid_data: Vec<f64> = (0..k * dim).map(|_| rng.uniform() * 2.0 - 1.0).collect();
    let centroids = DenseMatrix::from_vec(k, dim, centroid_data).map_err(|e| e.to_string())?;
    let labels: Vec<usize> = (0..n).map(|_| rng.below(k)).collect();
    let mut rows = Vec::with_capacity(n * dim);
    for &label in &labels {
        for &c in centroids.row(label) {
            rows.push(c + 0.5 * (rng.uniform() - 0.5));
        }
    }
    Ok(Artifact {
        meta: ArtifactMeta {
            dataset: "serve-synth".to_string(),
            n,
            k,
            dim,
            seed,
            row_start: 0,
            row_end: n,
            parent_seed: seed,
            update_count: 0,
            compaction_count: 0,
        },
        weights: vec![1.0],
        laplacian: CsrMatrix::from_raw_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n).collect(),
            vec![1.0; n],
        )
        .map_err(|e| e.to_string())?,
        labels,
        centroids,
        embedding: DenseMatrix::from_vec(n, dim, rows).map_err(|e| e.to_string())?,
        tombstones: Vec::new(),
    })
}

/// The router configuration `sgla-serve serve` builds for a sharded
/// layout under its defaults.
fn serve_defaults(cache_capacity: usize) -> RouterConfig {
    RouterConfig {
        engine: EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        },
        max_resident: 0,
        cache_capacity,
        mmap: MmapMode::Auto,
    }
}

/// Opens the in-process oracle over a layout, configured as the server is.
pub fn oracle(layout: &Path) -> Result<ShardRouter, String> {
    ShardRouter::open(layout, serve_defaults(TOPK_CACHE)).map_err(|e| format!("oracle: {e}"))
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub enum Query {
    /// `GET /cluster/{id}`.
    Point(usize),
    /// `POST /embed` with these ids.
    Embed(Vec<usize>),
    /// `GET /topk/{id}?k=K`.
    TopK(usize),
}

impl Query {
    /// 60% point reads, 20% embeds of 8 ids, 20% top-k; ids uniform.
    pub fn draw(rng: &mut Rng, n: usize) -> Query {
        match rng.below(10) {
            0..=5 => Query::Point(rng.below(n)),
            6 | 7 => Query::Embed((0..EMBED_IDS).map(|_| rng.below(n)).collect()),
            _ => Query::TopK(rng.below(n)),
        }
    }

    fn embed_body(ids: &[usize]) -> Value {
        Value::object(vec![("nodes", Value::from(ids.to_vec()))])
    }

    fn send(&self, client: &mut HttpClient) -> sgla_serve::Result<(u16, String)> {
        match self {
            Query::Point(id) => client.get_text(&format!("/cluster/{id}")),
            Query::TopK(id) => client.get_text(&format!("/topk/{id}?k={TOPK_K}")),
            Query::Embed(ids) => client.post_text("/embed", &Query::embed_body(ids)),
        }
    }

    /// The bytes `HttpClient` writes for this request.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let (method, path, body) = match self {
            Query::Point(id) => ("GET", format!("/cluster/{id}"), String::new()),
            Query::TopK(id) => ("GET", format!("/topk/{id}?k={TOPK_K}"), String::new()),
            Query::Embed(ids) => (
                "POST",
                "/embed".to_string(),
                Query::embed_body(ids).to_string_compact(),
            ),
        };
        format!(
            "{method} {path} HTTP/1.1\r\nhost: sgla\r\ncontent-length: {}\r\n\
             connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// The exact body the server must answer with, rendered from the
    /// oracle's answer the way the server renders its own.
    pub fn expected(&self, oracle: &ShardRouter) -> Result<String, String> {
        let body = match self {
            Query::Point(id) => {
                let info = oracle.cluster_of(*id).map_err(|e| e.to_string())?;
                Value::object(vec![
                    ("node", Value::from(info.node)),
                    ("cluster", Value::from(info.cluster)),
                    ("centroid_dist", Value::from(info.centroid_dist)),
                ])
            }
            Query::TopK(id) => {
                let neighbors = oracle
                    .top_k_similar(*id, TOPK_K)
                    .map_err(|e| e.to_string())?;
                return Ok(topk_body(*id, &neighbors));
            }
            Query::Embed(ids) => {
                let rows = oracle.embed_batch(ids).map_err(|e| e.to_string())?;
                Value::object(vec![
                    ("nodes", Value::from(ids.clone())),
                    ("dim", Value::from(oracle.meta().dim)),
                    (
                        "embeddings",
                        Value::Array(rows.into_iter().map(Value::from).collect()),
                    ),
                ])
            }
        };
        Ok(body.to_string_compact())
    }
}

/// The `/topk` answer body for `neighbors` of `id`.
fn topk_body(id: usize, neighbors: &[Neighbor]) -> String {
    let items = neighbors
        .iter()
        .map(|nb| {
            Value::object(vec![
                ("node", Value::from(nb.node)),
                ("score", Value::from(nb.score)),
            ])
        })
        .collect();
    Value::object(vec![
        ("node", Value::from(id)),
        ("k", Value::from(TOPK_K)),
        ("mode", Value::from("exact")),
        ("neighbors", Value::Array(items)),
    ])
    .to_string_compact()
}

/// A running `sgla-serve serve` child. Dropping it kills the process
/// and waits for it.
pub struct Server {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `sgla-serve serve` on `layout` under its defaults (plus
    /// `--trace on` when `trace`), on an ephemeral port.
    pub fn start(bin: &Path, layout: &Path, trace: bool) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--artifact")
            .arg(layout)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if trace {
            cmd.args(["--trace", "on"]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut server = Server {
            child,
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("serving on http://") {
                        break rest
                            .trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| e.to_string())?;
                    }
                }
                _ => return Err("the server exited before it was serving".into()),
            }
        };
        server.addr = addr;
        // Keep reading so the child never writes into a full pipe.
        server.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// Starts a server on `layout` and waits for its first answer, which
/// must equal `expected_first` (the oracle's `/cluster/0` body).
/// Returns the server and the seconds this took.
pub fn start(
    bin: &Path,
    layout: &Path,
    trace: bool,
    expected_first: &str,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(bin, layout, trace)?;
    let mut client = connect(server.addr)?;
    let (status, body) = Query::Point(0)
        .send(&mut client)
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    if status != 200 || body != expected_first {
        return Err(format!("first answer is wrong: {status} {body}"));
    }
    Ok((server, elapsed))
}

/// One sent request and what came back.
pub struct Sample {
    pub query: Query,
    /// 0 when the request failed in transport or timed out.
    pub status: u16,
    /// Hash of the response body; bodies themselves would make the
    /// recording of a saturation phase hundreds of megabytes.
    pub body: u64,
    /// Microseconds from when the request was due (open loop) or sent
    /// (closed loop) until its response was read.
    pub latency_us: f64,
    /// Microseconds the generator sent it after its due time.
    pub lag_us: f64,
}

/// The samples of one phase and its wall time.
pub struct Phase {
    pub name: &'static str,
    pub samples: Vec<Sample>,
    pub secs: f64,
}

impl Phase {
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.status == 200).count()
    }
}

fn body_hash(body: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Sends `query` and returns `(status, body hash)`; status 0 when the
/// request failed in transport or timed out.
fn send_recorded(client: &mut Option<HttpClient>, addr: SocketAddr, query: &Query) -> (u16, u64) {
    if client.is_none() {
        *client = connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return (0, 0);
    };
    match query.send(c) {
        Ok((status, body)) => (status, body_hash(&body)),
        Err(_) => {
            // The connection is unusable after a timeout; reconnect next time.
            *client = None;
            (0, 0)
        }
    }
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one is answered, until `stop` says so.
fn closed_loop(
    name: &'static str,
    connections: usize,
    addr: SocketAddr,
    seed: u64,
    n: usize,
    stop: impl Fn(usize, Instant) -> bool + Sync,
) -> Phase {
    let started = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = Rng::new(Rng::stream(seed, c as u64));
                    let mut client = None;
                    let mut samples = Vec::new();
                    while !stop(samples.len(), started) {
                        let query = Query::draw(&mut rng, n);
                        let t = Instant::now();
                        let (status, body) = send_recorded(&mut client, addr, &query);
                        let latency_us = t.elapsed().as_secs_f64() * 1e6;
                        samples.push(Sample {
                            query,
                            status,
                            body,
                            latency_us,
                            lag_us: 0.0,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Phase {
        name,
        samples,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// Untimed warm-up for `secs`: the first touches of every shard and
/// connection, and a top-k cache in its steady state. A layout that
/// fits the cache first has `/topk/{id}?k=10` asked for every id, so the
/// timed phases find every answer cached; otherwise the cache would
/// fill during them and the top-k p50 move from the scan mode to the
/// cache-hit mode within one run. A closed loop of the mix fills the
/// rest of `secs`.
pub fn warm_up(addr: SocketAddr, seed: u64, n: usize, secs: f64) -> Phase {
    let started = Instant::now();
    let mut prefill = Vec::new();
    if n <= TOPK_CACHE {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = None;
                        (c..n)
                            .step_by(CONNECTIONS)
                            .map(|id| {
                                let query = Query::TopK(id);
                                let t = Instant::now();
                                let (status, body) = send_recorded(&mut client, addr, &query);
                                Sample {
                                    query,
                                    status,
                                    body,
                                    latency_us: t.elapsed().as_secs_f64() * 1e6,
                                    lag_us: 0.0,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                prefill.extend(h.join().expect("load thread panicked"));
            }
        });
    }
    let rest = secs - started.elapsed().as_secs_f64();
    let mut phase = closed_loop("warmup", CONNECTIONS, addr, seed, n, move |_, started| {
        started.elapsed().as_secs_f64() >= rest
    });
    phase.samples.extend(prefill);
    phase.secs = started.elapsed().as_secs_f64();
    phase
}

/// The latency phase: a closed loop of the mix over one keep-alive
/// connection for `secs`, each request timed from send to answer. One
/// connection, so a top-k scan never shares the vCPUs with another
/// request's scan: with two, the p50 fell between the alone and the
/// overlapped scan time and spread 0.25 over ten seeds.
pub fn latency(addr: SocketAddr, seed: u64, n: usize, secs: f64) -> Phase {
    closed_loop("latency", 1, addr, seed, n, move |_, started| {
        started.elapsed().as_secs_f64() >= secs
    })
}

/// Closed-loop saturation for `secs`, cut into `rounds` rounds, each
/// on fresh connections with its own request stream. Closed-loop
/// connections fall into or out of step (their top-k requests sharing
/// one batched scan or queueing behind each other) for a whole round,
/// and other tenants of a shared host slow rounds down, so callers
/// report the median round. Returns the rounds' phases.
pub fn saturate(addr: SocketAddr, seed: u64, n: usize, secs: f64, rounds: usize) -> Vec<Phase> {
    (0..rounds)
        .map(|r| {
            let round_secs = secs / rounds as f64;
            closed_loop(
                "saturation",
                SATURATION_CONNECTIONS,
                addr,
                Rng::stream(seed, r as u64),
                n,
                move |_, started| started.elapsed().as_secs_f64() >= round_secs,
            )
        })
        .collect()
}

/// Open loop at `rate` requests per second for `secs`: request `i` is
/// due at `i / rate` and goes out on connection `i mod CONNECTIONS`.
/// Latency counts from the due time, so a stall also delays the
/// requests queued behind it; the lag records how late each was sent.
pub fn open_loop(addr: SocketAddr, seed: u64, n: usize, rate: f64, secs: f64) -> Phase {
    let total = (rate * secs).round().max(1.0) as usize;
    let mut rng = Rng::new(seed);
    let queries: Vec<Query> = (0..total).map(|_| Query::draw(&mut rng, n)).collect();
    let started = Instant::now() + Duration::from_millis(5);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut client = connect(addr).ok();
                    let mut samples = Vec::new();
                    for (i, query) in queries.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let due = started + Duration::from_secs_f64(i as f64 / rate);
                        // Sleep to just short of the due time, then spin
                        // out the rest: a sleep alone overshoots by the
                        // timer slack plus a wake-up, which would count
                        // as latency. A late wake-up still shows as lag.
                        if let Some(wait) = (due - SPIN_TAIL).checked_duration_since(Instant::now())
                        {
                            std::thread::sleep(wait);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let (status, body) = send_recorded(&mut client, addr, query);
                        let done = Instant::now();
                        samples.push(Sample {
                            query: query.clone(),
                            status,
                            body,
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            lag_us: (sent - due).as_secs_f64() * 1e6,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Phase {
        name: "offered-rate",
        samples,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// Compares every recorded response with the oracle's answer. Returns
/// the number of failed requests (non-200, timed out, or mismatched).
pub fn verify(phase: &Phase, oracle: &ShardRouter) -> Result<usize, String> {
    // Top-k answers come from one batched oracle pass per chunk.
    let mut topk = std::collections::HashMap::new();
    let ids: Vec<usize> = phase
        .samples
        .iter()
        .filter_map(|s| match s.query {
            Query::TopK(id) => Some(id),
            _ => None,
        })
        .collect();
    for chunk in ids.chunks(256) {
        let queries: Vec<(usize, usize)> = chunk.iter().map(|&id| (id, TOPK_K)).collect();
        for (&id, answer) in chunk.iter().zip(oracle.top_k_batch(&queries)) {
            let neighbors = answer.map_err(|e| format!("oracle top-k {id}: {e}"))?;
            topk.insert(id, body_hash(&topk_body(id, &neighbors)));
        }
    }
    let mut failed = 0;
    for s in &phase.samples {
        let want = match s.query {
            Query::TopK(id) => topk[&id],
            _ => body_hash(&s.query.expected(oracle)?),
        };
        if s.status != 200 || s.body != want {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Latencies of one request kind in a phase.
fn latencies(phase: &Phase, pick: QueryKind) -> Vec<f64> {
    phase
        .samples
        .iter()
        .filter(|s| pick(&s.query))
        .map(|s| s.latency_us)
        .collect()
}

/// A predicate selecting one kind of request.
type QueryKind = fn(&Query) -> bool;

fn is_topk(q: &Query) -> bool {
    matches!(q, Query::TopK(_))
}

fn is_point(q: &Query) -> bool {
    matches!(q, Query::Point(_))
}

/// Latency metrics of an offered-rate phase, per kind, over the whole
/// phase: the p50, and with `p99` also the p99.
pub fn report_latency(
    open: &Phase,
    prefix: &str,
    p99: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    for (name, pick) in [("topk", is_topk as QueryKind), ("point", is_point)] {
        let lat = latencies(open, pick);
        let none = || format!("no {name} samples");
        m.add(
            &format!("{prefix}{name}_p50_us"),
            median(&lat).ok_or_else(none)?,
            "us",
        );
        if p99 {
            let value = quantile(&lat, 0.99).ok_or_else(none)?;
            m.add(&format!("{prefix}{name}_p99_us"), value, "us");
        }
    }
    Ok(())
}

/// Writes one line per phase to stderr: sent, succeeded, failed, how
/// late the generator ran, and the median latency of each request kind.
pub fn log_phase(phase: &Phase, failed: usize) {
    let lags: Vec<f64> = phase.samples.iter().map(|s| s.lag_us).collect();
    let kinds: [(&str, QueryKind); 3] = [
        ("point", is_point),
        ("embed", |q| matches!(q, Query::Embed(_))),
        ("topk", is_topk),
    ];
    let p50s: Vec<String> = kinds
        .iter()
        .map(|(name, pick)| {
            let lat = latencies(phase, *pick);
            format!(
                "{name} {:.0} us x{}",
                median(&lat).unwrap_or(0.0),
                lat.len()
            )
        })
        .collect();
    eprintln!(
        "phase {:<12} sent {:>6} succeeded {:>6} failed {:>4} in {:.2} s ({:.0}/s), \
         generator lag p50 {:.0} us p99 {:.0} us; p50 {}",
        phase.name,
        phase.samples.len(),
        phase.samples.len() - failed,
        failed,
        phase.secs,
        phase.samples.len() as f64 / phase.secs,
        quantile(&lags, 0.5).unwrap_or(0.0),
        quantile(&lags, 0.99).unwrap_or(0.0),
        p50s.join(", ")
    );
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut client = connect(addr)?;
    let (status, page) = client.get_text("/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(Scrape::parse(&page))
}

/// Median per-call microseconds of `f`, called in batches of `batch`.
fn per_call_us(batch: usize, rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|r| {
            let t = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&samples).expect("rounds > 0")
}

/// A span of a `/traces` tree: `(name, start µs, duration µs)`.
type TraceSpan = (String, f64, f64);

/// Self time of the spans named `name` in one trace: each one's
/// duration minus the part of it covered by the spans that start
/// inside it (its children, on any thread). `None` if there is none.
fn self_us(spans: &[TraceSpan], name: &str) -> Option<f64> {
    let mut total = None;
    for (i, (_, start, dur)) in spans.iter().enumerate().filter(|(_, s)| s.0 == name) {
        let end = start + dur;
        let mut inner: Vec<(f64, f64)> = spans
            .iter()
            .enumerate()
            .filter(|&(j, (_, s, d))| {
                j != i && *s >= *start && *s < end && (*s > *start || d <= dur)
            })
            .map(|(_, (_, s, d))| (*s, (s + d).min(end)))
            .collect();
        inner.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut reach) = (0.0, *start);
        for (s, e) in inner {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *total.get_or_insert(0.0) += dur - covered;
    }
    total
}

/// Traced-run probes and scrapes. `open` is the traced offered-rate
/// phase, `before`/`after` the `/metrics` pages around it.
#[allow(clippy::too_many_arguments)]
pub fn traced_layers(
    server: &Server,
    oracle: &ShardRouter,
    layout: &Path,
    open: &Phase,
    before: &Scrape,
    after: &Scrape,
    seed: u64,
    m: &mut Metrics,
) -> Result<usize, String> {
    let n = oracle.meta().n;
    let mut rng = Rng::new(Rng::stream(seed, 5));

    // Direct library calls on the same layout. A cache-less router
    // times the scan itself; point reads are timed in batches.
    let scanner = ShardRouter::open(layout, serve_defaults(0)).map_err(|e| e.to_string())?;
    let ids: Vec<usize> = (0..2048).map(|_| rng.below(n)).collect();
    let topk_us = per_call_us(1, 64, |i| {
        std::hint::black_box(scanner.top_k_similar(ids[i % ids.len()], TOPK_K).ok());
    });
    let point_us = per_call_us(1024, 16, |i| {
        std::hint::black_box(oracle.cluster_of(ids[i % ids.len()]).ok());
    });
    let wire: Vec<Vec<u8>> = open.samples.iter().map(|s| s.query.wire_bytes()).collect();
    let parse_us = per_call_us(wire.len().min(4096), 8, |i| {
        std::hint::black_box(sgla_serve::parser::parse_request(&wire[i % wire.len()]));
    });
    m.add("router.topk_us", topk_us, "us");
    m.add("router.point_us", point_us, "us");
    m.add("parser.parse_us", parse_us, "us");

    // Cache-missing top-k probes (k = 9 is never cached by the mix)
    // with EXPLAIN; their span trees then come from /traces.
    let mut client = connect(server.addr)?;
    let (mut rows, mut shards, mut failed) = (Vec::new(), Vec::new(), 0);
    for _ in 0..PROBES {
        let id = rng.below(n);
        let ok = client
            .get(&format!("/topk/{id}?k=9&explain=1"))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| {
                let cost = r.body.get("cost")?;
                Some((
                    cost.get("rows_scanned")?.as_f64()?,
                    cost.get("shards_touched")?.as_f64()?,
                ))
            });
        match ok {
            Some((r, s)) => {
                rows.push(r);
                shards.push(s);
            }
            None => failed += 1,
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.add("router.rows_scanned_per_topk", mean(&rows), "rows");
    m.add("router.shards_touched_per_topk", mean(&shards), "count");

    let traces = client
        .get(&format!("/traces?n={PROBES}"))
        .map_err(|e| format!("/traces: {e}"))?;
    let names = ["serve.scan", "serve.fan_out", "serve.merge"];
    let mut selfs: [Vec<f64>; 3] = Default::default();
    let mut request_share = Vec::new();
    for trace in traces
        .body
        .get("traces")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let spans: Vec<TraceSpan> = trace
            .get("spans")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                Some((
                    s.get("name")?.as_str()?.to_string(),
                    s.get("start_us")?.as_f64()?,
                    s.get("dur_us")?.as_f64()?,
                ))
            })
            .collect();
        if !spans.iter().any(|s| s.0 == "serve.fan_out") {
            continue;
        }
        for (slot, name) in selfs.iter_mut().zip(names) {
            slot.extend(self_us(&spans, name));
        }
        // The share of the request span that no layer span covers.
        if let (Some(own), Some(request)) = (
            self_us(&spans, "serve.request"),
            spans.iter().find(|s| s.0 == "serve.request"),
        ) {
            request_share.push(own / request.2.max(1.0));
        }
    }
    if selfs[1].is_empty() {
        return Err("/traces returned no top-k trace with a fan-out".into());
    }
    // Means: span times are whole microseconds, so medians would
    // repeat exactly from run to run.
    m.add("serve.scan_self_us", mean(&selfs[0]), "us");
    m.add("serve.fan_out_self_us", mean(&selfs[1]), "us");
    m.add("serve.merge_self_us", mean(&selfs[2]), "us");
    m.add(
        "serve.request_unattributed_share",
        mean(&request_share),
        "ratio",
    );

    // The offered-rate window, from the /metrics pages around it.
    let lat = "sgla_request_latency_us";
    let server_q = |endpoint: &str| {
        after
            .window_quantile(before, lat, &format!("endpoint=\"{endpoint}\""), 0.5)
            .ok_or(format!("/metrics saw no {endpoint} requests"))
    };
    m.add("http.server_topk_p50_us", server_q("topk")?, "us");
    m.add("http.server_point_p50_us", server_q("cluster")?, "us");
    let server_point_mean = after
        .window_mean(before, lat, "endpoint=\"cluster\"")
        .ok_or("/metrics saw no cluster requests")?;
    let client_point = latencies(open, is_point);
    let client_point_mean = client_point.iter().sum::<f64>() / client_point.len().max(1) as f64;
    m.add(
        "http.outside_share",
        1.0 - server_point_mean / client_point_mean,
        "ratio",
    );
    let hits = after.delta(before, "sgla_cache_hits_total");
    let misses = after.delta(before, "sgla_cache_misses_total");
    m.add(
        "router.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.add(
        "batch.queue_wait_us",
        after
            .window_mean(
                before,
                "sgla_stage_duration_us",
                "stage=\"serve.queue_wait\"",
            )
            .unwrap_or(0.0),
        "us",
    );
    let jobs = after.delta(before, "sgla_pool_jobs_total");
    m.add(
        "pool.dispatch_wait_us",
        after.delta(before, "sgla_pool_dispatch_wait_seconds_total") * 1e6 / jobs.max(1.0),
        "us",
    );
    m.add(
        "http.accepts",
        after.get("sgla_conn_accepts_total"),
        "count",
    );
    m.add(
        "store.rss_anon_mb",
        proc_status_mb(&server.pid(), "RssAnon")?,
        "MiB",
    );
    Ok(failed)
}

/// The layout directory of setup repetition `i`.
pub fn layout_dir(work: &Path, i: usize) -> PathBuf {
    work.join(format!("layout-{i}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name: &str, start: f64, dur: f64| (name.to_string(), start, dur);
        let spans = vec![
            span("serve.fan_out", 0.0, 100.0),
            span("serve.scan", 10.0, 50.0),
            span("serve.scan", 30.0, 40.0), // overlaps the first scan
            span("serve.merge", 80.0, 10.0),
        ];
        // Children cover 10..70 and 80..90: 70 of the 100.
        assert_eq!(self_us(&spans, "serve.fan_out"), Some(30.0));
        assert_eq!(self_us(&spans, "serve.merge"), Some(10.0));
        assert_eq!(self_us(&spans, "serve.request"), None);
    }
}
