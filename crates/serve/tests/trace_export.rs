//! Tracing end to end: the Chrome trace-event export of a full
//! training run (every phase present, correctly nested), the
//! `/traces` request-span tree over HTTP, and Prometheus conformance
//! of the `/metrics` page with stage histograms populated.

use mvag_data::json::Value;
use sgla_serve::{Artifact, RouterConfig, Server, ServerConfig, ShardRouter, TrainConfig};
use std::sync::{Arc, Mutex};

/// Tracing state (enable flag, ring buffer) is process-global; tests
/// in this binary serialize around it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// `(ts, dur, depth)` of every event named `name`.
fn windows(events: &[Value], name: &str) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
        .map(|e| {
            let ts = e.get("ts").unwrap().as_f64().unwrap() as u64;
            let dur = e.get("dur").unwrap().as_f64().unwrap() as u64;
            let depth = e
                .get("args")
                .unwrap()
                .get("depth")
                .unwrap()
                .as_f64()
                .unwrap() as u64;
            (ts, dur, depth)
        })
        .collect()
}

/// Every `child` window must sit inside some `parent` window that is
/// strictly shallower (smaller depth).
fn assert_nested(events: &[Value], child: &str, parent: &str) {
    let children = windows(events, child);
    let parents = windows(events, parent);
    assert!(!children.is_empty(), "no {child} events");
    assert!(!parents.is_empty(), "no {parent} events");
    for &(ts, dur, depth) in &children {
        assert!(
            parents
                .iter()
                .any(|&(pts, pdur, pdepth)| pts <= ts && ts + dur <= pts + pdur && pdepth < depth),
            "{child} [{ts}, +{dur}] depth {depth} not nested in any {parent} window: {parents:?}"
        );
    }
}

#[test]
fn train_trace_exports_valid_chrome_json_with_nested_phases() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mvag_obs::set_enabled(true);
    mvag_obs::clear();

    let mvag = mvag_data::toy_mvag(60, 2, 7);
    let mut config = TrainConfig::default();
    config.embed.dim = 6;
    let trace_id = mvag_obs::next_request_id();
    mvag_obs::with_trace(trace_id, || Artifact::train(&mvag, &config)).unwrap();

    let records = mvag_obs::drain();
    mvag_obs::set_enabled(false);
    let json = mvag_obs::chrome_trace_json(&records);

    // The export is a valid JSON document in Chrome trace-event
    // format: complete ("ph": "X") events with microsecond ts/dur.
    let parsed = mvag_data::json::parse(&json).unwrap();
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    for event in events {
        assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(event.get("cat").and_then(Value::as_str), Some("sgla"));
        assert!(event.get("ts").unwrap().as_f64().is_some());
        assert!(event.get("dur").unwrap().as_f64().is_some());
        // Everything recorded under with_trace carries the trace id.
        assert_eq!(
            event.get("args").unwrap().get("trace").unwrap().as_f64(),
            Some(trace_id as f64)
        );
    }

    // Every training phase shows up.
    for phase in [
        "train.views",
        "train.view_laplacian",
        "train.integrate",
        "train.surrogate",
        "train.eigensolve",
        "train.aggregate",
        "train.spectral",
        "train.kmeans",
        "train.embed",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(phase)),
            "missing phase {phase} in trace export"
        );
    }

    // Phase nesting: per-view work inside the views phase; objective
    // eigensolves, the surrogate optimization, and weight aggregation
    // inside the integration phase; k-means rounding inside the
    // spectral phase.
    assert_nested(events, "train.view_laplacian", "train.views");
    assert_nested(events, "train.eigensolve", "train.integrate");
    assert_nested(events, "train.surrogate", "train.integrate");
    assert_nested(events, "train.aggregate", "train.integrate");
    assert_nested(events, "train.kmeans", "train.spectral");

    // Attribute-view spans carry the KNN work: each unordered pair of
    // nonzero rows is scored once, and the toy's Gaussian rows are all
    // nonzero, so exactly n(n−1)/2 pairs.
    let knn = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some("train.view_laplacian")
                && e.get("args").unwrap().get("knn_k").is_some()
        })
        .expect("an attribute-view span");
    let pairs = knn.get("args").unwrap().get("pairs_scored").unwrap();
    assert_eq!(pairs.as_f64(), Some((60.0 * 59.0) / 2.0));

    // Eigensolve spans carry the solver's convergence counters.
    let eig = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("train.eigensolve"))
        .unwrap();
    let args = eig.get("args").unwrap();
    assert!(args.get("matvecs").unwrap().as_f64().unwrap() > 0.0);
    assert!(args.get("rounds").is_some());
    assert!(args.get("restarts").is_some());
    assert!(args.get("reortho_sweeps").is_some());
}

#[test]
fn http_traces_expose_request_span_tree() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let mvag = mvag_data::toy_mvag(90, 3, 19);
    let mut config = TrainConfig::default();
    config.embed.dim = 8;
    let artifact = Artifact::train(&mvag, &config).unwrap();
    let dir = std::env::temp_dir().join(format!("sgla-e2e-traces-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    artifact.save_sharded(&dir, 3).unwrap();

    let router = ShardRouter::open(&dir, RouterConfig::default()).unwrap();
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 4,
        trace: true,
        ..ServerConfig::default()
    };
    let server = Server::start_backend(Arc::new(router), &server_config).unwrap();
    assert!(mvag_obs::enabled(), "serve --trace on must enable tracing");
    mvag_obs::clear();

    let mut client = sgla_serve::HttpClient::connect(server.local_addr()).unwrap();
    let res = client.get("/topk/5?k=4").unwrap();
    assert_eq!(res.status, 200);
    let request_id = res.request_id.clone().expect("missing x-request-id");
    assert!(request_id.starts_with("req-"), "got {request_id}");

    // The span tree for that exact request id is retrievable.
    let traces = client.get("/traces?n=16").unwrap();
    assert_eq!(traces.status, 200);
    assert_eq!(traces.body.get("enabled").unwrap().as_bool(), Some(true));
    let list = traces.body.get("traces").unwrap().as_array().unwrap();
    let trace = list
        .iter()
        .find(|t| t.get("request_id").and_then(Value::as_str) == Some(&request_id))
        .unwrap_or_else(|| panic!("no trace for {request_id} in {list:?}"));

    let spans = trace.get("spans").unwrap().as_array().unwrap();
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    // Root, queue wait, the shared backend pass, the shard fan-out,
    // per-shard scans, and the merge all hang off one request.
    for stage in [
        "serve.request",
        "serve.queue_wait",
        "serve.backend",
        "serve.fan_out",
        "serve.scan",
        "serve.merge",
    ] {
        assert!(names.contains(&stage), "missing {stage} in {names:?}");
    }
    // The router loads shards lazily; the first query pays for it and
    // its trace shows it.
    assert!(names.contains(&"serve.shard_load"), "got {names:?}");
    // One scan per shard, attributed to this request even though they
    // ran on pool threads.
    assert_eq!(names.iter().filter(|n| **n == "serve.scan").count(), 3);
    let root = spans
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("serve.request"))
        .unwrap();
    assert_eq!(root.get("depth").unwrap().as_usize(), Some(0));
    assert_eq!(
        root.get("counters")
            .unwrap()
            .get("status")
            .unwrap()
            .as_usize(),
        Some(200)
    );

    // The slow filter keeps the request at threshold 0 and drops it at
    // an absurd one.
    let slow = client.get("/traces/slow?threshold_us=0").unwrap();
    assert_eq!(slow.status, 200);
    let slow_list = slow.body.get("traces").unwrap().as_array().unwrap();
    assert!(slow_list
        .iter()
        .any(|t| t.get("request_id").and_then(Value::as_str) == Some(&request_id)));
    let fast = client.get("/traces/slow?threshold_us=600000000").unwrap();
    let fast_list = fast.body.get("traces").unwrap().as_array().unwrap();
    assert!(!fast_list
        .iter()
        .any(|t| t.get("request_id").and_then(Value::as_str) == Some(&request_id)));

    // With stages populated, the full /metrics page is conformant
    // Prometheus text format, including the sgla_stage_* histograms
    // and pool gauges.
    let (status, page) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    sgla_serve::metrics::validate_prometheus(&page)
        .unwrap_or_else(|e| panic!("/metrics not conformant: {e}\n{page}"));
    assert!(page.contains("sgla_stage_duration_us_bucket{stage=\"serve.request\""));
    assert!(page.contains("# TYPE sgla_stage_duration_us histogram"));
    assert!(page.contains("# TYPE sgla_pool_threads gauge"));

    // /stats reports the resolved worker-pool configuration and the
    // tracing flag.
    let stats = client.get("/stats").unwrap().body;
    let pool = stats.get("pool").unwrap();
    assert!(pool.get("threads").unwrap().as_usize().unwrap() >= 1);
    let kind = pool.get("kind").unwrap().as_str().unwrap();
    assert!(["inline", "static", "steal"].contains(&kind), "{kind}");
    assert!(pool.get("jobs").unwrap().as_f64().is_some());
    assert_eq!(stats.get("tracing").unwrap().as_bool(), Some(true));

    mvag_obs::set_enabled(false);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
