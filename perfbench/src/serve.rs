//! Serve-side inputs and helpers: the seeded `/v1/query` pool, the
//! `/v1/run` + `/v1/optimize` key space, server start-up, and the
//! server's own histograms read back from `GET /v1/metrics`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ntc::api::{
    EnergyModel, LawKind, Memory, OptimizeRequest, QueryKind, QueryRequest, RunRequest,
};
use ntc::artifact::json::{parse, JsonValue};
use ntc::fit::{Scheme, VoltageGrid};
use ntc::repro::{find_id, run_one, ExperimentId, RunCtx, Scale};
use ntc_obs::HistogramSnapshot;
use ntc_serve::query::{eval, Models};
use ntc_serve::{RunningServer, ServeConfig, Server};

use crate::gen::{self, Request};
use crate::stats::Rng;

/// Distinct `/v1/query` bodies in the pool.
const QUERY_POOL: usize = 512;
/// Queries in a batched `/v1/query` body.
const QUERY_BATCH: usize = 4;

/// A seeded pool of `/v1/query` bodies and the exact bytes the server
/// must answer each with, computed in process by `query::eval`.
pub struct QueryPool {
    /// Request bodies.
    pub bodies: Vec<String>,
    /// Expected response bodies.
    pub expected: Vec<String>,
    /// Whether the body is a single query (not a batch).
    pub single: Vec<bool>,
}

/// One query, its kind drawn uniformly from four: Eq. 4 (access) and
/// Eq. 5 (retention) bit error rates, `vmin`, and energy. Within a kind
/// every parameter is drawn uniformly too. No traffic record exists to
/// weight them by, so the mix is uniform, not measured.
fn one_query(rng: &mut Rng, k: usize) -> QueryRequest {
    // Voltages sit on a 5 mV grid so repeats exercise the model memo.
    #[allow(clippy::cast_precision_loss)]
    let grid_v = |rng: &mut Rng, lo: f64, steps: usize| lo + 0.005 * rng.below(steps) as f64;
    let kind = match rng.below(4) {
        // Eq. 4 has laws for the two 40 nm memories only; Eq. 5 covers all three.
        0 => {
            let memory = [Memory::Commercial40, Memory::CellBased40][rng.below(2)];
            let vdd = match memory {
                Memory::Commercial40 => grid_v(rng, 0.55, 80),
                _ => grid_v(rng, 0.30, 60),
            };
            QueryKind::Ber {
                law: LawKind::Access,
                memory,
                vdd,
            }
        }
        1 => QueryKind::Ber {
            law: LawKind::Retention,
            memory: [
                Memory::Commercial40,
                Memory::CellBased40,
                Memory::CellBased65,
            ][rng.below(3)],
            vdd: grid_v(rng, 0.15, 100),
        },
        2 => QueryKind::Vmin {
            scheme: [Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean][rng.below(3)],
            memory: [Memory::Commercial40, Memory::CellBased40][rng.below(2)],
            fit_target: [1e-15, 1e-12][rng.below(2)],
            frequency_hz: [None, Some(290e3), Some(1.96e6)][rng.below(3)],
            grid: [VoltageGrid::PaperGrid, VoltageGrid::Exact][rng.below(2)],
        },
        _ => QueryKind::Energy {
            model: [EnergyModel::Cots40, EnergyModel::CellBased40][rng.below(2)],
            vdd: grid_v(rng, 0.35, 150),
            frequency_hz: None,
        },
    };
    let id = (rng.below(2) == 0).then(|| format!("q{k}"));
    QueryRequest { id, kind }
}

fn compact(v: &JsonValue) -> String {
    let mut s = String::new();
    v.write_compact(&mut s);
    s
}

impl QueryPool {
    /// Builds the pool for `seed`. Each body is drawn uniformly from five
    /// forms: a single query of one of the four kinds `one_query` draws
    /// (Eq. 4 and Eq. 5 bit error rates over all three memories, `vmin` on
    /// the paper and exact grids with and without a clock, energy points),
    /// or a batch of four such queries.
    pub fn new(seed: u64) -> Result<QueryPool, String> {
        let mut rng = Rng::new(seed, 0x0071_7565_7279);
        let models = Models::paper();
        let (mut bodies, mut expected, mut single) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..QUERY_POOL {
            let batch = if rng.below(5) == 0 { QUERY_BATCH } else { 1 };
            let queries: Vec<QueryRequest> = (0..batch).map(|_| one_query(&mut rng, k)).collect();
            let mut results = Vec::new();
            for q in &queries {
                // Decode the wire form, exactly as the server will.
                let decoded =
                    QueryRequest::from_json_value(&parse(&q.to_json()).map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                let r = eval(&decoded, &models).map_err(|e| format!("pool query {k}: {e}"))?;
                results.push(r.to_json_value());
            }
            if batch == 1 {
                bodies.push(queries[0].to_json());
                expected.push(compact(&results[0]));
            } else {
                let items: Vec<String> = queries.iter().map(QueryRequest::to_json).collect();
                bodies.push(format!("{{\"queries\":[{}]}}", items.join(",")));
                expected.push(compact(&JsonValue::Obj(vec![(
                    "results".into(),
                    JsonValue::Arr(results),
                )])));
            }
            single.push(batch == 1);
        }
        Ok(QueryPool {
            bodies,
            expected,
            single,
        })
    }

    /// The `/v1/query` request for pool entry `i`.
    pub fn request(&self, i: usize) -> Request<'_> {
        Request {
            method: "POST",
            path: "/v1/query",
            body: &self.bodies[i],
        }
    }
}

/// One `/v1/run` or `/v1/optimize` key of the `serve_compute` workload.
#[derive(Debug, Clone)]
pub enum ComputeKey {
    /// A quick-scale experiment run.
    Run(RunRequest),
    /// A design-space search.
    Optimize(OptimizeRequest),
}

/// Run keys: every registry id at four seeds.
const RUN_SEEDS: usize = 4;
/// Optimize keys: frequencies, each at two restart counts and two seeds.
const OPT_FREQS: usize = 22;

/// The `serve_compute` key space: 88 runs and 88 searches. Run and
/// optimize results sit in separate memos of the default capacity 64, so
/// each half exceeds its memo and repeats split between memo hits and
/// store reads. The halves are equal, so a key drawn uniformly is a run or
/// a search with even odds: no traffic record exists to weight them by.
pub fn compute_keys(seed: u64) -> Vec<ComputeKey> {
    let mut rng = Rng::new(seed, 0x636f_6d70);
    let mut keys = Vec::new();
    for s in 0..RUN_SEEDS {
        let run_seed = rng.next_u64() % 1_000_000 + s as u64;
        for id in ExperimentId::ALL {
            keys.push(ComputeKey::Run(RunRequest {
                id,
                scale: Scale::Quick,
                seed: Some(run_seed),
            }));
        }
    }
    for _ in 0..OPT_FREQS {
        #[allow(clippy::cast_precision_loss)]
        let frequency_hz = 100e3 + 10e3 * rng.below(200) as f64;
        for restarts in [2, 4] {
            for _ in 0..2 {
                let mut req = OptimizeRequest::paper(frequency_hz);
                req.restarts = restarts;
                req.seed = rng.next_u64() % 100_000;
                req.canonicalize();
                keys.push(ComputeKey::Optimize(req));
            }
        }
    }
    keys
}

impl ComputeKey {
    /// The HTTP path and body of this key's request.
    pub fn path_and_body(&self) -> (&'static str, String) {
        match self {
            ComputeKey::Run(r) => ("/v1/run", r.to_json()),
            ComputeKey::Optimize(o) => ("/v1/optimize", o.to_json()),
        }
    }

    /// Whether `body` is exactly the in-process answer: the artifact
    /// `run_one(..)` renders, embedded byte for byte and with every
    /// anchor passing, or the bytes `ntc::optimize::optimize` renders.
    pub fn matches(&self, body: &str) -> bool {
        match self {
            ComputeKey::Run(r) => {
                let ctx = RunCtx::builder()
                    .seed(r.seed.expect("compute keys carry a seed"))
                    .scale(r.scale)
                    .build();
                let artifact = run_one(find_id(r.id).as_ref(), &ctx);
                let embedded = format!(
                    "\"artifact\":{},\"checks\":",
                    compact(&artifact.to_json_value())
                );
                body.contains(&embedded) && body.ends_with(",\"passed\":true}")
            }
            ComputeKey::Optimize(o) => ntc::optimize::optimize(o).to_json() == body,
        }
    }
}

/// Starts a server with `workers` shards and an optional store, and
/// returns it with its set-up time: from `Server::bind` until the first
/// `200` from `GET /v1/healthz`.
pub fn start(workers: usize, store: Option<PathBuf>) -> Result<(RunningServer, f64), String> {
    let t = Instant::now();
    let server = Server::bind(ServeConfig {
        workers,
        store,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("binding the server: {e}"))?;
    let health = Request {
        method: "GET",
        path: "/v1/healthz",
        body: "",
    };
    loop {
        if let Ok((reply, _, _)) = gen::send(server.addr(), &health) {
            if reply.status == 200 {
                break;
            }
        }
        if t.elapsed() > Duration::from_secs(30) {
            return Err("server never answered /v1/healthz".into());
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Servers started, timed and stopped in a set-up child.
const SETUP_STARTS: usize = 64;

/// Body of `--child-setup`: starts, times and stops `SETUP_STARTS` servers
/// one after another, each with a fresh store under `scratch` if given,
/// and returns the times (s) as one JSON array.
pub fn child_setup(workers: usize, scratch: Option<&Path>) -> Result<String, String> {
    let mut times = Vec::new();
    for k in 0..SETUP_STARTS {
        let dir = match scratch {
            Some(root) => Some(fresh_dir(root, &format!("setup-{k}"))?),
            None => None,
        };
        let (server, secs) = start(workers, dir.clone())?;
        server.shutdown();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        times.push(secs.to_string());
    }
    Ok(format!("[{}]", times.join(", ")))
}

/// Runs `--child-setup` in a child process and returns its start times.
/// The starts run apart from the benchmark process so that the allocator
/// state their threads leave behind does not reach its `peak_rss_mb`.
pub fn spawn_setup(store: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child-setup", if store { "store" } else { "plain" }])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("set-up child printed nothing")?;
    let times: Vec<f64> = parse(line)
        .map_err(|e| format!("set-up child output: {e}"))?
        .as_arr()
        .ok_or("set-up child output is not an array")?
        .iter()
        .filter_map(JsonValue::as_num)
        .collect();
    if times.len() != SETUP_STARTS {
        return Err(format!("set-up child reported {} starts", times.len()));
    }
    Ok(times)
}

/// A fresh, empty directory under the benchmark's scratch root.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The server's metrics, read over HTTP from `GET /v1/metrics`.
pub struct ServerMetrics(HashMap<String, JsonValue>);

impl ServerMetrics {
    /// Fetches and parses the JSON snapshot.
    pub fn fetch(addr: SocketAddr) -> Result<ServerMetrics, String> {
        let req = Request {
            method: "GET",
            path: "/v1/metrics",
            body: "",
        };
        let (reply, _, _) = gen::send(addr, &req).map_err(|e| format!("GET /v1/metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET /v1/metrics answered {}", reply.status));
        }
        match parse(&reply.body).map_err(|e| e.to_string())? {
            JsonValue::Obj(entries) => Ok(ServerMetrics(entries.into_iter().collect())),
            _ => Err("metrics snapshot is not an object".into()),
        }
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_num)
            .unwrap_or(0.0)
    }

    /// The p50 of a server histogram, ms.
    pub fn histogram_p50(&self, name: &str) -> Result<f64, String> {
        let h = self
            .0
            .get(name)
            .ok_or_else(|| format!("no `{name}` histogram"))?;
        let nums = |key: &str| -> Vec<f64> {
            h.get(key)
                .and_then(JsonValue::as_arr)
                .map(|a| a.iter().filter_map(JsonValue::as_num).collect())
                .unwrap_or_default()
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let snap = HistogramSnapshot {
            bounds: nums("bounds"),
            buckets: nums("buckets").into_iter().map(|c| c as u64).collect(),
            sum: h.get("sum").and_then(JsonValue::as_num).unwrap_or(0.0),
            ignored: 0,
        };
        snap.quantile(0.5)
            .ok_or_else(|| format!("`{name}` is empty"))
    }
}
