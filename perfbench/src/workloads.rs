//! The three workloads, timed with tracing off, and the traced run that
//! gives the per-layer metrics. README.md records why each workload was
//! chosen and which layer metric should move which end-to-end metric.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use ntc::repro::{experiment_ids, run_all, RunCtx};

use crate::gen::{self, Reply, Request, Sample};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::Metrics;
use crate::repro::{ctx_seed, failed_artifacts, spawn_pass, Pass};
use crate::serve::{self, compute_keys, ComputeKey, QueryPool, ServerMetrics};
use crate::stats::{median, percentile, Rng};

/// Fixed offered rate of the `serve_query` latency phase, req/s.
const QUERY_RATE: f64 = 100.0;
/// The latency limit `max_rate_rps` holds p99 to, ms.
const P99_LIMIT_MS: f64 = 20.0;
/// Requests behind a p99 with ten samples beyond it.
const P99_SAMPLES: usize = 1000;
/// Fewest repro passes a run reports a median over.
const MIN_PASSES: usize = 5;
/// Consecutive starts whose fastest one counts toward a serve `setup_s`.
const SETUP_GROUP: usize = 4;
/// Requests per closed-loop pass over the query pool.
const QUERY_PASS: usize = 200;
/// Requests at the fixed rate with the server's histograms on.
const TRACED_REQUESTS: usize = 600;
/// Untraced/traced pass pairs in the traced run.
const TRACE_PAIRS: usize = 5;
/// Length of the rate ramp, s.
const RAMP_S: f64 = 12.0;
/// Closed-loop passes over the query pool.
const QUERY_PASSES: usize = 3;
/// Requests per closed-loop pass over the compute keys.
const COMPUTE_PASS: usize = 64;

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport errors, byte mismatches
    /// and missed anchors.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
    /// Sample counts and other context, printed before the result line.
    pub notes: Vec<String>,
}

/// Settings shared by every workload.
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Host and load shape.
    pub host: Host,
    /// Scratch root inside the checkout, removed when the run ends.
    pub scratch: PathBuf,
}

fn count_failed(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms).collect()
}

/// `repro_paper`: cold full passes at paper scale until the window closes.
pub fn repro_paper(run: &Run) -> Result<Outcome, String> {
    let seed = ctx_seed(run.seed);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < run.seconds {
        passes.push(spawn_pass(seed, false)?);
    }
    let window = start.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    let per_pass = experiment_ids().len() as u64;
    out.attempted = per_pass * passes.len() as u64;
    out.failed = passes
        .iter()
        .map(|p| failed_artifacts(p, &passes[0]) as u64)
        .sum();
    // Each experiment's median time over the passes; the slowest is noted.
    let slowest_ms = (0..per_pass as usize)
        .map(|k| median(&passes.iter().map(|p| p.exps[k].1 * 1e3).collect::<Vec<_>>()))
        .fold(0.0, f64::max);
    let wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        median(&passes.iter().map(|p| p.ctx_build_s).collect::<Vec<_>>()),
    );
    m.set("wall_s", wall);
    // The request a user makes here is a whole `run --all`: its median
    // latency is the median pass. (The median over the 22 experiments' own
    // times jumps between neighbours 0.3 ms apart from run to run.)
    m.set("p50_ms", wall * 1e3);
    #[allow(clippy::cast_precision_loss)]
    m.set("goodput_rps", (out.attempted - out.failed) as f64 / window);
    m.set(
        "peak_rss_mb",
        median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()),
    );
    out.notes.push(format!(
        "{{\"samples\": {{\"passes\": {}, \"experiments\": {per_pass}, \"experiment_runs\": {}, \"slowest_experiment_ms\": {}}}}}",
        passes.len(),
        out.attempted,
        slowest_ms
    ));
    Ok(out)
}

/// Times the 64 starts of a set-up child (each with a fresh store if
/// `store`), then starts the server the run uses and times it too. The
/// starts come before the window's traffic: spread between its segments
/// instead, they read slower and spread wider, as they then follow
/// thousands of closed connections.
fn timed_servers(
    run: &Run,
    store: Option<PathBuf>,
) -> Result<(ntc_serve::RunningServer, Vec<f64>), String> {
    let mut setups = serve::spawn_setup(store.is_some())?;
    let (server, secs) = serve::start(run.host.server_workers, store)?;
    setups.push(secs);
    Ok((server, setups))
}

/// A serve `setup_s` from the start times, in order: the median over groups
/// of `SETUP_GROUP` consecutive starts of each group's fastest. A start
/// whose first `/v1/healthz` waits out the acceptor's 10 ms poll, or that
/// a busy host delays, moves it only if every start of its group is slow,
/// so it reads the set-up work itself.
fn serve_setup_s(setups: &[f64]) -> f64 {
    let fastest: Vec<f64> = setups
        .chunks(SETUP_GROUP)
        .map(|group| group.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&fastest)
}

/// The set-up times' count and range, and how many starts took over 5 ms
/// (a start whose first `/v1/healthz` waited out the acceptor's poll).
fn setup_note(setups: &[f64]) -> String {
    format!(
        "\"setup_starts\": {}, \"setup_s_range\": [{}, {}], \"setup_over_5ms\": {}",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        setups.iter().filter(|&&s| s > 5e-3).count()
    )
}

/// Open-loop requests at the offered rates of `schedule`, drawn from the pool.
fn open_loop(
    run: &Run,
    addr: std::net::SocketAddr,
    pool: &QueryPool,
    rng: &mut Rng,
    schedule: &[(f64, f64)],
) -> Vec<Sample> {
    let idx: Vec<usize> = schedule
        .iter()
        .map(|_| rng.below(pool.bodies.len()))
        .collect();
    let due: Vec<f64> = schedule.iter().map(|&(t, _)| t).collect();
    gen::run(
        addr,
        run.host.gen_threads,
        due.len(),
        Some(&due),
        &|i| pool.request(idx[i]),
        &|i, r: &Reply| r.body == pool.expected[idx[i]],
    )
}

/// The highest offered rate at which the last `P99_SAMPLES` requests held
/// p99 within the limit, over a run whose offered rate only rises. A
/// backlog that grows shows as latency from due time, so past capacity
/// every later window fails; a transient stall fails a few windows only.
fn highest_held_rate(samples: &[Sample], rates: &[f64]) -> Option<f64> {
    let over = |s: &Sample| usize::from(!s.ok || s.latency_ms > P99_LIMIT_MS);
    let mut missed: usize = samples.iter().take(P99_SAMPLES).map(over).sum();
    let mut best = None;
    for end in P99_SAMPLES..=samples.len() {
        if end > P99_SAMPLES {
            missed = missed + over(&samples[end - 1]) - over(&samples[end - 1 - P99_SAMPLES]);
        }
        // p99 of the window is within the limit iff at most 1% missed it.
        if missed * 100 <= P99_SAMPLES {
            best = Some(rates[end - 1]);
        }
    }
    best
}

/// Closed-loop passes over the query pool: each pass's time, and every sample.
fn query_passes(
    run: &Run,
    addr: std::net::SocketAddr,
    pool: &QueryPool,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<Sample>) {
    let (mut pass_s, mut all) = (Vec::new(), Vec::new());
    for _ in 0..QUERY_PASSES {
        let idx: Vec<usize> = (0..QUERY_PASS)
            .map(|_| rng.below(pool.bodies.len()))
            .collect();
        let t = Instant::now();
        let samples = gen::run(
            addr,
            run.host.gen_threads,
            QUERY_PASS,
            None,
            &|i| pool.request(idx[i]),
            &|i, r| r.body == pool.expected[idx[i]],
        );
        pass_s.push(t.elapsed().as_secs_f64());
        all.extend(samples);
    }
    (pass_s, all)
}

/// The highest rate holding the limit, from an open loop of `ramp_s`
/// seconds whose offered rate rises geometrically from the fixed rate (or
/// half `closed_rate`, if lower) to 1.25 × `closed_rate`. Returns the
/// samples, the rate, and whether any window held the limit (if none did,
/// the ramp's lowest rate is returned).
fn ramp(
    run: &Run,
    addr: std::net::SocketAddr,
    pool: &QueryPool,
    rng: &mut Rng,
    closed_rate: f64,
    ramp_s: f64,
) -> (Vec<Sample>, f64, bool) {
    let (r0, r1) = ((0.5 * closed_rate).min(QUERY_RATE), 1.25 * closed_rate);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (((r1 - r0) * ramp_s / (r1 / r0).ln()) as usize).max(2 * P99_SAMPLES);
    let schedule = gen::jittered_schedule(rng, n, |t| r0 * (r1 / r0).powf(t / ramp_s));
    let samples = open_loop(run, addr, pool, rng, &schedule);
    let rates: Vec<f64> = schedule.iter().map(|&(_, r)| r).collect();
    let held = highest_held_rate(&samples, &rates);
    (samples, held.unwrap_or(r0), held.is_some())
}

/// `serve_query`: seeded `/v1/query` traffic against an in-process server.
#[allow(clippy::cast_precision_loss)]
pub fn serve_query(run: &Run) -> Result<Outcome, String> {
    let start = Instant::now();
    let pool = QueryPool::new(run.seed)?;
    let mut rng = Rng::new(run.seed, 0x6f70_656e);
    let (server, setups) = timed_servers(run, None)?;
    let addr = server.addr();

    // Closed-loop passes: the time to get a fixed set of answers.
    let (pass_s, mut all) = query_passes(run, addr, &pool, &mut rng);

    // Open loop at a fixed rate for the rest of the window: latency from
    // due time.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (P99_SAMPLES + 100)
        .max((QUERY_RATE * (run.seconds - start.elapsed().as_secs_f64())) as usize);
    let schedule = gen::jittered_schedule(&mut rng, n, |_| QUERY_RATE);
    let t = Instant::now();
    let fixed = open_loop(run, addr, &pool, &mut rng, &schedule);
    let fixed_s = t.elapsed().as_secs_f64();
    server.shutdown();
    let lat = latencies(&fixed);
    let (p50, p99) = (percentile(&lat, 0.5)?, percentile(&lat, 0.99)?);
    let ok_fixed = n as u64 - count_failed(&fixed);
    all.extend(fixed);

    let mut out = Outcome {
        attempted: all.len() as u64,
        failed: count_failed(&all),
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    m.set("setup_s", serve_setup_s(&setups));
    m.set("wall_s", median(&pass_s));
    m.set("p50_ms", p50.value);
    m.set("goodput_rps", ok_fixed as f64 / fixed_s);
    m.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{{\"samples\": {{\"fixed_rate_rps\": {QUERY_RATE}, \"fixed_requests\": {}, \"p50_beyond\": {}, \"p99_ms\": {}, \"p99_beyond\": {}, \"closed_loop_rps\": {}, {}}}}}",
        p50.count,
        p50.beyond,
        p99.value,
        p99.beyond,
        QUERY_PASS as f64 / median(&pass_s),
        setup_note(&setups),
    ));
    Ok(out)
}

/// Closed-loop passes over the compute key space until `seconds` pass.
/// Returns every sample, the pass times, and per key the body it was first
/// answered with and how many answers equalled it (any other answer is a
/// failed sample).
#[allow(clippy::type_complexity)]
fn compute_passes(
    run: &Run,
    addr: std::net::SocketAddr,
    keys: &[ComputeKey],
    seconds: f64,
    rng: &mut Rng,
) -> (Vec<Sample>, Vec<f64>, HashMap<usize, (String, u64)>) {
    let requests: Vec<(&'static str, String)> =
        keys.iter().map(ComputeKey::path_and_body).collect();
    let first: Mutex<HashMap<usize, (String, u64)>> = Mutex::new(HashMap::new());
    let (mut all, mut pass_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let idx: Vec<usize> = (0..COMPUTE_PASS).map(|_| rng.below(keys.len())).collect();
        let t = Instant::now();
        let samples = gen::run(
            addr,
            run.host.gen_threads,
            COMPUTE_PASS,
            None,
            &|i| Request {
                method: "POST",
                path: requests[idx[i]].0,
                body: &requests[idx[i]].1,
            },
            &|i, r| {
                let mut seen = first.lock().expect("first-answer table lock");
                let entry = seen.entry(idx[i]).or_insert_with(|| (r.body.clone(), 0));
                let same = entry.0 == r.body;
                entry.1 += u64::from(same);
                same
            },
        );
        pass_s.push(t.elapsed().as_secs_f64());
        all.extend(samples);
    }
    (
        all,
        pass_s,
        first.into_inner().expect("first-answer table lock"),
    )
}

/// Byte-checks every key's first answer against the in-process answer;
/// returns the number of answers that equalled a first answer found wrong.
fn verify_compute(keys: &[ComputeKey], first: &HashMap<usize, (String, u64)>) -> u64 {
    first
        .iter()
        .filter(|(&k, (body, _))| !keys[k].matches(body))
        .map(|(_, &(_, n))| n)
        .sum()
}

/// `serve_compute`: two closed-loop clients on `/v1/run` and `/v1/optimize`
/// against a store-backed server.
#[allow(clippy::cast_precision_loss)]
pub fn serve_compute(run: &Run) -> Result<Outcome, String> {
    let start = Instant::now();
    let keys = compute_keys(run.seed);
    let mut rng = Rng::new(run.seed, 0x636c_6f73);
    let store = serve::fresh_dir(&run.scratch, "store")?;
    let (server, setups) = timed_servers(run, Some(store))?;
    let setup_rss = peak_rss_mb();
    let remaining = run.seconds - start.elapsed().as_secs_f64();
    let t = Instant::now();
    let (all, pass_s, first) = compute_passes(run, server.addr(), &keys, remaining, &mut rng);
    let window = t.elapsed().as_secs_f64();
    // Read before the in-process reference answers are computed.
    let run_rss = peak_rss_mb();
    server.shutdown();
    let mismatched = verify_compute(&keys, &first);

    let failed = count_failed(&all) + mismatched;
    let mut out = Outcome {
        attempted: all.len() as u64,
        failed,
        ..Outcome::default()
    };
    let lat = latencies(&all);
    let p50 = percentile(&lat, 0.5)?;
    // Informational only: a short window may not support a p99.
    let p99 = percentile(&lat, 0.99).map_or("null".to_string(), |p| p.value.to_string());
    let m = &mut out.metrics;
    m.set("setup_s", serve_setup_s(&setups));
    m.set("wall_s", median(&pass_s));
    m.set("p50_ms", p50.value);
    m.set(
        "goodput_rps",
        (all.len() as u64 - count_failed(&all)) as f64 / window,
    );
    // The peak once the server is up. The peak over the traffic swings
    // between runs (README.md) and is printed on the samples line.
    m.set("peak_rss_mb", setup_rss);
    out.notes.push(format!(
        "{{\"samples\": {{\"requests\": {}, \"p50_beyond\": {}, \"p99_ms\": {p99}, \"run_peak_rss_mb\": {run_rss}, \"passes\": {}, \"keys_touched\": {}, \"key_space\": {}, {}}}}}",
        p50.count,
        p50.beyond,
        pass_s.len(),
        first.len(),
        keys.len(),
        setup_note(&setups)
    ));
    Ok(out)
}

/// The traced run: every per-layer metric, whatever the workload.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn traced(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = ctx_seed(run.seed);

    // Layer kernels, under benchmark-side spans.
    let artifacts = run_all(&RunCtx::builder().seed(seed).quick().build());
    let pool = QueryPool::new(run.seed)?;
    ntc_obs::reset();
    ntc_obs::enable();
    out.failed +=
        crate::layers::measure(&mut out.metrics, run.seed, &artifacts, &pool, &run.scratch)?;
    out.attempted += 1;
    let top: Vec<String> =
        crate::trace::top_self_ms(&crate::trace::self_times(&ntc_obs::take_spans()), 6)
            .into_iter()
            .map(|(name, ms)| format!("[\"{name}\", {ms}]"))
            .collect();
    out.notes
        .push(format!("{{\"layer_spans_ms\": [{}]}}", top.join(", ")));
    ntc_obs::disable();
    ntc_obs::reset();

    // Untraced and traced cold passes in pairs, alternating which runs
    // first so that neither side always follows the other.
    let (mut plain, mut traced_passes) = (Vec::new(), Vec::new());
    for k in 0..TRACE_PAIRS {
        if k % 2 == 0 {
            plain.push(spawn_pass(seed, false)?);
            traced_passes.push(spawn_pass(seed, true)?);
        } else {
            traced_passes.push(spawn_pass(seed, true)?);
            plain.push(spawn_pass(seed, false)?);
        }
    }
    let reference = plain[0].clone();
    let per_pass = experiment_ids().len() as u64;
    for p in plain.iter().chain(&traced_passes) {
        out.attempted += per_pass;
        out.failed += failed_artifacts(p, &reference) as u64;
    }
    let m = &mut out.metrics;
    for (k, id) in experiment_ids().iter().enumerate() {
        m.set(
            &format!("core.{id}_s"),
            median(&plain.iter().map(|p| p.exps[k].1).collect::<Vec<_>>()),
        );
    }
    m.set(
        "core.ctx_build_s",
        median(&plain.iter().map(|p| p.ctx_build_s).collect::<Vec<_>>()),
    );
    m.set(
        "ocean.fig8_rows_s",
        median(&plain.iter().map(|p| p.rows8_s).collect::<Vec<_>>()),
    );
    m.set(
        "ocean.fig9_rows_s",
        median(&plain.iter().map(|p| p.rows9_s).collect::<Vec<_>>()),
    );
    let traced_field = |key: &str| -> Vec<f64> {
        traced_passes
            .iter()
            .filter_map(|p| p.traced.as_ref()?.get(key)?.as_num())
            .collect()
    };
    m.set("stats.exec_self_ms", median(&traced_field("exec_self_ms")));
    m.set(
        "stats.tilted_shard_ms",
        median(&traced_field("tilted_shard_ms")),
    );
    let overhead: Vec<f64> = plain
        .iter()
        .zip(&traced_passes)
        .map(|(u, t)| (t.wall_s / u.wall_s - 1.0) * 100.0)
        .collect();
    m.set("obs.trace_overhead_pct", median(&overhead));
    let coverage_min: Vec<f64> = traced_passes
        .iter()
        .filter_map(|p| {
            let rows = p.traced.as_ref()?.get("coverage")?.as_arr()?;
            rows.iter()
                .filter_map(|r| r.get("coverage")?.as_num())
                .reduce(f64::min)
        })
        .collect();
    if coverage_min.is_empty() {
        return Err("traced passes reported no experiment spans".into());
    }
    m.set("obs.span_coverage_min", median(&coverage_min));
    if let Some(t) = traced_passes[0].traced.as_ref() {
        let mut s = String::new();
        for key in ["coverage", "top_self_ms"] {
            if let Some(v) = t.get(key) {
                s.push_str(&format!("\"{key}\": "));
                v.write_compact(&mut s);
                s.push_str(", ");
            }
        }
        out.notes.push(format!("{{{}}}", s.trim_end_matches(", ")));
    }

    // Serve, query traffic at the fixed rate, server histograms on.
    let mut rng = Rng::new(run.seed, 0x7472_6163);
    ntc_obs::enable();
    let (server, _) = serve::start(run.host.server_workers, None)?;
    ntc_obs::reset();
    let schedule = gen::jittered_schedule(&mut rng, TRACED_REQUESTS, |_| QUERY_RATE);
    let samples = open_loop(run, server.addr(), &pool, &mut rng, &schedule);
    let sm = ServerMetrics::fetch(server.addr())?;
    ntc_obs::disable();
    // The same rate again with tracing off: the p99 and generator lag.
    let schedule = gen::jittered_schedule(&mut rng, P99_SAMPLES + 100, |_| QUERY_RATE);
    let untraced = open_loop(run, server.addr(), &pool, &mut rng, &schedule);
    // The rate ramp runs untraced too, after closed-loop passes fix its range.
    let (pass_s, passes) = query_passes(run, server.addr(), &pool, &mut rng);
    let closed_rate = QUERY_PASS as f64 / median(&pass_s);
    let (ramped, max_rate, held) = ramp(run, server.addr(), &pool, &mut rng, closed_rate, RAMP_S);
    server.shutdown();
    out.notes.push(format!(
        "{{\"ramp\": {{\"closed_loop_rps\": {closed_rate}, \"requests\": {}, \"limit_held\": {held}}}}}",
        ramped.len()
    ));
    out.attempted += (untraced.len() + passes.len() + ramped.len()) as u64;
    out.failed += count_failed(&untraced) + count_failed(&passes) + count_failed(&ramped);
    out.metrics.set("max_rate_rps", max_rate);
    out.attempted += samples.len() as u64;
    out.failed += count_failed(&samples);
    let pick = |f: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let client_p50 = percentile(&pick(|s| s.latency_ms), 0.5)?.value;
    let server_p50 = sm.histogram_p50("serve.latency_ms")?;
    let handler_p50 = sm.histogram_p50("serve.handler_ms")?;
    let m = &mut out.metrics;
    m.set(
        "serve.connect_ms",
        percentile(&pick(|s| s.connect_ms), 0.5)?.value,
    );
    m.set(
        "serve.ttfb_ms",
        percentile(&pick(|s| s.ttfb_ms), 0.5)?.value,
    );
    m.set(
        "serve.queue_wait_ms",
        sm.histogram_p50("serve.queue_wait_ms")?,
    );
    m.set("serve.handler_ms", handler_p50);
    m.set("serve.server_latency_ms", server_p50);
    m.set("serve.accept_gap_ms", client_p50 - server_p50);
    m.set(
        "serve.predicted_capacity_rps",
        run.host.server_workers as f64 / (handler_p50 / 1e3),
    );
    let untraced_ms = |f: fn(&Sample) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
    m.set(
        "p99_ms",
        percentile(&untraced_ms(|s| s.latency_ms), 0.99)?.value,
    );
    m.set(
        "gen.lag_p99_ms",
        percentile(&untraced_ms(|s| s.lag_ms), 0.99)?.value,
    );
    let (hits, misses) = (
        sm.counter("memcalc.cache.hit"),
        sm.counter("memcalc.cache.miss"),
    );
    m.set("memcalc.cache_lookups", hits + misses);
    m.set("memcalc.cache_hit_rate", hits / (hits + misses));

    // Serve, compute traffic against a store-backed server.
    let keys = compute_keys(run.seed);
    let dir = serve::fresh_dir(&run.scratch, "traced-store")?;
    ntc_obs::enable();
    let (server, _) = serve::start(run.host.server_workers, Some(dir))?;
    ntc_obs::reset();
    let (samples, _, first) = compute_passes(run, server.addr(), &keys, 5.0, &mut rng);
    let sm = ServerMetrics::fetch(server.addr())?;
    server.shutdown();
    ntc_obs::disable();
    out.attempted += samples.len() as u64;
    out.failed += count_failed(&samples) + verify_compute(&keys, &first);
    let requests = samples.len() as f64;
    let memo = sm.counter("serve.run.memo_hit") + sm.counter("serve.optimize.memo_hit");
    let m = &mut out.metrics;
    m.set("serve.memo_hit_rate", memo / requests);
    m.set("serve.store_hit_rate", sm.counter("store.hit") / requests);
    m.set("serve.compute_requests", requests);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(latency_ms: f64) -> Sample {
        Sample {
            lag_ms: 0.0,
            latency_ms,
            connect_ms: 0.0,
            ttfb_ms: 0.0,
            ok: true,
        }
    }

    #[test]
    fn serve_setup_ignores_slow_starts_unless_a_whole_group_is_slow() {
        let mut setups = vec![1e-3; 4 * SETUP_GROUP];
        for group in setups.chunks_mut(SETUP_GROUP) {
            group[0] = 11e-3;
        }
        setups[1] = 0.6e-3;
        assert!((serve_setup_s(&setups) - 1e-3).abs() < 1e-12);
        // Three of four groups wholly slow: their fastest is slow too.
        for s in &mut setups[SETUP_GROUP..] {
            *s = 11e-3;
        }
        assert!((serve_setup_s(&setups) - 11e-3).abs() < 1e-12);
    }

    #[test]
    fn held_rate_ignores_a_transient_stall_and_stops_at_the_cliff() {
        let n = 4000;
        let rates: Vec<f64> = (0..n).map(|i| 100.0 + f64::from(i)).collect();
        let mut samples: Vec<Sample> = (0..n).map(|_| sample(5.0)).collect();
        // A stall misses the limit for 30 requests early on…
        for s in &mut samples[1200..1230] {
            s.latency_ms = 80.0;
        }
        // …and past the cliff at request 3000 every request misses it.
        for s in &mut samples[3000..] {
            s.latency_ms = 25.0;
        }
        // The last window holding ≤ 10 misses ends at request 3010.
        assert_eq!(highest_held_rate(&samples, &rates), Some(rates[3009]));
        // A failed request misses the limit however fast it was.
        samples[2995].ok = false;
        assert_eq!(highest_held_rate(&samples, &rates), Some(rates[3008]));
        // No window holds: no rate.
        let slow: Vec<Sample> = (0..n).map(|_| sample(30.0)).collect();
        assert_eq!(highest_held_rate(&slow, &rates), None);
    }
}
