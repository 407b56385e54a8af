//! The `repro_paper` workload: full paper-scale `run --all` passes.
//!
//! Each pass runs in a fresh child process (this binary with
//! `--child-pass`), so it starts as cold as a user's `repro run --all`,
//! including the process-global memoized platform model behind
//! `ntc::fit::paper_platform_f_max`. The child builds a `RunCtx`, measures
//! the shared Figure 8/9 rows on their own (so they are not billed to
//! whichever experiment touches them first), runs every registry
//! experiment through `ntc::repro::run_one`, and prints one JSON line.

use std::process::{Command, Stdio};
use std::time::Instant;

use ntc::api::fnv64;
use ntc::artifact::json::{parse, JsonValue};
use ntc::repro::{registry, run_one, RunCtx, Scale};

use crate::trace;

/// Experiments whose span coverage counts toward `obs.span_coverage_min`:
/// those long enough (≥ 5 ms) for attribution to matter.
const COVERAGE_MIN_MS: f64 = 5.0;

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

/// Body of `--child-pass`: one cold pass, reported as one JSON line.
pub fn child_pass(seed: u64, traced: bool) -> String {
    if traced {
        ntc_obs::enable();
    }
    let t0 = Instant::now();
    let ctx = {
        let _span = ntc_obs::span("bench.core.ctx_build");
        RunCtx::builder().seed(seed).scale(Scale::Paper).build()
    };
    let ctx_build_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _span = ntc_obs::span("bench.ocean.fig8_rows");
        std::hint::black_box(ctx.figure8_rows());
    }
    let rows8_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _span = ntc_obs::span("bench.ocean.fig9_rows");
        std::hint::black_box(ctx.figure9_rows());
    }
    let rows9_s = t.elapsed().as_secs_f64();
    let mut exps = Vec::new();
    for e in registry() {
        let t = Instant::now();
        let artifact = run_one(e.as_ref(), &ctx);
        let secs = t.elapsed().as_secs_f64();
        let json = artifact.to_json();
        #[allow(clippy::cast_precision_loss)]
        exps.push(JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str(e.id().to_string())),
            ("s".into(), num(secs)),
            ("failures".into(), num(artifact.failures().len() as f64)),
            (
                "digest".into(),
                JsonValue::Str(format!("{:016x}", fnv64(json.as_bytes()))),
            ),
        ]));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut fields = vec![
        ("ctx_build_s".into(), num(ctx_build_s)),
        ("rows8_s".into(), num(rows8_s)),
        ("rows9_s".into(), num(rows9_s)),
        ("wall_s".into(), num(wall_s)),
        ("rss_mb".into(), num(crate::host::peak_rss_mb())),
        ("exps".into(), JsonValue::Arr(exps)),
    ];
    if traced {
        let spans = ntc_obs::take_spans();
        let selfs = trace::self_times(&spans);
        let coverage = selfs
            .iter()
            .filter(|s| s.name.starts_with("repro.") && s.dur_ns as f64 / 1e6 >= COVERAGE_MIN_MS)
            .map(|s| {
                JsonValue::Obj(vec![
                    ("span".into(), JsonValue::Str(s.name.clone())),
                    ("coverage".into(), num(s.coverage())),
                ])
            })
            .collect();
        let top = trace::top_self_ms(&selfs, 8)
            .into_iter()
            .map(|(name, ms)| JsonValue::Arr(vec![JsonValue::Str(name), num(ms)]))
            .collect();
        fields.push((
            "exec_self_ms".into(),
            num(trace::self_ms_with_prefix(&selfs, "exec.")),
        ));
        fields.push((
            "tilted_shard_ms".into(),
            num(trace::self_ms_with_prefix(&selfs, "mc.tilted.shard")),
        ));
        fields.push(("coverage".into(), JsonValue::Arr(coverage)));
        fields.push(("top_self_ms".into(), JsonValue::Arr(top)));
    }
    let mut out = String::new();
    JsonValue::Obj(fields).write_compact(&mut out);
    out
}

/// One pass as the parent reads it back.
#[derive(Debug, Clone)]
pub struct Pass {
    /// `RunCtx` build time, s.
    pub ctx_build_s: f64,
    /// Shared Figure 8 / Figure 9 row measurement, s.
    pub rows8_s: f64,
    /// See `rows8_s`.
    pub rows9_s: f64,
    /// Whole pass, from the context build to the last artifact, s.
    pub wall_s: f64,
    /// Peak RSS of the child, MB.
    pub rss_mb: f64,
    /// `(id, seconds, failed anchors, digest)` per experiment.
    pub exps: Vec<(String, f64, usize, String)>,
    /// The traced child's extra fields, as raw JSON.
    pub traced: Option<JsonValue>,
}

fn field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("pass output lacks `{key}`"))
}

/// Runs one pass in a child process.
pub fn spawn_pass(seed: u64, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child-pass",
        if traced { "traced" } else { "untraced" },
        "--seed",
    ])
    .arg(seed.to_string())
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    let out = cmd.output().map_err(|e| format!("spawning a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("pass printed nothing")?;
    let v = parse(line).map_err(|e| format!("pass output: {e}"))?;
    let exps = v
        .get("exps")
        .and_then(JsonValue::as_arr)
        .ok_or("pass output lacks `exps`")?
        .iter()
        .map(|e| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok((
                e.get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or("exp id")?
                    .to_string(),
                field(e, "s")?,
                field(e, "failures")? as usize,
                e.get("digest")
                    .and_then(JsonValue::as_str)
                    .ok_or("exp digest")?
                    .to_string(),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if exps.len() != ntc::repro::experiment_ids().len() {
        return Err(format!("pass reported {} experiments", exps.len()));
    }
    Ok(Pass {
        ctx_build_s: field(&v, "ctx_build_s")?,
        rows8_s: field(&v, "rows8_s")?,
        rows9_s: field(&v, "rows9_s")?,
        wall_s: field(&v, "wall_s")?,
        rss_mb: field(&v, "rss_mb")?,
        exps,
        traced: traced.then_some(v),
    })
}

/// Checks a pass: every artifact is free of anchor failures and
/// byte-identical to the reference pass of the same run. Returns the
/// number of failed artifacts.
pub fn failed_artifacts(pass: &Pass, reference: &Pass) -> usize {
    let expected = ntc::repro::experiment_ids();
    if pass.exps.len() != expected.len() {
        return expected.len();
    }
    pass.exps
        .iter()
        .zip(&reference.exps)
        .zip(&expected)
        .filter(
            |(((id, _, failures, digest), (_, _, _, ref_digest)), want)| {
                id != *want || *failures > 0 || digest != ref_digest
            },
        )
        .count()
}

/// The `RunCtx` seed a benchmark seed maps to.
pub fn ctx_seed(seed: u64) -> u64 {
    crate::stats::Rng::new(seed, 0x0072_6570_726f).next_u64()
}
