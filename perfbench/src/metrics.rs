//! The metric vocabulary, and the result line every run ends with.
//!
//! These tables are the single source for names and units; a unit test
//! holds them equal to `BENCHMARK.json`.

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stats.lane_samples_per_s", "1/s"),
    ("stats.exec_self_ms", "ms"),
    ("stats.tilted_shard_ms", "ms"),
    ("sim.mask_ns", "ns"),
    ("sim.mask_block_ns", "ns"),
    ("sim.profile_ms", "ms"),
    ("sram.p_bit_ns", "ns"),
    ("sram.diemap_ms", "ms"),
    ("memcalc.cache_hit_rate", "ratio"),
    ("memcalc.cache_lookups", "count"),
    ("memcalc.energy_ns", "ns"),
    ("ocean.fig8_rows_s", "s"),
    ("ocean.fig9_rows_s", "s"),
    ("ecc.secded_decode_ns", "ns"),
    ("core.fig1_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig4_s", "s"),
    ("core.fig5_s", "s"),
    ("core.fig6_s", "s"),
    ("core.fig7_s", "s"),
    ("core.fig8_s", "s"),
    ("core.fig9_s", "s"),
    ("core.fig10_s", "s"),
    ("core.table1_s", "s"),
    ("core.table2_s", "s"),
    ("core.headline_s", "s"),
    ("core.profile_s", "s"),
    ("core.ablation_interleave_s", "s"),
    ("core.ablation_phases_s", "s"),
    ("core.ablation_correlation_s", "s"),
    ("core.ablation_guardband_s", "s"),
    ("core.ablation_banking_s", "s"),
    ("core.ablation_detection_s", "s"),
    ("core.ablation_buffer_code_s", "s"),
    ("core.ablation_tail_mc_s", "s"),
    ("core.ablation_optimize_s", "s"),
    ("core.ctx_build_s", "s"),
    ("core.json_parse_mb_per_s", "MB/s"),
    ("core.json_encode_mb_per_s", "MB/s"),
    ("core.query_decode_ns", "ns"),
    ("core.optimize_ms", "ms"),
    ("core.optimize_evals", "count"),
    ("core.store_publish_ms", "ms"),
    ("core.store_read_ms", "ms"),
    ("serve.query_eval_us", "us"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.server_latency_ms", "ms"),
    ("serve.accept_gap_ms", "ms"),
    ("serve.predicted_capacity_rps", "1/s"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.store_hit_rate", "ratio"),
    ("serve.compute_requests", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_coverage_min", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
];

/// Metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records (or replaces) a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object for `table`, in table order. Every metric of
    /// the table must have been measured, as a finite number.
    pub fn render(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut items = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            if !(valid_name(name) && valid_unit(unit)) {
                return Err(format!(
                    "metric `{name}` or its unit `{unit}` breaks the charset"
                ));
            }
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is {v}"));
            }
            items.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", items.join(", ")))
    }
}

/// The result line: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

/// Whether a metric name fits the charset `BENCHMARK.json` names use.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Whether a unit fits the charset `BENCHMARK.json` units use.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc::artifact::json::{parse, JsonValue};

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for bad in ["", ".lead", "space here", "x/y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be refused");
        }
        assert!(!valid_unit("req per s") && !valid_unit(""));
    }

    #[test]
    fn every_registry_experiment_has_a_core_metric() {
        for id in ntc::repro::experiment_ids() {
            let name = format!("core.{id}_s");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn render_refuses_missing_and_non_finite_values() {
        let table = &[("a", "s"), ("b", "ms")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.render(table).is_err());
        m.set("b", f64::NAN);
        assert!(m.render(table).is_err());
        m.set("b", 0.25);
        let line = result_line(3, 0, &m.render(table).unwrap());
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("metrics")
                .and_then(|x| x.get("b"))
                .and_then(|x| x.get("unit")),
            Some(&JsonValue::Str("ms".into()))
        );
    }
}
