//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
/// `BENCHMARK.json` lists the same names in `end_to_end`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_input_byte", "B/B"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
/// `BENCHMARK.json` lists the same names in `per_layer`. A layer that a
/// workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_ms", "ms"),
    ("xml.parse_mb_s", "MB/s"),
    ("index.build_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.bytes_written", "B"),
    ("store.attach_ms", "ms"),
    ("store.peek_ms", "ms"),
    ("pattern.parse_ms", "ms"),
    ("score.model_ms", "ms"),
    ("score.corpus_stats_ms", "ms"),
    ("core.context.new_ms", "ms"),
    ("core.engine.eval_ms", "ms"),
    ("core.engine.server_ops", "count/op"),
    ("core.engine.partials_created", "count/op"),
    ("core.engine.pruned_frac", "ratio"),
    ("core.engine.pool_hit_rate", "ratio"),
    ("core.collection.eval_ms", "ms"),
    ("core.collection.shards_visited", "count/op"),
    ("core.collection.pruned_before_attach_frac", "ratio"),
    ("core.collection.attaches", "count/op"),
    ("core.collection.evictions", "count/op"),
    ("core.collection.useful_visit_frac", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.degraded", "count"),
    ("unattributed_ms", "ms"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.repeat_frac", "ratio"),
    ("loadgen.op_samples", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (each checked against its oracle).
    pub attempted: u64,
    /// Operations that failed: wrong answer, error, non-200 status,
    /// refusal, or a degraded or truncated answer.
    pub failed: u64,
    /// Run-level checks that failed (conservation laws, trace
    /// equivalence); any makes the run incorrect.
    pub broken: Vec<String>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Sample count behind `op_p50_ms` / `op_p90_ms`.
    pub op_samples: usize,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`, which must be one of the declared names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation, failed when `problem` is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(p);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Human-readable metric lines, then the one-line JSON result (the
    /// last line of standard output).
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for (name, unit) in list {
            out.push_str(&format!(
                "{workload:<12} {name:<42} {:>14.4} {unit}\n",
                self.get(name).unwrap_or(0.0)
            ));
        }
        out.push_str(&format!(
            "{workload:<12} {:<42} {:>14.4} ratio ({} of {} operations)\n",
            "fail_frac",
            self.fail_frac(),
            self.failed,
            self.attempted
        ));
        out.push_str(&format!(
            "{workload:<12} {:<42} {:>14} count (p90 rests on {} beyond it)\n",
            "op_samples",
            self.op_samples,
            crate::stats::samples_beyond(self.op_samples, 0.9)
        ));
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot hold, read 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_serve::Json;

    #[test]
    fn result_line_is_json_with_every_metric_of_the_mode() {
        let mut r = Report::default();
        r.set("setup_s", 0.8127);
        r.check(None);
        r.check(Some("wrong".into()));
        for trace in [false, true] {
            let text = r.render("library-warm", trace);
            let last = text.lines().last().unwrap();
            let v = Json::parse(last).unwrap();
            assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
            assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(2));
            assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                panic!("metrics object")
            };
            let list = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), list.len());
        }
        let v = Json::parse(r.render("x", false).lines().last().unwrap()).unwrap();
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(r.fail_frac(), 0.5);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(f64::NAN), "0");
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this program reports, with the same units.
    #[test]
    fn benchmark_manifest_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let v = Json::parse(&text).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = v.get(key) else {
                panic!("{key} array")
            };
            let named: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap(),
                        e.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(named, list.to_vec(), "{key}");
        }
    }
}
