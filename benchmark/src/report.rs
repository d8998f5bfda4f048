//! The metric schema and the report every run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single definition of each
//! metric's name, unit and direction; `BENCHMARK.json` lists the same
//! names (a test keeps the two in step). A run with tracing off reports
//! every end-to-end metric, a traced run every per-layer metric, each
//! workload filling in the ones its layers touch and 0 for a layer it
//! bypasses.

use opass_json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's schema entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; what "a plan" and "throughput" mean per
/// workload is stated in `DESIGN.md`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("ok_frac", "ratio", Higher),
    m("plan_p50_ms", "ms", Lower),
    m("plan_mean_ms", "ms", Lower),
    m("throughput_per_s", "1/s", Higher),
    m("local_frac", "ratio", Higher),
];

/// Per-layer metrics, measured in a separate traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // The self-time table: sums to traced.wall_ms.
    m("self.core_ms", "ms", Lower),
    m("self.simio_ms", "ms", Lower),
    m("self.trace_ms", "ms", Lower),
    m("self.replay_ms", "ms", Lower),
    m("self.serve_ms", "ms", Lower),
    m("self.loadgen_ms", "ms", Lower),
    m("self.other_ms", "ms", Lower),
    m("traced.wall_ms", "ms", Lower),
    m("tracing.overhead_frac", "ratio", Lower),
    // trace: the text parser.
    m("trace.parse_ms", "ms", Lower),
    m("trace.parse_mib_per_s", "MiB/s", Higher),
    // replay: serve::replay batching, sessions and churn.
    m("replay.ms", "ms", Lower),
    m("replay.batches", "count", Lower),
    m("replay.migrations", "count", Lower),
    // core: OpassPlanner::plan.
    m("core.plan_single_ms", "ms", Lower),
    m("core.plan_multi_ms", "ms", Lower),
    m("core.plan_dynamic_ms", "ms", Lower),
    m("core.matched_frac", "ratio", Higher),
    m("core.filled_files", "count", Lower),
    // simio: runtime::execute over the simulator.
    m("simio.execute_ms", "ms", Lower),
    m("simio.reads", "count", Lower),
    m("simio.recompute_passes", "count", Lower),
    m("simio.flows_rerated", "count", Lower),
    m("simio.eta_stale_ratio", "ratio", Lower),
    m("simio.makespan_s", "s", Lower),
    // serve: the wire codec, the reactor and the world.
    m("serve.encode_us", "us", Lower),
    m("serve.decode_us", "us", Lower),
    m("serve.server_p50_us", "us", Lower),
    m("serve.server_p99_us", "us", Lower),
    m("serve.cache_hit_ratio", "ratio", Higher),
    m("serve.forwarded", "count", Lower),
    m("serve.coalesced", "count", Higher),
    m("serve.shed", "count", Lower),
    m("serve.repaired", "count", Higher),
    m("serve.cold_plans", "count", Lower),
    m("serve.repair_us_p50", "us", Lower),
    m("serve.cold_plan_us_p50", "us", Lower),
    m("serve.world_invalidate_us", "us", Lower),
    m("serve.write_p50_ms", "ms", Lower),
    m("serve.write_p99_ms", "ms", Lower),
    // loadgen: the benchmark's own generator.
    m("loadgen.lag_p99_ms", "ms", Lower),
    m("loadgen.sent", "count", Higher),
    m("loadgen.completed", "count", Higher),
];

/// Looks a metric up by name in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: jobs, passes or requests, plus output checks.
    pub attempted: u64,
    /// Failed operations: errors, refusals, timeouts and wrong outputs.
    pub failed: u64,
    /// Human-readable description of each failure (first few kept).
    pub failures: Vec<String>,
    values: Vec<(&'static str, f64)>,
    /// Extra facts for the detail line: host, sizes, sample counts.
    pub detail: Vec<(String, Json)>,
}

/// Failures kept verbatim in a report; the rest are only counted.
const KEPT_FAILURES: usize = 16;

impl Report {
    /// Sets a metric; the name must be in the schema.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name — a typo in the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the schema");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A set metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one checked operation, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Adds a fact to the detail line.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// The contract line: `correct`, `attempted`, `failed` and the
    /// metrics of `schema`, each with its unit. A metric the workload
    /// did not set is reported as 0 (the layer was bypassed).
    pub fn contract_line(&self, schema: &[MetricDef]) -> String {
        let metrics = schema.iter().map(|d| {
            let value = self.get(d.name).unwrap_or(0.0);
            (
                d.name.to_string(),
                Json::object([
                    ("value".to_string(), Json::from(value)),
                    ("unit".to_string(), Json::from(d.unit)),
                ]),
            )
        });
        Json::object([
            ("correct".to_string(), Json::from(self.failed == 0)),
            ("attempted".to_string(), Json::from(self.attempted.max(1))),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::object(metrics)),
        ])
        .to_compact()
    }

    /// One line per metric of `schema`: name, value, unit, direction.
    pub fn table(&self, schema: &[MetricDef]) -> String {
        schema
            .iter()
            .map(|d| {
                format!(
                    "  {:<26} {:>16.6} {:<6} ({} is better)\n",
                    d.name,
                    self.get(d.name).unwrap_or(0.0),
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "duplicate metric {}",
                d.name
            );
        }
        assert!(def("setup_s").is_some_and(|d| d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn the_schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, schema) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), schema.len(), "{key}: metric count");
            for (entry, d) in listed.iter().zip(schema) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn the_contract_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.check(true, String::new);
        r.check(false, || "wrong plan".to_string());
        for schema in [END_TO_END, PER_LAYER] {
            let line = r.contract_line(schema);
            let json = Json::parse(&line).expect("the contract line is JSON");
            let keys: Vec<&str> = json
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
            assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(2));
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
            let metrics = json
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), schema.len());
            for ((name, value), d) in metrics.iter().zip(schema) {
                assert_eq!(name, d.name);
                assert_eq!(value.get("unit").and_then(Json::as_str), Some(d.unit));
                assert!(value.get("value").and_then(Json::as_f64).is_some());
            }
        }
        assert_eq!(r.failures, ["wrong plan"]);
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metrics_are_rejected() {
        Report::default().set("no_such_metric", 1.0);
    }
}
