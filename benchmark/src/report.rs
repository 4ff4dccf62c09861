//! Metric names, the one-line result every workload prints, and the run
//! record `benchmark run` writes and `benchmark compare` reads.

use std::collections::BTreeMap;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::stats::closure;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
///
/// An *item* is the unit of work of the workload: a scored pair for the
/// attack workloads, a training sample for `train`, a request for the
/// serve workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median over several set-ups in one run: layout generation, split,
    // training, and server bind for the serve workloads.
    ("setup_s", "s"),
    // Peak of the bytes the workload's own process held allocated.
    ("peak_heap_mib", "MiB"),
    // Median wall time of one timed operation divided by its items.
    ("ns_per_item", "ns"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. Every
/// workload prints all of them; a layer the workload does not exercise
/// reads 0. The `*.ns_per_item` entries not under `server.` add up, with
/// `unattributed.ns_per_item`, to the traced run's `ns_per_item`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // VmHWM of the workload's own process.
    ("peak_rss_mib", "MiB"),
    ("layout.generate_s", "s"),
    ("layout.split_s", "s"),
    ("samples.extract_s", "s"),
    ("samples.count", "count"),
    ("binned.fit_s", "s"),
    ("compiled.compile_s", "s"),
    ("compiled.nodes", "count"),
    ("neighborhood.ns_per_item", "ns"),
    ("legality.ns_per_item", "ns"),
    ("features.ns_per_item", "ns"),
    ("compiled.ns_per_item", "ns"),
    ("attack.topk_ns_per_item", "ns"),
    ("samples.ns_per_item", "ns"),
    ("binned.ns_per_item", "ns"),
    ("protocol.ns_per_item", "ns"),
    ("server.ns_per_item", "ns"),
    ("server.wait_ns_per_item", "ns"),
    ("unattributed.ns_per_item", "ns"),
    ("unattributed.share", "ratio"),
    ("neighborhood.pairs_enumerated", "count"),
    ("legality.legal_ratio", "ratio"),
    ("attack.pairs_scored", "count"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.io_errors", "count"),
    ("server.shed", "count"),
    ("server.timeouts", "count"),
    ("server.batch_fill", "rows/call"),
    ("server.p99_us", "us"),
    ("serve.p50_us.4k", "us"),
    ("serve.p99_us.4k", "us"),
    ("serve.p50_us.8k", "us"),
    ("serve.p99_us.8k", "us"),
    ("serve.p50_us.12k", "us"),
    ("serve.p99_us.12k", "us"),
    ("serve.slo_rps", "1/s"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: attack passes, training reps, serve requests.
    pub attempted: u64,
    /// Failed operations plus failed correctness checks.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets metric `name`. JSON has no NaN or infinity, so a non-finite
    /// value is recorded as 0 and fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.check(value.is_finite(), || format!("{name} measured {value}"));
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Sets the share of the traced end-to-end time `e2e` that the layer
    /// times `parts` leave unexplained.
    pub fn set_unattributed(&mut self, e2e: f64, parts: &[f64]) {
        let (rest, share) = closure(e2e, parts);
        self.set("unattributed.ns_per_item", rest);
        self.set("unattributed.share", share);
    }

    /// Counts a correctness check: a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("[benchmark] CHECK FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed, reporting
    /// a failure on stderr.
    pub fn tally(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("[benchmark] CHECK FAILED: {failed} of {attempted} {what}");
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (untraced) or per-layer metrics (traced), in
    /// list order. A per-layer metric the workload did not set reads 0.
    ///
    /// # Panics
    ///
    /// Panics if the workload set a metric that is in neither list, or
    /// left an end-to-end metric unset: both are bugs in this program.
    pub fn result(&self, traced: bool) -> Value {
        for name in self.metrics.keys() {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
                "unknown metric {name}"
            );
        }
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let entry = map(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.to_owned())),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        map(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted.into())),
            ("failed", Value::Int(self.failed.into())),
            ("metrics", Value::Map(metrics)),
        ])
    }
}

/// A JSON document as a `serde::Value` tree, for shapes with run-time
/// keys (metric maps) that the derive macros cannot describe.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for malformed text.
    pub fn parse(text: &str) -> Result<Value, String> {
        serde_json::from_str::<Json>(text)
            .map(|j| j.0)
            .map_err(|e| e.to_string())
    }

    /// Compact JSON text of `value`.
    pub fn compact(value: &Value) -> String {
        serde_json::to_string(&Json(value.clone())).expect("values serialize")
    }

    /// Indented JSON text of `value`.
    pub fn pretty(value: &Value) -> String {
        serde_json::to_string_pretty(&Json(value.clone())).expect("values serialize")
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Field `key` of a JSON object.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// A JSON string.
pub fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The host a record was measured on.
pub fn host(commit: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    map(vec![
        ("nproc", Value::Int(nproc as i128)),
        ("cpu", Value::Str(cpu)),
        ("commit", Value::Str(commit.to_owned())),
    ])
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            get(&spec, key)
                .and_then(Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| text(get(m, f).expect("field")).expect("string").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 1.5);
        o.set("peak_heap_mib", 20.25);
        o.set("ns_per_item", 104.0);
        o.set("compiled.nodes", 250.0);
        let line = Json::compact(&o.result(false));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"},"peak_heap_mib":{"value":20.25,"unit":"MiB"},"ns_per_item":{"value":104.0,"unit":"ns"}}}"#
        );
        let traced = o.result(true);
        let metrics = get(&traced, "metrics")
            .and_then(Value::as_map)
            .expect("map");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let nodes = get(get(&traced, "metrics").expect("m"), "compiled.nodes").expect("n");
        assert_eq!(num(get(nodes, "value").expect("v")), Some(250.0));
        o.check(false, || "forced".into());
        assert!(!o.correct());
    }
}
