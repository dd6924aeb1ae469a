//! The metric catalog, the result line and the results file.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric. Everything else a run learns (provenance,
//! sample counts, failure messages, spans) goes to the results file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Tally;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A layer the workload does not
/// call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster-sim.run_s", "s"),
    ("cluster-sim.ns_per_task", "ns"),
    ("cluster-sim.delivery.events_coalesced", "count"),
    ("cluster-sim.delivery.delivery_batches", "count"),
    ("cluster-sim.delivery.heap_pushes_avoided", "count"),
    ("cluster-sim.delivery.batches_recycled", "count"),
    ("cluster-sim.delivery.windows", "count"),
    ("cluster-sim.makespan_s", "sim_s"),
    ("scenario.build_graph_s", "s"),
    ("scenario.trace_bytes", "bytes"),
    ("appfit-core.decisions", "count"),
    ("appfit-core.replicated_frac", "ratio"),
    ("appfit-core.fit_over_threshold", "ratio"),
    ("appfit-core.decide_ns", "ns"),
    ("scenario-serve.direct_ms", "ms"),
    ("scenario-serve.dispatch_ms", "ms"),
    ("scenario-serve.transport_ms", "ms"),
    ("scenario-serve.catalog.hits", "count"),
    ("scenario-serve.catalog.misses", "count"),
    ("scenario-serve.catalog.builds", "count"),
    ("scenario-serve.admission.rejected", "count"),
    ("scenario-serve.admission.shed", "count"),
    ("scenario-serve.journal_bytes", "bytes"),
    ("dataflow-rt.run_s", "s"),
    ("dataflow-rt.idle_frac", "ratio"),
    ("dataflow-rt.hung_runs", "count"),
    ("task-replication.hook_s", "s"),
    ("task-replication.overhead_s", "s"),
    ("task-replication.checkpoint_bytes", "bytes"),
    ("task-replication.compare_bytes", "bytes"),
    ("task-replication.replicas", "count"),
    ("task-replication.sdc_corrected", "count"),
    ("task-replication.due_recovered", "count"),
    ("task-replication.useful_replica_frac", "ratio"),
    ("workloads.build_s", "s"),
    ("workloads.verify_s", "s"),
    ("fault-inject.sdc", "count"),
    ("fault-inject.due", "count"),
    ("fault-inject.uncovered", "count"),
    ("runtime.appfit_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.tail_percentile", "%"),
    ("bench.tracing_overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Results {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra facts for the results file (sample counts, which tail
    /// percentile was used, …).
    pub notes: Vec<(String, Json)>,
}

impl Results {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a note for the results file.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// `correct`: no op failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The metrics object of the result line: every metric of
    /// `catalog`, in catalog order. End-to-end metrics must all have
    /// been measured; an unmeasured per-layer metric reads 0.
    pub fn metrics(&self, traced: bool) -> Json {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        Json::Obj(
            catalog
                .iter()
                .map(|&(name, unit)| {
                    let value = match self.values.get(name) {
                        Some(v) => *v,
                        None if traced => 0.0,
                        None => panic!("end-to-end metric {name} was not measured"),
                    };
                    (
                        name.to_string(),
                        Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The result line.
    pub fn line(&self, traced: bool) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", self.metrics(traced)),
        ])
        .render()
    }
}

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, printed with every digit.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // Non-finite values have no JSON form; the benchmark never
            // produces them for a metric, and notes print them as null.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<f64>> for Json {
    fn from(xs: Vec<f64>) -> Self {
        Json::Arr(xs.into_iter().map(Json::Num).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Failure;

    /// A minimal JSON reader, enough to check the result line's shape.
    fn parse(text: &str) -> Json {
        fn ws(s: &[u8], i: &mut usize) {
            while *i < s.len() && s[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(s: &[u8], i: &mut usize) -> Json {
            ws(s, i);
            let v = match s[*i] {
                b'{' | b'[' => {
                    let close = if s[*i] == b'{' { b'}' } else { b']' };
                    *i += 1;
                    let mut pairs = Vec::new();
                    ws(s, i);
                    while s[*i] != close {
                        let key = if close == b'}' {
                            let Json::Str(key) = value(s, i) else {
                                panic!("key")
                            };
                            assert_eq!(s[*i], b':');
                            *i += 1;
                            key
                        } else {
                            String::new()
                        };
                        pairs.push((key, value(s, i)));
                        if s[*i] == b',' {
                            *i += 1;
                        }
                        ws(s, i);
                    }
                    *i += 1;
                    if close == b'}' {
                        Json::Obj(pairs)
                    } else {
                        Json::Arr(pairs.into_iter().map(|(_, v)| v).collect())
                    }
                }
                b'"' => {
                    let start = *i + 1;
                    *i = start;
                    while s[*i] != b'"' {
                        *i += if s[*i] == b'\\' { 2 } else { 1 };
                    }
                    *i += 1;
                    Json::Str(String::from_utf8(s[start..*i - 1].to_vec()).unwrap())
                }
                b't' => {
                    *i += 4;
                    Json::Bool(true)
                }
                b'f' => {
                    *i += 5;
                    Json::Bool(false)
                }
                b'n' => {
                    *i += 4;
                    Json::Null
                }
                _ => {
                    let start = *i;
                    while *i < s.len() && b"-+.eE0123456789".contains(&s[*i]) {
                        *i += 1;
                    }
                    let text = std::str::from_utf8(&s[start..*i]).unwrap();
                    Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text}")))
                }
            };
            ws(s, i);
            v
        }
        let mut i = 0;
        let v = value(text.as_bytes(), &mut i);
        assert_eq!(i, text.len(), "trailing text");
        v
    }

    fn keys(v: &Json) -> Vec<String> {
        match v {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        match v {
            Json::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).unwrap().1,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn sample() -> Results {
        let mut r = Results::default();
        r.tally.ok();
        r.tally.ok();
        for (name, _) in END_TO_END {
            r.set(name, 1.2034);
        }
        r.set("cluster-sim.run_s", 0.5);
        r
    }

    #[test]
    fn untraced_line_has_exactly_the_end_to_end_metrics() {
        let line = sample().line(false);
        let v = parse(&line);
        assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), &Json::Bool(true));
        assert_eq!(field(&v, "attempted"), &Json::Num(2.0));
        assert_eq!(field(&v, "failed"), &Json::Num(0.0));
        let metrics = field(&v, "metrics");
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(keys(metrics), want);
        for (name, unit) in END_TO_END {
            let m = field(metrics, name);
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(field(m, "value"), &Json::Num(1.2034));
            assert_eq!(field(m, "unit"), &Json::Str(unit.to_string()));
        }
    }

    #[test]
    fn traced_line_has_every_per_layer_metric() {
        let v = parse(&sample().line(true));
        let metrics = field(&v, "metrics");
        let want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(keys(metrics), want);
        assert_eq!(
            field(field(metrics, "cluster-sim.run_s"), "value"),
            &Json::Num(0.5)
        );
        // A layer the workload did not call reads 0.
        assert_eq!(
            field(field(metrics, "dataflow-rt.run_s"), "value"),
            &Json::Num(0.0)
        );
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = sample();
        r.tally.fail(Failure::Shed, "deadline");
        let v = parse(&r.line(false));
        assert_eq!(field(&v, "correct"), &Json::Bool(false));
        assert_eq!(field(&v, "failed"), &Json::Num(1.0));
        assert!(
            !Results::default().correct(),
            "nothing attempted is not correct"
        );
    }

    #[test]
    fn metric_names_and_units_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_this_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = parse(&text);
        let listed = |key: &str| -> Vec<(String, String)> {
            match field(&v, key) {
                Json::Arr(items) => items
                    .iter()
                    .map(|m| match (field(m, "name"), field(m, "unit")) {
                        (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                        other => panic!("bad metric {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let Json::Arr(workloads) = field(&v, "workloads") else {
            panic!("workloads: not a list");
        };
        for w in workloads {
            match field(w, "name") {
                Json::Str(name) => assert!(crate::WORKLOADS.contains(&name.as_str()), "{name}"),
                other => panic!("bad workload {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_keep_every_digit_and_strings_escape() {
        assert_eq!(Json::from(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from("a\"b\n").render(), "\"a\\\"b\\n\"");
    }
}
