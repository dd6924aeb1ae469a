//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public API, made from the
//! benchmark's own code: its name, start, end, the span that caused it
//! and the op it belongs to. Spans are kept in memory and written to the
//! results file when the benchmark exits. A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::Json;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer's list.
    pub id: usize,
    /// The layer call, e.g. `scenario::run_on`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (`None` when disabled) to parent its own child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            let id = spans.len();
            let start = self.now();
            spans.push(Span {
                id,
                name,
                start,
                end: start,
                parent,
                op,
            });
            id
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span list lock poisoned")[id].end = end;
        out
    }

    /// Records an already-timed child span (used for work timed inside
    /// another process, such as a runtime worker's kernel runs).
    pub fn record(&self, name: &'static str, parent: Option<usize>, op: u64, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            op,
        });
    }

    /// Nanoseconds since the tracer's origin (for [`Tracer::record`]).
    pub fn clock(&self) -> u64 {
        self.now()
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock poisoned")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, total and self nanoseconds.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// The spans and their per-name summary as JSON.
pub fn to_json(spans: &[Span]) -> Json {
    let summary = summary(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name.to_string(),
                Json::obj([
                    ("count", Json::from(count)),
                    ("total_s", Json::from(total as f64 * 1e-9)),
                    ("self_s", Json::from(own as f64 * 1e-9)),
                ]),
            )
        })
        .collect();
    let list = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("id", Json::from(s.id as u64)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start)),
                ("end_ns", Json::from(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("op", Json::from(s.op)),
            ])
        })
        .collect();
    Json::obj([("summary", Json::Obj(summary)), ("spans", Json::Arr(list))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "x",
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 0, 100, None),
            // Two overlapping children cover 10..40 once (30 ns)…
            span(1, 10, 30, Some(0)),
            span(2, 20, 40, Some(0)),
            // …a disjoint one adds 50..60 …
            span(3, 50, 60, Some(0)),
            // …and a grandchild is charged to its own parent only.
            span(4, 52, 58, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 4, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, 10, 20, None), span(1, 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, 0, |id| id), None);
        assert!(off.into_spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", None, 7, |outer| {
            on.span("inner", outer, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let sum = summary(&spans);
        assert_eq!(sum["outer"].0, 1);
        assert!(
            sum["outer"].2 < sum["outer"].1,
            "outer self time excludes inner"
        );
    }
}
