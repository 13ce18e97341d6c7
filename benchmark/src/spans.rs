//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer; written out as a Chrome trace when a workload
//! ends. Tracing inside the program is a later change.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The repo module the time belongs to (`cli`, `tensor`, `nn`, …).
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub workload: String,
}

/// Collects the spans of one traced workload on one clock.
pub struct Recorder {
    origin: Instant,
    workload: String,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Recorder {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, layer: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, layer, now, now, parent)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (the probe's), already shifted
    /// onto this recorder's clock.
    pub fn add(
        &mut self,
        name: &str,
        layer: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: self.workload.clone(),
        });
        self.spans.len() - 1
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children may overlap each other (their
/// union is subtracted once) and may stick out of the parent (only the
/// part inside counts); grandchildren are their own parent's business.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer.clone()).or_insert(0) += t;
    }
    out
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// one complete (`"ph":"X"`) event per span, one thread lane per layer.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let mut lanes: Vec<&str> = Vec::new();
    let mut events = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let lane = match lanes.iter().position(|l| *l == s.layer) {
            Some(i) => i,
            None => {
                lanes.push(&s.layer);
                lanes.len() - 1
            }
        };
        let parent = match s.parent {
            Some(p) => Value::U64(p as u64),
            None => Value::Null,
        };
        events.push(Value::Object(vec![
            ("name".into(), Value::Str(s.name.clone())),
            ("cat".into(), Value::Str(s.layer.clone())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
            (
                "dur".into(),
                Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
            ),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(lane as u64)),
            (
                "args".into(),
                Value::Object(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("parent".into(), parent),
                    ("workload".into(), Value::Str(s.workload.clone())),
                ]),
            ),
        ]));
    }
    for (i, lane) in lanes.iter().enumerate() {
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(i as u64)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str((*lane).to_string()))]),
            ),
        ]));
    }
    Value::Object(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: format!("{layer}:{start}"),
            layer: layer.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            workload: "w".into(),
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_own_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("cli", 10, 60, Some(0)),
            span("tensor", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),
            span("d", 80, 90, Some(0)),
        ];
        // union of children: [10,70] + [80,90] = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn a_child_sticking_out_counts_only_inside_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("a", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn layer_self_times_never_exceed_the_root() {
        let spans = vec![
            span("benchmark", 0, 1000, None),
            span("cli", 0, 400, Some(0)),
            span("probe", 400, 1000, Some(0)),
            span("nn", 450, 600, Some(2)),
            span("nn", 600, 700, Some(2)),
            span("data", 700, 900, Some(2)),
        ];
        let per_layer = layer_self_times(&spans);
        assert_eq!(per_layer["nn"], 250);
        assert_eq!(per_layer["probe"], 150);
        assert_eq!(per_layer["benchmark"], 0);
        assert_eq!(per_layer.values().sum::<u64>(), 1000);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![span("root", 0, 2000, None), span("cli", 500, 1500, Some(0))];
        let doc = chrome_trace(&spans);
        let events = doc.get("traceEvents").as_array().unwrap();
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1].get("ts").as_f64(), Some(0.5));
        assert_eq!(complete[1].get("dur").as_f64(), Some(1.0));
        assert_eq!(complete[1].get("args").get("parent").as_u64(), Some(0));
    }
}
