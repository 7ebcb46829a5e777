//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A disabled [`Tracer`] only calls the closure, so the untraced runs that
//! produce the end-to-end metrics pay one branch per call.

use crate::host::peak_rss_mib;
use hyppi_netsim::json::{Json, Obj};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `name` is the layer call (`sim.run`), `tag` narrows it
/// (an NPB kernel name, or empty). `peak_rss_growth_mib` is how far the
/// process's peak RSS rose during the call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub peak_rss_growth_mib: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. Spans nest on the calling thread; the mutex only makes
/// the tracer shareable with `Sync` closures such as a sweep's pattern
/// generator, which the sweep runner calls on its own thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    recorded: Mutex<Recorded>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            recorded: Mutex::new(Recorded::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut rec = self.recorded.lock().expect("tracer mutex not poisoned");
            let idx = rec.spans.len();
            let parent = rec.open.last().copied();
            let start_ns = self.now_ns();
            rec.spans.push(Span {
                name,
                tag,
                start_ns,
                end_ns: start_ns,
                parent,
                peak_rss_growth_mib: 0.0,
            });
            rec.open.push(idx);
            idx
        };
        let peak_before = peak_rss_mib();
        let out = f();
        let end_ns = self.now_ns();
        let growth = peak_rss_mib() - peak_before;
        let mut rec = self.recorded.lock().expect("tracer mutex not poisoned");
        let span = &mut rec.spans[idx];
        span.end_ns = end_ns;
        span.peak_rss_growth_mib = growth;
        rec.open.pop();
        out
    }

    /// Total seconds of the spans called `name` (and tagged `tag`, if given).
    pub fn total_s(&self, name: &str, tag: Option<&str>) -> f64 {
        let rec = self.recorded.lock().expect("tracer mutex not poisoned");
        rec.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::secs)
            .sum()
    }

    /// Total peak-RSS growth, MiB, of the spans called `name`.
    pub fn total_rss_growth_mib(&self, name: &str) -> f64 {
        let rec = self.recorded.lock().expect("tracer mutex not poisoned");
        rec.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.peak_rss_growth_mib)
            .sum()
    }

    /// The recorded spans as a JSON array (`parent` is an index into it).
    pub fn to_json(&self) -> Json {
        let rec = self.recorded.lock().expect("tracer mutex not poisoned");
        Json::Arr(
            rec.spans
                .iter()
                .map(|s| {
                    Obj::new()
                        .field("name", s.name)
                        .field("tag", s.tag)
                        .field("start_ns", s.start_ns)
                        .field("end_ns", s.end_ns)
                        .field("parent", s.parent.map_or(Json::Null, Json::from))
                        .field("peak_rss_growth_mib", s.peak_rss_growth_mib)
                        .build()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let tr = Tracer::new(true);
        tr.span("outer", "", || {
            tr.span("inner", "a", || std::hint::black_box(1));
            tr.span("inner", "b", || std::hint::black_box(2));
        });
        let rec = tr.recorded.lock().unwrap();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.open.is_empty());
        drop(rec);
        assert!(tr.total_s("outer", None) >= tr.total_s("inner", Some("a")));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", "", || 7), 7);
        assert_eq!(tr.total_s("x", None), 0.0);
    }
}
