//! Spans recorded from the runner's own code around each call into a layer.
//!
//! Kept in memory and written to `benchmark/out/trace.json` when the run
//! ends. A span's self time is its duration minus the part its children
//! cover ([`Trace::self_ns`]).

use std::time::Instant;

use damq_bench::json::Json;

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Index of the unit of the workload the span belongs to.
    pub unit: u32,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit as u32;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.open_at(name, self.now_ns())
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn close(&mut self, id: u32) -> u64 {
        self.close_at(id, self.now_ns())
    }

    /// [`open`](Trace::open) for a span that started at `start_ns` on this
    /// trace's clock (it was measured on another thread).
    pub fn open_at(&mut self, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(ROOT),
            unit: self.unit,
        });
        self.open.push(id);
        id
    }

    /// [`close`](Trace::close) for a span that ended at `end_ns`.
    pub fn close_at(&mut self, id: u32, end_ns: u64) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a span measured elsewhere (a sweep worker thread, or a step
    /// timed inline) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(ROOT),
            unit: self.unit,
        });
    }

    /// Duration of span `id` minus the time its direct children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            (
                "columns",
                Json::Arr(
                    ["id", "name", "start_ns", "end_ns", "parent", "unit"]
                        .map(Json::from)
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::Arr(vec![
                                Json::from(id),
                                Json::from(s.name),
                                Json::from(s.start_ns),
                                Json::from(s.end_ns),
                                if s.parent == ROOT {
                                    Json::Null
                                } else {
                                    Json::from(u64::from(s.parent))
                                },
                                Json::from(u64::from(s.unit)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new();
        let outer = t.open_at("outer", 0);
        t.record("child", 10, 40);
        t.record("child", 50, 60);
        assert_eq!(t.close_at(outer, 100), 100);
        assert_eq!(t.self_ns(outer), 60);
        assert_eq!(t.total_ns("child"), 40);
        assert_eq!(t.spans[1].parent, outer);
        assert_eq!(t.spans[outer as usize].parent, ROOT);
    }
}
