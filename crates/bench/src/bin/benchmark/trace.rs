//! In-memory spans recorded *around* the benchmark's own calls into each
//! layer — nothing outside this directory is instrumented. Spans live in
//! a vector until the run ends and are then written out as JSON; a
//! layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Work counts snapshotted at the same boundary as the times.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle to a span that has been opened and not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Start the next operation: spans opened from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span under whichever span is currently open.
    pub fn open(&mut self, name: &str) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            op: self.op,
            start_us: 0.0,
            end_us: 0.0,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        // Taken last so the span does not time its own bookkeeping.
        let now = self.now_us();
        self.spans[idx].start_us = now;
        Open(idx)
    }

    /// Close a span; returns its duration in microseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        self.close_with(open, Vec::new())
    }

    /// Close a span, attaching the work counts measured across it.
    pub fn close_with(&mut self, open: Open, counts: Vec<(&'static str, u64)>) -> f64 {
        let now = self.now_us();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0];
        span.end_us = now;
        span.counts = counts;
        span.duration_us()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the time its direct children
    /// cover (children of one span never overlap — one thread, one stack).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_us();
            }
        }
        own
    }

    /// Of the time spent inside spans called `name`, the share (0..1)
    /// their child spans account for.
    pub fn child_coverage(&self, name: &str) -> f64 {
        let (mut total, mut own) = (0.0, 0.0);
        for (span, own_us) in self.spans.iter().zip(self.self_times_us()) {
            if span.name == name {
                total += span.duration_us();
                own += own_us;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            (total - own) / total
        }
    }

    /// Per span name: for each operation, the summed duration (µs) of
    /// the spans so named — several SQL statements may share one name.
    pub fn durations_per_op(&self) -> BTreeMap<String, Vec<f64>> {
        let mut sums: BTreeMap<(&str, u64), f64> = BTreeMap::new();
        for span in &self.spans {
            *sums.entry((&span.name, span.op)).or_default() += span.duration_us();
        }
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), sum) in sums {
            by_name.entry(name.to_string()).or_default().push(sum);
        }
        by_name
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_times_us();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (span, own))| {
                    let mut o = Json::obj();
                    o.push("id", Json::Num(id as f64))
                        .push("name", Json::Str(span.name.clone()))
                        .push(
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        )
                        .push("op", Json::Num(span.op as f64))
                        .push("start_us", Json::Num(span.start_us))
                        .push("end_us", Json::Num(span.end_us))
                        .push("self_us", Json::Num(own));
                    if !span.counts.is_empty() {
                        let mut counts = Json::obj();
                        for (name, n) in &span.counts {
                            counts.push(name, Json::Num(*n as f64));
                        }
                        o.push("counts", counts);
                    }
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::default();
        rec.next_op();
        let root = rec.open("root");
        let a = rec.open("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(a);
        let b = rec.open("child");
        rec.close_with(b, vec![("rows", 3)]);
        let total = rec.close(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1));
        let own = rec.self_times_us();
        let children: f64 = spans[1].duration_us() + spans[2].duration_us();
        assert!((own[0] - (total - children)).abs() < 1e-6);
        assert!(own[1] >= 2000.0);
        assert!((rec.child_coverage("root") - children / total).abs() < 1e-9);
        assert_eq!(rec.child_coverage("child"), 0.0);
        assert_eq!(rec.child_coverage("absent"), 0.0);

        let json = rec.to_json();
        assert_eq!(json.items().len(), 3);
        assert_eq!(
            json.items()[2]
                .get("counts")
                .unwrap()
                .get("rows")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }
}
