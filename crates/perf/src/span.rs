//! Harness-side spans: one per call into a layer's public function, kept in
//! memory during the traced round and written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op (or replayed statement) this span belongs to.
    pub trace_id: u32,
    /// 1-based position in the store.
    pub span_id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanStore {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanStore {
    pub fn with_capacity(spans: usize) -> Self {
        SpanStore {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; returns its id for [`SpanStore::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, trace_id: u32, parent: u32, name: &'static str) -> u32 {
        let span_id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        span_id
    }

    /// End span `id` now; returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Time one call as a span.
    pub fn timed<R>(
        &mut self,
        trace_id: u32,
        parent: u32,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(trace_id, parent, name);
        let out = call();
        (out, self.close(id))
    }

    /// Record a span whose start and end were already taken; returns its
    /// duration.
    pub fn record(
        &mut self,
        trace_id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span_id = self.spans.len() as u32 + 1;
        let start_ns = (start - self.epoch).as_nanos() as u64;
        let end_ns = (end - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        end_ns - start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of the traces `keep` accepts, as a JSON array with each
    /// span's self time.
    pub fn to_json(&self, keep: impl Fn(u32) -> bool) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[");
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            if !keep(s.trace_id) {
                continue;
            }
            out.push_str(if out.len() == 1 { "\n" } else { ",\n" });
            write!(
                out,
                "{{\"trace_id\": {}, \"span_id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.trace_id, s.span_id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
            )
            .expect("write to String");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children clipped to the parent, overlapping
/// children counted once). Children follow their parents in `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
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
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace_id: 0,
            span_id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part_only() {
        let spans = vec![
            span(1, NO_PARENT, 100, 200), // root
            span(2, 1, 110, 130),         // child
            span(3, 1, 120, 150),         // overlaps child 2: union is 110..150
            span(4, 1, 190, 260),         // sticks out: clipped to 190..200
            span(5, 2, 112, 118),         // grandchild counts against 2, not 1
            span(6, NO_PARENT, 300, 300), // empty root
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 70, 6, 0]);
    }

    #[test]
    fn store_links_and_serialises() {
        let mut store = SpanStore::with_capacity(4);
        let root = store.open(7, NO_PARENT, "op");
        let ((), inner) = store.timed(7, root, "point_select", || ());
        let outer = store.close(root);
        assert!(outer >= inner);
        let other = store.open(9, NO_PARENT, "op");
        store.close(other);
        assert_eq!(store.spans()[1].parent, root);
        let one = store.to_json(|t| t == 7);
        assert!(one.contains("\"trace_id\": 7") && !one.contains("\"trace_id\": 9"));
        assert_eq!(store.to_json(|_| true).matches("span_id").count(), 3);
    }
}
