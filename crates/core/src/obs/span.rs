//! The one recording model: a statement (or background job) as a tree of
//! spans.
//!
//! A [`SpanRecorder`] collects *parent-linked* spans from every layer a
//! statement touches — the root frame, the five kernel stages as they
//! happen, one span per executed unit, XA prepare/commit branches, and
//! storage internals (lock waits, WAL flushes, MVCC snapshots, cursor opens)
//! reported through [`shard_storage::probe`]. The sealed [`TraceRecord`]
//! carries the kernel's verdicts on the statement and is what every surface
//! reads: `EXPLAIN ANALYZE` and `Session::last_trace()` (through the
//! [`StatementTrace`](super::trace::StatementTrace) view), the slow-query
//! log, `SHOW TRACE`, `/traces`, the stage histograms and incidents.
//!
//! Cost discipline: a recorder only exists for statements that record
//! (head-sampled 1-in-16 by default, or all of them under `SET trace = on`
//! or an armed slow-query threshold), so the mutex inside is uncontended and
//! off the common path entirely. Span ids are indexes into the recorder's
//! vector; parent links are ids, which makes the tree cheap to build and
//! serialize.

use super::trace::Stage;
use crate::merge::MergerKind;
use parking_lot::Mutex;
use shard_storage::probe::{self, Probe, ProbeGuard, SpanSink};
use std::sync::Arc;
use std::time::Instant;

/// One node of a trace tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id within the trace (also the index into [`TraceRecord::spans`]).
    pub id: u32,
    /// Parent span id; `None` marks the root.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Free-form context: datasource, table, branch name, phase, …
    pub detail: String,
    /// Start offset from the trace origin, µs.
    pub start_us: u64,
    pub elapsed_us: u64,
    /// Rows the spanned operation produced or affected (unit spans).
    pub rows: Option<u64>,
    /// Failure message when the spanned operation errored.
    pub error: Option<String>,
}

/// What the kernel decided about a data statement; rides on its record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdicts {
    /// Routing-intelligence verdict (index-route / aggregate-pushdown /
    /// colocated / scatter).
    pub route_strategy: Option<&'static str>,
    /// Storage scan path of the per-shard statements (`batch` = vectorized
    /// columnar, `row` = row-at-a-time), when the statement scans.
    pub scan_mode: Option<&'static str>,
    /// Online-resharding phase of a touched table, when one is mid-migration.
    pub reshard_state: Option<&'static str>,
    /// Merge strategy that combined the shard results.
    pub merger: Option<MergerKind>,
    /// Rows in the final (merged, decrypted) result, or rows affected.
    pub rows: u64,
}

/// A finished, immutable trace — what the collector ring stores and
/// `SHOW TRACE` / `/traces` serve.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    pub trace_id: u64,
    /// Where the trace was minted: `session`, `proxy:conn-N`,
    /// `reshard:<table>`, `failover:<group>`.
    pub origin: String,
    pub sql: String,
    pub total_us: u64,
    pub spans: Vec<Span>,
    /// The statement-level error, when the traced work failed.
    pub error: Option<String>,
    pub verdicts: Verdicts,
}

impl TraceRecord {
    /// First span with this name, if any (tests and incident queries).
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Time per kernel stage, indexed by [`Stage::index`]: the stage spans
    /// under the root, summed where the read-retry loop revisited a stage.
    /// Zero marks a stage that did not run (spans are clamped to ≥ 1µs).
    pub fn stage_us(&self) -> [u64; 5] {
        let mut sums = [0; 5];
        for s in self.spans.iter().filter(|s| s.parent == Some(ROOT)) {
            if let Some(stage) = Stage::ALL.iter().find(|st| st.as_str() == s.name) {
                sums[stage.index()] += s.elapsed_us;
            }
        }
        sums
    }

    /// The spans of the statement's executed units — of every attempt, when
    /// the read-retry loop ran it more than once.
    pub fn units(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.name == "unit")
    }

    /// Render the trace as an indented tree, one line per span.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "trace {} origin={} total={}us{}: {}",
            self.trace_id,
            self.origin,
            self.total_us,
            self.error.as_deref().map(|_| " ERROR").unwrap_or(""),
            self.sql
        )];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for s in &self.spans {
            match s.parent {
                Some(p) if (p as usize) < self.spans.len() => children[p as usize].push(s.id),
                _ => roots.push(s.id),
            }
        }
        fn walk(
            rec: &TraceRecord,
            children: &[Vec<u32>],
            id: u32,
            depth: usize,
            lines: &mut Vec<String>,
        ) {
            let s = &rec.spans[id as usize];
            let mut line = format!(
                "{}{} {}us [{}]",
                "  ".repeat(depth + 1),
                s.name,
                s.elapsed_us,
                s.detail
            );
            if let Some(rows) = s.rows {
                line.push_str(&format!(" rows={rows}"));
            }
            if let Some(e) = &s.error {
                line.push_str(&format!(" ERROR: {e}"));
            }
            lines.push(line);
            for &c in &children[id as usize] {
                walk(rec, children, c, depth + 1, lines);
            }
        }
        for r in roots {
            walk(self, &children, r, 0, &mut lines);
        }
        lines
    }

    /// Append this record as one JSON object (hand-rolled — the workspace
    /// deliberately has no JSON dependency).
    pub fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"trace_id\":{},\"origin\":\"{}\",\"sql\":\"{}\",\"total_us\":{},\"error\":",
            self.trace_id,
            json_escape(&self.origin),
            json_escape(&self.sql),
            self.total_us
        ));
        match &self.error {
            Some(e) => out.push_str(&format!("\"{}\"", json_escape(e))),
            None => out.push_str("null"),
        }
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_us\":{},\"elapsed_us\":{},\"rows\":{},\"error\":{}}}",
                s.id,
                s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
                json_escape(s.name),
                json_escape(&s.detail),
                s.start_us,
                s.elapsed_us,
                s.rows.map(|r| r.to_string()).unwrap_or_else(|| "null".into()),
                s.error
                    .as_deref()
                    .map(|e| format!("\"{}\"", json_escape(e)))
                    .unwrap_or_else(|| "null".into()),
            ));
        }
        out.push_str("]}");
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The root span of every trace: the first span its recorder opens.
pub(super) const ROOT: u32 = 0;

/// Live span collection for one recorded statement or background job.
/// Shared (`Arc`) with executor workers and installed into the storage
/// probe, so spans can arrive from any thread.
pub struct SpanRecorder {
    trace_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Hard cap on spans per trace. Long background jobs (a backfill streaming
/// thousands of batches) must not grow one record without bound; spans past
/// the cap are dropped and their ids are inert.
const MAX_SPANS: usize = 512;

impl SpanRecorder {
    /// A recorder whose clock starts at `epoch`, with the trace's root span
    /// open since then.
    /// [`TraceCollector::start`](super::collector::TraceCollector::start) is
    /// the one caller outside tests.
    pub(super) fn new(trace_id: u64, epoch: Instant, root: (&'static str, String)) -> Arc<Self> {
        let recorder = SpanRecorder {
            trace_id,
            epoch,
            spans: Mutex::new(Vec::with_capacity(12)),
        };
        recorder.push(None, root, 0, 0, None);
        Arc::new(recorder)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Add a span — still open if `elapsed_us` is 0 — and return its id.
    fn push(
        &self,
        parent: Option<u32>,
        (name, detail): (&'static str, String),
        start_us: u64,
        elapsed_us: u64,
        error: Option<String>,
    ) -> u32 {
        let mut spans = self.spans.lock();
        if spans.len() >= MAX_SPANS {
            return u32::MAX; // inert id: finish() on it is a no-op
        }
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            name,
            detail,
            start_us,
            elapsed_us,
            rows: None,
            error,
        });
        id
    }

    /// Open a span now; it stays live until [`finish`](Self::finish) closes
    /// it by id. Children recorded meanwhile parent to it.
    pub fn begin(&self, parent: u32, name: &'static str, detail: String) -> u32 {
        self.push(Some(parent), (name, detail), self.now_us(), 0, None)
    }

    /// Open a span that started at `start_us` (where the previous stage
    /// ended: one clock read serves both sides of a stage boundary).
    pub fn begin_from(&self, parent: u32, name: &'static str, start_us: u64) -> u32 {
        self.push(Some(parent), (name, String::new()), start_us, 0, None)
    }

    /// Close a span opened with [`begin`](Self::begin); returns the time it
    /// closed at. On a sealed recorder this is a no-op.
    pub fn finish(&self, id: u32, rows: Option<u64>, error: Option<String>) -> u64 {
        let now = self.now_us();
        if let Some(s) = self.spans.lock().get_mut(id as usize) {
            s.elapsed_us = now.saturating_sub(s.start_us).max(1);
            s.rows = rows;
            s.error = error;
        }
        now
    }

    /// Record the span from `since_us` to now in one step; returns now.
    pub fn lap(&self, parent: u32, name: &'static str, since_us: u64) -> u64 {
        let now = self.now_us();
        let elapsed_us = now.saturating_sub(since_us).max(1);
        self.push(
            Some(parent),
            (name, String::new()),
            since_us,
            elapsed_us,
            None,
        );
        now
    }

    /// Seal the recorder into an immutable record. Spans still open — the
    /// root, a streamed statement's merge stage, the units of an abandoned
    /// stream — close here; the root takes the statement's error.
    pub(super) fn seal(
        &self,
        origin: String,
        sql: String,
        error: Option<String>,
        verdicts: Verdicts,
    ) -> TraceRecord {
        let total_us = self.now_us().max(1);
        let mut spans = std::mem::take(&mut *self.spans.lock());
        for s in spans.iter_mut().filter(|s| s.elapsed_us == 0) {
            s.elapsed_us = total_us.saturating_sub(s.start_us).max(1);
        }
        if let Some(root) = spans.first_mut() {
            root.error = error.clone();
        }
        TraceRecord {
            trace_id: self.trace_id,
            origin,
            sql,
            total_us,
            spans,
            error,
            verdicts,
        }
    }
}

/// Storage internals report through the thread-local probe; their spans
/// land here, parented to whatever span the kernel installed the probe
/// under (a unit span, an XA branch span, …).
impl SpanSink for SpanRecorder {
    fn storage_span(
        &self,
        parent: u32,
        name: &'static str,
        detail: String,
        elapsed_us: u64,
        error: Option<String>,
    ) {
        let start_us = self.now_us().saturating_sub(elapsed_us);
        self.push(
            Some(parent),
            (name, detail),
            start_us,
            elapsed_us.max(1),
            error,
        );
    }
}

/// A recorder plus the span new work should hang under — what the session
/// threads down into the executor and the XA coordinator.
#[derive(Clone)]
pub struct SpanScope {
    pub recorder: Arc<SpanRecorder>,
    pub parent: u32,
    /// Head-sampled: storage internals report under the spans opened here.
    /// Statements recorded for another reason keep to kernel spans.
    pub probe: bool,
}

impl SpanScope {
    /// Open a child span. With [`probe`](Self::probe) set, storage internals
    /// on this thread report under it until the returned guard drops.
    pub fn enter(&self, name: &'static str, detail: String) -> (u32, Option<ProbeGuard>) {
        let id = self.recorder.begin(self.parent, name, detail);
        (id, self.probe.then(|| self.install_probe(id)))
    }

    /// Route this thread's storage spans under `span`.
    pub fn install_probe(&self, span: u32) -> ProbeGuard {
        probe::install(Probe::new(
            Arc::clone(&self.recorder) as Arc<dyn SpanSink>,
            span,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with its root open, and a way to seal it.
    fn recorder(trace_id: u64) -> (Arc<SpanRecorder>, u32) {
        let root = ("statement", String::new());
        (SpanRecorder::new(trace_id, Instant::now(), root), ROOT)
    }

    fn seal(rec: &SpanRecorder, sql: &str, error: Option<&str>) -> TraceRecord {
        let error = error.map(str::to_string);
        rec.seal("session".into(), sql.into(), error, Verdicts::default())
    }

    #[test]
    fn spans_nest_and_render_as_a_tree() {
        let (rec, root) = recorder(7);
        let exec = rec.begin(root, "execute", String::new());
        let unit = rec.begin(exec, "unit", "ds_0.t_0".into());
        rec.storage_span(unit, "lock_wait", "t_0 row 3".into(), 17, None);
        rec.finish(unit, Some(3), None);
        rec.finish(exec, None, None);
        let record = seal(&rec, "UPDATE t SET v = 1", None);
        assert_eq!(record.trace_id, 7);
        assert_eq!(record.spans.len(), 4);
        assert_eq!(record.span("lock_wait").unwrap().parent, Some(unit));
        assert!(record.span("lock_wait").unwrap().elapsed_us == 17);
        assert_eq!(
            record.units().map(|u| u.rows).collect::<Vec<_>>(),
            [Some(3)]
        );
        let lines = record.render();
        assert!(lines[0].contains("trace 7"));
        assert!(lines.iter().any(|l| l.contains("[ds_0.t_0] rows=3")));
        // lock_wait is nested three levels under the root line.
        let lock_line = lines.iter().find(|l| l.contains("lock_wait")).unwrap();
        assert!(lock_line.starts_with("        "), "{lock_line:?}");
    }

    #[test]
    fn stage_laps_share_their_boundaries_and_revisits_sum() {
        let (rec, root) = recorder(3);
        let parsed = rec.lap(root, "parse", 0);
        let routed = rec.lap(root, "route", parsed);
        rec.lap(root, "route", routed); // a retry revisits the stage
        let record = seal(&rec, "SELECT 1", None);
        let stages: Vec<_> = record.spans[1..]
            .iter()
            .map(|s| (s.name, s.start_us))
            .collect();
        assert_eq!(stages, [("parse", 0), ("route", parsed), ("route", routed)]);
        let us = record.stage_us();
        assert!(us[Stage::Parse.index()] >= 1);
        assert!(us[Stage::Route.index()] >= 2);
        assert_eq!(us[Stage::Merge.index()], 0);
    }

    #[test]
    fn errors_and_json_escaping_survive_serialization() {
        let (rec, root) = recorder(1);
        rec.storage_span(
            root,
            "xa_prepare",
            "ds_\"quoted\"".into(),
            5,
            Some("boom\nline2".into()),
        );
        let record = seal(&rec, "SELECT 1", Some("statement failed"));
        assert_eq!(record.spans[0].error.as_deref(), Some("statement failed"));
        let mut json = String::new();
        record.write_json(&mut json);
        assert!(json.contains("\"trace_id\":1"));
        assert!(json.contains("ds_\\\"quoted\\\""));
        assert!(json.contains("boom\\nline2"));
        assert!(json.contains("\"error\":\"statement failed\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn sealing_closes_open_spans_and_later_finishes_are_inert() {
        let (rec, root) = recorder(2);
        let unit = rec.begin(root, "unit", "ds_0.t_0".into());
        let record = seal(&rec, "SELECT 1", None);
        assert!(record.spans.iter().all(|s| s.elapsed_us >= 1));
        assert!(record.total_us >= 1);
        // An abandoned unit closing its span late changes nothing.
        rec.finish(unit, Some(9), None);
        assert_eq!(record.spans[unit as usize].rows, None);
    }
}
