//! Streaming execution path: per-unit bounded row channels instead of fully
//! materialized per-shard `ResultSet`s.
//!
//! Each memory-strictly execution unit gets one pool job that opens a
//! storage [`QueryCursor`] and pushes rows into a bounded channel. The
//! channel bound is the backpressure: a merger that consumes slowly (or a
//! LIMIT window that stops consuming at all) blocks the producer instead of
//! letting shard results pile up in middleware memory. Dropping the receiver
//! turns the producer's next send into an error, which — together with the
//! shared [`CancelToken`] — stops in-flight shard scans early. The same
//! token cancels sibling units when any unit errors.
//!
//! Deadlock note: producers block on full channels while holding a worker
//! thread, so admission is capped at half the worker pool
//! ([`ExecutorEngine::can_stream`]); past that, queued producers whose
//! headers the consumer is waiting for could be starved by blocked ones.

use crate::datasource::{Connection, DataSource};
use crate::error::{KernelError, Result};
use crate::executor::{
    unit_label, ConnectionMode, ExecutionInput, ExecutionReport, ExecutorEngine, WorkerPool,
};
use crate::obs::{Counter, SpanScope};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use shard_sql::ast::SelectStatement;
use shard_sql::{Statement, Value};
use shard_storage::{QueryCursor, TxnId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rows buffered per shard channel before the producer blocks. Small enough
/// to bound middleware memory per unit, large enough to ride out merge
/// scheduling jitter.
pub const STREAM_CHANNEL_CAPACITY: usize = 64;

/// Rows a producer sends one-per-message before switching to batches. The
/// single-row prefix keeps LIMIT-window pulls tight (a `LIMIT o, n` query
/// stops each shard after ~o + n pulls, not a full batch); past it, the
/// query is a drain and batching amortizes the per-message channel cost.
const SINGLE_ROW_PREFIX: usize = 64;

/// Batch size once a producer is past the single-row prefix.
const ROW_BATCH: usize = 32;

/// Shared cancellation flag: set once, observed by every execution unit of
/// one query (early LIMIT termination, sibling-abort on error).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

enum RowMsg {
    /// Header handshake: sent exactly once before any row.
    Columns(Vec<String>),
    Row(Vec<Value>),
    /// Amortized delivery once a stream is past [`SINGLE_ROW_PREFIX`].
    Batch(Vec<Vec<Value>>),
    Err(KernelError),
    End,
}

/// One shard's live row stream, pulled by the merge engine.
pub struct RowStream {
    columns: Vec<String>,
    inner: RowStreamInner,
    /// Rows from a received batch not yet handed to the merger.
    buffered: std::collections::VecDeque<Vec<Value>>,
    /// Per-statement deadline: a pull past it cancels the whole query and
    /// surfaces [`KernelError::Timeout`] instead of blocking on a hung shard.
    deadline: Option<(Instant, CancelToken)>,
    /// Keeps the unit's pool connection occupied for the stream's lifetime
    /// on the direct (single-unit) path; channel producers own theirs.
    _permits: Vec<Connection>,
    /// Rows handed to the merger so far.
    rows: u64,
    /// The unit's span (its `parent` is the span itself), when the statement
    /// records: closed with `rows` when the stream ends or is dropped.
    span: Option<SpanScope>,
    /// Where `rows` is added when the stream ends (`merge_input_rows_total`).
    pulled: Option<Arc<Counter>>,
}

enum RowStreamInner {
    Channel(Receiver<RowMsg>),
    Direct(Box<QueryCursor>),
    Done,
}

impl RowStream {
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Arm a per-statement deadline on this stream. The token is the query's
    /// shared [`CancelToken`], so a timed-out pull also stops every sibling
    /// producer still scanning.
    pub fn set_deadline(&mut self, deadline: Instant, cancel: CancelToken) {
        self.deadline = Some((deadline, cancel));
    }

    fn deadline_expired(&mut self) -> Option<Result<Vec<Value>>> {
        let (deadline, cancel) = self.deadline.as_ref()?;
        if Instant::now() < *deadline {
            return None;
        }
        cancel.cancel();
        self.inner = RowStreamInner::Done;
        Some(Err(KernelError::Timeout(
            "statement deadline elapsed while pulling shard rows".into(),
        )))
    }

    /// Pull the next row; `None` ends the stream. An `Err` is terminal.
    #[allow(clippy::should_implement_trait)]
    pub fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        let next = self.pull();
        match &next {
            Some(Ok(_)) => self.rows += 1,
            Some(Err(e)) => self.close(Some(e.to_string())),
            None => self.close(None),
        }
        next
    }

    /// The unit is over: close its span and count what the merger pulled.
    fn close(&mut self, error: Option<String>) {
        if let Some(span) = self.span.take() {
            span.recorder.finish(span.parent, Some(self.rows), error);
        }
        if let Some(pulled) = self.pulled.take() {
            pulled.add(self.rows);
        }
    }

    fn pull(&mut self) -> Option<Result<Vec<Value>>> {
        if let Some(row) = self.buffered.pop_front() {
            return Some(Ok(row));
        }
        if let Some(timeout) = self.deadline_expired() {
            return Some(timeout);
        }
        let deadline = self.deadline.clone();
        match &mut self.inner {
            RowStreamInner::Channel(rx) => loop {
                let received = match &deadline {
                    None => rx.recv().map_err(|_| None),
                    Some((d, _)) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        rx.recv_timeout(remaining)
                            .map_err(|e| Some(matches!(e, RecvTimeoutError::Timeout)))
                    }
                };
                match received {
                    Ok(RowMsg::Row(row)) => return Some(Ok(row)),
                    Ok(RowMsg::Batch(rows)) => {
                        self.buffered.extend(rows);
                        if let Some(row) = self.buffered.pop_front() {
                            return Some(Ok(row));
                        }
                    }
                    Ok(RowMsg::Columns(_)) => continue,
                    Ok(RowMsg::Err(e)) => {
                        self.inner = RowStreamInner::Done;
                        return Some(Err(e));
                    }
                    Ok(RowMsg::End) | Err(None) | Err(Some(false)) => {
                        self.inner = RowStreamInner::Done;
                        return None;
                    }
                    Err(Some(true)) => {
                        // Hung producer: abandon it, cancel siblings, fail
                        // the statement with a structured timeout.
                        if let Some((_, cancel)) = &deadline {
                            cancel.cancel();
                        }
                        self.inner = RowStreamInner::Done;
                        return Some(Err(KernelError::Timeout(
                            "statement deadline elapsed while pulling shard rows".into(),
                        )));
                    }
                }
            },
            RowStreamInner::Direct(cursor) => match cursor.next_row() {
                Ok(Some(row)) => Some(Ok(row)),
                Ok(None) => {
                    self.inner = RowStreamInner::Done;
                    None
                }
                Err(e) => {
                    self.inner = RowStreamInner::Done;
                    Some(Err(KernelError::Storage(e)))
                }
            },
            RowStreamInner::Done => None,
        }
    }
}

impl Drop for RowStream {
    fn drop(&mut self) {
        self.close(None);
    }
}

/// A query's live shard streams (input order) plus the shared token that
/// cancels every in-flight unit.
pub struct StreamedQuery {
    pub streams: Vec<RowStream>,
    pub report: ExecutionReport,
    pub cancel: CancelToken,
}

impl ExecutorEngine {
    /// Whether `inputs` qualify for the streaming path: pure SELECTs, no
    /// bound transactions, every source's fan-out within MaxCon (θ = 1, the
    /// memory-strictly precondition for streaming per the paper), and total
    /// units at most half the worker pool — beyond that, producers blocked
    /// on full channels could starve queued producers whose header the
    /// consumer is still waiting for.
    pub fn can_stream(
        &self,
        inputs: &[ExecutionInput],
        txns: Option<&HashMap<String, TxnId>>,
    ) -> bool {
        if inputs.is_empty() || txns.is_some_and(|t| !t.is_empty()) {
            return false;
        }
        if !inputs
            .iter()
            .all(|i| matches!(i.stmt, Statement::Select(_)))
        {
            return false;
        }
        let mut per_ds: HashMap<&str, usize> = HashMap::new();
        for i in inputs {
            *per_ds.entry(i.unit.datasource.as_str()).or_default() += 1;
        }
        let max_con = self.max_connections();
        if per_ds.values().any(|&n| n > max_con) {
            return false;
        }
        inputs.len() <= WorkerPool::global().size / 2
    }

    /// Execute SELECT units on the streaming path. Callers must have checked
    /// [`ExecutorEngine::can_stream`]. Streams return in input order; the
    /// header handshake guarantees every producer opened its cursor (or the
    /// whole query fails) before this returns.
    ///
    /// `spans` is the `execute` stage of a statement that records: every
    /// unit opens a span under it — with the storage probe installed around
    /// its cursor open on a head-sampled statement — that its [`RowStream`]
    /// closes with the rows the merger pulled. `pulled` receives the same
    /// row counts.
    pub fn execute_query_stream(
        &self,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        spans: Option<&SpanScope>,
        pulled: Option<&Arc<Counter>>,
    ) -> Result<StreamedQuery> {
        // Acquire each source's connections atomically up front (same
        // deadlock avoidance as the materialized path), then hand one permit
        // to each unit: streaming is memory-strictly by construction.
        let mut order: Vec<String> = Vec::new();
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut selects: Vec<(String, SelectStatement, Option<String>)> =
            Vec::with_capacity(inputs.len());
        for input in inputs {
            let label = spans.map(|_| unit_label(&input.unit));
            let Statement::Select(stmt) = input.stmt else {
                return Err(KernelError::Execute(
                    "streaming path requires SELECT statements".into(),
                ));
            };
            let name = input.unit.datasource;
            if !counts.contains_key(&name) {
                order.push(name.clone());
            }
            *counts.entry(name.clone()).or_default() += 1;
            selects.push((name, stmt, label));
        }

        let mut report = ExecutionReport::default();
        let mut permits: HashMap<String, Vec<Connection>> = HashMap::new();
        for name in &order {
            let ds = datasources
                .get(name)
                .ok_or_else(|| KernelError::Execute(format!("unknown data source '{name}'")))?;
            let n = counts[name];
            let acquired = ds.pool().acquire_atomic(n, self.acquire_timeout)?;
            report
                .groups
                .push((name.clone(), ConnectionMode::MemoryStrictly, n, n));
            permits.insert(name.clone(), acquired);
        }

        let cancel = CancelToken::new();
        // A unit's span opens here, on the calling thread; its `parent` is
        // the span itself.
        let open_span = |label: Option<String>| {
            spans.zip(label).map(|(s, label)| SpanScope {
                parent: s.recorder.begin(s.parent, "unit", label),
                ..s.clone()
            })
        };
        let stream = |inner, span, permits| RowStream {
            columns: Vec::new(),
            inner,
            buffered: std::collections::VecDeque::new(),
            deadline: None,
            _permits: permits,
            rows: 0,
            span,
            pulled: pulled.cloned(),
        };

        // Single-unit fast path: open the cursor inline, no pool hop.
        if selects.len() == 1 {
            let (name, stmt, label) = selects.pop().expect("len checked");
            let ds = &datasources[&name];
            let permits = permits.remove(&name).unwrap_or_default();
            let mut stream = stream(RowStreamInner::Done, open_span(label), permits);
            match open_unit_cursor(ds, stmt, params, stream.span.as_ref()) {
                Ok(cursor) => {
                    stream.columns = cursor.columns().to_vec();
                    stream.inner = RowStreamInner::Direct(Box::new(cursor));
                }
                Err(e) => {
                    stream.close(Some(e.to_string()));
                    return Err(e);
                }
            }
            return Ok(StreamedQuery {
                streams: vec![stream],
                report,
                cancel,
            });
        }

        // One producer job per unit, feeding a bounded channel. The header
        // (`Columns`) is the first send, so with capacity ≥ 1 it can never
        // block — the handshake below cannot deadlock.
        let mut streams = Vec::with_capacity(selects.len());
        for (name, stmt, label) in selects {
            let (tx, rx) = bounded::<RowMsg>(STREAM_CHANNEL_CAPACITY);
            let span = open_span(label);
            streams.push(stream(
                RowStreamInner::Channel(rx),
                span.clone(),
                Vec::new(),
            ));
            let ds = Arc::clone(&datasources[&name]);
            let permit: Vec<Connection> = permits
                .get_mut(&name)
                .and_then(|v| v.pop())
                .into_iter()
                .collect();
            let params = Arc::clone(&params);
            let cancel = cancel.clone();
            WorkerPool::global().submit(move || {
                let _permit = permit;
                if cancel.is_cancelled() {
                    let _ = tx.send(RowMsg::End);
                    return;
                }
                let mut cursor = match open_unit_cursor(&ds, stmt, params, span.as_ref()) {
                    Ok(c) => c,
                    Err(e) => {
                        cancel.cancel();
                        let _ = tx.send(RowMsg::Err(e));
                        return;
                    }
                };
                if tx.send(RowMsg::Columns(cursor.columns().to_vec())).is_err() {
                    return;
                }
                // Vectorized cursors produce in columnar batches already, so
                // rows go over the channel in chunks from the first pull —
                // the single-row warmup only helps row-at-a-time cursors
                // deliver an early LIMIT before a chunk fills, and batch
                // admission excludes plain LIMIT scans.
                if cursor.is_batch() {
                    loop {
                        if cancel.is_cancelled() {
                            break;
                        }
                        match cursor.next_rows(ROW_BATCH) {
                            Ok(rows) if rows.is_empty() => break,
                            Ok(rows) => {
                                if tx.send(RowMsg::Batch(rows)).is_err() {
                                    return;
                                }
                            }
                            Err(e) => {
                                cancel.cancel();
                                let _ = tx.send(RowMsg::Err(KernelError::Storage(e)));
                                return;
                            }
                        }
                    }
                    let _ = tx.send(RowMsg::End);
                    return;
                }
                let mut sent = 0usize;
                let mut batch: Vec<Vec<Value>> = Vec::new();
                loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    match cursor.next_row() {
                        // A send error means the consumer dropped its
                        // receiver (LIMIT filled / query abandoned): stop
                        // scanning immediately.
                        Ok(Some(row)) => {
                            if sent < SINGLE_ROW_PREFIX {
                                if tx.send(RowMsg::Row(row)).is_err() {
                                    return;
                                }
                            } else {
                                batch.push(row);
                                if batch.len() == ROW_BATCH
                                    && tx.send(RowMsg::Batch(std::mem::take(&mut batch))).is_err()
                                {
                                    return;
                                }
                            }
                            sent += 1;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            cancel.cancel();
                            let _ = tx.send(RowMsg::Err(KernelError::Storage(e)));
                            return;
                        }
                    }
                }
                if !batch.is_empty() && tx.send(RowMsg::Batch(batch)).is_err() {
                    return;
                }
                let _ = tx.send(RowMsg::End);
            });
        }

        // Header handshake: wait for every unit's Columns (or first error).
        // Dropping `streams` on the error path stops all producers and
        // closes every unit's span.
        for stream in &mut streams {
            let RowStreamInner::Channel(rx) = &stream.inner else {
                continue;
            };
            stream.columns = loop {
                match rx.recv() {
                    Ok(RowMsg::Columns(c)) => break c,
                    Ok(RowMsg::Err(e)) => {
                        cancel.cancel();
                        stream.close(Some(e.to_string()));
                        return Err(e);
                    }
                    Ok(RowMsg::Row(_)) | Ok(RowMsg::Batch(_)) => continue,
                    Ok(RowMsg::End) | Err(_) => break Vec::new(),
                }
            };
        }
        Ok(StreamedQuery {
            streams,
            report,
            cancel,
        })
    }
}

/// Open one unit's cursor under its source's breaker guard; on a
/// head-sampled statement the storage probe reports the open (`cursor_open`,
/// `mvcc_snapshot`) under the unit's span.
fn open_unit_cursor(
    ds: &DataSource,
    stmt: SelectStatement,
    params: Arc<[Value]>,
    span: Option<&SpanScope>,
) -> Result<QueryCursor> {
    let _probe = span.filter(|s| s.probe).map(|s| s.install_probe(s.parent));
    ds.guarded(|engine| engine.open_cursor(stmt, params, None))
}
