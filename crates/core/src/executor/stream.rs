//! A unit that goes on after the executor returns: one shard's open cursor
//! as a live [`RowStream`], pulled by the merge engine.
//!
//! The executor's fork-join opens the cursor (`mod.rs`); what follows is a
//! choice of transport. **Direct**: the consumer pulls the cursor itself —
//! no thread, no channel. **Pumped**: a job on a pool worker pulls it and
//! pushes rows into a bounded channel. The channel bound is the
//! backpressure: a merger that consumes slowly (or a LIMIT window that stops
//! consuming at all) blocks the pump instead of letting shard results pile
//! up in middleware memory. Dropping the receiver turns the pump's next send
//! into an error, which — together with the shared [`CancelToken`] — stops
//! in-flight shard scans early. The same token cancels sibling units when
//! any unit errors.
//!
//! Whichever transport carried it, the stream ends the unit: it reports the
//! unit's outcome to its source's breaker (a cursor pulled dry is the
//! success `DataSource::guarded` records for a collected unit, a failed pull
//! the failure), closes its span and counts its rows.

use crate::datasource::{Connection, DataSource};
use crate::error::{KernelError, Result};
use crate::executor::WorkerPool;
use crate::obs::{Counter, SpanScope};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use shard_sql::Value;
use shard_storage::{QueryCursor, StorageError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Messages buffered per shard channel before the pump blocks. Small enough
/// to bound middleware memory per unit, large enough to ride out merge
/// scheduling jitter.
pub const STREAM_CHANNEL_CAPACITY: usize = 64;

/// Rows a pump sends one per message before switching to batches. The
/// single-row prefix keeps LIMIT-window pulls tight (a `LIMIT o, n` query
/// stops each shard after ~o + n pulls, not a full batch); past it, the
/// query is a drain and batching amortizes the per-message channel cost.
const SINGLE_ROW_PREFIX: usize = 64;

/// Batch size once a pump is past the single-row prefix.
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
    Batch(Vec<Vec<Value>>),
    Err(StorageError),
    End,
}

/// One shard's live row stream, pulled by the merge engine.
pub struct RowStream {
    columns: Vec<String>,
    transport: Transport,
    /// The unit's source: where its outcome is reported.
    ds: Arc<DataSource>,
    /// Rows handed to the merger so far.
    rows: u64,
    /// The unit's span (its `parent` is the span itself), when the statement
    /// records: closed with `rows` when the stream ends or is dropped.
    span: Option<SpanScope>,
    /// Where `rows` is added when the stream ends (`merge_input_rows_total`).
    pulled: Option<Arc<Counter>>,
}

enum Transport {
    /// The cursor, and the unit's pool connection for as long as it is open.
    Direct(Box<QueryCursor>, Option<Connection>),
    Pumped(Pumped),
    Done,
}

/// The consumer's end of a pumped cursor.
struct Pumped {
    rx: Receiver<RowMsg>,
    /// Rows from a received batch not yet handed to the merger.
    ready: std::vec::IntoIter<Vec<Value>>,
    /// Per-statement deadline: a pull past it cancels the whole query and
    /// surfaces [`KernelError::Timeout`] instead of blocking on a hung shard.
    deadline: Option<Instant>,
    cancel: CancelToken,
}

/// How a stream ends.
enum End {
    /// The cursor ran dry.
    Exhausted,
    Failed(StorageError),
    /// The pump saw the cancellation and let go of its cursor.
    Stopped,
    TimedOut,
}

impl RowStream {
    /// The stream over a cursor just opened, on the direct transport.
    pub(super) fn new(
        cursor: QueryCursor,
        ds: Arc<DataSource>,
        permit: Option<Connection>,
        span: Option<SpanScope>,
        pulled: Option<Arc<Counter>>,
    ) -> RowStream {
        RowStream {
            columns: cursor.columns().to_vec(),
            transport: Transport::Direct(Box::new(cursor), permit),
            ds,
            rows: 0,
            span,
            pulled,
        }
    }

    /// Move the cursor — and the unit's connection with it — to a pump on a
    /// pool worker. `cancel` is the query's shared token, so a pull that
    /// times out against `deadline` also stops every sibling pump.
    pub(super) fn pump(
        &mut self,
        pool: &WorkerPool,
        cancel: &CancelToken,
        deadline: Option<Instant>,
    ) {
        let (cursor, permit) = match std::mem::replace(&mut self.transport, Transport::Done) {
            Transport::Direct(cursor, permit) => (cursor, permit),
            other => {
                self.transport = other;
                return;
            }
        };
        let (tx, rx) = bounded(STREAM_CHANNEL_CAPACITY);
        self.transport = Transport::Pumped(Pumped {
            rx,
            ready: Vec::new().into_iter(),
            deadline,
            cancel: cancel.clone(),
        });
        let cancel = cancel.clone();
        pool.submit(move || {
            let _permit = permit;
            pump(*cursor, &tx, &cancel);
        });
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
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
        let end = match &mut self.transport {
            Transport::Direct(cursor, _) => match cursor.next_row() {
                Ok(Some(row)) => return Some(Ok(row)),
                Ok(None) => End::Exhausted,
                Err(e) => End::Failed(e),
            },
            Transport::Pumped(pumped) => match pumped.next_row() {
                Ok(row) => return Some(Ok(row)),
                Err(end) => end,
            },
            Transport::Done => return None,
        };
        self.transport = Transport::Done;
        match end {
            End::Exhausted => {
                self.ds.breaker().record_success();
                None
            }
            End::Failed(e) => Some(Err(self.ds.failed(e))),
            End::Stopped => None,
            End::TimedOut => Some(Err(KernelError::Timeout(
                "statement deadline elapsed while pulling shard rows".into(),
            ))),
        }
    }
}

impl Drop for RowStream {
    fn drop(&mut self) {
        self.close(None);
    }
}

impl Pumped {
    fn next_row(&mut self) -> std::result::Result<Vec<Value>, End> {
        loop {
            if let Some(row) = self.ready.next() {
                return Ok(row);
            }
            let received = match self.deadline {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(deadline) => match deadline.saturating_duration_since(Instant::now()) {
                    left if left.is_zero() => Err(RecvTimeoutError::Timeout),
                    left => self.rx.recv_timeout(left),
                },
            };
            match received {
                Ok(RowMsg::Batch(rows)) => self.ready = rows.into_iter(),
                Ok(RowMsg::End) => return Err(End::Exhausted),
                Ok(RowMsg::Err(e)) => return Err(End::Failed(e)),
                Err(RecvTimeoutError::Disconnected) => return Err(End::Stopped),
                Err(RecvTimeoutError::Timeout) => {
                    // Hung pump: abandon it and cancel its siblings.
                    self.cancel.cancel();
                    return Err(End::TimedOut);
                }
            }
        }
    }
}

/// Pull an open cursor dry into its channel, until the query is cancelled
/// or the consumer has dropped its receiver (LIMIT filled, query abandoned).
fn pump(mut cursor: QueryCursor, tx: &Sender<RowMsg>, cancel: &CancelToken) {
    let mut sent = 0usize;
    while !cancel.is_cancelled() {
        // Vectorized cursors produce in columnar batches already, so their
        // rows go over the channel in chunks from the first pull — the
        // single-row warmup only helps row-at-a-time cursors deliver an
        // early LIMIT before a chunk fills, and batch admission excludes
        // plain LIMIT scans.
        let want = if cursor.is_batch() || sent >= SINGLE_ROW_PREFIX {
            ROW_BATCH
        } else {
            1
        };
        let rows = match cursor.next_rows(want) {
            Ok(rows) => rows,
            Err(e) => {
                cancel.cancel();
                let _ = tx.send(RowMsg::Err(e));
                return;
            }
        };
        let (got, dry) = (rows.len(), rows.len() < want);
        if got > 0 && tx.send(RowMsg::Batch(rows)).is_err() {
            return;
        }
        if dry {
            let _ = tx.send(RowMsg::End);
            return;
        }
        sent += got;
    }
}
