//! The storage engine: one instance models one underlying *data source*
//! (what the paper would call a MySQL/PostgreSQL server).
//!
//! Capabilities:
//! - catalog of [`Table`]s with DDL,
//! - local ACID transactions (undo-log rollback, strict write locks, WAL),
//! - an XA resource-manager interface (`prepare` / `commit_prepared` /
//!   `rollback_prepared` / `in_doubt`) used by the kernel's 2PC coordinator,
//! - crash recovery by WAL replay ([`StorageEngine::recover`]),
//! - a [`LatencyModel`] charging simulated network cost per request,
//! - fault injection hooks for failure testing.

use crate::cursor::{QueryCursor, SelectHooks, SelectRun, SharedSelect};
use crate::error::{Result, StorageError};
use crate::eval::{eval, eval_predicate, EvalContext, Scope};
use crate::exec_select::{execute_select, Catalog};
use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPlan, FaultTrigger};
use crate::group_commit::GroupCommitter;
use crate::index::RowId;
use crate::latency::LatencyModel;
use crate::lock::{LockIntent, LockManager, TxnId};
use crate::mvcc::{ReadView, SnapshotRegistry};
use crate::result::{ExecuteResult, ResultSet};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::wal::{LogRecord, SharedLog};
use parking_lot::{Mutex, RwLock};
use shard_sql::ast::*;
use shard_sql::{format_statement, parse_statement, Dialect, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Undo-log entry: how to reverse one applied operation. Under MVCC the
/// undo is structural — rollback pops the pending version the op created
/// (or clears the pending end stamp it set) — so no before images are kept
/// here; they live in the superseded versions themselves. Commit reuses the
/// same list as the set of rows to stamp.
#[derive(Debug, Clone)]
enum UndoOp {
    Insert { table: String, row_id: RowId },
    Update { table: String, row_id: RowId },
    Delete { table: String, row_id: RowId },
}

impl UndoOp {
    fn touched(&self) -> (&str, RowId) {
        match self {
            UndoOp::Insert { table, row_id }
            | UndoOp::Update { table, row_id }
            | UndoOp::Delete { table, row_id } => (table, *row_id),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TxnPhase {
    Active,
    /// XA phase-1 complete; in-doubt until the coordinator decides.
    Prepared {
        xid: String,
    },
}

struct TxnState {
    phase: TxnPhase,
    undo: Vec<UndoOp>,
}

/// One simulated data source.
pub struct StorageEngine {
    name: String,
    dialect: Dialect,
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    locks: Arc<LockManager>,
    wal: SharedLog,
    next_txn: AtomicU64,
    txns: Mutex<HashMap<TxnId, TxnState>>,
    /// The latency model, the fault injector (chaos tests arm plans
    /// targeting individual operations) and the scan counters — shared with
    /// the cursors this engine hands out, which keep charging, checking
    /// row-pull faults and counting after the open call returns.
    hooks: Arc<SelectHooks>,
    /// Total statements executed (metrics).
    statements_executed: AtomicU64,
    /// Undo images rebuilt during recovery, keyed by txn, consumed while
    /// re-registering in-doubt transactions.
    recovered_undo: Mutex<HashMap<u64, Vec<UndoOp>>>,
    /// Server capacity: how many requests this "server" can process
    /// concurrently (None = unlimited). Requests beyond it queue, like a
    /// real database's worker threads — this is what makes adding data
    /// servers increase cluster throughput (paper Fig 12).
    server_slots: Option<Arc<ServerSlots>>,
    /// Coalesces the simulated durability flush of concurrent committers
    /// (`SET group_commit_window_us`).
    group_commit: GroupCommitter,
    /// Last published commit timestamp; readers snapshot this.
    commit_clock: AtomicU64,
    /// Serializes version stamping + clock publication at commit, so a
    /// half-stamped transaction is never visible. The group-commit flush
    /// happens outside this lock.
    commit_seal: Mutex<()>,
    /// Live snapshots, bounding the vacuum horizon.
    snapshots: SnapshotRegistry,
    /// Versions reclaimed by vacuum so far (`mvcc_gc_reclaimed_total`).
    gc_reclaimed: AtomicU64,
    /// Commits since the last auto-vacuum (epoch trigger).
    commits_since_gc: AtomicU64,
}

/// Auto-vacuum every this many commits.
const GC_COMMIT_INTERVAL: u64 = 64;

struct ServerSlots {
    available: Mutex<usize>,
    freed: parking_lot::Condvar,
}

struct SlotGuard<'a>(&'a ServerSlots);

impl ServerSlots {
    fn acquire(&self) -> SlotGuard<'_> {
        let mut available = self.available.lock();
        while *available == 0 {
            self.freed.wait(&mut available);
        }
        *available -= 1;
        SlotGuard(self)
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut available = self.0.available.lock();
        *available += 1;
        drop(available);
        self.0.freed.notify_one();
    }
}

impl StorageEngine {
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_options(name, LatencyModel::ZERO, SharedLog::new())
    }

    pub fn with_latency(name: impl Into<String>, latency: LatencyModel) -> Arc<Self> {
        Self::with_options(name, latency, SharedLog::new())
    }

    pub fn with_options(
        name: impl Into<String>,
        latency: LatencyModel,
        wal: SharedLog,
    ) -> Arc<Self> {
        let name = name.into();
        Arc::new(StorageEngine {
            hooks: Arc::new(SelectHooks {
                latency,
                faults: FaultInjector::new(&name),
                rows_pulled: AtomicU64::new(0),
                fetch_steps: AtomicU64::new(0),
                scan_batches: AtomicU64::new(0),
                scan_batch_rows: AtomicU64::new(0),
            }),
            name,
            dialect: Dialect::MySql,
            tables: RwLock::new(HashMap::new()),
            locks: Arc::new(LockManager::new(Duration::from_secs(2))),
            wal,
            next_txn: AtomicU64::new(1),
            txns: Mutex::new(HashMap::new()),
            statements_executed: AtomicU64::new(0),
            recovered_undo: Mutex::new(HashMap::new()),
            server_slots: None,
            group_commit: GroupCommitter::new(),
            commit_clock: AtomicU64::new(0),
            commit_seal: Mutex::new(()),
            snapshots: SnapshotRegistry::default(),
            gc_reclaimed: AtomicU64::new(0),
            commits_since_gc: AtomicU64::new(0),
        })
    }

    /// Limit this data source to `n` concurrently processed requests
    /// (simulating a server with `n` worker threads). Must be called before
    /// the engine is shared; typical benchmark value: 8-16.
    pub fn set_server_capacity(self: &mut Arc<Self>, n: usize) {
        let slots = Some(Arc::new(ServerSlots {
            available: Mutex::new(n.max(1)),
            freed: parking_lot::Condvar::new(),
        }));
        match Arc::get_mut(self) {
            Some(engine) => engine.server_slots = slots,
            None => panic!("set_server_capacity requires exclusive ownership"),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Coalescing window for the simulated durability flush at commit, in
    /// microseconds. 0 (default) = one flush per explicit commit.
    pub fn set_group_commit_window(&self, micros: u64) {
        self.group_commit.set_window(micros);
    }

    /// The group committer (metrics: commits vs actual flushes).
    pub fn group_committer(&self) -> &GroupCommitter {
        &self.group_commit
    }

    /// The read view for one statement (or one cursor open): a registered
    /// snapshot of the commit clock. `txn` makes the transaction's own
    /// pending writes visible (read-your-writes).
    pub fn read_view(&self, txn: Option<TxnId>) -> ReadView {
        let span = crate::probe::begin();
        let (ts, guard) = self.snapshots.acquire(&self.commit_clock);
        crate::probe::end(span, "mvcc_snapshot", || format!("{} ts={ts}", self.name));
        ReadView::snapshot(ts, txn, Some(guard))
    }

    /// Total stored row versions across all tables (`mvcc_versions_live`).
    pub fn mvcc_versions_live(&self) -> u64 {
        let tables: Vec<_> = self.tables.read().values().cloned().collect();
        tables.iter().map(|t| t.read().version_count() as u64).sum()
    }

    /// Versions reclaimed by vacuum so far (`mvcc_gc_reclaimed_total`).
    pub fn mvcc_gc_reclaimed(&self) -> u64 {
        self.gc_reclaimed.load(Ordering::Relaxed)
    }

    /// Reclaim versions no live (or future) snapshot can see. Runs
    /// automatically every [`GC_COMMIT_INTERVAL`] commits; callable directly
    /// for tests and maintenance.
    pub fn vacuum(&self) -> u64 {
        let span = crate::probe::begin();
        let oldest = self.snapshots.oldest_live(&self.commit_clock);
        let tables: Vec<_> = self.tables.read().values().cloned().collect();
        let mut reclaimed = 0u64;
        for t in tables {
            reclaimed += t.write().vacuum(oldest);
        }
        self.gc_reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        crate::probe::end(span, "vacuum", || {
            format!("{} reclaimed={reclaimed}", self.name)
        });
        reclaimed
    }

    fn maybe_vacuum(&self) {
        if self.commits_since_gc.fetch_add(1, Ordering::Relaxed) % GC_COMMIT_INTERVAL
            == GC_COMMIT_INTERVAL - 1
        {
            self.vacuum();
        }
    }

    /// Columnar batches fetched by the batch-scan leaf so far.
    pub fn scan_batches(&self) -> u64 {
        self.hooks.scan_batches.load(Ordering::Relaxed)
    }

    /// Rows delivered inside columnar batches so far.
    pub fn scan_batch_rows(&self) -> u64 {
        self.hooks.scan_batch_rows.load(Ordering::Relaxed)
    }

    pub(crate) fn select_hooks(&self) -> Arc<SelectHooks> {
        Arc::clone(&self.hooks)
    }

    pub fn latency(&self) -> LatencyModel {
        self.hooks.latency
    }

    /// Does a request to this engine spend time *waiting* — a simulated
    /// round trip, a queue for a server slot, an open group-commit window —
    /// rather than only computing? Waits on different engines overlap on any
    /// machine, computation only across CPUs; whoever fans requests out
    /// decides from this whether other threads can help.
    pub fn waits(&self) -> bool {
        !self.hooks.latency.is_zero()
            || self.server_slots.is_some()
            || self.group_commit.window_micros() > 0
    }

    pub fn wal(&self) -> &SharedLog {
        &self.wal
    }

    pub fn statements_executed(&self) -> u64 {
        self.statements_executed.load(Ordering::Relaxed)
    }

    /// Source rows fetched by the SELECT scan leaves so far (the general
    /// executor counts nothing).
    pub fn rows_pulled(&self) -> u64 {
        self.hooks.rows_pulled.load(Ordering::Relaxed)
    }

    /// Row chains the scan leaves visited to fetch what `rows_pulled`
    /// counts: equal to it when every probe lands on a visible row, above
    /// it by what a walk passed over or a probe found gone.
    pub fn fetch_steps(&self) -> u64 {
        self.hooks.fetch_steps.load(Ordering::Relaxed)
    }

    /// Row-lock acquisitions that had to block behind another transaction
    /// (both intents combined).
    pub fn lock_waits(&self) -> u64 {
        self.locks.waits()
    }

    /// Write-write blocking episodes (`lock_wait_write_total`).
    pub fn lock_waits_write(&self) -> u64 {
        self.locks.waits_write()
    }

    /// Blocking episodes attributable to locking reads (FOR UPDATE). Plain
    /// reads resolve MVCC snapshots and never appear here.
    pub fn lock_waits_read(&self) -> u64 {
        self.locks.waits_read()
    }

    /// This source's fault injector (chaos tests, `INJECT FAULT` RAL).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.hooks.faults
    }

    /// Disarm every fault plan and release hung operations.
    pub fn clear_faults(&self) {
        self.hooks.faults.clear();
    }

    /// Arm the fault injector: the next commit on this source fails. A 2PC
    /// prepare consumes the same one-shot plan (the source votes NO), so XA
    /// tests see the refusal at phase 1 — the pre-injector behaviour.
    pub fn inject_commit_failure(&self) {
        self.hooks.faults.inject(FaultPlan::on_ops(
            vec![FaultOp::Prepare, FaultOp::Commit],
            FaultKind::Error("commit refused".into()),
            FaultTrigger::Once,
        ));
    }

    /// Health probe: one round trip that fails only when a ping fault is
    /// armed (a real server would answer a trivial query).
    pub fn ping(&self) -> Result<()> {
        self.hooks.latency.charge(0);
        self.hooks.faults.check(FaultOp::Ping)
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn table_row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.read().len())
    }

    // -- transactions --------------------------------------------------------

    /// Begin an explicit transaction.
    pub fn begin(&self) -> TxnId {
        let id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        self.wal.append(LogRecord::Begin { txn: id });
        self.txns.lock().insert(
            id,
            TxnState {
                phase: TxnPhase::Active,
                undo: Vec::new(),
            },
        );
        id
    }

    pub fn commit(&self, txn: TxnId) -> Result<()> {
        // A commit fault leaves the transaction in place: the coordinator
        // decides what happens next (retry / recovery).
        self.hooks.faults.check(FaultOp::Commit)?;
        // An explicit COMMIT is its own client round trip and must make the
        // WAL durable before acknowledging: pay one flush, coalesced with
        // concurrent committers when a group-commit window is armed.
        self.finish_commit(txn, true)
    }

    fn finish_commit(&self, txn: TxnId, flush: bool) -> Result<()> {
        // Commit is legal from Active (local/1PC) and Prepared (XA phase 2).
        let state = self
            .txns
            .lock()
            .remove(&txn)
            .ok_or(StorageError::UnknownTransaction(txn))?;
        if state.undo.is_empty() {
            // Read-only: nothing to stamp, don't burn a timestamp.
            self.wal.append(LogRecord::Commit { txn });
        } else {
            // Stamp every touched row's pending versions with the next
            // commit timestamp, then publish the clock. Readers snapshot the
            // published clock, so a half-stamped transaction is invisible:
            // its versions become visible all at once with the store below.
            // Only stamping and the WAL commit record sit inside the seal —
            // the durability flush stays outside so group commit can keep
            // coalescing concurrent committers.
            let seal = self.commit_seal.lock();
            let ts = self.commit_clock.load(Ordering::Relaxed) + 1;
            let mut seen: HashSet<(&str, RowId)> = HashSet::new();
            for op in &state.undo {
                let (table, row_id) = op.touched();
                if seen.insert((table, row_id)) {
                    if let Ok(t) = self.table(table) {
                        t.write().stamp_commit(row_id, txn, ts);
                    }
                }
            }
            self.wal.append(LogRecord::Commit { txn });
            self.commit_clock.store(ts, Ordering::Release);
            drop(seal);
        }
        if flush {
            let span = crate::probe::begin();
            self.group_commit.sync(|| self.hooks.latency.charge(0));
            crate::probe::end(span, "wal_flush", || self.name.clone());
        }
        self.locks.release_all(txn);
        self.maybe_vacuum();
        Ok(())
    }

    pub fn rollback(&self, txn: TxnId) -> Result<()> {
        let state = self
            .txns
            .lock()
            .remove(&txn)
            .ok_or(StorageError::UnknownTransaction(txn))?;
        self.apply_undo(txn, &state.undo)?;
        self.wal.append(LogRecord::Abort { txn });
        self.locks.release_all(txn);
        Ok(())
    }

    /// Structural rollback: pop the pending versions the transaction
    /// created and clear the pending end stamps it set, newest-first.
    fn apply_undo(&self, txn: TxnId, undo: &[UndoOp]) -> Result<()> {
        for op in undo.iter().rev() {
            match op {
                UndoOp::Insert { table, row_id } => {
                    let t = self.table(table)?;
                    t.write().abort_insert(*row_id);
                }
                UndoOp::Update { table, row_id } => {
                    let t = self.table(table)?;
                    t.write().abort_update(*row_id, txn)?;
                }
                UndoOp::Delete { table, row_id } => {
                    let t = self.table(table)?;
                    t.write().abort_delete(*row_id, txn)?;
                }
            }
        }
        Ok(())
    }

    // -- XA resource-manager interface ---------------------------------------

    /// XA phase 1: vote. Persists a prepare marker; the transaction becomes
    /// in-doubt and survives a crash.
    pub fn prepare(&self, txn: TxnId, xid: &str) -> Result<()> {
        // Phase 1 is a synchronous round trip to this resource manager.
        self.hooks.latency.charge(0);
        if let Err(e) = self.hooks.faults.check(FaultOp::Prepare) {
            // A source armed to fail votes NO and rolls back, per 2PC.
            self.rollback(txn)?;
            return Err(e);
        }
        let mut txns = self.txns.lock();
        let state = txns
            .get_mut(&txn)
            .ok_or(StorageError::UnknownTransaction(txn))?;
        if state.phase != TxnPhase::Active {
            return Err(StorageError::IllegalTransactionState {
                txn,
                state: format!("{:?}", state.phase),
                operation: "prepare".into(),
            });
        }
        state.phase = TxnPhase::Prepared {
            xid: xid.to_string(),
        };
        drop(txns);
        self.wal.append(LogRecord::Prepare {
            txn,
            xid: xid.to_string(),
        });
        Ok(())
    }

    /// XA phase 2 commit of a prepared transaction. The phase-2 round trip
    /// cost is the commit's durability flush (charged inside [`Self::commit`],
    /// where the group committer can coalesce it).
    pub fn commit_prepared(&self, txn: TxnId) -> Result<()> {
        // Phase 2 waits for the resource manager's acknowledgement. A fault
        // here leaves the transaction in-doubt for the recovery manager.
        self.hooks.faults.check(FaultOp::CommitPrepared)?;
        {
            let txns = self.txns.lock();
            let state = txns
                .get(&txn)
                .ok_or(StorageError::UnknownTransaction(txn))?;
            if !matches!(state.phase, TxnPhase::Prepared { .. }) {
                return Err(StorageError::IllegalTransactionState {
                    txn,
                    state: format!("{:?}", state.phase),
                    operation: "commit_prepared".into(),
                });
            }
        }
        self.commit(txn)
    }

    /// XA phase 2 rollback of a prepared transaction.
    pub fn rollback_prepared(&self, txn: TxnId) -> Result<()> {
        {
            let txns = self.txns.lock();
            let state = txns
                .get(&txn)
                .ok_or(StorageError::UnknownTransaction(txn))?;
            if !matches!(state.phase, TxnPhase::Prepared { .. }) {
                return Err(StorageError::IllegalTransactionState {
                    txn,
                    state: format!("{:?}", state.phase),
                    operation: "rollback_prepared".into(),
                });
            }
        }
        self.rollback(txn)
    }

    /// In-doubt transactions: prepared but neither committed nor aborted.
    /// The recovery manager queries this after a crash.
    pub fn in_doubt(&self) -> Vec<(TxnId, String)> {
        self.txns
            .lock()
            .iter()
            .filter_map(|(id, s)| match &s.phase {
                TxnPhase::Prepared { xid } => Some((*id, xid.clone())),
                _ => None,
            })
            .collect()
    }

    // -- execution -------------------------------------------------------------

    /// Execute one statement. `txn = None` runs in an implicit (auto-commit)
    /// transaction. Network latency is charged per request. A SELECT is the
    /// one pipeline ([`SelectRun`]) collected on the spot with the caller's
    /// statement.
    pub fn execute(
        &self,
        stmt: &Statement,
        params: &[Value],
        txn: Option<TxnId>,
    ) -> Result<ExecuteResult> {
        // Occupy a server worker slot for the whole request (queueing when
        // the source is saturated).
        let _slot = self.server_slots.as_ref().map(|s| s.acquire());
        if let Statement::Select(s) = stmt {
            let rs = self.open_select(s, params, txn)?.collect(s, params)?;
            return Ok(ExecuteResult::Query(rs));
        }
        self.statements_executed.fetch_add(1, Ordering::Relaxed);
        self.charge_page_miss(std::iter::once_with(|| stmt.table_names()).flatten());
        let result = self.execute_inner(stmt, params, txn);
        let rows = match &result {
            Ok(ExecuteResult::Query(rs)) => rs.len(),
            _ => 0,
        };
        self.hooks.latency.charge(rows);
        result
    }

    /// Open a pull-based cursor for a SELECT: the same pipeline `execute`
    /// collects, wrapped with the statement and parameters it borrows on
    /// every pull, so rows leave the engine as the consumer asks for them.
    /// Both are shared, not copied: a caller that planned the statement once
    /// hands every cursor the same one.
    pub fn open_cursor(
        &self,
        stmt: Arc<Statement>,
        params: Arc<[Value]>,
        txn: Option<TxnId>,
    ) -> Result<QueryCursor> {
        let stmt = SharedSelect::new(stmt)?;
        let span = crate::probe::begin();
        // The server slot covers only cursor open: a cursor is
        // consumer-paced and must not occupy a worker for its lifetime.
        let _slot = self.server_slots.as_ref().map(|s| s.acquire());
        let result = self.open_select(&stmt, &params, txn);
        crate::probe::end_with(
            span,
            "cursor_open",
            || {
                let table = stmt.from.as_ref().map(|f| f.name.as_str()).unwrap_or("?");
                format!("{}:{table}", self.name)
            },
            result.as_ref().err().map(|e| e.to_string()),
        );
        Ok(QueryCursor::new(result?, stmt, params))
    }

    /// How every SELECT starts, whichever entry it came through: the
    /// scan-open fault point, the buffer-pool charge, the dispatcher, and
    /// the request's round trip. Rows are charged as they leave.
    fn open_select(
        &self,
        stmt: &SelectStatement,
        params: &[Value],
        txn: Option<TxnId>,
    ) -> Result<SelectRun> {
        self.statements_executed.fetch_add(1, Ordering::Relaxed);
        self.hooks.faults.check(FaultOp::ScanOpen)?;
        let joined = stmt.joins.iter().map(|j| &j.table);
        self.charge_page_miss(stmt.from.iter().chain(joined).map(|t| t.name.as_str()));
        let run = SelectRun::open(self, stmt, params, txn)?;
        self.hooks.latency.charge(0);
        Ok(run)
    }

    /// Buffer-pool model: touching a table bigger than the pool pays the
    /// disk-miss cost (this is what makes sharded small tables faster than
    /// one big table, per the paper's Table IV discussion).
    fn charge_page_miss(&self, tables: impl Iterator<Item = impl AsRef<str>>) {
        if self.hooks.latency.page_miss.is_zero() {
            return;
        }
        let largest = tables
            .filter_map(|t| self.table(t.as_ref()).ok())
            .map(|t| t.read().len() as u64)
            .max();
        self.hooks.latency.charge_miss(largest.unwrap_or(0));
    }

    /// Parse and execute a SQL string (convenience for tests and examples).
    pub fn execute_sql(
        &self,
        sql: &str,
        params: &[Value],
        txn: Option<TxnId>,
    ) -> Result<ExecuteResult> {
        let stmt = parse_statement(sql).map_err(|e| StorageError::Execution(e.to_string()))?;
        self.execute(&stmt, params, txn)
    }

    fn execute_inner(
        &self,
        stmt: &Statement,
        params: &[Value],
        txn: Option<TxnId>,
    ) -> Result<ExecuteResult> {
        match stmt {
            Statement::Select(_) => unreachable!("`execute` takes SELECTs itself"),
            Statement::Insert(s) => {
                self.hooks.faults.check(FaultOp::Write)?;
                self.with_txn(txn, |t| self.insert(s, params, t))
            }
            Statement::Update(s) => {
                self.hooks.faults.check(FaultOp::Write)?;
                self.with_txn(txn, |t| self.update(s, params, t))
            }
            Statement::Delete(s) => {
                self.hooks.faults.check(FaultOp::Write)?;
                self.with_txn(txn, |t| self.delete(s, params, t))
            }
            Statement::CreateTable(s) => self.create_table(s),
            Statement::DropTable(s) => self.drop_table(s),
            Statement::TruncateTable(n) => {
                let t = self.table(n.as_str())?;
                let affected = t.write().truncate();
                Ok(ExecuteResult::Update { affected })
            }
            Statement::CreateIndex(s) => {
                let t = self.table(s.table.as_str())?;
                t.write().create_index(&s.name, &s.columns, s.unique)?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::DropIndex { name, table } => {
                let t = self.table(table.as_str())?;
                t.write().drop_index(name)?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                Err(StorageError::Execution(
                    "transaction control must use the engine API (begin/commit/rollback)".into(),
                ))
            }
            Statement::SetVariable { .. } => Ok(ExecuteResult::Update { affected: 0 }),
            Statement::ShowTables => {
                let rows = self
                    .table_names()
                    .into_iter()
                    .map(|n| vec![Value::Str(n)])
                    .collect();
                Ok(ExecuteResult::Query(ResultSet::new(
                    vec!["table_name".into()],
                    rows,
                )))
            }
            Statement::DistSql(_) => Err(StorageError::Execution(
                "DistSQL is handled by the sharding kernel, not a data source".into(),
            )),
        }
    }

    /// Run a write op inside the given txn, or an implicit one (auto-commit).
    fn with_txn(
        &self,
        txn: Option<TxnId>,
        f: impl FnOnce(TxnId) -> Result<ExecuteResult>,
    ) -> Result<ExecuteResult> {
        match txn {
            Some(t) => {
                if !self.txns.lock().contains_key(&t) {
                    return Err(StorageError::UnknownTransaction(t));
                }
                f(t)
            }
            None => {
                let t = self.begin();
                match f(t) {
                    Ok(r) => {
                        // Auto-commit rides the statement's own round trip:
                        // no separate durability flush is charged (the
                        // statement request already paid `per_request`).
                        self.hooks.faults.check(FaultOp::Commit)?;
                        self.finish_commit(t, false)?;
                        Ok(r)
                    }
                    Err(e) => {
                        // Roll back the implicit transaction; surface the
                        // original error.
                        let _ = self.rollback(t);
                        Err(e)
                    }
                }
            }
        }
    }

    fn record_undo_recovered(&self, txn: TxnId, op: UndoOp) {
        self.recovered_undo.lock().entry(txn).or_default().push(op);
    }

    fn record_undo(&self, txn: TxnId, op: UndoOp) {
        if let Some(state) = self.txns.lock().get_mut(&txn) {
            state.undo.push(op);
        }
    }

    /// Record a statement's worth of undo ops under one transaction-map lock.
    fn record_undo_batch(&self, txn: TxnId, ops: impl IntoIterator<Item = UndoOp>) {
        if let Some(state) = self.txns.lock().get_mut(&txn) {
            state.undo.extend(ops);
        }
    }

    /// The general SELECT executor and, inside a transaction, the row locks
    /// of a locking read. The dispatcher ([`SelectRun::open`]) sends here
    /// what no scan leaf serves.
    pub(crate) fn select_general(
        &self,
        stmt: &SelectStatement,
        params: &[Value],
        txn: Option<TxnId>,
        view: &ReadView,
    ) -> Result<ResultSet> {
        let rs = execute_select(self, stmt, params, view)?;
        // SELECT ... FOR UPDATE takes write locks on the matched rows of the
        // base table when run inside an explicit transaction.
        if stmt.for_update {
            if let (Some(t), Some(from)) = (txn, &stmt.from) {
                let table = self.table(from.name.as_str())?;
                let guard = table.read();
                if let Some(pk) = guard.primary_index() {
                    // Lock via PK lookup of returned rows when the PK columns
                    // are all present in the result.
                    let names = guard.schema.names();
                    let positions: Option<Vec<usize>> = pk
                        .columns
                        .iter()
                        .map(|&i| rs.column_index(&names[i]))
                        .collect();
                    if let Some(pos) = positions {
                        for row in &rs.rows {
                            let key: Vec<Value> = pos.iter().map(|&i| row[i].clone()).collect();
                            for &rid in guard.lookup_pk(&key) {
                                self.locks
                                    .lock_row(t, guard.name(), rid, LockIntent::Read)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(rs)
    }

    fn insert(
        &self,
        stmt: &InsertStatement,
        params: &[Value],
        txn: TxnId,
    ) -> Result<ExecuteResult> {
        // One row is cheaper through the plain per-row steps than through a
        // batch of one (5.9 vs 6.8 µs on `read_write_xa_jdbc`'s INSERT).
        if stmt.rows.len() > 1 {
            return self.insert_batched(stmt, params, txn);
        }
        let table = self.table(stmt.table.as_str())?;
        let mut affected = 0u64;
        let scope = Scope::new();
        for row_exprs in &stmt.rows {
            let ctx = EvalContext::new(&scope, &[], params);
            let values: Result<Vec<Value>> = row_exprs.iter().map(|e| eval(e, &ctx)).collect();
            let values = values?;
            let full_row = {
                let guard = table.read();
                build_full_row(&guard.schema, &stmt.columns, values)?
            };
            let (row_id, stored) = table.write().insert(full_row, txn)?;
            self.locks
                .lock_row(txn, stmt.table.as_str(), row_id, LockIntent::Write)?;
            self.record_undo(
                txn,
                UndoOp::Insert {
                    table: stmt.table.0.clone(),
                    row_id,
                },
            );
            self.wal.append(LogRecord::Insert {
                txn,
                table: stmt.table.0.clone(),
                row_id,
                row: stored,
            });
            affected += 1;
        }
        Ok(ExecuteResult::Update { affected })
    }

    /// Batched multi-row INSERT: evaluate every row first, then mutate the
    /// table under one write guard (single index pass), take all row locks in
    /// one lock-table acquisition, record undo under one transaction-map
    /// lock, and append the WAL records as one contiguous batch. Per-row the
    /// path does the same work as [`Self::insert`], so recovery replay and
    /// rollback are unchanged; only the synchronization round trips are
    /// amortized across the statement.
    fn insert_batched(
        &self,
        stmt: &InsertStatement,
        params: &[Value],
        txn: TxnId,
    ) -> Result<ExecuteResult> {
        let table = self.table(stmt.table.as_str())?;
        let scope = Scope::new();
        let full_rows = {
            let guard = table.read();
            let mut full_rows = Vec::with_capacity(stmt.rows.len());
            for row_exprs in &stmt.rows {
                let ctx = EvalContext::new(&scope, &[], params);
                let values: Result<Vec<Value>> = row_exprs.iter().map(|e| eval(e, &ctx)).collect();
                full_rows.push(build_full_row(&guard.schema, &stmt.columns, values?)?);
            }
            full_rows
        };
        let inserted = table.write().insert_many(full_rows, txn)?;
        let row_ids: Vec<RowId> = inserted.iter().map(|(id, _)| *id).collect();
        self.locks
            .lock_rows(txn, stmt.table.as_str(), &row_ids, LockIntent::Write)?;
        self.record_undo_batch(
            txn,
            row_ids.iter().map(|&row_id| UndoOp::Insert {
                table: stmt.table.0.clone(),
                row_id,
            }),
        );
        let affected = inserted.len() as u64;
        self.wal
            .append_batch(inserted.into_iter().map(|(row_id, row)| LogRecord::Insert {
                txn,
                table: stmt.table.0.clone(),
                row_id,
                row,
            }));
        Ok(ExecuteResult::Update { affected })
    }

    fn update(
        &self,
        stmt: &UpdateStatement,
        params: &[Value],
        txn: TxnId,
    ) -> Result<ExecuteResult> {
        let table = self.table(stmt.table.as_str())?;
        let binding = stmt.alias.as_deref().unwrap_or(stmt.table.as_str());
        // Plan: find target row ids (index-assisted), then lock and mutate.
        let (targets, scope) = {
            let guard = table.read();
            let scope = Scope::from_table(binding, guard.schema.names());
            let ids =
                self.matching_rows(&guard, binding, &scope, stmt.where_clause.as_ref(), params)?;
            (ids, scope)
        };
        let mut affected = 0u64;
        for row_id in targets {
            self.locks
                .lock_row(txn, stmt.table.as_str(), row_id, LockIntent::Write)?;
            let mut guard = table.write();
            // Re-check the row still matches (it may have changed while we
            // waited for the lock).
            let Some(current) = guard.get(row_id).cloned() else {
                continue;
            };
            if let Some(pred) = &stmt.where_clause {
                let ctx = EvalContext::new(&scope, &current, params);
                if !eval_predicate(pred, &ctx)? {
                    continue;
                }
            }
            let mut new_row = current.clone();
            for assign in &stmt.assignments {
                let col = guard
                    .schema
                    .column_index(&assign.column)
                    .ok_or_else(|| StorageError::ColumnNotFound(assign.column.clone()))?;
                let ctx = EvalContext::new(&scope, &current, params);
                new_row[col] = eval(&assign.value, &ctx)?;
            }
            let before = guard.update(row_id, new_row.clone(), txn)?;
            drop(guard);
            self.record_undo(
                txn,
                UndoOp::Update {
                    table: stmt.table.0.clone(),
                    row_id,
                },
            );
            self.wal.append(LogRecord::Update {
                txn,
                table: stmt.table.0.clone(),
                row_id,
                before,
                after: new_row,
            });
            affected += 1;
        }
        Ok(ExecuteResult::Update { affected })
    }

    fn delete(
        &self,
        stmt: &DeleteStatement,
        params: &[Value],
        txn: TxnId,
    ) -> Result<ExecuteResult> {
        let table = self.table(stmt.table.as_str())?;
        let binding = stmt.alias.as_deref().unwrap_or(stmt.table.as_str());
        let (targets, scope) = {
            let guard = table.read();
            let scope = Scope::from_table(binding, guard.schema.names());
            let ids =
                self.matching_rows(&guard, binding, &scope, stmt.where_clause.as_ref(), params)?;
            (ids, scope)
        };
        let mut affected = 0u64;
        for row_id in targets {
            self.locks
                .lock_row(txn, stmt.table.as_str(), row_id, LockIntent::Write)?;
            let mut guard = table.write();
            let Some(current) = guard.get(row_id).cloned() else {
                continue;
            };
            if let Some(pred) = &stmt.where_clause {
                let ctx = EvalContext::new(&scope, &current, params);
                if !eval_predicate(pred, &ctx)? {
                    continue;
                }
            }
            let before = guard.delete(row_id, txn)?;
            drop(guard);
            self.record_undo(
                txn,
                UndoOp::Delete {
                    table: stmt.table.0.clone(),
                    row_id,
                },
            );
            self.wal.append(LogRecord::Delete {
                txn,
                table: stmt.table.0.clone(),
                row_id,
                before,
            });
            affected += 1;
        }
        Ok(ExecuteResult::Update { affected })
    }

    /// Row ids matching a WHERE clause, using indexes when possible.
    fn matching_rows(
        &self,
        table: &Table,
        binding: &str,
        scope: &Scope,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> Result<Vec<RowId>> {
        // Reuse the SELECT access-path planner so DML gets index speed too.
        let candidates = crate::exec_select::access_path(table, binding, where_clause, params);
        let mut out = Vec::new();
        match candidates {
            Some(ids) => {
                for id in ids {
                    if let Some(row) = table.get(id) {
                        let keep = match where_clause {
                            Some(pred) => {
                                let ctx = EvalContext::new(scope, row, params);
                                eval_predicate(pred, &ctx)?
                            }
                            None => true,
                        };
                        if keep {
                            out.push(id);
                        }
                    }
                }
            }
            None => {
                for (id, row) in table.scan() {
                    let keep = match where_clause {
                        Some(pred) => {
                            let ctx = EvalContext::new(scope, row, params);
                            eval_predicate(pred, &ctx)?
                        }
                        None => true,
                    };
                    if keep {
                        out.push(id);
                    }
                }
            }
        }
        Ok(out)
    }

    // -- DDL -------------------------------------------------------------------

    fn create_table(&self, stmt: &CreateTableStatement) -> Result<ExecuteResult> {
        let mut tables = self.tables.write();
        let key = stmt.name.0.to_lowercase();
        if tables.contains_key(&key) {
            if stmt.if_not_exists {
                return Ok(ExecuteResult::Update { affected: 0 });
            }
            return Err(StorageError::TableAlreadyExists(stmt.name.0.clone()));
        }
        let schema =
            TableSchema::new(stmt.name.0.clone(), stmt.columns.clone(), &stmt.primary_key)?;
        tables.insert(key, Arc::new(RwLock::new(Table::new(schema))));
        drop(tables);
        self.wal.append(LogRecord::CreateTable {
            schema_sql: format_statement(&Statement::CreateTable(stmt.clone()), self.dialect),
        });
        Ok(ExecuteResult::Update { affected: 0 })
    }

    fn drop_table(&self, stmt: &DropTableStatement) -> Result<ExecuteResult> {
        let mut tables = self.tables.write();
        for name in &stmt.names {
            let key = name.0.to_lowercase();
            if tables.remove(&key).is_none() && !stmt.if_exists {
                return Err(StorageError::TableNotFound(name.0.clone()));
            }
            self.wal.append(LogRecord::DropTable {
                table: name.0.clone(),
            });
        }
        Ok(ExecuteResult::Update { affected: 0 })
    }

    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    // -- recovery ----------------------------------------------------------------

    /// Rebuild an engine from a surviving WAL (crash recovery).
    ///
    /// Effects of committed transactions are replayed; transactions that were
    /// active (no prepare/commit) are discarded; prepared transactions are
    /// replayed and left in-doubt for the coordinator's recovery pass, per
    /// the paper's §IV-B.
    pub fn recover(
        name: impl Into<String>,
        latency: LatencyModel,
        wal: SharedLog,
    ) -> Result<Arc<Self>> {
        let records = wal.snapshot();
        let engine = StorageEngine::with_options(name, latency, wal);

        // Classify transactions.
        let mut committed = std::collections::HashSet::new();
        let mut aborted = std::collections::HashSet::new();
        let mut prepared: HashMap<u64, String> = HashMap::new();
        for rec in &records {
            match rec {
                LogRecord::Commit { txn } => {
                    committed.insert(*txn);
                }
                LogRecord::Abort { txn } => {
                    aborted.insert(*txn);
                }
                LogRecord::Prepare { txn, xid } => {
                    prepared.insert(*txn, xid.clone());
                }
                _ => {}
            }
        }

        // Replay committed and prepared transactions' operations in log
        // order as pending versions of their original txn ids, tracking the
        // rows each touched. Active/aborted transactions are never replayed:
        // recovery discards uncommitted versions by construction.
        let mut max_txn = 0u64;
        let mut touched: HashMap<u64, Vec<(String, RowId)>> = HashMap::new();
        for rec in &records {
            if let Some(t) = rec.txn() {
                max_txn = max_txn.max(t);
            }
            match rec {
                LogRecord::CreateTable { schema_sql } => {
                    let stmt = parse_statement(schema_sql)
                        .map_err(|e| StorageError::Execution(format!("bad WAL DDL: {e}")))?;
                    if let Statement::CreateTable(c) = stmt {
                        engine.create_table(&c)?;
                    }
                }
                LogRecord::DropTable { table } => {
                    let _ = engine.drop_table(&DropTableStatement {
                        names: vec![ObjectName::new(table.clone())],
                        if_exists: true,
                    });
                }
                LogRecord::Insert {
                    txn,
                    table,
                    row_id,
                    row,
                } => {
                    let replay = committed.contains(txn) || prepared.contains_key(txn);
                    if replay && !aborted.contains(txn) {
                        let t = engine.table(table)?;
                        t.write().replay_insert(*row_id, row.clone(), *txn);
                        touched
                            .entry(*txn)
                            .or_default()
                            .push((table.clone(), *row_id));
                        if prepared.contains_key(txn) && !committed.contains(txn) {
                            engine.record_undo_recovered(
                                *txn,
                                UndoOp::Insert {
                                    table: table.clone(),
                                    row_id: *row_id,
                                },
                            );
                        }
                    }
                }
                LogRecord::Update {
                    txn,
                    table,
                    row_id,
                    after,
                    ..
                } => {
                    let replay = committed.contains(txn) || prepared.contains_key(txn);
                    if replay && !aborted.contains(txn) {
                        let t = engine.table(table)?;
                        t.write().replay_update(*row_id, after.clone(), *txn)?;
                        touched
                            .entry(*txn)
                            .or_default()
                            .push((table.clone(), *row_id));
                        if prepared.contains_key(txn) && !committed.contains(txn) {
                            engine.record_undo_recovered(
                                *txn,
                                UndoOp::Update {
                                    table: table.clone(),
                                    row_id: *row_id,
                                },
                            );
                        }
                    }
                }
                LogRecord::Delete {
                    txn, table, row_id, ..
                } => {
                    let replay = committed.contains(txn) || prepared.contains_key(txn);
                    if replay && !aborted.contains(txn) {
                        let t = engine.table(table)?;
                        let _ = t.write().delete(*row_id, *txn);
                        touched
                            .entry(*txn)
                            .or_default()
                            .push((table.clone(), *row_id));
                        if prepared.contains_key(txn) && !committed.contains(txn) {
                            engine.record_undo_recovered(
                                *txn,
                                UndoOp::Delete {
                                    table: table.clone(),
                                    row_id: *row_id,
                                },
                            );
                        }
                    }
                }
                _ => {}
            }
        }

        // Stamp the committed transactions' versions at timestamp 1 and
        // publish the clock; prepared-but-undecided versions stay pending
        // (in-doubt) until the coordinator's recovery pass decides them.
        let mut any_committed = false;
        for (txn, rows) in &touched {
            if committed.contains(txn) && !aborted.contains(txn) {
                any_committed = true;
                for (table, row_id) in rows {
                    if let Ok(t) = engine.table(table) {
                        t.write().stamp_commit(*row_id, *txn, 1);
                    }
                }
            }
        }
        if any_committed {
            engine.commit_clock.store(1, Ordering::Release);
        }

        // Register in-doubt transactions.
        {
            let mut txns = engine.txns.lock();
            for (txn, xid) in &prepared {
                if !committed.contains(txn) && !aborted.contains(txn) {
                    let undo = engine.recovered_undo.lock().remove(txn).unwrap_or_default();
                    txns.insert(
                        *txn,
                        TxnState {
                            phase: TxnPhase::Prepared { xid: xid.clone() },
                            undo,
                        },
                    );
                }
            }
        }
        engine.next_txn.store(max_txn + 1, Ordering::SeqCst);
        Ok(engine)
    }
}

/// Build a full-width row from named INSERT columns.
fn build_full_row(
    schema: &TableSchema,
    columns: &[String],
    values: Vec<Value>,
) -> Result<Vec<Value>> {
    if columns.is_empty() {
        return Ok(values);
    }
    let mut row = vec![Value::Null; schema.arity()];
    for (c, v) in columns.iter().zip(values) {
        let idx = schema
            .column_index(c)
            .ok_or_else(|| StorageError::ColumnNotFound(c.clone()))?;
        row[idx] = v;
    }
    Ok(row)
}

impl Catalog for StorageEngine {
    fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        StorageEngine::table(self, name)
    }
}
