//! The one SELECT pipeline. [`SelectRun::open`] is storage's only SELECT
//! dispatcher: it resolves the read view, takes the row-id snapshot, resolves
//! LIMIT/OFFSET and picks the operator. What it returns holds no copy of the
//! statement — every pull borrows it — so the two ways in consume the same
//! state: `StorageEngine::execute` drains it with the caller's statement
//! ([`SelectRun::collect`]), `StorageEngine::open_cursor` wraps it in a
//! [`QueryCursor`] that owns the statement and hands rows out one at a time.
//!
//! Operators, in the order the dispatcher tries them:
//!
//! - **General** — [`execute_select`](crate::exec_select::execute_select)
//!   runs at open and its rows wait in the run: joins, DISTINCT, an ORDER BY
//!   no index keeps, HAVING without aggregates, no FROM, and locking reads
//!   (`FOR UPDATE` inside a transaction, which must see and lock the rows as
//!   they stand). It shares no scan code with the leaves below, which is
//!   what lets the tests use it as their reference.
//! - **Batch** (plain or grouped) — [`batch_admissible`] shapes: columnar
//!   fetches over the snapshot; grouped statements drain on the first pull
//!   and hand out the finished group rows.
//! - **Row scan** — what is left (a LIMIT, an ORDER BY an index keeps, or
//!   `FOR UPDATE` outside a transaction): one fetch, filter and projection
//!   per pull, in access-path or index order, stopping when the LIMIT is
//!   full. The table lock is taken per fetch and never held across pulls, so
//!   a slow consumer cannot block writers.
//!
//! Hooks, the same for both consumers: a `RowPull` fault point per row or
//! batch pulled, `rows_pulled` per source row a leaf fetches (the general
//! executor counts nothing, so a test asserting early LIMIT termination
//! cannot pass through it by accident), and `per_row` latency per row that
//! leaves the engine.

use crate::batch::{batch_admissible, BatchGroupedState, BatchSource};
use crate::engine::StorageEngine;
use crate::error::{Result, StorageError};
use crate::eval::{eval_predicate, EvalContext, Scope};
use crate::exec_select::{
    access_path, index_order, needs_grouping, project_row, projection_columns, resolve_limit,
    truncate_to_window,
};
use crate::fault::{FaultInjector, FaultOp};
use crate::index::RowId;
use crate::latency::LatencyModel;
use crate::lock::TxnId;
use crate::mvcc::ReadView;
use crate::result::ResultSet;
use crate::table::Table;
use parking_lot::RwLock;
use shard_sql::ast::*;
use shard_sql::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The engine's side of every SELECT — what a run reports into and can be
/// interrupted by — behind one `Arc`, so a cursor that outlives the call
/// that opened it keeps reporting.
pub(crate) struct SelectHooks {
    pub latency: LatencyModel,
    pub faults: FaultInjector,
    /// Source rows fetched by the scan leaves.
    pub rows_pulled: AtomicU64,
    /// Row chains the leaves visited to fetch them: the attempts behind
    /// `rows_pulled`. A leaf that walks over chains nobody asked for shows
    /// here and nowhere else.
    pub fetch_steps: AtomicU64,
    /// Columnar batches fetched / rows delivered in them.
    pub scan_batches: AtomicU64,
    pub scan_batch_rows: AtomicU64,
}

/// One SELECT in progress: the operator the dispatcher picked plus the rows
/// it has finished and not yet handed out.
pub(crate) struct SelectRun {
    columns: Vec<String>,
    hooks: Arc<SelectHooks>,
    /// The general executor's whole result, one batch's projected rows, or
    /// the finished groups.
    ready: std::vec::IntoIter<Vec<Value>>,
    source: Source,
}

enum Source {
    /// Everything is in `ready` already.
    General,
    Rows(RowScan),
    Batch(BatchSource),
    /// `state` is taken by the pull that drains `source`; if that pull
    /// fails, later ones find nothing.
    Grouped {
        source: BatchSource,
        state: Option<Box<BatchGroupedState>>,
        offset: u64,
        limit: Option<u64>,
    },
}

impl SelectRun {
    pub(crate) fn open(
        engine: &StorageEngine,
        stmt: &SelectStatement,
        params: &[Value],
        txn: Option<TxnId>,
    ) -> Result<SelectRun> {
        // A locking read wants the rows it is about to lock as they stand,
        // not a snapshot — and only a transaction can hold locks, so
        // FOR UPDATE outside one is a plain snapshot read.
        let locking = stmt.for_update && txn.is_some();
        let view = if locking {
            ReadView::Latest
        } else {
            engine.read_view(txn)
        };
        let general = |view: ReadView| -> Result<SelectRun> {
            let rs = engine.select_general(stmt, params, txn, &view)?;
            let hooks = engine.select_hooks();
            hooks.latency.charge_rows(rs.len());
            Ok(SelectRun {
                columns: rs.columns,
                hooks,
                ready: rs.rows.into_iter(),
                source: Source::General,
            })
        };

        let grouped = needs_grouping(stmt);
        let batch = batch_admissible(stmt);
        let Some(from) = &stmt.from else {
            return general(view);
        };
        if locking
            || !stmt.joins.is_empty()
            || stmt.distinct
            || (grouped && !batch)
            || (!grouped && stmt.having.is_some())
        {
            return general(view);
        }

        // The id snapshot. Grouped statements sort their finished groups, so
        // their source order is the general executor's (first-seen group
        // order stays identical); a plain ORDER BY needs an index that
        // already keeps it.
        let binding = from.binding_name();
        let table = engine.table(from.name.as_str())?;
        let guard = table.read();
        let ids: Vec<RowId> = if grouped || stmt.order_by.is_empty() {
            access_path(&guard, binding, stmt.where_clause.as_ref(), params)
                .unwrap_or_else(|| guard.all_ids().collect())
        } else {
            match index_order(&guard, binding, &stmt.order_by) {
                Some(ids) => ids,
                None => {
                    drop(guard);
                    return general(view);
                }
            }
        };
        let names = Arc::clone(guard.schema.names());
        drop(guard);

        let (offset, limit) = resolve_limit(stmt, params)?;
        let (columns, source) = if batch {
            let (source, columns) = BatchSource::open(table, stmt, binding, ids, &names, view)?;
            let source = if grouped {
                Source::Grouped {
                    state: Some(Box::new(BatchGroupedState::new(stmt, source.scope()))),
                    source,
                    offset,
                    limit,
                }
            } else {
                Source::Batch(source)
            };
            (columns, source)
        } else {
            let scope = Scope::from_table(binding, &names);
            let columns = projection_columns(&stmt.projection, &scope)?;
            let scan = RowScan {
                table,
                ids: ids.into_iter(),
                scope,
                view,
                to_skip: offset,
                remaining: limit,
            };
            (columns, Source::Rows(scan))
        };
        Ok(SelectRun {
            columns,
            hooks: engine.select_hooks(),
            ready: Vec::new().into_iter(),
            source,
        })
    }

    /// Pull the next row, or `None` when the run is exhausted. `stmt` and
    /// `params` must be the ones the run was opened with.
    pub(crate) fn next(
        &mut self,
        stmt: &SelectStatement,
        params: &[Value],
    ) -> Result<Option<Vec<Value>>> {
        loop {
            if let Some(row) = self.ready.next() {
                return Ok(Some(row));
            }
            let hooks = &*self.hooks;
            let rows = match &mut self.source {
                Source::General => return Ok(None),
                Source::Rows(scan) => {
                    let row = scan.next(stmt, params, hooks)?;
                    hooks.latency.charge_rows(usize::from(row.is_some()));
                    return Ok(row);
                }
                Source::Batch(source) => match source.next_rows(stmt, params, hooks)? {
                    Some(rows) => rows,
                    None => return Ok(None),
                },
                Source::Grouped {
                    source,
                    state,
                    offset,
                    limit,
                } => {
                    let Some(state) = state.take() else {
                        return Ok(None);
                    };
                    let mut rows = source.aggregate(*state, stmt, params, hooks)?;
                    truncate_to_window(&mut rows, *offset, *limit);
                    rows
                }
            };
            hooks.latency.charge_rows(rows.len());
            self.ready = rows.into_iter();
        }
    }

    /// Drain the run into a result set.
    pub(crate) fn collect(mut self, stmt: &SelectStatement, params: &[Value]) -> Result<ResultSet> {
        // Whatever is ready moves over whole, not row by row: the general
        // executor's result becomes the result's vector as it is.
        let mut rows: Vec<Vec<Value>> = std::mem::take(&mut self.ready).collect();
        while let Some(row) = self.next(stmt, params)? {
            rows.push(row);
            rows.extend(self.ready.by_ref());
        }
        Ok(ResultSet::new(self.columns, rows))
    }
}

/// Incremental scan over one table: row ids snapshotted at open, everything
/// else (fetch, WHERE, OFFSET skip, projection, LIMIT countdown) per pull.
struct RowScan {
    table: Arc<RwLock<Table>>,
    ids: std::vec::IntoIter<RowId>,
    scope: Scope,
    /// Visibility of each fetched row: the statement's read view, so rows
    /// deleted or updated mid-scan keep their as-of-open image.
    view: ReadView,
    /// Rows still to skip for OFFSET (counted post-WHERE).
    to_skip: u64,
    /// Rows still to emit for LIMIT (`None` = unlimited).
    remaining: Option<u64>,
}

impl RowScan {
    fn next(
        &mut self,
        stmt: &SelectStatement,
        params: &[Value],
        hooks: &SelectHooks,
    ) -> Result<Option<Vec<Value>>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        // Mid-scan fault point, once per pull: for a cursor it fires after
        // the open has succeeded, which is what the kernel's sibling-cancel
        // tests exercise.
        hooks.faults.check(FaultOp::RowPull)?;
        loop {
            let Some(id) = self.ids.next() else {
                return Ok(None);
            };
            hooks.fetch_steps.fetch_add(1, Ordering::Relaxed);
            // Lock scope is one fetch: the guard must never live across
            // pulls (a cursor's consumer paces us and may hold a row for
            // long).
            let row = { self.table.read().get_visible(id, &self.view).cloned() };
            let Some(row) = row else { continue };
            hooks.rows_pulled.fetch_add(1, Ordering::Relaxed);
            if let Some(pred) = &stmt.where_clause {
                let ctx = EvalContext::new(&self.scope, &row, params);
                if !eval_predicate(pred, &ctx)? {
                    continue;
                }
            }
            if self.to_skip > 0 {
                self.to_skip -= 1;
                continue;
            }
            let out = project_row(&stmt.projection, &self.scope, &row, params, None)?;
            if let Some(rem) = &mut self.remaining {
                *rem -= 1;
            }
            return Ok(Some(out));
        }
    }
}

/// An open cursor over one SELECT's result rows: a [`SelectRun`] together
/// with the statement and parameters its pulls borrow. This is what the
/// sharding kernel's streaming executor pulls from.
pub struct QueryCursor {
    run: SelectRun,
    stmt: SharedSelect,
    params: Arc<[Value]>,
}

/// A statement known to be a SELECT, shared with whoever planned it.
pub(crate) struct SharedSelect(Arc<Statement>);

impl SharedSelect {
    pub(crate) fn new(stmt: Arc<Statement>) -> Result<Self> {
        match &*stmt {
            Statement::Select(_) => Ok(SharedSelect(stmt)),
            other => Err(StorageError::Execution(format!(
                "a cursor opens over a SELECT, not {:?}",
                other.category()
            ))),
        }
    }
}

impl std::ops::Deref for SharedSelect {
    type Target = SelectStatement;

    fn deref(&self) -> &SelectStatement {
        match &*self.0 {
            Statement::Select(select) => select,
            _ => unreachable!("`SharedSelect::new` admits SELECTs only"),
        }
    }
}

impl QueryCursor {
    pub(crate) fn new(run: SelectRun, stmt: SharedSelect, params: Arc<[Value]>) -> Self {
        QueryCursor { run, stmt, params }
    }

    pub fn columns(&self) -> &[String] {
        &self.run.columns
    }

    /// True when a scan leaf produces the rows as they are pulled (the
    /// general executor computes its whole result at open).
    pub fn is_streaming(&self) -> bool {
        !matches!(self.run.source, Source::General)
    }

    /// True when rows come from the vectorized batch leaf, so consumers
    /// (the kernel executor's pumps) can drain in chunks instead of
    /// row-at-a-time.
    pub fn is_batch(&self) -> bool {
        matches!(self.run.source, Source::Batch(_) | Source::Grouped { .. })
    }

    /// Pull the next row, or `None` when the cursor is exhausted.
    pub fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        self.run.next(&self.stmt, &self.params)
    }

    /// Pull up to `max` rows. An error mid-drain discards nothing: rows
    /// already pulled are returned by value only when the whole chunk is
    /// clean, matching the executor's all-or-cancel error handling.
    pub fn next_rows(&mut self, max: usize) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            match self.next_row()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out)
    }
}

impl Iterator for QueryCursor {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::StorageEngine;
    use crate::fault::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
    use shard_sql::{parse_statement, Statement, Value};
    use std::sync::Arc;

    fn engine_with_rows(n: i64) -> Arc<StorageEngine> {
        let e = StorageEngine::new("ds");
        e.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
            .unwrap();
        for i in 0..n {
            e.execute_sql(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i % 7)],
                None,
            )
            .unwrap();
        }
        e
    }

    fn select(sql: &str) -> shard_sql::ast::SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// Which operator the dispatcher is expected to pick.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Leaf {
        General,
        Row,
        Batch,
    }

    /// Run `sql` through both consumers of the one pipeline — `execute`
    /// (collect) and `open_cursor` + drain — and through the general
    /// executor (`exec_select::execute_select`), which shares no scan code
    /// with the leaves. All three must return the same columns and rows,
    /// the cursor must be served by `leaf`, both consumers must leave the
    /// same `rows_pulled` / `scan_batches` deltas, and an armed `RowPull`
    /// fault must fail both whenever a leaf pulls anything (and neither on
    /// the general path, which has no pulls).
    fn assert_matches_materialized(
        e: &StorageEngine,
        sql: &str,
        params: &[Value],
        leaf: Leaf,
    ) -> Vec<Vec<Value>> {
        let stmt = select(sql);
        let whole = Arc::new(Statement::Select(stmt.clone()));
        let counters = || (e.rows_pulled(), e.scan_batches());
        let delta = |before: (u64, u64)| (e.rows_pulled() - before.0, e.scan_batches() - before.1);
        let drain = || -> crate::error::Result<_> {
            let cursor = e.open_cursor(Arc::clone(&whole), params.into(), None)?;
            let served_by = match (cursor.is_streaming(), cursor.is_batch()) {
                (false, _) => Leaf::General,
                (true, false) => Leaf::Row,
                (true, true) => Leaf::Batch,
            };
            assert_eq!(served_by, leaf, "{sql}");
            let columns = cursor.columns().to_vec();
            Ok((columns, cursor.collect::<crate::error::Result<Vec<_>>>()?))
        };

        let reference =
            crate::exec_select::execute_select(e, &stmt, params, &e.read_view(None)).unwrap();
        let before = counters();
        let collected = e.execute(&whole, params, None).unwrap().query();
        let collected_delta = delta(before);
        let before = counters();
        let (columns, rows) = drain().unwrap();
        assert_eq!(delta(before), collected_delta, "{sql}");
        assert_eq!(columns, reference.columns, "{sql}");
        assert_eq!(collected.columns, reference.columns, "{sql}");
        assert_eq!(rows, reference.rows, "{sql}");
        assert_eq!(collected.rows, reference.rows, "{sql}");
        if leaf == Leaf::General {
            assert_eq!(collected_delta, (0, 0), "{sql}");
        }

        e.fault_injector().inject(FaultPlan::new(
            FaultOp::RowPull,
            FaultKind::Error("pull".into()),
            FaultTrigger::EveryNth(1),
        ));
        let collect_failed = e.execute(&whole, params, None).is_err();
        let drain_failed = drain().is_err();
        e.clear_faults();
        assert_eq!(collect_failed, drain_failed, "{sql}");
        assert_eq!(collect_failed, collected_delta.0 > 0, "{sql}");
        rows
    }

    #[test]
    fn shard_shaped_order_by_limit_streams() {
        let e = engine_with_rows(50);
        let sql = "SELECT id, v FROM t ORDER BY id DESC LIMIT 5";
        let rows = assert_matches_materialized(&e, sql, &[], Leaf::Row);
        assert_eq!(rows[0][0], Value::Int(49));
    }

    #[test]
    fn streaming_matches_materialized_with_where_and_offset() {
        let e = engine_with_rows(60);
        let sql = "SELECT id FROM t WHERE v = 3 ORDER BY id LIMIT 2, 4";
        assert_eq!(
            assert_matches_materialized(&e, sql, &[], Leaf::Row).len(),
            4
        );
    }

    #[test]
    fn batch_scan_matches_materialized() {
        // 300 rows: more than one columnar batch per scan.
        let e = engine_with_rows(300);
        for sql in [
            "SELECT id, v FROM t",
            "SELECT v, id FROM t WHERE v = 3",
            "SELECT id + v, v * 2 FROM t WHERE id >= 17 AND v <> 0",
            "SELECT * FROM t WHERE id IN (1, 2, 299)",
        ] {
            assert!(!assert_matches_materialized(&e, sql, &[], Leaf::Batch).is_empty());
        }
        let none = "SELECT id FROM t WHERE v > 9";
        assert!(assert_matches_materialized(&e, none, &[], Leaf::Batch).is_empty());
    }

    /// `ORDER BY <indexed column> LIMIT` stops after the window through both
    /// consumers: the index already keeps the order, so nothing is sorted.
    #[test]
    fn limit_stops_pulling_early() {
        let e = engine_with_rows(200);
        let stmt = Arc::new(Statement::Select(select(
            "SELECT id FROM t ORDER BY id LIMIT 3, 5",
        )));
        let before = e.rows_pulled();
        let mut cursor = e.open_cursor(Arc::clone(&stmt), [].into(), None).unwrap();
        assert!(cursor.is_streaming());
        let mut n = 0;
        while cursor.next_row().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        let pulled = e.rows_pulled() - before;
        assert!(pulled <= 8, "cursor pulled {pulled} rows for LIMIT 3, 5");

        let before = e.rows_pulled();
        let rs = e.execute(&stmt, &[], None).unwrap();
        assert_eq!(rs.query().len(), 5);
        let pulled = e.rows_pulled() - before;
        assert!(pulled <= 8, "execute pulled {pulled} rows for LIMIT 3, 5");
    }

    /// The benchmark's drift (ROADMAP item 6 (iii)). A `DELETE` + `INSERT`
    /// of one key gives the row a fresh id at the end of the table, so a
    /// primary-key range over it is a snapshot like `[49, 10 001, 51]`: three
    /// rows, ten thousand ids apart. Fetching them must visit them, not what
    /// lies between — through both consumers, with the general executor's
    /// rows.
    #[test]
    fn a_short_range_over_relocated_rows_visits_only_its_rows() {
        let e = engine_with_rows(10_000);
        for id in (0..10_000).step_by(50) {
            e.execute_sql("DELETE FROM t WHERE id = ?", &[Value::Int(id)], None)
                .unwrap();
            let row = [Value::Int(id), Value::Int(id % 7)];
            e.execute_sql("INSERT INTO t (id, v) VALUES (?, ?)", &row, None)
                .unwrap();
        }
        let sql = "SELECT id, v FROM t WHERE id BETWEEN ? AND ?";
        let before = (e.rows_pulled(), e.fetch_steps());
        let mut returned = 0;
        for r in 0..200 {
            // The relocated key 50 (r + 1) ends, sits inside or starts the range.
            let low = 50 * r + 48 + r % 3;
            let params = [Value::Int(low), Value::Int(low + 2)];
            let rows = assert_matches_materialized(&e, sql, &params, Leaf::Batch);
            assert_eq!(rows.len() as i64, (10_000 - low).min(3));
            returned += rows.len() as u64;
        }
        let pulled = e.rows_pulled() - before.0;
        let steps = e.fetch_steps() - before.1;
        assert_eq!(pulled, 2 * returned, "execute and the cursor, each once");
        // A key deleted and not yet vacuumed keeps its dead chain in the
        // index, one extra visit; nothing else is. The merge-walk this
        // replaced visited 673 270 chains for the same 1 196 rows: every
        // range that ended in a relocated row walked to the end of the table.
        assert!(
            pulled <= steps && steps <= 2 * pulled,
            "{steps} chains visited for {pulled} rows"
        );
    }

    #[test]
    fn aggregates_stream_via_grouped_cursor() {
        let e = engine_with_rows(10);
        let rows = assert_matches_materialized(&e, "SELECT COUNT(*) FROM t", &[], Leaf::Batch);
        assert_eq!(rows, vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn group_by_streams_and_matches_materialized() {
        let e = engine_with_rows(300);
        for sql in [
            "SELECT v, COUNT(*), SUM(id) FROM t WHERE id < 40 \
             GROUP BY v HAVING COUNT(*) > 2 ORDER BY v",
            "SELECT v, MIN(id), MAX(id), AVG(id) FROM t GROUP BY v ORDER BY v DESC LIMIT 1, 3",
            "SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE id >= 100",
        ] {
            assert!(!assert_matches_materialized(&e, sql, &[], Leaf::Batch).is_empty());
        }
    }

    #[test]
    fn grouped_cursor_empty_input_yields_one_row() {
        let e = engine_with_rows(5);
        let sql = "SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t WHERE id > 100";
        assert_eq!(
            assert_matches_materialized(&e, sql, &[], Leaf::Batch),
            vec![vec![Value::Int(0), Value::Null, Value::Null, Value::Null]]
        );
    }

    #[test]
    fn joins_and_distinct_fall_back_to_materialized() {
        let e = engine_with_rows(10);
        assert_matches_materialized(&e, "SELECT DISTINCT v FROM t", &[], Leaf::General);
        let join = "SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id WHERE a.v = 3";
        assert_matches_materialized(&e, join, &[], Leaf::General);
    }

    #[test]
    fn unindexed_order_by_falls_back() {
        let e = engine_with_rows(10);
        assert_matches_materialized(&e, "SELECT id FROM t ORDER BY v", &[], Leaf::General);
    }

    /// The benchmark's statement shapes (`crates/perf/src/gen.rs`) and the
    /// shapes `batch.rs` tests admission on, each through both consumers
    /// and against the reference.
    #[test]
    fn benchmark_shapes_match_the_reference_through_both_consumers() {
        let e = StorageEngine::new("ds");
        for ddl in [
            "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT NOT NULL DEFAULT 0, \
             c VARCHAR(120) NOT NULL DEFAULT '', pad VARCHAR(60) NOT NULL DEFAULT '', \
             PRIMARY KEY (id))",
            "CREATE TABLE t_hits (event_id BIGINT PRIMARY KEY, user_id BIGINT, \
             region VARCHAR(16), referer VARCHAR(64), duration_ms INT, bytes_sent BIGINT, \
             price DOUBLE)",
            "CREATE TABLE t (id BIGINT PRIMARY KEY, status VARCHAR(8), amount INT)",
            "CREATE TABLE a (id BIGINT PRIMARY KEY, x INT)",
            "CREATE TABLE b (id BIGINT PRIMARY KEY, y INT)",
        ] {
            e.execute_sql(ddl, &[], None).unwrap();
        }
        let insert = |sql: &str, row: Vec<Value>| {
            e.execute_sql(sql, &row, None).unwrap();
        };
        for id in 0..300i64 {
            // `c` repeats, so DISTINCT has something to do.
            let c = format!("c-{:03}", (id * 37) % 11);
            let row = vec![id.into(), (id % 1000 + 1).into(), c.into(), "pad".into()];
            insert("INSERT INTO sbtest VALUES (?, ?, ?, ?)", row);
        }
        // More than two columnar batches, NULL-bearing columns.
        for id in 0..2500i64 {
            let nullable = |null: bool, v: Value| if null { Value::Null } else { v };
            let row = vec![
                id.into(),
                (id % 500).into(),
                format!("r{}", id % 6).into(),
                nullable(
                    id % 4 == 0,
                    format!("https://ref{}.example.com", id % 97).into(),
                ),
                nullable(id % 5 == 0, ((id * 37) % 30_000).into()),
                ((id * 211) % 1_000_000).into(),
                Value::Float(((id * 31) % 10_000) as f64 / 100.0),
            ];
            insert("INSERT INTO t_hits VALUES (?, ?, ?, ?, ?, ?, ?)", row);
        }
        for id in 0..40i64 {
            let status = if id % 3 == 0 { "open" } else { "paid" };
            insert(
                "INSERT INTO t VALUES (?, ?, ?)",
                vec![id.into(), status.into(), (id % 9).into()],
            );
            insert(
                "INSERT INTO a VALUES (?, ?)",
                vec![id.into(), (id * 2).into()],
            );
            if id % 2 == 0 {
                insert("INSERT INTO b VALUES (?, ?)", vec![id.into(), id.into()]);
            }
        }

        let range = [Value::Int(120), Value::Int(139)];
        let cases: [(&str, &[Value], Leaf); 18] = [
            (
                "SELECT c FROM sbtest WHERE id = ?",
                &[Value::Int(7)],
                Leaf::Batch,
            ),
            (
                "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?",
                &range,
                Leaf::Batch,
            ),
            (
                "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
                &range,
                Leaf::Batch,
            ),
            (
                "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
                &range,
                Leaf::General,
            ),
            (
                "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
                &range,
                Leaf::General,
            ),
            (
                "SELECT region, COUNT(*), SUM(bytes_sent), AVG(duration_ms), MIN(price), \
                 MAX(price) FROM t_hits GROUP BY region ORDER BY region",
                &[],
                Leaf::Batch,
            ),
            (
                "SELECT COUNT(*), COUNT(referer), SUM(bytes_sent), MAX(price) FROM t_hits \
                 WHERE duration_ms > ?",
                &[Value::Int(12_000)],
                Leaf::Batch,
            ),
            (
                "SELECT event_id, user_id, bytes_sent FROM t_hits WHERE duration_ms < ? \
                 ORDER BY bytes_sent DESC LIMIT 20",
                &[Value::Int(18_000)],
                Leaf::General,
            ),
            (
                "SELECT event_id, region, bytes_sent FROM t_hits WHERE user_id = ?",
                &[Value::Int(318)],
                Leaf::Batch,
            ),
            // `batch.rs::admission_mirrors_row_cursor_guarantees`.
            (
                "SELECT status, SUM(amount) FROM t GROUP BY status",
                &[],
                Leaf::Batch,
            ),
            ("SELECT COUNT(*) FROM t WHERE amount > 3", &[], Leaf::Batch),
            (
                "SELECT status, COUNT(*) FROM t GROUP BY status ORDER BY status LIMIT 2",
                &[],
                Leaf::Batch,
            ),
            ("SELECT amount FROM t", &[], Leaf::Batch),
            ("SELECT amount FROM t LIMIT 5", &[], Leaf::Row),
            ("SELECT amount FROM t ORDER BY amount", &[], Leaf::General),
            ("SELECT DISTINCT amount FROM t", &[], Leaf::General),
            (
                "SELECT a.x FROM a JOIN b ON a.id = b.id",
                &[],
                Leaf::General,
            ),
            // Outside a transaction FOR UPDATE locks nothing: a row scan.
            ("SELECT amount FROM t FOR UPDATE", &[], Leaf::Row),
        ];
        for (sql, params, leaf) in cases {
            assert!(
                !assert_matches_materialized(&e, sql, params, leaf).is_empty(),
                "{sql}"
            );
        }
        // The one shape only the general executor aggregates: a locking
        // clause keeps the batch leaf out.
        let locked_count = "SELECT COUNT(*) FROM t FOR UPDATE";
        let rows = assert_matches_materialized(&e, locked_count, &[], Leaf::General);
        assert_eq!(rows, vec![vec![Value::Int(40)]]);
    }

    #[test]
    fn snapshot_scan_still_sees_rows_deleted_mid_scan() {
        let e = engine_with_rows(10);
        let stmt = Arc::new(Statement::Select(select("SELECT id FROM t ORDER BY id")));
        let mut cursor = e.open_cursor(stmt, [].into(), None).unwrap();
        assert_eq!(cursor.next_row().unwrap(), Some(vec![Value::Int(0)]));
        e.execute_sql("DELETE FROM t WHERE id = 1", &[], None)
            .unwrap();
        // The cursor's snapshot predates the delete, so id = 1 is still
        // visible to it even though the current state has lost the row.
        assert_eq!(cursor.next_row().unwrap(), Some(vec![Value::Int(1)]));
    }

    #[test]
    fn locking_read_in_a_transaction_sees_latest_state() {
        let e = engine_with_rows(3);
        let writer = e.begin();
        e.execute_sql("DELETE FROM t WHERE id = 1", &[], Some(writer))
            .unwrap();
        let ids = |sql: &str, txn| -> Vec<Value> {
            let stmt = Arc::new(Statement::Select(select(sql)));
            let cursor = e.open_cursor(stmt, [].into(), txn).unwrap();
            cursor.map(|r| r.unwrap().remove(0)).collect()
        };
        // A snapshot read does not see the uncommitted delete ...
        let all = vec![Value::Int(0), Value::Int(1), Value::Int(2)];
        assert_eq!(ids("SELECT id FROM t ORDER BY id", None), all);
        // ... but FOR UPDATE inside a transaction resolves `ReadView::Latest`:
        // it reads (and locks) the rows as they currently stand, so the row
        // another transaction has already deleted is not among them.
        let reader = e.begin();
        assert_eq!(
            ids("SELECT id FROM t ORDER BY id FOR UPDATE", Some(reader)),
            vec![Value::Int(0), Value::Int(2)]
        );
        // Outside a transaction FOR UPDATE locks nothing and reads a snapshot.
        assert_eq!(ids("SELECT id FROM t ORDER BY id FOR UPDATE", None), all);
        e.rollback(reader).unwrap();
        e.rollback(writer).unwrap();
    }
}
