//! Pull-based SELECT cursors: rows leave the engine one at a time instead of
//! being collected into a [`ResultSet`] first.
//!
//! A [`QueryCursor`] is what the sharding kernel's streaming executor pulls
//! from. Two shapes exist behind it:
//!
//! - **Scan** — a true incremental cursor over one base table. Row ids are
//!   snapshotted at open (in index-key order when an index satisfies the
//!   ORDER BY, otherwise in access-path order); each pull fetches, filters,
//!   and projects exactly one row. The table lock is taken per pull and
//!   never held across pulls, so a slow consumer cannot block writers.
//! - **Grouped** — an incremental aggregate cursor: source rows are drained
//!   through [`GroupedState`] accumulators on the first pull (per-row fault
//!   points and lock-per-fetch like Scan), then the finished per-group rows
//!   stream out. This is what partial-aggregate pushdown rides on — each
//!   shard returns one row per group instead of its raw rows.
//! - **Materialized** — a fallback wrapping the classic `execute_select`
//!   output for statement shapes the incremental path cannot stream (joins,
//!   DISTINCT, un-indexed ORDER BY).
//!
//! The per-engine `rows_pulled` counter only counts rows fetched by the Scan
//! shape, so tests asserting early LIMIT termination cannot pass by accident
//! through the materialized fallback.

use crate::batch::{
    batch_admissible, open_source, BatchCounters, BatchGroupedCursor, BatchHooks, BatchScanCursor,
};
use crate::error::{Result, StorageError};
use crate::eval::{eval_predicate, EvalContext, Scope};
use crate::exec_select::{
    access_path, column_of, needs_grouping, project_row, projection_columns, Catalog, GroupedState,
};
use crate::fault::{FaultInjector, FaultOp};
use crate::index::RowId;
use crate::latency::LatencyModel;
use crate::mvcc::ReadView;
use crate::result::ResultSet;
use crate::table::Table;
use parking_lot::RwLock;
use shard_sql::ast::*;
use shard_sql::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An open cursor over one SELECT's result rows.
pub struct QueryCursor {
    columns: Vec<String>,
    inner: CursorInner,
}

enum CursorInner {
    Materialized(std::vec::IntoIter<Vec<Value>>),
    Scan(Box<ScanCursor>),
    Grouped(Box<GroupedScanCursor>),
    BatchScan(Box<BatchScanCursor>),
    BatchGrouped(Box<BatchGroupedCursor>),
}

impl QueryCursor {
    /// Wrap an already-computed result set (the non-streamable fallback).
    pub fn materialized(rs: ResultSet) -> Self {
        QueryCursor {
            columns: rs.columns,
            inner: CursorInner::Materialized(rs.rows.into_iter()),
        }
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// True when rows are produced incrementally from the table (not from a
    /// pre-materialized result set).
    pub fn is_streaming(&self) -> bool {
        matches!(
            self.inner,
            CursorInner::Scan(_)
                | CursorInner::Grouped(_)
                | CursorInner::BatchScan(_)
                | CursorInner::BatchGrouped(_)
        )
    }

    /// True when rows come from the vectorized batch-scan path, so consumers
    /// (the streaming executor's producers) can drain in chunks instead of
    /// row-at-a-time.
    pub fn is_batch(&self) -> bool {
        matches!(
            self.inner,
            CursorInner::BatchScan(_) | CursorInner::BatchGrouped(_)
        )
    }

    /// Pull the next row, or `None` when the cursor is exhausted.
    pub fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        match &mut self.inner {
            CursorInner::Materialized(it) => Ok(it.next()),
            CursorInner::Scan(scan) => scan.next_row(),
            CursorInner::Grouped(grouped) => grouped.next_row(),
            CursorInner::BatchScan(c) => c.next_row(),
            CursorInner::BatchGrouped(c) => c.next_row(),
        }
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

/// Incremental scan over one table: row ids snapshotted at open, everything
/// else (fetch, WHERE, OFFSET skip, projection, LIMIT countdown) per pull.
struct ScanCursor {
    table: Arc<RwLock<Table>>,
    ids: std::vec::IntoIter<RowId>,
    scope: Scope,
    projection: Vec<SelectItem>,
    where_clause: Option<Expr>,
    params: Vec<Value>,
    /// Rows still to skip for OFFSET (counted post-WHERE).
    to_skip: u64,
    /// Rows still to emit for LIMIT (`None` = unlimited).
    remaining: Option<u64>,
    /// Visibility of each fetched row: the statement snapshot taken at open,
    /// so rows deleted or updated mid-scan keep their as-of-open image.
    view: ReadView,
    pulled: Arc<AtomicU64>,
    latency: LatencyModel,
    faults: Arc<FaultInjector>,
}

impl ScanCursor {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        // Mid-stream fault point: fires after the header handshake, which is
        // what the kernel's sibling-cancel tests exercise.
        self.faults.check(FaultOp::RowPull)?;
        loop {
            let Some(id) = self.ids.next() else {
                return Ok(None);
            };
            // Lock scope is one fetch: the guard must never live across
            // pulls (the consumer paces us and may hold a row for long).
            let row = { self.table.read().get_visible(id, &self.view).cloned() };
            let Some(row) = row else { continue };
            self.pulled.fetch_add(1, Ordering::Relaxed);
            self.latency.charge_rows(1);
            if let Some(pred) = &self.where_clause {
                let ctx = EvalContext::new(&self.scope, &row, &self.params);
                if !eval_predicate(pred, &ctx)? {
                    continue;
                }
            }
            if self.to_skip > 0 {
                self.to_skip -= 1;
                continue;
            }
            let out = project_row(&self.projection, &self.scope, &row, &self.params, None)?;
            if let Some(rem) = &mut self.remaining {
                *rem -= 1;
            }
            return Ok(Some(out));
        }
    }
}

/// Incremental grouped/aggregate cursor. The first pull drains the source
/// rows through [`GroupedState`] (per-row fault point, lock-per-fetch, pull
/// accounting — same discipline as [`ScanCursor`]), finishes the groups
/// (HAVING / ORDER BY / projection / LIMIT), then streams the group rows.
struct GroupedScanCursor {
    table: Arc<RwLock<Table>>,
    ids: std::vec::IntoIter<RowId>,
    scope: Scope,
    stmt: SelectStatement,
    params: Vec<Value>,
    view: ReadView,
    state: Option<GroupedState>,
    offset: u64,
    limit: Option<u64>,
    out: Option<std::vec::IntoIter<Vec<Value>>>,
    pulled: Arc<AtomicU64>,
    latency: LatencyModel,
    faults: Arc<FaultInjector>,
}

impl GroupedScanCursor {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if self.out.is_none() {
            // A prior pull errored mid-drain (the state is gone): stay done.
            let Some(mut state) = self.state.take() else {
                return Ok(None);
            };
            for id in self.ids.by_ref() {
                // Mid-stream fault point, once per source-row pull — chaos
                // tests inject here to kill a shard mid-aggregation.
                self.faults.check(FaultOp::RowPull)?;
                // Lock scope is one fetch, as in ScanCursor.
                let row = { self.table.read().get_visible(id, &self.view).cloned() };
                let Some(row) = row else { continue };
                self.pulled.fetch_add(1, Ordering::Relaxed);
                self.latency.charge_rows(1);
                if let Some(pred) = &self.stmt.where_clause {
                    let ctx = EvalContext::new(&self.scope, &row, &self.params);
                    if !eval_predicate(pred, &ctx)? {
                        continue;
                    }
                }
                state.push(&self.stmt, &self.scope, &row, &self.params)?;
            }
            let rs = state.finish(&self.stmt, &self.scope, &self.params)?;
            let mut rows = rs.rows;
            if self.offset > 0 {
                let skip = (self.offset as usize).min(rows.len());
                rows.drain(..skip);
            }
            if let Some(lim) = self.limit {
                rows.truncate(lim as usize);
            }
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().unwrap().next())
    }
}

fn resolve_limit_value(
    v: Option<&LimitValue>,
    params: &[Value],
    what: &str,
) -> Result<Option<u64>> {
    v.map(|v| {
        v.resolve(params)
            .ok_or_else(|| StorageError::Execution(format!("unresolvable {what}")))
    })
    .transpose()
}

/// Try to open a true streaming cursor for `stmt`. Returns `Ok(None)` when
/// the statement shape needs the materialized path (joins, DISTINCT, or an
/// ORDER BY no index can satisfy). Grouped/aggregate statements stream via
/// [`GroupedScanCursor`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_open_streaming(
    catalog: &dyn Catalog,
    stmt: &SelectStatement,
    params: &[Value],
    pulled: Arc<AtomicU64>,
    latency: LatencyModel,
    faults: Arc<FaultInjector>,
    batch: BatchCounters,
    view: ReadView,
) -> Result<Option<QueryCursor>> {
    let Some(from) = &stmt.from else {
        return Ok(None);
    };
    if !stmt.joins.is_empty() || stmt.distinct {
        return Ok(None);
    }
    if needs_grouping(stmt) {
        return open_grouped(catalog, stmt, params, pulled, latency, faults, batch, view);
    }
    if stmt.having.is_some() {
        // HAVING without aggregates or GROUP BY: the materialized path has
        // its own quirky handling; keep both paths identical by falling back.
        return Ok(None);
    }

    // Plain admissible scans (no LIMIT / ORDER BY) take the vectorized path:
    // same id snapshot, columnar fetches.
    if batch_admissible(stmt) {
        let table = catalog.table(from.name.as_str())?;
        let guard = table.read();
        let schema_cols = guard.schema.column_names();
        let ids: Vec<RowId> = match access_path(
            &guard,
            from.binding_name(),
            stmt.where_clause.as_ref(),
            params,
        ) {
            Some(ids) => ids,
            None => guard.all_ids().collect(),
        };
        drop(guard);
        let hooks = BatchHooks {
            pulled: Some(pulled),
            latency: Some(latency),
            faults: Some(faults),
            counters: batch,
        };
        let open = open_source(
            table,
            stmt,
            from.binding_name(),
            ids,
            &schema_cols,
            hooks,
            view,
        )?;
        return Ok(Some(QueryCursor {
            columns: open.columns,
            inner: CursorInner::BatchScan(Box::new(BatchScanCursor::new(
                open.source,
                open.scope,
                stmt,
                params.to_vec(),
            ))),
        }));
    }

    let (offset, limit) = match &stmt.limit {
        Some(lim) => (
            resolve_limit_value(lim.offset.as_ref(), params, "OFFSET")?.unwrap_or(0),
            resolve_limit_value(lim.limit.as_ref(), params, "LIMIT")?,
        ),
        None => (0, None),
    };

    let table = catalog.table(from.name.as_str())?;
    let guard = table.read();
    let scope = Scope::from_table(from.binding_name(), &guard.schema.column_names());
    let columns = projection_columns(&stmt.projection, &scope)?;

    let ids: Vec<RowId> = if stmt.order_by.is_empty() {
        match access_path(
            &guard,
            from.binding_name(),
            stmt.where_clause.as_ref(),
            params,
        ) {
            Some(ids) => ids,
            None => guard.all_ids().collect(),
        }
    } else {
        // An index can satisfy the ORDER BY when every key is a bare column
        // of this table, all keys share one direction, and some index's
        // column list starts with exactly those columns.
        let desc = stmt.order_by[0].desc;
        if !stmt.order_by.iter().all(|o| o.desc == desc) {
            return Ok(None);
        }
        let mut cols = Vec::with_capacity(stmt.order_by.len());
        for item in &stmt.order_by {
            match column_of(&item.expr, from.binding_name(), &guard) {
                Some(c) => cols.push(c),
                None => return Ok(None),
            }
        }
        let positions: Option<Vec<usize>> =
            cols.iter().map(|c| guard.schema.column_index(c)).collect();
        let Some(positions) = positions else {
            return Ok(None);
        };
        let Some(idx) = guard.index_on(&cols[0]) else {
            return Ok(None);
        };
        if idx.columns.len() < positions.len() || idx.columns[..positions.len()] != positions[..] {
            return Ok(None);
        }
        if desc {
            idx.scan_rev().collect()
        } else {
            idx.scan().collect()
        }
    };
    drop(guard);

    Ok(Some(QueryCursor {
        columns,
        inner: CursorInner::Scan(Box::new(ScanCursor {
            table,
            ids: ids.into_iter(),
            scope,
            projection: stmt.projection.clone(),
            where_clause: stmt.where_clause.clone(),
            params: params.to_vec(),
            to_skip: offset,
            remaining: limit,
            view,
            pulled,
            latency,
            faults,
        })),
    }))
}

/// Open a [`GroupedScanCursor`]. ORDER BY is evaluated over the finished
/// groups inside [`GroupedState::finish`], so ids need no index order — the
/// access path (or full scan) matches the materialized path's source order,
/// keeping first-seen group order identical.
#[allow(clippy::too_many_arguments)]
fn open_grouped(
    catalog: &dyn Catalog,
    stmt: &SelectStatement,
    params: &[Value],
    pulled: Arc<AtomicU64>,
    latency: LatencyModel,
    faults: Arc<FaultInjector>,
    batch: BatchCounters,
    view: ReadView,
) -> Result<Option<QueryCursor>> {
    let Some(from) = &stmt.from else {
        return Ok(None);
    };
    let (offset, limit) = match &stmt.limit {
        Some(lim) => (
            resolve_limit_value(lim.offset.as_ref(), params, "OFFSET")?.unwrap_or(0),
            resolve_limit_value(lim.limit.as_ref(), params, "LIMIT")?,
        ),
        None => (0, None),
    };
    let table = catalog.table(from.name.as_str())?;
    let guard = table.read();
    let scope = Scope::from_table(from.binding_name(), &guard.schema.column_names());
    let columns = projection_columns(&stmt.projection, &scope)?;
    let ids: Vec<RowId> = match access_path(
        &guard,
        from.binding_name(),
        stmt.where_clause.as_ref(),
        params,
    ) {
        Some(ids) => ids,
        None => guard.all_ids().collect(),
    };

    // Vectorized grouped path: same id snapshot and source order, aggregates
    // fed column vectors, one shared finish with the row path.
    if batch_admissible(stmt) {
        let schema_cols = guard.schema.column_names();
        drop(guard);
        let hooks = BatchHooks {
            pulled: Some(pulled),
            latency: Some(latency),
            faults: Some(faults),
            counters: batch,
        };
        let open = open_source(
            table,
            stmt,
            from.binding_name(),
            ids,
            &schema_cols,
            hooks,
            view,
        )?;
        return Ok(Some(QueryCursor {
            columns: open.columns,
            inner: CursorInner::BatchGrouped(Box::new(BatchGroupedCursor::new(
                open.source,
                open.scope,
                stmt,
                params.to_vec(),
                offset,
                limit,
            ))),
        }));
    }
    drop(guard);

    Ok(Some(QueryCursor {
        columns,
        inner: CursorInner::Grouped(Box::new(GroupedScanCursor {
            table,
            ids: ids.into_iter(),
            scope,
            stmt: stmt.clone(),
            params: params.to_vec(),
            view,
            state: Some(GroupedState::new(stmt)),
            offset,
            limit,
            out: None,
            pulled,
            latency,
            faults,
        })),
    }))
}

#[cfg(test)]
mod tests {
    use crate::engine::StorageEngine;
    use shard_sql::{parse_statement, Statement, Value};

    fn engine_with_rows(n: i64) -> std::sync::Arc<StorageEngine> {
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

    /// Open a streaming cursor for `sql`, check which cursor serves it, and
    /// compare its rows with the general materializing executor
    /// (`exec_select::execute_select`), which shares no scan code with either
    /// cursor.
    fn assert_matches_materialized(e: &StorageEngine, sql: &str, batch: bool) -> Vec<Vec<Value>> {
        let stmt = select(sql);
        let cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(cursor.is_streaming(), "{sql}");
        assert_eq!(cursor.is_batch(), batch, "{sql}");
        let columns = cursor.columns().to_vec();
        let rows: Vec<_> = cursor.map(|r| r.unwrap()).collect();
        let materialized =
            crate::exec_select::execute_select(e, &stmt, &[], &e.read_view(None)).unwrap();
        assert_eq!(columns, materialized.columns, "{sql}");
        assert_eq!(rows, materialized.rows, "{sql}");
        rows
    }

    #[test]
    fn shard_shaped_order_by_limit_streams() {
        let e = engine_with_rows(50);
        let rows =
            assert_matches_materialized(&e, "SELECT id, v FROM t ORDER BY id DESC LIMIT 5", false);
        assert_eq!(rows[0][0], Value::Int(49));
    }

    #[test]
    fn streaming_matches_materialized_with_where_and_offset() {
        let e = engine_with_rows(60);
        let sql = "SELECT id FROM t WHERE v = 3 ORDER BY id LIMIT 2, 4";
        assert_eq!(assert_matches_materialized(&e, sql, false).len(), 4);
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
            assert!(!assert_matches_materialized(&e, sql, true).is_empty());
        }
        assert!(assert_matches_materialized(&e, "SELECT id FROM t WHERE v > 9", true).is_empty());
    }

    #[test]
    fn limit_stops_pulling_early() {
        let e = engine_with_rows(200);
        let before = e.rows_pulled();
        let stmt = select("SELECT id FROM t ORDER BY id LIMIT 3, 5");
        let mut cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(cursor.is_streaming());
        let mut n = 0;
        while cursor.next_row().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        let pulled = e.rows_pulled() - before;
        assert!(pulled <= 8, "pulled {pulled} rows for LIMIT 3, 5");
    }

    #[test]
    fn aggregates_stream_via_grouped_cursor() {
        let e = engine_with_rows(10);
        let stmt = select("SELECT COUNT(*) FROM t");
        let cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(cursor.is_streaming());
        let rows: Vec<_> = cursor.map(|r| r.unwrap()).collect();
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
            assert!(!assert_matches_materialized(&e, sql, true).is_empty());
        }
    }

    #[test]
    fn grouped_cursor_empty_input_yields_one_row() {
        let e = engine_with_rows(5);
        let stmt = select("SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t WHERE id > 100");
        let cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(cursor.is_streaming());
        let rows: Vec<_> = cursor.map(|r| r.unwrap()).collect();
        assert_eq!(
            rows,
            vec![vec![Value::Int(0), Value::Null, Value::Null, Value::Null]]
        );
    }

    #[test]
    fn joins_and_distinct_fall_back_to_materialized() {
        let e = engine_with_rows(10);
        let stmt = select("SELECT DISTINCT v FROM t");
        let cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(!cursor.is_streaming());
    }

    #[test]
    fn unindexed_order_by_falls_back() {
        let e = engine_with_rows(10);
        let stmt = select("SELECT id FROM t ORDER BY v");
        let cursor = e.open_cursor(&stmt, &[], None).unwrap();
        assert!(!cursor.is_streaming());
    }

    #[test]
    fn snapshot_scan_still_sees_rows_deleted_mid_scan() {
        let e = engine_with_rows(10);
        let stmt = select("SELECT id FROM t ORDER BY id");
        let mut cursor = e.open_cursor(&stmt, &[], None).unwrap();
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
            let cursor = e.open_cursor(&select(sql), &[], txn).unwrap();
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
