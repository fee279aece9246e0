//! Vectorized batch-scan leaf: columnar value batches from the table to the
//! aggregate accumulators.
//!
//! The row scan in [`crate::cursor`] pays per row: one table read-lock,
//! one B-tree probe, one full-row clone and a scope resolution for every
//! expression — fine for a LIMIT that stops early, ruinous for the
//! full-table scans that partial-aggregate pushdown sends into storage. The
//! batch leaf amortizes all of it:
//!
//! - **Columnar batches** — [`BatchSource`] fetches up to [`BATCH_SIZE`]
//!   rows per step under a single read guard and transposes them into
//!   per-column [`ColumnVector`]s with per-column null bitmaps.
//! - **Projection pushdown** — only the columns the statement references
//!   anywhere (projection, WHERE, GROUP BY, HAVING, ORDER BY, aggregate
//!   arguments) are cloned out of the table; everything else is never
//!   touched. Column indices are resolved once at open, not per row.
//! - **Late materialization** — rows are decoded back to `Vec<Value>` shape
//!   only at the boundary where a consumer genuinely needs them: group
//!   `first_row`s (one per group, not per source row) and the projected
//!   output of plain scans.
//! - **Tight aggregate loops** — [`BatchGroupedState`] updates the same
//!   [`Accumulator`]s as the general executor (so results stay
//!   byte-identical) but feeds them straight from column vectors, with a
//!   column-at-a-time fast path for ungrouped aggregates that skips NULLs by
//!   bitmap.
//!
//! Admission is a single shared predicate, [`batch_admissible`]: the SELECT
//! dispatcher uses it to pick the leaf and the sharding kernel uses it to
//! tag `EXPLAIN ANALYZE` with `scan_mode=batch|row`, so the tag cannot
//! drift from what storage actually does. Shapes that need the row scan's
//! guarantees (LIMIT-bearing plain scans keep tight early-termination pull
//! counts, ORDER BY keeps the index-satisfaction decision on one path,
//! FOR UPDATE needs locking side effects) are not admitted.

use crate::cursor::SelectHooks;
use crate::error::Result;
use crate::eval::{eval, eval_predicate, EvalContext, Scope};
use crate::exec_select::{
    collect_agg_calls, needs_grouping, project_row, projection_columns, Accumulator, Group,
    GroupedState,
};
use crate::fault::FaultOp;
use crate::index::RowId;
use crate::mvcc::ReadView;
use crate::result::ResultSet;
use crate::table::Table;
use parking_lot::RwLock;
use shard_sql::ast::*;
use shard_sql::Value;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Rows per columnar batch. Large enough to amortize the per-batch lock,
/// fault point and latency charge; small enough that a cancelled consumer
/// abandons at most one batch of work.
pub const BATCH_SIZE: usize = 1024;

/// Per-column null bitmap: one bit per row in the batch, set when the cell
/// is SQL NULL. Lets aggregate loops skip NULLs (a no-op for every
/// accumulator except `COUNT(*)`, which never reads a column) without
/// matching on the value, and `COUNT(col)` count by subtraction.
#[derive(Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    pub fn push(&mut self, is_null: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if is_null {
            *self.words.last_mut().expect("pushed above") |= 1 << bit;
            self.nulls += 1;
        }
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn null_count(&self) -> usize {
        self.nulls
    }
}

/// One referenced column's values for a batch of rows.
pub struct ColumnVector {
    pub values: Vec<Value>,
    pub nulls: NullBitmap,
}

impl ColumnVector {
    fn with_capacity(rows: usize) -> Self {
        ColumnVector {
            values: Vec::with_capacity(rows),
            nulls: NullBitmap::default(),
        }
    }

    fn push(&mut self, v: Value) {
        self.nulls.push(v.is_null());
        self.values.push(v);
    }
}

/// A columnar batch: `cols[k].values[i]` is row `i`'s value for the `k`-th
/// referenced column (reduced-scope order).
pub struct ColumnBatch {
    pub len: usize,
    pub cols: Vec<ColumnVector>,
}

/// Pulls columnar batches of the referenced columns from one table over a
/// row-id snapshot. Lock scope is one batch: the read guard is never held
/// across pulls, so a slow consumer cannot block writers (the same rule the
/// row scan follows per row, paid 1/[`BATCH_SIZE`] as often).
pub(crate) struct BatchSource {
    table: Arc<RwLock<Table>>,
    ids: Vec<RowId>,
    pos: usize,
    /// Schema positions of the referenced columns, ascending.
    proj: Vec<usize>,
    /// The referenced columns only — what every expression over a batch
    /// resolves against.
    scope: Scope,
    /// Visibility of every fetched row — the statement's read view, so
    /// batch scans read the same version set as the row scan.
    view: ReadView,
}

impl BatchSource {
    /// Resolve the reduced scope and the output header for an admissible
    /// statement over `ids`, the dispatcher's snapshot. `names` is the
    /// table's column list.
    pub(crate) fn open(
        table: Arc<RwLock<Table>>,
        stmt: &SelectStatement,
        binding: &str,
        ids: Vec<RowId>,
        names: &Arc<[String]>,
        view: ReadView,
    ) -> Result<(BatchSource, Vec<String>)> {
        let proj = referenced_columns(stmt, names);
        let scope = Scope::from_picked(binding, names, &proj);
        // The header needs no wider scope than the rows: a wildcard
        // references every column, and any other item is named by its
        // expression or alias alone.
        let columns = projection_columns(&stmt.projection, &scope)?;
        let source = BatchSource {
            table,
            ids,
            pos: 0,
            proj,
            scope,
            view,
        };
        Ok((source, columns))
    }

    pub(crate) fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Fetch the next non-empty batch, or `None` when the snapshot is
    /// drained. Ids whose rows were deleted since open are skipped, as in
    /// the row scan.
    fn next_batch(&mut self, hooks: &SelectHooks) -> Result<Option<ColumnBatch>> {
        loop {
            if self.pos >= self.ids.len() {
                return Ok(None);
            }
            // Mid-scan fault point, once per batch: a `row_pull` fault kills
            // the scan between batches, so chaos tests observe the same
            // abandon/cancel behaviour as on the row scan.
            hooks.faults.check(FaultOp::RowPull)?;
            let end = (self.pos + BATCH_SIZE).min(self.ids.len());
            let chunk = &self.ids[self.pos..end];
            self.pos = end;

            let mut cols: Vec<ColumnVector> = self
                .proj
                .iter()
                .map(|_| ColumnVector::with_capacity(chunk.len()))
                .collect();
            let mut fetched = 0usize;
            let visited = {
                let guard = self.table.read();
                guard.fetch_rows(chunk, &self.view, |row| {
                    fetched += 1;
                    for (out, &ci) in cols.iter_mut().zip(&self.proj) {
                        out.push(row[ci].clone());
                    }
                })
            };
            hooks.fetch_steps.fetch_add(visited, Ordering::Relaxed);
            if fetched == 0 {
                continue;
            }
            let n = fetched as u64;
            hooks.rows_pulled.fetch_add(n, Ordering::Relaxed);
            hooks.scan_batches.fetch_add(1, Ordering::Relaxed);
            hooks.scan_batch_rows.fetch_add(n, Ordering::Relaxed);
            return Ok(Some(ColumnBatch { len: fetched, cols }));
        }
    }

    /// Plain scans: the next batch's rows that pass WHERE, projected.
    /// Admission guarantees no ORDER BY / LIMIT / HAVING, so nothing needs
    /// buffering beyond the batch.
    pub(crate) fn next_rows(
        &mut self,
        stmt: &SelectStatement,
        params: &[Value],
        hooks: &SelectHooks,
    ) -> Result<Option<Vec<Vec<Value>>>> {
        let Some(batch) = self.next_batch(hooks)? else {
            return Ok(None);
        };
        let sel = filter_batch(&batch, stmt.where_clause.as_ref(), &self.scope, params)?;
        let mut rows = Vec::with_capacity(sel.count(batch.len));
        let mut buf: Vec<Value> = Vec::with_capacity(batch.cols.len());
        for i in sel.iter(batch.len) {
            fill_row(&batch, i, &mut buf);
            rows.push(project_row(
                &stmt.projection,
                &self.scope,
                &buf,
                params,
                None,
            )?);
        }
        Ok(Some(rows))
    }

    /// Grouped scans: every remaining batch through `state`, then the
    /// finished group rows (HAVING / ORDER BY / projection applied).
    pub(crate) fn aggregate(
        &mut self,
        mut state: BatchGroupedState,
        stmt: &SelectStatement,
        params: &[Value],
        hooks: &SelectHooks,
    ) -> Result<Vec<Vec<Value>>> {
        while let Some(batch) = self.next_batch(hooks)? {
            let sel = filter_batch(&batch, stmt.where_clause.as_ref(), &self.scope, params)?;
            state.push_batch(&batch, &sel, &self.scope, params)?;
        }
        Ok(state.finish(stmt, &self.scope, params)?.rows)
    }
}

/// Can the batch leaf serve this statement shape? Shared between the SELECT
/// dispatcher and the kernel's `scan_mode` trace tag — one verdict, two
/// consumers, no drift.
pub fn batch_admissible(stmt: &SelectStatement) -> bool {
    if stmt.from.is_none() || !stmt.joins.is_empty() || stmt.distinct || stmt.for_update {
        return false;
    }
    if needs_grouping(stmt) {
        // Grouped scans drain their whole input regardless; LIMIT/ORDER BY
        // apply to the few finished group rows, never to source pulls.
        return true;
    }
    // Plain scans: LIMIT keeps the row scan's tight early-termination pull
    // counts, ORDER BY keeps the index-satisfaction decision (and its
    // fallback to a sort) on one path, HAVING without aggregates keeps the
    // general executor's quirky handling.
    stmt.having.is_none() && stmt.limit.is_none() && stmt.order_by.is_empty()
}

/// Schema positions of every column the statement references anywhere
/// (ascending, preserving relative schema order so reduced-scope wildcard
/// projection matches the full scope). Wildcards reference everything.
fn referenced_columns(stmt: &SelectStatement, schema_cols: &[String]) -> Vec<usize> {
    if stmt
        .projection
        .iter()
        .any(|i| !matches!(i, SelectItem::Expr { .. }))
    {
        return (0..schema_cols.len()).collect();
    }
    let mut names: Vec<String> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |x| {
            if let Expr::Column(c) = x {
                if !names.iter().any(|n| n.eq_ignore_ascii_case(&c.column)) {
                    names.push(c.column.clone());
                }
            }
        })
    };
    for item in &stmt.projection {
        if let SelectItem::Expr { expr, .. } = item {
            visit(expr);
        }
    }
    if let Some(w) = &stmt.where_clause {
        visit(w);
    }
    for e in &stmt.group_by {
        visit(e);
    }
    if let Some(h) = &stmt.having {
        visit(h);
    }
    for o in &stmt.order_by {
        visit(&o.expr);
    }
    (0..schema_cols.len())
        .filter(|&i| names.iter().any(|n| schema_cols[i].eq_ignore_ascii_case(n)))
        .collect()
}

/// Pre-resolved access to one expression over the reduced batch scope:
/// a direct column index when the expression is a bare (possibly nested /
/// qualified) column reference, otherwise the expression itself, evaluated
/// per row against a materialized row buffer. Resolution failures fall back
/// to the expression so errors surface exactly where the row path raises
/// them — at evaluation over a real row, never on an empty input.
enum Extractor {
    Col(usize),
    Expr(Expr),
}

fn extractor_for(e: &Expr, scope: &Scope) -> Extractor {
    let mut inner = e;
    while let Expr::Nested(x) = inner {
        inner = x;
    }
    if let Expr::Column(c) = inner {
        if let Ok(i) = scope.resolve(c) {
            return Extractor::Col(i);
        }
    }
    Extractor::Expr(e.clone())
}

/// WHERE verdict for one batch: either every row passes (no predicate) or
/// the indices of the passing rows.
enum Selection {
    All,
    Rows(Vec<u32>),
}

impl Selection {
    fn count(&self, batch_len: usize) -> usize {
        match self {
            Selection::All => batch_len,
            Selection::Rows(v) => v.len(),
        }
    }

    fn first(&self) -> Option<usize> {
        match self {
            Selection::All => Some(0),
            Selection::Rows(v) => v.first().map(|&i| i as usize),
        }
    }

    fn iter(&self, batch_len: usize) -> Box<dyn Iterator<Item = usize> + '_> {
        match self {
            Selection::All => Box::new(0..batch_len),
            Selection::Rows(v) => Box::new(v.iter().map(|&i| i as usize)),
        }
    }
}

/// Materialize row `i` of the batch into `buf` (reduced-scope shape).
fn fill_row(batch: &ColumnBatch, i: usize, buf: &mut Vec<Value>) {
    buf.clear();
    for c in &batch.cols {
        buf.push(c.values[i].clone());
    }
}

/// Evaluate the WHERE clause over one batch. Rows are materialized into a
/// reusable buffer only when a predicate exists.
fn filter_batch(
    batch: &ColumnBatch,
    where_clause: Option<&Expr>,
    scope: &Scope,
    params: &[Value],
) -> Result<Selection> {
    let Some(pred) = where_clause else {
        return Ok(Selection::All);
    };
    let mut buf: Vec<Value> = Vec::with_capacity(batch.cols.len());
    let mut keep = Vec::new();
    for i in 0..batch.len {
        fill_row(batch, i, &mut buf);
        let ctx = EvalContext::new(scope, &buf, params);
        if eval_predicate(pred, &ctx)? {
            keep.push(i as u32);
        }
    }
    Ok(Selection::Rows(keep))
}

/// Structure-of-arrays accumulator state for ONE aggregate call across ALL
/// groups. The aggregate's variant is matched once per (call, batch) and the
/// inner loops then run over plain vectors indexed by group id — the grouped
/// counterpart of the ungrouped column-at-a-time fast paths. Converted back
/// into the row path's [`Accumulator`]s at finish, slot by slot, so the
/// merge semantics (NULL handling, Int/Float promotion, DISTINCT sets) stay
/// byte-identical by construction.
enum ColAcc {
    CountStar(Vec<i64>),
    Count(Vec<i64>),
    CountDistinct(Vec<std::collections::HashSet<Value>>),
    Sum {
        total: Vec<f64>,
        any: Vec<bool>,
        all_int: Vec<bool>,
    },
    SumDistinct(Vec<std::collections::HashSet<Value>>),
    Avg {
        total: Vec<f64>,
        n: Vec<i64>,
    },
    Min(Vec<Option<Value>>),
    Max(Vec<Option<Value>>),
}

impl ColAcc {
    fn for_call(call: &FunctionCall) -> ColAcc {
        match (call.name.as_str(), call.star, call.distinct) {
            ("COUNT", true, _) => ColAcc::CountStar(Vec::new()),
            ("COUNT", false, true) => ColAcc::CountDistinct(Vec::new()),
            ("COUNT", false, false) => ColAcc::Count(Vec::new()),
            ("SUM", _, true) => ColAcc::SumDistinct(Vec::new()),
            ("SUM", _, false) => ColAcc::Sum {
                total: Vec::new(),
                any: Vec::new(),
                all_int: Vec::new(),
            },
            ("AVG", _, _) => ColAcc::Avg {
                total: Vec::new(),
                n: Vec::new(),
            },
            ("MIN", _, _) => ColAcc::Min(Vec::new()),
            ("MAX", _, _) => ColAcc::Max(Vec::new()),
            _ => unreachable!("is_aggregate() gates the call"),
        }
    }

    /// Append one zero-state slot (a new group was born).
    fn grow(&mut self) {
        match self {
            ColAcc::CountStar(v) | ColAcc::Count(v) => v.push(0),
            ColAcc::CountDistinct(v) | ColAcc::SumDistinct(v) => v.push(Default::default()),
            ColAcc::Sum {
                total,
                any,
                all_int,
            } => {
                total.push(0.0);
                any.push(false);
                all_int.push(true);
            }
            ColAcc::Avg { total, n } => {
                total.push(0.0);
                n.push(0);
            }
            ColAcc::Min(v) | ColAcc::Max(v) => v.push(None),
        }
    }

    /// Starless update (`COUNT(*)`): one tick per selected row. Every other
    /// accumulator ignores a missing argument, exactly like
    /// [`Accumulator::update_ref`] on `None`.
    fn update_star(&mut self, gids: &[u32]) {
        if let ColAcc::CountStar(v) = self {
            for &g in gids {
                v[g as usize] += 1;
            }
        }
    }

    /// Column-fed update: `rows[slot]` is the batch row index and
    /// `gids[slot]` its group. NULLs are skipped by bitmap — a semantic
    /// no-op for every variant reached here (`COUNT(*)` never gets a
    /// column argument).
    fn update_col(&mut self, gids: &[u32], rows: &[u32], col: &ColumnVector) {
        match self {
            ColAcc::CountStar(_) => unreachable!("star calls carry no argument"),
            ColAcc::Count(v) => {
                for (slot, &i) in rows.iter().enumerate() {
                    if !col.nulls.get(i as usize) {
                        v[gids[slot] as usize] += 1;
                    }
                }
            }
            ColAcc::CountDistinct(v) | ColAcc::SumDistinct(v) => {
                for (slot, &i) in rows.iter().enumerate() {
                    if !col.nulls.get(i as usize) {
                        let set = &mut v[gids[slot] as usize];
                        let val = &col.values[i as usize];
                        if !set.contains(val) {
                            set.insert(val.clone());
                        }
                    }
                }
            }
            ColAcc::Sum {
                total,
                any,
                all_int,
            } => {
                for (slot, &i) in rows.iter().enumerate() {
                    if col.nulls.get(i as usize) {
                        continue;
                    }
                    let val = &col.values[i as usize];
                    if let Some(f) = val.as_float() {
                        let g = gids[slot] as usize;
                        total[g] += f;
                        any[g] = true;
                        if !matches!(val, Value::Int(_)) {
                            all_int[g] = false;
                        }
                    }
                }
            }
            ColAcc::Avg { total, n } => {
                for (slot, &i) in rows.iter().enumerate() {
                    if col.nulls.get(i as usize) {
                        continue;
                    }
                    if let Some(f) = col.values[i as usize].as_float() {
                        let g = gids[slot] as usize;
                        total[g] += f;
                        n[g] += 1;
                    }
                }
            }
            ColAcc::Min(v) => {
                for (slot, &i) in rows.iter().enumerate() {
                    if col.nulls.get(i as usize) {
                        continue;
                    }
                    let val = &col.values[i as usize];
                    let best = &mut v[gids[slot] as usize];
                    let better = best
                        .as_ref()
                        .map(|b| val.total_cmp(b) == std::cmp::Ordering::Less)
                        .unwrap_or(true);
                    if better {
                        *best = Some(val.clone());
                    }
                }
            }
            ColAcc::Max(v) => {
                for (slot, &i) in rows.iter().enumerate() {
                    if col.nulls.get(i as usize) {
                        continue;
                    }
                    let val = &col.values[i as usize];
                    let best = &mut v[gids[slot] as usize];
                    let better = best
                        .as_ref()
                        .map(|b| val.total_cmp(b) == std::cmp::Ordering::Greater)
                        .unwrap_or(true);
                    if better {
                        *best = Some(val.clone());
                    }
                }
            }
        }
    }

    /// Per-row update for expression-valued arguments (the rare path).
    fn update_one(&mut self, g: usize, val: &Value) {
        if val.is_null() {
            return;
        }
        match self {
            ColAcc::CountStar(_) => unreachable!("star calls carry no argument"),
            ColAcc::Count(v) => v[g] += 1,
            ColAcc::CountDistinct(v) | ColAcc::SumDistinct(v) => {
                if !v[g].contains(val) {
                    v[g].insert(val.clone());
                }
            }
            ColAcc::Sum {
                total,
                any,
                all_int,
            } => {
                if let Some(f) = val.as_float() {
                    total[g] += f;
                    any[g] = true;
                    if !matches!(val, Value::Int(_)) {
                        all_int[g] = false;
                    }
                }
            }
            ColAcc::Avg { total, n } => {
                if let Some(f) = val.as_float() {
                    total[g] += f;
                    n[g] += 1;
                }
            }
            ColAcc::Min(v) => {
                let best = &mut v[g];
                let better = best
                    .as_ref()
                    .map(|b| val.total_cmp(b) == std::cmp::Ordering::Less)
                    .unwrap_or(true);
                if better {
                    *best = Some(val.clone());
                }
            }
            ColAcc::Max(v) => {
                let best = &mut v[g];
                let better = best
                    .as_ref()
                    .map(|b| val.total_cmp(b) == std::cmp::Ordering::Greater)
                    .unwrap_or(true);
                if better {
                    *best = Some(val.clone());
                }
            }
        }
    }

    /// Move group `g`'s state out into the row path's accumulator shape.
    fn take(&mut self, g: usize) -> Accumulator {
        match self {
            ColAcc::CountStar(v) => Accumulator::CountStar(v[g]),
            ColAcc::Count(v) => Accumulator::Count(v[g]),
            ColAcc::CountDistinct(v) => Accumulator::CountDistinct(std::mem::take(&mut v[g])),
            ColAcc::Sum {
                total,
                any,
                all_int,
            } => Accumulator::Sum {
                total: total[g],
                any: any[g],
                all_int: all_int[g],
            },
            ColAcc::SumDistinct(v) => Accumulator::SumDistinct(std::mem::take(&mut v[g])),
            ColAcc::Avg { total, n } => Accumulator::Avg {
                total: total[g],
                n: n[g],
            },
            ColAcc::Min(v) => Accumulator::Min(v[g].take()),
            ColAcc::Max(v) => Accumulator::Max(v[g].take()),
        }
    }
}

/// Grouped-aggregation state fed column vectors instead of rows. Group
/// identity (first-seen order, `Value` equality) matches [`GroupedState`]
/// exactly; accumulator state lives in structure-of-arrays [`ColAcc`]s and
/// is converted back to `Group`s at finish, where HAVING / ORDER BY /
/// projection delegate to [`GroupedState::finish`] — one finish path, so
/// batch and row results are byte-identical by construction.
pub(crate) struct BatchGroupedState {
    agg_calls: Vec<FunctionCall>,
    keys: Vec<Extractor>,
    args: Vec<Option<Extractor>>,
    /// First-seen source row per group (reduced-scope shape), in group-id
    /// order — what non-aggregate projection items evaluate against.
    first_rows: Vec<Vec<Value>>,
    /// One structure-of-arrays state per aggregate call, each indexed by
    /// group id.
    col_accs: Vec<ColAcc>,
    /// Owned key values per group, parallel to `first_rows` (cloned once,
    /// when the group is born).
    group_keys: Vec<Vec<Value>>,
    /// Hash-then-verify index: key hash → candidate group indices. Rows are
    /// hashed from borrowed column values, so the hot loop never clones a
    /// key; candidates are confirmed against `group_keys` with `Value` eq —
    /// the same equality the row path's `HashMap<Vec<Value>, _>` used.
    group_of: std::collections::HashMap<u64, Vec<usize>>,
    /// Every key is a direct column reference — the zero-clone lookup path.
    keys_all_cols: bool,
    /// Any extractor needs a materialized row buffer for expression eval.
    needs_row_buf: bool,
}

impl BatchGroupedState {
    pub(crate) fn new(stmt: &SelectStatement, scope: &Scope) -> Self {
        let agg_calls = collect_agg_calls(stmt);
        let keys: Vec<Extractor> = stmt
            .group_by
            .iter()
            .map(|e| extractor_for(e, scope))
            .collect();
        let args: Vec<Option<Extractor>> = agg_calls
            .iter()
            .map(|c| (!c.star).then(|| extractor_for(&c.args[0], scope)))
            .collect();
        let needs_row_buf = keys.iter().any(|k| matches!(k, Extractor::Expr(_)))
            || args.iter().any(|a| matches!(a, Some(Extractor::Expr(_))));
        let keys_all_cols = keys.iter().all(|k| matches!(k, Extractor::Col(_)));
        let col_accs = agg_calls.iter().map(ColAcc::for_call).collect();
        BatchGroupedState {
            agg_calls,
            keys,
            args,
            first_rows: Vec::new(),
            col_accs,
            group_keys: Vec::new(),
            group_of: std::collections::HashMap::new(),
            keys_all_cols,
            needs_row_buf,
        }
    }

    /// Register a new group for `key` (hash `h`), seeded from batch row `i`.
    fn insert_group(&mut self, h: u64, key: Vec<Value>, batch: &ColumnBatch, i: usize) -> usize {
        let mut first_row = Vec::with_capacity(batch.cols.len());
        fill_row(batch, i, &mut first_row);
        self.first_rows.push(first_row);
        for a in &mut self.col_accs {
            a.grow();
        }
        self.group_keys.push(key);
        let gidx = self.first_rows.len() - 1;
        self.group_of.entry(h).or_default().push(gidx);
        gidx
    }

    fn push_batch(
        &mut self,
        batch: &ColumnBatch,
        sel: &Selection,
        scope: &Scope,
        params: &[Value],
    ) -> Result<()> {
        if self.keys.is_empty() {
            return self.push_batch_ungrouped(batch, sel, scope, params);
        }
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Row-index view of the selection; batch-local, ≤ BATCH_SIZE long.
        let all_rows: Vec<u32>;
        let rows: &[u32] = match sel {
            Selection::All => {
                all_rows = (0..batch.len as u32).collect();
                &all_rows
            }
            Selection::Rows(v) => v,
        };
        if rows.is_empty() {
            return Ok(());
        }
        // Pass 1 — group id per selected row. Keys hash from borrowed column
        // values; a key vector is cloned only when a new group is born,
        // never once per row.
        let mut rowbuf: Vec<Value> = Vec::with_capacity(batch.cols.len());
        let mut keybuf: Vec<Value> = Vec::with_capacity(self.keys.len());
        let mut gids: Vec<u32> = Vec::with_capacity(rows.len());
        for &i in rows {
            let i = i as usize;
            if self.needs_row_buf {
                fill_row(batch, i, &mut rowbuf);
            }
            let gidx = if self.keys_all_cols {
                let mut hasher = DefaultHasher::new();
                for k in &self.keys {
                    let Extractor::Col(j) = k else { unreachable!() };
                    batch.cols[*j].values[i].hash(&mut hasher);
                }
                let h = hasher.finish();
                let found = self.group_of.get(&h).and_then(|bucket| {
                    bucket.iter().copied().find(|&g| {
                        self.group_keys[g].iter().zip(&self.keys).all(|(kv, k)| {
                            let Extractor::Col(j) = k else { return false };
                            *kv == batch.cols[*j].values[i]
                        })
                    })
                });
                match found {
                    Some(g) => g,
                    None => {
                        let key: Vec<Value> = self
                            .keys
                            .iter()
                            .map(|k| {
                                let Extractor::Col(j) = k else { unreachable!() };
                                batch.cols[*j].values[i].clone()
                            })
                            .collect();
                        self.insert_group(h, key, batch, i)
                    }
                }
            } else {
                keybuf.clear();
                for k in &self.keys {
                    keybuf.push(match k {
                        Extractor::Col(j) => batch.cols[*j].values[i].clone(),
                        Extractor::Expr(e) => eval(e, &EvalContext::new(scope, &rowbuf, params))?,
                    });
                }
                let mut hasher = DefaultHasher::new();
                for v in &keybuf {
                    v.hash(&mut hasher);
                }
                let h = hasher.finish();
                let found = self
                    .group_of
                    .get(&h)
                    .and_then(|b| b.iter().copied().find(|&g| self.group_keys[g] == keybuf));
                match found {
                    Some(g) => g,
                    None => {
                        let key = std::mem::take(&mut keybuf);
                        keybuf = Vec::with_capacity(self.keys.len());
                        self.insert_group(h, key, batch, i)
                    }
                }
            };
            gids.push(gidx as u32);
        }
        // Pass 2 — one column-at-a-time sweep per aggregate call: the
        // accumulator variant is matched once per call, not once per row.
        for (acc, arg) in self.col_accs.iter_mut().zip(&self.args) {
            match arg {
                None => acc.update_star(&gids),
                Some(Extractor::Col(j)) => acc.update_col(&gids, rows, &batch.cols[*j]),
                Some(Extractor::Expr(e)) => {
                    for (slot, &i) in rows.iter().enumerate() {
                        fill_row(batch, i as usize, &mut rowbuf);
                        let v = eval(e, &EvalContext::new(scope, &rowbuf, params))?;
                        acc.update_one(gids[slot] as usize, &v);
                    }
                }
            }
        }
        Ok(())
    }

    /// No GROUP BY: one group, so each accumulator can consume its column
    /// vector in a tight loop — the vectorized core of the batch path.
    fn push_batch_ungrouped(
        &mut self,
        batch: &ColumnBatch,
        sel: &Selection,
        scope: &Scope,
        params: &[Value],
    ) -> Result<()> {
        let n = sel.count(batch.len);
        if n == 0 {
            return Ok(());
        }
        if self.first_rows.is_empty() {
            let first = sel.first().expect("n > 0");
            let mut first_row = Vec::with_capacity(batch.cols.len());
            fill_row(batch, first, &mut first_row);
            self.first_rows.push(first_row);
            for a in &mut self.col_accs {
                a.grow();
            }
        }
        // One group, so `gids` is a run of zeros; built lazily since the
        // common accumulators never need it.
        let mut zero_gids: Option<Vec<u32>> = None;
        let mut all_rows: Option<Vec<u32>> = None;
        let mut rowbuf: Vec<Value> = Vec::new();
        for (acc, arg) in self.col_accs.iter_mut().zip(&self.args) {
            match arg {
                None => {
                    // COUNT(*) counts rows, values unseen.
                    if let ColAcc::CountStar(v) = acc {
                        v[0] += n as i64;
                    }
                }
                Some(Extractor::Col(j)) => {
                    let col = &batch.cols[*j];
                    match (&mut *acc, sel) {
                        // COUNT(col) over an unfiltered batch: subtract the
                        // bitmap's null count, touch no values.
                        (ColAcc::Count(v), Selection::All) => {
                            v[0] += (batch.len - col.nulls.null_count()) as i64;
                        }
                        (acc, sel) => {
                            let gids = zero_gids.get_or_insert_with(|| vec![0; n]);
                            let rows = all_rows.get_or_insert_with(|| {
                                sel.iter(batch.len).map(|i| i as u32).collect()
                            });
                            acc.update_col(gids, rows, col);
                        }
                    }
                }
                Some(Extractor::Expr(e)) => {
                    for i in sel.iter(batch.len) {
                        fill_row(batch, i, &mut rowbuf);
                        let v = eval(e, &EvalContext::new(scope, &rowbuf, params))?;
                        acc.update_one(0, &v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Reassemble per-group `Accumulator`s from the structure-of-arrays
    /// state, then delegate HAVING / ORDER BY / projection to the row
    /// path's finish over the reduced scope.
    fn finish(
        mut self,
        stmt: &SelectStatement,
        scope: &Scope,
        params: &[Value],
    ) -> Result<ResultSet> {
        let first_rows = std::mem::take(&mut self.first_rows);
        let groups = first_rows
            .into_iter()
            .enumerate()
            .map(|(g, first_row)| Group {
                first_row,
                accs: self.col_accs.iter_mut().map(|a| a.take(g)).collect(),
            })
            .collect();
        GroupedState::from_parts(self.agg_calls, groups).finish(stmt, scope, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_bitmap_tracks_across_word_boundaries() {
        let mut bm = NullBitmap::default();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.null_count(), (0..200).filter(|i| i % 3 == 0).count());
    }

    fn select(sql: &str) -> SelectStatement {
        match shard_sql::parse_statement(sql).unwrap() {
            shard_sql::ast::Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn admission_mirrors_row_cursor_guarantees() {
        assert!(batch_admissible(&select(
            "SELECT status, SUM(amount) FROM t GROUP BY status"
        )));
        assert!(batch_admissible(&select(
            "SELECT COUNT(*) FROM t WHERE amount > 3"
        )));
        // Grouped LIMIT applies post-aggregation: still admissible.
        assert!(batch_admissible(&select(
            "SELECT status, COUNT(*) FROM t GROUP BY status ORDER BY status LIMIT 2"
        )));
        assert!(batch_admissible(&select("SELECT amount FROM t")));
        // Plain LIMIT needs the row scan's early-termination pulls.
        assert!(!batch_admissible(&select("SELECT amount FROM t LIMIT 5")));
        // Plain ORDER BY keeps the index-satisfaction decision on one path.
        assert!(!batch_admissible(&select(
            "SELECT amount FROM t ORDER BY amount"
        )));
        assert!(!batch_admissible(&select("SELECT DISTINCT amount FROM t")));
        assert!(!batch_admissible(&select(
            "SELECT a.x FROM a JOIN b ON a.id = b.id"
        )));
        assert!(!batch_admissible(&select(
            "SELECT amount FROM t FOR UPDATE"
        )));
    }

    #[test]
    fn referenced_columns_project_only_whats_used() {
        let cols: Vec<String> = ["id", "email", "amount", "status", "note"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let stmt = select("SELECT status, SUM(amount) FROM t WHERE id > 3 GROUP BY status");
        assert_eq!(referenced_columns(&stmt, &cols), vec![0, 2, 3]);
        let stmt = select("SELECT COUNT(*) FROM t");
        assert!(referenced_columns(&stmt, &cols).is_empty());
        let stmt = select("SELECT * FROM t");
        assert_eq!(referenced_columns(&stmt, &cols), vec![0, 1, 2, 3, 4]);
    }
}
