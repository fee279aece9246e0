//! Local SELECT execution: access-path selection (index point/range lookups
//! vs full scans), joins (index nested-loop, hash, nested-loop), grouping and
//! aggregation, ordering and pagination.
//!
//! Each data source executes its allocated (rewritten) SQL independently —
//! this module is the per-shard query processor the paper assumes each
//! underlying database provides.

use crate::error::{Result, StorageError};
use crate::eval::{eval, eval_predicate, EvalContext, Scope};
use crate::index::RowId;
use crate::mvcc::ReadView;
use crate::result::ResultSet;
use crate::table::Table;
use parking_lot::RwLock;
use shard_sql::ast::*;
use shard_sql::{format_expr, Dialect, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Access to the engine's catalog, so the executor stays engine-agnostic.
pub trait Catalog {
    fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>>;
}

pub fn execute_select(
    catalog: &dyn Catalog,
    stmt: &SelectStatement,
    params: &[Value],
    view: &ReadView,
) -> Result<ResultSet> {
    // SELECT without FROM: evaluate the projection once over an empty row.
    let Some(from) = &stmt.from else {
        let scope = Scope::new();
        let ctx = EvalContext::new(&scope, &[], params);
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for item in &stmt.projection {
            match item {
                SelectItem::Expr { expr, alias } => {
                    columns.push(projection_name(expr, alias.as_deref()));
                    row.push(eval(expr, &ctx)?);
                }
                _ => {
                    return Err(StorageError::Execution(
                        "wildcard requires a FROM clause".into(),
                    ))
                }
            }
        }
        return Ok(ResultSet::new(columns, vec![row]));
    };

    // 1. Base table access with WHERE pushdown.
    let base = catalog.table(from.name.as_str())?;
    let base_guard = base.read();
    let mut scope = Scope::from_table(from.binding_name(), base_guard.schema.names());
    let mut rows: Vec<Vec<Value>> = {
        let candidates = access_path(
            &base_guard,
            from.binding_name(),
            stmt.where_clause.as_ref(),
            params,
        );
        match candidates {
            Some(ids) => ids
                .into_iter()
                .filter_map(|id| base_guard.get_visible(id, view).cloned())
                .collect(),
            None => base_guard
                .scan_visible(view)
                .map(|(_, r)| r.clone())
                .collect(),
        }
    };
    drop(base_guard);

    // 2. Joins.
    for join in &stmt.joins {
        let right = catalog.table(join.table.name.as_str())?;
        let right_guard = right.read();
        let right_binding = join.table.binding_name();

        let mut next_scope = scope.clone();
        next_scope.add_table(right_binding, right_guard.schema.names());

        rows = execute_join(
            rows,
            &scope,
            &next_scope,
            &right_guard,
            right_binding,
            join,
            params,
            view,
        )?;
        scope = next_scope;
    }

    // 3. WHERE filter over the combined scope.
    if let Some(pred) = &stmt.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = EvalContext::new(&scope, &row, params);
            if eval_predicate(pred, &ctx)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 4. Grouped vs plain pipeline.
    let grouped = !stmt.group_by.is_empty() || stmt.has_aggregates() || having_has_aggregates(stmt);
    let mut out = if grouped {
        execute_grouped(stmt, &scope, rows, params)?
    } else {
        execute_plain(stmt, &scope, rows, params)?
    };

    // 5. DISTINCT.
    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        out.rows.retain(|r| seen.insert(r.clone()));
    }

    // 6. LIMIT/OFFSET.
    let (offset, limit) = resolve_limit(stmt, params)?;
    truncate_to_window(&mut out.rows, offset, limit);
    Ok(out)
}

/// Whether the statement needs the grouped pipeline (mirrors the dispatch in
/// [`execute_select`]); the grouped cursor uses the same test.
pub(crate) fn needs_grouping(stmt: &SelectStatement) -> bool {
    !stmt.group_by.is_empty() || stmt.has_aggregates() || having_has_aggregates(stmt)
}

fn having_has_aggregates(stmt: &SelectStatement) -> bool {
    stmt.having.as_ref().is_some_and(Expr::contains_aggregate)
}

/// The statement's `(offset, limit)` with bound parameters resolved.
pub(crate) fn resolve_limit(
    stmt: &SelectStatement,
    params: &[Value],
) -> Result<(u64, Option<u64>)> {
    let Some(lim) = &stmt.limit else {
        return Ok((0, None));
    };
    let resolve = |v: &Option<LimitValue>, unresolvable: &str| {
        v.as_ref()
            .map(|v| {
                v.resolve(params)
                    .ok_or_else(|| StorageError::Execution(unresolvable.into()))
            })
            .transpose()
    };
    Ok((
        resolve(&lim.offset, "unresolvable OFFSET")?.unwrap_or(0),
        resolve(&lim.limit, "unresolvable LIMIT")?,
    ))
}

/// Cut finished rows down to the LIMIT/OFFSET window.
pub(crate) fn truncate_to_window(rows: &mut Vec<Vec<Value>>, offset: u64, limit: Option<u64>) {
    rows.drain(..(offset as usize).min(rows.len()));
    if let Some(limit) = limit {
        rows.truncate(limit as usize);
    }
}

// ---------------------------------------------------------------------------
// Access-path selection
// ---------------------------------------------------------------------------

/// Try to satisfy the WHERE clause's conditions on the base table with an
/// index. Returns `Some(row ids)` when an index was applicable, `None` for a
/// full scan. Only top-level AND-connected conditions are considered.
pub(crate) fn access_path(
    table: &Table,
    binding: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Option<Vec<RowId>> {
    let pred = where_clause?;
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);

    // Range accumulation per column position lets `uid >= 5 AND UID < 9` use
    // one scan, however each conjunct spells the column.
    let mut best: Option<Vec<RowId>> = None;
    let mut ranges: Vec<ColumnRange<'_>> = Vec::new();

    for c in &conjuncts {
        match c {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                // Mirror the operator if the column is on the right.
                let (col, val, op) =
                    match (column_of(left, binding, table), const_of(right, params)) {
                        (Some(c), Some(v)) => (c, v, *op),
                        _ => match (column_of(right, binding, table), const_of(left, params)) {
                            (Some(c), Some(v)) => (c, v, mirror(*op)),
                            _ => continue,
                        },
                    };
                match op {
                    BinaryOp::Eq => {
                        if let Some(idx) = table.index_at(col) {
                            if idx.columns.len() == 1 {
                                let ids = idx.lookup(std::slice::from_ref(val)).to_vec();
                                best = Some(intersect(best, ids));
                                continue;
                            }
                        }
                        // Composite PK: equality on the first column becomes
                        // a range over that prefix.
                        merge_range(&mut ranges, col, Bound::Included(val), Bound::Included(val));
                    }
                    BinaryOp::Gt => {
                        merge_range(&mut ranges, col, Bound::Excluded(val), Bound::Unbounded)
                    }
                    BinaryOp::GtEq => {
                        merge_range(&mut ranges, col, Bound::Included(val), Bound::Unbounded)
                    }
                    BinaryOp::Lt => {
                        merge_range(&mut ranges, col, Bound::Unbounded, Bound::Excluded(val))
                    }
                    BinaryOp::LtEq => {
                        merge_range(&mut ranges, col, Bound::Unbounded, Bound::Included(val))
                    }
                    _ => {}
                }
            }
            Expr::InList {
                expr,
                negated: false,
                list,
            } => {
                let Some(idx) = column_of(expr, binding, table).and_then(|c| table.index_at(c))
                else {
                    continue;
                };
                if idx.columns.len() != 1 {
                    continue;
                }
                let mut ids = Vec::new();
                let mut all_const = true;
                for item in list {
                    match const_of(item, params) {
                        Some(v) => ids.extend(idx.lookup(std::slice::from_ref(v))),
                        None => {
                            all_const = false;
                            break;
                        }
                    }
                }
                if all_const {
                    ids.sort_unstable();
                    ids.dedup();
                    best = Some(intersect(best, ids));
                }
            }
            Expr::Between {
                expr,
                negated: false,
                low,
                high,
            } => {
                let (Some(col), Some(lo), Some(hi)) = (
                    column_of(expr, binding, table),
                    const_of(low, params),
                    const_of(high, params),
                ) else {
                    continue;
                };
                merge_range(&mut ranges, col, Bound::Included(lo), Bound::Included(hi));
            }
            _ => {}
        }
    }

    for (col, lo, hi) in ranges {
        if let Some(idx) = table.index_at(col) {
            best = Some(intersect(best, idx.range(lo, hi)));
        }
    }
    best
}

/// Row ids in the order an index already keeps them, when that order is the
/// ORDER BY: every key a bare column of this table, all keys in one
/// direction, and some index's column list starting with exactly those
/// columns. `None` when the rows have to be sorted instead.
pub(crate) fn index_order(
    table: &Table,
    binding: &str,
    order_by: &[OrderByItem],
) -> Option<Vec<RowId>> {
    let first = order_by.first()?;
    if !order_by.iter().all(|o| o.desc == first.desc) {
        return None;
    }
    let positions: Vec<usize> = order_by
        .iter()
        .map(|item| column_of(&item.expr, binding, table))
        .collect::<Option<_>>()?;
    let idx = table.index_at(positions[0])?;
    if !idx.columns.starts_with(&positions) {
        return None;
    }
    let desc = first.desc;
    Some(if desc {
        idx.scan_rev().collect()
    } else {
        idx.scan().collect()
    })
}

fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// The range the conjuncts seen so far leave one column (by schema
/// position): `(column, low, high)`.
type ColumnRange<'a> = (usize, Bound<&'a Value>, Bound<&'a Value>);

fn merge_range<'a>(
    ranges: &mut Vec<ColumnRange<'a>>,
    col: usize,
    lo: Bound<&'a Value>,
    hi: Bound<&'a Value>,
) {
    let at = ranges.iter().position(|r| r.0 == col).unwrap_or_else(|| {
        ranges.push((col, Bound::Unbounded, Bound::Unbounded));
        ranges.len() - 1
    });
    let range = &mut ranges[at];
    range.1 = tighter(range.1, lo, Ordering::Greater);
    range.2 = tighter(range.2, hi, Ordering::Less);
}

/// The stricter of two bounds on one side of a range: the one whose value
/// compares `stricter` to the other's (greater for a low bound, less for a
/// high one), an exclusive bound over an inclusive one on the same value.
fn tighter<'a>(a: Bound<&'a Value>, b: Bound<&'a Value>, stricter: Ordering) -> Bound<&'a Value> {
    match (a, b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.total_cmp(y) {
                Ordering::Equal if matches!(a, Bound::Excluded(_)) => a,
                Ordering::Equal => b,
                ord if ord == stricter => a,
                _ => b,
            }
        }
    }
}

fn intersect(best: Option<Vec<RowId>>, mut ids: Vec<RowId>) -> Vec<RowId> {
    match best {
        None => ids,
        Some(prev) => {
            let set: std::collections::HashSet<_> = prev.into_iter().collect();
            ids.retain(|id| set.contains(id));
            ids
        }
    }
}

fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        Expr::Nested(inner) => collect_conjuncts(inner, out),
        other => out.push(other),
    }
}

/// Resolve an expression to a column of the given table binding — its
/// schema position — if it is a bare (optionally qualified) column reference.
fn column_of(e: &Expr, binding: &str, table: &Table) -> Option<usize> {
    let Expr::Column(c) = unwrap_nested(e) else {
        return None;
    };
    if let Some(t) = &c.table {
        if !t.eq_ignore_ascii_case(binding) {
            return None;
        }
    }
    table.schema.column_index(&c.column)
}

/// Resolve an expression to a constant (literal or bound parameter).
fn const_of<'a>(e: &'a Expr, params: &'a [Value]) -> Option<&'a Value> {
    match unwrap_nested(e) {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
    }
}

fn unwrap_nested(e: &Expr) -> &Expr {
    match e {
        Expr::Nested(inner) => unwrap_nested(inner),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn execute_join(
    left_rows: Vec<Vec<Value>>,
    left_scope: &Scope,
    combined_scope: &Scope,
    right: &Table,
    right_binding: &str,
    join: &Join,
    params: &[Value],
    view: &ReadView,
) -> Result<Vec<Vec<Value>>> {
    let right_arity = right.schema.arity();

    // Find AND-connected equi-conditions usable as join keys:
    // (left-expr-col, right-table-col).
    let mut eq_keys: Vec<(ColumnRef, String)> = Vec::new();
    let mut conjuncts = Vec::new();
    if let Some(on) = &join.on {
        collect_conjuncts(on, &mut conjuncts);
        for c in &conjuncts {
            if let Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right: r,
            } = c
            {
                if let (Expr::Column(lc), Expr::Column(rc)) =
                    (unwrap_nested(left), unwrap_nested(r))
                {
                    let l_in_left = left_scope.resolve(lc).is_ok();
                    let r_is_right = rc
                        .table
                        .as_deref()
                        .map(|t| t.eq_ignore_ascii_case(right_binding))
                        .unwrap_or(true)
                        && right.schema.column_index(&rc.column).is_some()
                        && left_scope.resolve(rc).is_err();
                    if l_in_left && r_is_right {
                        eq_keys.push((lc.clone(), rc.column.clone()));
                        continue;
                    }
                    let r_in_left = left_scope.resolve(rc).is_ok();
                    let l_is_right = lc
                        .table
                        .as_deref()
                        .map(|t| t.eq_ignore_ascii_case(right_binding))
                        .unwrap_or(true)
                        && right.schema.column_index(&lc.column).is_some()
                        && left_scope.resolve(lc).is_err();
                    if r_in_left && l_is_right {
                        eq_keys.push((rc.clone(), lc.column.clone()));
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    let emit = |out: &mut Vec<Vec<Value>>, l: &[Value], r: Option<&[Value]>| {
        let mut row = l.to_vec();
        match r {
            Some(r) => row.extend_from_slice(r),
            None => row.extend(std::iter::repeat_n(Value::Null, right_arity)),
        }
        out.push(row);
    };

    // Index nested-loop: single equi key whose right column has an index.
    if let Some((l_ref, r_col)) = eq_keys.first() {
        let single_key = eq_keys.len() == 1;
        if single_key && right.index_on(r_col).is_some() {
            for l_row in &left_rows {
                let lv = {
                    let ctx = EvalContext::new(left_scope, l_row, params);
                    eval(&Expr::Column(l_ref.clone()), &ctx)?
                };
                let idx = right.index_on(r_col).expect("checked above");
                let mut matched = false;
                for &rid in idx.lookup(&[lv]) {
                    // Entries can point at versions outside the view (deleted
                    // but unvacuumed rows, other txns' pending writes) — skip.
                    let Some(r_row) = right.get_visible(rid, view) else {
                        continue;
                    };
                    let mut candidate = l_row.clone();
                    candidate.extend_from_slice(r_row);
                    if residual_ok(join, combined_scope, &candidate, params)? {
                        out.push(candidate);
                        matched = true;
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    emit(&mut out, l_row, None);
                }
            }
            return Ok(out);
        }
    }

    // Hash join: at least one equi key.
    if !eq_keys.is_empty() {
        let mut build: HashMap<Vec<Value>, Vec<RowId>> = HashMap::new();
        for (rid, r_row) in right.scan_visible(view) {
            let key: Vec<Value> = eq_keys
                .iter()
                .map(|(_, r_col)| {
                    let i = right.schema.column_index(r_col).expect("validated");
                    r_row[i].clone()
                })
                .collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            build.entry(key).or_default().push(rid);
        }
        for l_row in &left_rows {
            let ctx = EvalContext::new(left_scope, l_row, params);
            let key: Result<Vec<Value>> = eq_keys
                .iter()
                .map(|(l_ref, _)| eval(&Expr::Column(l_ref.clone()), &ctx))
                .collect();
            let key = key?;
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(rids) = build.get(&key) {
                    for rid in rids {
                        let r_row = right
                            .get_visible(*rid, view)
                            .expect("built from visible scan");
                        let mut candidate = l_row.clone();
                        candidate.extend_from_slice(r_row);
                        if residual_ok(join, combined_scope, &candidate, params)? {
                            out.push(candidate);
                            matched = true;
                        }
                    }
                }
            }
            if !matched && join.kind == JoinKind::Left {
                emit(&mut out, l_row, None);
            }
        }
        return Ok(out);
    }

    // Nested loop (cross join or opaque ON condition).
    let right_rows: Vec<Vec<Value>> = right.scan_visible(view).map(|(_, r)| r.clone()).collect();
    for l_row in &left_rows {
        let mut matched = false;
        for r_row in &right_rows {
            let mut candidate = l_row.clone();
            candidate.extend_from_slice(r_row);
            if residual_ok(join, combined_scope, &candidate, params)? {
                out.push(candidate);
                matched = true;
            }
        }
        if !matched && join.kind == JoinKind::Left {
            emit(&mut out, l_row, None);
        }
    }
    Ok(out)
}

fn residual_ok(
    join: &Join,
    combined_scope: &Scope,
    candidate: &[Value],
    params: &[Value],
) -> Result<bool> {
    match &join.on {
        None => Ok(true),
        Some(on) => {
            let ctx = EvalContext::new(combined_scope, candidate, params);
            eval_predicate(on, &ctx)
        }
    }
}

// ---------------------------------------------------------------------------
// Plain (non-grouped) projection / ordering
// ---------------------------------------------------------------------------

fn execute_plain(
    stmt: &SelectStatement,
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    params: &[Value],
) -> Result<ResultSet> {
    // Sort first (ORDER BY refers to source columns).
    let rows = sort_rows(rows, &stmt.order_by, scope, params, None)?;
    let columns = projection_columns(&stmt.projection, scope)?;
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in &rows {
        out_rows.push(project_row(&stmt.projection, scope, row, params, None)?);
    }
    Ok(ResultSet::new(columns, out_rows))
}

fn sort_rows(
    mut rows: Vec<Vec<Value>>,
    order_by: &[OrderByItem],
    scope: &Scope,
    params: &[Value],
    aggregates: Option<&[HashMap<String, Value>]>,
) -> Result<Vec<Vec<Value>>> {
    if order_by.is_empty() {
        return Ok(rows);
    }
    // Precompute keys to avoid re-evaluating inside the comparator.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for (i, row) in rows.drain(..).enumerate() {
        let mut key = Vec::with_capacity(order_by.len());
        for item in order_by {
            let mut ctx = EvalContext::new(scope, &row, params);
            if let Some(aggs) = aggregates {
                ctx.aggregates = Some(&aggs[i]);
            }
            key.push(eval(&item.expr, &ctx)?);
        }
        keyed.push((key, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, item) in order_by.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = if item.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

pub(crate) fn projection_columns(projection: &[SelectItem], scope: &Scope) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                for i in 0..scope.len() {
                    out.push(scope.binding(i).1.to_string());
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for i in 0..scope.len() {
                    let (q, n) = scope.binding(i);
                    if q.is_some_and(|q| q.eq_ignore_ascii_case(t)) {
                        out.push(n.to_string());
                        any = true;
                    }
                }
                if !any {
                    return Err(StorageError::Execution(format!(
                        "unknown table '{t}' in {t}.*"
                    )));
                }
            }
            SelectItem::Expr { expr, alias } => {
                out.push(projection_name(expr, alias.as_deref()));
            }
        }
    }
    Ok(out)
}

pub(crate) fn projection_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column(c) => c.column.clone(),
        other => format_expr(other, Dialect::Standard),
    }
}

pub(crate) fn project_row(
    projection: &[SelectItem],
    scope: &Scope,
    row: &[Value],
    params: &[Value],
    aggregates: Option<&HashMap<String, Value>>,
) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => out.extend_from_slice(row),
            SelectItem::QualifiedWildcard(t) => {
                for (i, cell) in row.iter().enumerate().take(scope.len()) {
                    let (q, _) = scope.binding(i);
                    if q.is_some_and(|q| q.eq_ignore_ascii_case(t)) {
                        out.push(cell.clone());
                    }
                }
            }
            SelectItem::Expr { expr, .. } => {
                let mut ctx = EvalContext::new(scope, row, params);
                ctx.aggregates = aggregates;
                out.push(eval(expr, &ctx)?);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Grouped execution
// ---------------------------------------------------------------------------

/// Aggregate accumulator for one (function-call, group) pair. Public so the
/// sharding kernel's raw-row merge path (the `agg_pushdown = off` ablation)
/// reproduces these exact NULL/Int/Float semantics when it aggregates
/// streamed raw rows itself.
pub enum Accumulator {
    CountStar(i64),
    Count(i64),
    CountDistinct(std::collections::HashSet<Value>),
    Sum {
        total: f64,
        any: bool,
        all_int: bool,
    },
    SumDistinct(std::collections::HashSet<Value>),
    Avg {
        total: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    pub fn for_call(call: &FunctionCall) -> Accumulator {
        match (call.name.as_str(), call.star, call.distinct) {
            ("COUNT", true, _) => Accumulator::CountStar(0),
            ("COUNT", false, true) => Accumulator::CountDistinct(Default::default()),
            ("COUNT", false, false) => Accumulator::Count(0),
            ("SUM", _, true) => Accumulator::SumDistinct(Default::default()),
            ("SUM", _, false) => Accumulator::Sum {
                total: 0.0,
                any: false,
                all_int: true,
            },
            ("AVG", _, _) => Accumulator::Avg { total: 0.0, n: 0 },
            ("MIN", _, _) => Accumulator::Min(None),
            ("MAX", _, _) => Accumulator::Max(None),
            _ => unreachable!("is_aggregate() gates the call"),
        }
    }

    pub fn update(&mut self, v: Option<Value>) {
        match self {
            // Distinct sets take ownership directly — no clone on insert.
            Accumulator::CountDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            Accumulator::SumDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            _ => self.update_ref(v.as_ref()),
        }
    }

    /// Borrowing update for the vectorized batch path: column vectors feed
    /// values by reference, so per-row clones happen only where ownership is
    /// genuinely needed (a new MIN/MAX extreme, a first-seen DISTINCT value).
    pub fn update_ref(&mut self, v: Option<&Value>) {
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::Count(n) => {
                if v.is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            Accumulator::CountDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() && !set.contains(v) {
                        set.insert(v.clone());
                    }
                }
            }
            Accumulator::Sum {
                total,
                any,
                all_int,
            } => {
                if let Some(v) = v {
                    if let Some(f) = v.as_float() {
                        *total += f;
                        *any = true;
                        if !matches!(v, Value::Int(_)) {
                            *all_int = false;
                        }
                    }
                }
            }
            Accumulator::SumDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() && !set.contains(v) {
                        set.insert(v.clone());
                    }
                }
            }
            Accumulator::Avg { total, n } => {
                if let Some(v) = v {
                    if let Some(f) = v.as_float() {
                        *total += f;
                        *n += 1;
                    }
                }
            }
            Accumulator::Min(best) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = best
                            .as_ref()
                            .map(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                            .unwrap_or(true);
                        if better {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
            Accumulator::Max(best) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = best
                            .as_ref()
                            .map(|b| v.total_cmp(b) == std::cmp::Ordering::Greater)
                            .unwrap_or(true);
                        if better {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
        }
    }

    pub fn finish(self) -> Value {
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => Value::Int(n),
            Accumulator::CountDistinct(set) => Value::Int(set.len() as i64),
            Accumulator::Sum {
                total,
                any,
                all_int,
            } => {
                if !any {
                    Value::Null
                } else if all_int && total.fract() == 0.0 {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            Accumulator::SumDistinct(set) => {
                if set.is_empty() {
                    Value::Null
                } else {
                    let all_int = set.iter().all(|v| matches!(v, Value::Int(_)));
                    let total: f64 = set.iter().filter_map(Value::as_float).sum();
                    if all_int {
                        Value::Int(total as i64)
                    } else {
                        Value::Float(total)
                    }
                }
            }
            Accumulator::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(total / n as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

pub(crate) struct Group {
    pub(crate) first_row: Vec<Value>,
    pub(crate) accs: Vec<Accumulator>,
}

/// Every aggregate call appearing anywhere in the statement, deduplicated by
/// formatted shape. Shared between the row-path [`GroupedState`] and the
/// batch path so both build identical accumulator sets in identical order.
pub(crate) fn collect_agg_calls(stmt: &SelectStatement) -> Vec<FunctionCall> {
    let mut agg_calls: Vec<FunctionCall> = Vec::new();
    let mut push_aggs = |e: &Expr| {
        e.walk(&mut |x| {
            if let Expr::Function(f) = x {
                if f.is_aggregate() {
                    let key = format_expr(&Expr::Function(f.clone()), Dialect::Standard);
                    if !agg_calls
                        .iter()
                        .any(|c| format_expr(&Expr::Function(c.clone()), Dialect::Standard) == key)
                    {
                        agg_calls.push(f.clone());
                    }
                }
            }
        });
    };
    for item in &stmt.projection {
        if let SelectItem::Expr { expr, .. } = item {
            push_aggs(expr);
        }
    }
    if let Some(h) = &stmt.having {
        push_aggs(h);
    }
    for o in &stmt.order_by {
        push_aggs(&o.expr);
    }
    agg_calls
}

/// Grouped-execution state: [`execute_grouped`] pushes rows one at a time,
/// the batch scan hands over groups it accumulated from column vectors
/// ([`GroupedState::from_parts`]); either way [`GroupedState::finish`]
/// applies HAVING / ORDER BY / projection.
pub(crate) struct GroupedState {
    agg_calls: Vec<FunctionCall>,
    groups: Vec<Group>,
    group_of: HashMap<Vec<Value>, usize>,
}

impl GroupedState {
    pub(crate) fn new(stmt: &SelectStatement) -> Self {
        GroupedState {
            agg_calls: collect_agg_calls(stmt),
            groups: Vec::new(),
            group_of: HashMap::new(),
        }
    }

    /// Rebuild a state from externally accumulated groups (the batch path
    /// builds its groups from column vectors, then borrows [`Self::finish`]
    /// so HAVING / ORDER BY / projection run through one code path).
    pub(crate) fn from_parts(agg_calls: Vec<FunctionCall>, groups: Vec<Group>) -> Self {
        GroupedState {
            agg_calls,
            groups,
            group_of: HashMap::new(),
        }
    }

    /// Fold one (WHERE-filtered) source row into its group's accumulators.
    pub(crate) fn push(
        &mut self,
        stmt: &SelectStatement,
        scope: &Scope,
        row: &[Value],
        params: &[Value],
    ) -> Result<()> {
        let ctx = EvalContext::new(scope, row, params);
        let key: Result<Vec<Value>> = stmt.group_by.iter().map(|e| eval(e, &ctx)).collect();
        let key = key?;
        let gidx = *self.group_of.entry(key).or_insert_with(|| {
            self.groups.push(Group {
                first_row: row.to_vec(),
                accs: self.agg_calls.iter().map(Accumulator::for_call).collect(),
            });
            self.groups.len() - 1
        });
        let g = &mut self.groups[gidx];
        for (acc, call) in g.accs.iter_mut().zip(&self.agg_calls) {
            let v = if call.star {
                None
            } else {
                let ctx = EvalContext::new(scope, row, params);
                Some(eval(&call.args[0], &ctx)?)
            };
            acc.update(v);
        }
        Ok(())
    }

    /// Finish the accumulators and run HAVING, ORDER BY and projection.
    pub(crate) fn finish(
        self,
        stmt: &SelectStatement,
        scope: &Scope,
        params: &[Value],
    ) -> Result<ResultSet> {
        let GroupedState {
            agg_calls,
            mut groups,
            ..
        } = self;

        // Aggregates over an empty input with no GROUP BY yield one row.
        if groups.is_empty() && stmt.group_by.is_empty() {
            groups.push(Group {
                first_row: vec![Value::Null; scope.len()],
                accs: agg_calls.iter().map(Accumulator::for_call).collect(),
            });
        }

        // Finish accumulators into per-group aggregate maps.
        let mut group_rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
        let mut group_aggs: Vec<HashMap<String, Value>> = Vec::with_capacity(groups.len());
        for g in groups {
            let mut map = HashMap::new();
            for (acc, call) in g.accs.into_iter().zip(&agg_calls) {
                let key = format_expr(&Expr::Function(call.clone()), Dialect::Standard);
                map.insert(key, acc.finish());
            }
            group_rows.push(g.first_row);
            group_aggs.push(map);
        }

        // HAVING filter.
        if let Some(h) = &stmt.having {
            let mut kept_rows = Vec::new();
            let mut kept_aggs = Vec::new();
            for (row, aggs) in group_rows.into_iter().zip(group_aggs) {
                let mut ctx = EvalContext::new(scope, &row, params);
                ctx.aggregates = Some(&aggs);
                if eval_predicate(h, &ctx)? {
                    kept_rows.push(row);
                    kept_aggs.push(aggs);
                }
            }
            group_rows = kept_rows;
            group_aggs = kept_aggs;
        }

        // ORDER BY over groups (may reference aggregates).
        if !stmt.order_by.is_empty() {
            type KeyedGroup = (Vec<Value>, Vec<Value>, HashMap<String, Value>);
            let mut keyed: Vec<KeyedGroup> = Vec::new();
            for (row, aggs) in group_rows.into_iter().zip(group_aggs) {
                let mut key = Vec::with_capacity(stmt.order_by.len());
                for item in &stmt.order_by {
                    let mut ctx = EvalContext::new(scope, &row, params);
                    ctx.aggregates = Some(&aggs);
                    key.push(eval(&item.expr, &ctx)?);
                }
                keyed.push((key, row, aggs));
            }
            keyed.sort_by(|(ka, _, _), (kb, _, _)| {
                for (i, item) in stmt.order_by.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = if item.desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            group_rows = Vec::with_capacity(keyed.len());
            group_aggs = Vec::with_capacity(keyed.len());
            for (_, row, aggs) in keyed {
                group_rows.push(row);
                group_aggs.push(aggs);
            }
        }

        // Project each group.
        let columns = projection_columns(&stmt.projection, scope)?;
        let mut out_rows = Vec::with_capacity(group_rows.len());
        for (row, aggs) in group_rows.iter().zip(&group_aggs) {
            out_rows.push(project_row(
                &stmt.projection,
                scope,
                row,
                params,
                Some(aggs),
            )?);
        }
        Ok(ResultSet::new(columns, out_rows))
    }
}

fn execute_grouped(
    stmt: &SelectStatement,
    scope: &Scope,
    rows: Vec<Vec<Value>>,
    params: &[Value],
) -> Result<ResultSet> {
    let mut state = GroupedState::new(stmt);
    for row in &rows {
        state.push(stmt, scope, row, params)?;
    }
    state.finish(stmt, scope, params)
}
