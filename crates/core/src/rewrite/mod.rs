//! SQL rewriter (paper §VI-C): turns logical SQL into statements executable
//! on actual data nodes.
//!
//! *Correctness rewrite*: identifier renaming, column derivation (ORDER
//! BY/GROUP BY columns and AVG decomposition needed by the merger),
//! pagination revision, and batched-INSERT splitting.
//!
//! *Optimization rewrite*: single-node queries skip every derivation
//! (paper's "single node optimization"), and `GROUP BY` without `ORDER BY`
//! gains an `ORDER BY` over the group keys so the merger can stream instead
//! of materializing ("stream merger optimization").

mod derive;
mod identifier;

pub use derive::{derive_select, derive_select_raw, AggKind, AggSpec, DerivedInfo};
pub use identifier::rewrite_identifiers;

use crate::error::{KernelError, Result};
use crate::route::{RouteResult, RouteUnit};
use shard_sql::ast::*;
use shard_sql::Value;
use shard_storage::eval::{eval, EvalContext, Scope};
use std::borrow::Cow;
use std::sync::Arc;

/// Rewrite engine output for one logical statement: the shared derived
/// statement plus merger guidance. Statements that need no derivation are
/// borrowed, not cloned (the single-node hot path).
pub struct RewriteOutput<'a> {
    /// The statement after derivation (before per-unit identifier rewrite).
    pub derived: Cow<'a, Statement>,
    /// Merger guidance (aggregates, order keys, pagination).
    pub info: DerivedInfo,
}

/// Run the route-independent rewrites once per logical statement.
///
/// `agg_pushdown` selects how multi-shard aggregates are decomposed: `true`
/// (the default) sends per-shard partial aggregates to the merger; `false`
/// (`SET agg_pushdown = off`) ships raw rows and aggregates merge-side.
pub fn rewrite_statement<'a>(
    stmt: &'a Statement,
    route: &RouteResult,
    params: &[Value],
    agg_pushdown: bool,
) -> Result<RewriteOutput<'a>> {
    let multi_unit = route.units.len() > 1;
    match stmt {
        Statement::Select(select) if multi_unit => {
            let (derived, info) = if agg_pushdown {
                derive_select(select, params)?
            } else {
                derive_select_raw(select, params)?
            };
            Ok(RewriteOutput {
                derived: Cow::Owned(Statement::Select(derived)),
                info,
            })
        }
        Statement::Select(select) => {
            // Single node optimization: no derivation, no pagination rewrite.
            let info = DerivedInfo {
                limit: resolve_limit(select.limit.as_ref(), params)?,
                ..DerivedInfo::default()
            };
            Ok(RewriteOutput {
                derived: Cow::Borrowed(stmt),
                info,
            })
        }
        _ => Ok(RewriteOutput {
            derived: Cow::Borrowed(stmt),
            info: DerivedInfo::default(),
        }),
    }
}

/// Produce the executable statement for one route unit: the derived
/// statement with the unit's table names, shared from here on — by the plan
/// that keeps it, the executor and a storage cursor.
pub fn rewrite_for_unit(
    output: &RewriteOutput<'_>,
    unit: &RouteUnit,
    route: &RouteResult,
    params: &[Value],
) -> Result<Arc<Statement>> {
    let mut stmt = output.derived.as_ref().clone();
    // Batched INSERT split: keep only the rows that belong to this unit.
    if let Statement::Insert(insert) = &mut stmt {
        split_insert_rows(insert, unit, route, params)?;
    }
    // Multi-table DROP: each unit drops only the tables it maps.
    if let Statement::DropTable(drop) = &mut stmt {
        if !unit.table_mappings.is_empty() {
            drop.names
                .retain(|n| unit.actual_table(n.as_str()).is_some());
        }
    }
    rewrite_identifiers(&mut stmt, unit);
    Ok(Arc::new(stmt))
}

/// One-pass partition of a multi-unit batched INSERT: each row is cloned
/// exactly once, straight into the statement of the unit the route assigned
/// it to. [`rewrite_for_unit`] would instead clone the *full* N-row
/// statement per unit and filter it down — N × units row clones for N kept
/// rows. Returns `None` when the statement is not a row-split multi-unit
/// INSERT (the binder falls back to the per-unit path).
pub fn rewrite_insert_per_unit(
    output: &RewriteOutput<'_>,
    route: &RouteResult,
) -> Option<Vec<Arc<Statement>>> {
    let Statement::Insert(insert) = output.derived.as_ref() else {
        return None;
    };
    if route.units.len() <= 1 {
        return None;
    }
    let assignments = route.insert_row_units.as_ref()?;
    let mut per_unit_rows: Vec<Vec<Vec<Expr>>> = route.units.iter().map(|_| Vec::new()).collect();
    for (i, row) in insert.rows.iter().enumerate() {
        let Some(assigned) = assignments.get(i) else {
            continue;
        };
        if let Some(pos) = route.units.iter().position(|u| u == assigned) {
            per_unit_rows[pos].push(row.clone());
        }
    }
    let mut stmts = Vec::with_capacity(route.units.len());
    for (unit, rows) in route.units.iter().zip(per_unit_rows) {
        let mut stmt = Statement::Insert(InsertStatement {
            table: insert.table.clone(),
            columns: insert.columns.clone(),
            rows,
        });
        rewrite_identifiers(&mut stmt, unit);
        stmts.push(Arc::new(stmt));
    }
    Some(stmts)
}

/// Resolve a LIMIT clause into concrete numbers using bound parameters.
pub(crate) fn resolve_limit(
    limit: Option<&Limit>,
    params: &[Value],
) -> Result<Option<(u64, Option<u64>)>> {
    let Some(lim) = limit else { return Ok(None) };
    let offset = match &lim.offset {
        Some(v) => v
            .resolve(params)
            .ok_or_else(|| KernelError::Rewrite("unresolvable OFFSET parameter".into()))?,
        None => 0,
    };
    let count = match &lim.limit {
        Some(v) => Some(
            v.resolve(params)
                .ok_or_else(|| KernelError::Rewrite("unresolvable LIMIT parameter".into()))?,
        ),
        None => None,
    };
    Ok(Some((offset, count)))
}

/// Keep only the INSERT rows whose sharding value routes to this unit
/// (paper: "splits batched insert SQL ... to avoid writing excessive data").
fn split_insert_rows(
    insert: &mut InsertStatement,
    unit: &RouteUnit,
    route: &RouteResult,
    params: &[Value],
) -> Result<()> {
    if route.units.len() <= 1 {
        return Ok(());
    }
    // The route engine produced one unit per target node; a row belongs to
    // this unit iff routing that row's key lands on this unit's actual
    // table. We re-derive the assignment by evaluating the same key exprs.
    let Some(assignments) = &route.insert_row_units else {
        return Ok(());
    };
    let _ = params;
    let keep: Vec<Vec<Expr>> = insert
        .rows
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            assignments
                .get(*i)
                .is_some_and(|assigned| **assigned == *unit)
        })
        .map(|(_, r)| r.clone())
        .collect();
    insert.rows = keep;
    Ok(())
}

/// Evaluate an INSERT value expression to a constant.
pub(crate) fn eval_const(expr: &Expr, params: &[Value]) -> Result<Value> {
    let scope = Scope::new();
    let ctx = EvalContext::new(&scope, &[], params);
    eval(expr, &ctx).map_err(|e| KernelError::Rewrite(e.to_string()))
}
