//! The result merger (paper §VI-E): strategy selection and the DISTINCT /
//! HAVING / pagination / strip-derived decorators, written once over a
//! generic per-shard row cursor.
//!
//! [`merge_stream`] feeds it live shard [`RowStream`]s (the proxy and
//! `Session::query_stream`): the sorted strategies — pass-through, iteration,
//! priority-queue order-by merge, stream group merge — consume rows as they
//! arrive, so merging starts with the first shard row.
//! [`merge_results`] feeds it buffered `ResultSet`s (the materialized entry
//! points [`merge`](super::merge) / [`merge_explain`](super::merge_explain)).
//! Memory-bound strategies (single-group, hash group merge, raw aggregate)
//! drain their cursors first either way, because they cannot emit anything
//! before every shard finishes.
//!
//! The merged stream re-applies the original `LIMIT offset, n` window. Once
//! the window is filled it drops its sources (closing every bounded shard
//! channel) and fires the shared [`CancelToken`], stopping in-flight shard
//! scans early. Shard errors surface through a shared slot: the adapters
//! feeding the merger cannot carry a `Result` per row, so the first error is
//! parked, the token is fired, and the next pull from [`MergedStream`]
//! reports it.

use crate::error::{KernelError, Result};
use crate::executor::{CancelToken, RowStream};
use crate::merge::groupby::{self, AggPositions};
use crate::merge::orderby::OrderByStreamMerger;
use crate::merge::{resolve_sort_keys, MergerKind};
use crate::rewrite::DerivedInfo;
use parking_lot::Mutex;
use shard_sql::{Expr, Value};
use shard_storage::eval::{eval_predicate, EvalContext, Scope};
use shard_storage::ResultSet;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

type ErrorSlot = Arc<Mutex<Option<KernelError>>>;
type Rows = Box<dyn Iterator<Item = Vec<Value>> + Send>;

/// Adapts one shard's [`RowStream`] to the plain-row iterator the mergers
/// expect: the first error is parked in the shared slot (and cancels the
/// siblings), then the stream reports exhaustion.
struct SourceAdapter {
    stream: RowStream,
    error: ErrorSlot,
    cancel: CancelToken,
}

impl Iterator for SourceAdapter {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        match self.stream.next_row() {
            Some(Ok(row)) => Some(row),
            Some(Err(e)) => {
                self.cancel.cancel();
                let mut slot = self.error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                None
            }
            None => None,
        }
    }
}

/// Stream group merge as an iterator over a sorted merge of the shard
/// cursors (sorted by the group keys, which form a prefix of the sort keys):
/// adjacent merged rows with equal group keys combine in O(1) state; a group
/// is emitted when the next group key arrives (or at end of input).
pub(crate) struct GroupStreamIter<C>
where
    C: Iterator<Item = Vec<Value>>,
{
    merger: OrderByStreamMerger<C>,
    group_positions: Vec<usize>,
    aggs: Vec<AggPositions>,
    current: Option<Vec<Value>>,
}

impl<C> GroupStreamIter<C>
where
    C: Iterator<Item = Vec<Value>>,
{
    pub(crate) fn new(
        merger: OrderByStreamMerger<C>,
        group_positions: Vec<usize>,
        aggs: Vec<AggPositions>,
    ) -> Self {
        GroupStreamIter {
            merger,
            group_positions,
            aggs,
            current: None,
        }
    }
}

impl<C> Iterator for GroupStreamIter<C>
where
    C: Iterator<Item = Vec<Value>>,
{
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            let Some(row) = self.merger.next() else {
                let mut last = self.current.take()?;
                groupby::finish_row(&mut last, &self.aggs);
                return Some(last);
            };
            match &mut self.current {
                Some(cur)
                    if self
                        .group_positions
                        .iter()
                        .all(|&p| cur[p].total_cmp(&row[p]) == std::cmp::Ordering::Equal) =>
                {
                    groupby::combine_row(cur, &row, &self.aggs);
                }
                _ => {
                    if let Some(mut done) = self.current.replace(row) {
                        groupby::finish_row(&mut done, &self.aggs);
                        return Some(done);
                    }
                }
            }
        }
    }
}

/// Per-row HAVING decorator (merged groups only).
struct HavingFilter {
    expr: Expr,
    scope: Scope,
    agg_positions: Vec<(String, usize)>,
    /// The statement's parameters: HAVING may compare against a placeholder.
    params: Arc<[Value]>,
}

impl HavingFilter {
    fn keep(&self, row: &[Value]) -> Result<bool> {
        let aggs: HashMap<String, Value> = self
            .agg_positions
            .iter()
            .map(|(text, p)| (text.clone(), row[*p].clone()))
            .collect();
        let mut ctx = EvalContext::new(&self.scope, row, &self.params);
        ctx.aggregates = Some(&aggs);
        eval_predicate(&self.expr, &ctx)
            .map_err(|e| KernelError::Merge(format!("HAVING evaluation failed: {e}")))
    }
}

/// The merged, decorated output stream of one query.
pub struct MergedStream {
    columns: Vec<String>,
    kind: MergerKind,
    inner: Option<Rows>,
    /// Where live shard cursors park a failure; buffered sources cannot fail.
    error: Option<ErrorSlot>,
    cancel: CancelToken,
    distinct: Option<HashSet<Vec<Value>>>,
    having: Option<HavingFilter>,
    offset_left: u64,
    limit_left: Option<u64>,
    /// Result width after stripping derived columns (`usize::MAX` = keep all).
    keep: usize,
}

impl MergedStream {
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn kind(&self) -> MergerKind {
        self.kind
    }

    /// Pull the next merged row. The first shard error is terminal; once the
    /// LIMIT window is filled the sources are dropped and the shared token
    /// cancels every in-flight shard scan.
    pub fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        loop {
            if let Some(e) = take_error(self.error.as_ref()) {
                self.inner = None;
                return Err(e);
            }
            if self.limit_left == Some(0) {
                if self.inner.take().is_some() {
                    self.cancel.cancel();
                }
                return Ok(None);
            }
            let Some(inner) = self.inner.as_mut() else {
                return Ok(None);
            };
            let Some(mut row) = inner.next() else {
                // The sources may have parked an error while draining.
                self.inner = None;
                return take_error(self.error.as_ref()).map_or(Ok(None), Err);
            };
            if let Some(seen) = &mut self.distinct {
                // DISTINCT is over the statement's own columns; a derived
                // ORDER BY column still riding in the row is not part of it.
                let own = &row[..self.keep.min(row.len())];
                if !seen.insert(own.to_vec()) {
                    continue;
                }
            }
            if let Some(h) = &self.having {
                if !h.keep(&row)? {
                    continue;
                }
            }
            if self.offset_left > 0 {
                self.offset_left -= 1;
                continue;
            }
            if let Some(left) = &mut self.limit_left {
                *left -= 1;
                if *left == 0 {
                    // Final row of the window: stop shard scans now.
                    self.inner = None;
                    self.cancel.cancel();
                }
            }
            row.truncate(self.keep);
            return Ok(Some(row));
        }
    }

    /// Drain into a materialized result set.
    pub fn into_result_set(mut self) -> Result<ResultSet> {
        let mut rows = Vec::new();
        while let Some(row) = self.next_row()? {
            rows.push(row);
        }
        Ok(ResultSet::new(std::mem::take(&mut self.columns), rows))
    }
}

impl Iterator for MergedStream {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}

impl Drop for MergedStream {
    fn drop(&mut self) {
        // An abandoned stream must not leave shard scans running.
        if self.inner.take().is_some() {
            self.cancel.cancel();
        }
    }
}

fn take_error(slot: Option<&ErrorSlot>) -> Option<KernelError> {
    slot.and_then(|slot| slot.lock().take())
}

/// Build the merged stream over live shard streams. `params` are the
/// statement's, for a placeholder in HAVING.
pub fn merge_stream(
    streams: Vec<RowStream>,
    info: &DerivedInfo,
    params: &Arc<[Value]>,
    cancel: CancelToken,
) -> Result<MergedStream> {
    let error: ErrorSlot = Arc::new(Mutex::new(None));
    // Shards that return nothing still define the column shape.
    let shape = streams
        .iter()
        .map(|s| s.columns())
        .max_by_key(|c| c.len())
        .unwrap_or_default()
        .to_vec();
    let adapters = streams
        .into_iter()
        .map(|stream| SourceAdapter {
            stream,
            error: Arc::clone(&error),
            cancel: cancel.clone(),
        })
        .collect();
    build(shape, adapters, info, params, Some(error), cancel)
}

/// Build the merged stream over buffered shard results: the same merger,
/// reading rows that have already arrived.
pub(crate) fn merge_results(
    mut results: Vec<ResultSet>,
    info: &DerivedInfo,
    params: &Arc<[Value]>,
) -> Result<MergedStream> {
    let shape = results
        .iter_mut()
        .map(|r| &mut r.columns)
        .max_by_key(|c| c.len())
        .map(std::mem::take)
        .unwrap_or_default();
    let cursors = results.into_iter().map(|r| r.rows.into_iter()).collect();
    build(shape, cursors, info, params, None, CancelToken::new())
}

/// Select the merge strategy from the rewrite guidance and wrap it in the
/// decorators. `shape` is the shard result column list (derived columns
/// included); `error` is the slot live cursors park a shard failure in.
fn build<C>(
    shape: Vec<String>,
    mut cursors: Vec<C>,
    info: &DerivedInfo,
    params: &Arc<[Value]>,
    error: Option<ErrorSlot>,
    cancel: CancelToken,
) -> Result<MergedStream>
where
    C: Iterator<Item = Vec<Value>> + Send + 'static,
{
    let keep = if info.derived_columns == 0 {
        usize::MAX
    } else {
        shape.len().saturating_sub(info.derived_columns)
    };
    let mut merged = MergedStream {
        columns: Vec::new(),
        kind: MergerKind::PassThrough,
        inner: None,
        error,
        cancel,
        distinct: None,
        having: None,
        offset_left: 0,
        limit_left: None,
        keep,
    };
    let mut shape = ResultSet::new(shape, Vec::new());
    if cursors.len() == 1 && !info.is_grouped() {
        // Single-shard SELECT: the shard already ordered AND paginated it
        // (the single-node optimization leaves LIMIT/OFFSET on the shard
        // statement), so no decorator may run here.
        merged.inner = Some(Box::new(cursors.pop().expect("one cursor")));
    } else if !cursors.is_empty() {
        let (inner, kind) = select_strategy(cursors, &shape, info, merged.error.as_ref())?;
        merged.inner = Some(inner);
        merged.kind = kind;
        merged.distinct = info.distinct.then(HashSet::new);
        // HAVING evaluates over the full (pre-strip) column shape. Aggregate
        // values come from the merged aggregate columns, keyed by the
        // rendered call text.
        merged.having = info.having.as_ref().map(|expr| HavingFilter {
            expr: expr.clone(),
            scope: Scope::from_columns(&shape.columns),
            agg_positions: info
                .aggregates
                .iter()
                .filter_map(|a| {
                    shape
                        .column_index(&a.column)
                        .map(|p| (a.call_text.clone(), p))
                })
                .collect(),
            params: Arc::clone(params),
        });
        (merged.offset_left, merged.limit_left) = info.limit.unwrap_or((0, None));
    }
    shape.columns.truncate(keep);
    merged.columns = shape.columns;
    Ok(merged)
}

/// The paper's merger selection (§VI-E), for two or more shard cursors (or
/// one, when grouped).
fn select_strategy<C>(
    cursors: Vec<C>,
    shape: &ResultSet,
    info: &DerivedInfo,
    error: Option<&ErrorSlot>,
) -> Result<(Rows, MergerKind)>
where
    C: Iterator<Item = Vec<Value>> + Send + 'static,
{
    let resolve_aggs = || {
        AggPositions::resolve(&info.aggregates, shape).ok_or_else(|| {
            KernelError::Merge("aggregate columns missing from shard results".into())
        })
    };
    let resolve_groups = || {
        info.group_by
            .iter()
            .map(|c| shape.column_index(c))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| KernelError::Merge("group-by columns missing from shard results".into()))
    };
    Ok(if info.raw_rows {
        // Ablated pushdown: shards ship raw rows; aggregate kernel-side.
        // Memory-bound by nature — nothing can be emitted until every
        // raw row has been folded into its group.
        let rows = groupby::raw_aggregate_merge(
            drain(cursors, error)?,
            &resolve_sort_keys(info, shape)?,
            &resolve_groups()?,
            &resolve_aggs()?,
            shape.columns.len(),
        );
        (Box::new(rows.into_iter()), MergerKind::RawAggregate)
    } else if info.is_grouped() {
        let aggs = resolve_aggs()?;
        if info.group_by.is_empty() {
            let rows = groupby::single_group_merge(drain(cursors, error)?, &aggs);
            (Box::new(rows.into_iter()), MergerKind::SingleGroup)
        } else {
            let group_positions = resolve_groups()?;
            let sort_keys = resolve_sort_keys(info, shape)?;
            if info.group_streamable {
                let merger = OrderByStreamMerger::from_cursors(cursors, sort_keys);
                (
                    Box::new(GroupStreamIter::new(merger, group_positions, aggs)),
                    MergerKind::GroupByStream,
                )
            } else {
                let rows = groupby::group_memory_merge(
                    drain(cursors, error)?,
                    &sort_keys,
                    &group_positions,
                    &aggs,
                );
                (Box::new(rows.into_iter()), MergerKind::GroupByMemory)
            }
        }
    } else if !info.order_by.is_empty() {
        let sort_keys = resolve_sort_keys(info, shape)?;
        (
            Box::new(OrderByStreamMerger::from_cursors(cursors, sort_keys)),
            MergerKind::OrderByStream,
        )
    } else {
        (
            Box::new(cursors.into_iter().flatten()),
            MergerKind::Iteration,
        )
    })
}

/// Materialize every cursor (memory-merge strategies). A parked shard error
/// aborts the merge immediately.
fn drain<C>(cursors: Vec<C>, error: Option<&ErrorSlot>) -> Result<Vec<ResultSet>>
where
    C: Iterator<Item = Vec<Value>>,
{
    let mut results = Vec::with_capacity(cursors.len());
    for cursor in cursors {
        let rows: Vec<Vec<Value>> = cursor.collect();
        if let Some(e) = take_error(error) {
            return Err(e);
        }
        results.push(ResultSet::new(Vec::new(), rows));
    }
    Ok(results)
}
