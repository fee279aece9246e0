//! Group-by mergers.
//!
//! *Stream* group merge (paper §VI-E case 3): when every shard stream is
//! sorted by the group keys, rows of one group are adjacent in the merged
//! stream, so groups combine with O(1) state.
//!
//! *Memory* group merge (case 4): group keys are hashed, all partial groups
//! are combined in memory, then the result is re-sorted by the ORDER BY.

use super::accumulate::{combine, finish_avg};
use super::orderby::{compare_rows, OrderByStreamMerger, SortKey};
use super::stream::GroupStreamIter;
use crate::rewrite::{AggKind, AggSpec};
use shard_sql::Value;
use shard_storage::ResultSet;
use std::collections::HashMap;

/// Column positions for one aggregate in the shard result shape.
#[derive(Debug, Clone)]
pub struct AggPositions {
    pub kind: AggKind,
    pub position: usize,
    pub sum_position: Option<usize>,
    pub count_position: Option<usize>,
}

impl AggPositions {
    pub fn resolve(specs: &[AggSpec], rs: &ResultSet) -> Option<Vec<AggPositions>> {
        specs
            .iter()
            .map(|s| {
                Some(AggPositions {
                    kind: s.kind,
                    position: rs.column_index(&s.column)?,
                    sum_position: match &s.sum_column {
                        Some(c) => Some(rs.column_index(c)?),
                        None => None,
                    },
                    count_position: match &s.count_column {
                        Some(c) => Some(rs.column_index(c)?),
                        None => None,
                    },
                })
            })
            .collect()
    }
}

/// Combine the partial-aggregate columns of `src` into `dst`.
///
/// A column may be referenced by several specs (e.g. `SELECT SUM(v), AVG(v)`
/// reuses the projected SUM as AVG's derived sum) — each result column must
/// be combined exactly once.
pub(crate) fn combine_row(dst: &mut [Value], src: &[Value], aggs: &[AggPositions]) {
    let mut combined: Vec<usize> = Vec::with_capacity(aggs.len() * 2);
    let mut once = |pos: usize, kind: AggKind, dst: &mut [Value]| {
        if !combined.contains(&pos) {
            combined.push(pos);
            combine(kind, &mut dst[pos], &src[pos]);
        }
    };
    for a in aggs {
        once(a.position, a.kind, dst);
        if let (Some(s), Some(c)) = (a.sum_position, a.count_position) {
            once(s, AggKind::Sum, dst);
            once(c, AggKind::Count, dst);
        }
    }
}

/// Recompute every AVG column from its merged SUM/COUNT.
pub(crate) fn finish_row(row: &mut [Value], aggs: &[AggPositions]) {
    for a in aggs {
        if a.kind == AggKind::Avg {
            if let (Some(s), Some(c)) = (a.sum_position, a.count_position) {
                row[a.position] = finish_avg(&row[s], &row[c]);
            }
        }
    }
}

/// Stream group merge: inputs sorted by the group keys (which form a prefix
/// of the sort keys).
pub fn group_stream_merge(
    results: Vec<ResultSet>,
    sort_keys: &[SortKey],
    group_positions: &[usize],
    aggs: &[AggPositions],
) -> Vec<Vec<Value>> {
    GroupStreamIter::new(
        OrderByStreamMerger::new(results, sort_keys.to_vec()),
        group_positions.to_vec(),
        aggs.to_vec(),
    )
    .collect()
}

/// Memory group merge: hash-combine, then sort by the ORDER BY keys.
pub fn group_memory_merge(
    results: Vec<ResultSet>,
    sort_keys: &[SortKey],
    group_positions: &[usize],
    aggs: &[AggPositions],
) -> Vec<Vec<Value>> {
    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new(); // first-seen key order
    for rs in results {
        for row in rs.rows {
            let key: Vec<Value> = group_positions.iter().map(|&p| row[p].clone()).collect();
            match groups.get_mut(&key) {
                Some(cur) => combine_row(cur, &row, aggs),
                None => {
                    order.push(key.clone());
                    groups.insert(key, row);
                }
            }
        }
    }
    let mut out: Vec<Vec<Value>> = order
        .into_iter()
        .map(|k| {
            let mut row = groups.remove(&k).expect("key recorded at insert");
            finish_row(&mut row, aggs);
            row
        })
        .collect();
    if !sort_keys.is_empty() {
        out.sort_by(|a, b| compare_rows(a, b, sort_keys));
    }
    out
}

/// Raw-row aggregate merge: the ablated (`SET agg_pushdown = off`) baseline
/// where shards ship raw argument rows and the kernel aggregates them
/// itself. Reuses the storage engine's [`Accumulator`] so the result is
/// byte-identical to what the shards would have computed: COUNT(*) counts a
/// never-NULL literal `1` column, COUNT(col) skips NULLs, SUM stays integer
/// when every input was, AVG/MIN/MAX of no rows are NULL.
///
/// `width` is the shard result shape's column count, needed to synthesize
/// the one all-NULL-keyed row an ungrouped aggregate yields on empty input
/// (the pushdown path gets that row from each shard).
///
/// [`Accumulator`]: shard_storage::exec_select::Accumulator
pub fn raw_aggregate_merge(
    results: Vec<ResultSet>,
    sort_keys: &[SortKey],
    group_positions: &[usize],
    aggs: &[AggPositions],
    width: usize,
) -> Vec<Vec<Value>> {
    use shard_storage::exec_select::Accumulator;

    struct RawGroup {
        first_row: Vec<Value>,
        accs: Vec<Accumulator>,
    }
    fn fresh(aggs: &[AggPositions]) -> Vec<Accumulator> {
        aggs.iter()
            .map(|a| match a.kind {
                AggKind::Count => Accumulator::Count(0),
                AggKind::Sum => Accumulator::Sum {
                    total: 0.0,
                    any: false,
                    all_int: true,
                },
                AggKind::Avg => Accumulator::Avg { total: 0.0, n: 0 },
                AggKind::Min => Accumulator::Min(None),
                AggKind::Max => Accumulator::Max(None),
            })
            .collect()
    }

    let mut groups: Vec<RawGroup> = Vec::new();
    let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
    for rs in results {
        for row in rs.rows {
            let key: Vec<Value> = group_positions.iter().map(|&p| row[p].clone()).collect();
            let gidx = match group_of.get(&key) {
                Some(&i) => i,
                None => {
                    groups.push(RawGroup {
                        first_row: row.clone(),
                        accs: fresh(aggs),
                    });
                    group_of.insert(key, groups.len() - 1);
                    groups.len() - 1
                }
            };
            let g = &mut groups[gidx];
            for (acc, a) in g.accs.iter_mut().zip(aggs) {
                acc.update(Some(row[a.position].clone()));
            }
        }
    }
    // Ungrouped aggregates over zero raw rows still yield one row, exactly
    // as every shard does on the pushdown path.
    if groups.is_empty() && group_positions.is_empty() && !aggs.is_empty() {
        groups.push(RawGroup {
            first_row: vec![Value::Null; width],
            accs: fresh(aggs),
        });
    }

    let mut out: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|g| {
            let mut row = g.first_row;
            for (acc, a) in g.accs.into_iter().zip(aggs) {
                row[a.position] = acc.finish();
            }
            row
        })
        .collect();
    if !sort_keys.is_empty() {
        out.sort_by(|a, b| compare_rows(a, b, sort_keys));
    }
    out
}

/// No GROUP BY but aggregates present: all rows collapse into one group.
pub fn single_group_merge(results: Vec<ResultSet>, aggs: &[AggPositions]) -> Vec<Vec<Value>> {
    let mut current: Option<Vec<Value>> = None;
    for rs in results {
        for row in rs.rows {
            match &mut current {
                Some(cur) => combine_row(cur, &row, aggs),
                None => current = Some(row),
            }
        }
    }
    match current {
        Some(mut row) => {
            finish_row(&mut row, aggs);
            vec![row]
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score_rs(rows: Vec<(&str, i64, i64)>) -> ResultSet {
        // name, SUM(score), COUNT(score)
        ResultSet::new(
            vec!["name".into(), "total".into(), "n".into()],
            rows.into_iter()
                .map(|(name, total, n)| {
                    vec![Value::Str(name.into()), Value::Int(total), Value::Int(n)]
                })
                .collect(),
        )
    }

    fn aggs() -> Vec<AggPositions> {
        vec![
            AggPositions {
                kind: AggKind::Sum,
                position: 1,
                sum_position: None,
                count_position: None,
            },
            AggPositions {
                kind: AggKind::Count,
                position: 2,
                sum_position: None,
                count_position: None,
            },
        ]
    }

    fn keys() -> Vec<SortKey> {
        vec![SortKey {
            position: 0,
            desc: false,
        }]
    }

    #[test]
    fn stream_merge_combines_adjacent_groups() {
        // Paper Fig 7: t_score sharded over three sources; per-source sorted
        // GROUP BY name results combine into one row per name.
        let r1 = score_rs(vec![("jerry", 88, 1), ("tom", 95, 1)]);
        let r2 = score_rs(vec![("jerry", 90, 1), ("tom", 78, 1)]);
        let r3 = score_rs(vec![("lily", 87, 1), ("tom", 85, 1)]);
        let out = group_stream_merge(vec![r1, r2, r3], &keys(), &[0], &aggs());
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            vec![Value::Str("jerry".into()), Value::Int(178), Value::Int(2)]
        );
        assert_eq!(
            out[1],
            vec![Value::Str("lily".into()), Value::Int(87), Value::Int(1)]
        );
        assert_eq!(
            out[2],
            vec![Value::Str("tom".into()), Value::Int(258), Value::Int(3)]
        );
    }

    #[test]
    fn memory_merge_equals_stream_merge() {
        let r1 = score_rs(vec![("jerry", 88, 1), ("tom", 95, 1)]);
        let r2 = score_rs(vec![("jerry", 90, 1), ("tom", 78, 1)]);
        let stream = group_stream_merge(vec![r1.clone(), r2.clone()], &keys(), &[0], &aggs());
        let memory = group_memory_merge(vec![r1, r2], &keys(), &[0], &aggs());
        assert_eq!(stream, memory);
    }

    #[test]
    fn single_group_collapses_everything() {
        let r1 = score_rs(vec![("_", 10, 2)]);
        let r2 = score_rs(vec![("_", 30, 5)]);
        let out = single_group_merge(vec![r1, r2], &aggs());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][1], Value::Int(40));
        assert_eq!(out[0][2], Value::Int(7));
    }

    #[test]
    fn single_group_empty_input() {
        let out = single_group_merge(vec![], &aggs());
        assert!(out.is_empty());
    }

    #[test]
    fn avg_positions_recompute() {
        // columns: name, AVG, SUM, COUNT
        let rs1 = ResultSet::new(
            vec!["name".into(), "avg".into(), "s".into(), "c".into()],
            vec![vec![
                Value::Str("a".into()),
                Value::Float(10.0),
                Value::Int(10),
                Value::Int(1),
            ]],
        );
        let rs2 = ResultSet::new(
            rs1.columns.clone(),
            vec![vec![
                Value::Str("a".into()),
                Value::Float(2.0 / 3.0),
                Value::Int(2),
                Value::Int(3),
            ]],
        );
        let aggs = vec![AggPositions {
            kind: AggKind::Avg,
            position: 1,
            sum_position: Some(2),
            count_position: Some(3),
        }];
        let out = group_stream_merge(vec![rs1, rs2], &keys(), &[0], &aggs);
        assert_eq!(out[0][1], Value::Float(3.0)); // 12/4, not mean of means
    }

    #[test]
    fn memory_merge_sorts_by_aggregate() {
        // ORDER BY total DESC with unsorted shard inputs.
        let r1 = score_rs(vec![("a", 5, 1), ("b", 50, 1)]);
        let r2 = score_rs(vec![("a", 10, 1)]);
        let sort = vec![SortKey {
            position: 1,
            desc: true,
        }];
        let out = group_memory_merge(vec![r1, r2], &sort, &[0], &aggs());
        assert_eq!(out[0][0], Value::Str("b".into()));
        assert_eq!(
            out[1],
            vec![Value::Str("a".into()), Value::Int(15), Value::Int(2)]
        );
    }
}
