//! Result merger (paper §VI-E): combines per-shard result sets into one.
//!
//! Merger selection follows the paper: iteration for plain selects,
//! priority-queue stream merge for ORDER BY, stream group merge when the
//! shard streams are sorted by the group keys, memory group merge
//! otherwise; plus decorators for DISTINCT, HAVING and pagination. There is
//! one merger, in [`stream`], generic over its row source; the entry points
//! here hand it buffered shard results and collect what it yields.

pub mod accumulate;
pub mod groupby;
pub mod orderby;
pub mod stream;

pub use groupby::AggPositions;
pub use orderby::{OrderByStreamMerger, SortKey};
pub use stream::{merge_stream, MergedStream};

use crate::error::{KernelError, Result};
use crate::rewrite::DerivedInfo;
use shard_sql::Value;
use shard_storage::ResultSet;
use std::sync::Arc;

/// Which merge strategy handled the query (diagnostics / tests / benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergerKind {
    /// Single shard: pass-through, no merging needed.
    PassThrough,
    Iteration,
    OrderByStream,
    GroupByStream,
    GroupByMemory,
    SingleGroup,
    /// Aggregate pushdown ablated: shards shipped raw rows and the merger
    /// ran the accumulators itself (`SET agg_pushdown = off`).
    RawAggregate,
}

/// Merge shard results according to the rewrite guidance, for a statement
/// that binds no parameters.
pub fn merge(results: Vec<ResultSet>, info: &DerivedInfo) -> Result<ResultSet> {
    Ok(merge_explain(results, info, &Arc::default())?.0)
}

/// Like [`merge`] but also reports which strategy was used. The merger is
/// the streaming one ([`stream`]) reading the buffered results: one
/// strategy selection and one set of decorators serve both entry points.
pub fn merge_explain(
    mut results: Vec<ResultSet>,
    info: &DerivedInfo,
    params: &Arc<[Value]>,
) -> Result<(ResultSet, MergerKind)> {
    if results.len() == 1 && !info.is_grouped() && info.derived_columns == 0 {
        // One shard answered and there is nothing to strip: its result is
        // the answer. The merger would pass the same rows through one by
        // one; on a 6 µs point select that is 0.09 vs 0.3 µs.
        let only = results.pop().expect("one result");
        return Ok((only, MergerKind::PassThrough));
    }
    let merged = stream::merge_results(results, info, params)?;
    let kind = merged.kind();
    Ok((merged.into_result_set()?, kind))
}

pub(crate) fn resolve_sort_keys(info: &DerivedInfo, shape: &ResultSet) -> Result<Vec<SortKey>> {
    info.order_by
        .iter()
        .map(|k| {
            shape
                .column_index(&k.column)
                .map(|position| SortKey {
                    position,
                    desc: k.desc,
                })
                .ok_or_else(|| {
                    KernelError::Merge(format!(
                        "order-by column '{}' missing from shard results",
                        k.column
                    ))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::derive_select;
    use shard_sql::{parse_statement, Statement, Value};

    fn info_for(sql: &str) -> DerivedInfo {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => derive_select(&s, &[]).unwrap().1,
            _ => unreachable!(),
        }
    }

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet::new(cols.iter().map(|c| c.to_string()).collect(), rows)
    }

    #[test]
    fn iteration_merge_chains() {
        let info = info_for("SELECT v FROM t");
        let (out, kind) = merge_explain(
            vec![
                rs(&["v"], vec![vec![Value::Int(1)]]),
                rs(&["v"], vec![vec![Value::Int(2)]]),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(kind, MergerKind::Iteration);
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn order_by_uses_stream_merger() {
        let info = info_for("SELECT v FROM t ORDER BY v");
        let (out, kind) = merge_explain(
            vec![
                rs(&["v"], vec![vec![Value::Int(1)], vec![Value::Int(3)]]),
                rs(&["v"], vec![vec![Value::Int(2)]]),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(kind, MergerKind::OrderByStream);
        let got: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn group_by_stream_when_optimized() {
        // GROUP BY without ORDER BY gets the stream optimization.
        let info = info_for("SELECT name, SUM(score) FROM t GROUP BY name");
        // shard shape: name, SUM(score) — sorted by name per rewrite.
        let (out, kind) = merge_explain(
            vec![
                rs(
                    &["name", "SUM(score)"],
                    vec![
                        vec![Value::Str("a".into()), Value::Int(1)],
                        vec![Value::Str("b".into()), Value::Int(2)],
                    ],
                ),
                rs(
                    &["name", "SUM(score)"],
                    vec![vec![Value::Str("a".into()), Value::Int(10)]],
                ),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(kind, MergerKind::GroupByStream);
        assert_eq!(out.rows[0], vec![Value::Str("a".into()), Value::Int(11)]);
        assert_eq!(out.rows[1], vec![Value::Str("b".into()), Value::Int(2)]);
    }

    #[test]
    fn group_by_memory_when_order_differs() {
        let info =
            info_for("SELECT name, SUM(score) FROM t GROUP BY name ORDER BY SUM(score) DESC");
        let (out, kind) = merge_explain(
            vec![
                rs(
                    &["name", "SUM(score)"],
                    vec![
                        vec![Value::Str("a".into()), Value::Int(1)],
                        vec![Value::Str("b".into()), Value::Int(2)],
                    ],
                ),
                rs(
                    &["name", "SUM(score)"],
                    vec![vec![Value::Str("a".into()), Value::Int(10)]],
                ),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(kind, MergerKind::GroupByMemory);
        assert_eq!(out.rows[0], vec![Value::Str("a".into()), Value::Int(11)]);
    }

    #[test]
    fn avg_merged_correctly_end_to_end() {
        let info = info_for("SELECT AVG(score) FROM t");
        // shard shape: AVG(score), AVG_DERIVED_SUM_0, AVG_DERIVED_COUNT_1
        let shard = |avg: f64, sum: i64, count: i64| {
            rs(
                &["AVG(score)", "AVG_DERIVED_SUM_0", "AVG_DERIVED_COUNT_1"],
                vec![vec![Value::Float(avg), Value::Int(sum), Value::Int(count)]],
            )
        };
        let (out, kind) = merge_explain(
            vec![shard(10.0, 10, 1), shard(2.0 / 3.0, 2, 3)],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(kind, MergerKind::SingleGroup);
        // derived columns stripped: only AVG remains
        assert_eq!(out.columns, vec!["AVG(score)"]);
        assert_eq!(out.rows[0][0], Value::Float(3.0));
    }

    #[test]
    fn having_filters_merged_groups() {
        let info = info_for("SELECT name FROM t GROUP BY name HAVING COUNT(*) > 2");
        // shard shape: name, HAVING_DERIVED_0 (COUNT(*))
        let (out, _) = merge_explain(
            vec![
                rs(
                    &["name", "HAVING_DERIVED_0"],
                    vec![
                        vec![Value::Str("a".into()), Value::Int(2)],
                        vec![Value::Str("b".into()), Value::Int(1)],
                    ],
                ),
                rs(
                    &["name", "HAVING_DERIVED_0"],
                    vec![vec![Value::Str("a".into()), Value::Int(1)]],
                ),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        // a: 3 > 2 kept; b: 1 filtered. Derived column stripped.
        assert_eq!(out.columns, vec!["name"]);
        assert_eq!(out.rows, vec![vec![Value::Str("a".into())]]);
    }

    #[test]
    fn pagination_applied_after_merge() {
        let info = info_for("SELECT v FROM t ORDER BY v LIMIT 2, 2");
        // per-shard rewrite keeps first 4 rows of each; merger re-applies.
        let (out, _) = merge_explain(
            vec![
                rs(&["v"], vec![vec![Value::Int(1)], vec![Value::Int(3)]]),
                rs(&["v"], vec![vec![Value::Int(2)], vec![Value::Int(4)]]),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        let got: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn distinct_dedups_across_shards() {
        let info = info_for("SELECT DISTINCT v FROM t");
        let (out, _) = merge_explain(
            vec![
                rs(&["v"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
                rs(&["v"], vec![vec![Value::Int(1)]]),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn empty_results() {
        let info = info_for("SELECT v FROM t");
        let (out, _) = merge_explain(vec![], &info, &Arc::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn derived_order_column_stripped() {
        let info = info_for("SELECT oid FROM t ORDER BY uid");
        let (out, _) = merge_explain(
            vec![
                rs(
                    &["oid", "ORDER_BY_DERIVED_0"],
                    vec![vec![Value::Int(100), Value::Int(2)]],
                ),
                rs(
                    &["oid", "ORDER_BY_DERIVED_0"],
                    vec![vec![Value::Int(200), Value::Int(1)]],
                ),
            ],
            &info,
            &Arc::default(),
        )
        .unwrap();
        assert_eq!(out.columns, vec!["oid"]);
        let got: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![200, 100]); // sorted by hidden uid
    }
}
