//! Merger edge cases through the full kernel: empty shards, NULL-heavy
//! data, ties in sort keys, LIMIT larger than the result, and aggregate
//! corner cases — each checked against an unsharded reference.

mod common;

use common::Oracle;
use shard_core::{Session, ShardingRuntime};
use shard_storage::StorageEngine;

/// A session on `t`, sharded four ways over two sources, and the unsharded
/// reference holding the same table.
fn harness() -> (Session, Oracle) {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=id, \
         TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        &[],
    )
    .unwrap();
    let oracle = Oracle::new();
    let ddl = "CREATE TABLE t (id BIGINT PRIMARY KEY, grp VARCHAR(8), v INT)";
    oracle.write_both(&mut s, ddl, &[]);
    (s, oracle)
}

#[test]
fn empty_table_all_merge_paths() {
    let (mut s, oracle) = harness();
    for sql in [
        "SELECT * FROM t ORDER BY id",
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
        "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
        "SELECT DISTINCT grp FROM t",
        "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 3",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

#[test]
fn single_populated_shard_among_empty_ones() {
    let (mut s, oracle) = harness();
    // Only ids ≡ 1 (mod 4): one shard holds everything.
    for id in [1i64, 5, 9, 13] {
        oracle.write_both(
            &mut s,
            &format!("INSERT INTO t (id, grp, v) VALUES ({id}, 'a', {id})"),
            &[],
        );
    }
    for sql in [
        "SELECT id FROM t ORDER BY id DESC",
        "SELECT grp, SUM(v) FROM t GROUP BY grp",
        "SELECT AVG(v) FROM t",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

#[test]
fn null_heavy_aggregates() {
    let (mut s, oracle) = harness();
    for (id, grp, v) in [
        (0, "'a'", "NULL"),
        (1, "'a'", "10"),
        (2, "'b'", "NULL"),
        (3, "'b'", "NULL"),
        (4, "NULL", "7"),
    ] {
        oracle.write_both(
            &mut s,
            &format!("INSERT INTO t (id, grp, v) VALUES ({id}, {grp}, {v})"),
            &[],
        );
    }
    for sql in [
        // SUM/AVG ignore NULLs; all-NULL groups yield NULL.
        "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v) FROM t GROUP BY grp ORDER BY grp",
        "SELECT COUNT(v), SUM(v) FROM t",
        // NULL group keys form their own group.
        "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
        "SELECT id FROM t WHERE v IS NULL ORDER BY id",
        "SELECT id FROM t WHERE v IS NOT NULL ORDER BY id",
        // NULLs in sort keys order consistently.
        "SELECT id, v FROM t ORDER BY v, id",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

#[test]
fn sort_ties_and_pagination_boundaries() {
    let (mut s, oracle) = harness();
    for id in 0..12i64 {
        oracle.write_both(
            &mut s,
            &format!(
                "INSERT INTO t (id, grp, v) VALUES ({id}, 'g{}', {})",
                id % 2,
                id % 3 // many ties in v
            ),
            &[],
        );
    }
    for sql in [
        // Ties broken by the secondary key in both systems.
        "SELECT id, v FROM t ORDER BY v, id",
        "SELECT id, v FROM t ORDER BY v DESC, id DESC",
        // Pagination exactly at, past and across boundaries.
        "SELECT id FROM t ORDER BY id LIMIT 12",
        "SELECT id FROM t ORDER BY id LIMIT 13",
        "SELECT id FROM t ORDER BY id LIMIT 0",
        "SELECT id FROM t ORDER BY id LIMIT 11, 5",
        "SELECT id FROM t ORDER BY id LIMIT 12, 5",
        "SELECT id FROM t ORDER BY id OFFSET 12",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

#[test]
fn having_and_order_by_aggregate_combinations() {
    let (mut s, oracle) = harness();
    for id in 0..20i64 {
        oracle.write_both(
            &mut s,
            &format!(
                "INSERT INTO t (id, grp, v) VALUES ({id}, 'g{}', {id})",
                id % 5
            ),
            &[],
        );
    }
    for sql in [
        "SELECT grp, SUM(v) FROM t GROUP BY grp HAVING SUM(v) > 30 ORDER BY grp",
        "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING AVG(v) >= 9 ORDER BY grp",
        "SELECT grp FROM t GROUP BY grp HAVING MAX(v) - MIN(v) > 10 ORDER BY grp",
        "SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY SUM(v) DESC, grp LIMIT 2",
        "SELECT grp, AVG(v) FROM t GROUP BY grp ORDER BY AVG(v), grp",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

/// A placeholder in a cross-shard HAVING reads the statement's parameters
/// (the merger used to evaluate it with none: "missing parameter at index
/// 0"). Grouped and ungrouped, on a projected and on a non-projected
/// aggregate, beside a literal and behind a WHERE placeholder, each shape
/// cold (a plan miss) and warm (a plan hit carrying other values), through
/// both doors.
#[test]
fn having_placeholders_bind_across_shards() {
    let (mut s, oracle) = harness();
    for id in 0..40i64 {
        oracle.write_both(
            &mut s,
            &format!(
                "INSERT INTO t (id, grp, v) VALUES ({id}, 'g{}', {id})",
                id % 5
            ),
            &[],
        );
    }
    let int = |v: i64| shard_sql::Value::Int(v);
    // (statement, parameters cold, parameters warm, rows cold, rows warm)
    let cases = [
        (
            "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) > ? ORDER BY grp",
            vec![int(7)],
            vec![int(8)],
            (5, 0),
        ),
        (
            "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) > 7 ORDER BY grp",
            vec![],
            vec![],
            (5, 5),
        ),
        (
            "SELECT grp FROM t GROUP BY grp HAVING SUM(v) > ? ORDER BY grp",
            vec![int(150)],
            vec![int(160)],
            (3, 2),
        ),
        (
            "SELECT grp, AVG(v) FROM t GROUP BY grp HAVING MAX(v) >= ?",
            vec![int(38)],
            vec![int(36)],
            (2, 4),
        ),
        (
            "SELECT grp, SUM(v) FROM t WHERE id >= ? GROUP BY grp \
             HAVING SUM(v) BETWEEN ? AND ? ORDER BY SUM(v) DESC LIMIT 1, 2",
            vec![int(10), int(0), int(1000)],
            vec![int(20), int(110), int(116)],
            (2, 1),
        ),
        (
            "SELECT COUNT(*), SUM(v) FROM t HAVING COUNT(*) > ?",
            vec![int(39)],
            vec![int(40)],
            (1, 0),
        ),
    ];
    for (sql, cold, warm, rows) in &cases {
        assert_eq!(oracle.assert_same(&mut s, sql, cold).len(), rows.0, "{sql}");
        assert_eq!(oracle.assert_same(&mut s, sql, warm).len(), rows.1, "{sql}");
    }
    // The same shapes with the caches off: every statement a cold plan.
    s.execute_sql("SET sql_plan_cache_size = 0", &[]).unwrap();
    for (sql, cold, _, rows) in &cases {
        assert_eq!(oracle.assert_same(&mut s, sql, cold).len(), rows.0, "{sql}");
    }
}

#[test]
fn wide_in_list_routes_and_merges() {
    let (mut s, oracle) = harness();
    for id in 0..30i64 {
        oracle.write_both(
            &mut s,
            &format!("INSERT INTO t (id, grp, v) VALUES ({id}, 'x', {id})"),
            &[],
        );
    }
    // 20-element IN list spanning all shards, with duplicates.
    let ids: Vec<String> = (0..20).map(|i| (i % 15).to_string()).collect();
    let sql = format!(
        "SELECT id FROM t WHERE id IN ({}) ORDER BY id",
        ids.join(", ")
    );
    oracle.assert_same(&mut s, &sql, &[]);
}

#[test]
fn single_shard_pagination_not_applied_twice() {
    // A point-routed query with OFFSET: the shard paginates (single-node
    // optimization); the merger must pass it through untouched.
    let (mut s, oracle) = harness();
    for id in 0..10i64 {
        oracle.write_both(
            &mut s,
            // grp column = shard residue so grp='r1' lives on ONE shard
            &format!(
                "INSERT INTO t (id, grp, v) VALUES ({}, 'r1', {id})",
                id * 4 + 1 // all ids ≡ 1 (mod 4): one shard
            ),
            &[],
        );
    }
    // IN-lists of ids that are all ≡ 1 (mod 4) route to a SINGLE shard, so
    // these exercise the single-unit (pass-through) path with real offsets.
    for sql in [
        "SELECT id FROM t WHERE id = 5 LIMIT 1 OFFSET 0",
        "SELECT id FROM t WHERE id = 5 LIMIT 1 OFFSET 1", // empty, not doubled
        "SELECT id FROM t WHERE id IN (1, 5, 9, 13) ORDER BY id LIMIT 2 OFFSET 1",
        "SELECT id FROM t WHERE id IN (1, 5, 9, 13) ORDER BY id DESC LIMIT 1, 2",
        "SELECT id FROM t WHERE id IN (1, 5, 9, 13) ORDER BY id LIMIT 3 OFFSET 10",
        // and the multi-unit path for contrast
        "SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 4",
    ] {
        oracle.assert_same(&mut s, sql, &[]);
    }
}

/// `SELECT DISTINCT a … ORDER BY b`: the shards return `b` as a derived
/// column for the merge to order by, and DISTINCT must not count it.
#[test]
fn distinct_ignores_the_derived_order_by_column() {
    let (mut s, oracle) = harness();
    for id in 0..12i64 {
        // Three groups; `v` is unique, so the order of first appearance is
        // the same in both systems.
        let sql = format!(
            "INSERT INTO t (id, grp, v) VALUES ({id}, 'g{}', {})",
            id % 3,
            (id * 5) % 12
        );
        oracle.write_both(&mut s, &sql, &[]);
    }
    for sql in [
        "SELECT DISTINCT grp FROM t ORDER BY v",
        "SELECT DISTINCT grp FROM t ORDER BY v DESC LIMIT 1, 2",
    ] {
        let rs = oracle.assert_same(&mut s, sql, &[]);
        assert!(rs.len() <= 3, "{sql}: {:?}", rs.rows);
    }
}

/// One merger behind both front doors: a statement of each merge strategy,
/// with DISTINCT / HAVING / `LIMIT o, n` / a derived ORDER BY column mixed
/// in, returns the same columns and rows and reports the same strategy
/// through the materialized door (`execute_sql`, JDBC's) and the streaming
/// door (`query_stream`, the proxy's) — and leaves the same trace: the same
/// stages, as many units, the same verdicts.
#[test]
fn both_front_doors_merge_alike() {
    use shard_core::merge::MergerKind;
    use shard_core::obs::Stage;

    let (mut s, oracle) = harness();
    for id in 0..40i64 {
        let sql = format!(
            "INSERT INTO t (id, grp, v) VALUES ({id}, 'g{}', {})",
            id % 6,
            (id * 7) % 11
        );
        oracle.write_both(&mut s, &sql, &[]);
    }
    s.set_trace_enabled(true);
    let run = |s: &mut Session, sql: &str, expect: MergerKind| {
        // What a door's trace says, without the times.
        let traced = |s: &Session| {
            let t = s.last_trace().expect("SET trace = on");
            assert_eq!(t.sql, sql);
            let stages: Vec<Stage> = t.stages.iter().map(|(stage, _)| *stage).collect();
            let verdicts = (t.route_strategy.clone(), t.merger.clone(), t.rows);
            (stages, t.units.len(), verdicts)
        };
        let materialized = s.execute_sql(sql, &[]).unwrap().query();
        assert_eq!(s.last_merger_kind(), Some(expect), "materialized {sql}");
        let materialized_trace = traced(s);
        assert_eq!(materialized_trace.0, Stage::ALL, "{sql}");
        let stream = s.query_stream(sql, &[]).unwrap();
        assert!(
            stream.is_streaming(),
            "{sql} fell back to the buffered path"
        );
        let streamed = stream.into_result_set().unwrap();
        assert_eq!(s.last_merger_kind(), Some(expect), "streamed {sql}");
        assert_eq!(materialized_trace, traced(s), "{sql}");
        assert_eq!(materialized.columns, streamed.columns, "{sql}");
        assert_eq!(materialized.rows, streamed.rows, "{sql}");
        assert!(!materialized.rows.is_empty(), "{sql} returned nothing");
    };
    for (sql, kind) in [
        (
            "SELECT DISTINCT grp FROM t WHERE id = 9 LIMIT 1",
            MergerKind::PassThrough,
        ),
        (
            "SELECT DISTINCT grp FROM t LIMIT 1, 3",
            MergerKind::Iteration,
        ),
        (
            "SELECT id, grp FROM t ORDER BY v DESC, id LIMIT 2, 5",
            MergerKind::OrderByStream,
        ),
        (
            "SELECT grp, COUNT(*), AVG(v) FROM t GROUP BY grp HAVING MAX(v) > 8 LIMIT 1, 3",
            MergerKind::GroupByStream,
        ),
        (
            "SELECT grp, SUM(v) FROM t GROUP BY grp HAVING COUNT(*) > 6 \
             ORDER BY SUM(v) DESC, grp LIMIT 1, 2",
            MergerKind::GroupByMemory,
        ),
        (
            "SELECT COUNT(*), AVG(v), MAX(v), SUM(id) FROM t WHERE id < 30",
            MergerKind::SingleGroup,
        ),
    ] {
        run(&mut s, sql, kind);
        // Deterministically ordered statements also equal the reference.
        if sql.contains("ORDER BY") || kind == MergerKind::SingleGroup {
            oracle.assert_same(&mut s, sql, &[]);
        }
    }
    // `ORDER BY <pk> LIMIT o, n` stops every shard's scan after o + n rows
    // through the materialized door too: storage walks the index in order
    // instead of sorting the shard. Two shards of ten rows on each source.
    let sql = "SELECT id, grp FROM t ORDER BY id LIMIT 2, 3";
    let pulled = |s: &Session| {
        let engine = |ds| s.runtime().datasource(ds).unwrap().engine().rows_pulled();
        [engine("ds_0"), engine("ds_1")]
    };
    let before = pulled(&s);
    s.execute_sql(sql, &[]).unwrap();
    for (after, before) in pulled(&s).iter().zip(before) {
        let pulled = after - before;
        assert!(
            (1..=10).contains(&pulled),
            "a source pulled {pulled} rows for LIMIT 2, 3 over two shards"
        );
    }
    run(&mut s, sql, MergerKind::OrderByStream);
    oracle.assert_same(&mut s, sql, &[]);

    s.runtime().set_agg_pushdown(false);
    run(
        &mut s,
        "SELECT grp, COUNT(*), AVG(v) FROM t GROUP BY grp HAVING COUNT(*) > 6 \
         ORDER BY grp DESC LIMIT 1, 2",
        MergerKind::RawAggregate,
    );
}
