//! Global secondary indexes and partial-aggregate pushdown: the two
//! scatter-killers. GSI tests assert routing narrows to the owning shards
//! (and stays correct through updates, deletes, and injected write
//! faults, against one unsharded engine); pushdown tests assert scatter aggregates are
//! byte-identical to the row-streaming baseline while the merger receives
//! a bounded number of rows.

mod common;

use common::Oracle;
use shard_core::route::gsi::GlobalIndex;
use shard_core::{RouteStrategy, Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::{
    ExecuteResult, FaultKind, FaultOp, FaultPlan, FaultTrigger, ResultSet, StorageEngine,
};
use std::sync::Arc;

/// 4 shards of t_order over 2 sources; uid is the sharding column, email
/// is the GSI candidate, amount/status feed the aggregate tests.
fn sharded_runtime() -> Arc<ShardingRuntime> {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE t_order (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        "CREATE TABLE t_order (uid BIGINT PRIMARY KEY, email VARCHAR(64), amount INT, status VARCHAR(16))",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    runtime
}

fn email(uid: i64) -> String {
    format!("user{uid}@example.com")
}

fn load_orders(s: &mut Session, n: i64) {
    for uid in 0..n {
        s.execute_sql(
            "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Str(email(uid)),
                Value::Int(10 * uid),
                Value::Str(if uid % 3 == 0 { "open" } else { "done" }.into()),
            ],
        )
        .unwrap();
    }
}

fn query(s: &mut Session, sql: &str) -> ResultSet {
    match s.execute_sql(sql, &[]).unwrap() {
        ExecuteResult::Query(rs) => rs,
        other => panic!("expected rows from {sql}, got {other:?}"),
    }
}

/// Execution units the statement fanned out to, via the public
/// `route_fanout_units` histogram (sum delta of a single statement).
fn fanout_of(runtime: &Arc<ShardingRuntime>, s: &mut Session, sql: &str) -> u64 {
    let before = runtime.metrics().route_fanout.snapshot();
    s.execute_sql(sql, &[]).unwrap();
    let after = runtime.metrics().route_fanout.snapshot();
    assert_eq!(
        after.count,
        before.count + 1,
        "exactly one routed statement should be sampled"
    );
    after.sum - before.sum
}

fn explain_tree(s: &mut Session, sql: &str) -> String {
    let rs = query(s, &format!("EXPLAIN ANALYZE {sql}"));
    rs.rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(line) => line.clone(),
            other => panic!("non-string tree line {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------- GSI -----

/// Tentpole acceptance: an equality lookup through the index routes to at
/// most 2 units (the entry read + the owning shard), not all 4, and
/// `EXPLAIN ANALYZE` reports the index-route verdict.
#[test]
fn gsi_point_lookup_routes_to_owning_shard_only() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    load_orders(&mut s, 16);

    // Scatter baseline without a usable predicate: all 4 shards.
    assert_eq!(
        fanout_of(
            &runtime,
            &mut s,
            "SELECT * FROM t_order WHERE status = 'open'"
        ),
        4
    );

    // Indexed equality: ≤ 2 units, correct row.
    let sql = format!(
        "SELECT uid, amount FROM t_order WHERE email = '{}'",
        email(5)
    );
    let units = fanout_of(&runtime, &mut s, &sql);
    assert!(units <= 2, "index route fanned out to {units} units");
    let rs = query(&mut s, &sql);
    assert_eq!(rs.rows, vec![vec![Value::Int(5), Value::Int(50)]]);
    assert_eq!(s.last_route_strategy(), Some(RouteStrategy::IndexRoute));

    let tree = explain_tree(&mut s, &sql);
    assert!(tree.contains("route_strategy=index-route"), "{tree}");

    // IN lists narrow too, and the metrics record the hit.
    let hits = runtime.metrics().gsi_hits.get();
    let sql_in = format!(
        "SELECT uid FROM t_order WHERE email IN ('{}', '{}')",
        email(2),
        email(9)
    );
    let units = fanout_of(&runtime, &mut s, &sql_in);
    assert!(units <= 2, "IN route fanned out to {units} units");
    let mut uids: Vec<Value> = query(&mut s, &sql_in)
        .rows
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect();
    uids.sort_by_key(|v| match v {
        Value::Int(n) => *n,
        other => panic!("{other:?}"),
    });
    assert_eq!(uids, vec![Value::Int(2), Value::Int(9)]);
    assert!(runtime.metrics().gsi_hits.get() > hits);

    let shown = query(&mut s, "SHOW GLOBAL INDEXES");
    assert_eq!(shown.rows.len(), 1);
    assert_eq!(shown.rows[0][0], Value::Str("t_order".into()));
    assert_eq!(shown.rows[0][2], Value::Str("__gsi_t_order_email".into()));
}

/// CREATE GLOBAL INDEX on a populated table backfills the mapping from the
/// existing rows, so lookups narrow immediately.
#[test]
fn gsi_backfill_covers_preexisting_rows() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_orders(&mut s, 12);
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();

    let sql = format!("SELECT uid FROM t_order WHERE email = '{}'", email(7));
    let units = fanout_of(&runtime, &mut s, &sql);
    assert!(units <= 2, "backfilled lookup fanned out to {units} units");
    assert_eq!(query(&mut s, &sql).rows, vec![vec![Value::Int(7)]]);
}

/// UPDATE and DELETE keep the mapping transactionally consistent: the new
/// value finds the row, the old value proves absence without a scatter,
/// and DROP GLOBAL INDEX restores plain scatter routing.
#[test]
fn gsi_tracks_updates_deletes_and_drop() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    load_orders(&mut s, 8);

    s.execute_sql(
        "UPDATE t_order SET email = 'moved@example.com' WHERE uid = 3",
        &[],
    )
    .unwrap();
    let rs = query(
        &mut s,
        "SELECT uid FROM t_order WHERE email = 'moved@example.com'",
    );
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    // The old value's entry is gone: the index proves absence, and one node
    // answers with the correctly shaped empty result (fanout 1, not 4).
    let sql_old = format!("SELECT uid FROM t_order WHERE email = '{}'", email(3));
    assert_eq!(fanout_of(&runtime, &mut s, &sql_old), 1);
    let rs = query(&mut s, &sql_old);
    assert_eq!((rs.columns, rs.rows), (vec!["uid".to_string()], vec![]));

    s.execute_sql("DELETE FROM t_order WHERE uid = 5", &[])
        .unwrap();
    let sql_del = format!("SELECT uid FROM t_order WHERE email = '{}'", email(5));
    assert!(query(&mut s, &sql_del).rows.is_empty());

    s.execute_sql("DROP GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    assert!(query(&mut s, "SHOW GLOBAL INDEXES").rows.is_empty());
    let sql = format!("SELECT uid FROM t_order WHERE email = '{}'", email(6));
    assert_eq!(
        fanout_of(&runtime, &mut s, &sql),
        4,
        "drop restores scatter"
    );
    assert_eq!(query(&mut s, &sql).rows, vec![vec![Value::Int(6)]]);
}

/// Index-routed statements return what one unsharded engine returns, for
/// rows written before and after the index existed, moved by an UPDATE of the
/// indexed column, and deleted — while staying narrower than the scatter.
#[test]
fn gsi_routed_results_match_the_unsharded_oracle() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    let oracle = Oracle::new();
    let insert = "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, ?, ?)";
    let order = |uid: i64| {
        [
            Value::Int(uid),
            Value::Str(email(uid)),
            Value::Int(10 * uid),
            Value::Str("open".into()),
        ]
    };
    oracle.write_both(
        &mut s,
        "CREATE TABLE IF NOT EXISTS t_order (uid BIGINT PRIMARY KEY, email VARCHAR(64), amount INT, status VARCHAR(16))",
        &[],
    );
    for uid in 0..4 {
        oracle.write_both(&mut s, insert, &order(uid));
    }
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    for uid in 4..8 {
        oracle.write_both(&mut s, insert, &order(uid));
    }
    oracle.write_both(
        &mut s,
        "UPDATE t_order SET email = 'moved@example.com' WHERE uid = 2",
        &[],
    );
    oracle.write_both(&mut s, "DELETE FROM t_order WHERE uid = 5", &[]);

    for sql in [
        format!(
            "SELECT uid, amount FROM t_order WHERE email = '{}'",
            email(1)
        ),
        format!(
            "SELECT uid, amount FROM t_order WHERE email = '{}'",
            email(6)
        ),
        "SELECT uid, amount FROM t_order WHERE email = 'moved@example.com'".to_string(),
        format!(
            "SELECT uid, status FROM t_order WHERE email IN ('{}', '{}') ORDER BY uid DESC",
            email(3),
            email(7)
        ),
        format!(
            "SELECT COUNT(*), SUM(amount) FROM t_order WHERE email IN ('{}', '{}', '{}')",
            email(0),
            email(4),
            email(5)
        ),
    ] {
        oracle.assert_same(&mut s, &sql, &[]);
        assert_eq!(
            s.last_route_strategy(),
            Some(RouteStrategy::IndexRoute),
            "{sql}"
        );
        assert!(fanout_of(&runtime, &mut s, &sql) < 4, "{sql} scattered");
    }
    // The old value of the moved row, a deleted row, a value never seen: the
    // index proves no shard holds them, and one node still answers for
    // shape — the header of an empty result, the one row of an aggregate
    // over nothing — as one unsharded engine does.
    for gone in [email(2), email(5), "nobody@example.com".to_string()] {
        for projection in ["uid, email", "COUNT(*), SUM(amount)"] {
            let sql = format!("SELECT {projection} FROM t_order WHERE email = '{gone}'");
            let rs = oracle.assert_same(&mut s, &sql, &[]);
            assert_eq!(rs.columns.len(), 2, "{sql}");
            assert_eq!(s.last_route_strategy(), Some(RouteStrategy::IndexRoute));
            assert_eq!(fanout_of(&runtime, &mut s, &sql), 1, "{sql}");
        }
    }
}

/// Chaos satellite: a write fault between index maintenance and the base
/// write must never lose a row behind the index. The failed INSERT leaves
/// no phantom (lookup finds nothing) and the retry is found via the index.
#[test]
fn gsi_stays_consistent_under_write_fault_mid_insert() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    load_orders(&mut s, 8);

    // Pick an email whose GSI entry lives on ds_1 while uid=100 routes to
    // ds_0 (100 % 4 = shard 0): the entry add succeeds, then the base
    // write trips the fault — the dangerous half-done ordering.
    let probe = GlobalIndex::new("t_order", "email", vec!["ds_0".into(), "ds_1".into()]);
    let value = (0..)
        .map(|i| format!("faulty{i}@example.com"))
        .find(|v| probe.entry_datasource(&Value::Str(v.clone())) == "ds_1")
        .unwrap();

    runtime
        .datasource("ds_0")
        .unwrap()
        .engine()
        .fault_injector()
        .inject(FaultPlan::new(
            FaultOp::Write,
            FaultKind::Error("chaos".into()),
            FaultTrigger::Once,
        ));
    let insert = format!(
        "INSERT INTO t_order (uid, email, amount, status) VALUES (100, '{value}', 1, 'open')"
    );
    s.execute_sql(&insert, &[]).unwrap_err();

    // No phantom: the index never routes to a row that does not exist.
    let lookup = format!("SELECT uid FROM t_order WHERE email = '{value}'");
    assert!(query(&mut s, &lookup).rows.is_empty());

    // Retry (fault disarmed) lands, and the index finds it narrowly.
    s.execute_sql(&insert, &[]).unwrap();
    assert_eq!(query(&mut s, &lookup).rows, vec![vec![Value::Int(100)]]);
    let units = fanout_of(&runtime, &mut s, &lookup);
    assert!(units <= 2, "fanned out to {units} units");

    // Pre-existing rows are still reachable through the index.
    let sql = format!("SELECT uid FROM t_order WHERE email = '{}'", email(2));
    assert_eq!(query(&mut s, &sql).rows, vec![vec![Value::Int(2)]]);
}

/// Writes the index cannot track are rejected up front, not corrupted:
/// moving a row between shards (sharding-column update) and non-constant
/// assignments to the indexed column.
#[test]
fn gsi_rejects_untrackable_updates() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    load_orders(&mut s, 4);

    let err = s
        .execute_sql("UPDATE t_order SET uid = 99 WHERE uid = 1", &[])
        .unwrap_err();
    assert!(err.to_string().contains("sharding column"), "{err}");

    let err = s
        .execute_sql("UPDATE t_order SET email = status WHERE uid = 1", &[])
        .unwrap_err();
    assert!(err.to_string().contains("constant"), "{err}");

    // Duplicate index creation and unknown drops are clean config errors.
    assert!(s
        .execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .is_err());
    assert!(s
        .execute_sql("DROP GLOBAL INDEX ON t_order (amount)", &[])
        .is_err());
    // The sharding column itself needs no index.
    assert!(s
        .execute_sql("CREATE GLOBAL INDEX ON t_order (uid)", &[])
        .is_err());
}

// ---------------------------------------------- aggregate pushdown --------

/// Rows with NULL amounts and a status that only some shards hold, for the
/// COUNT/NULL and absent-group edge cases.
fn load_aggregate_fixture(s: &mut Session) {
    load_orders(s, 12);
    // NULL amounts on two shards.
    for uid in [20, 21] {
        s.execute_sql(
            "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, NULL, 'open')",
            &[Value::Int(uid), Value::Str(email(uid))],
        )
        .unwrap();
    }
    // 'rare' status exists only on shard 0 (uid % 4 == 0).
    s.execute_sql(
        "INSERT INTO t_order (uid, email, amount, status) VALUES (24, 'rare@example.com', 7, 'rare')",
        &[],
    )
    .unwrap();
}

const AGG_QUERIES: &[&str] = &[
    // COUNT(*) counts NULL-amount rows, COUNT(amount) and AVG skip them.
    "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM t_order",
    // GROUP BY with a group ('rare') absent on most shards.
    "SELECT status, COUNT(*), COUNT(amount), SUM(amount), AVG(amount) FROM t_order GROUP BY status ORDER BY status",
    "SELECT status, MIN(amount), MAX(amount) FROM t_order GROUP BY status ORDER BY status",
    // Empty result set: no shard has this status.
    "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount) FROM t_order WHERE status = 'absent'",
    "SELECT status, SUM(amount) FROM t_order WHERE status = 'absent' GROUP BY status",
];

/// Tentpole acceptance: every scatter aggregate produces byte-identical
/// results with pushdown on and off (`SET agg_pushdown = off` is the
/// row-streaming baseline).
#[test]
fn pushdown_results_byte_identical_to_row_streaming() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_aggregate_fixture(&mut s);

    for sql in AGG_QUERIES {
        let pushed = query(&mut s, sql);
        s.execute_sql("SET VARIABLE agg_pushdown = off", &[])
            .unwrap();
        let streamed = query(&mut s, sql);
        s.execute_sql("SET VARIABLE agg_pushdown = on", &[])
            .unwrap();
        assert_eq!(pushed.columns, streamed.columns, "columns differ for {sql}");
        assert_eq!(pushed.rows, streamed.rows, "rows differ for {sql}");
    }
}

/// AVG/MIN/MAX over shards with no rows: partials from empty shards must
/// not poison the merge (AVG is NULL on empty input, never a division by
/// zero; MIN/MAX ignore empty shards).
#[test]
fn aggregates_over_empty_and_partial_shards() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    // Only shard 0 (uid % 4 == 0) has rows; three shards are empty.
    for uid in [0, 4, 8] {
        s.execute_sql(
            "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, ?, 'open')",
            &[Value::Int(uid), Value::Str(email(uid)), Value::Int(uid)],
        )
        .unwrap();
    }

    let rs = query(
        &mut s,
        "SELECT AVG(amount), MIN(amount), MAX(amount), COUNT(*) FROM t_order",
    );
    assert_eq!(rs.rows.len(), 1);
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Float(4.0));
    assert_eq!(row[1], Value::Int(0));
    assert_eq!(row[2], Value::Int(8));
    assert_eq!(row[3], Value::Int(3));

    // Fully empty table: ungrouped aggregates still return one row.
    s.execute_sql("DELETE FROM t_order", &[]).unwrap();
    let rs = query(
        &mut s,
        "SELECT AVG(amount), MIN(amount), COUNT(*) FROM t_order",
    );
    assert_eq!(rs.rows, vec![vec![Value::Null, Value::Null, Value::Int(0)]]);
}

/// Tentpole acceptance: with pushdown the merger receives at most
/// shards × groups rows; the row-streaming baseline ships every source row.
#[test]
fn pushdown_bounds_rows_reaching_the_merger() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_orders(&mut s, 40); // 40 rows, 2 statuses, 4 shards

    let sql = "SELECT status, SUM(amount) FROM t_order GROUP BY status";
    let before = runtime.metrics().merge_input_rows.get();
    query(&mut s, sql);
    let pushed_rows = runtime.metrics().merge_input_rows.get() - before;
    assert!(
        pushed_rows <= 4 * 2,
        "merger received {pushed_rows} rows, expected ≤ shards × groups = 8"
    );

    s.execute_sql("SET VARIABLE agg_pushdown = off", &[])
        .unwrap();
    let before = runtime.metrics().merge_input_rows.get();
    query(&mut s, sql);
    let streamed_rows = runtime.metrics().merge_input_rows.get() - before;
    assert_eq!(streamed_rows, 40, "baseline must ship every source row");
}

/// Satellite: `EXPLAIN ANALYZE` names the chosen path — aggregate-pushdown
/// for a scatter GROUP BY, scatter once the knob ablates it, colocated for
/// a single-shard statement.
#[test]
fn explain_analyze_names_the_routing_strategy() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_orders(&mut s, 8);

    let agg = "SELECT status, SUM(amount) FROM t_order GROUP BY status";
    let tree = explain_tree(&mut s, agg);
    assert!(tree.contains("route_strategy=aggregate-pushdown"), "{tree}");

    s.execute_sql("SET VARIABLE agg_pushdown = off", &[])
        .unwrap();
    let tree = explain_tree(&mut s, agg);
    assert!(tree.contains("route_strategy=scatter"), "{tree}");
    s.execute_sql("SET VARIABLE agg_pushdown = on", &[])
        .unwrap();

    let tree = explain_tree(&mut s, "SELECT SUM(amount) FROM t_order WHERE uid = 3");
    assert!(tree.contains("route_strategy=colocated"), "{tree}");

    // The knob is introspectable.
    let rs = query(&mut s, "SHOW VARIABLE agg_pushdown");
    assert_eq!(rs.rows[0][1], Value::Str("on".into()));
}
