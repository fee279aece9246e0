//! SQL plan cache end-to-end tests: warm-path counters (no re-parse, no
//! AST re-walk), generation-based invalidation across every mutation path,
//! concurrency under rule churn, and disablement equivalence.

mod common;

use common::Oracle;
use shard_core::algorithm::{ModAlgorithm, Props};
use shard_core::config::{DataNode, TableRule};
use shard_core::feature::{EncryptRule, HintManager, ReadWriteSplitRule, ShadowRule};
use shard_core::{RouteStrategy, Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::{ExecuteResult, StorageEngine};
use std::sync::Arc;

fn runtime() -> Arc<ShardingRuntime> {
    ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build()
}

/// Two sources, t_user sharded 4 ways by uid (mod), schema registered so
/// AutoTable creates the physical tables.
fn sharded_runtime() -> Arc<ShardingRuntime> {
    let runtime = runtime();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    runtime
}

fn load_users(s: &mut Session, n: i64) {
    for uid in 0..n {
        s.execute_sql(
            "INSERT INTO t_user (uid, name) VALUES (?, ?)",
            &[Value::Int(uid), Value::Str(format!("user{uid}"))],
        )
        .unwrap();
    }
}

fn query_rows(s: &mut Session, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
    match s.execute_sql(sql, params).unwrap() {
        ExecuteResult::Query(rs) => rs.rows,
        ExecuteResult::Update { .. } => panic!("expected a result set"),
    }
}

#[test]
fn warm_point_query_skips_parse_and_condition_extraction() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);

    let sql = "SELECT name FROM t_user WHERE uid = ?";
    let cold = query_rows(&mut s, sql, &[Value::Int(3)]);
    assert_eq!(cold, vec![vec![Value::Str("user3".into())]]);

    let before = runtime.plan_cache().status();
    const WARM_RUNS: u64 = 16;
    for uid in 0..WARM_RUNS as i64 {
        let rows = query_rows(&mut s, sql, &[Value::Int(uid % 8)]);
        assert_eq!(rows, vec![vec![Value::Str(format!("user{}", uid % 8))]]);
    }
    let after = runtime.plan_cache().status();

    // Zero SQL parsing on the warm path: every run was a parse-cache hit.
    assert_eq!(after.parse.hits - before.parse.hits, WARM_RUNS);
    assert_eq!(after.parse.misses, before.parse.misses);
    // Zero AST re-walk for sharding conditions: every run replayed the
    // cached condition template (a plan-cache hit).
    assert_eq!(after.plan.hits - before.plan.hits, WARM_RUNS);
    assert_eq!(after.plan.misses, before.plan.misses);
}

#[test]
fn create_sharding_rule_invalidates_plans() {
    let runtime = runtime();
    let mut s = runtime.session();
    // t_user starts unsharded: single table on the default source.
    s.execute_sql(
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))",
        &[],
    )
    .unwrap();
    let sql = "SELECT name FROM t_user WHERE uid = ?";
    // Warm a (static, single-node) plan for the unsharded layout.
    assert!(query_rows(&mut s, sql, &[Value::Int(5)]).is_empty());
    assert!(query_rows(&mut s, sql, &[Value::Int(5)]).is_empty());

    // Re-create sharded; the cached plan must not keep routing to the old
    // single table.
    s.execute_sql("DROP TABLE t_user", &[]).unwrap();
    s.execute_sql(
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))",
        &[],
    )
    .unwrap();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        &[],
    )
    .unwrap();
    s.execute_sql(
        "INSERT INTO t_user (uid, name) VALUES (?, ?)",
        &[Value::Int(5), Value::Str("ann".into())],
    )
    .unwrap();
    assert_eq!(
        query_rows(&mut s, sql, &[Value::Int(5)]),
        vec![vec![Value::Str("ann".into())]]
    );
}

#[test]
fn replace_table_rule_invalidates_plans() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);

    let sql = "SELECT name FROM t_user WHERE uid = ?";
    // Warm the sharded template plan; uid=1 lives in t_user_1.
    for _ in 0..3 {
        assert_eq!(
            query_rows(&mut s, sql, &[Value::Int(1)]),
            vec![vec![Value::Str("user1".into())]]
        );
    }

    // Switch-over: all uids now map to the single node ds_0.t_user_0.
    runtime
        .replace_table_rule(TableRule {
            logic_table: "t_user".into(),
            sharding_column: "uid".into(),
            algorithm: Arc::new(ModAlgorithm::new(None)),
            algorithm_type: "mod".into(),
            data_nodes: vec![DataNode::new("ds_0", "t_user_0")],
            props: Props::new(),
            key_generate_column: None,
            complex: None,
        })
        .unwrap();

    // A stale plan would still hit ds_1.t_user_1 and find user1; the
    // rebuilt plan routes to t_user_0, which only holds uid % 4 == 0 rows.
    assert!(query_rows(&mut s, sql, &[Value::Int(1)]).is_empty());
    assert_eq!(
        query_rows(&mut s, sql, &[Value::Int(4)]),
        vec![vec![Value::Str("user4".into())]]
    );
}

#[test]
fn drop_resource_invalidates_plans() {
    let runtime = runtime();
    let mut s = runtime.session();
    // Unsharded table on the default source (ds_0).
    s.execute_sql(
        "CREATE TABLE t_cfg (k VARCHAR(32) PRIMARY KEY, v VARCHAR(32))",
        &[],
    )
    .unwrap();
    let sql = "SELECT v FROM t_cfg WHERE k = ?";
    // Warm a static plan pointing at ds_0.
    assert!(query_rows(&mut s, sql, &[Value::Str("a".into())]).is_empty());
    assert!(query_rows(&mut s, sql, &[Value::Str("a".into())]).is_empty());

    // Dropping ds_0 promotes ds_1 to default. A stale plan would reference
    // the vanished source and fail; the rebuilt plan routes to ds_1.
    s.execute_sql("DROP RESOURCE ds_0", &[]).unwrap();
    s.execute_sql(
        "CREATE TABLE t_cfg (k VARCHAR(32) PRIMARY KEY, v VARCHAR(32))",
        &[],
    )
    .unwrap();
    s.execute_sql(
        "INSERT INTO t_cfg (k, v) VALUES (?, ?)",
        &[Value::Str("a".into()), Value::Str("1".into())],
    )
    .unwrap();
    assert_eq!(
        query_rows(&mut s, sql, &[Value::Str("a".into())]),
        vec![vec![Value::Str("1".into())]]
    );
}

#[test]
fn concurrent_queries_survive_rule_churn() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);

    // Two layouts holding the same rows under different names and node
    // counts: `t_user_0..3` by `uid % 4` and `t_alt_0..1` by `uid % 2`. A
    // statement is right under either — as long as its route, its units and
    // the tables its statements name all come from one of them.
    let layout = |tables: &[&str]| TableRule {
        logic_table: "t_user".into(),
        sharding_column: "uid".into(),
        algorithm: Arc::new(ModAlgorithm::new(Some(tables.len()))),
        algorithm_type: "mod".into(),
        data_nodes: (0..tables.len())
            .map(|i| DataNode::new(format!("ds_{}", i % 2), tables[i]))
            .collect(),
        props: Props::new(),
        key_generate_column: None,
        complex: None,
    };
    let layouts = [
        vec!["t_user_0", "t_user_1", "t_user_2", "t_user_3"],
        vec!["t_alt_0", "t_alt_1"],
    ];
    for (i, table) in layouts[1].iter().enumerate() {
        let engine = Arc::clone(runtime.datasource(&format!("ds_{i}")).unwrap().engine());
        let ddl = format!("CREATE TABLE {table} (uid BIGINT PRIMARY KEY, name VARCHAR(32))");
        engine.execute_sql(&ddl, &[], None).unwrap();
        for uid in (i as i64..8).step_by(2) {
            let row = format!("INSERT INTO {table} VALUES ({uid}, 'user{uid}')");
            engine.execute_sql(&row, &[], None).unwrap();
        }
    }
    // Where `uid` lives under each layout, as a unit span names it.
    let homes = move |uid: i64| {
        let home = |tables: &Vec<&str>| {
            let at = uid as usize % tables.len();
            (format!("ds_{}", at % 2), tables[at].to_string())
        };
        [home(&layouts[0]), home(&layouts[1])]
    };

    let mut handles = Vec::new();
    for t in 0..8u64 {
        let runtime = Arc::clone(&runtime);
        let homes = homes.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = runtime.session();
            s.set_trace_enabled(true);
            for i in 0..200u64 {
                let uid = ((t + i) % 8) as i64;
                // A literal key (a fixed-route plan), a parameterized one (a
                // template plan with node-bound statements) and a fan-out.
                let literal = format!("SELECT name FROM t_user WHERE uid = {uid}");
                let pair = [Value::Int(uid), Value::Int((uid + 1) % 8)];
                let statements: [(&str, &[Value], &[i64]); 3] = [
                    (&literal, &[], &[uid]),
                    ("SELECT name FROM t_user WHERE uid = ?", &pair[..1], &[uid]),
                    (
                        "SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid",
                        &pair,
                        &[uid, (uid + 1) % 8],
                    ),
                ];
                for (sql, params, uids) in statements {
                    let mut sorted = uids.to_vec();
                    sorted.sort_unstable();
                    let names: Vec<Vec<Value>> = sorted
                        .iter()
                        .map(|uid| vec![Value::Str(format!("user{uid}"))])
                        .collect();
                    assert_eq!(query_rows(&mut s, sql, params), names, "{sql} {params:?}");
                    // Every unit is the home of one of the keys, and all of
                    // them under the same layout.
                    let units: Vec<(String, String)> = s
                        .last_trace()
                        .expect("SET trace = on")
                        .units
                        .iter()
                        .map(|u| (u.datasource.clone(), u.tables.clone()))
                        .collect();
                    let under = |layout: usize| {
                        units.len() == uids.len()
                            && uids.iter().all(|uid| units.contains(&homes(*uid)[layout]))
                    };
                    assert!(under(0) || under(1), "{sql} {params:?} ran on {units:?}");
                }
            }
        }));
    }
    // Flip between the layouts for as long as readers hammer the cache:
    // every replacement bumps the generation under the rule's write guard.
    let mut round = 0;
    while round < 50 || handles.iter().any(|h| !h.is_finished()) {
        let tables = if round % 2 == 0 {
            &["t_alt_0", "t_alt_1"][..]
        } else {
            &["t_user_0", "t_user_1", "t_user_2", "t_user_3"]
        };
        runtime.replace_table_rule(layout(tables)).unwrap();
        std::thread::yield_now();
        round += 1;
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A deployment for the replay tests, with its unsharded reference: the
/// tables of `gsi_pushdown.rs` (with its global index), `merge_edge_cases.rs`
/// and the benchmark (`crates/perf/src/gen.rs`), each sharded four ways.
fn replay_deployment(cache: bool) -> (Arc<ShardingRuntime>, Session, Oracle) {
    let runtime = runtime();
    let mut s = runtime.session();
    if !cache {
        s.execute_sql("SET sql_plan_cache_size = 0", &[]).unwrap();
    }
    let oracle = Oracle::new();
    for (table, key) in [
        ("t_order", "uid"),
        ("t", "id"),
        ("sbtest", "id"),
        ("t_hits", "event_id"),
    ] {
        let rule = format!(
            "CREATE SHARDING TABLE RULE {table} (RESOURCES(ds_0, ds_1), SHARDING_COLUMN={key}, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=4))"
        );
        s.execute_sql(&rule, &[]).unwrap();
    }
    for ddl in [
        "CREATE TABLE t_order (uid BIGINT PRIMARY KEY, email VARCHAR(64), amount INT, status VARCHAR(16))",
        "CREATE TABLE t (id BIGINT PRIMARY KEY, grp VARCHAR(8), v INT)",
        "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT NOT NULL DEFAULT 0, \
         c VARCHAR(120) NOT NULL DEFAULT '', pad VARCHAR(60) NOT NULL DEFAULT '', PRIMARY KEY (id))",
        "CREATE TABLE t_hits (event_id BIGINT PRIMARY KEY, user_id BIGINT, region VARCHAR(16), \
         referer VARCHAR(64), duration_ms INT, bytes_sent BIGINT, price DOUBLE)",
    ] {
        oracle.write_both(&mut s, ddl, &[]);
    }
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    let int = Value::Int;
    let text = |s: String| Value::Str(s);
    for i in 0..24i64 {
        let amount = if i % 5 == 0 { Value::Null } else { int(10 * i) };
        let status = ["open", "done", "done"][(i % 3) as usize];
        oracle.write_both(
            &mut s,
            "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, ?, ?)",
            &[int(i), text(email(i)), amount, text(status.into())],
        );
        let grp = if i % 7 == 0 {
            Value::Null
        } else {
            text(format!("g{}", i % 3))
        };
        let v = if i % 4 == 0 { Value::Null } else { int(i % 5) };
        oracle.write_both(
            &mut s,
            "INSERT INTO t (id, grp, v) VALUES (?, ?, ?)",
            &[int(i), grp, v],
        );
    }
    for i in 0..120i64 {
        oracle.write_both(
            &mut s,
            "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)",
            &[
                int(i),
                int(i % 17),
                text(format!("c{:03}", (i * 37) % 120)),
                text("pad".into()),
            ],
        );
        let referer = if i % 3 == 0 {
            Value::Null
        } else {
            text(format!("r{}", i % 4))
        };
        oracle.write_both(
            &mut s,
            "INSERT INTO t_hits (event_id, user_id, region, referer, duration_ms, bytes_sent, price) \
             VALUES (?, ?, ?, ?, ?, ?, ?)",
            &[
                int(i),
                int(i % 9),
                text(format!("region{}", i % 5)),
                referer,
                int(100 * (i % 11)),
                int((i * 211) % 1000),
                Value::Float(i as f64 / 4.0),
            ],
        );
    }
    (runtime, s, oracle)
}

fn email(uid: i64) -> String {
    format!("user{uid}@example.com")
}

/// Statement shapes and two parameter sets for each.
fn replayed_statements() -> Vec<(&'static str, [Vec<Value>; 2])> {
    let int = Value::Int;
    let s = |s: &str| Value::Str(s.to_string());
    let e = |uid: i64| Value::Str(email(uid));
    let none = || [vec![], vec![]];
    vec![
        // gsi_pushdown.rs: index routes to 0, 1 and 2 nodes, scatters, and
        // aggregates pushed down.
        (
            "SELECT * FROM t_order WHERE status = ?",
            [vec![s("open")], vec![s("done")]],
        ),
        (
            "SELECT uid, amount FROM t_order WHERE email = ?",
            [vec![e(5)], vec![e(6)]],
        ),
        (
            "SELECT uid FROM t_order WHERE email = ?",
            [vec![s("nobody")], vec![e(3)]],
        ),
        (
            "SELECT uid FROM t_order WHERE email IN (?, ?)",
            [vec![e(2), e(9)], vec![e(1), e(5)]],
        ),
        (
            "SELECT uid, status FROM t_order WHERE email IN (?, ?) ORDER BY uid DESC",
            [vec![e(4), e(7)], vec![e(7), s("nobody")]],
        ),
        (
            "SELECT COUNT(*), SUM(amount) FROM t_order WHERE email IN (?, ?, ?)",
            [vec![e(1), e(2), e(3)], vec![s("a"), s("b"), s("c")]],
        ),
        (
            "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(amount), MIN(amount), MAX(amount) \
             FROM t_order",
            none(),
        ),
        (
            "SELECT status, COUNT(*), COUNT(amount), SUM(amount), AVG(amount) FROM t_order \
             GROUP BY status ORDER BY status",
            none(),
        ),
        (
            "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount) FROM t_order WHERE status = ?",
            [vec![s("absent")], vec![s("open")]],
        ),
        (
            "SELECT status, SUM(amount) FROM t_order WHERE status = ? GROUP BY status",
            [vec![s("absent")], vec![s("done")]],
        ),
        (
            "SELECT SUM(amount) FROM t_order WHERE uid = ?",
            [vec![int(3)], vec![int(20)]],
        ),
        // merge_edge_cases.rs: every merger, NULLs, ties, windows — literal
        // and from placeholders, on one node and across all of them.
        ("SELECT * FROM t ORDER BY id", none()),
        ("SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t", none()),
        (
            "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
            none(),
        ),
        ("SELECT DISTINCT grp FROM t", none()),
        (
            "SELECT DISTINCT grp FROM t ORDER BY v DESC LIMIT 1, 2",
            none(),
        ),
        ("SELECT id, v FROM t ORDER BY v DESC, id DESC", none()),
        ("SELECT id FROM t WHERE v IS NULL ORDER BY id", none()),
        ("SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 3", none()),
        (
            "SELECT id FROM t ORDER BY id LIMIT ? OFFSET ?",
            [vec![int(5), int(3)], vec![int(4), int(20)]],
        ),
        (
            "SELECT id FROM t ORDER BY id LIMIT ?, ?",
            [vec![int(0), int(2)], vec![int(7), int(30)]],
        ),
        (
            "SELECT id FROM t WHERE id IN (?, ?, ?, ?) ORDER BY id LIMIT ? OFFSET ?",
            [
                vec![int(1), int(5), int(9), int(13), int(2), int(1)],
                vec![int(1), int(2), int(3), int(13), int(3), int(0)],
            ],
        ),
        (
            "SELECT id FROM t WHERE id = ? LIMIT 1 OFFSET ?",
            [vec![int(5), int(0)], vec![int(5), int(1)]],
        ),
        (
            "SELECT grp, SUM(v) FROM t GROUP BY grp HAVING SUM(v) > 3 ORDER BY grp",
            none(),
        ),
        (
            "SELECT grp, COUNT(*) FROM t WHERE id > ? GROUP BY grp HAVING AVG(v) >= 1 ORDER BY grp",
            [vec![int(3)], vec![int(100)]],
        ),
        (
            "SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY SUM(v) DESC, grp LIMIT 2",
            none(),
        ),
        (
            "SELECT COUNT(*), AVG(v), MAX(v), SUM(id) FROM t WHERE id < ?",
            [vec![int(30)], vec![int(2)]],
        ),
        (
            "SELECT t.id, t.v FROM t WHERE t.id IN (?, ?) ORDER BY t.id",
            [vec![int(2), int(3)], vec![int(6), int(2)]],
        ),
        (
            "SELECT x.id FROM t x WHERE x.id BETWEEN ? AND ? ORDER BY x.v, x.id",
            [vec![int(2), int(9)], vec![int(5), int(5)]],
        ),
        // The benchmark's nine SELECT shapes.
        (
            "SELECT c FROM sbtest WHERE id = ?",
            [vec![int(7)], vec![int(90)]],
        ),
        (
            "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?",
            [vec![int(10), int(29)], vec![int(64), int(64)]],
        ),
        (
            "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
            [vec![int(10), int(29)], vec![int(3), int(3)]],
        ),
        (
            "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
            [vec![int(10), int(29)], vec![int(100), int(119)]],
        ),
        (
            "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
            [vec![int(10), int(29)], vec![int(0), int(119)]],
        ),
        (
            "SELECT region, COUNT(*), SUM(bytes_sent), AVG(duration_ms), MIN(price), MAX(price) \
             FROM t_hits GROUP BY region ORDER BY region",
            none(),
        ),
        (
            "SELECT COUNT(*), COUNT(referer), SUM(bytes_sent), MAX(price) FROM t_hits \
             WHERE duration_ms > ?",
            [vec![int(300)], vec![int(5000)]],
        ),
        (
            "SELECT event_id, user_id, bytes_sent FROM t_hits WHERE duration_ms < ? \
             ORDER BY bytes_sent DESC LIMIT 20",
            [vec![int(800)], vec![int(200)]],
        ),
        (
            "SELECT event_id, region, bytes_sent FROM t_hits WHERE user_id = ?",
            [vec![int(4)], vec![int(100)]],
        ),
    ]
}

#[test]
fn disabled_cache_yields_identical_results() {
    let cached = sharded_runtime();
    let uncached = sharded_runtime();
    let mut cs = cached.session();
    let mut us = uncached.session();
    us.execute_sql("SET sql_plan_cache_size = 0", &[]).unwrap();
    load_users(&mut cs, 8);
    load_users(&mut us, 8);

    let queries: [(&str, Vec<Value>); 5] = [
        ("SELECT name FROM t_user WHERE uid = ?", vec![Value::Int(3)]),
        (
            "SELECT name FROM t_user WHERE uid IN (?, ?)",
            vec![Value::Int(1), Value::Int(2)],
        ),
        (
            "SELECT name FROM t_user WHERE uid BETWEEN ? AND ? ORDER BY uid",
            vec![Value::Int(2), Value::Int(5)],
        ),
        ("SELECT COUNT(*) FROM t_user", vec![]),
        ("SELECT name FROM t_user ORDER BY uid", vec![]),
    ];
    for (sql, params) in queries {
        // Run twice on each runtime so the cached one exercises its warm path.
        for _ in 0..2 {
            let a = query_rows(&mut cs, sql, &params);
            let b = query_rows(&mut us, sql, &params);
            assert_eq!(a, b, "results diverged for {sql}");
        }
    }
    let status = uncached.plan_cache().status();
    assert_eq!(status.parse.size, 0);
    assert_eq!(status.plan.size, 0);
    assert_eq!(status.parse.hits, 0);

    // Replay against a reference: every shape cold, warm and warm with other
    // parameters returns what one unsharded engine returns — through both
    // front doors (`Oracle::assert_same`), with the caches on and off. A
    // plan's memo is filled by the first execution and read by the rest, so
    // "warm" is where a wrongly kept statement would show.
    for cache in [true, false] {
        let (runtime, mut s, oracle) = replay_deployment(cache);
        for (sql, [first, other]) in replayed_statements() {
            for params in [&first, &first, &other, &first] {
                oracle.assert_same(&mut s, sql, params);
            }
        }
        let status = runtime.plan_cache().status();
        if cache {
            assert!(status.plan.hits > status.plan.misses, "{status:?}");
        } else {
            assert_eq!((status.plan.size, status.plan.hits), (0, 0), "{status:?}");
        }
    }
}

/// Units each of the `statements` that `run` routes fanned out to, by the
/// `route_fanout_units` histogram.
fn fanout_of(runtime: &ShardingRuntime, statements: u64, run: impl FnOnce()) -> u64 {
    let before = runtime.metrics().route_fanout.snapshot();
    run();
    let after = runtime.metrics().route_fanout.snapshot();
    assert_eq!(after.count, before.count + statements);
    (after.sum - before.sum) / statements
}

fn plan_hits(runtime: &ShardingRuntime) -> u64 {
    runtime.plan_cache().status().plan.hits
}

/// Shadow and read-write splitting pick a unit's data source per execution,
/// on that execution's inputs: a warm plan serves production and shadow
/// traffic, every replica in turn, and the primary inside a transaction,
/// without what it keeps ever being re-targeted.
#[test]
fn shadow_and_rw_split_retarget_a_warm_plan_per_execution() {
    let mut builder = ShardingRuntime::builder();
    for name in ["ds_0", "ds_1", "sh_0", "sh_1", "rep_a", "rep_b"] {
        builder = builder.datasource(name, StorageEngine::new(name));
    }
    let runtime = builder.build();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32), is_test BOOL)",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    // The physical tables of the shadow sources and of ds_0's replicas, each
    // row saying which copy it is.
    let copies = [("sh_0", 0), ("sh_1", 1), ("rep_a", 0), ("rep_b", 0)];
    for (name, source) in copies {
        let engine = Arc::clone(runtime.datasource(name).unwrap().engine());
        for node in [source, source + 2] {
            let ddl = format!(
                "CREATE TABLE t_user_{node} (uid BIGINT PRIMARY KEY, name VARCHAR(32), is_test BOOL)"
            );
            engine.execute_sql(&ddl, &[], None).unwrap();
            for uid in [node, node + 4] {
                let row = format!("INSERT INTO t_user_{node} VALUES ({uid}, '{name}:{uid}', TRUE)");
                engine.execute_sql(&row, &[], None).unwrap();
            }
        }
    }
    for uid in 0..8i64 {
        let row = [Value::Int(uid), Value::Str(format!("prod:{uid}"))];
        s.execute_sql(
            "INSERT INTO t_user (uid, name, is_test) VALUES (?, ?, FALSE)",
            &row,
        )
        .unwrap();
    }
    runtime.set_shadow(Some(
        ShadowRule::new("is_test")
            .map("ds_0", "sh_0")
            .map("ds_1", "sh_1"),
    ));

    let names = |s: &mut Session, sql: &str, params: &[Value]| -> Vec<String> {
        let rows = query_rows(s, sql, params);
        rows.into_iter().map(|r| r[0].to_string()).collect()
    };
    let (prod, test) = (Value::Bool(false), Value::Bool(true));
    let point = "SELECT name FROM t_user WHERE uid = ? AND is_test = ?";
    let pair = "SELECT name FROM t_user WHERE uid IN (?, ?) AND is_test = ? ORDER BY uid";
    let three = Value::Int(3);
    assert_eq!(
        names(&mut s, point, &[three.clone(), prod.clone()]),
        ["prod:3"]
    );
    let warm = plan_hits(&runtime);
    for _ in 0..2 {
        assert_eq!(
            names(&mut s, point, &[three.clone(), test.clone()]),
            ["sh_1:3"]
        );
        assert_eq!(
            names(&mut s, point, &[three.clone(), prod.clone()]),
            ["prod:3"]
        );
    }
    assert_eq!(plan_hits(&runtime), warm + 4, "all four replayed one plan");
    for (marker, expected) in [(&prod, ["prod:2", "prod:5"]), (&test, ["sh_0:2", "sh_1:5"])] {
        for _ in 0..2 {
            let params = [Value::Int(2), Value::Int(5), marker.clone()];
            assert_eq!(names(&mut s, pair, &params), expected);
        }
    }
    // A write: the shadow copy changes, production does not.
    let rename = "UPDATE t_user SET name = ? WHERE uid = ? AND is_test = ?";
    for (name, marker) in [("prod:six", &prod), ("test:six", &test)] {
        let params = [Value::Str(name.into()), Value::Int(6), marker.clone()];
        assert_eq!(s.execute_sql(rename, &params).unwrap().affected(), 1);
    }
    assert_eq!(
        names(&mut s, point, &[Value::Int(6), prod.clone()]),
        ["prod:six"]
    );
    assert_eq!(
        names(&mut s, point, &[Value::Int(6), test.clone()]),
        ["test:six"]
    );

    // Read-write splitting on ds_0: replicas in turn on one warm plan, …
    runtime.set_shadow(None);
    let replicas = vec!["rep_a".into(), "rep_b".into()];
    runtime.add_rw_split(ReadWriteSplitRule::new("ds_0", "ds_0", replicas));
    let point = "SELECT name FROM t_user WHERE uid = ?";
    let read = |s: &mut Session| names(s, point, &[Value::Int(4)]).remove(0);
    let served: Vec<String> = (0..4).map(|_| read(&mut s)).collect();
    assert_eq!(served[0..2], served[2..4], "round robin: {served:?}");
    assert!(served.contains(&"rep_a:4".into()) && served.contains(&"rep_b:4".into()));
    // … around an open breaker, …
    runtime.datasource("rep_a").unwrap().breaker().trip();
    for _ in 0..3 {
        assert_eq!(read(&mut s), "rep_b:4");
    }
    runtime.datasource("rep_a").unwrap().breaker().reset();
    // … the primary inside a transaction, and for writes; ds_1 is no group's.
    s.begin().unwrap();
    assert_eq!(read(&mut s), "prod:4");
    s.commit().unwrap();
    let params = [Value::Str("prod:four".into()), Value::Int(4), prod.clone()];
    assert_eq!(s.execute_sql(rename, &params).unwrap().affected(), 1);
    assert_eq!(names(&mut s, point, &[Value::Int(1)]), ["prod:1"]);
    let all = names(
        &mut s,
        "SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY uid",
        &[Value::Int(0), Value::Int(1)],
    );
    assert!(all[0].starts_with("rep_") && all[1] == "prod:1", "{all:?}");
}

/// A global-index lookup narrows a warm scatter plan to the nodes that hold
/// the value — none, one or two — and the narrowed executions replay the
/// same plan's per-node statements.
#[test]
fn gsi_narrows_a_warm_plan() {
    let (runtime, mut s, oracle) = replay_deployment(true);
    let e = |uid: i64| Value::Str(email(uid));
    let nobody = || Value::Str("nobody".into());
    let lookup = "SELECT uid, amount FROM t_order WHERE email IN (?, ?) ORDER BY uid";
    // (parameters, nodes the index leaves) — 1 and 5 live on the same node.
    let cases = [
        (vec![e(1), e(2)], 2),
        (vec![e(1), e(5)], 1),
        (vec![nobody(), nobody()], 1), // a query keeps one node for its shape
        (vec![e(2), e(3)], 2),
        (vec![e(1), e(2)], 2),
    ];
    oracle.assert_same(&mut s, lookup, &cases[0].0);
    let warm = plan_hits(&runtime);
    for (params, nodes) in &cases {
        // `assert_same` runs the statement through both doors.
        let fanout = fanout_of(&runtime, 2, || {
            oracle.assert_same(&mut s, lookup, params);
        });
        assert_eq!(fanout, *nodes, "{params:?}");
        assert_eq!(s.last_route_strategy(), Some(RouteStrategy::IndexRoute));
    }
    assert_eq!(plan_hits(&runtime), warm + 2 * cases.len() as u64);

    // Writes narrow too; one that the index proves touches nothing is sent
    // nowhere.
    let discount = "UPDATE t_order SET amount = ? WHERE email = ?";
    for (who, nodes) in [(e(7), 1), (nobody(), 0), (e(8), 1)] {
        let params = [Value::Int(1), who];
        let fanout = fanout_of(&runtime, 1, || oracle.write_both(&mut s, discount, &params));
        assert_eq!(fanout, nodes, "{params:?}");
    }
    oracle.assert_same(&mut s, "SELECT uid, amount FROM t_order ORDER BY uid", &[]);
}

/// Statements that are routed or rewritten per execution — by a hint, by an
/// encrypt rule — after the same text ran plain and left a warm plan behind.
#[test]
fn hinted_and_encrypted_statements_do_not_replay_the_plain_plan() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);
    let uids = |s: &mut Session, sql: &str, params: &[Value]| -> Vec<i64> {
        let rows = query_rows(s, sql, params);
        rows.iter().map(|r| r[0].as_int().unwrap()).collect()
    };
    let scan = "SELECT uid FROM t_user WHERE name <> ? ORDER BY uid";
    let nobody = [Value::Str("nobody".into())];
    let everyone: Vec<i64> = (0..8).collect();
    for _ in 0..2 {
        assert_eq!(uids(&mut s, scan, &nobody), everyone);
    }
    {
        let _hint = HintManager::set_sharding_value("t_user", Value::Int(3));
        assert_eq!(uids(&mut s, scan, &nobody), [3, 7]);
    }
    assert_eq!(uids(&mut s, scan, &nobody), everyone);

    // The same texts, now patched per execution by an encrypt rule: the
    // stored value is ciphertext, the application sees plaintext, equality
    // on the encrypted column still matches — and no patched plan is kept.
    let insert = "INSERT INTO t_user (uid, name) VALUES (?, ?)";
    let by_key = "SELECT name FROM t_user WHERE uid = ?";
    let by_name = "SELECT uid FROM t_user WHERE name = ?";
    assert_eq!(uids(&mut s, by_name, &[Value::Str("user5".into())]), [5]);
    let mut encrypt = EncryptRule::new();
    let cipher = shard_core::feature::encrypt::XorCipher::new("k");
    encrypt.add_column("t_user", "name", Arc::new(cipher));
    runtime.set_encrypt(encrypt);
    let kept = runtime.plan_cache().status().plan.size;
    let alice = Value::Str("alice".into());
    s.execute_sql(insert, &[Value::Int(9), alice.clone()])
        .unwrap();
    for _ in 0..2 {
        assert_eq!(
            query_rows(&mut s, by_key, &[Value::Int(9)]),
            [[alice.clone()]]
        );
        assert_eq!(uids(&mut s, by_name, std::slice::from_ref(&alice)), [9]);
    }
    assert_eq!(runtime.plan_cache().status().plan.size, kept);
    let stored = runtime.datasource("ds_1").unwrap();
    let raw = stored
        .engine()
        .execute_sql("SELECT name FROM t_user_1 WHERE uid = 9", &[], None);
    assert!(matches!(&raw.unwrap().query().rows[0][0], Value::Str(s) if s.starts_with("enc:")));
}

/// What `EXPLAIN ANALYZE` says about a statement does not depend on whether
/// its plan was just built or is being replayed.
#[test]
fn explain_verdicts_are_the_same_cold_and_warm() {
    let (_, mut s, _) = replay_deployment(true);
    for (sql, [first, other]) in replayed_statements() {
        let mut verdicts = Vec::new();
        for params in [&first, &first, &other, &first] {
            let (_, trace) = s.execute_traced(sql, params).unwrap();
            let mut units: Vec<String> = trace
                .units
                .iter()
                .map(|u| format!("{}.{}", u.datasource, u.tables))
                .collect();
            units.sort();
            let stages: Vec<_> = trace.stages.iter().map(|(stage, _)| *stage).collect();
            verdicts.push((
                trace.route_strategy,
                trace.scan_mode,
                trace.merger,
                units,
                stages,
            ));
        }
        let (cold, warm, again) = (&verdicts[0], &verdicts[1], &verdicts[3]);
        assert_eq!(cold, warm, "{sql}");
        assert_eq!(cold, again, "{sql}: after other parameters");
        assert!(cold.0.is_some() && !cold.3.is_empty(), "{sql}: {cold:?}");
        // Other parameters may reach other nodes, not another scan mode.
        assert_eq!(cold.1, verdicts[2].1, "{sql}");
    }
}

#[test]
fn show_sql_plan_cache_status_reports_counters() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);
    let sql = "SELECT name FROM t_user WHERE uid = ?";
    for _ in 0..3 {
        query_rows(&mut s, sql, &[Value::Int(1)]);
    }

    let rows = query_rows(&mut s, "SHOW SQL_PLAN_CACHE STATUS", &[]);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Str("parse".into()));
    assert_eq!(rows[1][0], Value::Str("plan".into()));
    let Value::Int(parse_hits) = &rows[0][1] else {
        panic!("hits must be an integer");
    };
    let Value::Int(plan_hits) = &rows[1][1] else {
        panic!("hits must be an integer");
    };
    assert!(*parse_hits >= 2, "repeated SQL must hit the parse cache");
    assert!(*plan_hits >= 2, "repeated SQL must hit the plan cache");
    // Sizes and capacities are reported.
    let Value::Int(size) = &rows[1][4] else {
        panic!()
    };
    let Value::Int(cap) = &rows[1][5] else {
        panic!()
    };
    assert!(*size >= 1);
    assert!(cap >= size);

    // SET resizes live; SHOW VARIABLE reads it back.
    s.execute_sql("SET sql_plan_cache_size = 64", &[]).unwrap();
    let rows = query_rows(&mut s, "SHOW VARIABLE sql_plan_cache_size", &[]);
    assert_eq!(rows[0][1], Value::Str("64".into()));
}
