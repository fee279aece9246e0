//! Routing-intelligence tour: a global secondary index killing the
//! non-shard-key scatter, partial-aggregate pushdown bounding the merge,
//! and the `route_strategy` verdict in EXPLAIN ANALYZE — against a
//! 4-shard table over two embedded data sources.
//!
//! ```bash
//! cargo run --release -p shard-core --example routing
//! ```

use shard_core::ShardingRuntime;
use shard_sql::Value;
use shard_storage::{ExecuteResult, StorageEngine};

fn main() {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    s.execute_sql("CREATE SHARDING TABLE RULE t_order (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))", &[]).unwrap();
    s.execute_sql(
        "CREATE TABLE t_order (uid BIGINT PRIMARY KEY, email VARCHAR(64), amount INT, status VARCHAR(16))",
        &[],
    )
    .unwrap();
    s.execute_sql("CREATE GLOBAL INDEX ON t_order (email)", &[])
        .unwrap();
    for uid in 0..24i64 {
        s.execute_sql(
            "INSERT INTO t_order (uid, email, amount, status) VALUES (?, ?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Str(format!("user{uid}@example.com")),
                Value::Int(uid * 10),
                Value::Str(if uid % 3 == 0 { "open" } else { "done" }.into()),
            ],
        )
        .unwrap();
    }
    for sql in [
        "SHOW GLOBAL INDEXES",
        // Index route: equality on the indexed non-shard-key column.
        "EXPLAIN ANALYZE SELECT uid, amount FROM t_order WHERE email = 'user17@example.com'",
        // Aggregate pushdown: the merger sees partials, not source rows.
        "EXPLAIN ANALYZE SELECT status, SUM(amount), AVG(amount) FROM t_order GROUP BY status",
        // Scatter baselines: a predicate no index covers, and the pushdown
        // ablated so shards ship raw rows.
        "EXPLAIN ANALYZE SELECT uid, amount FROM t_order WHERE status = 'open'",
        "SET VARIABLE agg_pushdown = off",
        "EXPLAIN ANALYZE SELECT status, SUM(amount), AVG(amount) FROM t_order GROUP BY status",
        "SET VARIABLE agg_pushdown = on",
        "SHOW METRICS LIKE 'gsi_%'",
        "SHOW METRICS LIKE 'merge_input%'",
    ] {
        println!("--- {sql}");
        match s.execute_sql(sql, &[]).unwrap() {
            ExecuteResult::Query(rs) => {
                for row in &rs.rows {
                    let line: Vec<String> = row
                        .iter()
                        .map(|v| match v {
                            Value::Str(t) => t.clone(),
                            other => format!("{other:?}"),
                        })
                        .collect();
                    println!("{}", line.join(" | "));
                }
            }
            ExecuteResult::Update { .. } => println!("ok"),
        }
    }
}
