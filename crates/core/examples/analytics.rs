//! Analytics tour: the vectorized batch-scan path computing full-table
//! aggregates over columnar batches, the `scan_mode` verdict in EXPLAIN
//! ANALYZE, and the batch counters — against a 4-shard event table over two embedded data sources.
//!
//! ```bash
//! cargo run --release -p shard-core --example analytics
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
    s.execute_sql("CREATE SHARDING TABLE RULE t_hits (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=event_id, TYPE=mod, PROPERTIES(\"sharding-count\"=4))", &[]).unwrap();
    s.execute_sql(
        "CREATE TABLE t_hits (event_id BIGINT PRIMARY KEY, region VARCHAR(16), \
         url VARCHAR(64), duration_ms INT, bytes_sent BIGINT, price DOUBLE)",
        &[],
    )
    .unwrap();
    for id in 0..240i64 {
        s.execute_sql(
            "INSERT INTO t_hits (event_id, region, url, duration_ms, bytes_sent, price) \
             VALUES (?, ?, ?, ?, ?, ?)",
            &[
                Value::Int(id),
                Value::Str(format!("r{}", id % 5)),
                Value::Str(format!("/page/{}", id % 17)),
                // Every 5th duration is NULL — the bitmap path in action.
                if id % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int((id * 37) % 3000)
                },
                Value::Int((id * 211) % 100_000),
                Value::Float(((id * 31) % 1000) as f64 / 10.0),
            ],
        )
        .unwrap();
    }
    for sql in [
        // Full-table GROUP BY: per-shard partials computed over columnar
        // batches; the route line says scan_mode=batch.
        "EXPLAIN ANALYZE SELECT region, COUNT(*), SUM(bytes_sent), AVG(duration_ms), \
         MIN(price), MAX(price) FROM t_hits GROUP BY region ORDER BY region",
        // Ungrouped multi-aggregate: COUNT(*) adds batch lengths,
        // COUNT(col) subtracts bitmap null counts.
        "SELECT COUNT(*), COUNT(duration_ms), AVG(price) FROM t_hits",
        // Early-LIMIT plain scans keep the row cursor's tight pull bounds.
        "EXPLAIN ANALYZE SELECT event_id, url FROM t_hits ORDER BY event_id LIMIT 3",
        // The counters the batch path feeds.
        "SHOW METRICS LIKE 'scan_batch%'",
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
