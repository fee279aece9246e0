//! The door probe: what a SELECT costs through each of the kernel's two
//! front doors — `execute_sql` (JDBC: every unit collected) and
//! `query_stream` + drain (the proxy: open cursors, merged as they are
//! pulled) — for the benchmark's nine SELECT shapes (`crates/perf/src/gen.rs`)
//! on its deployment shape: 2 data sources × 4 tables, 20 000 rows a table.
//!
//! The arms alternate per round and the best round counts, so the host's
//! drift lands on both. The last column is how the stream's rows travelled,
//! which follows from what the executor observes (EXPERIMENTS.md, "Ledger —
//! PR 19"): run it pinned to one CPU to see `direct` on the scatters, as the
//! benchmark would, and unpinned to see `pumped`.
//!
//! Arguments are statements to run first; `SET sql_plan_cache_size = 0` turns
//! every statement into a parse and plan miss, which is how the cost of a
//! miss is compared between two commits (EXPERIMENTS.md, "Ledger — PR 20").
//!
//! ```bash
//! taskset -c 0 cargo run --release -p shard-core --example doors
//! cargo run --release -p shard-core --example doors
//! taskset -c 0 cargo run --release -p shard-core --example doors -- "SET sql_plan_cache_size = 0"
//! ```

use shard_core::{Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::time::Instant;

const ROWS: i64 = 20_000;
const RANGE_SPAN: i64 = 100;
const ROUNDS: usize = 9;

/// (name, SQL, statements per timed arm, parameters of the `i`th statement).
type Shape = (&'static str, &'static str, i64, fn(i64) -> Vec<Value>);

fn low(i: i64) -> i64 {
    (i * 7919) % (ROWS - RANGE_SPAN)
}

fn range(i: i64) -> Vec<Value> {
    vec![Value::Int(low(i)), Value::Int(low(i) + RANGE_SPAN - 1)]
}

const SHAPES: [Shape; 9] = [
    (
        "point_select",
        "SELECT c FROM sbtest WHERE id = ?",
        4000,
        |i| vec![Value::Int(low(i))],
    ),
    (
        "range",
        "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?",
        400,
        range,
    ),
    (
        "range_sum",
        "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
        400,
        range,
    ),
    (
        "range_order",
        "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
        400,
        range,
    ),
    (
        "range_distinct",
        "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c",
        400,
        range,
    ),
    (
        "group_by",
        "SELECT region, COUNT(*), SUM(bytes_sent), AVG(duration_ms), MIN(price), MAX(price) \
         FROM t_hits GROUP BY region ORDER BY region",
        8,
        |_| Vec::new(),
    ),
    (
        "multi_agg",
        "SELECT COUNT(*), COUNT(referer), SUM(bytes_sent), MAX(price) FROM t_hits \
         WHERE duration_ms > ?",
        8,
        |i| vec![Value::Int(12_000 + 16 * (i % 16))],
    ),
    (
        "top_n",
        "SELECT event_id, user_id, bytes_sent FROM t_hits WHERE duration_ms < ? \
         ORDER BY bytes_sent DESC LIMIT 20",
        8,
        |i| vec![Value::Int(18_000 + 16 * (i % 16))],
    ),
    (
        "filter_scan",
        "SELECT event_id, region, bytes_sent FROM t_hits WHERE user_id = ?",
        8,
        |i| vec![Value::Int(311 * (i % 16) + 7)],
    ),
];

fn deploy() -> Session {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    let rule = |table: &str, key: &str| {
        format!(
            "CREATE SHARDING TABLE RULE {table} (RESOURCES(ds_0, ds_1), SHARDING_COLUMN={key}, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=8))"
        )
    };
    for sql in [
        rule("sbtest", "id").as_str(),
        rule("t_hits", "event_id").as_str(),
        "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT NOT NULL DEFAULT 0, \
         c VARCHAR(120) NOT NULL DEFAULT '', pad VARCHAR(60) NOT NULL DEFAULT '', PRIMARY KEY (id))",
        "CREATE TABLE t_hits (event_id BIGINT PRIMARY KEY, user_id BIGINT, region VARCHAR(16), \
         referer VARCHAR(64), duration_ms INT, bytes_sent BIGINT, price DOUBLE)",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    // The benchmark's rows, but for the digits of `c` and `pad`.
    let digits = |x: i64, len: usize| format!("{:0len$}", x * 0x9E37_79B9 % 99_999_999_989);
    for id in 0..ROWS {
        let sbtest = [
            Value::Int(id),
            Value::Int(id % 1000 + 1),
            Value::Str(digits(id, 119)),
            Value::Str(digits(id ^ 0x5555, 59)),
        ];
        s.execute_sql(
            "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)",
            &sbtest,
        )
        .unwrap();
        let nullable = |null: bool, v: Value| if null { Value::Null } else { v };
        let hit = [
            Value::Int(id),
            Value::Int(id % 5_000),
            Value::Str(format!("r{}", id % 6)),
            nullable(
                id % 4 == 0,
                Value::Str(format!("https://ref{}.example.com", id % 97)),
            ),
            nullable(id % 5 == 0, Value::Int((id * 37) % 30_000)),
            Value::Int((id * 211) % 1_000_000),
            Value::Float(((id * 31) % 10_000) as f64 / 100.0),
        ];
        s.execute_sql(
            "INSERT INTO t_hits (event_id, user_id, region, referer, duration_ms, bytes_sent, price) \
             VALUES (?, ?, ?, ?, ?, ?, ?)",
            &hit,
        )
        .unwrap();
    }
    s
}

/// µs per statement over one arm of `n` statements; both doors must return
/// the same number of rows.
fn arm(s: &mut Session, (_, sql, n, params): Shape, stream: bool) -> (f64, usize) {
    let started = Instant::now();
    let mut rows = 0;
    for i in 0..n {
        rows += if stream {
            s.query_stream(sql, &params(i)).unwrap().into_result_set()
        } else {
            s.execute_sql(sql, &params(i)).map(|r| r.query())
        }
        .unwrap()
        .len();
    }
    (started.elapsed().as_secs_f64() * 1e6 / n as f64, rows)
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("{cpus} CPU(s); best of {ROUNDS} alternating rounds, µs per statement");
    println!(
        "{:<15} {:>12} {:>14} {:>7}  transport",
        "shape", "execute_sql", "query_stream", "ratio"
    );
    let mut s = deploy();
    for sql in std::env::args().skip(1) {
        s.execute_sql(&sql, &[]).unwrap();
        println!("after {sql}");
    }
    for shape in SHAPES {
        let mut best = [f64::MAX; 2];
        for round in 0..ROUNDS {
            let mut rows = [0; 2];
            for door in [round % 2, 1 - round % 2] {
                let (us, n) = arm(&mut s, shape, door == 1);
                best[door] = best[door].min(us);
                rows[door] = n;
            }
            assert_eq!(rows[0], rows[1], "{}: the doors disagree", shape.0);
        }
        let stream = s.query_stream(shape.1, &(shape.3)(0)).unwrap();
        let report = s.last_execution_report().expect("a statement ran");
        let transport = match (stream.is_streaming(), report.pumped) {
            (false, _) => "collected",
            (true, false) => "direct",
            (true, true) => "pumped",
        };
        println!(
            "{:<15} {:>12.1} {:>14.1} {:>7.2}  {transport}",
            shape.0,
            best[0],
            best[1],
            best[1] / best[0]
        );
    }
}
