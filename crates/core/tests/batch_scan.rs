//! Vectorized batch-scan integration tests: equivalence with one unsharded
//! engine, early abandonment of a batch stream, mid-stream fault parity
//! between the batch and the row cursor, the `scan_mode` EXPLAIN tag, the
//! batch counters, and the rows-counted-once gauge audit.

mod common;

use common::Oracle;
use shard_core::{ErrorClass, Session, ShardingRuntime, StreamOutcome};
use shard_sql::Value;
use shard_storage::{ExecuteResult, FaultKind, FaultOp, FaultPlan, FaultTrigger, StorageEngine};
use std::sync::Arc;

/// Two sources with four shards per table, and one unsharded engine holding
/// the same tables.
fn sharded_runtime() -> (Arc<ShardingRuntime>, Oracle) {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let oracle = Oracle::new();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE t_sales (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=sid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        "CREATE SHARDING TABLE RULE t_empty (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=eid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    for sql in [
        "CREATE TABLE t_sales (sid BIGINT PRIMARY KEY, region VARCHAR(16), amount DOUBLE, qty INT, note VARCHAR(32))",
        "CREATE TABLE t_empty (eid BIGINT PRIMARY KEY, v INT)",
    ] {
        oracle.write_both(&mut s, sql, &[]);
    }
    (runtime, oracle)
}

/// Rows with NULL-heavy columns: every 3rd amount and every 2nd note NULL.
fn load_sales(s: &mut Session, oracle: &Oracle, n: i64) {
    let regions = ["east", "west", "north", "south", "central"];
    for sid in 0..n {
        let amount = if sid % 3 == 0 {
            Value::Null
        } else {
            Value::Float(sid as f64 * 1.25)
        };
        let note = if sid % 2 == 0 {
            Value::Null
        } else {
            Value::Str(format!("n{sid}"))
        };
        oracle.write_both(
            s,
            "INSERT INTO t_sales (sid, region, amount, qty, note) VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Int(sid),
                Value::Str(regions[(sid % 5) as usize].into()),
                amount,
                Value::Int(sid % 11),
                note,
            ],
        );
    }
}

fn query(s: &mut Session, sql: &str) -> shard_storage::ResultSet {
    match s.execute_sql(sql, &[]).unwrap() {
        ExecuteResult::Query(rs) => rs,
        other => panic!("expected rows from {sql}, got {other:?}"),
    }
}

fn rows_pulled_total(runtime: &Arc<ShardingRuntime>) -> u64 {
    ["ds_0", "ds_1"]
        .iter()
        .map(|ds| runtime.datasource(ds).unwrap().engine().rows_pulled())
        .sum()
}

fn scan_batch_totals(runtime: &Arc<ShardingRuntime>) -> (u64, u64) {
    ["ds_0", "ds_1"]
        .iter()
        .map(|ds| {
            let e = runtime.datasource(ds).unwrap().engine().clone();
            (e.scan_batches(), e.scan_batch_rows())
        })
        .fold((0, 0), |(b, r), (eb, er)| (b + eb, r + er))
}

/// The equivalence matrix: NULL-heavy aggregates, GROUP BY with HAVING /
/// ORDER BY / LIMIT, DISTINCT aggregates, WHERE-filtered scans, plain
/// scatter projections, expression group keys, and empty shards — every
/// query returns what one unsharded engine returns, on both the buffered
/// and the streaming path.
#[test]
fn batch_path_matches_the_unsharded_oracle() {
    let queries = [
        "SELECT region, SUM(amount), COUNT(*), AVG(amount), MIN(amount), MAX(amount) FROM t_sales GROUP BY region ORDER BY region",
        "SELECT COUNT(*), COUNT(amount), COUNT(note), SUM(qty), AVG(qty) FROM t_sales",
        "SELECT SUM(amount), MIN(qty), MAX(qty) FROM t_sales WHERE sid >= 40",
        // DISTINCT aggregates only merge single-shard; route by shard key.
        "SELECT COUNT(DISTINCT region), COUNT(DISTINCT qty) FROM t_sales WHERE sid = 8",
        "SELECT region, COUNT(*) FROM t_sales GROUP BY region HAVING COUNT(*) > 20 ORDER BY COUNT(*) DESC, region LIMIT 3",
        "SELECT qty, SUM(amount * 2) FROM t_sales WHERE amount > 10 GROUP BY qty ORDER BY qty",
        "SELECT sid, region, qty FROM t_sales WHERE qty = 7",
        "SELECT sid, amount, note FROM t_sales",
        "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t_empty",
        "SELECT v, COUNT(*) FROM t_empty GROUP BY v",
        "SELECT region, AVG(amount) FROM t_sales WHERE note IS NULL GROUP BY region ORDER BY region",
    ];
    let (runtime, oracle) = sharded_runtime();
    let mut s = runtime.session();
    load_sales(&mut s, &oracle, 200);
    let (batches_before, _) = scan_batch_totals(&runtime);
    for sql in queries {
        oracle.assert_same(&mut s, sql, &[]);
    }
    let (batches_after, _) = scan_batch_totals(&runtime);
    assert!(
        batches_after > batches_before,
        "no query took the batch path"
    );
}

/// A consumer that abandons a batch stream mid-way stops the producers: each
/// unit fetches no more columnar batches than its bounded channel can hold
/// in flight, however large its table is.
#[test]
fn abandoned_batch_stream_stops_pulling() {
    const UNITS: u64 = 4;
    const BATCHES_PER_UNIT: u64 = 10;
    // What one producer can have fetched when its consumer walks away: a
    // full channel (64 messages of 32 rows), one message blocked in `send`
    // and one the consumer took — 66 × 32 rows, which is into its third
    // 1024-row batch. One more for slack against the constants moving.
    const IN_FLIGHT_PER_UNIT: u64 = 4;

    let (runtime, _) = sharded_runtime();
    let mut s = runtime.session();
    let rows = UNITS * BATCHES_PER_UNIT * shard_storage::BATCH_SIZE as u64;
    for first in (0..rows).step_by(512) {
        let values: Vec<String> = (first..first + 512)
            .map(|sid| format!("({sid}, 'east', {}.5, {}, NULL)", sid, sid % 11))
            .collect();
        s.execute_sql(
            &format!(
                "INSERT INTO t_sales (sid, region, amount, qty, note) VALUES {}",
                values.join(", ")
            ),
            &[],
        )
        .unwrap();
    }
    let (before, _) = scan_batch_totals(&runtime);

    {
        let mut stream = s.query_stream("SELECT sid, qty FROM t_sales", &[]).unwrap();
        for _ in 0..10 {
            stream.next_row().unwrap().expect("stream has rows");
        }
        // Dropping the stream here closes the channels; producers see the
        // send failure and abandon their cursors between batches.
    }
    // A producer holds its connection until it has seen its channel closed
    // and let go of its cursor: all permits back means all producers done.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    for ds in ["ds_0", "ds_1"] {
        let pool = runtime.datasource(ds).unwrap().pool().clone();
        while pool.available() < pool.capacity() {
            assert!(
                std::time::Instant::now() < deadline,
                "{ds}: producers still running"
            );
            std::thread::yield_now();
        }
    }
    let (after, _) = scan_batch_totals(&runtime);
    let fetched = after - before;
    assert!(fetched > 0, "stream never touched storage");
    assert!(
        fetched <= UNITS * IN_FLIGHT_PER_UNIT,
        "abandoned stream kept scanning: {fetched} of {} batches fetched",
        UNITS * BATCHES_PER_UNIT
    );
}

/// Early LIMIT keeps the row cursor: the per-shard statement carries the
/// LIMIT, admission rejects it, and the EXPLAIN tag says so.
#[test]
fn limit_scans_stay_on_row_path() {
    let (runtime, oracle) = sharded_runtime();
    let mut s = runtime.session();
    load_sales(&mut s, &oracle, 200);
    let (batches_before, _) = scan_batch_totals(&runtime);
    let rs = query(&mut s, "EXPLAIN ANALYZE SELECT sid FROM t_sales LIMIT 5");
    let tree = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("non-string tree line {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(tree.contains("scan_mode=row"), "{tree}");
    let (batches_after, _) = scan_batch_totals(&runtime);
    assert_eq!(batches_after, batches_before, "LIMIT scan fetched batches");
}

/// A mid-stream injected fault kills a batch stream exactly as it kills a
/// row stream: one transient structured error, early termination, and
/// sibling cursors cancelled — whichever cursor the statement's shape picks.
#[test]
fn mid_stream_fault_parity_between_cursors() {
    for (label, sql) in [
        (
            "batch",
            "SELECT region, COUNT(*) FROM t_sales GROUP BY region",
        ),
        (
            "row",
            "SELECT sid, region FROM t_sales ORDER BY sid LIMIT 150",
        ),
    ] {
        let (runtime, oracle) = sharded_runtime();
        let mut s = runtime.session();
        load_sales(&mut s, &oracle, 200);
        // Fault-free, the statement's shape picks the cursor the label says.
        let (batches_before, _) = scan_batch_totals(&runtime);
        query(&mut s, sql);
        let (batches_after, _) = scan_batch_totals(&runtime);
        assert_eq!(batches_after > batches_before, label == "batch", "{label}");
        runtime
            .datasource("ds_1")
            .unwrap()
            .engine()
            .fault_injector()
            .inject(FaultPlan::new(
                FaultOp::RowPull,
                FaultKind::Error("disk gone".into()),
                FaultTrigger::EveryNth(1),
            ));

        let mut rows = match s.execute_sql_stream(sql, &[]).unwrap() {
            StreamOutcome::Rows(rows) => rows,
            StreamOutcome::Update { .. } => panic!("expected a row stream"),
        };
        let mut yielded = 0usize;
        let mut errors = Vec::new();
        loop {
            match rows.next_row() {
                Ok(Some(_)) => yielded += 1,
                Ok(None) => break,
                Err(e) => errors.push(e),
            }
        }
        assert_eq!(errors.len(), 1, "{label}: exactly one error: {errors:?}");
        assert_eq!(errors[0].class(), ErrorClass::Transient, "{label}");
        assert!(
            errors[0].to_string().contains("row_pull fault"),
            "{label}: {}",
            errors[0]
        );
        assert!(yielded < 5, "{label}: stream kept going after the fault");
    }
}

/// The scan_mode tag says batch for a full-table aggregate, the batch
/// counters move, the gauges surface through SHOW METRICS, and what the
/// batch path returned is what one unsharded engine returns.
#[test]
fn explain_tag_and_counters_track_the_path() {
    let (runtime, oracle) = sharded_runtime();
    let mut s = runtime.session();
    load_sales(&mut s, &oracle, 300);

    let (b0, r0) = scan_batch_totals(&runtime);
    let rs = query(
        &mut s,
        "EXPLAIN ANALYZE SELECT region, SUM(amount) FROM t_sales GROUP BY region",
    );
    let tree = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("non-string tree line {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(tree.contains("scan_mode=batch"), "{tree}");
    let (b1, r1) = scan_batch_totals(&runtime);
    assert!(b1 > b0, "no batches counted");
    assert_eq!(r1 - r0, 300, "batch rows must count each row exactly once");

    // The engine counters surface as registry gauges.
    let metrics = query(&mut s, "SHOW METRICS LIKE 'scan_batch%'");
    let gauge = |name: &str| {
        metrics
            .rows
            .iter()
            .find(|r| r[0] == Value::Str(name.into()))
            .map(|r| match r[1] {
                Value::Int(n) => n,
                ref other => panic!("non-integer metric {other:?}"),
            })
            .unwrap_or_else(|| panic!("{name} missing from {:?}", metrics.rows))
    };
    assert_eq!(gauge("scan_batches_total") as u64, b1);
    assert_eq!(gauge("scan_batch_rows_total") as u64, r1);

    oracle.assert_same(
        &mut s,
        "SELECT region, SUM(amount) FROM t_sales GROUP BY region",
        &[],
    );
}

/// Gauge audit: a streamed full-table aggregate on the batch path counts
/// each source row exactly once in `rows_pulled` (not once per batch
/// element at the cursor and again at merge) and exactly once in
/// `scan_batch_rows`.
#[test]
fn batch_rows_are_counted_once() {
    let (runtime, oracle) = sharded_runtime();
    let mut s = runtime.session();
    load_sales(&mut s, &oracle, 500);

    let pulled_before = rows_pulled_total(&runtime);
    let (_, rows_before) = scan_batch_totals(&runtime);
    let streamed: Vec<Vec<Value>> = s
        .query_stream(
            "SELECT region, COUNT(*), SUM(qty) FROM t_sales GROUP BY region",
            &[],
        )
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(streamed.len(), 5);
    let total: i64 = streamed
        .iter()
        .map(|r| match r[1] {
            Value::Int(n) => n,
            ref other => panic!("unexpected count {other:?}"),
        })
        .sum();
    assert_eq!(total, 500);
    assert_eq!(
        rows_pulled_total(&runtime) - pulled_before,
        500,
        "each row must be pulled exactly once"
    );
    let (_, rows_after) = scan_batch_totals(&runtime);
    assert_eq!(
        rows_after - rows_before,
        500,
        "each row must ride in exactly one batch"
    );
}
