//! End-to-end tests for the streaming execute→merge pipeline: bounded
//! per-shard row pulls under LIMIT, streamed-vs-materialized equivalence,
//! and early cancellation on shard errors / abandoned cursors.
//!
//! Linux only: the tests choose the transport they cover by pinning their
//! thread to one CPU ([`on_one_cpu`]).
#![cfg(target_os = "linux")]

use shard_core::merge::MergerKind;
use shard_core::{Session, ShardingRuntime, StreamOutcome};
use shard_sql::Value;
use shard_storage::{LatencyModel, StorageEngine};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;

/// The two transports a streamed unit's rows can take, by the deployment
/// that selects each once [`on_one_cpu`] holds: embedded sources leave the
/// cursors to the consumer, a source that waits gets pumps on pool workers.
fn transports() -> [(LatencyModel, bool); 2] {
    let wire = LatencyModel::new(Duration::from_micros(20), Duration::ZERO);
    [(LatencyModel::ZERO, false), (wire, true)]
}

/// Restrict the calling thread to one CPU before it first touches the
/// executor's pool. The pool reads the CPU count once, when first used, and
/// on one CPU wakes no helper for sources that do not wait — so which
/// transport a test covers is the test's choice, not an accident of the
/// machine's core count. Every test here starts with it, so whichever comes
/// first builds the pool.
fn on_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // `cpu_set_t` is 1024 bits on Linux.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments; `mask` is a readable buffer
    // of exactly the byte length passed, and pid 0 names the calling thread.
    let rc = unsafe {
        let cpu = usize::try_from(sched_getcpu()).expect("sched_getcpu");
        mask[cpu / 64] = 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
    };
    assert_eq!(rc, 0, "{}", std::io::Error::last_os_error());
    assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
}

/// 4 data sources, `t` sharded 4 ways by id (mod) — one physical shard per
/// source, so per-engine counters map 1:1 to shards.
fn streaming_runtime(latency: LatencyModel) -> (Arc<ShardingRuntime>, Vec<Arc<StorageEngine>>) {
    on_one_cpu();
    let engines: Vec<Arc<StorageEngine>> = (0..SHARDS)
        .map(|i| StorageEngine::with_latency(format!("ds_{i}"), latency))
        .collect();
    let mut b = ShardingRuntime::builder();
    for (i, e) in engines.iter().enumerate() {
        b = b.datasource(&format!("ds_{i}"), Arc::clone(e));
    }
    let runtime = b.build();
    let mut s = runtime.session();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1, ds_2, ds_3), \
         SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        &[],
    )
    .unwrap();
    s.execute_sql(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, v INT, tag VARCHAR(8))",
        &[],
    )
    .unwrap();
    (runtime, engines)
}

fn load_rows(s: &mut Session, n: i64) {
    for i in 0..n {
        s.execute_sql(
            "INSERT INTO t (id, v, tag) VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int((i * 7) % 50),
                Value::Str(format!("g{}", i % 3)),
            ],
        )
        .unwrap();
    }
}

/// The counting-data-source test: a streamed `LIMIT offset, n` over an
/// indexed ORDER BY must pull O(offset + n) rows from each shard, not the
/// whole table.
#[test]
fn limit_pulls_bounded_rows_per_shard() {
    for (latency, pumped) in transports() {
        let (runtime, engines) = streaming_runtime(latency);
        let mut s = runtime.session();
        load_rows(&mut s, (SHARDS * 200) as i64); // 200 rows per shard
        let before: Vec<u64> = engines.iter().map(|e| e.rows_pulled()).collect();

        let mut stream = s
            .query_stream("SELECT id FROM t ORDER BY id LIMIT 3, 5", &[])
            .unwrap();
        assert!(stream.is_streaming(), "expected the streamed path");
        assert_eq!(s.last_execution_report().unwrap().pumped, pumped);
        let rows: Vec<_> = stream.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(
            rows,
            (3..8).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>()
        );
        assert_eq!(s.last_merger_kind(), Some(MergerKind::OrderByStream));

        for (i, e) in engines.iter().enumerate() {
            let pulled = e.rows_pulled() - before[i];
            // offset + limit = 8 is the worst case any single shard can
            // contribute to the merged window, and all its rewritten
            // statement lets a pump running ahead of the merger pull.
            assert!(
                pulled <= 8,
                "shard {i} pulled {pulled} rows for a LIMIT 3,5 query (expected <= 8)"
            );
        }
    }
}

/// Streamed results must be byte-identical to the materialized path across
/// the merge-strategy matrix.
#[test]
fn streamed_matches_materialized_across_merge_strategies() {
    for (latency, pumped) in transports() {
        matrix_matches(latency, pumped);
    }
}

fn matrix_matches(latency: LatencyModel, pumped: bool) {
    let (runtime, _) = streaming_runtime(latency);
    let mut s = runtime.session();
    load_rows(&mut s, 120);

    // (sql, ordered): ordered results compare as-is, unordered are sorted.
    let matrix: &[(&str, bool)] = &[
        ("SELECT id, v FROM t ORDER BY id", true),
        ("SELECT id, v FROM t ORDER BY id DESC", true),
        ("SELECT id, v, tag FROM t ORDER BY tag, id", true),
        (
            "SELECT tag, COUNT(*) FROM t GROUP BY tag ORDER BY tag",
            true,
        ),
        ("SELECT tag, SUM(v), MAX(v) FROM t GROUP BY tag", false),
        ("SELECT v, COUNT(*) FROM t GROUP BY v", false),
        ("SELECT COUNT(*), MIN(id), MAX(id) FROM t", true),
        ("SELECT AVG(v) FROM t", true),
        ("SELECT DISTINCT tag FROM t ORDER BY tag", true),
        ("SELECT id FROM t ORDER BY id LIMIT 10, 7", true),
        (
            "SELECT id FROM t WHERE v > 25 ORDER BY id DESC LIMIT 5",
            true,
        ),
        ("SELECT id, v FROM t WHERE id = 17", true),
        (
            "SELECT tag, COUNT(*) FROM t GROUP BY tag HAVING COUNT(*) > 30 ORDER BY tag",
            true,
        ),
        ("SELECT id FROM t", false),
    ];

    for (sql, ordered) in matrix {
        let materialized = match s.execute_sql(sql, &[]).unwrap() {
            shard_storage::ExecuteResult::Query(rs) => rs,
            _ => panic!("not a query"),
        };
        let streamed = s.query_stream(sql, &[]).unwrap();
        assert!(streamed.is_streaming(), "{sql}");
        // One unit is never worth a pump; a scatter to a waiting source is.
        let report = s.last_execution_report().unwrap();
        let scatter = report.groups.len() > 1;
        assert_eq!(report.pumped, pumped && scatter, "{sql}");
        assert_eq!(streamed.columns(), &materialized.columns[..], "{sql}");
        let mut got: Vec<_> = streamed.collect::<Result<Vec<_>, _>>().unwrap();
        let mut want = materialized.rows.clone();
        if !ordered {
            let key = |r: &Vec<Value>| format!("{r:?}");
            got.sort_by_key(key);
            want.sort_by_key(key);
        }
        assert_eq!(got, want, "streamed vs materialized mismatch for: {sql}");
    }
}

/// A failing shard must surface as an error on the stream — promptly, with
/// no hang — and cancel its healthy siblings.
#[test]
fn error_shard_fails_stream_and_cancels_siblings() {
    let (runtime, engines) = streaming_runtime(LatencyModel::new(
        Duration::ZERO,
        Duration::from_micros(200),
    ));
    let mut s = runtime.session();
    load_rows(&mut s, 400);
    // Break one shard by dropping its physical table behind the kernel's back.
    let victim = &engines[2];
    let physical = victim
        .table_names()
        .into_iter()
        .find(|t| t.starts_with("t_"))
        .expect("shard table on ds_2");
    victim
        .execute_sql(&format!("DROP TABLE {physical}"), &[], None)
        .unwrap();

    let start = std::time::Instant::now();
    let result = s
        .query_stream("SELECT id, v FROM t ORDER BY id", &[])
        .and_then(|stream| stream.collect::<Result<Vec<_>, _>>());
    assert!(result.is_err(), "query over a broken shard must fail");
    // No hang: the error arrives long before 100 healthy rows × 200µs would.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stream error took {:?}",
        start.elapsed()
    );
    // The runtime stays usable afterwards (no leaked jobs wedging the pool).
    let rs = s.execute_sql("SELECT COUNT(*) FROM t WHERE id % 4 = 0", &[]);
    assert!(rs.is_ok() || rs.is_err()); // reachable — just must return
}

/// Dropping a streamed cursor early cancels in-flight shard scans: the
/// producers stop pulling rows instead of scanning their tables to the end.
#[test]
fn abandoned_stream_stops_shard_scans() {
    let (runtime, engines) = streaming_runtime(LatencyModel::new(
        Duration::ZERO,
        Duration::from_micros(100),
    ));
    let mut s = runtime.session();
    load_rows(&mut s, 2000); // 500 rows per shard
    let before: Vec<u64> = engines.iter().map(|e| e.rows_pulled()).collect();

    let mut stream = s.query_stream("SELECT id FROM t ORDER BY id", &[]).unwrap();
    assert!(stream.is_streaming());
    for _ in 0..3 {
        stream.next_row().unwrap().expect("row available");
    }
    drop(stream); // client walks away after 3 of 2000 rows

    // A producer holds its connection until it has seen the cancellation
    // token or its dead channel and let go of its cursor: all permits back
    // means every producer is done, and what they pulled is final.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for i in 0..SHARDS {
        let pool = runtime
            .datasource(&format!("ds_{i}"))
            .unwrap()
            .pool()
            .clone();
        while pool.available() < pool.capacity() {
            assert!(
                std::time::Instant::now() < deadline,
                "ds_{i}: producer still scanning after the stream was dropped"
            );
            std::thread::yield_now();
        }
    }
    let pulled: u64 = engines
        .iter()
        .zip(&before)
        .map(|(e, before)| e.rows_pulled() - before)
        .sum();
    // 4 shards × (64-slot channel + in-flight row) is the ceiling if every
    // producer filled its channel before the drop; 500×4 = 2000 is what a
    // non-cancelling implementation would pull.
    assert!(
        pulled <= 4 * 80,
        "shards pulled {pulled} rows for a stream dropped after 3"
    );
}

/// The streaming entry point still answers non-streamable statements
/// (DML, transactions) through the materialized path.
#[test]
fn stream_api_falls_back_for_non_streamable_statements() {
    let (runtime, _) = streaming_runtime(LatencyModel::ZERO);
    let mut s = runtime.session();
    load_rows(&mut s, 8);

    match s
        .execute_sql_stream("UPDATE t SET v = 0 WHERE id = 3", &[])
        .unwrap()
    {
        StreamOutcome::Update { affected } => assert_eq!(affected, 1),
        StreamOutcome::Rows(_) => panic!("UPDATE produced rows"),
    }

    // Inside a transaction the session must read its own uncommitted writes,
    // so SELECTs take the transactional (materialized) path.
    s.begin().unwrap();
    s.execute_sql("INSERT INTO t (id, v, tag) VALUES (100, 1, 'x')", &[])
        .unwrap();
    let stream = s
        .query_stream("SELECT id FROM t WHERE id = 100", &[])
        .unwrap();
    assert!(!stream.is_streaming());
    let rows: Vec<_> = stream.collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(rows, vec![vec![Value::Int(100)]]);
    s.rollback().unwrap();
}
