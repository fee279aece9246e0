//! Kernel observability integration tests: the metrics registry under
//! concurrency, `EXPLAIN ANALYZE` stage trees, the slow-query log driven
//! entirely through RAL, and the single-source-of-truth guarantee between
//! `SHOW METRICS` and the older status surfaces.

#[path = "common/users.rs"]
mod users;

use shard_core::obs::MetricsRegistry;
use shard_core::Session;
use shard_sql::Value;
use shard_storage::{ExecuteResult, ResultSet};
use std::sync::Arc;
use users::{load_users, sharded_runtime};

fn query(s: &mut Session, sql: &str) -> ResultSet {
    match s.execute_sql(sql, &[]).unwrap() {
        ExecuteResult::Query(rs) => rs,
        other => panic!("expected rows from {sql}, got {other:?}"),
    }
}

fn metric_value(rs: &ResultSet, name: &str) -> i64 {
    rs.rows
        .iter()
        .find(|r| r[0] == Value::Str(name.into()))
        .map(|r| match r[1] {
            Value::Int(n) => n,
            ref other => panic!("non-integer metric value {other:?}"),
        })
        .unwrap_or_else(|| panic!("metric {name} not present in {:?}", rs.rows))
}

/// N threads hammering one histogram and one counter: merged totals are
/// exact (striping must lose nothing), and the percentile estimate lands on
/// the bucket bound covering the recorded value.
#[test]
fn registry_concurrency_totals_are_exact() {
    let registry = Arc::new(MetricsRegistry::new());
    let hist = registry.histogram("conc_us", "test");
    let ctr = registry.counter("conc_total", "test");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let hist = Arc::clone(&hist);
        let ctr = Arc::clone(&ctr);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                // Mix of buckets, deterministic per thread.
                hist.record_us(1 + ((t as u64 + i) % 100));
                ctr.inc();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count, (THREADS as u64) * PER_THREAD);
    assert_eq!(ctr.get(), (THREADS as u64) * PER_THREAD);
    // Every recorded value is ≤ 100µs, so p99 must be within the 128 bound.
    assert!(snap.p99() <= 128, "p99 {}", snap.p99());
    let sum_check: u64 = snap.buckets.iter().sum();
    assert_eq!(sum_check, snap.count);
}

/// `EXPLAIN ANALYZE` on a multi-shard ORDER BY ... LIMIT: the tree lists
/// all five pipeline stages with nonzero timings and one child line per
/// shard execution unit.
#[test]
fn explain_analyze_renders_full_stage_tree() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 20);

    let rs = query(
        &mut s,
        "EXPLAIN ANALYZE SELECT * FROM t_user ORDER BY uid LIMIT 3",
    );
    let lines: Vec<String> = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("non-string tree line {other:?}"),
        })
        .collect();
    let tree = lines.join("\n");

    assert!(
        lines[0].starts_with("statement: SELECT * FROM t_user ORDER BY uid LIMIT 3"),
        "{tree}"
    );
    assert!(lines[0].contains("rows=3"), "{tree}");
    // All five stages, each with a nonzero (≥ 1µs) timing.
    for stage in ["parse", "route", "rewrite", "execute", "merge"] {
        let line = lines
            .iter()
            .find(|l| l.contains(stage))
            .unwrap_or_else(|| panic!("stage {stage} missing from:\n{tree}"));
        assert!(!line.contains(" 0us"), "zero timing for {stage}: {line}");
    }
    // Fan-out width and routing verdict annotated on the route line;
    // 4 shards over 2 sources, full scatter (ORDER BY, no aggregates).
    assert!(
        tree.contains("[units=4 route_strategy=scatter scan_mode=row]"),
        "{tree}"
    );
    // One child line per shard execution unit, under the execute stage.
    for shard in ["t_user_0", "t_user_1", "t_user_2", "t_user_3"] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(shard) && l.contains("rows=")),
            "missing unit line for {shard}:\n{tree}"
        );
    }
    // Merge line carries the strategy and final row count.
    let merge_line = lines.iter().find(|l| l.contains("merge")).unwrap();
    assert!(merge_line.contains("rows=3"), "{merge_line}");
    assert!(merge_line.contains("strategy="), "{merge_line}");
}

/// Only data statements can be analyzed; RAL/DistSQL is rejected with a
/// clear error instead of an empty trace.
#[test]
fn explain_analyze_rejects_non_data_statements() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    let err = s
        .execute_sql("EXPLAIN ANALYZE SHOW SHARDING TABLE RULES", &[])
        .unwrap_err();
    assert!(err.to_string().contains("no trace"), "{err}");
}

/// The slow-query log driven entirely through the RAL surface: threshold
/// filtering, ring-buffer eviction, and newest-first ordering.
#[test]
fn slow_query_log_via_ral() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);

    // Make every scan slow enough to trip a 1ms threshold deterministically.
    s.execute_sql(
        "INJECT FAULT ON ds_0 (OPERATION=scan_open, ACTION=latency, MILLIS=5, TRIGGER=every, EVERY=1)",
        &[],
    )
    .unwrap();
    s.execute_sql("SET VARIABLE slow_query_threshold_ms = 1", &[])
        .unwrap();
    s.execute_sql("SET VARIABLE slow_query_log_size = 2", &[])
        .unwrap();

    // Below-threshold statements are not captured: querying a variable is
    // not even a data statement, and the threshold gates capture anyway.
    for n in [30, 40, 50] {
        query(&mut s, &format!("SELECT * FROM t_user WHERE age < {n}"));
    }
    let rs = query(&mut s, "SHOW SLOW_QUERIES");
    assert_eq!(
        rs.columns,
        vec![
            "seq",
            "sql",
            "total_us",
            "stages",
            "units",
            "rows",
            "route_strategy",
            "scan_mode",
            "reshard_state",
            "trace_id"
        ]
    );
    // Capacity 2: the first slow query was evicted, newest first.
    assert_eq!(rs.rows.len(), 2, "{:?}", rs.rows);
    assert!(
        rs.rows[0][1] == Value::Str("SELECT * FROM t_user WHERE age < 50".into()),
        "{:?}",
        rs.rows
    );
    assert!(
        rs.rows[1][1] == Value::Str("SELECT * FROM t_user WHERE age < 40".into()),
        "{:?}",
        rs.rows
    );
    // Sequence numbers survive eviction (3 captured, oldest dropped).
    assert_eq!(rs.rows[0][0], Value::Int(3));
    // Stage breakdown and totals are populated.
    match (&rs.rows[0][2], &rs.rows[0][3]) {
        (Value::Int(total_us), Value::Str(stages)) => {
            assert!(*total_us >= 1000, "slow query under threshold: {total_us}");
            assert!(stages.contains("execute="), "{stages}");
        }
        other => panic!("{other:?}"),
    }

    // Raising the threshold above the fault latency stops capture.
    s.execute_sql("SET VARIABLE slow_query_threshold_ms = 60000", &[])
        .unwrap();
    query(&mut s, "SELECT * FROM t_user WHERE age < 99");
    assert_eq!(query(&mut s, "SHOW SLOW_QUERIES").rows.len(), 2);
}

/// `SET VARIABLE trace = on` keeps the last statement's trace on the
/// session without EXPLAIN ANALYZE.
#[test]
fn session_trace_variable() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);
    assert!(s.last_trace().is_none());
    s.execute_sql("SET VARIABLE trace = on", &[]).unwrap();
    let rs = query(&mut s, "SHOW VARIABLE trace");
    assert_eq!(rs.rows[0][1], Value::Str("on".into()));
    query(&mut s, "SELECT COUNT(*) FROM t_user");
    let trace = s.last_trace().expect("trace captured");
    assert_eq!(trace.sql, "SELECT COUNT(*) FROM t_user");
    assert!(trace.total_us >= 1);
    s.execute_sql("SET VARIABLE trace = off", &[]).unwrap();
}

/// `SHOW METRICS` and the legacy `SHOW SQL_PLAN_CACHE STATUS` read the same
/// counters — the registry is the single source of truth.
#[test]
fn show_metrics_agrees_with_plan_cache_status() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);
    for _ in 0..3 {
        query(&mut s, "SELECT COUNT(*) FROM t_user");
    }

    // Sample the registry through RAL, then read the cache's own status via
    // the API — running a second SQL statement would skew the parse counters
    // between the two snapshots.
    let metrics = query(&mut s, "SHOW METRICS LIKE 'plan_cache_%'");
    let status = runtime.plan_cache().status();
    for (level, cache) in [("parse", &status.parse), ("plan", &status.plan)] {
        assert_eq!(
            cache.hits as i64,
            metric_value(&metrics, &format!("plan_cache_{level}_hits_total")),
            "{level} hits disagree"
        );
        assert_eq!(
            cache.misses as i64,
            metric_value(&metrics, &format!("plan_cache_{level}_misses_total")),
            "{level} misses disagree"
        );
    }
    // The repeated COUNT(*) must have produced cache hits by now.
    assert!(metric_value(&metrics, "plan_cache_parse_hits_total") >= 2);
}

/// Metrics are on by default: the kernel stage histograms and storage
/// gauges populate and are filterable with LIKE; `SET metrics = off`
/// freezes the per-statement instruments.
#[test]
fn kernel_and_storage_metrics_populate() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    // Metrics are on by default; the setup DDL already counted.
    let baseline = runtime
        .metrics_registry()
        .samples(Some("kernel_statements_total"))[0]
        .value as i64;
    load_users(&mut s, 10);
    query(&mut s, "SELECT * FROM t_user ORDER BY uid LIMIT 5");
    // The rows-pulled gauge only counts streaming-cursor pulls; drive it.
    let streamed: Vec<_> = s
        .query_stream("SELECT uid FROM t_user ORDER BY uid", &[])
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(streamed.len(), 10);

    let rs = query(&mut s, "SHOW METRICS");
    // 10 INSERTs + 2 SELECTs, one of them streamed; RAL/SHOW statements are
    // not data statements.
    assert_eq!(metric_value(&rs, "kernel_statements_total"), baseline + 12);
    assert_eq!(metric_value(&rs, "kernel_statement_errors_total"), 0);
    assert!(metric_value(&rs, "kernel_statement_us_count") >= 12);
    for stage in ["parse", "route", "rewrite", "execute", "merge"] {
        assert!(
            metric_value(&rs, &format!("stage_{stage}_us_count")) >= 1,
            "stage {stage} never recorded"
        );
    }
    // Storage-level gauges observe the engines.
    assert!(metric_value(&rs, "storage_statements_total") >= 11);
    let pulled = metric_value(&rs, "storage_rows_pulled_total");
    assert!(pulled >= 10);
    // Every row pulled is at least one chain visited.
    assert!(metric_value(&rs, "storage_fetch_steps_total") >= pulled);
    // Fan-out histogram saw the 4-unit SELECT.
    assert!(metric_value(&rs, "route_fanout_units_count") >= 1);

    // LIKE filters the flattened names.
    let filtered = query(&mut s, "SHOW METRICS LIKE 'stage_%_us_count'");
    assert_eq!(filtered.rows.len(), 5, "{:?}", filtered.rows);

    // Disabling stops the per-statement instruments from advancing.
    s.execute_sql("SET VARIABLE metrics = off", &[]).unwrap();
    query(&mut s, "SELECT COUNT(*) FROM t_user");
    let after = query(&mut s, "SHOW METRICS LIKE 'kernel_statements_total'");
    assert_eq!(
        metric_value(&after, "kernel_statements_total"),
        baseline + 12
    );
}
