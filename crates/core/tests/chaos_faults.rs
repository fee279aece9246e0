//! Fault-injection integration tests: the chaos-ready kernel under scripted
//! storage faults — XA prepare-phase failures, mid-stream shard errors,
//! hung shards against statement deadlines, and transparent read retries.

#[path = "common/users.rs"]
mod users;

use shard_core::governor::BreakerState;
use shard_core::{
    ErrorClass, KernelError, Session, ShardingRuntime, StreamOutcome, TransactionType,
};
use shard_sql::Value;
use shard_storage::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
use std::sync::Arc;
use std::time::Duration;
use users::{load_users, sharded_runtime};

fn count_users(s: &mut Session) -> i64 {
    let rs = s
        .execute_sql("SELECT COUNT(*) FROM t_user", &[])
        .unwrap()
        .query();
    match rs.rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("unexpected count value {other:?}"),
    }
}

fn inject(runtime: &Arc<ShardingRuntime>, ds: &str, plan: FaultPlan) {
    runtime
        .datasource(ds)
        .unwrap()
        .engine()
        .fault_injector()
        .inject(plan);
}

/// XA satellite: a prepare-phase fault on one branch makes the TM roll back
/// the siblings that already voted OK — no partial commit, nothing left
/// in doubt for recovery to chew on.
#[test]
fn xa_prepare_fault_rolls_back_prepared_siblings() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);
    s.set_transaction_type(TransactionType::Xa).unwrap();

    s.begin().unwrap();
    // Touch both data sources so the global transaction has two branches.
    s.execute_sql(
        "INSERT INTO t_user (uid, name, age) VALUES (10, 'a', 1), (11, 'b', 2), (12, 'c', 3), (13, 'd', 4)",
        &[],
    )
    .unwrap();
    inject(
        &runtime,
        "ds_1",
        FaultPlan::new(
            FaultOp::Prepare,
            FaultKind::Error("prepare refused".into()),
            FaultTrigger::Once,
        ),
    );

    let err = s.commit().unwrap_err();
    assert!(matches!(err, KernelError::Transaction(_)), "{err}");
    assert!(err.to_string().contains("voted NO"), "{err}");

    // The sibling that prepared successfully was rolled back: no branch is
    // left in doubt and the insert is not visible anywhere.
    for ds in ["ds_0", "ds_1"] {
        let engine = runtime.datasource(ds).unwrap().engine().clone();
        assert!(engine.in_doubt().is_empty(), "{ds} left a branch in doubt");
    }
    assert_eq!(count_users(&mut s), 4, "no partial commit");

    // The session is usable again and a clean XA commit goes through.
    s.begin().unwrap();
    s.execute_sql(
        "INSERT INTO t_user (uid, name, age) VALUES (20, 'ok', 5)",
        &[],
    )
    .unwrap();
    s.commit().unwrap();
    assert_eq!(count_users(&mut s), 5);
}

/// Streaming satellite: a shard that fails mid-stream surfaces exactly one
/// structured (transient-classified) error and the stream terminates —
/// sibling cursors are cancelled rather than left producing rows.
#[test]
fn mid_stream_fault_cancels_siblings_with_one_error() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 64);

    // Every row pull on ds_1 fails once the stream is up.
    inject(
        &runtime,
        "ds_1",
        FaultPlan::new(
            FaultOp::RowPull,
            FaultKind::Error("disk gone".into()),
            FaultTrigger::EveryNth(1),
        ),
    );

    let outcome = s
        .execute_sql_stream("SELECT uid FROM t_user ORDER BY uid", &[])
        .unwrap();
    let mut rows = match outcome {
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
    assert_eq!(errors.len(), 1, "exactly one structured error: {errors:?}");
    let err = &errors[0];
    assert_eq!(err.class(), ErrorClass::Transient, "{err}");
    assert!(err.to_string().contains("row_pull fault"), "{err}");
    // ds_0 shards may have yielded some rows before the failure, but the
    // failure must terminate the stream well short of the full result.
    assert!(yielded < 64, "stream kept going after shard failure");
}

/// Deadline satellite: a shard that hangs (not errors) is abandoned when the
/// per-statement deadline elapses; the caller gets a structured timeout, not
/// a hang, and clearing faults releases the stuck storage thread.
#[test]
fn hung_shard_times_out_against_statement_deadline() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);
    s.execute_sql("SET VARIABLE statement_timeout_ms = 150", &[])
        .unwrap();

    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::ScanOpen,
            FaultKind::Hang {
                max: Duration::from_secs(10),
            },
            FaultTrigger::Once,
        ),
    );

    let start = std::time::Instant::now();
    let err = s
        .execute_sql("SELECT COUNT(*) FROM t_user", &[])
        .unwrap_err();
    assert!(matches!(err, KernelError::Timeout(_)), "{err}");
    assert_eq!(err.class(), ErrorClass::Timeout);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline did not abandon the hung shard"
    );

    // Release the hung storage thread and verify the runtime recovered.
    runtime
        .datasource("ds_0")
        .unwrap()
        .engine()
        .fault_injector()
        .clear();
    s.execute_sql("SET VARIABLE statement_timeout_ms = 0", &[])
        .unwrap();
    assert_eq!(count_users(&mut s), 8);
}

/// Run `sql` through a front door: JDBC's `execute_sql`, or the proxy's
/// `execute_sql_stream` with the rows drained as the proxy would.
fn through(door: &str, s: &mut Session, sql: &str) -> Result<usize, KernelError> {
    match door {
        "execute_sql" => s.execute_sql(sql, &[]).map(|r| r.query().len()),
        _ => match s.execute_sql_stream(sql, &[])? {
            StreamOutcome::Rows(rows) => rows.into_result_set().map(|rs| rs.len()),
            StreamOutcome::Update { .. } => panic!("expected rows from {sql}"),
        },
    }
}

/// A deadline is a deadline at every door: whichever door a SELECT came
/// through, wherever its shard hangs — opening the scan or pulling a row —
/// and whether it is a point read of the hung shard or a scatter that merges
/// in memory or as a stream, the caller gets a structured timeout when
/// `statement_timeout_ms` says so, not when the shard lets go.
#[test]
fn a_hung_shard_times_out_at_every_door() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);
    s.execute_sql("SET VARIABLE statement_timeout_ms = 150", &[])
        .unwrap();
    let ds_0 = runtime.datasource("ds_0").unwrap();
    for door in ["execute_sql", "execute_sql_stream"] {
        for op in [FaultOp::ScanOpen, FaultOp::RowPull] {
            for sql in [
                "SELECT name FROM t_user WHERE uid = 4",
                "SELECT COUNT(*) FROM t_user",
                "SELECT uid FROM t_user ORDER BY uid",
            ] {
                let cell = format!("{door} / {op} hang / {sql}");
                let max = Duration::from_secs(10);
                let plan = FaultPlan::new(op, FaultKind::Hang { max }, FaultTrigger::Once);
                inject(&runtime, "ds_0", plan);
                let start = std::time::Instant::now();
                let err = through(door, &mut s, sql).expect_err(&cell);
                let took = start.elapsed();
                assert!(matches!(err, KernelError::Timeout(_)), "{cell}: {err}");
                assert!(took < Duration::from_secs(1), "{cell}: {took:?}");

                // Let the hung shard go: whoever was abandoned inside it
                // returns the unit's connection, and the session (its
                // timeout still armed) answers the next statement.
                ds_0.engine().fault_injector().clear();
                let give_up = start + Duration::from_secs(5);
                while ds_0.pool().available() < ds_0.pool().capacity() {
                    assert!(std::time::Instant::now() < give_up, "{cell}: permit lost");
                    std::thread::yield_now();
                }
                assert_eq!(count_users(&mut s), 8, "{cell}");
            }
        }
    }
}

/// A shard that opens its scans but cannot deliver a row is fenced off
/// whichever door the traffic comes through: a stream's failed pull counts
/// against the source's breaker as a collected unit's does, and — as there —
/// only if it says something about the source's health.
#[test]
fn failed_pulls_open_the_breaker_through_both_doors() {
    for door in ["execute_sql", "execute_sql_stream"] {
        let runtime = sharded_runtime();
        let mut s = runtime.session();
        load_users(&mut s, 16);
        let breaker = |ds: &str| {
            let ds = runtime.datasource(ds).unwrap();
            (ds.breaker().state(), ds.breaker().consecutive_failures())
        };

        // Semantic failures — a projection that fails on the first row
        // pulled, then a shard table dropped behind the kernel's back —
        // leave every breaker alone.
        for sql in [
            "SELECT uid, ABS(name) FROM t_user ORDER BY uid",
            "SELECT uid FROM t_user ORDER BY uid",
        ] {
            let err = through(door, &mut s, sql).expect_err(sql);
            assert!(!err.is_infrastructure(), "{door}: {err}");
            assert_eq!(breaker("ds_0"), (BreakerState::Closed, 0), "{door}: {err}");
            assert_eq!(breaker("ds_1"), (BreakerState::Closed, 0), "{door}: {err}");
            let ds_0 = runtime.datasource("ds_0").unwrap();
            let shard = ds_0.engine().table_names().into_iter().next();
            let drop = format!("DROP TABLE {}", shard.expect("a shard table on ds_0"));
            ds_0.engine().execute_sql(&drop, &[], None).unwrap();
        }

        // Every pull on ds_1 fails for good.
        let runtime = sharded_runtime();
        let mut s = runtime.session();
        load_users(&mut s, 16);
        inject(
            &runtime,
            "ds_1",
            FaultPlan::new(
                FaultOp::RowPull,
                FaultKind::Error("disk gone".into()),
                FaultTrigger::EveryNth(1),
            ),
        );
        for _ in 0..12 {
            let err = through(door, &mut s, "SELECT uid FROM t_user ORDER BY uid").unwrap_err();
            assert_eq!(err.class(), ErrorClass::Transient, "{door}: {err}");
        }
        let ds_1 = runtime.datasource("ds_1").unwrap();
        assert_eq!(ds_1.breaker().state(), BreakerState::Open, "{door}");
        assert!(ds_1.breaker().transitions() >= 1, "{door}");
        let ds_0 = runtime.datasource("ds_0").unwrap();
        assert_eq!(ds_0.breaker().state(), BreakerState::Closed, "{door}");
    }
}

/// Retry satellite: a transient read failure is retried transparently (the
/// statement is re-planned and re-routed), while writes are never silently
/// retried — the first injected failure surfaces to the caller.
#[test]
fn transient_read_retries_but_writes_never_do() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);

    // One transient scan failure: the read-only retry loop absorbs it.
    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::ScanOpen,
            FaultKind::Error("transient blip".into()),
            FaultTrigger::Once,
        ),
    );
    assert_eq!(count_users(&mut s), 8, "read retry should absorb the blip");

    let retries = || {
        runtime
            .metrics_registry()
            .samples(Some("read_retries_total"))[0]
            .value
    };
    // A collected statement pulls its rows through the same fault point a
    // stream does; there the failed pull fails the statement, so the retry
    // loop absorbs it as well.
    let retried = retries();
    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::RowPull,
            FaultKind::Error("transient blip".into()),
            FaultTrigger::Once,
        ),
    );
    assert_eq!(count_users(&mut s), 8, "read retry should absorb the blip");
    assert_eq!(retries() - retried, 1);

    // The streaming door (the proxy's) absorbs a failure at cursor open
    // under the same rule — whether the one unit's cursor opens inline or a
    // scatter's open on pool workers; once rows flow a failure surfaces
    // mid-stream instead (`mid_stream_fault_cancels_siblings_with_one_error`).
    let retried = retries();
    for (sql, rows) in [
        ("SELECT name FROM t_user WHERE uid = 4", 1),
        ("SELECT uid FROM t_user ORDER BY uid", 8),
    ] {
        inject(
            &runtime,
            "ds_0",
            FaultPlan::new(
                FaultOp::ScanOpen,
                FaultKind::Error("transient blip".into()),
                FaultTrigger::Once,
            ),
        );
        let stream = s.query_stream(sql, &[]).unwrap();
        assert!(stream.is_streaming(), "{sql}");
        assert_eq!(stream.into_result_set().unwrap().len(), rows, "{sql}");
    }
    assert_eq!(retries() - retried, 2);

    // The same style of fault on the write path must surface immediately.
    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::Write,
            FaultKind::Error("write refused".into()),
            FaultTrigger::Once,
        ),
    );
    let err = s
        .execute_sql(
            "INSERT INTO t_user (uid, name, age) VALUES (100, 'w', 1)",
            &[],
        )
        .unwrap_err();
    assert!(err.to_string().contains("write fault"), "{err}");
    // Second attempt (fault disarmed) succeeds: nothing was double-applied.
    s.execute_sql(
        "INSERT INTO t_user (uid, name, age) VALUES (100, 'w', 1)",
        &[],
    )
    .unwrap();
    assert_eq!(count_users(&mut s), 9);
}

/// In a transaction even reads are not retried: retry would re-route across
/// branch boundaries and widen the transaction's footprint silently.
#[test]
fn reads_inside_transactions_are_not_retried() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);

    s.begin().unwrap();
    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::ScanOpen,
            FaultKind::Error("blip".into()),
            FaultTrigger::Once,
        ),
    );
    let err = s
        .execute_sql("SELECT COUNT(*) FROM t_user", &[])
        .unwrap_err();
    assert!(err.to_string().contains("scan_open fault"), "{err}");
    s.rollback().unwrap();
}

/// Observability satellite: the retry and breaker counters in the central
/// metrics registry match the scripted fault and transition counts exactly —
/// chaos runs can assert their blast radius from `SHOW METRICS` alone.
#[test]
fn chaos_counters_match_injected_fault_counts() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 8);
    let sample = |name: &str| runtime.metrics_registry().samples(Some(name))[0].value;

    // Three separate one-shot transient scan faults: each read absorbs its
    // blip with exactly one retry, so the counter advances by three.
    let retries_before = sample("read_retries_total");
    for _ in 0..3 {
        inject(
            &runtime,
            "ds_0",
            FaultPlan::new(
                FaultOp::ScanOpen,
                FaultKind::Error("transient blip".into()),
                FaultTrigger::Once,
            ),
        );
        assert_eq!(count_users(&mut s), 8);
    }
    assert_eq!(sample("read_retries_total") - retries_before, 3);

    // Scripted breaker transitions: trip + reset on one source is exactly
    // two state changes, and the registry gauge sums them live.
    let transitions_before = sample("breaker_transitions_total");
    let ds = runtime.datasource("ds_0").unwrap();
    ds.breaker().trip();
    ds.breaker().reset();
    assert_eq!(sample("breaker_transitions_total") - transitions_before, 2);
}
