//! Online resharding under fire (seeded, watchdogged).
//!
//! Four scenarios drive the phased coordinator through its whole failure
//! matrix, all through the DistSQL surface (`RESHARD TABLE … THROTTLE n`,
//! `SHOW RESHARD STATUS`, `CANCEL RESHARD`, `SET reshard_fence_timeout_ms`):
//!
//! 1. 2→8 shards under concurrent reads and writes with a replica lost and
//!    latency jitter mid-backfill — zero visible read errors, exact
//!    COUNT/SUM accounting after cutover, every state transition recorded,
//!    fence bounded.
//! 2. A write hung across the fence deadline — bounded fence timeout, clean
//!    rollback, old rule keeps serving.
//! 3. A write fault on a target source mid-backfill — rollback with no
//!    orphan tables, and the retry claims the next `_gN` generation.
//! 4. `CANCEL RESHARD` mid-backfill — cancelled cleanly, no orphans.

use shardingsphere_rs::core::feature::ReadWriteSplitRule;
use shardingsphere_rs::core::{Session, ShardingRuntime};
use shardingsphere_rs::sql::Value;
use shardingsphere_rs::storage::StorageEngine;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for every probabilistic fault: the runs are reproducible.
const CHAOS_SEED: u64 = 42;

/// Run a scenario under a watchdog so a wedged thread fails the test
/// instead of hanging CI.
fn watchdogged(scenario: fn()) {
    let handle = std::thread::spawn(scenario);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "reshard scenario hung (watchdog fired after 120s)"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Old layout: `t` sharded 2 ways on `ds_a` (a read-write-splitting group
/// with two seeded replicas). New layouts target `ds_b`/`ds_c`.
fn build_cluster(seed_rows: i64) -> Arc<ShardingRuntime> {
    let prim = StorageEngine::new("ds_a");
    let rep0 = StorageEngine::new("rep_a0");
    let rep1 = StorageEngine::new("rep_a1");
    let runtime = ShardingRuntime::builder()
        .datasource("ds_a", prim.clone())
        .build();
    runtime.add_datasource("rep_a0", rep0.clone(), 8);
    runtime.add_datasource("rep_a1", rep1.clone(), 8);
    runtime.add_rw_split(ReadWriteSplitRule::new(
        "ds_a",
        "ds_a",
        vec!["rep_a0".into(), "rep_a1".into()],
    ));
    for name in ["ds_a", "rep_a0", "rep_a1"] {
        runtime
            .datasource(name)
            .unwrap()
            .breaker()
            .configure(3, Duration::from_millis(100));
    }

    let mut s = runtime.session();
    s.execute_sql("ADD RESOURCE ds_b (HOST=node_b)", &[])
        .unwrap();
    s.execute_sql("ADD RESOURCE ds_c (HOST=node_c)", &[])
        .unwrap();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t (RESOURCES(ds_a), SHARDING_COLUMN=id, \
         TYPE=mod, PROPERTIES(\"sharding-count\"=2))",
        &[],
    )
    .unwrap();
    s.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)", &[])
        .unwrap();
    for id in 0..seed_rows {
        s.execute_sql(
            "INSERT INTO t (id, v) VALUES (?, ?)",
            &[Value::Int(id), Value::Int(id * 3)],
        )
        .unwrap();
    }
    // "Replication": the replicas carry the same physical shards and rows.
    for engine in [&rep0, &rep1] {
        for shard in 0..2 {
            engine
                .execute_sql(
                    &format!("CREATE TABLE t_{shard} (id BIGINT PRIMARY KEY, v BIGINT)"),
                    &[],
                    None,
                )
                .unwrap();
        }
        for id in 0..seed_rows {
            engine
                .execute_sql(
                    &format!("INSERT INTO t_{} VALUES ({id}, {})", id % 2, id * 3),
                    &[],
                    None,
                )
                .unwrap();
        }
    }
    runtime
}

/// Phase string of `t`'s reshard job through `SHOW RESHARD STATUS`
/// (`None` before any job registered).
fn reshard_phase(s: &mut Session) -> Option<String> {
    let rs = s.execute_sql("SHOW RESHARD STATUS", &[]).unwrap().query();
    rs.rows
        .iter()
        .find(|r| r[0] == Value::Str("t".into()))
        .map(|r| r[1].to_string())
}

/// Poll `SHOW RESHARD STATUS` until the job reports one of `phases`.
fn wait_for_phase(s: &mut Session, phases: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(p) = reshard_phase(s) {
            if phases.contains(&p.as_str()) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "job never reached any of {phases:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Physical tables of generation `_gN` left anywhere on the cluster.
fn generation_tables(runtime: &Arc<ShardingRuntime>, gen: &str) -> Vec<String> {
    let mut found = Vec::new();
    for name in ["ds_a", "ds_b", "ds_c"] {
        let ds = runtime.datasource(name).unwrap();
        for t in ds.engine().table_names() {
            if t.ends_with(gen) {
                found.push(format!("{name}.{t}"));
            }
        }
    }
    found.sort();
    found
}

/// COUNT(*) and SUM(v) over the whole logical table.
fn count_sum(s: &mut Session) -> (i64, i64) {
    let rs = s
        .execute_sql("SELECT COUNT(*), SUM(v) FROM t", &[])
        .unwrap()
        .query();
    let count = match rs.rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("bad COUNT {other:?}"),
    };
    let sum = match rs.rows[0][1] {
        Value::Int(n) => n,
        ref other => panic!("bad SUM {other:?}"),
    };
    (count, sum)
}

// ---------------------------------------------------------------------------
// Scenario 1: success under fire.
// ---------------------------------------------------------------------------

#[test]
fn reshard_2_to_8_under_reads_writes_and_replica_loss() {
    watchdogged(scenario_under_fire);
}

fn scenario_under_fire() {
    const SEED_ROWS: i64 = 600;
    let runtime = build_cluster(SEED_ROWS);
    let mut s = runtime.session();

    // Background noise for the whole run: seeded probabilistic row-pull
    // latency on one replica — jitter, never failure, reproducible.
    s.execute_sql(
        &format!(
            "INJECT FAULT ON rep_a1 (OPERATION=row_pull, ACTION=latency, MILLIS=1, \
             TRIGGER=probability, PROBABILITY=0.3, SEED={CHAOS_SEED})"
        ),
        &[],
    )
    .unwrap();

    let done = Arc::new(AtomicBool::new(false));

    // Reader: full-range count plus point reads over the seed rows, from
    // before the reshard starts until after it finishes. Any error is an
    // application-visible read failure — the scenario allows none.
    let reader = {
        let rt = Arc::clone(&runtime);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut s = rt.session();
            let mut round = 0i64;
            while !done.load(Ordering::SeqCst) {
                let rs = s
                    .execute_sql(
                        &format!("SELECT COUNT(*) FROM t WHERE id < {SEED_ROWS}"),
                        &[],
                    )
                    .unwrap_or_else(|e| panic!("visible read failure in round {round}: {e}"))
                    .query();
                assert_eq!(rs.rows[0][0], Value::Int(SEED_ROWS), "round {round}");
                let id = (round * 7) % SEED_ROWS;
                let rs = s
                    .execute_sql("SELECT v FROM t WHERE id = ?", &[Value::Int(id)])
                    .unwrap_or_else(|e| panic!("visible point-read failure in round {round}: {e}"))
                    .query();
                assert_eq!(rs.rows[0][0], Value::Int(id * 3), "round {round}");
                round += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            round
        })
    };

    // Writer: inserts at ids ≥ 1000 (outside the reader's range) for the
    // whole run, each row then set to its final value by an UPDATE — a
    // shape whose plan is warm long before catch-up, so the dual-write
    // mirror of a replayed plan is what keeps the new layout in step. Every
    // accepted write must survive the cutover exactly once.
    let written = Arc::new(AtomicU64::new(0));
    let writer = {
        let rt = Arc::clone(&runtime);
        let done = Arc::clone(&done);
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            let mut s = rt.session();
            let mut i = 0i64;
            while !done.load(Ordering::SeqCst) {
                let id = 1000 + i;
                let statements = [
                    (
                        "INSERT INTO t (id, v) VALUES (?, ?)",
                        [Value::Int(id), Value::Int(0)],
                    ),
                    (
                        "UPDATE t SET v = ? WHERE id = ?",
                        [Value::Int(id), Value::Int(id)],
                    ),
                ];
                for (sql, params) in statements {
                    let affected = s
                        .execute_sql(sql, &params)
                        .unwrap_or_else(|e| panic!("write {id} failed during reshard: {e}"))
                        .affected();
                    assert_eq!(affected, 1, "{sql} {id}");
                }
                written.fetch_add(1, Ordering::SeqCst);
                i += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            i
        })
    };

    // The coordinator, throttled so backfill overlaps plenty of traffic.
    let reshard = {
        let rt = Arc::clone(&runtime);
        std::thread::spawn(move || {
            let mut s = rt.session();
            s.execute_sql(
                "RESHARD TABLE t (RESOURCES(ds_b, ds_c), SHARDING_COLUMN=id, \
                 TYPE=mod, PROPERTIES(\"sharding-count\"=8)) THROTTLE 400",
                &[],
            )
            .map(|r| r.query())
        })
    };

    // Once backfill is live, kill replica rep_a0 outright: reads must
    // reroute transparently while the migration keeps running.
    wait_for_phase(&mut s, &["backfill", "catch_up"]);
    for op in ["ping", "scan_open"] {
        s.execute_sql(
            &format!(
                "INJECT FAULT ON rep_a0 (OPERATION={op}, ACTION=error, \
                 MESSAGE=\"replica down\", TRIGGER=every, EVERY=1)"
            ),
            &[],
        )
        .unwrap();
    }

    let report = reshard.join().unwrap().expect("reshard must succeed");
    done.store(true, Ordering::SeqCst);
    let rounds = reader.join().unwrap();
    writer.join().unwrap();
    assert!(rounds > 0, "the reader never ran");

    // Exact accounting: seed rows plus every accepted write, once each.
    let written = written.load(Ordering::SeqCst) as i64;
    assert!(written > 0, "the writer never ran");
    let (count, sum) = count_sum(&mut s);
    assert_eq!(count, SEED_ROWS + written);
    let seed_sum: i64 = (0..SEED_ROWS).map(|id| id * 3).sum();
    let write_sum: i64 = (1000..1000 + written).sum();
    assert_eq!(sum, seed_sum + write_sum);

    // The report and status agree; the fence stayed bounded (default
    // deadline 1000ms, drain + verify headroom well under a second more).
    assert_eq!(report.rows[0][0], Value::Str("t".into()));
    assert_eq!(report.rows[0][3], Value::Int(2)); // old_nodes
    assert_eq!(report.rows[0][4], Value::Int(8)); // new_nodes
    let fence_us = match report.rows[0][5] {
        Value::Int(us) => us,
        ref other => panic!("bad fence_us {other:?}"),
    };
    assert!(
        (1..2_000_000).contains(&fence_us),
        "fence window not bounded: {fence_us}us"
    );
    assert_eq!(report.rows[0][6], Value::Str(String::new()), "warnings");

    // Every transition, in order (the leading fence is the snapshot
    // barrier that makes the backfill cursor exact).
    let rs = s.execute_sql("SHOW RESHARD STATUS", &[]).unwrap().query();
    assert_eq!(rs.rows[0][1], Value::Str("done".into()));
    assert_eq!(
        rs.rows[0][7],
        Value::Str("idle -> fenced -> backfill -> catch_up -> fenced -> cut_over -> done".into())
    );
    assert_eq!(rs.rows[0][8], Value::Null, "no error on success");

    // New generation present, old layout gone.
    assert_eq!(generation_tables(&runtime, "_g1").len(), 8);
    for old in ["t_0", "t_1"] {
        assert!(
            !runtime
                .datasource("ds_a")
                .unwrap()
                .engine()
                .table_names()
                .contains(&old.to_string()),
            "{old} must be dropped from ds_a"
        );
    }

    // The new instruments saw the migration.
    let rs = s
        .execute_sql("SHOW METRICS LIKE 'reshard%'", &[])
        .unwrap()
        .query();
    let metric = |name: &str| -> i64 {
        rs.rows
            .iter()
            .find(|r| r[0] == Value::Str(name.into()))
            .map(|r| match r[1] {
                Value::Int(v) => v,
                ref other => panic!("bad metric {other:?}"),
            })
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert!(metric("reshard_rows_copied_total") >= SEED_ROWS);
    assert_eq!(metric("reshard_cleanup_failures_total"), 0);
}

// ---------------------------------------------------------------------------
// Scenario 2: fence deadline rollback.
// ---------------------------------------------------------------------------

#[test]
fn fence_timeout_rolls_back_and_keeps_old_rule_serving() {
    watchdogged(scenario_fence_timeout);
}

fn scenario_fence_timeout() {
    const SEED_ROWS: i64 = 40;
    let runtime = build_cluster(SEED_ROWS);
    let mut s = runtime.session();

    s.execute_sql("SET VARIABLE reshard_fence_timeout_ms = 300", &[])
        .unwrap();
    let rs = s
        .execute_sql("SHOW VARIABLE reshard_fence_timeout_ms", &[])
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][1], Value::Str("300".into()));

    // One write hangs on the primary well past the fence deadline; it is in
    // flight (holding the DML guard) when the coordinator tries to drain.
    s.execute_sql(
        "INJECT FAULT ON ds_a (OPERATION=write, ACTION=hang, MILLIS=1500, TRIGGER=once)",
        &[],
    )
    .unwrap();
    let hung_writer = {
        let rt = Arc::clone(&runtime);
        std::thread::spawn(move || {
            let mut s = rt.session();
            s.execute_sql("INSERT INTO t (id, v) VALUES (5000, 5000)", &[])
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    let err = s
        .execute_sql(
            "RESHARD TABLE t (RESOURCES(ds_b, ds_c), SHARDING_COLUMN=id, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=8))",
            &[],
        )
        .expect_err("the fence deadline must fail the reshard");
    assert!(
        err.to_string().contains("timed out"),
        "fence-deadline error: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "fence not bounded: {:?}",
        started.elapsed()
    );

    // The hang cap releases as an injected error: the hung write fails (it
    // never lands), but it held the DML guard across the fence deadline.
    let hung = hung_writer
        .join()
        .unwrap()
        .expect_err("the hung write errors when the hang cap releases");
    assert!(hung.to_string().contains("hang"), "{hung}");
    s.execute_sql("CLEAR FAULTS", &[]).unwrap();

    // Rollback was clean: no new-generation leftovers, the old rule keeps
    // serving exactly the seed rows.
    assert_eq!(generation_tables(&runtime, "_g1"), Vec::<String>::new());
    assert_eq!(reshard_phase(&mut s).as_deref(), Some("failed"));
    let (count, sum) = count_sum(&mut s);
    assert_eq!(count, SEED_ROWS);
    assert_eq!(sum, (0..SEED_ROWS).map(|id| id * 3).sum::<i64>());
    s.execute_sql("INSERT INTO t (id, v) VALUES (5001, 1)", &[])
        .expect("the table stays writable after rollback");
}

// ---------------------------------------------------------------------------
// Scenario 3: write fault mid-backfill → rollback, then a _g2 retry.
// ---------------------------------------------------------------------------

#[test]
fn write_fault_rolls_back_and_retry_claims_next_generation() {
    watchdogged(scenario_write_fault);
}

fn scenario_write_fault() {
    const SEED_ROWS: i64 = 80;
    let runtime = build_cluster(SEED_ROWS);
    let mut s = runtime.session();

    // The first backfill insert against ds_b fails (table creation is not a
    // Write op, so the new layout's DDL still succeeds).
    s.execute_sql(
        "INJECT FAULT ON ds_b (OPERATION=write, ACTION=error, \
         MESSAGE=\"target disk full\", TRIGGER=once)",
        &[],
    )
    .unwrap();
    let err = s
        .execute_sql(
            "RESHARD TABLE t (RESOURCES(ds_b, ds_c), SHARDING_COLUMN=id, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=8))",
            &[],
        )
        .expect_err("the backfill write fault must fail the reshard");
    assert!(
        err.to_string().contains("target disk full") || err.to_string().contains("backfill"),
        "unexpected error: {err}"
    );

    // Rollback kept the old rule serving identical results, no orphans.
    assert_eq!(generation_tables(&runtime, "_g1"), Vec::<String>::new());
    assert_eq!(reshard_phase(&mut s).as_deref(), Some("failed"));
    let (count, sum) = count_sum(&mut s);
    assert_eq!(count, SEED_ROWS);
    assert_eq!(sum, (0..SEED_ROWS).map(|id| id * 3).sum::<i64>());

    // The retry must not collide with the failed attempt's generation.
    s.execute_sql("CLEAR FAULTS", &[]).unwrap();
    let report = s
        .execute_sql(
            "RESHARD TABLE t (RESOURCES(ds_b, ds_c), SHARDING_COLUMN=id, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=8))",
            &[],
        )
        .expect("retry after rollback must succeed")
        .query();
    assert_eq!(report.rows[0][1], Value::Int(SEED_ROWS));
    assert_eq!(generation_tables(&runtime, "_g1"), Vec::<String>::new());
    assert_eq!(generation_tables(&runtime, "_g2").len(), 8);
    let (count, sum) = count_sum(&mut s);
    assert_eq!(count, SEED_ROWS);
    assert_eq!(sum, (0..SEED_ROWS).map(|id| id * 3).sum::<i64>());
}

// ---------------------------------------------------------------------------
// Scenario 4: CANCEL RESHARD mid-backfill.
// ---------------------------------------------------------------------------

#[test]
fn cancel_mid_backfill_leaves_no_orphans() {
    watchdogged(scenario_cancel);
}

fn scenario_cancel() {
    const SEED_ROWS: i64 = 400;
    let runtime = build_cluster(SEED_ROWS);
    let mut s = runtime.session();

    let reshard = {
        let rt = Arc::clone(&runtime);
        std::thread::spawn(move || {
            let mut s = rt.session();
            // Slow enough that the cancel lands mid-backfill.
            s.execute_sql(
                "RESHARD TABLE t (RESOURCES(ds_b, ds_c), SHARDING_COLUMN=id, \
                 TYPE=mod, PROPERTIES(\"sharding-count\"=8)) THROTTLE 200",
                &[],
            )
        })
    };
    wait_for_phase(&mut s, &["backfill"]);

    // EXPLAIN-visible migration state while the job runs.
    let rs = s
        .execute_sql("EXPLAIN ANALYZE SELECT COUNT(*) FROM t", &[])
        .unwrap()
        .query();
    assert!(
        rs.rows
            .iter()
            .any(|r| r[0].to_string().contains("reshard_state=")),
        "EXPLAIN ANALYZE must tag the migration state: {rs:?}"
    );

    let affected = s.execute_sql("CANCEL RESHARD TABLE t", &[]).unwrap();
    assert_eq!(affected.affected(), 1, "one live job flagged");

    let err = reshard
        .join()
        .unwrap()
        .expect_err("a cancelled reshard must not report success");
    assert!(
        err.to_string().contains("cancel"),
        "unexpected error: {err}"
    );

    // No orphans, job terminal, old rule untouched and fully serving.
    assert_eq!(generation_tables(&runtime, "_g1"), Vec::<String>::new());
    assert_eq!(reshard_phase(&mut s).as_deref(), Some("cancelled"));
    let (count, sum) = count_sum(&mut s);
    assert_eq!(count, SEED_ROWS);
    assert_eq!(sum, (0..SEED_ROWS).map(|id| id * 3).sum::<i64>());

    // With nothing live, a repeated cancel is a no-op.
    let affected = s.execute_sql("CANCEL RESHARD", &[]).unwrap();
    assert_eq!(affected.affected(), 0);
}
