//! MVCC snapshot-isolation integration tests (seeded, watchdogged).
//!
//! The read path never takes locks: every statement resolves row visibility
//! against a snapshot of the commit clock taken at statement start, while
//! writers keep strict two-phase row locks, undo logs and the WAL. These
//! scenarios pin the user-visible contract:
//!
//! 1. A streaming scan opened before a commit never sees that commit, even
//!    when the rows are deleted or rewritten mid-scan.
//! 2. A transaction reads its own uncommitted writes; nobody else does.
//! 3. Concurrent readers under sustained write load never block on a lock
//!    (`lock_waits_read` stays zero), never error, and always observe
//!    transaction-atomic state (a balanced-transfer SUM invariant).
//! 4. On a quiescent sharded cluster whose version chains hold more than
//!    one version, results equal those of one unsharded engine.
//! 5. WAL recovery discards uncommitted versions: committed data survives,
//!    crash-active transactions vanish, prepared ones stay in-doubt.
//! 6. Vacuum reclaims versions no live snapshot can reach and reports them
//!    through the `mvcc_gc_reclaimed_total` / `mvcc_versions_live` gauges.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::Oracle;
use shardingsphere_rs::core::ShardingRuntime;
use shardingsphere_rs::sql::Value;
use shardingsphere_rs::storage::{LatencyModel, SharedLog, StorageEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run a scenario under a watchdog so a wedged thread fails the test
/// instead of hanging CI.
fn watchdogged(scenario: fn()) {
    let handle = std::thread::spawn(scenario);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "mvcc scenario hung (watchdog fired after 120s)"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Two-shard runtime with a sharded table and `n` seeded rows, mirrored into
/// the unsharded `oracle`.
fn sharded_runtime(n: i64, oracle: &Oracle) -> Arc<ShardingRuntime> {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t_acct (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=aid, \
         TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        &[],
    )
    .unwrap();
    oracle.write_both(
        &mut s,
        "CREATE TABLE t_acct (aid BIGINT PRIMARY KEY, owner VARCHAR(16), balance BIGINT)",
        &[],
    );
    for aid in 0..n {
        oracle.write_both(
            &mut s,
            "INSERT INTO t_acct (aid, owner, balance) VALUES (?, ?, ?)",
            &[
                Value::Int(aid),
                Value::Str(format!("u{}", aid % 7)),
                Value::Int(1000),
            ],
        );
    }
    runtime
}

#[test]
fn snapshot_scan_never_sees_later_commits() {
    watchdogged(|| {
        let e = StorageEngine::new("ds");
        e.execute_sql(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)",
            &[],
            None,
        )
        .unwrap();
        for i in 0..100 {
            e.execute_sql(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::Int(1)],
                None,
            )
            .unwrap();
        }
        let stmt = shardingsphere_rs::sql::parse_statement("SELECT id, v FROM t ORDER BY id");
        let mut cursor = e
            .open_cursor(Arc::new(stmt.unwrap()), [].into(), None)
            .unwrap();
        assert!(cursor.is_streaming());
        // Pull a few rows, then rewrite the table under the open cursor.
        for i in 0..10 {
            assert_eq!(
                cursor.next_row().unwrap().unwrap(),
                vec![Value::Int(i), Value::Int(1)]
            );
        }
        e.execute_sql("UPDATE t SET v = 2 WHERE id >= 50", &[], None)
            .unwrap();
        e.execute_sql("DELETE FROM t WHERE id < 30", &[], None)
            .unwrap();
        // The rest of the scan still reads the as-of-open images: deleted
        // rows present, updated rows at their old value.
        let mut seen = 10;
        while let Some(row) = cursor.next_row().unwrap() {
            assert_eq!(row, vec![Value::Int(seen), Value::Int(1)]);
            seen += 1;
        }
        assert_eq!(seen, 100, "snapshot scan lost rows");
        // A fresh statement sees the new state.
        let rs = e
            .execute_sql("SELECT COUNT(*) FROM t", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows, vec![vec![Value::Int(70)]]);
    });
}

#[test]
fn transactions_read_their_own_writes() {
    watchdogged(|| {
        let e = StorageEngine::new("ds");
        e.execute_sql(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)",
            &[],
            None,
        )
        .unwrap();
        e.execute_sql("INSERT INTO t VALUES (1, 10)", &[], None)
            .unwrap();
        let txn = e.begin();
        e.execute_sql("UPDATE t SET v = 99 WHERE id = 1", &[], Some(txn))
            .unwrap();
        e.execute_sql("INSERT INTO t VALUES (2, 20)", &[], Some(txn))
            .unwrap();
        // Inside the transaction: both writes visible.
        let rs = e
            .execute_sql("SELECT id, v FROM t ORDER BY id", &[], Some(txn))
            .unwrap()
            .query();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(99)],
                vec![Value::Int(2), Value::Int(20)]
            ]
        );
        // Outside: neither is, and the read doesn't block on the row locks.
        let rs = e
            .execute_sql("SELECT id, v FROM t ORDER BY id", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(10)]]);
        assert_eq!(e.lock_waits_read(), 0);
        e.commit(txn).unwrap();
        let rs = e
            .execute_sql("SELECT COUNT(*) FROM t", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    });
}

/// Readers under sustained transactional write load: every SELECT SUM must
/// observe a balanced total (writers move money between their two accounts
/// inside a transaction), no read may error, and no read may ever block on
/// a row lock.
#[test]
fn readers_never_block_and_see_atomic_commits() {
    watchdogged(|| {
        const WRITERS: usize = 4;
        const ACCOUNTS: i64 = 2 * WRITERS as i64;
        const TOTAL: i64 = ACCOUNTS * 1000;
        const TRANSFERS: i64 = 2000;
        let e = StorageEngine::new("ds");
        e.execute_sql(
            "CREATE TABLE acct (aid BIGINT PRIMARY KEY, balance BIGINT)",
            &[],
            None,
        )
        .unwrap();
        for aid in 0..ACCOUNTS {
            e.execute_sql(
                "INSERT INTO acct VALUES (?, ?)",
                &[Value::Int(aid), Value::Int(1000)],
                None,
            )
            .unwrap();
        }
        let writers_done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                // Each writer owns a disjoint account pair: no write-write
                // conflicts, so any lock wait would be a reader's fault.
                let (a, b) = (2 * w as i64, 2 * w as i64 + 1);
                for i in 0..TRANSFERS {
                    let amt = 1 + (i % 7);
                    let txn = e.begin();
                    e.execute_sql(
                        "UPDATE acct SET balance = balance - ? WHERE aid = ?",
                        &[Value::Int(amt), Value::Int(a)],
                        Some(txn),
                    )
                    .unwrap();
                    e.execute_sql(
                        "UPDATE acct SET balance = balance + ? WHERE aid = ?",
                        &[Value::Int(amt), Value::Int(b)],
                        Some(txn),
                    )
                    .unwrap();
                    e.commit(txn).unwrap();
                }
            }));
        }
        // Readers run for as long as the writers do: fixed work, no timer.
        let mut readers = Vec::new();
        for _ in 0..3 {
            let e = Arc::clone(&e);
            let writers_done = Arc::clone(&writers_done);
            readers.push(std::thread::spawn(move || {
                let mut reads = 0u64;
                while reads == 0 || !writers_done.load(Ordering::Acquire) {
                    let rs = e
                        .execute_sql("SELECT SUM(balance) FROM acct", &[], None)
                        .expect("snapshot read must never fail")
                        .query();
                    assert_eq!(
                        rs.rows,
                        vec![vec![Value::Int(TOTAL)]],
                        "reader observed a torn (non-atomic) commit"
                    );
                    reads += 1;
                }
                reads
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
        let mut total_reads = 0;
        for r in readers {
            total_reads += r.join().unwrap();
        }
        assert!(total_reads > 0, "readers never ran");
        assert_eq!(
            e.lock_waits_read(),
            0,
            "plain reads must not take locks under MVCC"
        );
    });
}

/// Snapshot reads on a quiescent sharded cluster equal one unsharded
/// engine's, after updates and deletes left chains more than one version
/// deep and dead rows behind.
#[test]
fn sharded_snapshot_reads_match_the_unsharded_oracle() {
    watchdogged(|| {
        let oracle = Oracle::new();
        let runtime = sharded_runtime(200, &oracle);
        let mut s = runtime.session();
        for sql in [
            "UPDATE t_acct SET balance = balance + 5 WHERE aid < 90",
            "DELETE FROM t_acct WHERE aid >= 180",
        ] {
            oracle.write_both(&mut s, sql, &[]);
        }
        for sql in [
            "SELECT aid, owner, balance FROM t_acct ORDER BY aid",
            "SELECT aid, balance FROM t_acct WHERE owner = 'u3'",
            "SELECT COUNT(*), SUM(balance) FROM t_acct",
            "SELECT owner, COUNT(*), SUM(balance) FROM t_acct GROUP BY owner ORDER BY owner",
            "SELECT balance FROM t_acct WHERE aid = 42",
            "SELECT aid FROM t_acct WHERE balance > 1000 ORDER BY aid LIMIT 10",
        ] {
            oracle.assert_same(&mut s, sql, &[]);
        }
    });
}

#[test]
fn recovery_discards_uncommitted_versions() {
    watchdogged(|| {
        let wal = SharedLog::new();
        let prepared_txn = {
            let e = StorageEngine::with_options("ds_0", LatencyModel::ZERO, wal.clone());
            e.execute_sql(
                "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)",
                &[],
                None,
            )
            .unwrap();
            e.execute_sql("INSERT INTO t VALUES (1, 10)", &[], None)
                .unwrap();
            e.execute_sql("INSERT INTO t VALUES (2, 20)", &[], None)
                .unwrap();
            // Crash victim: active transaction, never commits.
            let active = e.begin();
            e.execute_sql("INSERT INTO t VALUES (3, 30)", &[], Some(active))
                .unwrap();
            e.execute_sql("UPDATE t SET v = 99 WHERE id = 1", &[], Some(active))
                .unwrap();
            // In-doubt: prepared under XA, coordinator crashed.
            let prepared = e.begin();
            e.execute_sql("UPDATE t SET v = 77 WHERE id = 2", &[], Some(prepared))
                .unwrap();
            e.prepare(prepared, "global-9").unwrap();
            prepared
        };
        let e = StorageEngine::recover("ds_0", LatencyModel::ZERO, wal).unwrap();
        // Committed state is visible; the active transaction's insert and
        // update are not (their versions were never replayed as committed).
        let rs = e
            .execute_sql("SELECT id, v FROM t ORDER BY id", &[], None)
            .unwrap()
            .query();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)]
            ]
        );
        // The prepared transaction stays in-doubt; rolling it back restores
        // the committed image and keeps reads stable throughout.
        assert_eq!(e.in_doubt(), vec![(prepared_txn, "global-9".to_string())]);
        e.rollback_prepared(prepared_txn).unwrap();
        let rs = e
            .execute_sql("SELECT v FROM t WHERE id = 2", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows, vec![vec![Value::Int(20)]]);
    });
}

#[test]
fn vacuum_reclaims_dead_versions_and_reports_gauges() {
    watchdogged(|| {
        let e = StorageEngine::new("ds");
        e.execute_sql(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)",
            &[],
            None,
        )
        .unwrap();
        e.execute_sql("INSERT INTO t VALUES (1, 0)", &[], None)
            .unwrap();
        for i in 1..=20 {
            e.execute_sql("UPDATE t SET v = ? WHERE id = 1", &[Value::Int(i)], None)
                .unwrap();
        }
        // One live row, 21 versions in its chain.
        assert_eq!(e.mvcc_versions_live(), 21);
        let reclaimed = e.vacuum();
        assert_eq!(reclaimed, 20, "all superseded versions are unreachable");
        assert_eq!(e.mvcc_versions_live(), 1);
        assert_eq!(e.mvcc_gc_reclaimed(), 20);
        let rs = e
            .execute_sql("SELECT v FROM t WHERE id = 1", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows, vec![vec![Value::Int(20)]]);

        // A live snapshot pins its versions: vacuum may not reclaim what an
        // open cursor can still reach.
        let stmt = shardingsphere_rs::sql::parse_statement("SELECT v FROM t").unwrap();
        let mut cursor = e.open_cursor(Arc::new(stmt), [].into(), None).unwrap();
        e.execute_sql("UPDATE t SET v = 21 WHERE id = 1", &[], None)
            .unwrap();
        assert_eq!(e.vacuum(), 0, "open snapshot must pin the old version");
        assert_eq!(cursor.next_row().unwrap(), Some(vec![Value::Int(20)]));
        drop(cursor);
        assert_eq!(e.vacuum(), 1, "released snapshot unpins the version");
    });
}
