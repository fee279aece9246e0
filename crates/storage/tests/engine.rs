//! Integration tests for the storage engine: SQL execution, transactions,
//! XA, WAL recovery and fault injection.

use shard_sql::{parse_statement, Value};
use shard_storage::{LatencyModel, SharedLog, StorageEngine, StorageError, TxnId};
use std::time::{Duration, Instant};

fn engine_with_users() -> std::sync::Arc<StorageEngine> {
    let ds = StorageEngine::new("ds_0");
    ds.execute_sql(
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32), age INT)",
        &[],
        None,
    )
    .unwrap();
    for (uid, name, age) in [
        (1, "ann", 30),
        (2, "bob", 25),
        (3, "cat", 35),
        (4, "dan", 25),
    ] {
        ds.execute_sql(
            &format!("INSERT INTO t_user VALUES ({uid}, '{name}', {age})"),
            &[],
            None,
        )
        .unwrap();
    }
    ds
}

#[test]
fn point_select_uses_index() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql("SELECT name FROM t_user WHERE uid = 3", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Str("cat".into())]]);
}

#[test]
fn range_and_in_selects() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql(
            "SELECT uid FROM t_user WHERE uid BETWEEN 2 AND 3 ORDER BY uid",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    let rs = ds
        .execute_sql(
            "SELECT uid FROM t_user WHERE uid IN (1, 4) ORDER BY uid DESC",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(4)], vec![Value::Int(1)]]);
}

#[test]
fn group_by_with_aggregates() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql(
            "SELECT age, COUNT(*), MIN(name) FROM t_user GROUP BY age ORDER BY age",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows.len(), 3);
    // age 25 has bob and dan.
    assert_eq!(
        rs.rows[0],
        vec![Value::Int(25), Value::Int(2), Value::Str("bob".into())]
    );
}

#[test]
fn having_filters_groups() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql(
            "SELECT age, COUNT(*) FROM t_user GROUP BY age HAVING COUNT(*) > 1",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(25), Value::Int(2)]]);
}

#[test]
fn aggregate_without_group_by() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql("SELECT COUNT(*), SUM(age), AVG(age) FROM t_user", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(4));
    assert_eq!(rs.rows[0][1], Value::Int(115));
    assert_eq!(rs.rows[0][2], Value::Float(115.0 / 4.0));
}

#[test]
fn join_on_key() {
    let ds = engine_with_users();
    ds.execute_sql(
        "CREATE TABLE t_order (oid BIGINT PRIMARY KEY, uid BIGINT, amount DOUBLE)",
        &[],
        None,
    )
    .unwrap();
    ds.execute_sql(
        "INSERT INTO t_order VALUES (100, 1, 9.5), (101, 1, 1.5), (102, 2, 3.0)",
        &[],
        None,
    )
    .unwrap();
    let rs = ds
        .execute_sql(
            "SELECT u.name, o.amount FROM t_user u JOIN t_order o ON u.uid = o.uid \
             WHERE u.uid = 1 ORDER BY o.amount",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(
        rs.rows[0],
        vec![Value::Str("ann".into()), Value::Float(1.5)]
    );
}

#[test]
fn left_join_null_extends() {
    let ds = engine_with_users();
    ds.execute_sql(
        "CREATE TABLE t_order (oid BIGINT PRIMARY KEY, uid BIGINT)",
        &[],
        None,
    )
    .unwrap();
    ds.execute_sql("INSERT INTO t_order VALUES (100, 1)", &[], None)
        .unwrap();
    let rs = ds
        .execute_sql(
            "SELECT u.uid, o.oid FROM t_user u LEFT JOIN t_order o ON u.uid = o.uid ORDER BY u.uid",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(100)]);
    assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Null]);
}

#[test]
fn update_and_delete_with_params() {
    let ds = engine_with_users();
    let r = ds
        .execute_sql(
            "UPDATE t_user SET age = ? WHERE uid = ?",
            &[Value::Int(40), Value::Int(1)],
            None,
        )
        .unwrap();
    assert_eq!(r.affected(), 1);
    let r = ds
        .execute_sql("DELETE FROM t_user WHERE age < ?", &[Value::Int(30)], None)
        .unwrap();
    assert_eq!(r.affected(), 2);
    let rs = ds
        .execute_sql("SELECT COUNT(*) FROM t_user", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn explicit_transaction_rollback_restores_state() {
    let ds = engine_with_users();
    let txn = ds.begin();
    ds.execute_sql("INSERT INTO t_user VALUES (9, 'zed', 50)", &[], Some(txn))
        .unwrap();
    ds.execute_sql("UPDATE t_user SET age = 99 WHERE uid = 1", &[], Some(txn))
        .unwrap();
    ds.execute_sql("DELETE FROM t_user WHERE uid = 2", &[], Some(txn))
        .unwrap();
    ds.rollback(txn).unwrap();

    let rs = ds
        .execute_sql("SELECT uid, age FROM t_user ORDER BY uid", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(30)]);
    assert_eq!(rs.rows[1][0], Value::Int(2));
}

#[test]
fn implicit_transaction_rolls_back_on_error() {
    let ds = engine_with_users();
    // Multi-row insert where the second row violates the PK: the whole
    // statement must roll back.
    let err = ds
        .execute_sql(
            "INSERT INTO t_user VALUES (10, 'x', 1), (1, 'dup', 2)",
            &[],
            None,
        )
        .unwrap_err();
    assert!(matches!(err, StorageError::DuplicateKey { .. }));
    let rs = ds
        .execute_sql("SELECT COUNT(*) FROM t_user WHERE uid = 10", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(0));
}

#[test]
fn write_conflict_times_out() {
    let ds = engine_with_users();
    let t1 = ds.begin();
    ds.execute_sql("UPDATE t_user SET age = 1 WHERE uid = 1", &[], Some(t1))
        .unwrap();
    // A second transaction touching the same row blocks and times out.
    let t2 = ds.begin();
    let err = ds
        .execute_sql("UPDATE t_user SET age = 2 WHERE uid = 1", &[], Some(t2))
        .unwrap_err();
    assert!(matches!(err, StorageError::LockTimeout { .. }));
    ds.commit(t1).unwrap();
    // After release the second transaction can proceed.
    ds.execute_sql("UPDATE t_user SET age = 2 WHERE uid = 1", &[], Some(t2))
        .unwrap();
    ds.commit(t2).unwrap();
}

#[test]
fn xa_prepare_commit_cycle() {
    let ds = engine_with_users();
    let txn = ds.begin();
    ds.execute_sql("UPDATE t_user SET age = 77 WHERE uid = 1", &[], Some(txn))
        .unwrap();
    ds.prepare(txn, "xid-42").unwrap();
    assert_eq!(ds.in_doubt(), vec![(txn, "xid-42".to_string())]);
    ds.commit_prepared(txn).unwrap();
    assert!(ds.in_doubt().is_empty());
    let rs = ds
        .execute_sql("SELECT age FROM t_user WHERE uid = 1", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(77));
}

#[test]
fn xa_rollback_prepared_undoes() {
    let ds = engine_with_users();
    let txn = ds.begin();
    ds.execute_sql("DELETE FROM t_user WHERE uid = 1", &[], Some(txn))
        .unwrap();
    ds.prepare(txn, "xid-1").unwrap();
    ds.rollback_prepared(txn).unwrap();
    let rs = ds
        .execute_sql("SELECT COUNT(*) FROM t_user WHERE uid = 1", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(1));
}

#[test]
fn xa_phase_errors() {
    let ds = engine_with_users();
    let txn = ds.begin();
    // commit_prepared before prepare is illegal.
    let err = ds.commit_prepared(txn).unwrap_err();
    assert!(matches!(err, StorageError::IllegalTransactionState { .. }));
    ds.prepare(txn, "x").unwrap();
    // double prepare is illegal.
    let err = ds.prepare(txn, "x").unwrap_err();
    assert!(matches!(err, StorageError::IllegalTransactionState { .. }));
    ds.rollback_prepared(txn).unwrap();
}

#[test]
fn recovery_replays_committed_discards_active() {
    let wal = SharedLog::new();
    {
        let ds = StorageEngine::with_options("ds_0", LatencyModel::ZERO, wal.clone());
        ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
            .unwrap();
        ds.execute_sql("INSERT INTO t VALUES (1, 10)", &[], None)
            .unwrap();
        // An active transaction that never commits (crash victim).
        let txn = ds.begin();
        ds.execute_sql("INSERT INTO t VALUES (2, 20)", &[], Some(txn))
            .unwrap();
        // drop engine without committing: simulated crash
    }
    let ds = StorageEngine::recover("ds_0", LatencyModel::ZERO, wal).unwrap();
    let rs = ds
        .execute_sql("SELECT id FROM t ORDER BY id", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn recovery_keeps_prepared_in_doubt_and_can_resolve() {
    let wal = SharedLog::new();
    let (txn_id, _) = {
        let ds = StorageEngine::with_options("ds_0", LatencyModel::ZERO, wal.clone());
        ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
            .unwrap();
        ds.execute_sql("INSERT INTO t VALUES (1, 10)", &[], None)
            .unwrap();
        let txn = ds.begin();
        ds.execute_sql("UPDATE t SET v = 99 WHERE id = 1", &[], Some(txn))
            .unwrap();
        ds.prepare(txn, "global-7").unwrap();
        (txn, ds)
    };
    // Crash after prepare. Recover: the txn must be in doubt, its effects
    // visible (redo applied), and resolvable either way.
    let ds = StorageEngine::recover("ds_0", LatencyModel::ZERO, wal.clone()).unwrap();
    let in_doubt = ds.in_doubt();
    assert_eq!(in_doubt, vec![(txn_id, "global-7".to_string())]);

    // Coordinator decides rollback: the before image must return.
    ds.rollback_prepared(txn_id).unwrap();
    let rs = ds
        .execute_sql("SELECT v FROM t WHERE id = 1", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(10));
}

#[test]
fn recovery_commit_in_doubt() {
    let wal = SharedLog::new();
    let txn_id = {
        let ds = StorageEngine::with_options("ds_0", LatencyModel::ZERO, wal.clone());
        ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
            .unwrap();
        let txn = ds.begin();
        ds.execute_sql("INSERT INTO t VALUES (5, 50)", &[], Some(txn))
            .unwrap();
        ds.prepare(txn, "g1").unwrap();
        txn
    };
    let ds = StorageEngine::recover("ds_0", LatencyModel::ZERO, wal).unwrap();
    ds.commit_prepared(txn_id).unwrap();
    let rs = ds
        .execute_sql("SELECT v FROM t WHERE id = 5", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(50));
}

#[test]
fn injected_commit_failure_surfaces() {
    let ds = engine_with_users();
    ds.inject_commit_failure();
    let txn = ds.begin();
    ds.execute_sql("UPDATE t_user SET age = 1 WHERE uid = 1", &[], Some(txn))
        .unwrap();
    let err = ds.commit(txn).unwrap_err();
    assert!(matches!(err, StorageError::Injected(_)));
    // Transaction still exists and can be rolled back.
    ds.rollback(txn).unwrap();
    let rs = ds
        .execute_sql("SELECT age FROM t_user WHERE uid = 1", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][0], Value::Int(30));
}

#[test]
fn latency_model_charges_per_request() {
    let ds = StorageEngine::with_latency(
        "remote",
        LatencyModel::new(
            std::time::Duration::from_millis(2),
            std::time::Duration::ZERO,
        ),
    );
    ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY)", &[], None)
        .unwrap();
    let start = std::time::Instant::now();
    ds.execute_sql("SELECT * FROM t", &[], None).unwrap();
    assert!(start.elapsed() >= std::time::Duration::from_millis(2));
}

#[test]
fn select_for_update_locks_rows() {
    let ds = engine_with_users();
    let t1 = ds.begin();
    ds.execute_sql(
        "SELECT * FROM t_user WHERE uid = 1 FOR UPDATE",
        &[],
        Some(t1),
    )
    .unwrap();
    let t2 = ds.begin();
    let err = ds
        .execute_sql("UPDATE t_user SET age = 0 WHERE uid = 1", &[], Some(t2))
        .unwrap_err();
    assert!(matches!(err, StorageError::LockTimeout { .. }));
    ds.commit(t1).unwrap();
    ds.rollback(t2).unwrap();
}

#[test]
fn truncate_drop_and_show_tables() {
    let ds = engine_with_users();
    assert_eq!(ds.table_row_count("t_user").unwrap(), 4);
    ds.execute_sql("TRUNCATE TABLE t_user", &[], None).unwrap();
    assert_eq!(ds.table_row_count("t_user").unwrap(), 0);
    let rs = ds.execute_sql("SHOW TABLES", &[], None).unwrap().query();
    assert_eq!(rs.rows.len(), 1);
    ds.execute_sql("DROP TABLE t_user", &[], None).unwrap();
    assert!(ds.execute_sql("SELECT * FROM t_user", &[], None).is_err());
}

#[test]
fn secondary_index_accelerates_and_stays_correct() {
    let ds = engine_with_users();
    ds.execute_sql("CREATE INDEX idx_age ON t_user (age)", &[], None)
        .unwrap();
    let rs = ds
        .execute_sql(
            "SELECT uid FROM t_user WHERE age = 25 ORDER BY uid",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(4)]]);
    // Mutations keep the secondary index in sync.
    ds.execute_sql("UPDATE t_user SET age = 26 WHERE uid = 2", &[], None)
        .unwrap();
    let rs = ds
        .execute_sql("SELECT uid FROM t_user WHERE age = 25", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(4)]]);
}

#[test]
fn pagination() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql(
            "SELECT uid FROM t_user ORDER BY uid LIMIT 2 OFFSET 1",
            &[],
            None,
        )
        .unwrap()
        .query();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
}

#[test]
fn distinct_dedups() {
    let ds = engine_with_users();
    let rs = ds
        .execute_sql("SELECT DISTINCT age FROM t_user ORDER BY age", &[], None)
        .unwrap()
        .query();
    assert_eq!(rs.rows.len(), 3);
}

/// `sql` through both ways into a SELECT — `execute`, which collects, and
/// `open_cursor`, which hands rows out — with what each took.
fn through_both_doors(
    ds: &StorageEngine,
    sql: &str,
    txn: Option<TxnId>,
) -> [(Vec<Vec<Value>>, Duration); 2] {
    let stmt = std::sync::Arc::new(parse_statement(sql).unwrap());
    let start = Instant::now();
    let collected = ds.execute(&stmt, &[], txn);
    let collected = (collected.unwrap().query().rows, start.elapsed());
    let start = Instant::now();
    let cursor = ds.open_cursor(stmt, [].into(), txn).unwrap();
    let pulled = cursor.map(|row| row.unwrap()).collect();
    [collected, (pulled, start.elapsed())]
}

/// What a SELECT sees does not depend on the door it came through: outside
/// a transaction `FOR UPDATE` can lock nothing, so it reads the committed
/// snapshot like any other statement; inside one it reads the rows as they
/// stand.
#[test]
fn isolation_does_not_depend_on_the_door() {
    let ds = StorageEngine::new("ds");
    ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
        .unwrap();
    ds.execute_sql("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2)", &[], None)
        .unwrap();
    let writer = ds.begin();
    for sql in [
        "DELETE FROM t WHERE id = 1",
        "UPDATE t SET v = 99 WHERE id = 2",
    ] {
        ds.execute_sql(sql, &[], Some(writer)).unwrap();
    }
    let ints = |rows: &[[i64; 2]]| -> Vec<Vec<Value>> {
        let row = |r: &[i64; 2]| r.iter().map(|&i| Value::Int(i)).collect();
        rows.iter().map(row).collect()
    };

    let committed = ints(&[[0, 0], [1, 1], [2, 2]]);
    for (sql, expected) in [
        ("SELECT id, v FROM t FOR UPDATE", &committed),
        ("SELECT id, v FROM t ORDER BY id FOR UPDATE", &committed),
        (
            "SELECT COUNT(*), SUM(v) FROM t FOR UPDATE",
            &ints(&[[3, 3]]),
        ),
    ] {
        for (rows, _) in through_both_doors(&ds, sql, None) {
            assert_eq!(&rows, expected, "{sql}");
        }
    }
    // ... and locked nothing: the row the writer left alone is free.
    ds.execute_sql("UPDATE t SET v = 0 WHERE id = 0", &[], None)
        .unwrap();

    // Inside a transaction the locking read sees the uncommitted delete.
    let reader = ds.begin();
    let sql = "SELECT id, v FROM t WHERE id < 2 ORDER BY id FOR UPDATE";
    for (rows, _) in through_both_doors(&ds, sql, Some(reader)) {
        assert_eq!(rows, ints(&[[0, 0]]), "{sql}");
    }
    ds.rollback(reader).unwrap();
    ds.rollback(writer).unwrap();
}

/// `LatencyModel::per_row` is the cost of a row transferred back to the
/// client: a scan that filters or aggregates most of its source rows away
/// is billed for what leaves the engine, through both doors.
#[test]
fn per_row_latency_bills_the_rows_that_leave() {
    const SOURCE_ROWS: u32 = 2_000;
    let per_row = Duration::from_micros(50);
    let ds = StorageEngine::with_latency("remote", LatencyModel::new(Duration::ZERO, per_row));
    ds.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
        .unwrap();
    for chunk in 0..SOURCE_ROWS / 500 {
        let ids = chunk * 500..(chunk + 1) * 500;
        let rows: Vec<String> = ids.map(|id| format!("({id}, {})", id % 100)).collect();
        ds.execute_sql(
            &format!("INSERT INTO t VALUES {}", rows.join(", ")),
            &[],
            None,
        )
        .unwrap();
    }
    for (sql, leaving) in [
        ("SELECT COUNT(*) FROM t", 1),
        ("SELECT id FROM t WHERE v = 3", SOURCE_ROWS / 100),
    ] {
        for (rows, took) in through_both_doors(&ds, sql, None) {
            assert_eq!(rows.len() as u32, leaving, "{sql}");
            assert!(took >= per_row * leaving, "{sql} billed only {took:?}");
            // Billing the source rows would take at least twice this.
            assert!(took < per_row * SOURCE_ROWS / 2, "{sql} took {took:?}");
        }
    }
}
