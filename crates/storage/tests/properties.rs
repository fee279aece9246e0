//! Property tests for the storage engine: the B-tree index against a model,
//! the batch fetch against per-id lookups, transactional undo, and LIKE
//! matching against a reference implementation.
#![allow(clippy::map_entry)] // the model checks pre-state before inserting

use proptest::prelude::*;
use shard_sql::ast::{ColumnDef, DataType};
use shard_sql::Value;
use shard_storage::index::{Index, RowId};
use shard_storage::{ReadView, StorageEngine, StorageError, Table, TableSchema};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..200, -1000i64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..200, -1000i64..1000).prop_map(|(k, v)| Op::Update(k, v)),
        (0i64..200).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's table+index must agree with a BTreeMap model under any
    /// interleaving of inserts, updates and deletes.
    #[test]
    fn table_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let engine = StorageEngine::new("model");
        engine
            .execute_sql("CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)", &[], None)
            .unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let result = engine.execute_sql(
                        &format!("INSERT INTO t VALUES ({k}, {v})"), &[], None);
                    if model.contains_key(&k) {
                        let dup = matches!(result, Err(StorageError::DuplicateKey { .. }));
                        prop_assert!(dup, "expected duplicate-key error");
                    } else {
                        prop_assert!(result.is_ok());
                        model.insert(k, v);
                    }
                }
                Op::Update(k, v) => {
                    let affected = engine.execute_sql(
                        &format!("UPDATE t SET v = {v} WHERE k = {k}"), &[], None)
                        .unwrap().affected();
                    if model.contains_key(&k) {
                        prop_assert_eq!(affected, 1);
                        model.insert(k, v);
                    } else {
                        prop_assert_eq!(affected, 0);
                    }
                }
                Op::Delete(k) => {
                    let affected = engine.execute_sql(
                        &format!("DELETE FROM t WHERE k = {k}"), &[], None)
                        .unwrap().affected();
                    prop_assert_eq!(affected as usize, usize::from(model.remove(&k).is_some()));
                }
            }
        }
        // Full-state comparison, in key order.
        let rs = engine
            .execute_sql("SELECT k, v FROM t ORDER BY k", &[], None)
            .unwrap()
            .query();
        let got: Vec<(i64, i64)> = rs.rows.iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
        // Range queries agree with the model too (spot-check through PK index).
        let rs = engine
            .execute_sql("SELECT COUNT(*) FROM t WHERE k BETWEEN 50 AND 150", &[], None)
            .unwrap()
            .query();
        prop_assert!(rs.rows[0][0].as_int().is_some());
    }

    /// Any transaction that rolls back leaves the table byte-identical.
    #[test]
    fn rollback_is_identity(
        seed in proptest::collection::vec((0i64..100, -50i64..50), 1..30),
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let engine = StorageEngine::new("undo");
        engine
            .execute_sql("CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)", &[], None)
            .unwrap();
        let mut inserted = std::collections::HashSet::new();
        for (k, v) in seed {
            if inserted.insert(k) {
                engine
                    .execute_sql(&format!("INSERT INTO t VALUES ({k}, {v})"), &[], None)
                    .unwrap();
            }
        }
        let before = engine
            .execute_sql("SELECT * FROM t ORDER BY k", &[], None)
            .unwrap()
            .query();
        let txn = engine.begin();
        for op in ops {
            let _ = match op {
                Op::Insert(k, v) => engine.execute_sql(
                    &format!("INSERT INTO t VALUES ({k}, {v})"), &[], Some(txn)),
                Op::Update(k, v) => engine.execute_sql(
                    &format!("UPDATE t SET v = {v} WHERE k = {k}"), &[], Some(txn)),
                Op::Delete(k) => engine.execute_sql(
                    &format!("DELETE FROM t WHERE k = {k}"), &[], Some(txn)),
            };
        }
        engine.rollback(txn).unwrap();
        let after = engine
            .execute_sql("SELECT * FROM t ORDER BY k", &[], None)
            .unwrap()
            .query();
        prop_assert_eq!(before.rows, after.rows);
    }

    /// WAL recovery reproduces exactly the committed state.
    #[test]
    fn recovery_reproduces_committed_state(
        committed in proptest::collection::vec((0i64..60, -50i64..50), 1..25),
        uncommitted in proptest::collection::vec((100i64..160, -50i64..50), 0..10),
    ) {
        let wal = shard_storage::SharedLog::new();
        let before = {
            let engine = StorageEngine::with_options(
                "crashme", shard_storage::LatencyModel::ZERO, wal.clone());
            engine
                .execute_sql("CREATE TABLE t (k BIGINT PRIMARY KEY, v BIGINT)", &[], None)
                .unwrap();
            let mut seen = std::collections::HashSet::new();
            for (k, v) in &committed {
                if seen.insert(*k) {
                    engine
                        .execute_sql(&format!("INSERT INTO t VALUES ({k}, {v})"), &[], None)
                        .unwrap();
                }
            }
            // An open transaction dies with the crash.
            let txn = engine.begin();
            let mut seen2 = std::collections::HashSet::new();
            for (k, v) in &uncommitted {
                if seen2.insert(*k) {
                    engine
                        .execute_sql(&format!("INSERT INTO t VALUES ({k}, {v})"), &[], Some(txn))
                        .unwrap();
                }
            }
            engine
                .execute_sql("SELECT * FROM t ORDER BY k", &[], None)
                .unwrap()
                .query()
        };
        let _ = before; // pre-crash state includes uncommitted rows
        let engine = StorageEngine::recover(
            "crashme", shard_storage::LatencyModel::ZERO, wal).unwrap();
        let after = engine
            .execute_sql("SELECT k FROM t ORDER BY k", &[], None)
            .unwrap()
            .query();
        // Only committed keys survive.
        let mut want: Vec<i64> = committed.iter().map(|(k, _)| *k)
            .collect::<std::collections::HashSet<_>>().into_iter().collect();
        want.sort_unstable();
        let got: Vec<i64> = after.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    /// LIKE agrees with a simple reference matcher.
    #[test]
    fn like_matches_reference(text in "[ab%_]{0,8}", pattern in "[ab%_]{0,6}") {
        fn reference(t: &str, p: &str) -> bool {
            // classic DP
            let t: Vec<char> = t.chars().collect();
            let p: Vec<char> = p.chars().collect();
            let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
            dp[0][0] = true;
            for j in 1..=p.len() {
                dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
            }
            for i in 1..=t.len() {
                for j in 1..=p.len() {
                    dp[i][j] = match p[j - 1] {
                        '%' => dp[i - 1][j] || dp[i][j - 1],
                        '_' => dp[i - 1][j - 1],
                        c => dp[i - 1][j - 1] && t[i - 1] == c,
                    };
                }
            }
            dp[t.len()][p.len()]
        }
        prop_assert_eq!(
            shard_storage::eval::like_match(&text, &pattern),
            reference(&text, &pattern)
        );
    }

    /// Value total order is antisymmetric and transitive on random triples.
    #[test]
    fn value_order_is_lawful(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }
}

/// Index keys from a domain small enough to collide, covering every `Value`
/// kind (Int and Float share a rank and compare numerically).
fn key_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        prop_oneof![Just(-1.5), Just(0.0), Just(2.0), Just(2.5)].prop_map(Value::Float),
        "[ab]{0,2}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

#[derive(Debug, Clone)]
enum IndexOp {
    Insert(Vec<Value>, RowId),
    Remove(Vec<Value>, RowId),
    Lookup(Vec<Value>),
    Range(Bound<Value>, Bound<Value>),
}

fn index_op() -> impl Strategy<Value = IndexOp> {
    let key = || (key_value(), key_value()).prop_map(|(a, b)| vec![a, b]);
    let bound = || {
        prop_oneof![
            Just(Bound::Unbounded),
            key_value().prop_map(Bound::Included),
            key_value().prop_map(Bound::Excluded),
        ]
    };
    prop_oneof![
        (key(), 0u64..12).prop_map(|(k, id)| IndexOp::Insert(k, id)),
        (key(), 0u64..12).prop_map(|(k, id)| IndexOp::Insert(k, id)),
        (key(), 0u64..12).prop_map(|(k, id)| IndexOp::Remove(k, id)),
        key().prop_map(IndexOp::Lookup),
        (bound(), bound()).prop_map(|(lo, hi)| IndexOp::Range(lo, hi)),
    ]
}

/// What the id sets a scan leaf fetches look like.
#[derive(Debug, Clone)]
enum IdSet {
    Dense,
    Sparse(usize),
    Descending,
    Shuffled(u64),
    /// A run of consecutive ids from a start, then one id far away.
    RunAndOutlier(usize, usize, usize),
}

fn id_set() -> impl Strategy<Value = IdSet> {
    prop_oneof![
        Just(IdSet::Dense),
        (2usize..50).prop_map(IdSet::Sparse),
        Just(IdSet::Descending),
        any::<u64>().prop_map(IdSet::Shuffled),
        (0usize..200, 1usize..40, 0usize..200).prop_map(|(a, n, b)| IdSet::RunAndOutlier(a, n, b)),
    ]
}

impl IdSet {
    fn of(&self, all: &[RowId]) -> Vec<RowId> {
        match *self {
            IdSet::Dense => all.to_vec(),
            IdSet::Sparse(step) => all.iter().copied().step_by(step).collect(),
            IdSet::Descending => all.iter().rev().copied().collect(),
            IdSet::Shuffled(mut seed) => {
                let mut ids = all.to_vec();
                for i in (1..ids.len()).rev() {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ids.swap(i, (seed >> 33) as usize % (i + 1));
                }
                ids
            }
            IdSet::RunAndOutlier(start, len, outlier) => {
                let start = start % all.len();
                let mut ids = all[start..(start + len).min(all.len())].to_vec();
                ids.push(all[outlier % all.len()]);
                ids
            }
        }
    }
}

/// One write to a row of the fetch property's table, by a transaction of its
/// own that then commits or stays pending.
#[derive(Debug, Clone)]
struct Write {
    delete: bool,
    target: usize,
    commit: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Index` against the structure it replaced, a
    /// `BTreeMap<Vec<Value>, Vec<RowId>>`: the same ids in the same order
    /// from every question, on one- and two-column keys, unique or not.
    #[test]
    fn index_matches_the_vec_keyed_model(
        width in 1usize..=2,
        unique in any::<bool>(),
        ops in proptest::collection::vec(index_op(), 1..150),
    ) {
        let mut index = Index::new("i", (0..width).collect(), unique);
        let mut model: BTreeMap<Vec<Value>, Vec<RowId>> = BTreeMap::new();
        for op in ops {
            match op {
                IndexOp::Insert(mut key, id) => {
                    key.truncate(width);
                    let inserted = index.insert("t", key.clone(), id).is_ok();
                    prop_assert_eq!(inserted, !(unique && model.contains_key(&key)));
                    if inserted {
                        model.entry(key).or_default().push(id);
                    }
                }
                IndexOp::Remove(mut key, id) => {
                    key.truncate(width);
                    index.remove(&key, id);
                    if let Some(ids) = model.get_mut(&key) {
                        ids.retain(|x| *x != id);
                        if ids.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                IndexOp::Lookup(mut key) => {
                    key.truncate(width);
                    let want = model.get(&key).cloned().unwrap_or_default();
                    prop_assert_eq!(index.lookup(&key), want);
                    prop_assert_eq!(index.contains(&key), model.contains_key(&key));
                }
                IndexOp::Range(lo, hi) => {
                    let inside = |first: &Value| {
                        let above = match &lo {
                            Bound::Included(l) => first.total_cmp(l) != Ordering::Less,
                            Bound::Excluded(l) => first.total_cmp(l) == Ordering::Greater,
                            Bound::Unbounded => true,
                        };
                        let below = match &hi {
                            Bound::Included(h) => first.total_cmp(h) != Ordering::Greater,
                            Bound::Excluded(h) => first.total_cmp(h) == Ordering::Less,
                            Bound::Unbounded => true,
                        };
                        above && below
                    };
                    let want: Vec<RowId> = model
                        .iter()
                        .filter(|(key, _)| inside(&key[0]))
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect();
                    prop_assert_eq!(index.range(lo.as_ref(), hi.as_ref()), want);
                }
            }
        }
        let forward: Vec<RowId> = model.values().flatten().copied().collect();
        let backward: Vec<RowId> = model.values().rev().flatten().copied().collect();
        prop_assert_eq!(index.scan().collect::<Vec<_>>(), forward);
        prop_assert_eq!(index.scan_rev().collect::<Vec<_>>(), backward);
        prop_assert_eq!(index.len(), model.values().map(Vec::len).sum::<usize>());
        prop_assert_eq!(index.is_empty(), model.is_empty());
    }

    /// `Table::fetch_rows` visits, for any id set in any order, exactly the
    /// rows `get_visible` resolves one id at a time — under a snapshot that
    /// has committed-dead versions behind it, other transactions' pending
    /// writes ahead of it, its own pending writes, and ids whose chains
    /// vacuum has removed since they were collected.
    #[test]
    fn fetch_rows_matches_per_id_lookups(
        rows in 20i64..200,
        writes in proptest::collection::vec(
            (any::<bool>(), 0usize..200, any::<bool>())
                .prop_map(|(delete, target, commit)| Write { delete, target, commit }),
            0..60,
        ),
        snapshot_back in 0u64..8,
        sets in proptest::collection::vec(id_set(), 1..6),
    ) {
        let columns = vec![
            ColumnDef::new("id", DataType::BigInt).not_null(),
            ColumnDef::new("v", DataType::Int),
        ];
        let mut table = Table::new(TableSchema::new("t", columns, &["id".to_string()]).unwrap());
        let mut ids = Vec::new();
        for id in 0..rows {
            ids.push(table.insert(vec![Value::Int(id), Value::Int(0)], 1).unwrap().0);
        }
        let mut ts = 1;
        for &id in &ids {
            table.stamp_commit(id, 1, ts);
        }
        // Each write is a transaction of its own; one that hits a row some
        // pending write already ended fails and changes nothing.
        let mut pending = Vec::new();
        for (n, w) in writes.iter().enumerate() {
            let txn = 2 + n as u64;
            let id = ids[w.target % ids.len()];
            let done = if w.delete {
                table.delete(id, txn).is_ok()
            } else {
                let row = vec![Value::Int(id as i64 - 1), Value::Int(txn as i64)];
                table.update(id, row, txn).is_ok()
            };
            if done && w.commit {
                ts += 1;
                table.stamp_commit(id, txn, ts);
            } else if done {
                pending.push(txn);
            }
        }
        let snapshot = ts.saturating_sub(snapshot_back).max(1);
        // Ids collected before vacuum, fetched after it: some chains are gone.
        let collected: Vec<RowId> = table.all_ids().collect();
        table.vacuum(snapshot);
        let views = [
            ReadView::snapshot(snapshot, None, None),
            ReadView::snapshot(snapshot, pending.first().copied(), None),
            ReadView::latest(),
        ];
        for set in &sets {
            let wanted = set.of(&collected);
            for view in &views {
                let one_by_one: Vec<Vec<Value>> = wanted
                    .iter()
                    .filter_map(|&id| table.get_visible(id, view).cloned())
                    .collect();
                let mut fetched = Vec::new();
                let visited = table.fetch_rows(&wanted, view, |row| fetched.push(row.to_vec()));
                prop_assert_eq!(&fetched, &one_by_one, "{:?}", set);
                prop_assert!(visited >= fetched.len() as u64);
            }
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-c]{0,4}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}
