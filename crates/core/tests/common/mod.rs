//! An independent reference for "sharding is invisible": the same statements
//! run against one unsharded `StorageEngine`, which shares no routing,
//! rewriting or merging code with the kernel. Shared by the integration
//! suites of `shard-core` and of the root package (included there by path).

use shard_core::Session;
use shard_sql::{parse_statement, Statement, Value};
use shard_storage::{ExecuteResult, ResultSet, StorageEngine};
use std::cmp::Ordering;
use std::sync::Arc;

pub struct Oracle(Arc<StorageEngine>);

impl Oracle {
    pub fn new() -> Self {
        Oracle(StorageEngine::new("oracle"))
    }

    /// Run a write (DDL or DML) through the sharded session and on the
    /// unsharded engine; both must report the same affected-row count.
    pub fn write_both(&self, s: &mut Session, sql: &str, params: &[Value]) {
        let sharded = s.execute_sql(sql, params).unwrap();
        let single = self.0.execute_sql(sql, params, None).unwrap();
        assert_eq!(sharded.affected(), single.affected(), "{sql}");
    }

    /// Assert that `sql` returns through the sharded session — materialized
    /// and streamed — what the unsharded engine returns: same columns, and
    /// the same rows in order under ORDER BY, as a multiset otherwise.
    /// Returns the sharded result.
    pub fn assert_same(&self, s: &mut Session, sql: &str, params: &[Value]) -> ResultSet {
        let ordered = match parse_statement(sql).unwrap() {
            Statement::Select(select) => !select.order_by.is_empty(),
            other => panic!("not a SELECT: {other:?}"),
        };
        let normalize = |mut rs: ResultSet| {
            if !ordered {
                rs.rows.sort_by(|a, b| {
                    let by_value = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
                    by_value
                        .fold(Ordering::Equal, Ordering::then)
                        .then(a.len().cmp(&b.len()))
                });
            }
            rs
        };
        let expected = normalize(self.0.execute_sql(sql, params, None).unwrap().query());
        let materialized = match s.execute_sql(sql, params).unwrap() {
            ExecuteResult::Query(rs) => rs,
            other => panic!("expected rows from {sql}, got {other:?}"),
        };
        let streamed = s
            .query_stream(sql, params)
            .unwrap()
            .into_result_set()
            .unwrap();
        for (door, got) in [("materialized", &materialized), ("streamed", &streamed)] {
            let got = normalize(got.clone());
            assert_eq!(got.columns, expected.columns, "{door} columns of {sql}");
            assert_eq!(got.rows, expected.rows, "{door} rows of {sql}");
        }
        materialized
    }
}
