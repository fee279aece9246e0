//! The deployment several suites start from: `t_user`, sharded four ways by
//! `uid` over two data sources. Included by path where needed.

use shard_core::{Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::sync::Arc;

pub fn sharded_runtime() -> Arc<ShardingRuntime> {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32), age INT)",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    runtime
}

pub fn load_users(s: &mut Session, n: i64) {
    for uid in 0..n {
        s.execute_sql(
            "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Str(format!("user{uid}")),
                Value::Int(20 + (uid % 10)),
            ],
        )
        .unwrap();
    }
}
