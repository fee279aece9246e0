//! The deployment every round runs on, built fresh each time: 2 data sources
//! × 4 tables = 8 `mod` shards, `LatencyModel::ZERO`, every session variable
//! at its default.

use crate::gen;
use shard_jdbc::{Connection, ShardingDataSource};
use shard_proxy::ProxyServer;
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::sync::Arc;

pub const DATA_SOURCES: usize = 2;
pub const SHARDS: usize = 8;
const LOAD_BATCH_ROWS: i64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Sbtest,
    Hits,
}

impl Table {
    pub fn name(self) -> &'static str {
        match self {
            Table::Sbtest => "sbtest",
            Table::Hits => "t_hits",
        }
    }

    fn key(self) -> &'static str {
        match self {
            Table::Sbtest => "id",
            Table::Hits => "event_id",
        }
    }

    fn ddl(self) -> &'static str {
        match self {
            Table::Sbtest => gen::SBTEST_DDL,
            Table::Hits => gen::HITS_DDL,
        }
    }

    fn columns(self) -> &'static str {
        match self {
            Table::Sbtest => "id, k, c, pad",
            Table::Hits => "event_id, user_id, region, referer, duration_ms, bytes_sent, price",
        }
    }

    fn push_row(self, id: i64, params: &mut Vec<Value>) {
        match self {
            Table::Sbtest => params.extend([
                Value::Int(id),
                Value::Int(gen::initial_k(id)),
                Value::Str(gen::initial_c(id)),
                Value::Str(gen::pad(id)),
            ]),
            Table::Hits => params.extend(gen::hits_row(id)),
        }
    }
}

/// Load rows `0..rows` through `exec` as parameterised multi-row INSERTs of
/// one fixed size: one statement text, so the load leaves one entry in the
/// parse cache instead of one per batch.
fn load(table: Table, rows: i64, mut exec: impl FnMut(&str, &[Value])) {
    assert_eq!(rows % LOAD_BATCH_ROWS, 0, "table sizes are whole batches");
    let columns = table.columns();
    let row_sql = format!("({})", vec!["?"; columns.split(", ").count()].join(", "));
    let sql = format!(
        "INSERT INTO {} ({columns}) VALUES {}",
        table.name(),
        vec![row_sql.as_str(); LOAD_BATCH_ROWS as usize].join(", ")
    );
    let mut params = Vec::new();
    for first in (0..rows).step_by(LOAD_BATCH_ROWS as usize) {
        params.clear();
        for id in first..first + LOAD_BATCH_ROWS {
            table.push_row(id, &mut params);
        }
        exec(&sql, &params);
    }
}

/// One sharded deployment: the data source the JDBC door opens connections
/// on and, when asked for, a proxy in front of the same runtime.
pub struct Deployment {
    pub datasource: ShardingDataSource,
    pub proxy: Option<ProxyServer>,
    pub engines: Vec<Arc<StorageEngine>>,
}

impl Deployment {
    /// Build engines and runtime, create rule and table, load `rows` rows.
    /// This whole function is what `setup_s` times.
    pub fn build(table: Table, rows: i64, with_proxy: bool) -> Deployment {
        let mut builder = ShardingDataSource::builder();
        let mut engines = Vec::new();
        let mut names = Vec::new();
        for i in 0..DATA_SOURCES {
            let name = format!("ds_{i}");
            let engine = StorageEngine::new(name.as_str());
            builder = builder.resource(&name, Arc::clone(&engine));
            engines.push(engine);
            names.push(name);
        }
        let datasource = builder.build();
        let mut conn = datasource.connection();
        let mut exec = |sql: &str, params: &[Value]| {
            conn.execute(sql, params)
                .unwrap_or_else(|e| panic!("setup statement failed: {e}: {sql:.80}"));
        };
        exec(
            &format!(
                "CREATE SHARDING TABLE RULE {} (RESOURCES({}), SHARDING_COLUMN={}, TYPE=mod, \
                 PROPERTIES(\"sharding-count\"={SHARDS}))",
                table.name(),
                names.join(", "),
                table.key()
            ),
            &[],
        );
        exec(table.ddl(), &[]);
        load(table, rows, exec);
        let proxy = with_proxy.then(|| {
            ProxyServer::start(Arc::clone(datasource.runtime()), 0)
                .expect("start proxy on an ephemeral loopback port")
        });
        Deployment {
            datasource,
            proxy,
            engines,
        }
    }

    pub fn connection(&self) -> Connection {
        self.datasource.connection()
    }
}

/// One unsharded engine holding the same rows: the reference the analytics
/// results are compared to.
pub fn unsharded_oracle(table: Table, rows: i64) -> Arc<StorageEngine> {
    let engine = StorageEngine::new("oracle");
    engine
        .execute_sql(table.ddl(), &[], None)
        .expect("oracle DDL");
    load(table, rows, |sql, params| {
        engine.execute_sql(sql, params, None).expect("oracle load");
    });
    engine
}
