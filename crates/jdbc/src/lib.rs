//! # shard-jdbc
//!
//! ShardingSphere-JDBC (paper §VII-A): the in-process driver adaptor. The
//! application links this crate and talks to the sharded cluster through a
//! JDBC-shaped API — `DataSource → Connection → Statement` — with the whole
//! SQL engine running inside the application process, connecting straight to
//! the data sources ("the performance could be very high").
//!
//! ```
//! use shard_jdbc::ShardingDataSource;
//! use shard_storage::StorageEngine;
//! use shard_sql::Value;
//!
//! let ds = ShardingDataSource::builder()
//!     .resource("ds_0", StorageEngine::new("ds_0"))
//!     .resource("ds_1", StorageEngine::new("ds_1"))
//!     .build();
//! let mut conn = ds.connection();
//! conn.execute("CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), \
//!               SHARDING_COLUMN=uid, TYPE=hash_mod, PROPERTIES(\"sharding-count\"=4))", &[]).unwrap();
//! conn.execute("CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32))", &[]).unwrap();
//! conn.execute("INSERT INTO t_user (uid, name) VALUES (?, ?)",
//!              &[Value::Int(7), Value::Str("ann".into())]).unwrap();
//! let rows = conn.query("SELECT name FROM t_user WHERE uid = 7", &[]).unwrap();
//! assert_eq!(rows.rows[0][0], Value::Str("ann".into()));
//! ```

use shard_core::cache::ParsedStatement;
pub use shard_core::{
    Incident, IncidentKind, QueryStream, StatementTrace, StreamOutcome, TraceRecord,
};
use shard_core::{KernelError, Result, Session, ShardingRuntime, TransactionType};
use shard_sql::{Statement, Value};
use shard_storage::{ExecuteResult, ResultSet, StorageEngine};
use std::sync::Arc;

/// The JDBC-style entry point: owns a [`ShardingRuntime`] and hands out
/// connections.
#[derive(Clone)]
pub struct ShardingDataSource {
    runtime: Arc<ShardingRuntime>,
}

impl ShardingDataSource {
    pub fn builder() -> ShardingDataSourceBuilder {
        ShardingDataSourceBuilder::default()
    }

    /// Wrap an existing runtime (shared with a proxy, per Fig 4 both
    /// adaptors may share one Governor/runtime).
    pub fn from_runtime(runtime: Arc<ShardingRuntime>) -> Self {
        ShardingDataSource { runtime }
    }

    pub fn runtime(&self) -> &Arc<ShardingRuntime> {
        &self.runtime
    }

    /// Open a connection (a kernel session).
    pub fn connection(&self) -> Connection {
        Connection {
            session: self.runtime.session(),
            auto_commit: true,
        }
    }
}

#[derive(Default)]
pub struct ShardingDataSourceBuilder {
    resources: Vec<(String, Arc<StorageEngine>, usize)>,
    max_connections_per_query: Option<u64>,
}

impl ShardingDataSourceBuilder {
    pub fn resource(mut self, name: &str, engine: Arc<StorageEngine>) -> Self {
        self.resources.push((name.to_string(), engine, 64));
        self
    }

    pub fn resource_with_pool(
        mut self,
        name: &str,
        engine: Arc<StorageEngine>,
        pool: usize,
    ) -> Self {
        self.resources.push((name.to_string(), engine, pool));
        self
    }

    pub fn max_connections_per_query(mut self, n: u64) -> Self {
        self.max_connections_per_query = Some(n);
        self
    }

    pub fn build(self) -> ShardingDataSource {
        let mut b = ShardingRuntime::builder();
        for (name, engine, pool) in self.resources {
            b = b.datasource_with_pool(&name, engine, pool);
        }
        if let Some(n) = self.max_connections_per_query {
            b = b.max_connections_per_query(n);
        }
        ShardingDataSource { runtime: b.build() }
    }
}

/// A JDBC-style connection: statement execution plus transaction control.
pub struct Connection {
    session: Session,
    auto_commit: bool,
}

impl Connection {
    /// Execute any statement; returns rows for queries, affected count
    /// otherwise.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult> {
        self.session.execute_sql(sql, params)
    }

    /// Execute a parsed statement (prepared-statement reuse: parse once,
    /// bind many).
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<ExecuteResult> {
        self.session.execute(stmt, params)
    }

    /// Execute a query and return its rows.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        match self.execute(sql, params)? {
            ExecuteResult::Query(rs) => Ok(rs),
            ExecuteResult::Update { .. } => Err(KernelError::Execute(
                "statement did not produce a result set".into(),
            )),
        }
    }

    /// Execute DML and return the affected-row count.
    pub fn update(&mut self, sql: &str, params: &[Value]) -> Result<u64> {
        Ok(self.execute(sql, params)?.affected())
    }

    /// Execute a query and return an incremental row cursor (JDBC
    /// `ResultSet.next()` analogue). Rows are pulled from the shards on
    /// demand; dropping the stream early cancels in-flight shard scans.
    pub fn query_stream(&mut self, sql: &str, params: &[Value]) -> Result<QueryStream> {
        self.session.query_stream(sql, params)
    }

    /// Execute any statement through the streaming path; queries yield a
    /// [`QueryStream`], DML yields the affected-row count.
    pub fn execute_stream(&mut self, sql: &str, params: &[Value]) -> Result<StreamOutcome> {
        self.session.execute_sql_stream(sql, params)
    }

    /// Prepare a statement for repeated execution. Goes through the
    /// runtime's parse cache, so preparing the same SQL on many connections
    /// shares one parsed AST.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        Ok(PreparedStatement {
            stmt: self.session.runtime().plan_cache().parse(sql)?,
        })
    }

    // -- transaction control (JDBC semantics) --------------------------------

    pub fn auto_commit(&self) -> bool {
        self.auto_commit
    }

    /// `setAutoCommit(false)` opens a transaction; `true` commits it.
    pub fn set_auto_commit(&mut self, auto_commit: bool) -> Result<()> {
        if self.auto_commit == auto_commit {
            return Ok(());
        }
        self.auto_commit = auto_commit;
        if auto_commit {
            self.session.commit()
        } else {
            self.session.begin()
        }
    }

    pub fn commit(&mut self) -> Result<()> {
        self.session.commit()?;
        if !self.auto_commit {
            self.session.begin()?;
        }
        Ok(())
    }

    pub fn rollback(&mut self) -> Result<()> {
        self.session.rollback()?;
        if !self.auto_commit {
            self.session.begin()?;
        }
        Ok(())
    }

    pub fn transaction_type(&self) -> TransactionType {
        self.session.transaction_type()
    }

    pub fn set_transaction_type(&mut self, t: TransactionType) -> Result<()> {
        self.session.set_transaction_type(t)
    }

    /// Execute a statement with stage tracing forced on and return the
    /// finished trace alongside the result — the programmatic equivalent of
    /// `EXPLAIN ANALYZE` for applications embedding the kernel.
    pub fn explain_analyze(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<(ExecuteResult, StatementTrace)> {
        self.session.execute_traced(sql, params)
    }

    /// The stage/unit trace of the most recent traced statement on this
    /// connection (populated while `SET VARIABLE trace = on`).
    pub fn last_trace(&self) -> Option<&StatementTrace> {
        self.session.last_trace()
    }

    // -- distributed tracing (programmatic `SHOW TRACE` / `SHOW INCIDENTS`) --

    /// Cross-layer traces currently in the runtime's collector ring,
    /// newest-first (head-sampled per `SET trace_sample` plus tail-kept
    /// errors).
    pub fn traces(&self) -> Vec<Arc<TraceRecord>> {
        self.session.runtime().trace_collector().traces()
    }

    /// Look one trace up by id — the programmatic `SHOW TRACE <id>`.
    pub fn trace(&self, id: u64) -> Option<Arc<TraceRecord>> {
        self.session.runtime().trace_collector().trace(id)
    }

    /// The flight recorder's incident store, newest-first: anomalies with
    /// the trace ring frozen at the moment each one fired.
    pub fn incidents(&self) -> Vec<Incident> {
        self.session.runtime().trace_collector().incidents()
    }

    /// The underlying kernel session (diagnostics).
    pub fn session(&self) -> &Session {
        &self.session
    }
}

/// A parsed statement bound to no particular connection (JDBC
/// PreparedStatement analogue: parse once, execute many with fresh params).
/// Holds the runtime's parse-cache entry, so an execution starts where
/// executing the text would after finding it there.
pub struct PreparedStatement {
    stmt: Arc<ParsedStatement>,
}

impl PreparedStatement {
    pub fn execute(&self, conn: &mut Connection, params: &[Value]) -> Result<ExecuteResult> {
        conn.session.execute_parsed(&self.stmt, params)
    }

    pub fn query(&self, conn: &mut Connection, params: &[Value]) -> Result<ResultSet> {
        match self.execute(conn, params)? {
            ExecuteResult::Query(rs) => Ok(rs),
            ExecuteResult::Update { .. } => Err(KernelError::Execute(
                "statement did not produce a result set".into(),
            )),
        }
    }

    pub fn statement(&self) -> &Statement {
        &self.stmt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_source() -> ShardingDataSource {
        let ds = ShardingDataSource::builder()
            .resource("ds_0", StorageEngine::new("ds_0"))
            .resource("ds_1", StorageEngine::new("ds_1"))
            .build();
        let mut c = ds.connection();
        c.execute(
            "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=2))",
            &[],
        )
        .unwrap();
        c.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[])
            .unwrap();
        ds
    }

    #[test]
    fn explain_analyze_returns_trace() {
        let ds = data_source();
        let mut c = ds.connection();
        c.update("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)", &[])
            .unwrap();
        let (result, trace) = c
            .explain_analyze("SELECT v FROM t ORDER BY id", &[])
            .unwrap();
        assert_eq!(result.affected(), 2);
        assert_eq!(trace.rows, 2);
        assert_eq!(trace.units.len(), 2); // both shards scanned
        assert!(trace.total_us >= 1);
        // Tracing is per-call: the connection did not stay in trace mode.
        c.query("SELECT v FROM t WHERE id = 1", &[]).unwrap();
        assert!(c.last_trace().is_none());
    }

    #[test]
    fn query_update_roundtrip() {
        let ds = data_source();
        let mut c = ds.connection();
        assert_eq!(
            c.update("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)", &[])
                .unwrap(),
            2
        );
        let rs = c.query("SELECT v FROM t ORDER BY id", &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(c.query("INSERT INTO t (id, v) VALUES (3, 1)", &[]).is_err());
    }

    #[test]
    fn prepared_statement_rebinds() {
        let ds = data_source();
        let mut c = ds.connection();
        let insert = c.prepare("INSERT INTO t (id, v) VALUES (?, ?)").unwrap();
        for i in 0..10 {
            insert
                .execute(&mut c, &[Value::Int(i), Value::Int(i * 10)])
                .unwrap();
        }
        let select = c.prepare("SELECT v FROM t WHERE id = ?").unwrap();
        let rs = select.query(&mut c, &[Value::Int(7)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(70));
    }

    #[test]
    fn auto_commit_toggling_behaves_like_jdbc() {
        let ds = data_source();
        let mut c = ds.connection();
        c.set_auto_commit(false).unwrap();
        c.update("INSERT INTO t (id, v) VALUES (1, 1)", &[])
            .unwrap();
        c.rollback().unwrap();
        // still in a (new) transaction; insert and commit this time
        c.update("INSERT INTO t (id, v) VALUES (2, 2)", &[])
            .unwrap();
        c.commit().unwrap();
        c.set_auto_commit(true).unwrap();
        let rs = c.query("SELECT id FROM t", &[]).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn query_stream_yields_rows_incrementally() {
        let ds = data_source();
        let mut c = ds.connection();
        for i in 0..20 {
            c.update(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i * 2)],
            )
            .unwrap();
        }
        let mut stream = c
            .query_stream("SELECT id, v FROM t ORDER BY id", &[])
            .unwrap();
        assert_eq!(stream.columns(), &["id".to_string(), "v".to_string()]);
        let mut seen = Vec::new();
        while let Some(row) = stream.next_row().unwrap() {
            seen.push(row);
        }
        assert_eq!(seen.len(), 20);
        assert_eq!(seen[0], vec![Value::Int(0), Value::Int(0)]);
        assert_eq!(seen[19], vec![Value::Int(19), Value::Int(38)]);
        // DML through the streaming entry point reports affected rows.
        match c.execute_stream("DELETE FROM t WHERE id = 0", &[]).unwrap() {
            StreamOutcome::Update { affected } => assert_eq!(affected, 1),
            StreamOutcome::Rows(_) => panic!("DELETE produced rows"),
        }
    }

    #[test]
    fn shared_runtime_between_connections() {
        let ds = data_source();
        let mut a = ds.connection();
        let mut b = ds.connection();
        a.update("INSERT INTO t (id, v) VALUES (5, 50)", &[])
            .unwrap();
        let rs = b.query("SELECT v FROM t WHERE id = 5", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(50));
    }
}
