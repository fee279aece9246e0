//! SQL executor (paper §VI-D, Fig 8): the automatic execution engine.
//!
//! **Preparation phase** — group the rewritten statements by data source and
//! pick each source's connection mode from
//! `θ = ⌈NumOfSQL / MaxCon⌉`: `θ > 1` forces *connection strictly* mode
//! (bounded connections, each running a chunk of SQLs serially, results
//! materialized in memory); otherwise *memory strictly* mode (one connection
//! per SQL, all running concurrently, results streamable). Connections are
//! acquired atomically per data source to avoid the deadlock described in
//! the paper.
//!
//! **Execution phase** — each connection's chunk is one task of a
//! caller-runs fork-join ([`WorkerPool::run_all`]): the chunk runs serially,
//! the calling thread runs chunks itself, and pool workers join in only when
//! they can help — when a source *waits* (the round trips overlap) or when
//! there is another CPU to compute on. A single chunk, or any number of
//! chunks on embedded sources on one CPU, never leaves the calling thread.

pub(crate) mod pool;
pub mod stream;

pub use pool::WorkerPool;
pub use stream::{CancelToken, RowStream, StreamedQuery};

use crate::datasource::DataSource;
use crate::error::{KernelError, Result};
use crate::obs::SpanScope;
use crate::route::RouteUnit;
use shard_sql::{Statement, Value};
use shard_storage::{ExecuteResult, TxnId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Share parameters across execution units without re-allocating: the empty
/// case (the overwhelmingly common one for routed DML/DQL after rewrite)
/// reuses one static allocation.
pub fn shared_params(params: &[Value]) -> Arc<[Value]> {
    static EMPTY: OnceLock<Arc<[Value]>> = OnceLock::new();
    if params.is_empty() {
        Arc::clone(EMPTY.get_or_init(|| Arc::from([])))
    } else {
        Arc::from(params)
    }
}

/// Connection mode decided per data source per query (paper §VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionMode {
    /// One connection per SQL; prefers stream merging.
    MemoryStrictly,
    /// At most MaxCon connections; chunks execute serially; memory merging.
    ConnectionStrictly,
}

/// One rewritten statement bound for one route unit.
#[derive(Debug, Clone)]
pub struct ExecutionInput {
    pub unit: RouteUnit,
    pub stmt: Statement,
}

/// What the engine decided and did for one query (diagnostics, Fig 15).
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// (datasource, chosen mode, number of SQLs, connections used)
    pub groups: Vec<(String, ConnectionMode, usize, usize)>,
}

impl ExecutionReport {
    pub fn used_connection_strictly(&self) -> bool {
        self.groups
            .iter()
            .any(|(_, m, _, _)| *m == ConnectionMode::ConnectionStrictly)
    }
}

pub struct ExecutorEngine {
    /// MaxCon: maximum connections one query may use per data source.
    /// Atomic so one engine can live on the runtime for its whole lifetime
    /// and still pick up live `max_connections_per_query` updates.
    max_connections_per_query: std::sync::atomic::AtomicUsize,
    /// Pool acquisition timeout.
    pub acquire_timeout: Duration,
}

impl Default for ExecutorEngine {
    fn default() -> Self {
        ExecutorEngine {
            max_connections_per_query: std::sync::atomic::AtomicUsize::new(8),
            acquire_timeout: Duration::from_secs(5),
        }
    }
}

impl ExecutorEngine {
    pub fn new(max_connections_per_query: usize) -> Self {
        ExecutorEngine {
            max_connections_per_query: std::sync::atomic::AtomicUsize::new(
                max_connections_per_query.max(1),
            ),
            ..Default::default()
        }
    }

    pub fn set_max_connections(&self, n: usize) {
        self.max_connections_per_query
            .store(n.max(1), std::sync::atomic::Ordering::SeqCst);
    }

    pub fn max_connections(&self) -> usize {
        self.max_connections_per_query
            .load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Execute all inputs; results return in input order.
    ///
    /// `txns` binds data sources to open local transactions: statements for
    /// those sources execute inside the bound transaction, serially per
    /// source (one transactional connection), preserving the order the
    /// application issued them.
    pub fn execute(
        &self,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        txns: Option<&HashMap<String, TxnId>>,
    ) -> Result<(Vec<ExecuteResult>, ExecutionReport)> {
        self.execute_with_deadline(datasources, inputs, params, txns, None, true, None)
    }

    /// [`ExecutorEngine::execute`] with a per-statement deadline: when the
    /// deadline elapses before every unit reports back, siblings are
    /// cancelled and the statement fails fast with [`KernelError::Timeout`]
    /// instead of hanging on a stuck shard.
    ///
    /// `spans` is the `execute` stage of a statement that records: each
    /// executed unit is one span under it, named `datasource.tables` and
    /// closed with its row count; on a head-sampled statement the storage
    /// probe is installed too, so engine internals (lock waits, WAL flushes,
    /// …) parent to the unit that caused them.
    ///
    /// `_want_units` is ignored: units are spans now. The parameter stays
    /// until the benchmark's replay stops passing it (ROADMAP item 2).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_with_deadline(
        &self,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        txns: Option<&HashMap<String, TxnId>>,
        deadline: Option<Instant>,
        _want_units: bool,
        spans: Option<&SpanScope>,
    ) -> Result<(Vec<ExecuteResult>, ExecutionReport)> {
        let pool = WorkerPool::global();
        self.execute_on(pool, datasources, inputs, params, txns, deadline, spans)
    }

    /// [`ExecutorEngine::execute_with_deadline`] on a given pool (tests
    /// bring their own, with its own CPU count).
    #[allow(clippy::too_many_arguments)]
    fn execute_on(
        &self,
        pool: &WorkerPool,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        txns: Option<&HashMap<String, TxnId>>,
        deadline: Option<Instant>,
        spans: Option<&SpanScope>,
    ) -> Result<(Vec<ExecuteResult>, ExecutionReport)> {
        if inputs.is_empty() {
            return Ok((Vec::new(), ExecutionReport::default()));
        }
        // ---- Preparation: group by data source (owned statements, so the
        // work can move onto pool workers). ----
        struct Group {
            ds: Arc<DataSource>,
            txn: Option<TxnId>,
            sqls: Vec<Unit>,
        }
        let total = inputs.len();
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Group> = HashMap::new();
        for (i, input) in inputs.into_iter().enumerate() {
            let label = spans.map(|_| unit_label(&input.unit));
            let name = input.unit.datasource;
            if !groups.contains_key(&name) {
                let ds = datasources
                    .get(&name)
                    .ok_or_else(|| KernelError::Execute(format!("unknown data source '{name}'")))?
                    .clone();
                let txn = txns.and_then(|t| t.get(&name).copied());
                order.push(name.clone());
                groups.insert(
                    name.clone(),
                    Group {
                        ds,
                        txn,
                        sqls: Vec::new(),
                    },
                );
            }
            groups
                .get_mut(&name)
                .expect("inserted above")
                .sqls
                .push((i, input.stmt, label));
        }

        // ---- Decide modes and build execution units. ----
        let mut report = ExecutionReport::default();
        let mut planned: Vec<PlannedGroup> = Vec::new();
        for name in &order {
            let group = groups.remove(name).expect("grouped above");
            let num_sql = group.sqls.len();
            if group.txn.is_some() {
                // Transactional statements share the transaction's single
                // connection: strictly serial on this source.
                let permits = group.ds.pool().acquire_atomic(1, self.acquire_timeout)?;
                report
                    .groups
                    .push((name.clone(), ConnectionMode::ConnectionStrictly, num_sql, 1));
                planned.push(PlannedGroup {
                    ds: group.ds,
                    txn: group.txn,
                    chunk: group.sqls,
                    _permits: permits,
                });
                continue;
            }
            let max_con = self.max_connections();
            // θ = ⌈NumOfSQL / MaxCon⌉
            let theta = num_sql.div_ceil(max_con);
            let (mode, connections) = if theta > 1 {
                (ConnectionMode::ConnectionStrictly, max_con)
            } else {
                (ConnectionMode::MemoryStrictly, num_sql)
            };
            // Atomic acquisition avoids the two-queries-waiting deadlock.
            let mut permits = group
                .ds
                .pool()
                .acquire_atomic(connections, self.acquire_timeout)?;
            let connections = permits.len().max(1);
            report
                .groups
                .push((name.clone(), mode, num_sql, connections));
            // Chunk SQLs over connections round-robin to balance sizes.
            let mut chunks: Vec<Vec<Unit>> = (0..connections).map(|_| Vec::new()).collect();
            for (j, item) in group.sqls.into_iter().enumerate() {
                chunks[j % connections].push(item);
            }
            for chunk in chunks {
                if chunk.is_empty() {
                    continue;
                }
                let permit = permits.pop().into_iter().collect();
                planned.push(PlannedGroup {
                    ds: Arc::clone(&group.ds),
                    txn: None,
                    chunk,
                    _permits: permit,
                });
            }
        }

        // ---- Execution: one task per planned group on the pool's
        // fork-join. Without a deadline the calling thread runs the groups
        // itself, helped by as many workers as the groups' sources warrant;
        // with one, every group runs on a worker so a hung shard can be
        // abandoned. Results land in input order; the first error in group
        // order wins. ----
        let mut results: Vec<Option<ExecuteResult>> = (0..total).map(|_| None).collect();
        let mut absorb = |outcome: GroupOutcome| -> Result<()> {
            for (idx, result) in outcome? {
                results[idx] = Some(result);
            }
            Ok(())
        };
        let shared = Shared {
            params,
            cancelled: AtomicBool::new(false),
            spans: spans.cloned(),
        };
        if planned.len() == 1 && deadline.is_none() {
            // The point query: one group is nothing to fan out, so it skips
            // the task list and the shared allocation a fan-out needs.
            absorb(run_group(planned.pop().expect("len checked"), &shared))?;
        } else {
            let job_count = planned.len();
            let waits = planned.iter().any(|group| group.ds.engine().waits());
            let shared = Arc::new(shared);
            let tasks: Vec<_> = planned
                .into_iter()
                .map(|group| {
                    let shared = Arc::clone(&shared);
                    move || run_group(group, &shared)
                })
                .collect();
            let outcomes = match deadline {
                None => pool.run_all(tasks, pool.helpers_for(job_count, waits)),
                Some(deadline) => pool.run_all_until(tasks, deadline).map_err(|outstanding| {
                    // Abandoned groups still running stop at their next
                    // statement and drain their permits on exit.
                    shared.cancelled.store(true, Ordering::Relaxed);
                    KernelError::Timeout(format!(
                        "statement deadline elapsed with {outstanding} of {job_count} unit(s) outstanding"
                    ))
                })?,
            };
            for outcome in outcomes {
                absorb(outcome)?;
            }
        }
        let collected: Option<Vec<ExecuteResult>> = results.into_iter().collect();
        collected
            .map(|r| (r, report))
            .ok_or_else(|| KernelError::Execute("missing execution result".into()))
    }
}

/// One statement to execute: its input index, the statement, and — when the
/// statement records — the name of its unit span.
type Unit = (usize, Statement, Option<String>);

/// One execution group: a chunk of statements bound for one connection of
/// one data source, run serially on it.
struct PlannedGroup {
    ds: Arc<DataSource>,
    txn: Option<TxnId>,
    chunk: Vec<Unit>,
    /// Held until the group has run (or was abandoned).
    _permits: Vec<crate::datasource::Connection>,
}

/// What every group of one statement shares.
struct Shared {
    params: Arc<[Value]>,
    /// Set by the first group that fails (or by the deadline): siblings stop
    /// before their next statement instead of running their chunks out.
    cancelled: AtomicBool,
    /// The statement's `execute` stage, when it records.
    spans: Option<SpanScope>,
}

/// What one group reports: `(input index, result)` per statement executed,
/// or the error that stopped it.
type GroupOutcome = Result<Vec<(usize, ExecuteResult)>>;

/// Run one group's chunk, each statement through its source's breaker guard
/// and, when the statement records, inside a unit span of its own.
fn run_group(mut group: PlannedGroup, shared: &Shared) -> GroupOutcome {
    let mut done = Vec::with_capacity(group.chunk.len());
    for (idx, stmt, label) in &mut group.chunk {
        if shared.cancelled.load(Ordering::Relaxed) {
            break;
        }
        let unit = shared
            .spans
            .as_ref()
            .map(|s| (s, s.enter("unit", label.take().unwrap_or_default())));
        let result = group
            .ds
            .guarded(|engine| engine.execute(stmt, &shared.params, group.txn));
        if let Some((scope, (id, _probe))) = unit {
            let rows = result.as_ref().ok().map(ExecuteResult::affected);
            let error = result.as_ref().err().map(|e| e.to_string());
            scope.recorder.finish(id, rows, error);
        }
        match result {
            Ok(r) => done.push((*idx, r)),
            Err(e) => {
                shared.cancelled.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
    }
    Ok(done)
}

/// A unit span's name: the data source the unit ran on (after read-write
/// splitting) and the actual table(s) its rewritten SQL targets.
pub(crate) fn unit_label(unit: &RouteUnit) -> String {
    let mut tables = unit.table_mappings.values();
    match (tables.next(), tables.next()) {
        (None, _) => format!("{}.-", unit.datasource),
        (Some(table), None) => format!("{}.{table}", unit.datasource),
        (Some(_), Some(_)) => {
            let mut tables: Vec<&str> = unit.table_mappings.values().map(|s| s.as_str()).collect();
            tables.sort_unstable();
            format!("{}.{}", unit.datasource, tables.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceCollector;
    use shard_sql::parse_statement;
    use shard_storage::StorageEngine;

    fn setup(sources: usize, pool: usize) -> HashMap<String, Arc<DataSource>> {
        let mut map = HashMap::new();
        for i in 0..sources {
            let name = format!("ds_{i}");
            let engine = StorageEngine::new(&name);
            engine
                .execute_sql("CREATE TABLE t_0 (id BIGINT PRIMARY KEY, v INT)", &[], None)
                .unwrap();
            engine
                .execute_sql("CREATE TABLE t_1 (id BIGINT PRIMARY KEY, v INT)", &[], None)
                .unwrap();
            engine
                .execute_sql("INSERT INTO t_0 VALUES (1, 10)", &[], None)
                .unwrap();
            engine
                .execute_sql("INSERT INTO t_1 VALUES (2, 20)", &[], None)
                .unwrap();
            map.insert(name.clone(), Arc::new(DataSource::new(name, engine, pool)));
        }
        map
    }

    fn input(ds: &str, sql: &str) -> ExecutionInput {
        ExecutionInput {
            unit: RouteUnit::new(ds),
            stmt: parse_statement(sql).unwrap(),
        }
    }

    #[test]
    fn memory_strictly_when_fits() {
        let sources = setup(1, 8);
        let engine = ExecutorEngine::new(4);
        let inputs = vec![
            input("ds_0", "SELECT * FROM t_0"),
            input("ds_0", "SELECT * FROM t_1"),
        ];
        let (results, report) = engine
            .execute(&sources, inputs, shared_params(&[]), None)
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(report.groups[0].1, ConnectionMode::MemoryStrictly);
        assert_eq!(report.groups[0].3, 2); // one connection per SQL
    }

    #[test]
    fn connection_strictly_when_oversubscribed() {
        let sources = setup(1, 8);
        let engine = ExecutorEngine::new(2);
        let inputs = (0..6)
            .map(|i| input("ds_0", &format!("SELECT * FROM t_{}", i % 2)))
            .collect();
        let (results, report) = engine
            .execute(&sources, inputs, shared_params(&[]), None)
            .unwrap();
        assert_eq!(results.len(), 6);
        assert_eq!(report.groups[0].1, ConnectionMode::ConnectionStrictly);
        assert_eq!(report.groups[0].3, 2); // capped at MaxCon
        assert!(report.used_connection_strictly());
    }

    #[test]
    fn results_in_input_order() {
        let sources = setup(2, 8);
        let engine = ExecutorEngine::new(8);
        let inputs = vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_1", "SELECT v FROM t_1"),
            input("ds_0", "SELECT v FROM t_1"),
        ];
        let (results, _) = engine
            .execute(&sources, inputs, shared_params(&[]), None)
            .unwrap();
        assert_eq!(results[0].clone().query().rows[0][0], Value::Int(10));
        assert_eq!(results[1].clone().query().rows[0][0], Value::Int(20));
        assert_eq!(results[2].clone().query().rows[0][0], Value::Int(20));
    }

    #[test]
    fn unknown_datasource_rejected() {
        let sources = setup(1, 4);
        let engine = ExecutorEngine::new(4);
        let err = engine
            .execute(
                &sources,
                vec![input("ds_9", "SELECT 1")],
                shared_params(&[]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::Execute(_)));
    }

    #[test]
    fn error_from_shard_propagates() {
        let sources = setup(1, 4);
        let engine = ExecutorEngine::new(4);
        let err = engine
            .execute(
                &sources,
                vec![input("ds_0", "SELECT * FROM missing_table")],
                shared_params(&[]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::Storage(_)));
    }

    #[test]
    fn transactional_statements_serialize_on_bound_txn() {
        let sources = setup(1, 4);
        let engine = ExecutorEngine::new(4);
        let txn = sources["ds_0"].engine().begin();
        let mut txns = HashMap::new();
        txns.insert("ds_0".to_string(), txn);
        let inputs = vec![
            input("ds_0", "INSERT INTO t_0 VALUES (100, 1)"),
            input("ds_0", "UPDATE t_0 SET v = 2 WHERE id = 100"),
        ];
        let (results, report) = engine
            .execute(&sources, inputs, shared_params(&[]), Some(&txns))
            .unwrap();
        assert_eq!(results[1].affected(), 1);
        assert_eq!(report.groups[0].3, 1); // single transactional connection
        sources["ds_0"].engine().rollback(txn).unwrap();
        // rollback undid both statements
        let rs = sources["ds_0"]
            .engine()
            .execute_sql("SELECT COUNT(*) FROM t_0 WHERE id = 100", &[], None)
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    /// Storage internals report through a thread-local probe, so a unit's
    /// span has storage children only if the unit ran on the thread that
    /// installed the probe.
    #[test]
    fn embedded_sources_on_one_cpu_run_on_the_calling_thread() {
        let sources = setup(2, 8);
        let engine = ExecutorEngine::new(8);
        let one_cpu = WorkerPool::new(2, 1);
        let collector = Arc::new(TraceCollector::new());
        let root = ("statement", String::new());
        let trace = collector.start("session", root, "SELECT".into(), Instant::now(), false);
        let scope = trace.scope();
        let _probe = scope.install_probe(scope.parent);
        let inputs = vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_1", "SELECT v FROM t_1"),
            input("ds_0", "SELECT v FROM t_1"),
        ];
        let params = shared_params(&[]);
        let (results, _) = engine
            .execute_on(&one_cpu, &sources, inputs, params, None, None, Some(&scope))
            .unwrap();
        assert_eq!(results.len(), 3);
        let record = trace.finish(None, None);
        // One span per executed unit, closed with its row count.
        let units: Vec<_> = record.units().collect();
        assert_eq!(units.len(), 3);
        assert!(units.iter().all(|u| u.rows == Some(1)), "{units:?}");
        // Every unit took its snapshot where this thread's probe could see.
        let snapshots = |ds: &str| {
            let prefix = format!("{ds} ");
            let snapshot = |s: &&crate::obs::Span| s.name == "mvcc_snapshot";
            let on_ds = |s: &&crate::obs::Span| s.detail.starts_with(&prefix);
            record.spans.iter().filter(snapshot).filter(on_ds).count()
        };
        assert_eq!((snapshots("ds_0"), snapshots("ds_1")), (2, 1), "{record:?}");
    }

    #[test]
    fn first_error_in_group_order_wins_and_later_groups_do_not_start() {
        let sources = setup(2, 8);
        let engine = ExecutorEngine::new(1);
        let one_cpu = WorkerPool::new(2, 1);
        let before = sources["ds_1"].engine().statements_executed();
        let inputs = vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_0", "SELECT v FROM missing_a"),
            input("ds_0", "SELECT v FROM t_1"),
            input("ds_1", "SELECT v FROM missing_b"),
        ];
        let ran_on_ds0 = sources["ds_0"].engine().statements_executed();
        let err = engine
            .execute_on(
                &one_cpu,
                &sources,
                inputs,
                shared_params(&[]),
                None,
                None,
                None,
            )
            .unwrap_err();
        assert!(err.to_string().contains("missing_a"), "{err}");
        // The failing group stopped at its failure; the next never ran.
        assert_eq!(
            sources["ds_0"].engine().statements_executed(),
            ran_on_ds0 + 2
        );
        assert_eq!(sources["ds_1"].engine().statements_executed(), before);
        // Permits came back either way.
        assert_eq!(sources["ds_0"].pool().available(), 8);
        assert_eq!(sources["ds_1"].pool().available(), 8);
    }

    #[test]
    fn deadline_abandons_a_hung_source() {
        use shard_storage::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
        let sources = setup(2, 8);
        let engine = ExecutorEngine::new(8);
        sources["ds_1"]
            .engine()
            .fault_injector()
            .inject(FaultPlan::new(
                FaultOp::ScanOpen,
                FaultKind::Hang {
                    max: Duration::from_secs(10),
                },
                FaultTrigger::Once,
            ));
        let inputs = vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_1", "SELECT v FROM t_1"),
        ];
        let err = engine
            .execute_with_deadline(
                &sources,
                inputs,
                shared_params(&[]),
                None,
                Some(Instant::now() + Duration::from_millis(50)),
                false,
                None,
            )
            .unwrap_err();
        assert!(
            matches!(&err, KernelError::Timeout(m) if m.contains("1 of 2 unit(s) outstanding")),
            "{err}"
        );
        // Releasing the hang lets the abandoned group finish and return its
        // connection.
        sources["ds_1"].engine().clear_faults();
        let deadline = Instant::now() + Duration::from_secs(5);
        while sources["ds_1"].pool().available() < 8 {
            assert!(Instant::now() < deadline, "abandoned group never drained");
            std::thread::yield_now();
        }
    }

    #[test]
    fn parallel_across_datasources() {
        use std::time::Instant;
        // Each source charges 20ms per request; 4 sources in parallel should
        // take ~20ms, not ~80ms.
        let mut map = HashMap::new();
        for i in 0..4 {
            let name = format!("ds_{i}");
            let engine = StorageEngine::with_latency(
                &name,
                shard_storage::LatencyModel::new(Duration::from_millis(20), Duration::ZERO),
            );
            engine
                .execute_sql("CREATE TABLE t_0 (id BIGINT PRIMARY KEY)", &[], None)
                .unwrap();
            map.insert(name.clone(), Arc::new(DataSource::new(name, engine, 4)));
        }
        let engine = ExecutorEngine::new(4);
        let inputs = (0..4)
            .map(|i| input(&format!("ds_{i}"), "SELECT * FROM t_0"))
            .collect();
        let start = Instant::now();
        engine
            .execute(&map, inputs, shared_params(&[]), None)
            .unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(70),
            "expected parallel execution, took {elapsed:?}"
        );
    }

    #[test]
    fn in_transaction_statements_parallel_across_distinct_sources() {
        use std::time::Instant;
        // The connection-mode contract serializes statements *within* one
        // bound source, but distinct bound sources must still overlap: a
        // 4-branch transactional write should cost ~1 round trip, not 4.
        let mut map = HashMap::new();
        let mut txns = HashMap::new();
        for i in 0..4 {
            let name = format!("ds_{i}");
            let engine = StorageEngine::with_latency(
                &name,
                shard_storage::LatencyModel::new(Duration::from_millis(20), Duration::ZERO),
            );
            engine
                .execute_sql("CREATE TABLE t_0 (id BIGINT PRIMARY KEY)", &[], None)
                .unwrap();
            txns.insert(name.clone(), engine.begin());
            map.insert(name.clone(), Arc::new(DataSource::new(name, engine, 4)));
        }
        let engine = ExecutorEngine::new(4);
        let inputs = (0..4)
            .map(|i| input(&format!("ds_{i}"), &format!("INSERT INTO t_0 VALUES ({i})")))
            .collect();
        let start = Instant::now();
        engine
            .execute(&map, inputs, shared_params(&[]), Some(&txns))
            .unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(70),
            "expected in-transaction parallel execution across sources, took {elapsed:?}"
        );
        for (name, ds) in &map {
            ds.engine().rollback(txns[name]).unwrap();
        }
    }
}
