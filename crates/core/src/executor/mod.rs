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
use crate::obs::{IncidentKind, SpanRecorder, SpanScope, TraceCollector, UnitSpan};
use crate::route::RouteUnit;
use shard_sql::{Statement, Value};
use shard_storage::probe::{self, Probe, SpanSink};
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
    /// Per execution unit: where it ran, how long it took, how many rows it
    /// produced. Feeds `EXPLAIN ANALYZE` and the trace span model.
    pub units: Vec<UnitSpan>,
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
    /// Flight recorder hook: breaker state transitions observed while
    /// executing record an incident here. Set once at runtime build.
    trace_collector: OnceLock<Arc<TraceCollector>>,
}

impl Default for ExecutorEngine {
    fn default() -> Self {
        ExecutorEngine {
            max_connections_per_query: std::sync::atomic::AtomicUsize::new(8),
            acquire_timeout: Duration::from_secs(5),
            trace_collector: OnceLock::new(),
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

    /// Wire the flight recorder in (once, at runtime build). Subsequent
    /// calls are ignored.
    pub fn set_trace_collector(&self, collector: Arc<TraceCollector>) {
        let _ = self.trace_collector.set(collector);
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
    /// `want_units` controls whether the report carries per-unit
    /// [`UnitSpan`]s. Building them costs per-unit label strings on the
    /// statement's critical path, so callers pass `false` unless a trace
    /// (EXPLAIN ANALYZE, the slow-query log) will actually render them.
    ///
    /// `spans` carries the live trace of a head-sampled statement: each
    /// execution unit opens a child span under it, with the storage probe
    /// installed so engine internals (lock waits, WAL flushes, …) parent to
    /// the unit that caused them.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_with_deadline(
        &self,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        txns: Option<&HashMap<String, TxnId>>,
        deadline: Option<Instant>,
        want_units: bool,
        spans: Option<&SpanScope>,
    ) -> Result<(Vec<ExecuteResult>, ExecutionReport)> {
        self.execute_on(
            WorkerPool::global(),
            datasources,
            inputs,
            params,
            txns,
            deadline,
            want_units,
            spans,
        )
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
        want_units: bool,
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
            sqls: Vec<(usize, Statement)>,
        }
        let total = inputs.len();
        // Capture per-unit identity before grouping consumes the inputs:
        // (datasource, actual tables) label each UnitSpan in the report.
        // With `want_units` off the labels stay empty and `unit_spans`
        // zips down to an empty list for free.
        let labels: Vec<(String, String)> = if want_units {
            inputs
                .iter()
                .map(|input| {
                    let mut tables: Vec<&str> = input
                        .unit
                        .table_mappings
                        .values()
                        .map(|s| s.as_str())
                        .collect();
                    tables.sort_unstable();
                    let tables = if tables.is_empty() {
                        "-".to_string()
                    } else {
                        tables.join(",")
                    };
                    (input.unit.datasource.clone(), tables)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Group> = HashMap::new();
        for (i, input) in inputs.into_iter().enumerate() {
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
                .push((i, input.stmt));
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
            let mut chunks: Vec<Vec<(usize, Statement)>> =
                (0..connections).map(|_| Vec::new()).collect();
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
        let mut unit_elapsed_us: Vec<u64> = if want_units {
            vec![0; total]
        } else {
            Vec::new()
        };
        let mut absorb = |outcome: GroupOutcome| -> Result<()> {
            for (idx, elapsed_us, result) in outcome? {
                if want_units {
                    unit_elapsed_us[idx] = elapsed_us;
                }
                results[idx] = Some(result);
            }
            Ok(())
        };
        let shared = Shared {
            params,
            cancelled: AtomicBool::new(false),
            spans: spans.cloned(),
            collector: self.trace_collector.get().cloned(),
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
            .map(|r| {
                report.units = unit_spans(labels, &unit_elapsed_us, &r);
                (r, report)
            })
            .ok_or_else(|| KernelError::Execute("missing execution result".into()))
    }
}

/// One execution group: a chunk of statements bound for one connection of
/// one data source, run serially on it.
struct PlannedGroup {
    ds: Arc<DataSource>,
    txn: Option<TxnId>,
    chunk: Vec<(usize, Statement)>,
    /// Held until the group has run (or was abandoned).
    _permits: Vec<crate::datasource::Connection>,
}

/// What every group of one statement shares.
struct Shared {
    params: Arc<[Value]>,
    /// Set by the first group that fails (or by the deadline): siblings stop
    /// before their next statement instead of running their chunks out.
    cancelled: AtomicBool,
    spans: Option<SpanScope>,
    /// Flight recorder hook for breaker transitions.
    collector: Option<Arc<TraceCollector>>,
}

/// What one group reports: `(input index, elapsed µs, result)` per statement
/// executed, or the error that stopped it.
type GroupOutcome = Result<Vec<(usize, u64, ExecuteResult)>>;

/// Run one group's chunk.
fn run_group(group: PlannedGroup, shared: &Shared) -> GroupOutcome {
    let span = open_unit_span(shared.spans.as_ref(), &group.ds.name, group.chunk.len());
    let probe_guard = install_probe(&span);
    let mut done = Vec::with_capacity(group.chunk.len());
    let mut failure = None;
    for (idx, stmt) in &group.chunk {
        if shared.cancelled.load(Ordering::Relaxed) {
            break;
        }
        let started = Instant::now();
        match exec_one(
            &group.ds,
            stmt,
            &shared.params,
            group.txn,
            shared.collector.as_deref(),
        ) {
            Ok(r) => done.push((*idx, (started.elapsed().as_micros() as u64).max(1), r)),
            Err(e) => {
                shared.cancelled.store(true, Ordering::Relaxed);
                failure = Some(e);
                break;
            }
        }
    }
    drop(probe_guard);
    close_unit_span(span, failure.as_ref().map(|e| e.to_string()));
    match failure {
        Some(e) => Err(e),
        None => Ok(done),
    }
}

/// Zip unit labels, timings, and results into the report's span list.
fn unit_spans(
    labels: Vec<(String, String)>,
    elapsed_us: &[u64],
    results: &[ExecuteResult],
) -> Vec<UnitSpan> {
    labels
        .into_iter()
        .zip(elapsed_us.iter().zip(results.iter()))
        .map(|((datasource, tables), (&elapsed_us, result))| UnitSpan {
            datasource,
            tables,
            elapsed_us,
            rows: result.affected(),
        })
        .collect()
}

/// A unit span riding on a head-sampled statement's trace.
type UnitSpanHandle = Option<(Arc<SpanRecorder>, u32)>;

/// Open the per-execution-unit span, when a trace rides along.
fn open_unit_span(spans: Option<&SpanScope>, ds: &str, chunk: usize) -> UnitSpanHandle {
    spans.map(|s| {
        let detail = if chunk == 1 {
            ds.to_string()
        } else {
            format!("{ds} ({chunk} stmts)")
        };
        let id = s.recorder.begin(Some(s.parent), "unit", detail);
        (Arc::clone(&s.recorder), id)
    })
}

/// Install the storage probe under the unit span so engine internals
/// (cursor opens, lock waits, WAL flushes) report into the same trace.
fn install_probe(span: &UnitSpanHandle) -> Option<probe::ProbeGuard> {
    span.as_ref()
        .map(|(rec, id)| probe::install(Probe::new(Arc::clone(rec) as Arc<dyn SpanSink>, *id)))
}

fn close_unit_span(span: UnitSpanHandle, error: Option<String>) {
    if let Some((rec, id)) = span {
        rec.finish(id, error);
    }
}

/// Execute one statement on a data source, honouring its circuit breaker
/// (sources marked down by health detection fail fast) and feeding real
/// execution outcomes back into the breaker. Breaker state transitions
/// freeze the flight recorder when one is wired in.
fn exec_one(
    ds: &DataSource,
    stmt: &Statement,
    params: &[Value],
    txn: Option<TxnId>,
    collector: Option<&TraceCollector>,
) -> Result<ExecuteResult> {
    if !ds.is_enabled() {
        return Err(KernelError::Unavailable(format!("{} is disabled", ds.name)));
    }
    if !ds.breaker().allow_request() {
        return Err(KernelError::Unavailable(format!(
            "{} circuit breaker is open",
            ds.name
        )));
    }
    match ds.engine().execute(stmt, params, txn) {
        Ok(r) => {
            ds.breaker().record_success();
            Ok(r)
        }
        Err(e) => {
            let e = KernelError::Storage(e);
            // Only infrastructure failures count against the breaker —
            // semantic errors (missing table, bad SQL) say nothing about
            // the data source's health.
            if e.is_infrastructure() {
                let before = ds.breaker().state();
                ds.breaker().record_failure();
                let after = ds.breaker().state();
                if before != after {
                    if let Some(c) = collector {
                        c.record_incident(
                            IncidentKind::BreakerTransition,
                            format!(
                                "{}: breaker {} -> {} ({e})",
                                ds.name,
                                before.as_str(),
                                after.as_str()
                            ),
                            None,
                        );
                    }
                }
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Collects what storage internals report through the thread-local
    /// probe — which they do only on the thread the probe is installed on.
    #[derive(Default)]
    struct SeenOnThisThread(parking_lot::Mutex<Vec<String>>);

    impl SpanSink for SeenOnThisThread {
        fn storage_span(
            &self,
            _: u32,
            name: &'static str,
            detail: String,
            _: u64,
            _: Option<String>,
        ) {
            self.0.lock().push(format!("{name} {detail}"));
        }
    }

    #[test]
    fn embedded_sources_on_one_cpu_run_on_the_calling_thread() {
        let sources = setup(2, 8);
        let engine = ExecutorEngine::new(8);
        let one_cpu = WorkerPool::new(2, 1);
        let seen = Arc::new(SeenOnThisThread::default());
        let _probe = probe::install(Probe::new(seen.clone(), 0));
        let inputs = vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_1", "SELECT v FROM t_1"),
            input("ds_0", "SELECT v FROM t_1"),
        ];
        let (results, report) = engine
            .execute_on(
                &one_cpu,
                &sources,
                inputs,
                shared_params(&[]),
                None,
                None,
                true,
                None,
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(report.units.len(), 3);
        // Every unit took its snapshot where this thread's probe could see.
        let seen = seen.0.lock();
        let snapshots = |ds: &str| {
            let prefix = format!("mvcc_snapshot {ds} ");
            seen.iter().filter(|s| s.starts_with(&prefix)).count()
        };
        assert_eq!((snapshots("ds_0"), snapshots("ds_1")), (2, 1), "{seen:?}");
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
                false,
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
