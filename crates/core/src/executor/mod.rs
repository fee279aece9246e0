//! SQL executor (paper §VI-D, Fig 8): the automatic execution engine. There
//! is one, whichever front door a statement came through.
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
//!
//! **Eager or lazy** — the one thing the caller decides (`Fetch`) is what
//! a SELECT unit hands back: its collected result, or — where the prepared
//! statement can stream — its open cursor as a live [`RowStream`]
//! (`stream.rs`). Opening cursors *is* the fork-join above: same guard, same
//! spans, same deadline, same threads.

pub(crate) mod pool;
pub mod stream;

pub use pool::WorkerPool;
pub use stream::{CancelToken, RowStream};

use crate::datasource::{Connection, DataSource};
use crate::error::{KernelError, Result};
use crate::obs::{Counter, SpanScope};
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

/// One rewritten statement bound for one route unit. Both are shared: a
/// cached plan hands the same unit and the same statement to every execution
/// that touches the node, and the executor passes the statement on — to the
/// engine, to a cursor that outlives the call — without copying it.
#[derive(Debug, Clone)]
pub struct ExecutionInput {
    pub unit: Arc<RouteUnit>,
    pub stmt: Arc<Statement>,
}

/// What the engine decided and did for one query (diagnostics, Fig 15).
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// (datasource, chosen mode, number of SQLs, connections used)
    pub groups: Vec<(String, ConnectionMode, usize, usize)>,
    /// The units handed back open cursors and pumps on pool workers pull
    /// them (otherwise the consumer does, or the units were collected).
    pub pumped: bool,
}

impl ExecutionReport {
    pub fn used_connection_strictly(&self) -> bool {
        self.groups
            .iter()
            .any(|(_, m, _, _)| *m == ConnectionMode::ConnectionStrictly)
    }
}

/// What the caller wants back from a SELECT unit.
#[derive(Clone, Copy)]
pub(crate) enum Fetch<'a> {
    /// Its collected result.
    Collect,
    /// Its open cursor as a live [`RowStream`] — where the prepared
    /// statement can stream; collected otherwise. Each stream adds the rows
    /// the merger pulled from it to `pulled`.
    Stream { pulled: Option<&'a Arc<Counter>> },
}

/// What executing a statement's units handed back, in input order.
pub(crate) enum Executed {
    Results(Vec<ExecuteResult>),
    /// Live shard streams plus the token that cancels every unit in flight.
    Streams(Vec<RowStream>, CancelToken),
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

    /// [`ExecutorEngine::run_on`] the process-wide pool, every unit
    /// collected.
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
        match self.run_on(
            WorkerPool::global(),
            datasources,
            inputs,
            params,
            txns,
            deadline,
            spans,
            Fetch::Collect,
        )? {
            (Executed::Results(results), report) => Ok((results, report)),
            (Executed::Streams(..), _) => unreachable!("`Fetch::Collect` collects"),
        }
    }

    /// Execute all inputs on `pool` (the process-wide one; tests bring their
    /// own, with its own CPU count); what comes back is in input order.
    ///
    /// `txns` binds data sources to open local transactions: statements for
    /// those sources execute inside the bound transaction, serially per
    /// source (one transactional connection), preserving the order the
    /// application issued them.
    ///
    /// With a `deadline`, when it elapses before every unit reports back —
    /// has executed, or has opened its cursor — siblings are cancelled and
    /// the statement fails fast with [`KernelError::Timeout`] instead of
    /// hanging on a stuck shard; streams handed back pull against it too.
    ///
    /// `spans` is the `execute` stage of a statement that records: each unit
    /// is one span under it, named `datasource.tables` and closed with its
    /// row count — a collected unit's when it returns, a streamed unit's by
    /// its [`RowStream`]; on a head-sampled statement the storage probe is
    /// installed too, so engine internals (lock waits, WAL flushes, …)
    /// parent to the unit that caused them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_on(
        &self,
        pool: &WorkerPool,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        params: Arc<[Value]>,
        txns: Option<&HashMap<String, TxnId>>,
        deadline: Option<Instant>,
        spans: Option<&SpanScope>,
        fetch: Fetch<'_>,
    ) -> Result<(Executed, ExecutionReport)> {
        let total = inputs.len();
        let (groups, mut report) = self.prepare(datasources, inputs, txns, spans.is_some())?;
        // Whether the statement streams is a question asked of the prepared
        // plan: memory-strictly throughout (every statement on a connection
        // of its own), nothing bound to a transaction, SELECTs only — and a
        // fan-out of at most half the pool, since a pump blocked on its full
        // channel holds a worker and past that bound could starve the pumps
        // the consumer is waiting for.
        let one_select = |group: &PlannedGroup| {
            group.txn.is_none()
                && matches!(&group.chunk[..], [(_, stmt, _)] if matches!(**stmt, Statement::Select(_)))
        };
        let (lazy, pulled) = match fetch {
            Fetch::Stream { pulled } if total > 0 && total <= pool.size / 2 => {
                (groups.iter().all(one_select), pulled.cloned())
            }
            _ => (false, None),
        };
        let shared = Shared {
            params,
            cancelled: AtomicBool::new(false),
            spans: spans.cloned(),
            lazy,
            pulled,
        };
        let waits = groups.iter().any(|group| group.ds.engine().waits());
        let mut units = fork_join(pool, groups, waits, shared, deadline)?;
        if units.len() != total {
            return Err(KernelError::Execute("missing execution result".into()));
        }
        units.sort_unstable_by_key(|(idx, _)| *idx);
        let (mut results, mut streams) = (Vec::new(), Vec::new());
        for (_, unit) in units {
            match unit {
                Fetched::Result(result) => results.push(result),
                Fetched::Stream(stream) => streams.push(stream),
            }
        }
        if !lazy {
            return Ok((Executed::Results(results), report));
        }
        // The transport follows what the fork-join would do with these
        // units: where it would wake no helper the consumer pulls the
        // cursors itself; where a helper helps, or a deadline must keep the
        // caller outside every shard call, pumps on pool workers do.
        let cancel = CancelToken::new();
        report.pumped = deadline.is_some() || pool.helpers_for(total, waits) > 0;
        if report.pumped {
            for stream in &mut streams {
                stream.pump(pool, &cancel, deadline);
            }
        }
        Ok((Executed::Streams(streams, cancel), report))
    }

    /// The preparation phase: group by data source, decide each source's
    /// mode, acquire its connections atomically, and deal its statements out
    /// over them.
    fn prepare(
        &self,
        datasources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        txns: Option<&HashMap<String, TxnId>>,
        labelled: bool,
    ) -> Result<(Vec<PlannedGroup>, ExecutionReport)> {
        /// One target data source and how many of the statements it gets.
        struct Source {
            name: String,
            ds: Arc<DataSource>,
            txn: Option<TxnId>,
            num_sql: usize,
        }
        // Sources in first-seen order (a statement targets a handful), and
        // which of them each input goes to.
        let mut sources: Vec<Source> = Vec::new();
        let mut source_of = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let name = &input.unit.datasource;
            let at = match sources.iter().position(|s| s.name == *name) {
                Some(at) => at,
                None => {
                    let unknown = || KernelError::Execute(format!("unknown data source '{name}'"));
                    sources.push(Source {
                        name: name.clone(),
                        ds: datasources.get(name).cloned().ok_or_else(unknown)?,
                        txn: txns.and_then(|t| t.get(name).copied()),
                        num_sql: 0,
                    });
                    sources.len() - 1
                }
            };
            sources[at].num_sql += 1;
            source_of.push(at);
        }

        // Per source: its mode, its connections, and one group — still
        // empty — per connection. `deal` is where each source's groups
        // start, how many they are, and how many statements they hold.
        let mut groups = Vec::with_capacity(inputs.len());
        let mut report = ExecutionReport::default();
        let mut deal = Vec::with_capacity(sources.len());
        for source in sources {
            let (num_sql, max_con) = (source.num_sql, self.max_connections());
            // θ = ⌈NumOfSQL / MaxCon⌉
            let theta = num_sql.div_ceil(max_con);
            let (mode, connections) = if source.txn.is_some() {
                // Transactional statements share the transaction's single
                // connection: strictly serial on this source.
                (ConnectionMode::ConnectionStrictly, 1)
            } else if theta > 1 {
                (ConnectionMode::ConnectionStrictly, max_con)
            } else {
                (ConnectionMode::MemoryStrictly, num_sql)
            };
            // Atomic acquisition avoids the two-queries-waiting deadlock.
            let pool = source.ds.pool();
            let mut permits = pool.acquire_atomic(connections, self.acquire_timeout)?;
            let connections = permits.len().max(1);
            report
                .groups
                .push((source.name, mode, num_sql, connections));
            deal.push((groups.len(), connections, 0));
            groups.extend((0..connections).map(|_| PlannedGroup {
                ds: Arc::clone(&source.ds),
                txn: source.txn,
                chunk: Vec::with_capacity(num_sql.div_ceil(connections)),
                permit: permits.pop(),
            }));
        }
        // Deal each source's SQLs over its connections round-robin, which
        // balances the chunk sizes.
        for ((i, input), at) in inputs.into_iter().enumerate().zip(source_of) {
            let label = labelled.then(|| unit_label(&input.unit));
            let (first, connections, dealt) = &mut deal[at];
            groups[*first + *dealt % *connections]
                .chunk
                .push((i, input.stmt, label));
            *dealt += 1;
        }
        Ok((groups, report))
    }
}

/// One statement to execute: its input index, the statement, and — when the
/// statement records — the name of its unit span.
type Unit = (usize, Arc<Statement>, Option<String>);

/// One execution group: a chunk of statements bound for one connection of
/// one data source, run serially on it.
struct PlannedGroup {
    ds: Arc<DataSource>,
    txn: Option<TxnId>,
    chunk: Vec<Unit>,
    /// Held until the group has run (or was abandoned); a streamed unit's
    /// goes on to its stream.
    permit: Option<Connection>,
}

/// What every group of one statement shares.
struct Shared {
    params: Arc<[Value]>,
    /// Set by the first group that fails (or by the deadline): siblings stop
    /// before their next statement instead of running their chunks out.
    cancelled: AtomicBool,
    /// The statement's `execute` stage, when it records.
    spans: Option<SpanScope>,
    /// SELECT units hand back their open cursor ([`Fetch::Stream`]) …
    lazy: bool,
    /// … as a stream that counts the rows pulled from it here.
    pulled: Option<Arc<Counter>>,
}

/// What one unit's body handed back.
enum Fetched {
    Result(ExecuteResult),
    Stream(RowStream),
}

/// What one group reports: `(input index, what it fetched)` per statement
/// executed, or the error that stopped it.
type GroupOutcome = Result<Vec<(usize, Fetched)>>;

/// The execution phase: one task per planned group on the pool's fork-join.
/// Without a deadline the calling thread runs the groups itself, helped by
/// as many workers as the groups' sources warrant; with one, every group
/// runs on a worker so a hung shard can be abandoned. The first error in
/// group order wins.
fn fork_join(
    pool: &WorkerPool,
    mut groups: Vec<PlannedGroup>,
    waits: bool,
    shared: Shared,
    deadline: Option<Instant>,
) -> GroupOutcome {
    if groups.len() == 1 && deadline.is_none() {
        // The point query: one group is nothing to fan out, so it skips the
        // task list and the shared allocation a fan-out needs.
        return run_group(groups.pop().expect("len checked"), &shared);
    }
    let job_count = groups.len();
    let shared = Arc::new(shared);
    let tasks: Vec<_> = groups
        .into_iter()
        .map(|group| {
            let shared = Arc::clone(&shared);
            move || run_group(group, &shared)
        })
        .collect();
    let outcomes = match deadline {
        None => pool.run_all(tasks, pool.helpers_for(job_count, waits)),
        Some(deadline) => pool.run_all_until(tasks, deadline).map_err(|outstanding| {
            // Abandoned groups still running stop at their next statement
            // and drain their permits on exit.
            shared.cancelled.store(true, Ordering::Relaxed);
            KernelError::Timeout(format!(
                "statement deadline elapsed with {outstanding} of {job_count} unit(s) outstanding"
            ))
        })?,
    };
    let mut units = Vec::with_capacity(job_count);
    for outcome in outcomes {
        units.extend(outcome?);
    }
    Ok(units)
}

/// Run one group's chunk — the unit body: each statement through its
/// source's breaker guard and, when the statement records, inside a unit
/// span of its own.
fn run_group(mut group: PlannedGroup, shared: &Shared) -> GroupOutcome {
    let mut done = Vec::with_capacity(group.chunk.len());
    for (idx, stmt, label) in std::mem::take(&mut group.chunk) {
        if shared.cancelled.load(Ordering::Relaxed) {
            break;
        }
        let unit = shared
            .spans
            .as_ref()
            .map(|s| (s, s.enter("unit", label.unwrap_or_default())));
        let fetched = if shared.lazy && matches!(*stmt, Statement::Select(_)) {
            // Lazy: the unit goes on as its stream, which takes over its
            // connection, its still-open span and its breaker verdict.
            let params = Arc::clone(&shared.params);
            let cursor = group
                .ds
                .attempt(|engine| engine.open_cursor(stmt, params, None));
            cursor.map(|cursor| {
                let span = unit.as_ref().map(|(scope, (id, _))| SpanScope {
                    parent: *id,
                    ..(*scope).clone()
                });
                let (ds, permit) = (Arc::clone(&group.ds), group.permit.take());
                let pulled = shared.pulled.clone();
                Fetched::Stream(RowStream::new(cursor, ds, permit, span, pulled))
            })
        } else {
            group
                .ds
                .guarded(|engine| engine.execute(&stmt, &shared.params, group.txn))
                .map(Fetched::Result)
        };
        if let Some((scope, (id, _probe))) = unit {
            match &fetched {
                Ok(Fetched::Stream(_)) => {}
                Ok(Fetched::Result(r)) => {
                    scope.recorder.finish(id, Some(r.affected()), None);
                }
                Err(e) => {
                    scope.recorder.finish(id, None, Some(e.to_string()));
                }
            }
        }
        match fetched {
            Ok(fetched) => done.push((idx, fetched)),
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
fn unit_label(unit: &RouteUnit) -> String {
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
    use shard_storage::{LatencyModel, StorageEngine};

    fn setup(sources: usize, pool: usize) -> HashMap<String, Arc<DataSource>> {
        setup_on(sources, pool, LatencyModel::ZERO)
    }

    fn setup_on(
        sources: usize,
        pool: usize,
        wire: LatencyModel,
    ) -> HashMap<String, Arc<DataSource>> {
        let mut map = HashMap::new();
        for i in 0..sources {
            let name = format!("ds_{i}");
            let engine = StorageEngine::with_latency(&name, wire);
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

    impl ExecutorEngine {
        /// Everything collected on the process-wide pool, without a deadline.
        fn execute(
            &self,
            datasources: &HashMap<String, Arc<DataSource>>,
            inputs: Vec<ExecutionInput>,
            params: Arc<[Value]>,
            txns: Option<&HashMap<String, TxnId>>,
        ) -> Result<(Vec<ExecuteResult>, ExecutionReport)> {
            self.execute_with_deadline(datasources, inputs, params, txns, None, true, None)
        }
    }

    fn input(ds: &str, sql: &str) -> ExecutionInput {
        ExecutionInput {
            unit: Arc::new(RouteUnit::new(ds)),
            stmt: Arc::new(parse_statement(sql).unwrap()),
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

    const STREAM: Fetch<'static> = Fetch::Stream { pulled: None };

    /// `run_on` for statements without parameters or transactions.
    fn run(
        pool: &WorkerPool,
        sources: &HashMap<String, Arc<DataSource>>,
        inputs: Vec<ExecutionInput>,
        deadline: Option<Instant>,
        spans: Option<&SpanScope>,
        fetch: Fetch<'_>,
    ) -> Result<(Executed, ExecutionReport)> {
        let params = shared_params(&[]);
        ExecutorEngine::new(8).run_on(pool, sources, inputs, params, None, deadline, spans, fetch)
    }

    /// Every unit's rows, in input order, however they were handed back.
    fn rows(executed: Executed) -> Vec<Vec<Vec<Value>>> {
        match executed {
            Executed::Results(results) => results.into_iter().map(|r| r.query().rows).collect(),
            Executed::Streams(streams, _) => streams
                .into_iter()
                .map(|mut s| {
                    std::iter::from_fn(|| s.next_row())
                        .map(Result::unwrap)
                        .collect()
                })
                .collect(),
        }
    }

    fn three_selects() -> Vec<ExecutionInput> {
        vec![
            input("ds_0", "SELECT v FROM t_0"),
            input("ds_1", "SELECT v FROM t_1"),
            input("ds_0", "SELECT v FROM t_1"),
        ]
    }

    /// Storage internals report through a thread-local probe, so a unit's
    /// span has storage children only if the unit ran on the thread that
    /// installed the probe — collected, or opened as a cursor.
    #[test]
    fn embedded_sources_on_one_cpu_run_on_the_calling_thread() {
        let sources = setup(2, 8);
        let one_cpu = WorkerPool::new(8, 1);
        for (fetch, lazy) in [(Fetch::Collect, false), (STREAM, true)] {
            let collector = Arc::new(TraceCollector::new());
            let root = ("statement", String::new());
            let trace = collector.start("session", root, "SELECT".into(), Instant::now(), false);
            let scope = trace.scope();
            let _probe = scope.install_probe(scope.parent);
            let spans = Some(&scope);
            let (executed, report) =
                run(&one_cpu, &sources, three_selects(), None, spans, fetch).unwrap();
            // Open cursors stay on this thread too: nothing pumps them.
            assert_eq!(matches!(executed, Executed::Streams(..)), lazy);
            assert!(!report.pumped);
            assert_eq!(
                rows(executed),
                [[[Value::Int(10)]], [[Value::Int(20)]], [[Value::Int(20)]]]
            );
            let record = trace.finish(None, None);
            // One span per executed unit, closed with its row count — by the
            // unit's stream, when it went on as one.
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
    }

    /// On a head-sampled statement every unit installs the probe itself,
    /// whichever thread runs it: what storage reports while a cursor opens
    /// parents to that unit's span.
    #[test]
    fn storage_spans_of_a_cursor_open_parent_to_their_unit() {
        let sources = setup(2, 8);
        for pool in [WorkerPool::new(8, 1), WorkerPool::new(8, 4)] {
            let collector = Arc::new(TraceCollector::new());
            let root = ("statement", String::new());
            let trace = collector.start("session", root, "SELECT".into(), Instant::now(), true);
            let scope = trace.scope();
            let (executed, _) =
                run(&pool, &sources, three_selects(), None, Some(&scope), STREAM).unwrap();
            assert_eq!(rows(executed).len(), 3);
            let record = trace.finish(None, None);
            let opens: Vec<_> = record
                .spans
                .iter()
                .filter(|s| s.name == "cursor_open")
                .collect();
            assert_eq!(opens.len(), 3, "{record:?}");
            for open in opens {
                let parent = &record.spans[open.parent.unwrap() as usize];
                let ds = open.detail.split(':').next().unwrap();
                assert_eq!(parent.name, "unit");
                assert!(parent.detail.starts_with(ds), "{open:?} under {parent:?}");
            }
        }
    }

    /// A waiting source or a second CPU is what a helper could use, so that
    /// is what selects the pump — and so does a deadline, which must keep
    /// the caller outside every shard call. The unit count selects nothing.
    #[test]
    fn transport_follows_helpers_and_the_deadline() {
        let embedded = setup(2, 8);
        let wire = LatencyModel::new(Duration::from_micros(50), Duration::ZERO);
        let waiting = setup_on(2, 8, wire);
        let (one_cpu, four_cpus) = (WorkerPool::new(8, 1), WorkerPool::new(8, 4));
        let one = || vec![input("ds_0", "SELECT v FROM t_0")];
        let soon = || Some(Instant::now() + Duration::from_secs(5));
        for (pool, sources, inputs, deadline, pumped) in [
            (&one_cpu, &embedded, three_selects(), None, false),
            (&four_cpus, &embedded, three_selects(), None, true),
            (&one_cpu, &waiting, three_selects(), None, true),
            (&four_cpus, &waiting, one(), None, false),
            (&one_cpu, &embedded, one(), soon(), true),
            (&one_cpu, &embedded, three_selects(), soon(), true),
        ] {
            let units = inputs.len();
            let (executed, report) = run(pool, sources, inputs, deadline, None, STREAM).unwrap();
            assert!(matches!(executed, Executed::Streams(..)));
            assert_eq!(report.pumped, pumped, "{units} unit(s), {deadline:?}");
            // Opens come back in input order and deliver the same rows
            // either way.
            let want = [[[Value::Int(10)]], [[Value::Int(20)]], [[Value::Int(20)]]];
            assert_eq!(rows(executed), want[..units]);
            // Every stream gone, every permit is back — a pump lets go of
            // its own once it has seen its channel close.
            let give_up = Instant::now() + Duration::from_secs(5);
            while sources.values().any(|ds| ds.pool().available() < 8) {
                assert!(Instant::now() < give_up, "a permit never came back");
                std::thread::yield_now();
            }
        }
    }

    /// What keeps a statement collected though the caller asked for streams.
    #[test]
    fn only_a_streamable_plan_hands_back_cursors() {
        let sources = setup(1, 8);
        let pool = WorkerPool::new(8, 1);
        let selects =
            |n: usize| (0..n).map(|i| input("ds_0", &format!("SELECT v FROM t_{}", i % 2)));
        let run = |engine: &ExecutorEngine, inputs: Vec<ExecutionInput>, txns| {
            let params = shared_params(&[]);
            let (executed, _) = engine
                .run_on(&pool, &sources, inputs, params, txns, None, None, STREAM)
                .unwrap();
            matches!(executed, Executed::Streams(..))
        };
        let engine = ExecutorEngine::new(4);
        assert!(run(&engine, selects(4).collect(), None));
        // θ > 1: connection-strictly mode buffers.
        assert!(!run(&engine, selects(5).collect(), None));
        // Past half the pool, blocked pumps could starve queued ones.
        assert!(!run(&ExecutorEngine::new(8), selects(5).collect(), None));
        // Anything but a SELECT, and anything bound to a transaction.
        let mut mixed: Vec<_> = selects(1).collect();
        mixed.push(input("ds_0", "UPDATE t_0 SET v = 10 WHERE id = 1"));
        assert!(!run(&engine, mixed, None));
        let txn = sources["ds_0"].engine().begin();
        let txns = HashMap::from([("ds_0".to_string(), txn)]);
        assert!(!run(&engine, selects(1).collect(), Some(&txns)));
        sources["ds_0"].engine().rollback(txn).unwrap();
        assert!(!run(&engine, Vec::new(), None));
    }

    /// A stream dropped before its cursor ran dry returns its connection:
    /// at once when the consumer held it, as soon as the pump notices when
    /// the pump did.
    #[test]
    fn a_dropped_stream_returns_its_permits_in_both_transports() {
        let sources = setup(2, 8);
        for pool in [WorkerPool::new(8, 1), WorkerPool::new(8, 4)] {
            let (executed, _) = run(&pool, &sources, three_selects(), None, None, STREAM).unwrap();
            let held = |ds: &str| 8 - sources[ds].pool().available();
            assert_eq!((held("ds_0"), held("ds_1")), (2, 1));
            drop(executed);
            let give_up = Instant::now() + Duration::from_secs(5);
            while held("ds_0") + held("ds_1") > 0 {
                assert!(Instant::now() < give_up, "a permit never came back");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn first_error_in_group_order_wins_and_later_groups_do_not_start() {
        let sources = setup(2, 8);
        let one_cpu = WorkerPool::new(8, 1);
        let params = shared_params(&[]);
        // Collected, MaxCon 1 makes ds_0's three statements one serial
        // chunk; as cursors, each is a group of its own.
        for (max_con, fetch) in [(1, Fetch::Collect), (8, STREAM)] {
            let before = sources["ds_1"].engine().statements_executed();
            let inputs = vec![
                input("ds_0", "SELECT v FROM t_0"),
                input("ds_0", "SELECT v FROM missing_a"),
                input("ds_0", "SELECT v FROM t_1"),
                input("ds_1", "SELECT v FROM missing_b"),
            ];
            let ran_on_ds0 = sources["ds_0"].engine().statements_executed();
            let params = Arc::clone(&params);
            let err = ExecutorEngine::new(max_con)
                .run_on(&one_cpu, &sources, inputs, params, None, None, None, fetch)
                .err()
                .expect("a unit failed");
            assert!(err.to_string().contains("missing_a"), "{err}");
            // The failing group stopped at its failure; the next never ran.
            assert_eq!(
                sources["ds_0"].engine().statements_executed(),
                ran_on_ds0 + 2
            );
            assert_eq!(sources["ds_1"].engine().statements_executed(), before);
            // Permits came back either way — the opened cursor's too.
            assert_eq!(sources["ds_0"].pool().available(), 8);
            assert_eq!(sources["ds_1"].pool().available(), 8);
        }
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
