//! The traced round: the same ops at the door with one span per statement,
//! then an onion replay of their statements at successively deeper public
//! entry points, the codec on their real frames, and the whole op replayed
//! straight to storage. Every span is recorded here, around calls into
//! public functions; nothing inside the program is instrumented.

use crate::gen::{Class, Op, Stmt};
use crate::procfs;
use crate::reference::{self, Reference};
use crate::round::{Batch, Stage};
use crate::span::{SpanStore, NO_PARENT};
use crate::stats::percentile;
use crate::workload::{AnalyticsOracle, Client, Door, DoorTracer, Workload};
use crate::Metric;
use shard_core::config::ShardingRule;
use shard_core::datasource::DataSource;
use shard_core::executor::{shared_params, ExecutionInput, ExecutorEngine};
use shard_core::merge::merge;
use shard_core::rewrite::{rewrite_for_unit, rewrite_statement, DerivedInfo};
use shard_core::route::{RouteEngine, RouteHint};
use shard_core::{Session, ShardingRuntime};
use shard_jdbc::Connection;
use shard_proxy::protocol::{decode_request, decode_response, encode_request, encode_response};
use shard_proxy::{ProxyClient, ProxyServer, Request, Response};
use shard_sql::{parse_statement, Statement, Value};
use shard_storage::{ExecuteResult, LogRecord, ResultSet, StorageEngine, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per `RowBatch` frame, as `shard_proxy::server` streams them.
const PROXY_ROW_BATCH: usize = 128;
/// Traces of each phase written to the trace file (all are kept in memory
/// and feed the metrics; the file is for reading).
const TRACES_WRITTEN: u32 = 200;
/// The onion and floor phases replay one op for every this many door ops.
const REPLAY_ONE_IN: u64 = 5;
/// How often the replay phases sample the host's speed.
const REPLAY_SAMPLE_EVERY: Duration = Duration::from_millis(20);

type Failure = String;

/// Per-statement samples (nanoseconds, or plain counts) by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<i64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: i64) {
        self.0.entry(name).or_default().push(value);
    }

    fn p50_us(&self, name: &str) -> f64 {
        let mut v = self.0.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        percentile(&v, 50.0).unwrap_or(0) as f64 / 1e3
    }

    fn mean(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<i64>() as f64 / v.len() as f64,
            _ => 0.0,
        }
    }
}

/// The spans and the samples of one traced round: a call timed through here
/// leaves a span and a sample under the same name.
struct Recorder {
    store: SpanStore,
    samples: Samples,
}

impl Recorder {
    fn timed<R>(
        &mut self,
        trace: u32,
        parent: u32,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> (R, i64) {
        let (out, ns) = self.store.timed(trace, parent, name, call);
        self.samples.push(name, ns as i64);
        (out, ns as i64)
    }
}

/// Door-phase tracer: one root span per op, one child per statement.
struct DoorSpans<'a> {
    store: &'a mut SpanStore,
    trace_id: u32,
    op_span: u32,
}

impl DoorTracer for DoorSpans<'_> {
    fn open_op(&mut self) {
        self.op_span = self.store.open(self.trace_id, NO_PARENT, "op");
    }
    fn close_op(&mut self) {
        self.store.close(self.op_span);
        self.trace_id += 1;
    }
    fn open_stmt(&mut self, class: Class) -> u32 {
        self.store.open(self.trace_id, self.op_span, class.name())
    }
    fn close_stmt(&mut self, id: u32) {
        self.store.close(id);
    }
}

/// The public counters read before and after the door phase.
struct Counters {
    statements: u64,
    rows_pulled: u64,
    scan_batches: u64,
    wal_records: u64,
    lock_waits: u64,
    gc_reclaimed: u64,
    parse_hits: u64,
    parse_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    cpu_us: u64,
    ctx_switches: u64,
}

impl Counters {
    fn read(runtime: &ShardingRuntime, engines: &[Arc<StorageEngine>]) -> Counters {
        let sum = |f: fn(&StorageEngine) -> u64| engines.iter().map(|e| f(e)).sum::<u64>();
        let cache = runtime.plan_cache().status();
        Counters {
            statements: sum(StorageEngine::statements_executed),
            rows_pulled: sum(StorageEngine::rows_pulled),
            scan_batches: sum(StorageEngine::scan_batches),
            wal_records: sum(|e| e.wal().len() as u64),
            lock_waits: sum(StorageEngine::lock_waits),
            gc_reclaimed: sum(StorageEngine::mvcc_gc_reclaimed),
            parse_hits: cache.parse.hits,
            parse_misses: cache.parse.misses,
            plan_hits: cache.plan.hits,
            plan_misses: cache.plan.misses,
            cpu_us: procfs::cpu_us(),
            ctx_switches: procfs::voluntary_ctx_switches(),
        }
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The kernel's stages, callable by hand: the rule and topology the runtime
/// holds privately are rebuilt here from its public accessors.
struct Kernel {
    runtime: Arc<ShardingRuntime>,
    rule: ShardingRule,
    hint: RouteHint,
    datasources: HashMap<String, Arc<DataSource>>,
    executor: ExecutorEngine,
}

struct Plan {
    /// Route started, rewrite started, rewrite ended.
    stage_times: [Instant; 3],
    datasources: Vec<String>,
    inputs: Vec<ExecutionInput>,
    info: DerivedInfo,
}

impl Kernel {
    fn new(runtime: &Arc<ShardingRuntime>, table: &str) -> Kernel {
        let names = runtime.datasource_names();
        let mut rule = ShardingRule::new(names.clone());
        rule.add_table_rule(
            runtime
                .table_rule_snapshot(table)
                .expect("the deployment created this rule"),
        )
        .expect("rule names known data sources");
        let datasources = names
            .iter()
            .map(|n| (n.clone(), runtime.datasource(n).expect("registered")))
            .collect();
        Kernel {
            runtime: Arc::clone(runtime),
            rule,
            hint: RouteHint::default(),
            datasources,
            executor: ExecutorEngine::new(runtime.max_connections_per_query() as usize),
        }
    }

    fn engine(&self, datasource: &str) -> &Arc<StorageEngine> {
        self.datasources[datasource].engine()
    }

    /// Route and rewrite one statement into its physical per-unit
    /// statements, noting when each of the two stages started and ended.
    fn plan(&self, stmt: &Statement, params: &[Value]) -> Result<Plan, Failure> {
        let route_started = Instant::now();
        let route = RouteEngine::new(&self.rule, &self.hint)
            .route(stmt, params)
            .map_err(|e| e.to_string())?;
        let rewrite_started = Instant::now();
        let rewrite = rewrite_statement(stmt, &route, params, self.runtime.agg_pushdown())
            .map_err(|e| e.to_string())?;
        let mut inputs = Vec::with_capacity(route.units.len());
        for unit in &route.units {
            inputs.push(ExecutionInput {
                unit: unit.clone(),
                stmt: rewrite_for_unit(&rewrite, unit, &route, params)
                    .map_err(|e| e.to_string())?,
            });
        }
        Ok(Plan {
            stage_times: [route_started, rewrite_started, Instant::now()],
            datasources: route.datasources(),
            inputs,
            info: rewrite.info,
        })
    }
}

/// A read-only transaction around one replayed statement, opened on the
/// engines directly (what the kernel does for an in-transaction statement).
struct Branches(HashMap<String, TxnId>);

impl Branches {
    fn begin(kernel: &Kernel, datasources: &[String]) -> Branches {
        Branches(
            datasources
                .iter()
                .map(|d| (d.clone(), kernel.engine(d).begin()))
                .collect(),
        )
    }

    fn commit(self, kernel: &Kernel) -> Result<(), Failure> {
        for (d, txn) in self.0 {
            kernel.engine(&d).commit(txn).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// The frames the proxy answers `result` with: one `Update`, or a streamed
/// `RowsHeader (RowBatch)* RowsEnd`.
fn response_frames(result: ExecuteResult) -> Vec<Response> {
    match result {
        ExecuteResult::Update { affected } => vec![Response::Update { affected }],
        ExecuteResult::Query(ResultSet { columns, rows }) => {
            let mut frames = vec![Response::RowsHeader { columns }];
            let mut rows = rows.into_iter().peekable();
            while rows.peek().is_some() {
                frames.push(Response::RowBatch {
                    rows: rows.by_ref().take(PROXY_ROW_BATCH).collect(),
                });
            }
            frames.push(Response::RowsEnd);
            frames
        }
    }
}

/// `sql` with each `?` replaced by its parameter as a literal.
fn inline_literals(sql: &str, params: &[Value]) -> String {
    let mut params = params.iter();
    let mut out = String::with_capacity(sql.len() + 32);
    for ch in sql.chars() {
        let param = if ch == '?' { params.next() } else { None };
        match param {
            Some(Value::Str(s)) => {
                out.push('\'');
                out.push_str(&s.replace('\'', "''"));
                out.push('\'');
            }
            Some(v) => out.push_str(&v.to_string()),
            None => out.push(ch),
        }
    }
    out
}

/// One statement through the proxy, inside a transaction when the
/// workload's reads are. These run as a pass of their own, back to back
/// like the closed loop at the door: interleaved with the in-process depths
/// the client thread would use far more CPU than the proxy's worker, which
/// is not the pattern a proxy client makes.
fn roundtrip(
    rec: &mut Recorder,
    proxy: &mut Client,
    in_txn: bool,
    trace: u32,
    s: &Stmt,
) -> Result<i64, Failure> {
    if in_txn {
        proxy.exec("BEGIN", &[])?;
    }
    let (out, ns) = rec.timed(trace, NO_PARENT, "proxy.roundtrip", || {
        proxy.exec(s.sql, &s.params)
    });
    out?;
    if in_txn {
        proxy.exec("COMMIT", &[])?;
    }
    Ok(ns)
}

/// Everything the in-process replay phases call into.
struct Replay {
    rec: Recorder,
    kernel: Kernel,
    jdbc: Connection,
    session: Session,
    /// Reads of this workload run inside a transaction at the door, so they
    /// are replayed inside one at every depth.
    in_txn: bool,
}

impl Replay {
    /// Replay one read statement at each in-process depth, outermost first;
    /// returns what it took through `Connection::execute`.
    fn onion(&mut self, trace: u32, s: &Stmt) -> Result<i64, Failure> {
        let Replay {
            rec,
            kernel,
            jdbc,
            session,
            in_txn,
            ..
        } = self;
        let in_txn = *in_txn;
        let (sql, params) = (s.sql, s.params.as_slice());
        let root = rec.store.open(trace, NO_PARENT, "replay");

        // The in-process doors, each inside its own transaction when the
        // workload's reads are. One untimed execution first: whichever
        // depth ran first would otherwise pay for the caches the previous
        // statement's replay left cold, and look like a layer's cost.
        if in_txn {
            jdbc.exec("BEGIN", &[])?;
        }
        jdbc.exec(sql, params)?;
        let (at_door, jdbc_ns) = rec.timed(trace, root, "jdbc.execute", || jdbc.exec(sql, params));
        let at_door = at_door?;
        if in_txn {
            jdbc.exec("COMMIT", &[])?;
            session.begin().map_err(|e| e.to_string())?;
        }
        let (out, session_ns) = rec.timed(trace, root, "core.session", || {
            session.execute_sql(sql, params)
        });
        out.map_err(|e| e.to_string())?;
        let stmt = kernel
            .runtime
            .plan_cache()
            .parse(sql)
            .map_err(|e| e.to_string())?;
        let (out, execute_ns) = rec.timed(trace, root, "core.execute", || {
            session.execute(&stmt, params)
        });
        out.map_err(|e| e.to_string())?;
        if in_txn {
            session.commit().map_err(|e| e.to_string())?;
        }
        rec.samples.push("jdbc.self", jdbc_ns - session_ns);
        rec.samples
            .push("core.cache.lookup", session_ns - execute_ns);

        // The five stages by hand.
        let stages = rec.store.open(trace, root, "core.stages");
        let (parsed, _) = rec.timed(trace, stages, "core.cache.parse", || {
            kernel.runtime.plan_cache().parse(sql)
        });
        let parsed = parsed.map_err(|e| e.to_string())?;
        let plan = kernel.plan(&parsed, params)?;
        for (name, stage) in ["core.route", "core.rewrite"].into_iter().zip(0..) {
            let [start, end] = [plan.stage_times[stage], plan.stage_times[stage + 1]];
            let ns = rec.store.record(trace, stages, name, start, end);
            rec.samples.push(name, ns as i64);
        }
        rec.samples
            .push("core.route.units", plan.inputs.len() as i64);
        let physical = plan.inputs.clone();
        let branches = in_txn.then(|| Branches::begin(kernel, &plan.datasources));
        let (executed, executor_ns) = rec.timed(trace, stages, "core.executor", || {
            kernel.executor.execute_with_deadline(
                &kernel.datasources,
                plan.inputs,
                shared_params(params),
                branches.as_ref().map(|b| &b.0),
                None,
                false,
                None,
            )
        });
        if let Some(b) = branches {
            b.commit(kernel)?;
        }
        let shard_results: Vec<ResultSet> = executed
            .map_err(|e| e.to_string())?
            .0
            .into_iter()
            .map(ExecuteResult::query)
            .collect();
        rec.samples.push(
            "core.merge.input_rows",
            shard_results.iter().map(ResultSet::len).sum::<usize>() as i64,
        );
        let (merged, _) = rec.timed(trace, stages, "core.merge", || {
            merge(shard_results, &plan.info)
        });
        rec.samples.push(
            "core.merge.output_rows",
            merged.map_err(|e| e.to_string())?.len() as i64,
        );
        rec.store.close(stages);

        // Each physical statement straight to its engine.
        let units = rec.store.open(trace, root, "storage.units");
        let branches = in_txn.then(|| Branches::begin(kernel, &plan.datasources));
        let mut storage_ns = 0;
        for input in &physical {
            let ds = input.unit.datasource.as_str();
            let txn = branches.as_ref().map(|b| b.0[ds]);
            let (out, ns) = rec.timed(trace, units, "storage.execute", || {
                kernel.engine(ds).execute(&input.stmt, params, txn)
            });
            out.map_err(|e| e.to_string())?;
            storage_ns += ns;
        }
        if let Some(b) = branches {
            b.commit(kernel)?;
        }
        rec.store.close(units);
        rec.samples
            .push("core.kernel_self", execute_ns - storage_ns);
        rec.samples
            .push("core.executor.dispatch", executor_ns - storage_ns);

        // The wire codec on this statement's real frames.
        let codec = rec.store.open(trace, root, "proxy.codec");
        let request = Request::Query {
            sql: sql.to_string(),
            params: params.to_vec(),
        };
        let (frame, mut codec_ns) = rec.timed(trace, codec, "proxy.encode_request", || {
            encode_request(&request).freeze()
        });
        let mut bytes = frame.len() + 4;
        let (decoded, ns) = rec.timed(trace, codec, "proxy.decode_request", || {
            decode_request(frame)
        });
        decoded.map_err(|e| e.to_string())?;
        codec_ns += ns;
        for response in response_frames(at_door) {
            let (frame, ns) = rec.timed(trace, codec, "proxy.encode_response", || {
                encode_response(&response).freeze()
            });
            codec_ns += ns;
            bytes += frame.len() + 4;
            let (decoded, ns) = rec.timed(trace, codec, "proxy.decode_response", || {
                decode_response(frame)
            });
            decoded.map_err(|e| e.to_string())?;
            codec_ns += ns;
        }
        rec.store.close(codec);
        rec.samples.push("proxy.codec", codec_ns);
        rec.samples.push("proxy.bytes", bytes as i64);

        // The parser alone: the cached text, and the text a literal-SQL
        // client would send (a parse-cache miss every time).
        let (parsed, _) = rec.timed(trace, root, "sql.parse", || parse_statement(sql));
        parsed.map_err(|e| e.to_string())?;
        let literal = inline_literals(sql, params);
        let (parsed, _) = rec.timed(trace, root, "sql.parse_literal", || {
            parse_statement(&literal)
        });
        parsed.map_err(|e| e.to_string())?;
        rec.store.close(root);
        Ok(jdbc_ns)
    }

    /// Replay a whole op as physical statements straight to the owning
    /// engines, with the XA calls the kernel would make: the floor under
    /// everything above storage.
    fn floor(&mut self, trace: u32, op: &Op) -> Result<(), Failure> {
        let Replay {
            rec: Recorder { store, samples },
            kernel,
            in_txn,
            ..
        } = self;
        // Spans only: a floor `storage.execute` must not count among the
        // onion's samples of that name.
        let root = store.open(trace, NO_PARENT, "floor.op");
        let xid = format!("floor-{trace}");
        let mut branches: Vec<(&Arc<StorageEngine>, TxnId)> = Vec::new();
        let mut floor_ns = 0;
        for s in &op.stmts {
            match s.class {
                Class::Begin => {}
                Class::Commit => {
                    for (engine, txn) in &branches {
                        let (out, ns) = store.timed(trace, root, "storage.prepare", || {
                            engine.prepare(*txn, &xid)
                        });
                        out.map_err(|e| e.to_string())?;
                        floor_ns += ns;
                    }
                    for (engine, txn) in branches.drain(..) {
                        let (out, ns) = store.timed(trace, root, "storage.commit_prepared", || {
                            engine.commit_prepared(txn)
                        });
                        out.map_err(|e| e.to_string())?;
                        floor_ns += ns;
                    }
                }
                _ => {
                    let stmt = kernel
                        .runtime
                        .plan_cache()
                        .parse(s.sql)
                        .map_err(|e| e.to_string())?;
                    let plan = kernel.plan(&stmt, &s.params)?;
                    for input in &plan.inputs {
                        let engine = kernel.engine(&input.unit.datasource);
                        let txn = if *in_txn {
                            let open = branches.iter().find(|(e, _)| Arc::ptr_eq(e, engine));
                            Some(match open {
                                Some((_, txn)) => *txn,
                                None => {
                                    let (txn, ns) =
                                        store
                                            .timed(trace, root, "storage.begin", || engine.begin());
                                    floor_ns += ns;
                                    branches.push((engine, txn));
                                    txn
                                }
                            })
                        } else {
                            None
                        };
                        let (out, ns) = store.timed(trace, root, "storage.execute", || {
                            engine.execute(&input.stmt, &s.params, txn)
                        });
                        out.map_err(|e| e.to_string())?;
                        floor_ns += ns;
                    }
                }
            }
        }
        store.close(root);
        samples.push("storage.floor", floor_ns as i64);
        Ok(())
    }
}

/// XA prepare records the engines logged from WAL position `from` on.
fn prepares_since(engines: &[Arc<StorageEngine>], from: &[usize]) -> u64 {
    engines
        .iter()
        .zip(from)
        .map(|(e, from)| {
            e.wal().snapshot()[*from..]
                .iter()
                .filter(|r| matches!(r, LogRecord::Prepare { .. }))
                .count() as u64
        })
        .sum()
}

/// What the traced round produced.
pub struct Traced {
    /// The door phase: the same ops as the first `door_ops` of an untraced
    /// round, with spans.
    pub door: Batch,
    /// Failures outside the door phase (warm-up, replays, table check).
    pub other_failed: u64,
    /// Every per-layer metric this round measures.
    pub metrics: Vec<Metric>,
    /// The trace file's contents.
    pub trace_json: String,
}

pub fn traced_round(
    workload: Workload,
    seed: u64,
    oracle: Option<&Arc<AnalyticsOracle>>,
    warm_up_ops: u64,
    door_ops: u64,
    cap: Duration,
    reference: &mut Reference,
) -> Traced {
    let mut stage = Stage::build(workload, seed, oracle, reference);
    let mut other_failed = stage.warm_up(warm_up_ops, cap, reference);
    let runtime = Arc::clone(stage.deployment.datasource.runtime());
    let engines = stage.deployment.engines.clone();
    let replay_ops = (door_ops / REPLAY_ONE_IN).max(1);
    let mut store =
        SpanStore::with_capacity((door_ops as usize + 2 * replay_ops as usize) * (1 + 20));
    let mut samples = Samples::default();

    // Door phase, bracketed by the public counters.
    let wal_before: Vec<usize> = engines.iter().map(|e| e.wal().len()).collect();
    let before = Counters::read(&runtime, &engines);
    let door = stage.run(
        door_ops,
        cap,
        &mut DoorSpans {
            store: &mut store,
            trace_id: 0,
            op_span: NO_PARENT,
        },
        reference,
    );
    // Per-class statement times come from the door spans afterwards, so the
    // door phase itself does nothing per statement but open and close one.
    for span in store.spans().iter().filter(|s| s.parent != NO_PARENT) {
        samples.push(span.name, span.duration_ns() as i64);
    }
    let after = Counters::read(&runtime, &engines);
    let peak_rss_mb = procfs::peak_rss_mb();
    let versions_live: u64 = engines.iter().map(|e| e.mvcc_versions_live()).sum();
    let commits = samples.0.get("commit").map_or(0, Vec::len) as u64;
    let branches_per_commit = if commits == 0 {
        0.0
    } else {
        prepares_since(&engines, &wal_before) as f64 / commits as f64
    };

    // Replay phases, continuing the op stream.
    let mut jdbc = stage.deployment.connection();
    let mut session = runtime.session();
    for sql in workload.session_setup() {
        jdbc.exec(sql, &[]).expect("session setup");
        session.execute_sql(sql, &[]).expect("session setup");
    }
    let mut replay = Replay {
        rec: Recorder { store, samples },
        kernel: Kernel::new(&runtime, workload.table().name()),
        jdbc,
        session,
        in_txn: workload == Workload::ReadWriteXaJdbc,
    };
    let onion_first = door_ops as u32;
    let floor_first = onion_first + replay_ops as u32;
    let mut replay_failed = 0;
    let mut report = |what: &str, outcome: Result<(), Failure>| {
        if let Err(e) = outcome {
            replay_failed += 1;
            if replay_failed <= 5 {
                eprintln!("{what} failed: {e}");
            }
        }
    };
    let onion_ops: Vec<Op> = (0..replay_ops).map(|_| stage.next_op().clone()).collect();
    let reads = || {
        onion_ops.iter().zip(onion_first..).flat_map(|(op, trace)| {
            op.stmts
                .iter()
                .filter(|s| s.class.is_read())
                .map(move |s| (trace, s))
        })
    };
    // The replay phases are scaled as a whole, by reference samples taken
    // between their statements every so often.
    let mut replay_reference_ns = vec![reference.sample_ns()];
    let mut last_sample = Instant::now();
    let mut sample_if_due = |samples: &mut Vec<f64>| {
        if last_sample.elapsed() >= REPLAY_SAMPLE_EVERY {
            samples.push(reference.sample_ns());
            last_sample = Instant::now();
        }
    };
    let mut jdbc_ns = Vec::new();
    for (trace, s) in reads() {
        sample_if_due(&mut replay_reference_ns);
        let outcome = replay.onion(trace, s);
        jdbc_ns.push(outcome.as_ref().ok().copied());
        report("onion replay", outcome.map(|_| ()));
    }
    for i in 0..replay_ops as u32 {
        sample_if_due(&mut replay_reference_ns);
        let op = stage.next_op().clone();
        report("floor replay", replay.floor(floor_first + i, &op));
        stage.checker.committed(&op);
    }
    // The proxy pass comes last, and a JDBC workload's deployment gets its
    // proxy only now: an idle `ProxyServer` polls its listener every
    // millisecond on this same CPU, which alone makes in-process scatter
    // statements ~7 % slower (README "Findings").
    let late_proxy;
    let proxy_addr = match &stage.deployment.proxy {
        Some(proxy) => proxy.addr(),
        None => {
            late_proxy = ProxyServer::start(Arc::clone(&runtime), 0)
                .expect("start proxy on an ephemeral loopback port");
            late_proxy.addr()
        }
    };
    let mut proxy = Client::Proxy(ProxyClient::connect(proxy_addr).expect("connect to proxy"));
    for sql in workload.session_setup() {
        proxy.exec(sql, &[]).expect("session setup");
    }
    let in_txn = replay.in_txn;
    for ((trace, s), jdbc_ns) in reads().zip(jdbc_ns) {
        sample_if_due(&mut replay_reference_ns);
        let outcome = roundtrip(&mut replay.rec, &mut proxy, in_txn, trace, s);
        if let (Ok(roundtrip_ns), Some(jdbc_ns)) = (&outcome, jdbc_ns) {
            replay.rec.samples.push("proxy.tax", roundtrip_ns - jdbc_ns);
        }
        report("proxy replay", outcome.map(|_| ()));
    }
    other_failed += replay_failed + stage.check_table();
    let Recorder { store, samples } = replay.rec;

    replay_reference_ns.push(reference.sample_ns());
    let replay_speed = reference::speed(&replay_reference_ns);
    let door_speed = reference::speed(&door.reference_ns);
    let ops = door_ops as f64;
    let per_op = |a: u64, b: u64| (a - b) as f64 / ops;
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };
    for (metric, sample) in [
        ("proxy.roundtrip_us", "proxy.roundtrip"),
        ("proxy.codec_us", "proxy.codec"),
        ("proxy.tax_us", "proxy.tax"),
        ("jdbc.execute_us", "jdbc.execute"),
        ("jdbc.self_us", "jdbc.self"),
        ("sql.parse_us", "sql.parse"),
        ("sql.parse_literal_us", "sql.parse_literal"),
        ("core.cache.lookup_us", "core.cache.lookup"),
        ("core.route.route_us", "core.route"),
        ("core.rewrite.rewrite_us", "core.rewrite"),
        ("core.executor.execute_us", "core.executor"),
        ("core.executor.dispatch_us", "core.executor.dispatch"),
        ("core.merge.merge_us", "core.merge"),
        ("core.session_us", "core.session"),
        ("core.kernel_self_us", "core.kernel_self"),
        ("storage.execute_us", "storage.execute"),
        ("storage.floor_us_per_op", "storage.floor"),
    ] {
        put(metric, samples.p50_us(sample) * replay_speed, "us");
    }
    for class in Class::ALL {
        put(
            &format!("jdbc.stmt.{}_us", class.name()),
            samples.p50_us(class.name()) * door_speed,
            "us",
        );
    }
    put("proxy.bytes_per_stmt", samples.mean("proxy.bytes"), "count");
    put(
        "core.cache.parse_hit_ratio",
        ratio(
            after.parse_hits - before.parse_hits,
            after.parse_misses - before.parse_misses,
        ),
        "ratio",
    );
    put(
        "core.cache.plan_hit_ratio",
        ratio(
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        ),
        "ratio",
    );
    put(
        "core.route.units_per_stmt",
        samples.mean("core.route.units"),
        "count",
    );
    put(
        "core.merge.input_rows_per_stmt",
        samples.mean("core.merge.input_rows"),
        "count",
    );
    put(
        "core.merge.output_rows_per_stmt",
        samples.mean("core.merge.output_rows"),
        "count",
    );
    put(
        "core.transaction.branches_per_commit",
        branches_per_commit,
        "count",
    );
    put(
        "storage.stmts_per_op",
        per_op(after.statements, before.statements),
        "count",
    );
    put(
        "storage.rows_pulled_per_op",
        per_op(after.rows_pulled, before.rows_pulled),
        "count",
    );
    put(
        "storage.scan_batches_per_op",
        per_op(after.scan_batches, before.scan_batches),
        "count",
    );
    put(
        "storage.wal_records_per_op",
        per_op(after.wal_records, before.wal_records),
        "count",
    );
    put(
        "storage.lock_waits",
        (after.lock_waits - before.lock_waits) as f64,
        "count",
    );
    put(
        "storage.mvcc_versions_live_end",
        versions_live as f64,
        "count",
    );
    put(
        "storage.mvcc_gc_reclaimed_per_op",
        per_op(after.gc_reclaimed, before.gc_reclaimed),
        "count",
    );
    put(
        "process.cpu_us_per_op",
        per_op(after.cpu_us, before.cpu_us) * door_speed,
        "us",
    );
    put(
        "process.ctx_switches_per_op",
        per_op(after.ctx_switches, before.ctx_switches),
        "count",
    );
    put("process.peak_rss_mb", peak_rss_mb, "MiB");

    let written = |first: u32| first..first + TRACES_WRITTEN;
    let trace_json = store.to_json(|t| {
        written(0).contains(&t)
            || written(onion_first).contains(&t)
            || written(floor_first).contains(&t)
    });
    Traced {
        door,
        other_failed,
        metrics,
        trace_json,
    }
}
