//! The sharding runtime: owns the configuration, data sources, governor
//! registry and transaction services; [`Session`]s execute SQL through it.
//!
//! This is the composition point of the paper's Fig 2: adaptors (JDBC,
//! Proxy) create sessions; sessions drive the SQL engine
//! (parse → route → rewrite → execute → merge) with features and
//! distributed transactions plugged in.

use crate::algorithm::AlgorithmRegistry;
use crate::cache::{ParsedStatement, SqlPlanCache, StatementFacts};
use crate::config::{ShardingRule, TableRule};
use crate::datasource::DataSource;
use crate::error::{ErrorClass, KernelError, Result};
use crate::executor::{
    shared_params, Executed, ExecutionInput, ExecutionReport, ExecutorEngine, Fetch, WorkerPool,
};
use crate::feature::scaling::{DmlWriteGuard, ReshardMirror};
use crate::feature::{
    EncryptRule, HintManager, KeyGenerator, ReadWriteSplitRule, ReshardManager, ShadowRule,
    SnowflakeGenerator,
};
use crate::governor::{
    ConfigRegistry, FailoverCoordinator, HealthDetector, HealthLoopGuard, SharedGroups,
};
use crate::merge::{merge_explain, merge_stream, MergedStream, MergerKind};
use crate::metadata::LogicalSchemas;
use crate::obs::{
    ActiveTrace, IncidentKind, KernelMetrics, MetricsRegistry, SloMonitor, SlowQueryLog, Stage,
    StatementTrace, TraceCollector,
};
use crate::plan::{plan, Bound, Plan};
use crate::rewrite::DerivedInfo;
use crate::route::{
    gsi, ordinals_for_condition, GlobalIndex, GsiMaintOp, GsiRegistry, RouteEngine, RouteKind,
    RouteResult, RouteStrategy, ShardingCondition,
};
use crate::transaction::xa::{commit_all, two_phase_commit_observed, XaPhaseObserver};
use crate::transaction::{base, TransactionCoordinator, TransactionType, XaLog, XaRecoveryManager};
use parking_lot::RwLock;
use shard_sql::ast::{Expr, Statement, StatementCategory};
use shard_sql::Value;
use shard_storage::{batch_admissible, ExecuteResult, ResultSet, StorageEngine, TxnId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Shared kernel state.
pub struct ShardingRuntime {
    pub(crate) rule: RwLock<ShardingRule>,
    /// Copy-on-write snapshot: readers clone the `Arc` (no map clone per
    /// statement); topology changes build a new map and swap the `Arc`.
    pub(crate) datasources: RwLock<Arc<HashMap<String, Arc<DataSource>>>>,
    pub(crate) schemas: LogicalSchemas,
    pub(crate) registry: Arc<ConfigRegistry>,
    pub(crate) algorithms: RwLock<AlgorithmRegistry>,
    pub(crate) encrypt: RwLock<EncryptRule>,
    pub(crate) shadow: RwLock<Option<ShadowRule>>,
    /// Shared with any [`FailoverCoordinator`] the governor wires up, so a
    /// promotion is live for the very next routed read.
    pub(crate) rw_split: SharedGroups,
    /// Optional request throttle (paper §IV-C traffic governance).
    pub(crate) throttle: RwLock<Option<crate::feature::Throttle>>,
    pub(crate) xa_log: XaLog,
    pub(crate) tc: TransactionCoordinator,
    keygen: Arc<dyn KeyGenerator>,
    next_xid: AtomicU64,
    /// Two-level parse + route-plan cache shared by every session.
    pub(crate) plan_cache: SqlPlanCache,
    /// The long-lived automatic execution engine (MaxCon updates apply live).
    pub(crate) executor: ExecutorEngine,
    /// Desired group-commit window (µs), applied to every engine
    /// (`SET group_commit_window_us`).
    group_commit_window_us: AtomicU64,
    /// Global secondary indexes (route narrowing for non-shard-key lookups).
    pub(crate) gsi: GsiRegistry,
    /// `SET agg_pushdown = off`: ship raw rows to the merger instead of
    /// per-shard partial aggregates (the ablation baseline).
    agg_pushdown: std::sync::atomic::AtomicBool,
    /// Online-resharding jobs (state machines, generation claims).
    pub(crate) reshard: ReshardManager,
    /// DML statements currently in flight (plan through execution,
    /// including any dual-write mirror apply). The reshard fence drains
    /// this to zero before swapping the rule.
    pub(crate) dml_in_flight: Arc<AtomicU64>,
    /// `SET reshard_fence_timeout_ms`: bound on the cutover write fence
    /// (and the initial snapshot barrier).
    reshard_fence_timeout_ms: AtomicU64,
    /// Central instrument registry (`SHOW METRICS`, proxy `/metrics`).
    pub(crate) metrics_registry: Arc<MetricsRegistry>,
    /// The kernel's named instruments (hot-path handles into the registry).
    pub(crate) metrics: KernelMetrics,
    /// Ring buffer behind `SHOW SLOW_QUERIES`.
    pub(crate) slow_log: SlowQueryLog,
    /// Cross-layer span collector ring + flight recorder
    /// (`SHOW TRACE`, `SHOW INCIDENTS`, proxy `/traces`).
    pub(crate) collector: Arc<TraceCollector>,
    /// SLO burn-rate monitor (`SET slo_read_p99_ms`, `SET slo_error_pct`).
    pub(crate) slo: Arc<SloMonitor>,
}

impl ShardingRuntime {
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    pub fn registry(&self) -> &Arc<ConfigRegistry> {
        &self.registry
    }

    pub fn schemas(&self) -> &LogicalSchemas {
        &self.schemas
    }

    pub fn xa_log(&self) -> &XaLog {
        &self.xa_log
    }

    /// The two-level SQL plan cache (stats, sizing, invalidation).
    pub fn plan_cache(&self) -> &SqlPlanCache {
        &self.plan_cache
    }

    /// The central metrics registry every layer reports into.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics_registry
    }

    /// The kernel's named instruments.
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// The slow-query ring buffer (`SHOW SLOW_QUERIES`).
    pub fn slow_query_log(&self) -> &SlowQueryLog {
        &self.slow_log
    }

    /// The trace collector ring + flight recorder.
    pub fn trace_collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// The SLO burn-rate monitor.
    pub fn slo_monitor(&self) -> &Arc<SloMonitor> {
        &self.slo
    }

    pub fn datasource(&self, name: &str) -> Result<Arc<DataSource>> {
        self.datasources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| KernelError::Config(format!("unknown data source '{name}'")))
    }

    /// Cheap per-statement snapshot of the data source topology: clones one
    /// `Arc`, never the map.
    pub(crate) fn datasource_snapshot(&self) -> Arc<HashMap<String, Arc<DataSource>>> {
        Arc::clone(&self.datasources.read())
    }

    pub fn datasource_names(&self) -> Vec<String> {
        self.rule.read().datasource_names.clone()
    }

    pub fn add_datasource(&self, name: &str, engine: Arc<StorageEngine>, pool: usize) {
        // A late-joining source inherits the runtime's commit window.
        engine.set_group_commit_window(self.group_commit_window_us.load(Ordering::Relaxed));
        let ds = Arc::new(DataSource::new(name, engine, pool));
        ds.set_flight_recorder(Arc::clone(&self.collector));
        {
            // Copy-on-write: topology changes are rare, reads are per
            // statement.
            let mut guard = self.datasources.write();
            let mut map = HashMap::clone(&guard);
            map.insert(name.to_string(), ds);
            *guard = Arc::new(map);
        }
        self.reconfigure(|rule| {
            if !rule.datasource_names.iter().any(|d| d == name) {
                rule.datasource_names.push(name.to_string());
                if rule.default_datasource.is_none() {
                    rule.default_datasource = Some(name.to_string());
                }
            }
        });
        self.registry
            .set(&format!("resources/{name}"), "registered");
    }

    pub fn drop_datasource(&self, name: &str) -> Result<()> {
        let in_use = self
            .rule
            .read()
            .table_rules()
            .any(|r| r.datasources().iter().any(|d| d == name));
        if in_use {
            return Err(KernelError::Config(format!(
                "resource '{name}' is referenced by sharding rules"
            )));
        }
        {
            let mut guard = self.datasources.write();
            let mut map = HashMap::clone(&guard);
            map.remove(name);
            *guard = Arc::new(map);
        }
        self.reconfigure(|rule| {
            rule.datasource_names.retain(|d| d != name);
            if rule.default_datasource.as_deref() == Some(name) {
                rule.default_datasource = rule.datasource_names.first().cloned();
            }
        });
        self.registry.delete(&format!("resources/{name}"));
        Ok(())
    }

    /// Change what statements are planned from — the sharding rule, and the
    /// feature configuration kept beside it — and invalidate every cached
    /// plan, *before* the rule's write guard is released: a statement reads
    /// the generation under the read guard, so it can never pair the new
    /// configuration with the generation (and the plans) of the old one.
    pub(crate) fn reconfigure<T>(&self, change: impl FnOnce(&mut ShardingRule) -> T) -> T {
        let mut rule = self.rule.write();
        let out = change(&mut rule);
        self.plan_cache.bump_generation();
        out
    }

    /// Set the shadow rule (None disables the feature).
    pub fn set_shadow(&self, shadow: Option<ShadowRule>) {
        self.reconfigure(|_| *self.shadow.write() = shadow);
    }

    pub fn set_encrypt(&self, encrypt: EncryptRule) {
        self.reconfigure(|_| *self.encrypt.write() = encrypt);
    }

    pub fn add_rw_split(&self, rule: ReadWriteSplitRule) {
        self.reconfigure(|_| {
            self.rw_split
                .write()
                .insert(rule.logical_name.clone(), rule)
        });
    }

    /// Cap the runtime's admitted statements per second (0 removes the cap).
    pub fn set_throttle(&self, requests_per_second: u64) {
        let mut guard = self.throttle.write();
        *guard = if requests_per_second == 0 {
            None
        } else {
            Some(crate::feature::Throttle::new(requests_per_second))
        };
    }

    pub fn set_max_connections_per_query(&self, n: u64) {
        self.executor.set_max_connections(n.max(1) as usize);
        self.registry
            .set("props/max_connections_per_query", n.to_string());
    }

    pub fn max_connections_per_query(&self) -> u64 {
        self.executor.max_connections() as u64
    }

    /// Group-commit coalescing window in microseconds on every registered
    /// engine (`SET group_commit_window_us`; 0 = flush per commit).
    pub fn set_group_commit_window_us(&self, micros: u64) {
        self.group_commit_window_us.store(micros, Ordering::Relaxed);
        for ds in self.datasource_snapshot().values() {
            ds.engine().set_group_commit_window(micros);
        }
    }

    pub fn group_commit_window_us(&self) -> u64 {
        self.group_commit_window_us.load(Ordering::Relaxed)
    }

    /// The runtime's global secondary indexes.
    pub fn gsi(&self) -> &GsiRegistry {
        &self.gsi
    }

    /// Toggle partial-aggregate pushdown (`SET agg_pushdown`; on by
    /// default, off = merge-side row-streaming ablation arm).
    pub fn set_agg_pushdown(&self, enabled: bool) {
        self.agg_pushdown.store(enabled, Ordering::Relaxed);
    }

    pub fn agg_pushdown(&self) -> bool {
        self.agg_pushdown.load(Ordering::Relaxed)
    }

    /// Snapshot of a table rule (scaling, diagnostics).
    pub fn table_rule_snapshot(&self, logic_table: &str) -> Option<crate::config::TableRule> {
        self.rule.read().table_rule(logic_table).cloned()
    }

    /// Instantiate a sharding algorithm from the runtime's registry.
    pub fn create_algorithm(
        &self,
        type_name: &str,
        props: &crate::algorithm::Props,
    ) -> Result<Arc<dyn crate::algorithm::ShardingAlgorithm>> {
        self.algorithms.read().create(type_name, props)
    }

    /// Register a custom sharding algorithm factory (the SPI extension
    /// point, usable without DistSQL).
    pub fn register_algorithm(
        &self,
        type_name: &str,
        factory: impl Fn(&crate::algorithm::Props) -> Result<Arc<dyn crate::algorithm::ShardingAlgorithm>>
            + Send
            + Sync
            + 'static,
    ) {
        self.algorithms.write().register(type_name, factory);
    }

    /// Atomically replace a table rule (the scaling switch-over).
    pub fn replace_table_rule(&self, rule: crate::config::TableRule) -> Result<()> {
        let logic = rule.logic_table.clone();
        let nodes = rule.data_nodes.len();
        let column = rule.sharding_column.clone();
        let algo = rule.algorithm_type.clone();
        self.reconfigure(|rules| {
            let _ = rules.drop_table_rule(&logic);
            rules.add_table_rule(rule)
        })?;
        self.registry.set(
            &format!("rules/sharding/{logic}"),
            format!("column={column}, type={algo}, nodes={nodes}"),
        );
        Ok(())
    }

    /// The online-resharding coordinator state (`SHOW RESHARD STATUS`,
    /// `CANCEL RESHARD`).
    pub fn reshard_manager(&self) -> &ReshardManager {
        &self.reshard
    }

    /// Bound on the reshard write fence, in milliseconds.
    pub fn reshard_fence_timeout_ms(&self) -> u64 {
        self.reshard_fence_timeout_ms.load(Ordering::Relaxed)
    }

    pub fn set_reshard_fence_timeout_ms(&self, ms: u64) {
        self.reshard_fence_timeout_ms
            .store(ms.max(1), Ordering::Relaxed);
    }

    pub fn next_xid(&self) -> String {
        format!("xid-{}", self.next_xid.fetch_add(1, Ordering::SeqCst))
    }

    /// The live read-write-split group map (shared with failover wiring).
    pub fn rw_split_groups(&self) -> SharedGroups {
        Arc::clone(&self.rw_split)
    }

    /// Build the resilience governor: a [`HealthDetector`] over every
    /// registered data source whose status changes drive a
    /// [`FailoverCoordinator`] over the runtime's *live* rw-split groups —
    /// a broken primary is promoted away and the rewired topology is what
    /// the very next statement routes against. Chaos tests drive
    /// [`HealthDetector::probe_once`] manually; production callers use
    /// [`ShardingRuntime::start_health_governor`].
    pub fn health_detector(self: &Arc<Self>) -> HealthDetector {
        let snapshot = self.datasource_snapshot();
        let datasources: Vec<Arc<DataSource>> = snapshot.values().cloned().collect();
        let coordinator = FailoverCoordinator::with_groups(
            Arc::clone(&self.registry),
            Arc::clone(&self.rw_split),
        );
        let collector = Arc::clone(&self.collector);
        HealthDetector::new(Arc::clone(&self.registry), datasources).on_event(move |event| {
            if event.healthy {
                coordinator.on_source_up(&event.datasource);
            } else {
                let promotions = coordinator.on_source_down(&event.datasource, &|name| {
                    snapshot.get(name).is_some_and(|ds| ds.ping())
                });
                // Each promotion leaves a trace in the collector ring so
                // `SHOW TRACE` can answer "why did reads move?" after the
                // fact; failovers are rare, so always keep them.
                if collector.enabled() {
                    for p in promotions {
                        let promotion = format!("{} -> {}", p.old_primary, p.new_primary);
                        let trace = collector.start(
                            &format!("failover:{}", p.group),
                            ("failover_promote", promotion),
                            format!("<failover of '{}'>", event.datasource),
                            Instant::now(),
                            true,
                        );
                        trace.finish(None, None);
                    }
                }
            }
        })
    }

    /// Start the background health/failover loop.
    pub fn start_health_governor(self: &Arc<Self>, interval: Duration) -> HealthLoopGuard {
        self.health_detector().start(interval)
    }

    /// Run XA recovery over every registered data source (startup /
    /// periodic job, paper §IV-B).
    pub fn recover_xa(&self) -> usize {
        let engines: Vec<Arc<StorageEngine>> = self
            .datasources
            .read()
            .values()
            .map(|ds| Arc::clone(ds.engine()))
            .collect();
        XaRecoveryManager::new(self.xa_log.clone()).recover(&engines)
    }

    /// Open a session (one application connection).
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            runtime: Arc::clone(self),
            txn_type: TransactionType::Local,
            txn: None,
            statement_timeout: None,
            last_report: None,
            last_merger: None,
            last_route_strategy: None,
            trace_enabled: false,
            active: None,
            last_trace: None,
            tick: 0,
            trace_origin: None,
        }
    }
}

/// Register the polled gauges that mirror storage- and governor-side
/// counters into the runtime's registry. Closures hold a `Weak` reference —
/// the registry must not keep a dropped runtime alive.
fn register_runtime_gauges(runtime: &Arc<ShardingRuntime>) {
    let registry = Arc::clone(&runtime.metrics_registry);
    // Sum a per-engine counter over the current topology snapshot.
    fn engine_sum(
        registry: &MetricsRegistry,
        runtime: &Arc<ShardingRuntime>,
        name: &str,
        help: &str,
        f: impl Fn(&StorageEngine) -> u64 + Send + Sync + 'static,
    ) {
        let weak = Arc::downgrade(runtime);
        registry.gauge(name, help, move || {
            weak.upgrade()
                .map(|rt| {
                    rt.datasource_snapshot()
                        .values()
                        .map(|ds| f(ds.engine()))
                        .sum()
                })
                .unwrap_or(0)
        });
    }
    engine_sum(
        &registry,
        runtime,
        "storage_statements_total",
        "statements executed by storage engines",
        |e| e.statements_executed(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_rows_pulled_total",
        "rows pulled through streaming scan cursors",
        |e| e.rows_pulled(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_fetch_steps_total",
        "row chains the scan leaves visited to fetch the rows pulled",
        |e| e.fetch_steps(),
    );
    engine_sum(
        &registry,
        runtime,
        "scan_batches_total",
        "columnar batches fetched by the vectorized scan path",
        |e| e.scan_batches(),
    );
    engine_sum(
        &registry,
        runtime,
        "scan_batch_rows_total",
        "rows delivered inside columnar scan batches",
        |e| e.scan_batch_rows(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_group_commits_total",
        "explicit commits that joined a group-commit epoch",
        |e| e.group_committer().commits(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_wal_flushes_total",
        "WAL durability flushes (group commit amortizes commits over these)",
        |e| e.group_committer().flushes(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_lock_waits_total",
        "row-lock acquisitions that blocked behind another transaction",
        |e| e.lock_waits(),
    );
    engine_sum(
        &registry,
        runtime,
        "lock_wait_write_total",
        "write-write lock conflicts that blocked (reads never wait under MVCC)",
        |e| e.lock_waits_write(),
    );
    engine_sum(
        &registry,
        runtime,
        "mvcc_versions_live",
        "row versions currently held in MVCC version chains",
        |e| e.mvcc_versions_live(),
    );
    engine_sum(
        &registry,
        runtime,
        "mvcc_gc_reclaimed_total",
        "row versions reclaimed by MVCC garbage collection",
        |e| e.mvcc_gc_reclaimed(),
    );
    engine_sum(
        &registry,
        runtime,
        "storage_wal_records",
        "records currently in the write-ahead logs",
        |e| e.wal().len() as u64,
    );
    let weak = Arc::downgrade(runtime);
    registry.gauge(
        "reshard_lag_rows",
        "rows the new layout trails the old across live resharding jobs",
        move || {
            weak.upgrade()
                .map(|rt| rt.reshard.lag_rows_total())
                .unwrap_or(0)
        },
    );
    let weak = Arc::downgrade(runtime);
    registry.gauge(
        "breaker_transitions_total",
        "circuit-breaker state transitions across all data sources",
        move || {
            weak.upgrade()
                .map(|rt| {
                    rt.datasource_snapshot()
                        .values()
                        .map(|ds| ds.breaker().transitions())
                        .sum()
                })
                .unwrap_or(0)
        },
    );
    let weak = Arc::downgrade(runtime);
    registry.gauge(
        "breaker_not_closed",
        "data sources whose circuit breaker is currently open or half-open",
        move || {
            weak.upgrade()
                .map(|rt| {
                    rt.datasource_snapshot()
                        .values()
                        .filter(|ds| ds.breaker().state() != crate::governor::BreakerState::Closed)
                        .count() as u64
                })
                .unwrap_or(0)
        },
    );
    // Collector and SLO gauges capture their own Arcs: both structs are
    // owned by the runtime but carry no reference back to it, so this
    // creates no cycle.
    let collector = Arc::clone(&runtime.collector);
    registry.gauge(
        "traces_kept_total",
        "traces kept in the collector ring (including overwritten ones)",
        move || collector.kept_total(),
    );
    let collector = Arc::clone(&runtime.collector);
    registry.gauge(
        "trace_incidents_total",
        "flight-recorder incidents captured (including evicted ones)",
        move || collector.incidents_total(),
    );
    let slo = Arc::clone(&runtime.slo);
    registry.gauge(
        "slo_fast_burn_x100",
        "fast-window (10s) SLO burn rate x100 (100 = burning budget at 1x)",
        move || slo.burn_rates_x100().0,
    );
    let slo = Arc::clone(&runtime.slo);
    registry.gauge(
        "slo_slow_burn_x100",
        "slow-window (60s) SLO burn rate x100 (100 = burning budget at 1x)",
        move || slo.burn_rates_x100().1,
    );
}

#[derive(Default)]
pub struct RuntimeBuilder {
    datasources: Vec<(String, Arc<StorageEngine>, usize)>,
    max_connections_per_query: Option<u64>,
    metrics_registry: Option<Arc<MetricsRegistry>>,
}

impl RuntimeBuilder {
    /// Register a data source backed by the given engine.
    pub fn datasource(mut self, name: &str, engine: Arc<StorageEngine>) -> Self {
        self.datasources.push((name.to_string(), engine, 64));
        self
    }

    pub fn datasource_with_pool(
        mut self,
        name: &str,
        engine: Arc<StorageEngine>,
        pool: usize,
    ) -> Self {
        self.datasources.push((name.to_string(), engine, pool));
        self
    }

    pub fn max_connections_per_query(mut self, n: u64) -> Self {
        self.max_connections_per_query = Some(n);
        self
    }

    /// Share a pre-existing metrics registry (an embedding adaptor — the
    /// proxy, tests — can aggregate several runtimes into one exposition).
    pub fn metrics_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics_registry = Some(registry);
        self
    }

    pub fn build(self) -> Arc<ShardingRuntime> {
        let names: Vec<String> = self.datasources.iter().map(|(n, _, _)| n.clone()).collect();
        let collector = Arc::new(TraceCollector::new());
        let mut map = HashMap::new();
        for (name, engine, pool) in self.datasources {
            let ds = DataSource::new(name.clone(), engine, pool);
            ds.set_flight_recorder(Arc::clone(&collector));
            map.insert(name, Arc::new(ds));
        }
        let registry = Arc::new(ConfigRegistry::new());
        for n in &names {
            registry.set(&format!("resources/{n}"), "registered");
        }
        let metrics_registry = self
            .metrics_registry
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let metrics = KernelMetrics::new(&metrics_registry);
        let plan_cache =
            SqlPlanCache::with_registry(crate::cache::DEFAULT_CAPACITY, &metrics_registry);
        let slo = Arc::new(SloMonitor::new(metrics_registry.counter(
            "slo_breaches_total",
            "SLO burn-rate breach episodes (multi-window alert firings)",
        )));
        let executor = ExecutorEngine::new(self.max_connections_per_query.unwrap_or(8) as usize);
        let runtime = Arc::new(ShardingRuntime {
            rule: RwLock::new(ShardingRule::new(names)),
            datasources: RwLock::new(Arc::new(map)),
            schemas: LogicalSchemas::new(),
            registry,
            algorithms: RwLock::new(AlgorithmRegistry::with_builtins()),
            encrypt: RwLock::new(EncryptRule::new()),
            shadow: RwLock::new(None),
            rw_split: Arc::new(RwLock::new(HashMap::new())),
            throttle: RwLock::new(None),
            xa_log: XaLog::new(),
            tc: TransactionCoordinator::new(),
            keygen: Arc::new(SnowflakeGenerator::new(1)),
            next_xid: AtomicU64::new(1),
            plan_cache,
            executor,
            group_commit_window_us: AtomicU64::new(0),
            gsi: GsiRegistry::new(),
            agg_pushdown: std::sync::atomic::AtomicBool::new(true),
            reshard: ReshardManager::new(),
            dml_in_flight: Arc::new(AtomicU64::new(0)),
            reshard_fence_timeout_ms: AtomicU64::new(1000),
            metrics_registry,
            metrics,
            slow_log: SlowQueryLog::new(),
            collector,
            slo,
        });
        // Polled gauges need the finished Arc (they capture a Weak).
        register_runtime_gauges(&runtime);
        runtime
    }
}

/// An open global transaction in a session.
struct SessionTxn {
    txn_type: TransactionType,
    xid: String,
    /// Local/XA: per-datasource branch transactions.
    branches: HashMap<String, (Arc<StorageEngine>, TxnId)>,
}

/// A data statement after planning (steps 1–7): either resolved without
/// touching shards, or ready to fan out.
enum DataPlan<'a> {
    Immediate(ExecuteResult),
    Execute(Box<PlannedExecution<'a>>),
}

/// Everything the execute + merge stages need, detached from the planning
/// borrows.
struct PlannedExecution<'a> {
    inputs: Vec<ExecutionInput>,
    /// The merger's guidance, shared with the plan that keeps it.
    info: Arc<DerivedInfo>,
    txn_bindings: Option<HashMap<String, TxnId>>,
    params: Arc<[Value]>,
    is_query: bool,
    tables: &'a [String],
    /// GSI reference-count ops applied before the base write (additions:
    /// a fault mid-write leaves at worst a stale entry, which over-routes
    /// but never hides a live row).
    gsi_pre: Vec<GsiMaintOp>,
    /// GSI ops applied after the base write succeeds (removals).
    gsi_post: Vec<GsiMaintOp>,
    /// Dual-write mirror into a mid-reshard table's new layout, applied
    /// after the base write succeeds.
    mirror: Option<ReshardMirror>,
    /// Holds the statement in the reshard fence's in-flight count from
    /// planning until the plan (and its mirror apply) completes.
    _dml_guard: Option<DmlWriteGuard>,
}

/// Incremental row cursor over a query's merged output.
///
/// A streamed query's rows are pulled from live shard cursors through the
/// merge engine; dropping the stream (or exhausting its LIMIT window)
/// cancels in-flight shard scans. Queries that cannot stream (transactions,
/// encryption, memory-bound merge strategies, oversized fan-out) are served
/// from a buffered result set behind the same interface.
pub struct QueryStream {
    columns: Vec<String>,
    inner: QueryStreamInner,
    /// Rows handed out so far.
    rows: u64,
    /// A live stream's statement stays open — its record unsealed, its
    /// counters not yet fed — until the stream ends or is dropped.
    open: Option<(Arc<ShardingRuntime>, OpenStatement)>,
}

enum QueryStreamInner {
    Streamed(Box<MergedStream>),
    Materialized(std::vec::IntoIter<Vec<Value>>),
}

impl QueryStream {
    fn streamed(merged: MergedStream) -> Self {
        QueryStream {
            columns: merged.columns().to_vec(),
            inner: QueryStreamInner::Streamed(Box::new(merged)),
            rows: 0,
            open: None,
        }
    }

    /// Wrap an already-buffered result set.
    pub fn materialized(rs: ResultSet) -> Self {
        QueryStream {
            columns: rs.columns,
            inner: QueryStreamInner::Materialized(rs.rows.into_iter()),
            rows: 0,
            open: None,
        }
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// True when rows are still being pulled from live shard cursors.
    pub fn is_streaming(&self) -> bool {
        matches!(self.inner, QueryStreamInner::Streamed(_))
    }

    /// Pull the next merged row; `None` ends the stream.
    pub fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        let next = match &mut self.inner {
            QueryStreamInner::Streamed(m) => m.next_row(),
            QueryStreamInner::Materialized(it) => return Ok(it.next()),
        };
        // A merged stream that ended or failed has dropped its shard
        // cursors, so every unit span is closed by now.
        match &next {
            Ok(Some(_)) => self.rows += 1,
            Ok(None) => self.close(None),
            Err(e) => self.close(Some(e)),
        }
        next
    }

    /// Close the statement a live stream kept open: the merge counter gets
    /// the rows that were pulled, everything else is the statement's own
    /// bookkeeping.
    fn close(&mut self, err: Option<&KernelError>) {
        if let Some((runtime, open)) = self.open.take() {
            if runtime.metrics.on() {
                runtime.metrics.merge_rows.add(self.rows);
            }
            open.close(&runtime, self.rows, err);
        }
    }

    /// Drain the remaining rows into a buffered result set.
    pub fn into_result_set(mut self) -> Result<ResultSet> {
        // Buffered rows move over whole (their vector as it is, when none
        // has been handed out yet), not row by row.
        let mut rows: Vec<Vec<Value>> = match &mut self.inner {
            QueryStreamInner::Materialized(rows) => std::mem::take(rows).collect(),
            QueryStreamInner::Streamed(_) => Vec::new(),
        };
        while let Some(row) = self.next_row()? {
            rows.push(row);
        }
        Ok(ResultSet::new(std::mem::take(&mut self.columns), rows))
    }
}

impl Drop for QueryStream {
    fn drop(&mut self) {
        if self.open.is_some() {
            // Abandoned mid-stream: stop the shard cursors first, so their
            // unit spans close before the record is sealed.
            self.inner = QueryStreamInner::Materialized(Vec::new().into_iter());
            self.close(None);
        }
    }
}

impl Iterator for QueryStream {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}

/// What a statement produced on the streaming entry point.
// `Rows` is the common variant (every streamed SELECT); boxing it to level
// the sizes would cost each of them an allocation.
#[allow(clippy::large_enum_variant)]
pub enum StreamOutcome {
    Rows(QueryStream),
    Update { affected: u64 },
}

impl StreamOutcome {
    fn from_result(result: ExecuteResult) -> Self {
        match result {
            ExecuteResult::Query(rs) => StreamOutcome::Rows(QueryStream::materialized(rs)),
            ExecuteResult::Update { affected } => StreamOutcome::Update { affected },
        }
    }

    /// The outcome with its rows, if any, in one buffered result set.
    fn into_result(self) -> Result<ExecuteResult> {
        Ok(match self {
            StreamOutcome::Rows(stream) => ExecuteResult::Query(stream.into_result_set()?),
            StreamOutcome::Update { affected } => ExecuteResult::Update { affected },
        })
    }
}

/// What [`Session::observed`] asks of whatever its run step returns: close
/// the statement now, with the rows it produced — unless it is a live row
/// stream, which takes the open statement along and closes it when it ends
/// or is dropped.
trait Outcome {
    fn settle(&mut self, open: OpenStatement, runtime: &Arc<ShardingRuntime>);
}

/// XA `COMMIT`.
impl Outcome for () {
    fn settle(&mut self, open: OpenStatement, runtime: &Arc<ShardingRuntime>) {
        open.close(runtime, 0, None);
    }
}

impl Outcome for StreamOutcome {
    fn settle(&mut self, open: OpenStatement, runtime: &Arc<ShardingRuntime>) {
        match self {
            StreamOutcome::Update { affected } => open.close(runtime, *affected, None),
            StreamOutcome::Rows(stream) => match &stream.inner {
                QueryStreamInner::Materialized(rows) => {
                    open.close(runtime, rows.len() as u64, None)
                }
                QueryStreamInner::Streamed(_) => stream.open = Some((Arc::clone(runtime), open)),
            },
        }
    }
}

/// A statement the wrapper has run whose bookkeeping is due: at once for a
/// finished statement, at the end of its stream for a streamed one.
struct OpenStatement {
    is_read: bool,
    started: Instant,
    /// The statement's record, when it records.
    trace: Option<ActiveTrace>,
    /// The session's trace origin, for the record a failure tail-keeps.
    origin: Option<Arc<str>>,
    /// `SET trace = on`: where `Session::last_trace()` looks for the view.
    publish: Option<Arc<OnceLock<StatementTrace>>>,
}

impl OpenStatement {
    /// What every data statement (and XA COMMIT) leaves behind, read off one
    /// sealed record when the statement recorded: the exact counters and the
    /// end-to-end histogram, the stage histograms, the slow-query log, the
    /// trace ring, an incident if it failed — a statement that failed
    /// without recording is tail-kept as a root-only record, so failures are
    /// always reconstructible — the `last_trace()` view, and an SLO
    /// observation.
    fn close(self, runtime: &ShardingRuntime, rows: u64, err: Option<&KernelError>) {
        let error = err.map(|e| e.to_string());
        let record = match self.trace {
            Some(mut trace) => {
                trace.verdicts.rows = rows;
                Some(trace.finish(error, Some(&runtime.slow_log)))
            }
            None => error.filter(|_| runtime.collector.enabled()).map(|e| {
                let origin = self.origin.as_deref();
                let trace = start_trace(runtime, origin, "<statement>", self.started, false);
                trace.finish(Some(e), None)
            }),
        };
        let total_us = match &record {
            Some(record) => record.total_us,
            None => (self.started.elapsed().as_micros() as u64).max(1),
        };
        let metrics = &runtime.metrics;
        if metrics.on() {
            metrics.statements.inc();
            if err.is_some() {
                metrics.statement_errors.inc();
            }
            metrics.statement_us.record_us(total_us);
            let stage_us = record.as_ref().map_or([0; 5], |r| r.stage_us());
            for (histogram, us) in metrics.stage_us.iter().zip(stage_us) {
                if us > 0 {
                    histogram.record_us(us);
                }
            }
        }
        if let (Some(slot), Some(record)) = (self.publish, &record) {
            let _ = slot.set(StatementTrace::from(&**record));
        }
        if runtime.slo.armed() {
            if let Some(detail) = runtime.slo.observe(self.is_read, total_us, err.is_some()) {
                runtime
                    .collector
                    .record_incident(IncidentKind::SloBreach, detail, None);
            }
        }
    }
}

/// Start the record of a statement of a session with this trace origin:
/// origin `proxy:conn-N` and root `proxy_frame` when the proxy adaptor
/// labelled the session, `session` and `statement` otherwise.
fn start_trace(
    runtime: &ShardingRuntime,
    origin: Option<&str>,
    sql: &str,
    epoch: Instant,
    head: bool,
) -> ActiveTrace {
    let (origin, root) = match origin {
        Some(origin) => (origin, "proxy_frame"),
        None => ("session", "statement"),
    };
    let root = (root, String::new());
    runtime
        .collector
        .start(origin, root, sql.to_string(), epoch, head)
}

/// One application connection: executes SQL, owns transaction state and
/// session variables.
pub struct Session {
    runtime: Arc<ShardingRuntime>,
    txn_type: TransactionType,
    txn: Option<SessionTxn>,
    /// Per-statement deadline (`SET statement_timeout_ms = …`; None = no
    /// deadline). Flows into the executor so hung shards are abandoned.
    pub(crate) statement_timeout: Option<Duration>,
    /// Diagnostics from the last statement (tests, Fig 15 bench).
    last_report: Option<ExecutionReport>,
    last_merger: Option<MergerKind>,
    /// Routing-intelligence verdict of the last planned data statement.
    last_route_strategy: Option<RouteStrategy>,
    /// `SET trace = on`: record every data statement and keep its view for
    /// [`Session::last_trace`].
    trace_enabled: bool,
    /// The record being written for the statement now in the pipeline, when
    /// that statement records.
    active: Option<ActiveTrace>,
    /// View of the last statement recorded under `SET trace = on`; a
    /// streamed statement fills it in when its stream ends.
    last_trace: Option<Arc<OnceLock<StatementTrace>>>,
    /// Statements the sampler has seen (`SET trace_sample = 1/N`): the one
    /// that finds `tick % N == 0` is head-sampled, so a session's first
    /// always is, and a changed rate applies at once.
    tick: u32,
    /// Where traces minted on this session say they came from
    /// (`proxy:conn-N` when set by the proxy adaptor; `session` otherwise).
    trace_origin: Option<Arc<str>>,
}

/// Maximum transparent retries of a read-only statement on transient errors.
const READ_RETRY_LIMIT: u32 = 3;

/// Base backoff doubled per attempt (plus deterministic jitter).
const RETRY_BACKOFF_BASE_MS: u64 = 5;

/// Bounded exponential backoff with jitter. The jitter is seeded from a
/// process-wide counter (not wall clock / OS randomness) so chaos runs are
/// reproducible.
fn retry_backoff(attempt: u32) -> Duration {
    static SALT: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let base = RETRY_BACKOFF_BASE_MS << attempt.min(6);
    let mut z = SALT
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let jitter = (z ^ (z >> 31)) % (base / 2 + 1);
    Duration::from_millis(base + jitter)
}

impl Session {
    pub fn transaction_type(&self) -> TransactionType {
        self.txn_type
    }

    pub fn set_transaction_type(&mut self, t: TransactionType) -> Result<()> {
        if self.txn.is_some() {
            return Err(KernelError::Transaction(
                "cannot switch transaction type inside an open transaction".into(),
            ));
        }
        self.txn_type = t;
        Ok(())
    }

    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    pub fn last_execution_report(&self) -> Option<&ExecutionReport> {
        self.last_report.as_ref()
    }

    pub fn last_merger_kind(&self) -> Option<MergerKind> {
        self.last_merger
    }

    /// How the last data statement's final unit set was chosen
    /// (index-route / aggregate-pushdown / colocated / scatter).
    pub fn last_route_strategy(&self) -> Option<RouteStrategy> {
        self.last_route_strategy
    }

    /// Trace of the most recent data statement (`SET trace = on`); of a
    /// streamed one, once its stream has ended.
    pub fn last_trace(&self) -> Option<&StatementTrace> {
        self.last_trace.as_ref()?.get()
    }

    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// The one sampling decision, for the statement the sampler sees next:
    /// `Some` when it records — `Some(true)` as the head sample
    /// (`tick % N == 0` under `SET trace_sample = 1/N`), which records
    /// storage internals too and is kept in the ring; `Some(false)` for the
    /// kernel spans every statement records under `SET trace = on` or an
    /// armed slow-query threshold. A clock read per stage and a span per
    /// unit are real money on a microsecond point query, so by default only
    /// the head sample pays them — which also paces the stage histograms;
    /// the rest take two clock reads for the exact counters.
    fn records(&self) -> Option<bool> {
        let period = self.runtime.collector.sample_period();
        let head = period != 0 && self.tick.is_multiple_of(period);
        (head || self.trace_enabled || self.runtime.slow_log.threshold_us() > 0).then_some(head)
    }

    /// Start the record of a statement [`records`](Self::records) says records.
    fn start_record(&self, sql: &str, head: bool) -> ActiveTrace {
        let origin = self.trace_origin.as_deref();
        start_trace(&self.runtime, origin, sql, Instant::now(), head)
    }

    /// Close `stage` on the active record, if the statement records.
    #[inline]
    fn stage(&mut self, stage: Stage) {
        if let Some(t) = self.active.as_mut() {
            t.stage(stage);
        }
    }

    fn set_merger(&mut self, kind: MergerKind) {
        self.last_merger = Some(kind);
        if let Some(t) = self.active.as_mut() {
            t.verdicts.merger = Some(kind);
        }
    }

    /// Label traces minted on this session (`proxy:conn-N`); adaptors call
    /// this once per connection. Unset sessions mint `session` traces.
    pub fn set_trace_origin(&mut self, origin: impl Into<String>) {
        self.trace_origin = Some(Arc::from(origin.into()));
    }

    pub fn runtime(&self) -> &Arc<ShardingRuntime> {
        &self.runtime
    }

    /// Parse and execute one SQL statement. Parsing goes through the
    /// runtime's level-1 cache: repeat SQL text skips the parser entirely.
    pub fn execute_sql(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult> {
        let parsed = self.parse(sql)?;
        let result = self.execute_parsed(&parsed, params);
        self.active = None;
        result
    }

    /// Parse at the SQL door. A statement that will record starts its
    /// record here, so that parsing is its first stage; the statement
    /// wrapper adopts the record, and a statement the wrapper never sees
    /// (SET, SHOW, BEGIN, …) leaves it unused for the door to drop.
    fn parse(&mut self, sql: &str) -> Result<Arc<ParsedStatement>> {
        self.active = self.records().map(|head| self.start_record(sql, head));
        let parsed = self.runtime.plan_cache.parse(sql);
        match &parsed {
            Ok(_) => self.stage(Stage::Parse),
            Err(_) => self.active = None,
        }
        Ok(parsed?)
    }

    /// Execute a parse-cache entry ([`SqlPlanCache::parse`]; what a prepared
    /// statement holds): where `execute_sql` enters after its text lookup,
    /// with what the entry already knows about its statement.
    pub fn execute_parsed(
        &mut self,
        parsed: &ParsedStatement,
        params: &[Value],
    ) -> Result<ExecuteResult> {
        self.dispatch(parsed, Some(&parsed.facts), params)
    }

    /// Execute a parsed statement.
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<ExecuteResult> {
        self.dispatch(stmt, None, params)
    }

    fn dispatch(
        &mut self,
        stmt: &Statement,
        facts: Option<&StatementFacts>,
        params: &[Value],
    ) -> Result<ExecuteResult> {
        match stmt {
            Statement::DistSql(d) => crate::distsql::execute(self, d),
            Statement::Begin => {
                self.begin()?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::Commit => {
                self.commit()?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::Rollback => {
                self.rollback()?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::SetVariable { name, value } => {
                crate::settings::set(self, name, &value.to_string())?;
                Ok(ExecuteResult::Update { affected: 0 })
            }
            Statement::ShowTables => {
                let rows = self
                    .runtime
                    .schemas
                    .table_names()
                    .into_iter()
                    .map(|n| vec![Value::Str(n)])
                    .collect();
                Ok(ExecuteResult::Query(ResultSet::new(
                    vec!["table_name".into()],
                    rows,
                )))
            }
            _ => self
                .run_data_statement(stmt, facts, params, true)?
                .into_result(),
        }
    }

    /// Parse and execute one SQL statement, returning rows incrementally
    /// when the statement qualifies for the streaming pipeline.
    pub fn execute_sql_stream(&mut self, sql: &str, params: &[Value]) -> Result<StreamOutcome> {
        let parsed = self.parse(sql)?;
        let outcome = self.stream(&parsed, Some(&parsed.facts), params);
        self.active = None;
        outcome
    }

    /// Parse and run a query, returning its incremental row cursor. Errors
    /// if the statement does not produce rows.
    pub fn query_stream(&mut self, sql: &str, params: &[Value]) -> Result<QueryStream> {
        match self.execute_sql_stream(sql, params)? {
            StreamOutcome::Rows(stream) => Ok(stream),
            StreamOutcome::Update { .. } => Err(KernelError::Execute(
                "statement did not produce a result set".into(),
            )),
        }
    }

    /// Execute a parsed statement, its rows handed out as the shards produce
    /// them where the statement can stream: a SELECT outside a transaction
    /// whose result no encrypt rule has to rewrite and whose prepared fan-out
    /// the executor admits (DESIGN.md §2 "The executor"). Everything else is
    /// collected and wrapped behind the same cursor interface.
    pub fn execute_stream(&mut self, stmt: &Statement, params: &[Value]) -> Result<StreamOutcome> {
        self.stream(stmt, None, params)
    }

    fn stream(
        &mut self,
        stmt: &Statement,
        facts: Option<&StatementFacts>,
        params: &[Value],
    ) -> Result<StreamOutcome> {
        if matches!(stmt, Statement::Select(_)) {
            self.run_data_statement(stmt, facts, params, false)
        } else {
            Ok(StreamOutcome::from_result(
                self.dispatch(stmt, facts, params)?,
            ))
        }
    }

    /// Run one statement with tracing forced on and hand back its finished
    /// trace (the `EXPLAIN ANALYZE` entry point).
    pub fn execute_traced(
        &mut self,
        sql: &str,
        params: &[Value],
    ) -> Result<(ExecuteResult, StatementTrace)> {
        let saved = std::mem::replace(&mut self.trace_enabled, true);
        self.last_trace = None;
        let result = self.execute_sql(sql, params);
        self.trace_enabled = saved;
        let result = result?;
        let trace = self.last_trace.take().and_then(|slot| slot.get().cloned());
        let trace = trace.ok_or_else(|| {
            KernelError::Execute(
                "statement produced no trace (only data statements can be analyzed)".into(),
            )
        })?;
        Ok((result, trace))
    }

    // -- transaction control -------------------------------------------------

    pub fn begin(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(KernelError::Transaction("transaction already open".into()));
        }
        let xid = match self.txn_type {
            TransactionType::Base => {
                tc_rpc(); // acquire a global transaction id from the TC
                self.runtime.tc.begin_global()
            }
            _ => self.runtime.next_xid(),
        };
        self.txn = Some(SessionTxn {
            txn_type: self.txn_type,
            xid,
            branches: HashMap::new(),
        });
        Ok(())
    }

    pub fn commit(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Ok(()); // commit outside txn is a no-op, like MySQL
        };
        match txn.txn_type {
            TransactionType::Local => {
                // 1PC: fire commit at every branch, ignoring failures
                // (paper Fig 5(d)), with the round trips overlapped.
                commit_all(&txn.branches);
                Ok(())
            }
            // An XA COMMIT is observed like a write statement; one that
            // records traces each 2PC phase and branch, and on a
            // head-sampled one the branch spans carry storage probe
            // children (WAL flushes).
            TransactionType::Xa => self.observed(false, "COMMIT", |s, _| {
                let m = &s.runtime.metrics;
                let observer = XaPhaseObserver {
                    prepare_us: &m.xa_prepare_us,
                    commit_us: &m.xa_commit_us,
                };
                let spans = s.active.as_ref().map(ActiveTrace::scope);
                two_phase_commit_observed(
                    &txn.xid,
                    &s.runtime.xa_log,
                    &txn.branches,
                    m.on().then_some(&observer),
                    spans.as_ref(),
                )
            }),
            TransactionType::Base => {
                tc_rpc(); // phase 2: check status with the TC
                self.runtime.tc.commit(&txn.xid)
            }
        }
    }

    pub fn rollback(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Ok(());
        };
        match txn.txn_type {
            TransactionType::Local | TransactionType::Xa => {
                crate::transaction::xa::rollback_all(&txn.branches);
                Ok(())
            }
            TransactionType::Base => {
                // Execute compensations, most recent branch first.
                let undo = self.runtime.tc.rollback(&txn.xid)?;
                for branch in undo {
                    let ds = self.runtime.datasource(&branch.datasource)?;
                    for comp in branch.compensations.iter().rev() {
                        ds.engine()
                            .execute(&comp.stmt, &comp.params, None)
                            .map_err(KernelError::Storage)?;
                    }
                }
                Ok(())
            }
        }
    }

    // -- the SQL engine pipeline ----------------------------------------------

    /// Plan a data statement and run it; `collect` is the one thing the two
    /// front doors disagree on. `facts` come with a statement out of the
    /// parse cache; one handed in as a bare AST has them worked out here,
    /// every time.
    fn run_data_statement(
        &mut self,
        stmt: &Statement,
        facts: Option<&StatementFacts>,
        params: &[Value],
        collect: bool,
    ) -> Result<StreamOutcome> {
        let worked_out;
        let facts = match facts {
            Some(facts) => facts,
            None => {
                worked_out = StatementFacts::of(stmt);
                &worked_out
            }
        };
        let is_read = facts.category == StatementCategory::Dql;
        self.observed(is_read, "<prepared statement>", |s, deadline| {
            match s.plan_data_statement(stmt, facts, params)? {
                DataPlan::Immediate(result) => Ok(StreamOutcome::from_result(result)),
                DataPlan::Execute(plan) => s.run_planned(*plan, deadline, collect),
            }
        })
    }

    /// The one wrapper around data statements — materialized and streamed —
    /// and XA COMMIT: the read-retry loop inside, observability outside.
    /// The statement records at the depth the sampler decides, adopting the
    /// record the SQL door opened before parsing or — entered with a parsed
    /// statement — opening one called `unparsed`; its bookkeeping is done
    /// once, by [`OpenStatement::close`], now or when its stream ends.
    fn observed<T: Outcome>(
        &mut self,
        is_read: bool,
        unparsed: &str,
        attempt: impl FnMut(&mut Self, Option<Instant>) -> Result<T>,
    ) -> Result<T> {
        // Only read-only statements outside transactions retry: a write (or
        // any in-transaction statement) may have partially applied, so it is
        // never silently re-executed.
        let retryable = is_read && self.txn.is_none();
        let records = self.records();
        self.tick = self.tick.wrapping_add(1);
        if self.active.is_none() {
            self.active = records.map(|head| self.start_record(unparsed, head));
        }
        let publish = self.trace_enabled.then(Arc::default);
        if publish.is_some() {
            self.last_trace.clone_from(&publish);
        }
        let started = Instant::now();
        let mut result = self.with_retries(retryable, attempt);
        let open = OpenStatement {
            is_read,
            started,
            trace: self.active.take(),
            origin: self.trace_origin.clone(),
            publish,
        };
        match &mut result {
            Ok(outcome) => outcome.settle(open, &self.runtime),
            Err(e) => open.close(&self.runtime, 0, Some(e)),
        }
        result
    }

    /// Run `attempt`, absorbing up to [`READ_RETRY_LIMIT`] transient
    /// failures of a `retryable` statement with backoff, inside the
    /// statement's deadline.
    fn with_retries<T>(
        &mut self,
        retryable: bool,
        mut attempt: impl FnMut(&mut Self, Option<Instant>) -> Result<T>,
    ) -> Result<T> {
        let deadline = self.statement_timeout.map(|t| Instant::now() + t);
        let mut attempts = 0u32;
        loop {
            // Every attempt plans again: routing re-runs, so rw-split picks
            // a healthy replica once breakers/health marked the failed one.
            let e = match attempt(self, deadline) {
                Ok(outcome) => return Ok(outcome),
                Err(e) => e,
            };
            if !retryable || e.class() != ErrorClass::Transient || attempts >= READ_RETRY_LIMIT {
                return Err(e);
            }
            let backoff = retry_backoff(attempts);
            if deadline.is_some_and(|d| Instant::now() + backoff >= d) {
                return Err(KernelError::Timeout(format!(
                    "deadline elapsed after {} attempt(s); last error: {e}",
                    attempts + 1
                )));
            }
            if self.runtime.metrics.on() {
                self.runtime.metrics.read_retries.inc();
            }
            std::thread::sleep(backoff);
            attempts += 1;
        }
    }

    /// Steps 1–7 of the pipeline (features, route, rewrite, transaction
    /// binding).
    fn plan_data_statement<'a>(
        &mut self,
        stmt: &Statement,
        facts: &'a StatementFacts,
        params: &[Value],
    ) -> Result<DataPlan<'a>> {
        // Traffic governance: the throttle admits or rejects up front.
        if let Some(throttle) = &*self.runtime.throttle.read() {
            if !throttle.acquire(std::time::Duration::from_millis(50)) {
                return Err(KernelError::Execute(
                    "request rejected by throttle (max_requests_per_second)".into(),
                ));
            }
        }
        let category = facts.category;
        let is_query = category == StatementCategory::Dql;
        let tables = &facts.tables[..];

        // CREATE TABLE registers the logical schema (AutoTable relies on it).
        if let Statement::CreateTable(c) = stmt {
            self.runtime.schemas.register(c.clone());
        }
        if let Statement::DropTable(d) = stmt {
            for n in &d.names {
                self.runtime.schemas.remove(n.as_str());
            }
        }

        // Online resharding: every DML holds an in-flight guard (the fence
        // drains the counter to zero before cutover, so no statement can
        // straddle the rule swap). A write against a fenced table blocks
        // here until the fence resolves, then re-checks; one admitted
        // during backfill/catch-up carries the job for dual-write
        // mirroring. Ordering: the SeqCst guard increment happens before
        // the phase read, while the coordinator publishes the phase before
        // reading the counter — one side always sees the other.
        let mut dml_guard: Option<DmlWriteGuard> = None;
        let mut reshard_job = None;
        if category == StatementCategory::Dml {
            loop {
                let guard = DmlWriteGuard::enter(&self.runtime.dml_in_flight);
                let job = if self.runtime.reshard.is_active() {
                    self.runtime.reshard.live_job_for(tables)
                } else {
                    None
                };
                match job {
                    Some(job) if job.is_fenced() => {
                        drop(guard);
                        let wait = self.runtime.reshard_fence_timeout_ms() * 2 + 2000;
                        job.wait_fence_release(Duration::from_millis(wait))?;
                    }
                    job => {
                        dml_guard = Some(guard);
                        reshard_job = job;
                        break;
                    }
                }
            }
        }

        // 1. Feature: encryption. Only clones the statement when an encrypt
        // rule is actually configured — the hot path executes the parsed AST
        // as-is.
        let mut owned_stmt: Option<Statement> = None;
        let mut owned_params: Option<Vec<Value>> = None;
        {
            let encrypt = self.runtime.encrypt.read();
            if !encrypt.is_empty() {
                let schemas = &self.runtime.schemas;
                let mut patched = stmt.clone();
                let patched_params = encrypt
                    .encrypt_statement(&mut patched, params, &|table| schemas.columns(table))?;
                owned_stmt = Some(patched);
                owned_params = Some(patched_params);
            }
        }

        // 2. Feature: distributed key generation for INSERTs (clones only
        // when a key column actually needs filling).
        let keygen_col = match owned_stmt.as_ref().unwrap_or(stmt) {
            Statement::Insert(ins) => self.keygen_column_for(ins),
            _ => None,
        };
        if let Some(key_col) = keygen_col {
            let patched = owned_stmt.get_or_insert_with(|| stmt.clone());
            if let Statement::Insert(ins) = patched {
                ins.columns.push(key_col);
                // One contiguous key block per statement: a single keygen
                // reservation instead of one lock round trip per row.
                let keys = self.runtime.keygen.next_keys(ins.rows.len());
                for (row, key) in ins.rows.iter_mut().zip(keys) {
                    row.push(Expr::Literal(key));
                }
            }
        }
        let stmt: &Statement = owned_stmt.as_ref().unwrap_or(stmt);
        let params: &[Value] = owned_params.as_deref().unwrap_or(params);

        // 3. Route: the statement's plan — out of the plan cache, or built
        // now and kept there — resolved against this execution's
        // parameters. A statement a feature patched (encryption, key
        // generation) is planned as patched and its plan not kept; a shape
        // that cannot be replayed (and any statement routed by a
        // thread-local hint) is routed in full, and binds through a plan
        // around that route.
        let hint = HintManager::current();
        let cache = &self.runtime.plan_cache;
        let replayable = hint.is_empty()
            && matches!(
                stmt,
                Statement::Select(_) | Statement::Update(_) | Statement::Delete(_)
            );
        let (mut plan, mut nodes) = {
            let rule = self.runtime.rule.read();
            let mut replayed = None;
            if replayable {
                let keep = owned_stmt.is_none() && cache.enabled();
                let fingerprint = keep.then(|| facts.fingerprint(stmt));
                // The generation is read under the rule guard, and whoever
                // changes the rule bumps it before releasing the write guard:
                // the plans found under this generation were built from this
                // rule.
                let plan = cache.plan_for(fingerprint, cache.generation(), || plan(&rule, stmt));
                replayed = plan.resolve(params)?.map(|nodes| (plan, nodes));
            }
            match replayed {
                Some(replayed) => replayed,
                None => {
                    let route = RouteEngine::new(&rule, &hint).route(stmt, params)?;
                    let nodes = (0..route.units.len()).collect();
                    (Arc::new(Plan::routed(route)), nodes)
                }
            }
        };

        // 3.5 Feature: global secondary index. An equality/IN predicate on
        // an indexed non-shard-key column resolves to owning shard keys via
        // the hidden mapping, replacing the scatter with the few nodes that
        // hold the rows.
        let mut index_routed = false;
        if nodes.len() > 1 && !self.runtime.gsi.is_empty() {
            if let Some((space, mut narrowed)) = self.gsi_narrow_route(stmt, params, &plan) {
                if narrowed.is_empty() && is_query {
                    // The index proves no shard holds the value: one node of
                    // the scatter still answers, so the client gets a
                    // correctly shaped result — the header, an aggregate's
                    // one row — as the router arranges for contradictory
                    // conditions.
                    narrowed.push(if Arc::ptr_eq(&space, &plan) {
                        nodes[0]
                    } else {
                        0
                    });
                }
                (plan, nodes) = (space, narrowed);
                index_routed = true;
            }
        }

        // The routing stage ends here. Fan-out is sampled for routed
        // DML/queries only — DDL broadcasts would drown the distribution the
        // optimizer work is judged by.
        self.stage(Stage::Route);
        if self.runtime.metrics.on()
            && matches!(category, StatementCategory::Dql | StatementCategory::Dml)
        {
            self.runtime
                .metrics
                .route_fanout
                .record_us(nodes.len() as u64);
        }

        // The routing-intelligence verdict `EXPLAIN ANALYZE` reports.
        let agg_pushdown = self.runtime.agg_pushdown();
        let strategy = if index_routed {
            RouteStrategy::IndexRoute
        } else if nodes.len() <= 1 {
            RouteStrategy::Colocated
        } else if agg_pushdown
            && matches!(stmt, Statement::Select(s) if s.has_aggregates() || !s.group_by.is_empty())
        {
            RouteStrategy::AggPushdown
        } else {
            RouteStrategy::Scatter
        };
        self.last_route_strategy = Some(strategy);
        if let Some(t) = self.active.as_mut() {
            t.verdicts.route_strategy = Some(strategy.as_str());
            // EXPLAIN-visible migration state: tag statements that touch a
            // mid-reshard table with the job's current phase.
            if self.runtime.reshard.is_active() {
                let job = self.runtime.reshard.live_job_for(tables);
                t.verdicts.reshard_state = job.map(|job| job.phase().as_str());
            }
        }

        if nodes.is_empty() {
            // Nothing to send anywhere — a write whose GSI lookup proves no
            // shard holds the value (a query keeps one unit for its shape,
            // step 3.5; so does the router on contradictory conditions).
            self.set_merger(MergerKind::PassThrough);
            return Ok(DataPlan::Immediate(if is_query {
                ExecuteResult::Query(ResultSet::empty())
            } else {
                ExecuteResult::Update { affected: 0 }
            }));
        }

        // 4. Rewrite: bind the plan to the chosen nodes — on a warm plan,
        // shared units and statements out of its memo.
        let Bound { mut inputs, info } = plan.bind(stmt, params, &nodes, agg_pushdown)?;

        // 5. Features that pick another target for a unit, per execution and
        // on this execution's inputs, so that what the plan keeps stays
        // neutral: shadow re-targeting, then read-write splitting (reads
        // outside transactions go to replicas; reads route around open
        // circuit breakers).
        if let Some(shadow) = &*self.runtime.shadow.read() {
            if shadow.is_shadow_statement(stmt, params) {
                for input in &mut inputs {
                    shadow.retarget(&mut input.unit);
                }
            }
        }
        self.apply_rw_split(&mut inputs, is_query)?;

        // 5.5 Feature: GSI maintenance. Writes against indexed tables
        // compute their reference-count deltas now — pre-images must be
        // read before the base write mutates them.
        let (gsi_pre, gsi_post) = if self.runtime.gsi.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            self.gsi_maintenance_ops(stmt, &inputs, params)?
        };

        // Scan-mode verdict for `EXPLAIN ANALYZE`: judged on the rewritten
        // per-shard statement (what storage actually sees) with the same
        // admission predicate the engines use, so the tag cannot drift from
        // the path taken.
        if let Some(t) = self.active.as_mut() {
            t.verdicts.scan_mode = inputs.first().and_then(|i| match &*i.stmt {
                Statement::Select(s) if batch_admissible(s) => Some("batch"),
                Statement::Select(_) => Some("row"),
                _ => None,
            });
        }

        // 6.5 Feature: online resharding. A write admitted while the table
        // backfills or catches up plans a dual-write mirror from the same
        // feature-patched statement, routed by the *new* rule. Planning
        // errors poison the job (verification then rolls the reshard back)
        // — they never fail the base statement.
        let mirror = match reshard_job.take() {
            Some(job) if job.mirrors_writes() => match job.plan_mirror(stmt, params) {
                Ok(inputs) if !inputs.is_empty() => Some(ReshardMirror { job, inputs }),
                Ok(_) => None,
                Err(e) => {
                    job.poison(format!("mirror planning failed: {e}"));
                    None
                }
            },
            _ => None,
        };

        // 7. Transactions: bind branches / capture BASE compensation.
        let txn_bindings = self.prepare_transaction_branches(&inputs, params)?;
        self.stage(Stage::Rewrite);

        Ok(DataPlan::Execute(Box::new(PlannedExecution {
            inputs,
            info,
            txn_bindings,
            params: shared_params(params),
            is_query,
            tables,
            gsi_pre,
            gsi_post,
            mirror,
            _dml_guard: dml_guard,
        })))
    }

    /// Steps 8–10: fan out on the kernel's one executor, merge, decrypt.
    /// With `collect` every shard result is buffered and merged here;
    /// without, a statement that can stream comes back as its merged cursor:
    /// the execute stage was opening the shard cursors, and the merge stage
    /// runs as the consumer pulls rows and closes with the stream.
    fn run_planned(
        &mut self,
        mut plan: PlannedExecution<'_>,
        deadline: Option<Instant>,
        collect: bool,
    ) -> Result<StreamOutcome> {
        // The mirror (and a params handle for it) outlives the executor
        // call, which consumes the plan's inputs/params.
        let mirror = plan.mirror.take();
        let mirror_params = mirror.as_ref().map(|_| Arc::clone(&plan.params));
        // Additive GSI maintenance lands before the base write: if the
        // write faults, the entry is undone (or left stale, which
        // over-routes but stays correct).
        if !plan.gsi_pre.is_empty() {
            self.apply_gsi_ops(&plan.gsi_pre)?;
        }
        // 8. Execute on the runtime's long-lived engine against an Arc
        // snapshot of the topology (no per-statement map clone).
        let datasources = self.runtime.datasource_snapshot();
        let (inputs, params) = (plan.inputs, plan.params);
        // The merger reads them too (a placeholder in HAVING), after the
        // executor call has consumed this handle.
        let merge_params = Arc::clone(&params);
        let txns = plan.txn_bindings.as_ref();
        // Two things only the session knows keep a SELECT collected: an open
        // transaction (it reads its own writes through its connections, and
        // a BASE one binds none for the executor to see) and an encrypt rule
        // (decryption is a pass over the whole result).
        let collect = collect || self.txn.is_some() || !self.runtime.encrypt.read().is_empty();
        let metrics = &self.runtime.metrics;
        let pulled = metrics.on().then_some(&metrics.merge_input_rows);
        let fetch = if collect {
            Fetch::Collect
        } else {
            Fetch::Stream { pulled }
        };
        // The execute stage: the units record under its scope.
        let stage = self.active.as_ref().map(|t| t.begin_stage(Stage::Execute));
        let executed = self.runtime.executor.run_on(
            WorkerPool::global(),
            &datasources,
            inputs,
            params,
            txns,
            deadline,
            stage.as_ref(),
            fetch,
        );
        if let (Some(t), Some(stage)) = (self.active.as_mut(), &stage) {
            t.end_stage(stage, executed.as_ref().err().map(|e| e.to_string()));
        }
        let (executed, report) = match executed {
            Ok(r) => r,
            Err(e) => {
                self.undo_gsi_ops(&plan.gsi_pre);
                return Err(e);
            }
        };
        self.last_report = Some(report);
        let results = match executed {
            Executed::Results(results) => results,
            Executed::Streams(streams, cancel) => {
                let merged = merge_stream(streams, &plan.info, &merge_params, cancel)?;
                self.set_merger(merged.kind());
                if let Some(t) = &self.active {
                    t.begin_stage(Stage::Merge);
                }
                return Ok(StreamOutcome::Rows(QueryStream::streamed(merged)));
            }
        };

        // 9. Merge.
        if plan.is_query {
            let shard_results: Vec<ResultSet> =
                results.into_iter().map(ExecuteResult::query).collect();
            if self.runtime.metrics.on() {
                self.runtime
                    .metrics
                    .merge_input_rows
                    .add(shard_results.iter().map(|r| r.rows.len() as u64).sum());
            }
            let (mut merged, kind) = merge_explain(shard_results, &plan.info, &merge_params)?;
            self.set_merger(kind);
            // 10. Feature: decrypt result columns.
            self.runtime
                .encrypt
                .read()
                .decrypt_result(&mut merged, plan.tables);
            self.stage(Stage::Merge);
            if self.runtime.metrics.on() {
                self.runtime.metrics.merge_rows.add(merged.len() as u64);
            }
            Ok(StreamOutcome::Rows(QueryStream::materialized(merged)))
        } else {
            self.set_merger(MergerKind::Iteration);
            let affected = results.iter().map(ExecuteResult::affected).sum();
            // Removals land only once the base write has succeeded.
            if !plan.gsi_post.is_empty() {
                self.apply_gsi_ops(&plan.gsi_post)?;
            }
            // Online resharding: the base write succeeded, so land its
            // mirror in the new layout, enlisted in the same transaction
            // branches as the base statement. Mirror failures poison the
            // reshard job (verification rolls it back) — the base
            // statement's outcome is already decided.
            if let Some(m) = mirror {
                let params = mirror_params.expect("mirror_params set with mirror");
                let runtime = Arc::clone(&self.runtime);
                let applied = m
                    .job
                    .apply_mirror(&runtime, &m.inputs, &params, |ds, engine| {
                        self.gsi_branch(ds, engine)
                    });
                if applied > 0 && runtime.metrics.on() {
                    runtime.metrics.reshard_mirrored_writes.add(applied);
                }
            }
            self.stage(Stage::Merge);
            Ok(StreamOutcome::Update { affected })
        }
    }

    /// The key-generate column an INSERT still needs filled, if any.
    fn keygen_column_for(&self, ins: &shard_sql::ast::InsertStatement) -> Option<String> {
        let rule_guard = self.runtime.rule.read();
        let table_rule = rule_guard.table_rule(ins.table.as_str())?;
        let key_col = table_rule.key_generate_column.clone()?;
        drop(rule_guard);
        if ins.columns.is_empty() {
            return None; // positional insert: all columns supplied
        }
        if ins.columns.iter().any(|c| c.eq_ignore_ascii_case(&key_col)) {
            return None;
        }
        Some(key_col)
    }

    fn apply_rw_split(&self, inputs: &mut [ExecutionInput], is_query: bool) -> Result<()> {
        let rw = self.runtime.rw_split.read();
        if rw.is_empty() {
            return Ok(());
        }
        let in_txn = self.txn.is_some();
        let datasources = self.runtime.datasource_snapshot();
        for input in inputs {
            if let Some(group) = rw.get(&input.unit.datasource) {
                let target = if is_query && !in_txn {
                    // Route around disabled sources and open breakers; an
                    // unknown name is left for the executor to reject.
                    group
                        .route_read_where(|name| {
                            datasources.get(name).is_none_or(|ds| ds.is_routable())
                        })
                        .ok_or_else(|| {
                            KernelError::Unavailable(format!(
                                "every data source of group '{}' is disabled or circuit-open",
                                group.logical_name
                            ))
                        })?
                } else {
                    group.route_write()
                };
                input.unit = Arc::new(input.unit.on(target));
            }
        }
        Ok(())
    }

    /// For Local/XA transactions: lazily begin a branch on every data source
    /// the statement touches and return the bindings. For BASE: capture
    /// compensations and register them with the TC (statements then run
    /// auto-commit).
    fn prepare_transaction_branches(
        &mut self,
        inputs: &[ExecutionInput],
        params: &[Value],
    ) -> Result<Option<HashMap<String, TxnId>>> {
        let Some(txn) = &mut self.txn else {
            return Ok(None);
        };
        match txn.txn_type {
            TransactionType::Local | TransactionType::Xa => {
                let mut bindings = HashMap::new();
                for input in inputs {
                    let ds_name = &input.unit.datasource;
                    if bindings.contains_key(ds_name) {
                        continue;
                    }
                    let branch = match txn.branches.get(ds_name) {
                        Some((_, branch)) => *branch,
                        None => {
                            let ds = self.runtime.datasource(ds_name)?;
                            let engine = Arc::clone(ds.engine());
                            let branch = engine.begin();
                            txn.branches.insert(ds_name.clone(), (engine, branch));
                            branch
                        }
                    };
                    bindings.insert(ds_name.clone(), branch);
                }
                Ok(Some(bindings))
            }
            TransactionType::Base => {
                // AT mode phase 1: capture before-images and register undo,
                // then let the statement auto-commit locally. Each branch
                // registration and status report is an RPC to the TC (Fig 6),
                // charged like any other network round trip.
                let xid = txn.xid.clone();
                for input in inputs {
                    let ds = self.runtime.datasource(&input.unit.datasource)?;
                    let comps = base::capture_compensation(ds.engine(), &input.stmt, params)?;
                    if !comps.is_empty() {
                        // Seata AT persists the undo log as a row in the
                        // branch database inside the local transaction
                        // (Fig 6 "save the redo and undo logs") — one more
                        // write round trip to the data source.
                        ds.engine().latency().charge(0);
                        tc_rpc(); // register branch
                        self.runtime.tc.register_undo(
                            &xid,
                            base::BranchUndo {
                                datasource: input.unit.datasource.clone(),
                                compensations: comps,
                            },
                        )?;
                        tc_rpc(); // report branch status
                    }
                }
                Ok(None)
            }
        }
    }

    // -- global secondary indexes --------------------------------------------

    /// Try to narrow a multi-unit route through a global secondary index:
    /// an equality/IN predicate on an indexed column resolves to shard-key
    /// values via the hidden mapping, and the statement re-routes to the
    /// owning nodes only. The nodes come back as ordinals together with the
    /// plan that binds them: the statement's own when it already is in the
    /// table's node space — so a narrowed execution reuses what the plan
    /// keeps for those nodes — and one over the table as it is now
    /// otherwise. Every failure path returns `None` — the index is an
    /// optimization, the scatter route stays correct without it.
    fn gsi_narrow_route(
        &self,
        stmt: &Statement,
        params: &[Value],
        plan: &Arc<Plan>,
    ) -> Option<(Arc<Plan>, Vec<usize>)> {
        let (table, where_clause) = match stmt {
            Statement::Select(s) if s.joins.is_empty() => {
                (s.from.as_ref()?.name.as_str(), s.where_clause.as_ref()?)
            }
            Statement::Update(u) => (u.table.as_str(), u.where_clause.as_ref()?),
            Statement::Delete(d) => (d.table.as_str(), d.where_clause.as_ref()?),
            _ => return None,
        };
        let metrics = &self.runtime.metrics;
        for index in self.runtime.gsi.for_table(table) {
            let Some(values) = gsi::equality_values(where_clause, &index.column, params) else {
                continue;
            };
            if metrics.on() {
                metrics.gsi_lookups.inc();
            }
            let space = match plan.table_rule() {
                Some(_) => Arc::clone(plan),
                None => {
                    let rule = self.runtime.rule.read();
                    Arc::new(Plan::over_table(Arc::clone(rule.shared_table_rule(table)?)))
                }
            };
            // A failed lookup degrades to the scatter route.
            let nodes = self.gsi_lookup_nodes(space.table_rule()?, &index, &values)?;
            if metrics.on() {
                metrics.gsi_hits.inc();
            }
            return Some((space, nodes));
        }
        None
    }

    /// Resolve index values to the ordinals of the data nodes that hold
    /// them, via the hidden mapping table.
    fn gsi_lookup_nodes(
        &self,
        rule: &TableRule,
        index: &GlobalIndex,
        values: &[Value],
    ) -> Option<Vec<usize>> {
        let mut shard_vals: Vec<Value> = Vec::new();
        for v in values {
            let ds_name = index.entry_datasource(v);
            let engine = Arc::clone(self.runtime.datasource(ds_name).ok()?.engine());
            // Read through the session's branch when one exists, so a
            // transaction sees its own uncommitted maintenance writes.
            let txn = self
                .txn
                .as_ref()
                .and_then(|t| t.branches.get(ds_name))
                .map(|(_, id)| *id);
            let result = engine
                .execute_sql(&index.lookup_sql(), std::slice::from_ref(v), txn)
                .ok()?;
            let ExecuteResult::Query(rs) = result else {
                return None;
            };
            for row in rs.rows {
                let sv = row.into_iter().next()?;
                if !shard_vals.contains(&sv) {
                    shard_vals.push(sv);
                }
            }
        }
        if shard_vals.is_empty() {
            // No shard holds the value (an empty condition would read as a
            // contradiction and keep one node).
            return Some(Vec::new());
        }
        ordinals_for_condition(rule, &ShardingCondition::Exact(shard_vals)).ok()
    }

    /// Reference-count deltas a write statement owes the hidden mapping
    /// tables, split into (before base write, after base write) batches.
    fn gsi_maintenance_ops(
        &self,
        stmt: &Statement,
        inputs: &[ExecutionInput],
        params: &[Value],
    ) -> Result<(Vec<GsiMaintOp>, Vec<GsiMaintOp>)> {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        match stmt {
            Statement::Insert(ins) => {
                let indexes = self.runtime.gsi.for_table(ins.table.as_str());
                if indexes.is_empty() {
                    return Ok((pre, post));
                }
                let shard_col = {
                    let rule_guard = self.runtime.rule.read();
                    match rule_guard.table_rule(ins.table.as_str()) {
                        Some(r) => r.sharding_column.clone(),
                        None => return Ok((pre, post)),
                    }
                };
                // Positional INSERTs take the registered schema's order.
                let columns: Vec<String> = if ins.columns.is_empty() {
                    self.runtime
                        .schemas
                        .columns(ins.table.as_str())
                        .unwrap_or_default()
                } else {
                    ins.columns.clone()
                };
                let pos = |name: &str| columns.iter().position(|c| c.eq_ignore_ascii_case(name));
                let Some(shard_pos) = pos(&shard_col) else {
                    return Ok((pre, post));
                };
                for row in &ins.rows {
                    let Some(shard_expr) = row.get(shard_pos) else {
                        continue;
                    };
                    let shard_val = crate::rewrite::eval_const(shard_expr, params)?;
                    for index in &indexes {
                        let Some(ip) = pos(&index.column) else {
                            continue; // column omitted: NULL, not indexed
                        };
                        let Some(idx_expr) = row.get(ip) else {
                            continue;
                        };
                        let idx_val = crate::rewrite::eval_const(idx_expr, params)?;
                        if idx_val == Value::Null {
                            continue;
                        }
                        pre.push(GsiMaintOp {
                            index: Arc::clone(index),
                            add: true,
                            idx_val,
                            shard_val: shard_val.clone(),
                        });
                    }
                }
            }
            Statement::Delete(del) => {
                let indexes = self.runtime.gsi.for_table(del.table.as_str());
                if indexes.is_empty() {
                    return Ok((pre, post));
                }
                let shard_col = {
                    let rule_guard = self.runtime.rule.read();
                    match rule_guard.table_rule(del.table.as_str()) {
                        Some(r) => r.sharding_column.clone(),
                        None => return Ok((pre, post)),
                    }
                };
                for index in &indexes {
                    let rows = self.gsi_preimage(
                        inputs,
                        del.table.as_str(),
                        del.alias.as_deref(),
                        &index.column,
                        &shard_col,
                        del.where_clause.as_ref(),
                        params,
                    )?;
                    for (idx_val, shard_val) in rows {
                        if idx_val == Value::Null {
                            continue;
                        }
                        post.push(GsiMaintOp {
                            index: Arc::clone(index),
                            add: false,
                            idx_val,
                            shard_val,
                        });
                    }
                }
            }
            Statement::Update(up) => {
                let indexes = self.runtime.gsi.for_table(up.table.as_str());
                if indexes.is_empty() {
                    return Ok((pre, post));
                }
                let shard_col = {
                    let rule_guard = self.runtime.rule.read();
                    match rule_guard.table_rule(up.table.as_str()) {
                        Some(r) => r.sharding_column.clone(),
                        None => return Ok((pre, post)),
                    }
                };
                if up
                    .assignments
                    .iter()
                    .any(|a| a.column.eq_ignore_ascii_case(&shard_col))
                {
                    return Err(KernelError::Config(format!(
                        "cannot update sharding column '{shard_col}' on '{}': \
                         the table has a global secondary index",
                        up.table.as_str()
                    )));
                }
                for index in &indexes {
                    let Some(assign) = up
                        .assignments
                        .iter()
                        .find(|a| a.column.eq_ignore_ascii_case(&index.column))
                    else {
                        continue; // indexed column untouched
                    };
                    let new_val =
                        crate::rewrite::eval_const(&assign.value, params).map_err(|_| {
                            KernelError::Config(format!(
                                "updating indexed column '{}' requires a constant value \
                                 (drop the global index to use expressions)",
                                index.column
                            ))
                        })?;
                    let rows = self.gsi_preimage(
                        inputs,
                        up.table.as_str(),
                        up.alias.as_deref(),
                        &index.column,
                        &shard_col,
                        up.where_clause.as_ref(),
                        params,
                    )?;
                    for (old_val, shard_val) in rows {
                        if old_val == new_val {
                            continue;
                        }
                        if new_val != Value::Null {
                            pre.push(GsiMaintOp {
                                index: Arc::clone(index),
                                add: true,
                                idx_val: new_val.clone(),
                                shard_val: shard_val.clone(),
                            });
                        }
                        if old_val != Value::Null {
                            post.push(GsiMaintOp {
                                index: Arc::clone(index),
                                add: false,
                                idx_val: old_val,
                                shard_val,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        Ok((pre, post))
    }

    /// Pre-image `(indexed value, shard-key value)` pairs of the rows a
    /// write is about to touch, read on the statement's own units.
    #[allow(clippy::too_many_arguments)]
    fn gsi_preimage(
        &self,
        inputs: &[ExecutionInput],
        table: &str,
        alias: Option<&str>,
        idx_col: &str,
        shard_col: &str,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> Result<Vec<(Value, Value)>> {
        use shard_sql::ast::{ObjectName, SelectItem, SelectStatement, TableRef};
        let select = Statement::Select(SelectStatement {
            distinct: false,
            projection: vec![
                SelectItem::Expr {
                    expr: Expr::col(idx_col),
                    alias: None,
                },
                SelectItem::Expr {
                    expr: Expr::col(shard_col),
                    alias: None,
                },
            ],
            from: Some(TableRef {
                name: ObjectName::new(table),
                alias: alias.map(str::to_string),
            }),
            joins: Vec::new(),
            where_clause: where_clause.cloned(),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            for_update: false,
        });
        let units = inputs.iter().map(|input| Arc::clone(&input.unit));
        let route = RouteResult::new(RouteKind::Standard, units);
        let bound = Plan::bind_routed(route, &select, params, self.runtime.agg_pushdown())?;
        let mut out = Vec::new();
        for ExecutionInput { unit, stmt } in bound.inputs {
            let ds = self.runtime.datasource(&unit.datasource)?;
            let txn = self
                .txn
                .as_ref()
                .and_then(|t| t.branches.get(&unit.datasource))
                .map(|(_, id)| *id);
            let result = ds
                .engine()
                .execute(&stmt, params, txn)
                .map_err(KernelError::Storage)?;
            if let ExecuteResult::Query(rs) = result {
                for row in rs.rows {
                    let mut it = row.into_iter();
                    let idx_val = it.next().unwrap_or(Value::Null);
                    let shard_val = it.next().unwrap_or(Value::Null);
                    out.push((idx_val, shard_val));
                }
            }
        }
        Ok(out)
    }

    /// Apply reference-count ops against the hidden mapping tables, inside
    /// the session's branch transactions when one is open.
    fn apply_gsi_ops(&mut self, ops: &[GsiMaintOp]) -> Result<()> {
        for op in ops {
            let ds_name = op.index.entry_datasource(&op.idx_val).to_string();
            let engine = Arc::clone(self.runtime.datasource(&ds_name)?.engine());
            let txn = self.gsi_branch(&ds_name, &engine);
            let p = [op.idx_val.clone(), op.shard_val.clone()];
            if op.add {
                let (upd, ins) = op.index.add_ref_sqls();
                let r = engine
                    .execute_sql(&upd, &p, txn)
                    .map_err(KernelError::Storage)?;
                if r.affected() == 0 {
                    engine
                        .execute_sql(&ins, &p, txn)
                        .map_err(KernelError::Storage)?;
                }
            } else {
                let (dec, del) = op.index.remove_ref_sqls();
                engine
                    .execute_sql(&dec, &p, txn)
                    .map_err(KernelError::Storage)?;
                engine
                    .execute_sql(&del, &p, txn)
                    .map_err(KernelError::Storage)?;
            }
        }
        Ok(())
    }

    /// Best-effort inverse of [`Session::apply_gsi_ops`] after a failed base
    /// write. A failure here leaves a stale (over-routing) entry, never a
    /// missing one.
    fn undo_gsi_ops(&mut self, ops: &[GsiMaintOp]) {
        let inverted: Vec<GsiMaintOp> = ops
            .iter()
            .map(|op| GsiMaintOp {
                index: Arc::clone(&op.index),
                add: !op.add,
                idx_val: op.idx_val.clone(),
                shard_val: op.shard_val.clone(),
            })
            .collect();
        let _ = self.apply_gsi_ops(&inverted);
    }

    /// The branch transaction GSI maintenance joins on `ds_name`: inside a
    /// Local/XA transaction the op enlists in the session's branches (so
    /// commit/rollback covers base write and index together); otherwise ops
    /// auto-commit around the base write.
    fn gsi_branch(&mut self, ds_name: &str, engine: &Arc<StorageEngine>) -> Option<TxnId> {
        let txn = self.txn.as_mut()?;
        if !matches!(txn.txn_type, TransactionType::Local | TransactionType::Xa) {
            return None;
        }
        let (_, id) = txn
            .branches
            .entry(ds_name.to_string())
            .or_insert_with(|| (Arc::clone(engine), engine.begin()));
        Some(*id)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An abandoned session must not leak branch transactions or locks.
        let _ = self.rollback();
    }
}

/// Simulated RPC to the (remote) Transaction Coordinator used by BASE
/// transactions. The paper's TC is a separate Seata server; every
/// interaction with it crosses the network.
fn tc_rpc() {
    std::thread::sleep(std::time::Duration::from_micros(120));
}
