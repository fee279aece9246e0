//! Online scaling (paper Table I / §IV-C "Scaling"): re-shard a logic table
//! onto a new rule — more resources, a different shard count or algorithm —
//! while the table stays readable throughout and writable for all but a
//! bounded fence window.
//!
//! The coordinator runs the phased protocol of ShardingSphere-Scaling:
//!
//! 1. **Snapshot barrier** — a brief initial fence drains in-flight DML,
//!    then row-id-snapshot cursors open over every old node. Rows that
//!    exist at cursor open are exactly the backfill set; rows written after
//!    it are exactly the dual-write mirror's responsibility.
//! 2. **Backfill** — rows stream through the storage cursors in batches
//!    (O(batch) memory, not O(table)) and land on the new layout through
//!    multi-row INSERTs, optionally throttled by the token bucket.
//!    Pull + route + insert is one critical section under the job's apply
//!    lock, so a mirrored write can never interleave between a stale pull
//!    and its insert.
//! 3. **Catch-up** — the kernel write path keeps mirroring DML on the
//!    table into the new layout (it has since Backfill); the coordinator
//!    samples the residual lag until the layouts converge.
//! 4. **Fence + cutover** — a write fence bounded by
//!    `SET reshard_fence_timeout_ms` drains in-flight DML, row counts and
//!    order-independent checksums are verified across both layouts, and
//!    the table rule is swapped atomically via `replace_table_rule`.
//!    Readers see either complete layout, never a mix.
//! 5. Any failure — fence timeout, verification mismatch, write fault,
//!    `CANCEL RESHARD` — rolls back: the job enters a terminal phase first
//!    (releasing fenced writers), then the new generation is dropped and
//!    the old rule keeps serving.
//!
//! Per-table state machine: `Idle → Backfill → CatchUp → Fenced → CutOver
//! → Done` (the snapshot barrier shows up as one extra early `Fenced`);
//! `Failed` / `Cancelled` are the terminal failure phases. Every transition
//! is published through the governor's versioned [`ConfigRegistry`] and
//! surfaced by `SHOW RESHARD STATUS`.

use crate::config::{AutoTablePlanner, DataNode, ShardingRule, TableRule};
use crate::error::{KernelError, Result};
use crate::executor::ExecutionInput;
use crate::feature::Throttle;
use crate::governor::ConfigRegistry;
use crate::obs::ActiveTrace;
use crate::plan::Plan;
use crate::route::{RouteEngine, RouteHint};
use crate::runtime::ShardingRuntime;
use parking_lot::{Condvar, Mutex, RwLock};
use shard_sql::ast::{
    DeleteStatement, DropTableStatement, Expr, InsertStatement, ObjectName, SelectItem,
    SelectStatement, ShardingRuleSpec, Statement, TableRef,
};
use shard_sql::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows pulled (and inserted) per backfill critical section.
const BACKFILL_BATCH: usize = 256;
/// Catch-up settle loop: at most this many lag samples before fencing.
const CATCHUP_ROUNDS: u32 = 50;
/// Pause between catch-up lag samples.
const CATCHUP_POLL: Duration = Duration::from_millis(4);
/// Pause after cutover before the old physical tables drop, letting reads
/// that were planned against the old rule finish executing.
const OLD_LAYOUT_GRACE: Duration = Duration::from_millis(100);

/// Phases of one online-resharding job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardPhase {
    Idle,
    Backfill,
    CatchUp,
    Fenced,
    CutOver,
    Done,
    Failed,
    Cancelled,
}

impl ReshardPhase {
    pub fn as_str(&self) -> &'static str {
        match self {
            ReshardPhase::Idle => "idle",
            ReshardPhase::Backfill => "backfill",
            ReshardPhase::CatchUp => "catch_up",
            ReshardPhase::Fenced => "fenced",
            ReshardPhase::CutOver => "cut_over",
            ReshardPhase::Done => "done",
            ReshardPhase::Failed => "failed",
            ReshardPhase::Cancelled => "cancelled",
        }
    }

    /// Terminal phases: the job no longer fences or mirrors anything.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ReshardPhase::Done | ReshardPhase::Failed | ReshardPhase::Cancelled
        )
    }
}

/// Options for [`reshard_with`].
#[derive(Debug, Clone, Default)]
pub struct ReshardOptions {
    /// Backfill throttle (`RESHARD TABLE … THROTTLE n`): rows per second
    /// through the token bucket; `None` = unthrottled.
    pub throttle_rows_per_sec: Option<u64>,
}

/// Point-in-time snapshot of one job for `SHOW RESHARD STATUS`.
#[derive(Debug, Clone)]
pub struct ReshardStatus {
    pub table: String,
    pub phase: ReshardPhase,
    pub rows_copied: u64,
    pub mirrored_writes: u64,
    pub lag_rows: u64,
    pub fence_us: u64,
    pub throttle_rows_per_sec: Option<u64>,
    /// Phase transitions in order, e.g. `fenced → backfill → … → done`.
    pub transitions: Vec<&'static str>,
    pub error: Option<String>,
    pub warnings: Vec<String>,
}

/// One live (or finished) resharding job. The kernel write path consults it
/// per DML statement; the coordinator drives its phases.
pub struct ReshardJob {
    table: String,
    phase: Mutex<ReshardPhase>,
    /// Signalled on every phase change; fenced writers wait here.
    phase_cv: Condvar,
    /// A sharding rule containing only the new table rule: the dual-write
    /// mirror routes through it.
    mirror_rule: ShardingRule,
    /// Serializes backfill batches against mirror applies (the stale-pull
    /// correctness argument needs pull+insert to be atomic w.r.t. mirrors).
    pub(crate) apply_lock: Mutex<()>,
    rows_copied: AtomicU64,
    mirrored_writes: AtomicU64,
    lag_rows: AtomicU64,
    fence_us: AtomicU64,
    throttle_rps: Option<u64>,
    cancel: AtomicBool,
    /// First error observed (mirror poison or coordinator failure).
    error: Mutex<Option<String>>,
    transitions: Mutex<Vec<&'static str>>,
    warnings: Mutex<Vec<String>>,
}

impl ReshardJob {
    fn new(table: &str, mirror_rule: ShardingRule, throttle_rps: Option<u64>) -> Self {
        ReshardJob {
            table: table.to_string(),
            phase: Mutex::new(ReshardPhase::Idle),
            phase_cv: Condvar::new(),
            mirror_rule,
            apply_lock: Mutex::new(()),
            rows_copied: AtomicU64::new(0),
            mirrored_writes: AtomicU64::new(0),
            lag_rows: AtomicU64::new(0),
            fence_us: AtomicU64::new(0),
            throttle_rps,
            cancel: AtomicBool::new(false),
            error: Mutex::new(None),
            transitions: Mutex::new(vec![ReshardPhase::Idle.as_str()]),
            warnings: Mutex::new(Vec::new()),
        }
    }

    pub fn table(&self) -> &str {
        &self.table
    }

    pub fn phase(&self) -> ReshardPhase {
        *self.phase.lock()
    }

    /// Transition phases, record the step, publish it to the governor's
    /// registry, and wake any fenced writer.
    fn set_phase(&self, next: ReshardPhase, registry: &ConfigRegistry) {
        {
            let mut phase = self.phase.lock();
            *phase = next;
            self.transitions.lock().push(next.as_str());
            self.phase_cv.notify_all();
        }
        registry.set(
            &format!("reshard/{}", self.table),
            next.as_str().to_string(),
        );
    }

    pub fn is_fenced(&self) -> bool {
        self.phase() == ReshardPhase::Fenced
    }

    /// Should the kernel plan a dual-write mirror for a statement admitted
    /// right now? (Fenced statements are blocked before planning.)
    pub(crate) fn mirrors_writes(&self) -> bool {
        matches!(self.phase(), ReshardPhase::Backfill | ReshardPhase::CatchUp)
    }

    /// Should a planned mirror still apply? A statement admitted during
    /// Backfill/CatchUp may reach its mirror apply after the fence went up;
    /// the fence drain waits for it, so the mirror must land.
    fn mirror_applies(&self) -> bool {
        matches!(
            self.phase(),
            ReshardPhase::Backfill | ReshardPhase::CatchUp | ReshardPhase::Fenced
        )
    }

    /// Block until the job leaves `Fenced` (any phase change qualifies).
    pub(crate) fn wait_fence_release(&self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut phase = self.phase.lock();
        while *phase == ReshardPhase::Fenced {
            if self.phase_cv.wait_until(&mut phase, deadline).timed_out() {
                return Err(KernelError::Timeout(format!(
                    "write blocked by reshard fence on '{}' beyond its deadline",
                    self.table
                )));
            }
        }
        Ok(())
    }

    /// Record an asynchronous failure (a mirror write that could not land).
    /// The coordinator aborts the job at its next check; the statement that
    /// observed the error is never failed by its mirror.
    pub(crate) fn poison(&self, msg: String) {
        let mut e = self.error.lock();
        if e.is_none() {
            *e = Some(msg);
        }
    }

    fn poisoned(&self) -> Option<String> {
        self.error.lock().clone()
    }

    fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    pub(crate) fn note_mirrored(&self) {
        self.mirrored_writes.fetch_add(1, Ordering::Relaxed);
    }

    fn lag_rows(&self) -> u64 {
        self.lag_rows.load(Ordering::Relaxed)
    }

    pub fn status(&self) -> ReshardStatus {
        ReshardStatus {
            table: self.table.clone(),
            phase: self.phase(),
            rows_copied: self.rows_copied.load(Ordering::Relaxed),
            mirrored_writes: self.mirrored_writes.load(Ordering::Relaxed),
            lag_rows: self.lag_rows(),
            fence_us: self.fence_us.load(Ordering::Relaxed),
            throttle_rows_per_sec: self.throttle_rps,
            transitions: self.transitions.lock().clone(),
            error: self.error.lock().clone(),
            warnings: self.warnings.lock().clone(),
        }
    }
}

/// A planned dual-write mirror: the statement's execution inputs routed by
/// the *new* rule, applied after the base write succeeds.
pub(crate) struct ReshardMirror {
    pub(crate) job: Arc<ReshardJob>,
    pub(crate) inputs: Vec<ExecutionInput>,
}

impl ReshardJob {
    /// Route + rewrite a (feature-patched) DML statement through the new
    /// layout. Errors poison the job at the call site — they never fail the
    /// base statement.
    pub(crate) fn plan_mirror(
        &self,
        stmt: &Statement,
        params: &[Value],
    ) -> Result<Vec<ExecutionInput>> {
        let hint = RouteHint::default();
        let route = RouteEngine::new(&self.mirror_rule, &hint).route(stmt, params)?;
        // No unit, no input: the caller skips an empty mirror.
        Ok(Plan::bind_routed(route, stmt, params, false)?.inputs)
    }

    /// Apply a planned mirror against the engines. Runs under the job's
    /// apply lock; phases past the fence skip (the rule already swapped).
    /// Returns mirrored-write count for metrics; errors poison the job.
    pub(crate) fn apply_mirror(
        self: &Arc<Self>,
        runtime: &Arc<ShardingRuntime>,
        inputs: &[ExecutionInput],
        params: &[Value],
        mut branch: impl FnMut(&str, &Arc<shard_storage::StorageEngine>) -> Option<shard_storage::TxnId>,
    ) -> u64 {
        let _apply = self.apply_lock.lock();
        if !self.mirror_applies() {
            return 0;
        }
        let mut applied = 0u64;
        for input in inputs {
            let engine = match runtime.datasource(&input.unit.datasource) {
                Ok(ds) => Arc::clone(ds.engine()),
                Err(e) => {
                    self.poison(format!("mirror target unavailable: {e}"));
                    return applied;
                }
            };
            let txn = branch(&input.unit.datasource, &engine);
            match engine.execute(&input.stmt, params, txn) {
                Ok(_) => {
                    self.note_mirrored();
                    applied += 1;
                }
                Err(e) => {
                    self.poison(format!(
                        "mirror write on '{}' failed: {e}",
                        input.unit.datasource
                    ));
                    return applied;
                }
            }
        }
        applied
    }
}

/// RAII in-flight marker for one DML statement: created at plan time,
/// dropped when the statement (including its mirror apply) completes. The
/// reshard fence drains the shared counter to zero before cutover.
pub(crate) struct DmlWriteGuard {
    counter: Arc<AtomicU64>,
}

impl DmlWriteGuard {
    pub(crate) fn enter(counter: &Arc<AtomicU64>) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        DmlWriteGuard {
            counter: Arc::clone(counter),
        }
    }
}

impl Drop for DmlWriteGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runtime-wide registry of resharding jobs (live and finished) plus the
/// generation counter that keeps physical table names collision-free across
/// attempts.
#[derive(Default)]
pub struct ReshardManager {
    jobs: RwLock<HashMap<String, Arc<ReshardJob>>>,
    /// Live (non-terminal) job count: the write path's cheap gate.
    active: AtomicUsize,
    /// Highest generation ever claimed per table — a failed attempt must
    /// not reuse its `_gN` suffix.
    last_generation: Mutex<HashMap<String, u32>>,
}

impl ReshardManager {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fast gate for the per-statement write path: any live job at all?
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst) > 0
    }

    /// The live job covering any of the statement's tables, if one exists.
    pub fn live_job_for(&self, tables: &[String]) -> Option<Arc<ReshardJob>> {
        let jobs = self.jobs.read();
        for t in tables {
            if let Some(job) = jobs.get(&t.to_lowercase()) {
                if !job.phase().is_terminal() {
                    return Some(Arc::clone(job));
                }
            }
        }
        None
    }

    /// Status snapshots of every known job, sorted by table.
    pub fn statuses(&self) -> Vec<ReshardStatus> {
        let mut out: Vec<ReshardStatus> = self.jobs.read().values().map(|j| j.status()).collect();
        out.sort_by(|a, b| a.table.cmp(&b.table));
        out
    }

    /// Flag live jobs for cancellation (`CANCEL RESHARD [TABLE t]`);
    /// returns how many jobs were flagged. The coordinator notices at its
    /// next batch boundary and rolls back.
    pub fn cancel(&self, table: Option<&str>) -> usize {
        let jobs = self.jobs.read();
        let mut flagged = 0;
        for job in jobs.values() {
            if job.phase().is_terminal() {
                continue;
            }
            if table.is_some_and(|t| !t.eq_ignore_ascii_case(&job.table)) {
                continue;
            }
            job.request_cancel();
            flagged += 1;
        }
        flagged
    }

    /// Total residual lag over live jobs (the `reshard_lag_rows` gauge).
    pub fn lag_rows_total(&self) -> u64 {
        self.jobs
            .read()
            .values()
            .filter(|j| !j.phase().is_terminal())
            .map(|j| j.lag_rows())
            .sum()
    }

    fn register(&self, job: Arc<ReshardJob>) -> Result<()> {
        let key = job.table.to_lowercase();
        let mut jobs = self.jobs.write();
        if let Some(existing) = jobs.get(&key) {
            if !existing.phase().is_terminal() {
                return Err(KernelError::Config(format!(
                    "a reshard of '{}' is already running",
                    job.table
                )));
            }
        }
        jobs.insert(key, job);
        self.active.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Called exactly once per registered job, when it reaches a terminal
    /// phase.
    fn retire(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// The `_gN` suffix for the next attempt: beyond both the old layout's
    /// generation and every generation this table ever claimed (so a failed
    /// `_g1` attempt retries as `_g2`).
    fn claim_generation(&self, table: &str, old_nodes: &[DataNode]) -> u32 {
        let mut last = self.last_generation.lock();
        let entry = last.entry(table.to_lowercase()).or_insert(0);
        let next = next_generation(old_nodes).max(*entry + 1);
        *entry = next;
        next
    }
}

/// Outcome of a resharding job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingReport {
    pub table: String,
    pub rows_migrated: u64,
    /// DML statements mirrored into the new layout during backfill/catch-up.
    pub mirrored_writes: u64,
    pub old_nodes: usize,
    pub new_nodes: usize,
    /// Wall time of the final write fence (drain + verify + rule swap).
    pub fence_us: u64,
    /// Non-fatal cleanup problems (an old physical table that would not
    /// drop). The migration itself succeeded.
    pub warnings: Vec<String>,
}

/// Re-shard `spec.table` onto the layout described by `spec` with default
/// options (unthrottled backfill).
pub fn reshard(runtime: &Arc<ShardingRuntime>, spec: &ShardingRuleSpec) -> Result<ScalingReport> {
    reshard_with(runtime, spec, ReshardOptions::default())
}

/// Live trace of one reshard job: a root span for the whole migration plus
/// one child span per coordinator phase, so `SHOW TRACE` renders where a
/// migration spent its time — and where it died.
struct ReshardTrace {
    trace: ActiveTrace,
    current: Option<u32>,
}

impl ReshardTrace {
    /// Close the running phase span (if any) and open the next one.
    fn phase(&mut self, name: &'static str) {
        self.close_current(None);
        let root = self.trace.scope();
        self.current = Some(root.recorder.begin(root.parent, name, String::new()));
    }

    fn close_current(&mut self, error: Option<String>) {
        if let Some(id) = self.current.take() {
            self.trace.scope().recorder.finish(id, None, error);
        }
    }
}

/// Re-shard `spec.table` onto the layout described by `spec`: the phased
/// online coordinator (see module docs). When tracing is enabled the whole
/// job becomes one trace (origin `reshard:<table>`) with a span per phase;
/// a failed job additionally freezes the span ring into an incident —
/// fence/barrier drain timeouts as `reshard_fence_timeout`.
pub fn reshard_with(
    runtime: &Arc<ShardingRuntime>,
    spec: &ShardingRuleSpec,
    opts: ReshardOptions,
) -> Result<ScalingReport> {
    let collector = runtime.trace_collector();
    let mut tr = collector.enabled().then(|| ReshardTrace {
        trace: collector.start(
            &format!("reshard:{}", spec.table),
            ("reshard", spec.table.clone()),
            format!("<reshard of '{}'>", spec.table),
            Instant::now(),
            true,
        ),
        current: None,
    });
    // Storage internals touched on this thread (backfill cursor opens, the
    // WAL flushes behind the batched inserts) report through the probe and
    // hang under the job's root span.
    let _probe = tr.as_ref().map(|t| {
        let root = t.trace.scope();
        root.install_probe(root.parent)
    });
    let result = reshard_inner(runtime, spec, opts, &mut tr);
    if let Some(mut t) = tr {
        let err = result.as_ref().err().map(|e| e.to_string());
        t.close_current(err.clone());
        t.trace.finish(err, None);
    }
    result
}

fn reshard_inner(
    runtime: &Arc<ShardingRuntime>,
    spec: &ShardingRuleSpec,
    opts: ReshardOptions,
    tr: &mut Option<ReshardTrace>,
) -> Result<ScalingReport> {
    let logic = spec.table.clone();
    let old_rule = runtime
        .table_rule_snapshot(&logic)
        .ok_or_else(|| KernelError::Config(format!("'{logic}' has no sharding rule to scale")))?;
    let schema = runtime.schemas().require(&logic)?;
    let key_idx = schema
        .columns
        .iter()
        .position(|c| c.name.eq_ignore_ascii_case(&spec.sharding_column))
        .ok_or_else(|| {
            KernelError::Config(format!(
                "sharding column '{}' not in schema of '{logic}'",
                spec.sharding_column
            ))
        })?;

    // Plan the new layout and build both rules up front: everything that
    // can fail cheaply fails before the job registers.
    let props: crate::algorithm::Props = spec.props.iter().cloned().collect();
    let algorithm = runtime.create_algorithm(&spec.algorithm_type, &props)?;
    let generation = runtime
        .reshard
        .claim_generation(&logic, &old_rule.data_nodes);
    let planned = AutoTablePlanner::plan_data_nodes(spec)?;
    let new_nodes: Vec<DataNode> = planned
        .iter()
        .map(|n| DataNode::new(n.datasource.clone(), format!("{}_g{generation}", n.table)))
        .collect();
    let new_rule = TableRule {
        logic_table: logic.clone(),
        sharding_column: spec.sharding_column.clone(),
        algorithm: Arc::clone(&algorithm),
        algorithm_type: spec.algorithm_type.clone(),
        data_nodes: new_nodes.clone(),
        props,
        key_generate_column: old_rule.key_generate_column.clone(),
        complex: old_rule.complex.clone(),
    };
    let mut mirror_rule = ShardingRule::new(runtime.datasource_names());
    mirror_rule.add_table_rule(new_rule.clone())?;

    let job = Arc::new(ReshardJob::new(
        &logic,
        mirror_rule,
        opts.throttle_rows_per_sec,
    ));
    runtime.reshard.register(Arc::clone(&job))?;
    let registry = Arc::clone(runtime.registry());

    // Create the new physical tables (schema cloned from the logic table).
    for node in &new_nodes {
        let mut ddl_schema = schema.clone();
        ddl_schema.name = ObjectName::new(node.table.clone());
        ddl_schema.if_not_exists = true;
        let created = runtime.datasource(&node.datasource).and_then(|ds| {
            ds.engine()
                .execute(&Statement::CreateTable(ddl_schema), &[], None)
                .map_err(KernelError::Storage)
        });
        if let Err(e) = created {
            return Err(abort(
                runtime,
                &job,
                &new_nodes,
                ReshardPhase::Failed,
                format!("creating new layout for '{logic}' failed: {e}"),
            ));
        }
    }

    let fence_timeout = Duration::from_millis(runtime.reshard_fence_timeout_ms());

    // Snapshot barrier: drain in-flight DML under a brief fence, then open
    // the row-id-snapshot cursors. Writers admitted after this barrier see
    // the Backfill phase and mirror; rows from before it are in a cursor's
    // snapshot. No row is missed or double-applied.
    job.set_phase(ReshardPhase::Fenced, &registry);
    if let Some(t) = tr.as_mut() {
        t.phase("snapshot_barrier");
    }
    if !drain_dml(runtime, fence_timeout) {
        return Err(abort(
            runtime,
            &job,
            &new_nodes,
            ReshardPhase::Failed,
            format!(
                "snapshot barrier for '{logic}' timed out after {}ms draining in-flight writes",
                fence_timeout.as_millis()
            ),
        ));
    }
    let mut cursors = Vec::with_capacity(old_rule.data_nodes.len());
    for node in &old_rule.data_nodes {
        let opened = runtime.datasource(&node.datasource).and_then(|ds| {
            ds.engine()
                .open_cursor(wildcard_select(&node.table), Arc::new([]), None)
                .map_err(KernelError::Storage)
        });
        match opened {
            Ok(cursor) => cursors.push(cursor),
            Err(e) => {
                return Err(abort(
                    runtime,
                    &job,
                    &new_nodes,
                    ReshardPhase::Failed,
                    format!(
                        "opening backfill cursor on '{}' failed: {e}",
                        node.datasource
                    ),
                ))
            }
        }
    }

    // Backfill: stream the snapshot into the new layout, batch by batch.
    job.set_phase(ReshardPhase::Backfill, &registry);
    if let Some(t) = tr.as_mut() {
        t.phase("backfill");
    }
    let throttle = opts.throttle_rows_per_sec.map(Throttle::new);
    for mut cursor in cursors {
        loop {
            if job.cancelled() {
                return Err(abort(
                    runtime,
                    &job,
                    &new_nodes,
                    ReshardPhase::Cancelled,
                    format!("reshard of '{logic}' cancelled during backfill"),
                ));
            }
            if let Some(msg) = job.poisoned() {
                return Err(abort(runtime, &job, &new_nodes, ReshardPhase::Failed, msg));
            }
            // Throttle outside the apply lock: pacing must never stall a
            // mirrored write.
            if let Some(t) = &throttle {
                for _ in 0..BACKFILL_BATCH {
                    t.acquire(Duration::from_millis(50));
                }
            }
            let copied = {
                let _apply = job.apply_lock.lock();
                cursor
                    .next_rows(BACKFILL_BATCH)
                    .map_err(KernelError::Storage)
                    .and_then(|rows| {
                        if rows.is_empty() {
                            Ok(0)
                        } else {
                            insert_batch(runtime, &new_rule, key_idx, rows)
                        }
                    })
            };
            match copied {
                Ok(0) => break,
                Ok(n) => {
                    job.rows_copied.fetch_add(n as u64, Ordering::Relaxed);
                    if runtime.metrics.on() {
                        runtime.metrics.reshard_rows_copied.add(n as u64);
                    }
                }
                Err(e) => {
                    return Err(abort(
                        runtime,
                        &job,
                        &new_nodes,
                        ReshardPhase::Failed,
                        format!("backfill of '{logic}' failed: {e}"),
                    ))
                }
            }
        }
    }

    // Catch-up: mirroring has been live since Backfill; sample the residual
    // lag until the layouts converge (bounded — verification is the
    // authoritative check).
    job.set_phase(ReshardPhase::CatchUp, &registry);
    if let Some(t) = tr.as_mut() {
        t.phase("catch_up");
    }
    for _ in 0..CATCHUP_ROUNDS {
        if job.cancelled() {
            return Err(abort(
                runtime,
                &job,
                &new_nodes,
                ReshardPhase::Cancelled,
                format!("reshard of '{logic}' cancelled during catch-up"),
            ));
        }
        let lag = match (
            layout_count(runtime, &old_rule.data_nodes),
            layout_count(runtime, &new_nodes),
        ) {
            (Ok(old), Ok(new)) => old.saturating_sub(new),
            _ => break, // verification will surface the real error
        };
        job.lag_rows.store(lag, Ordering::Relaxed);
        if lag == 0 {
            break;
        }
        std::thread::sleep(CATCHUP_POLL);
    }

    // Fence: bounded drain, verify, swap.
    let fence_start = Instant::now();
    job.set_phase(ReshardPhase::Fenced, &registry);
    if let Some(t) = tr.as_mut() {
        t.phase("fence");
    }
    if !drain_dml(runtime, fence_timeout) {
        return Err(abort(
            runtime,
            &job,
            &new_nodes,
            ReshardPhase::Failed,
            format!(
                "reshard fence for '{logic}' timed out after {}ms draining in-flight writes",
                fence_timeout.as_millis()
            ),
        ));
    }
    if job.cancelled() {
        return Err(abort(
            runtime,
            &job,
            &new_nodes,
            ReshardPhase::Cancelled,
            format!("reshard of '{logic}' cancelled at the fence"),
        ));
    }
    if let Some(msg) = job.poisoned() {
        return Err(abort(runtime, &job, &new_nodes, ReshardPhase::Failed, msg));
    }
    let verdict = verify_layouts(runtime, &old_rule.data_nodes, &new_nodes);
    match verdict {
        Ok(()) => {}
        Err(e) => {
            return Err(abort(
                runtime,
                &job,
                &new_nodes,
                ReshardPhase::Failed,
                format!("scaling verification failed for '{logic}': {e}"),
            ))
        }
    }
    if let Err(e) = runtime.replace_table_rule(new_rule) {
        return Err(abort(
            runtime,
            &job,
            &new_nodes,
            ReshardPhase::Failed,
            format!("rule swap for '{logic}' failed: {e}"),
        ));
    }
    let fence_us = (fence_start.elapsed().as_micros() as u64).max(1);
    job.fence_us.store(fence_us, Ordering::Relaxed);
    job.lag_rows.store(0, Ordering::Relaxed);
    if runtime.metrics.on() {
        runtime.metrics.reshard_fence_us.record_us(fence_us);
    }
    job.set_phase(ReshardPhase::CutOver, &registry);
    if let Some(t) = tr.as_mut() {
        t.phase("cutover");
    }

    // Grace before dropping the old layout: a read planned against the old
    // rule just before the swap may still be executing — statements run for
    // at most milliseconds, so a bounded pause lets them finish against
    // tables that still exist. Readers are never blocked or failed.
    std::thread::sleep(OLD_LAYOUT_GRACE);

    // Drop the old physical tables; failures are warnings, not errors —
    // the cutover already happened.
    let mut warnings = Vec::new();
    for node in &old_rule.data_nodes {
        let dropped = runtime.datasource(&node.datasource).and_then(|ds| {
            ds.engine()
                .execute(&drop_table(&node.table), &[], None)
                .map_err(KernelError::Storage)
        });
        if let Err(e) = dropped {
            if runtime.metrics.on() {
                runtime.metrics.reshard_cleanup_failures.inc();
            }
            warnings.push(format!(
                "old table '{}.{}' not dropped: {e}",
                node.datasource, node.table
            ));
        }
    }
    *job.warnings.lock() = warnings.clone();
    job.set_phase(ReshardPhase::Done, &registry);
    runtime.reshard.retire();

    Ok(ScalingReport {
        table: logic,
        rows_migrated: job.rows_copied.load(Ordering::Relaxed),
        mirrored_writes: job.mirrored_writes.load(Ordering::Relaxed),
        old_nodes: old_rule.data_nodes.len(),
        new_nodes: new_nodes.len(),
        fence_us,
        warnings,
    })
}

/// Roll a failed/cancelled job back: terminal phase first (releasing any
/// fenced writer), then drop the new generation. The old rule never stopped
/// serving. Cleanup failures become warnings on the job plus the
/// `reshard_cleanup_failures_total` counter — never silent.
fn abort(
    runtime: &Arc<ShardingRuntime>,
    job: &Arc<ReshardJob>,
    new_nodes: &[DataNode],
    phase: ReshardPhase,
    msg: String,
) -> KernelError {
    job.poison(msg.clone());
    job.set_phase(phase, runtime.registry());
    runtime.reshard.retire();
    // Take the apply lock so an in-flight mirror finishes before its target
    // tables vanish.
    let _apply = job.apply_lock.lock();
    let mut warnings = Vec::new();
    for node in new_nodes {
        let cleaned = runtime.datasource(&node.datasource).and_then(|ds| {
            ds.engine()
                .execute(
                    &Statement::Delete(DeleteStatement {
                        table: ObjectName::new(node.table.clone()),
                        alias: None,
                        where_clause: None,
                    }),
                    &[],
                    None,
                )
                .and_then(|_| ds.engine().execute(&drop_table(&node.table), &[], None))
                .map_err(KernelError::Storage)
        });
        if let Err(e) = cleaned {
            if runtime.metrics.on() {
                runtime.metrics.reshard_cleanup_failures.inc();
            }
            warnings.push(format!(
                "new table '{}.{}' not cleaned up: {e}",
                node.datasource, node.table
            ));
        }
    }
    *job.warnings.lock() = warnings;
    KernelError::Config(msg)
}

/// Wait for the in-flight DML counter to reach zero.
fn drain_dml(runtime: &ShardingRuntime, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while runtime.dml_in_flight.load(Ordering::SeqCst) != 0 {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// Route one pulled batch with the new rule and insert it, one multi-row
/// INSERT per target node (`Table::insert_many` on the storage side).
/// Called under the job's apply lock.
fn insert_batch(
    runtime: &Arc<ShardingRuntime>,
    new_rule: &TableRule,
    key_idx: usize,
    rows: Vec<Vec<Value>>,
) -> Result<usize> {
    let copied = rows.len();
    let mut groups: HashMap<(String, String), Vec<Vec<Expr>>> = HashMap::new();
    for row in rows {
        let key = row
            .get(key_idx)
            .ok_or_else(|| KernelError::Execute("backfill row narrower than its schema".into()))?;
        let target = new_rule.route_exact(key)?;
        groups
            .entry((target.datasource.clone(), target.table.clone()))
            .or_default()
            .push(row.iter().cloned().map(Expr::Literal).collect());
    }
    for ((ds_name, table), batch) in groups {
        let insert = InsertStatement {
            table: ObjectName::new(table),
            columns: Vec::new(),
            rows: batch,
        };
        runtime
            .datasource(&ds_name)?
            .engine()
            .execute(&Statement::Insert(insert), &[], None)
            .map_err(KernelError::Storage)?;
    }
    Ok(copied)
}

/// Row count across a layout's nodes (catch-up lag sampling).
fn layout_count(runtime: &Arc<ShardingRuntime>, nodes: &[DataNode]) -> Result<u64> {
    let mut total = 0u64;
    for node in nodes {
        total += runtime
            .datasource(&node.datasource)?
            .engine()
            .table_row_count(&node.table)
            .map_err(KernelError::Storage)? as u64;
    }
    Ok(total)
}

/// Streamed per-layout accounting: row count plus an order-independent
/// checksum (per-row FNV folded with a commutative add), O(batch) memory.
fn layout_fingerprint(runtime: &Arc<ShardingRuntime>, nodes: &[DataNode]) -> Result<(u64, u64)> {
    let (mut count, mut checksum) = (0u64, 0u64);
    for node in nodes {
        let mut cursor = runtime
            .datasource(&node.datasource)?
            .engine()
            .open_cursor(wildcard_select(&node.table), Arc::new([]), None)
            .map_err(KernelError::Storage)?;
        loop {
            let rows = cursor
                .next_rows(BACKFILL_BATCH)
                .map_err(KernelError::Storage)?;
            if rows.is_empty() {
                break;
            }
            for row in &rows {
                count += 1;
                checksum = checksum.wrapping_add(row_hash(row));
            }
        }
    }
    Ok((count, checksum))
}

/// Compare old and new layouts row-for-row (count + checksum).
fn verify_layouts(
    runtime: &Arc<ShardingRuntime>,
    old_nodes: &[DataNode],
    new_nodes: &[DataNode],
) -> Result<()> {
    let (old_count, old_sum) = layout_fingerprint(runtime, old_nodes)?;
    let (new_count, new_sum) = layout_fingerprint(runtime, new_nodes)?;
    if old_count != new_count {
        return Err(KernelError::Config(format!(
            "row count mismatch (old {old_count}, new {new_count})"
        )));
    }
    if old_sum != new_sum {
        return Err(KernelError::Config(format!(
            "checksum mismatch over {old_count} rows (old {old_sum:#018x}, new {new_sum:#018x})"
        )));
    }
    Ok(())
}

fn fnv(mut h: u64, byte: u8) -> u64 {
    h ^= u64::from(byte);
    h.wrapping_mul(0x0000_0100_0000_01B3)
}

/// Order-dependent hash of one row's values (type-tagged, so `1` and `1.0`
/// and `"1"` differ); rows are combined order-independently by the caller.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in row {
        h = match v {
            Value::Null => fnv(h, 0),
            Value::Int(i) => i.to_le_bytes().iter().fold(fnv(h, 1), |h, b| fnv(h, *b)),
            Value::Float(f) => f
                .to_bits()
                .to_le_bytes()
                .iter()
                .fold(fnv(h, 2), |h, b| fnv(h, *b)),
            Value::Str(s) => fnv(s.bytes().fold(fnv(h, 3), fnv), 0xFF),
            Value::Bool(b) => fnv(h, if *b { 4 } else { 5 }),
        };
    }
    h
}

fn wildcard_select(table: &str) -> Arc<Statement> {
    let mut select = SelectStatement::empty();
    select.projection.push(SelectItem::Wildcard);
    select.from = Some(TableRef::named(table.to_string()));
    Arc::new(Statement::Select(select))
}

fn drop_table(table: &str) -> Statement {
    Statement::DropTable(DropTableStatement {
        names: vec![ObjectName::new(table.to_string())],
        if_exists: true,
    })
}

/// Old layouts are `t_0…` or `t_0_gN…`; the next generation number avoids
/// name collisions between consecutive scalings.
fn next_generation(old_nodes: &[DataNode]) -> u32 {
    old_nodes
        .iter()
        .filter_map(|n| {
            n.table
                .rsplit_once("_g")
                .and_then(|(_, g)| g.parse::<u32>().ok())
        })
        .max()
        .map(|g| g + 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_sql::Value;
    use shard_storage::StorageEngine;

    fn runtime_with_data() -> Arc<ShardingRuntime> {
        let runtime = ShardingRuntime::builder()
            .datasource("ds_0", StorageEngine::new("ds_0"))
            .datasource("ds_1", StorageEngine::new("ds_1"))
            .build();
        let mut s = runtime.session();
        s.execute_sql(
            "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0), SHARDING_COLUMN=id, \
             TYPE=mod, PROPERTIES(\"sharding-count\"=2))",
            &[],
        )
        .unwrap();
        s.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[])
            .unwrap();
        for id in 0..40i64 {
            s.execute_sql(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[Value::Int(id), Value::Int(id * 2)],
            )
            .unwrap();
        }
        runtime
    }

    fn spec(resources: Vec<String>, count: usize) -> ShardingRuleSpec {
        ShardingRuleSpec {
            table: "t".into(),
            resources,
            sharding_column: "id".into(),
            algorithm_type: "mod".into(),
            props: vec![("sharding-count".into(), count.to_string())],
        }
    }

    #[test]
    fn scale_out_to_more_sources_and_shards() {
        let runtime = runtime_with_data();
        let report = reshard(&runtime, &spec(vec!["ds_0".into(), "ds_1".into()], 8)).unwrap();
        assert_eq!(report.rows_migrated, 40);
        assert_eq!(report.old_nodes, 2);
        assert_eq!(report.new_nodes, 8);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.fence_us > 0);

        // All data still answers identically through the session.
        let mut s = runtime.session();
        let rs = s
            .execute_sql("SELECT COUNT(*), SUM(v) FROM t", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(40));
        assert_eq!(
            rs.rows[0][1],
            Value::Int((0..40).map(|i| i * 2).sum::<i64>())
        );
        let rs = s
            .execute_sql("SELECT v FROM t WHERE id = 17", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(34));

        // Old physical tables are gone; the new generation exists on ds_1.
        let ds0 = runtime.datasource("ds_0").unwrap();
        assert!(!ds0.engine().table_names().contains(&"t_0".to_string()));
        let ds1 = runtime.datasource("ds_1").unwrap();
        assert!(ds1.engine().table_names().iter().any(|t| t.contains("_g1")));

        // The state machine walked every phase in order (the leading
        // `fenced` is the snapshot barrier).
        let statuses = runtime.reshard.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].phase, ReshardPhase::Done);
        assert_eq!(
            statuses[0].transitions,
            vec!["idle", "fenced", "backfill", "catch_up", "fenced", "cut_over", "done"]
        );
    }

    #[test]
    fn repeated_scaling_bumps_generation() {
        let runtime = runtime_with_data();
        reshard(&runtime, &spec(vec!["ds_0".into(), "ds_1".into()], 4)).unwrap();
        let report = reshard(&runtime, &spec(vec!["ds_0".into()], 2)).unwrap();
        assert_eq!(report.rows_migrated, 40);
        let ds0 = runtime.datasource("ds_0").unwrap();
        assert!(ds0.engine().table_names().iter().any(|t| t.contains("_g2")));
        // Still consistent.
        let mut s = runtime.session();
        let rs = s
            .execute_sql("SELECT COUNT(*) FROM t", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(40));
    }

    #[test]
    fn unknown_table_rejected() {
        let runtime = runtime_with_data();
        let mut bad = spec(vec!["ds_0".into()], 2);
        bad.table = "missing".into();
        assert!(reshard(&runtime, &bad).is_err());
    }

    #[test]
    fn scale_in_to_fewer_shards() {
        let runtime = runtime_with_data();
        let report = reshard(&runtime, &spec(vec!["ds_0".into()], 1)).unwrap();
        assert_eq!(report.new_nodes, 1);
        let mut s = runtime.session();
        let rs = s
            .execute_sql("SELECT COUNT(*) FROM t WHERE id BETWEEN 0 AND 100", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(40));
    }

    #[test]
    fn verification_mismatch_rolls_back_and_next_attempt_bumps_generation() {
        let runtime = runtime_with_data();
        // A rogue row pre-planted in a would-be `_g1` table survives the
        // (IF NOT EXISTS) layout creation and breaks the row accounting.
        let ds0 = runtime.datasource("ds_0").unwrap();
        ds0.engine()
            .execute_sql(
                "CREATE TABLE t_0_g1 (id BIGINT PRIMARY KEY, v INT)",
                &[],
                None,
            )
            .unwrap();
        ds0.engine()
            .execute_sql("INSERT INTO t_0_g1 VALUES (9999, 1)", &[], None)
            .unwrap();

        let err = reshard(&runtime, &spec(vec!["ds_0".into(), "ds_1".into()], 8)).unwrap_err();
        assert!(err.to_string().contains("verification"), "{err}");

        // Old rule keeps serving identical results; the half-built layout
        // is gone (including the rogue table).
        let mut s = runtime.session();
        let rs = s
            .execute_sql("SELECT COUNT(*), SUM(v) FROM t", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(40));
        assert_eq!(
            rs.rows[0][1],
            Value::Int((0..40).map(|i| i * 2).sum::<i64>())
        );
        for name in ["ds_0", "ds_1"] {
            let ds = runtime.datasource(name).unwrap();
            assert!(
                !ds.engine().table_names().iter().any(|t| t.contains("_g1")),
                "orphan _g1 table left on {name}"
            );
        }
        let statuses = runtime.reshard.statuses();
        assert_eq!(statuses[0].phase, ReshardPhase::Failed);
        assert!(statuses[0]
            .error
            .as_deref()
            .unwrap()
            .contains("verification"));

        // The failed attempt burned `_g1`; the retry claims `_g2` and works.
        let report = reshard(&runtime, &spec(vec!["ds_0".into(), "ds_1".into()], 8)).unwrap();
        assert_eq!(report.rows_migrated, 40);
        let ds1 = runtime.datasource("ds_1").unwrap();
        assert!(ds1.engine().table_names().iter().any(|t| t.contains("_g2")));
        let rs = s
            .execute_sql("SELECT COUNT(*) FROM t", &[])
            .unwrap()
            .query();
        assert_eq!(rs.rows[0][0], Value::Int(40));
    }

    #[test]
    fn row_hash_is_type_tagged_and_order_dependent_within_a_row() {
        let a = row_hash(&[Value::Int(1), Value::Int(2)]);
        let b = row_hash(&[Value::Int(2), Value::Int(1)]);
        assert_ne!(a, b);
        assert_ne!(row_hash(&[Value::Int(1)]), row_hash(&[Value::Float(1.0)]));
        assert_ne!(
            row_hash(&[Value::Str("1".into())]),
            row_hash(&[Value::Int(1)])
        );
        assert_ne!(row_hash(&[Value::Null]), row_hash(&[Value::Int(0)]));
    }
}
