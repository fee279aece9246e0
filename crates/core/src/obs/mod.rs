//! Kernel observability: the metrics registry, the span model every
//! statement records into, and the slow-query log.
//!
//! Production ShardingSphere ships a separate Agent for metrics and tracing;
//! here the kernel carries its own introspection surface so every layer —
//! storage, the five pipeline stages, transactions, the governor, the proxy —
//! reports into one [`MetricsRegistry`] that `SHOW METRICS` and the proxy
//! `/metrics` endpoint read from. Design rules (enforced by the `obs` bench
//! gate): recording is lock-free atomic adds, no allocation on the hot path,
//! and everything can be ablated with `SET metrics = off`.

pub mod collector;
pub mod registry;
pub mod slowlog;
pub mod span;
pub mod trace;

pub use collector::{
    ActiveTrace, Incident, IncidentKind, SloMonitor, TraceCollector, DEFAULT_TRACE_SAMPLE_PERIOD,
};
pub use registry::{
    bucket_index, bucket_upper_bound, like_match, Counter, Histogram, HistogramSnapshot,
    MetricsRegistry, Sample, LATENCY_BUCKET_BOUNDS_US, NUM_BUCKETS,
};
pub use slowlog::{SlowQueryEntry, SlowQueryLog, DEFAULT_SLOW_LOG_CAPACITY};
pub use span::{json_escape, Span, SpanRecorder, SpanScope, TraceRecord, Verdicts};
pub use trace::{Stage, StatementTrace, UnitSpan};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The kernel's named instruments, registered once per runtime. Cloned
/// `Arc` handles are handed to the hot path so recording never touches the
/// registry lock.
pub struct KernelMetrics {
    /// Master switch (`SET metrics = on|off`). Off skips every record call —
    /// this is the "disabled" arm of the overhead bench.
    enabled: AtomicBool,
    pub statements: Arc<Counter>,
    pub statement_errors: Arc<Counter>,
    /// End-to-end wall time per data statement.
    pub statement_us: Arc<Histogram>,
    /// Per-stage latency, indexed by [`Stage::index`].
    pub stage_us: [Arc<Histogram>; 5],
    /// Route fan-out width (execution units per routed statement).
    pub route_fanout: Arc<Histogram>,
    /// Rows produced by the merge stage.
    pub merge_rows: Arc<Counter>,
    /// Rows the merge stage received from the shards (pushdown shrinks this
    /// to ≤ shards × groups for scatter aggregates).
    pub merge_input_rows: Arc<Counter>,
    /// Global-secondary-index lookups attempted by the router.
    pub gsi_lookups: Arc<Counter>,
    /// GSI lookups that narrowed the route below full fan-out.
    pub gsi_hits: Arc<Counter>,
    /// Transparent read-retry attempts (transient shard errors absorbed).
    pub read_retries: Arc<Counter>,
    /// XA phase latencies (prepare = vote collection, commit = phase 2).
    pub xa_prepare_us: Arc<Histogram>,
    pub xa_commit_us: Arc<Histogram>,
    /// Rows copied into the new layout by reshard backfill.
    pub reshard_rows_copied: Arc<Counter>,
    /// DML statements mirrored into the new layout during reshard.
    pub reshard_mirrored_writes: Arc<Counter>,
    /// Physical tables that could not be dropped during reshard cleanup.
    pub reshard_cleanup_failures: Arc<Counter>,
    /// Length of the reshard cutover write fence.
    pub reshard_fence_us: Arc<Histogram>,
}

impl KernelMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        let stage_us = Stage::ALL.map(|s| {
            registry.histogram(
                &format!("stage_{}_us", s.as_str()),
                &format!("latency of the {} kernel stage", s.as_str()),
            )
        });
        KernelMetrics {
            enabled: AtomicBool::new(true),
            statements: registry.counter(
                "kernel_statements_total",
                "data statements executed by the kernel",
            ),
            statement_errors: registry.counter(
                "kernel_statement_errors_total",
                "data statements that returned an error",
            ),
            statement_us: registry.histogram(
                "kernel_statement_us",
                "end-to-end wall time per data statement",
            ),
            stage_us,
            route_fanout: registry
                .histogram("route_fanout_units", "execution units per routed statement"),
            merge_rows: registry.counter("merge_rows_total", "rows produced by the merge stage"),
            merge_input_rows: registry.counter(
                "merge_input_rows_total",
                "rows received by the merge stage from the shards",
            ),
            gsi_lookups: registry.counter(
                "gsi_lookups_total",
                "global secondary index lookups attempted by the router",
            ),
            gsi_hits: registry.counter(
                "gsi_hits_total",
                "global secondary index lookups that narrowed the route",
            ),
            read_retries: registry.counter(
                "read_retries_total",
                "transparent read retries after transient shard errors",
            ),
            xa_prepare_us: registry.histogram("xa_prepare_us", "XA phase-1 (prepare) latency"),
            xa_commit_us: registry.histogram("xa_commit_us", "XA phase-2 (commit) latency"),
            reshard_rows_copied: registry.counter(
                "reshard_rows_copied_total",
                "rows copied into the new layout by reshard backfill",
            ),
            reshard_mirrored_writes: registry.counter(
                "reshard_mirrored_writes_total",
                "DML statements mirrored into the new layout during reshard",
            ),
            reshard_cleanup_failures: registry.counter(
                "reshard_cleanup_failures_total",
                "physical tables that could not be dropped during reshard cleanup",
            ),
            reshard_fence_us: registry.histogram(
                "reshard_fence_us",
                "length of the reshard cutover write fence",
            ),
        }
    }

    /// Whether instruments should record. One relaxed load; callers gate
    /// every record on this.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }
}
