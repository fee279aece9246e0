//! Observability-overhead smoke gate, run from `scripts/check.sh`.
//!
//! Three comparisons over the p50 of a single-statement point SELECT,
//! best-of-3 trials per arm, each failing above its budget (plus a 300ns
//! absolute slack so scheduler jitter on a single-digit-µs operation cannot
//! flake the ratio):
//!
//! 1. metrics instrumented (the default) vs `SET metrics = off`, 5%;
//! 2. head-sampled tracing at the default 1/16 rate vs
//!    `SET trace_sample = off`, 5% — sampled tracing ships on, so its
//!    amortized cost is budgeted exactly like the metrics tax;
//! 3. the slow-query threshold armed with nothing crossing it vs the
//!    default, 20% — the one mode in which *every* statement records kernel
//!    spans (which one will be slow is known only at the end), so the price
//!    of the recorder itself is what this arm bounds.
//!
//! Samples are taken in nanoseconds: at ~5µs per op, integer-µs
//! percentiles would quantize by 20% and drown the signal.
//!
//! The arms run on separate runtimes because `SET metrics`,
//! `SET trace_sample` and the slow-query threshold are runtime-wide; trials
//! interleave the arms so thermal drift hits them all equally.

use shard_bench::metrics::LatencyRecorder;
use shard_core::{Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::sync::Arc;
use std::time::Instant;

const WARMUP_OPS: usize = 500;
const MEASURED_OPS: usize = 2_000;
const TRIALS: usize = 3;
const MAX_REGRESSION: f64 = 0.05;
const MAX_RECORDING_REGRESSION: f64 = 0.20;
const ABS_SLACK_NS: u64 = 300;

fn sharded_runtime() -> Arc<ShardingRuntime> {
    let runtime = ShardingRuntime::builder()
        .datasource("ds_0", StorageEngine::new("ds_0"))
        .datasource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut s = runtime.session();
    s.execute_sql(
        "CREATE SHARDING TABLE RULE t_user (RESOURCES(ds_0, ds_1), \
         SHARDING_COLUMN=uid, TYPE=mod, PROPERTIES(\"sharding-count\"=4))",
        &[],
    )
    .unwrap();
    s.execute_sql(
        "CREATE TABLE t_user (uid BIGINT PRIMARY KEY, name VARCHAR(32), age INT)",
        &[],
    )
    .unwrap();
    for uid in 0..32i64 {
        s.execute_sql(
            "INSERT INTO t_user (uid, name, age) VALUES (?, ?, ?)",
            &[
                Value::Int(uid),
                Value::Str(format!("user{uid}")),
                Value::Int(20),
            ],
        )
        .unwrap();
    }
    runtime
}

fn point_select(s: &mut Session) {
    s.execute_sql("SELECT name FROM t_user WHERE uid = 7", &[])
        .unwrap();
}

/// One trial: warm the caches, then p50 (in nanoseconds) over
/// `MEASURED_OPS` operations.
fn trial_p50_ns(s: &mut Session) -> u64 {
    for _ in 0..WARMUP_OPS {
        point_select(s);
    }
    let mut samples = Vec::with_capacity(MEASURED_OPS);
    for _ in 0..MEASURED_OPS {
        let t = Instant::now();
        point_select(s);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    LatencyRecorder::percentile_us(&samples, 50.0)
}

/// Compare one arm against its baseline under `max_regression`; returns
/// `false` (after reporting) when the arm blows it.
fn gate(label: &str, arm_ns: u64, baseline_ns: u64, max_regression: f64) -> bool {
    let budget_ns = (baseline_ns as f64 * (1.0 + max_regression)) as u64 + ABS_SLACK_NS;
    let overhead_pct = if baseline_ns > 0 {
        (arm_ns as f64 - baseline_ns as f64) / baseline_ns as f64 * 100.0
    } else {
        0.0
    };
    println!(
        "obs_gate: point-SELECT p50 {label}: {arm_ns}ns vs baseline {baseline_ns}ns \
         ({overhead_pct:+.1}% overhead, budget {budget_ns}ns)"
    );
    if arm_ns > budget_ns {
        eprintln!(
            "FAIL: {label} overhead exceeds {:.0}% + {ABS_SLACK_NS}ns slack",
            max_regression * 100.0
        );
        return false;
    }
    println!(
        "PASS: {label} overhead within the {:.0}% p50 budget",
        max_regression * 100.0
    );
    true
}

fn main() {
    // Default configuration: metrics on, head-sampled tracing at 1/16.
    let instrumented = sharded_runtime();
    let mut s_on = instrumented.session();
    let disabled = sharded_runtime();
    let mut s_off = disabled.session();
    s_off
        .execute_sql("SET VARIABLE metrics = off", &[])
        .unwrap();
    // Tracing ablation: same metrics default, span sampling off.
    let untraced = sharded_runtime();
    let mut s_untraced = untraced.session();
    s_untraced
        .execute_sql("SET VARIABLE trace_sample = off", &[])
        .unwrap();

    // Every statement records: a threshold no point SELECT will cross.
    let recording = sharded_runtime();
    let mut s_recording = recording.session();
    s_recording
        .execute_sql("SET VARIABLE slow_query_threshold_ms = 60000", &[])
        .unwrap();

    let mut best_on = u64::MAX;
    let mut best_off = u64::MAX;
    let mut best_untraced = u64::MAX;
    let mut best_recording = u64::MAX;
    for trial in 0..TRIALS {
        let off = trial_p50_ns(&mut s_off);
        let untraced = trial_p50_ns(&mut s_untraced);
        let recording = trial_p50_ns(&mut s_recording);
        let on = trial_p50_ns(&mut s_on);
        best_off = best_off.min(off);
        best_untraced = best_untraced.min(untraced);
        best_recording = best_recording.min(recording);
        best_on = best_on.min(on);
        eprintln!(
            "trial {trial}: metrics-off p50 {off}ns, trace-off p50 {untraced}ns, \
             slow-log-armed p50 {recording}ns, default p50 {on}ns"
        );
    }
    assert!(recording.slow_query_log().entries().is_empty());

    let gates = [
        gate(
            "metrics (default vs SET metrics = off)",
            best_on,
            best_off,
            MAX_REGRESSION,
        ),
        gate(
            "sampled tracing (default 1/16 vs SET trace_sample = off)",
            best_on,
            best_untraced,
            MAX_REGRESSION,
        ),
        gate(
            "every statement recording (slow-query threshold armed vs default)",
            best_recording,
            best_on,
            MAX_RECORDING_REGRESSION,
        ),
    ];
    if gates.contains(&false) {
        std::process::exit(1);
    }
}
