//! Observability-overhead smoke gate, run from `scripts/check.sh`.
//!
//! Three comparisons over a single-statement point SELECT, each bounding what
//! one observability mode adds to a statement **in nanoseconds**:
//!
//! 1. metrics instrumented (the default) vs `SET metrics = off`: ≤ 150 ns;
//! 2. head-sampled tracing at the default 1/16 rate vs
//!    `SET trace_sample = off`: ≤ 150 ns — sampled tracing ships on, so its
//!    amortized cost is budgeted exactly like the metrics tax;
//! 3. the slow-query threshold armed with nothing crossing it vs the
//!    default: ≤ 1 180 ns — the one mode in which *every* statement records
//!    kernel spans (which one will be slow is known only at the end), so the
//!    price of the recorder itself is what this arm bounds.
//!
//! The budgets are absolute because the costs are: a counter bump, a clock
//! read, a span per stage cost what they cost whether the statement under
//! them takes 4 µs or 40. The percentages this gate used to state (5 % / 5 %
//! / 20 %, + 300 ns) amounted to 520 / 520 / 1 180 ns at the point SELECT of
//! the time, 4.4 µs; restated, making the statement faster cannot fail the
//! gate, and making the recorder dearer still does. The first two are
//! tightened to a few times what they measure (30–45 ns and 5–20 ns); the
//! third measures 0.8–1.15 µs, so it keeps its bound. Tighten them when the
//! measured costs allow; never loosen them.
//!
//! How it measures. One runtime, one session: every arm is that session with
//! one setting switched, for the length of a short block. Each round runs a
//! block of [`BLOCK_OPS`] statements in every arm, in rotating order, and
//! yields one sample per comparison — the difference between the two arms'
//! block medians, in nanoseconds (at ~4 µs per op, integer-µs percentiles
//! would quantize the signal away). The gate compares the **median of the
//! per-round differences** with the budget. A burst on the host lands on
//! all arms of the rounds it covers and cancels in the differences; and the
//! arms share their memory — heap layout, cache and TLB footprint — which a
//! runtime per arm does not: there, one arm can sit 20 % above another for a
//! whole process with the same settings on both. (Back-to-back trials on a
//! runtime per arm, which this gate used to run, failed an unchanged commit
//! two runs in two on a busy two-CPU host.)

use shard_bench::metrics::LatencyRecorder;
use shard_core::{Session, ShardingRuntime};
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::sync::Arc;
use std::time::Instant;

const WARMUP_OPS: usize = 2_000;
const BLOCK_OPS: usize = 100;
const ROUNDS: usize = 150;
const METRICS_BUDGET_NS: i64 = 150;
const SAMPLING_BUDGET_NS: i64 = 150;
const RECORDING_BUDGET_NS: i64 = 1_180;

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

/// One arm: the statements that switch its setting on and back off. The
/// default configuration — metrics on, head-sampled tracing at 1/16, the
/// slow-query log disarmed — is the arm that switches nothing.
type Arm = Option<(&'static str, &'static str)>;

const DEFAULT: usize = 0;
const METRICS_OFF: usize = 1;
const UNTRACED: usize = 2;
const RECORDING: usize = 3;
const ARMS: [Arm; 4] = [
    None,
    Some(("SET VARIABLE metrics = off", "SET VARIABLE metrics = on")),
    Some((
        "SET VARIABLE trace_sample = off",
        "SET VARIABLE trace_sample = 1/16",
    )),
    // Every statement records: a threshold no point SELECT will cross.
    Some((
        "SET VARIABLE slow_query_threshold_ms = 60000",
        "SET VARIABLE slow_query_threshold_ms = 0",
    )),
];

fn point_select(s: &mut Session) {
    s.execute_sql("SELECT name FROM t_user WHERE uid = 7", &[])
        .unwrap();
}

/// One block: the p50, in nanoseconds, of [`BLOCK_OPS`] statements with the
/// arm's setting switched on around them.
fn block_p50_ns(s: &mut Session, arm: Arm, samples: &mut Vec<u64>) -> i64 {
    if let Some((on, _)) = arm {
        s.execute_sql(on, &[]).unwrap();
    }
    samples.clear();
    for _ in 0..BLOCK_OPS {
        let t = Instant::now();
        point_select(s);
        samples.push(t.elapsed().as_nanos() as u64);
    }
    if let Some((_, off)) = arm {
        s.execute_sql(off, &[]).unwrap();
    }
    samples.sort_unstable();
    LatencyRecorder::percentile_us(samples, 50.0) as i64
}

fn median(mut values: Vec<i64>) -> i64 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// Compare the median per-round difference of one comparison with its
/// budget; returns `false` (after reporting) when it is over.
fn gate(label: &str, differences: Vec<i64>, baseline_ns: i64, budget_ns: i64) -> bool {
    let overhead_ns = median(differences);
    println!(
        "obs_gate: {label}: {overhead_ns:+}ns per point SELECT \
         (baseline p50 {baseline_ns}ns, budget {budget_ns}ns)"
    );
    if overhead_ns > budget_ns {
        eprintln!("FAIL: {label} costs more than {budget_ns}ns a statement");
        return false;
    }
    println!("PASS: {label} within its {budget_ns}ns budget");
    true
}

fn main() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    for _ in 0..WARMUP_OPS {
        point_select(&mut s);
    }
    let mut samples = Vec::with_capacity(BLOCK_OPS);
    let mut rounds: Vec<[i64; 4]> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut p50 = [0; 4];
        for turn in 0..ARMS.len() {
            let at = (round + turn) % ARMS.len();
            p50[at] = block_p50_ns(&mut s, ARMS[at], &mut samples);
        }
        rounds.push(p50);
    }
    assert!(runtime.slow_query_log().entries().is_empty());

    let of = |arm: usize| median(rounds.iter().map(|p50| p50[arm]).collect());
    let difference =
        |arm: usize, base: usize| rounds.iter().map(|p50| p50[arm] - p50[base]).collect();
    eprintln!(
        "{ROUNDS} rounds of {BLOCK_OPS}: default p50 {}ns, metrics-off {}ns, \
         trace-off {}ns, slow-log-armed {}ns",
        of(DEFAULT),
        of(METRICS_OFF),
        of(UNTRACED),
        of(RECORDING)
    );
    let gates = [
        gate(
            "metrics (default vs SET metrics = off)",
            difference(DEFAULT, METRICS_OFF),
            of(METRICS_OFF),
            METRICS_BUDGET_NS,
        ),
        gate(
            "sampled tracing (default 1/16 vs SET trace_sample = off)",
            difference(DEFAULT, UNTRACED),
            of(UNTRACED),
            SAMPLING_BUDGET_NS,
        ),
        gate(
            "every statement recording (slow-query threshold armed vs default)",
            difference(RECORDING, DEFAULT),
            of(DEFAULT),
            RECORDING_BUDGET_NS,
        ),
    ];
    if gates.contains(&false) {
        std::process::exit(1);
    }
}
