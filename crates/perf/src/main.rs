//! `shard-perf`: the repo's benchmark. See `crates/perf/README.md`.
//!
//! `shard-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! pins itself to one CPU, runs the workload's fixed, seeded work in five
//! rounds on fresh deployments, checks every result, and prints one JSON
//! object as the last line of its output.

mod deploy;
mod gen;
mod pin;
mod procfs;
mod reference;
mod round;
mod span;
mod stats;
mod trace;
mod workload;

use reference::Reference;
use round::{sorted_latencies, Stage};
use stats::{median, per_op_latency, percentile};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use workload::{AnalyticsOracle, Untraced, Workload};

/// Every op is run once in each of this many rounds (2 with `--smoke`).
const ROUNDS: usize = 5;
/// Warm-up ops before a round's measured ops, as a share of them.
const WARM_UP_SHARE: f64 = 0.05;
/// A round may take this many times its nominal length before it is stopped
/// and its remaining ops count as failed.
const CAP_FACTOR: f64 = 5.0;
const OUT_DIR: &str = "crates/perf/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// 1/100 of the op counts: exercises every path in seconds.
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PointSelectJdbc,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut workload_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(&value).ok_or_else(bad)?;
                workload_given = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload_given {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload is required: one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// One named number of the output.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Median, 95th and 99th percentile of the successful ops, in µs, and their
/// throughput with no time between ops: ops ÷ the sum of their latencies.
struct Summary {
    throughput_ops_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

fn summarize(latency_ns: &[f64]) -> Summary {
    let sorted = sorted_latencies(latency_ns);
    let pct_us = |p: f64| percentile(&sorted, p).unwrap_or(0.0) / 1e3;
    let busy_s = sorted.iter().sum::<f64>() / 1e9;
    Summary {
        throughput_ops_s: if busy_s > 0.0 {
            sorted.len() as f64 / busy_s
        } else {
            0.0
        },
        p50_us: pct_us(50.0),
        p95_us: pct_us(95.0),
        p99_us: pct_us(99.0),
    }
}

/// Throughput of the last tenth of the ops ÷ the first tenth: 1.0 when an op
/// costs the same however many came before it.
fn drift_ratio(latency_ns: &[f64]) -> f64 {
    let tenth = (latency_ns.len() / 10).max(1);
    let time = |ops: &[f64]| sorted_latencies(ops).iter().sum::<f64>();
    let last = time(&latency_ns[latency_ns.len() - tenth..]);
    if last > 0.0 {
        time(&latency_ns[..tenth]) / last
    } else {
        0.0
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shard-perf: {e}");
            return ExitCode::from(2);
        }
    };
    // Before anything is spawned: the proxy, the executor pool and the
    // client all inherit this one-CPU mask and policy. Numbers taken any
    // other way are not comparable, so failing here fails the command.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = pin::pin_to_one_cpu().and_then(|cpu| pin::set_batch_policy().map(|()| cpu));
    let cpu = match pinned {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("shard-perf: cannot pin to one CPU under SCHED_BATCH: {e}");
            return ExitCode::from(2);
        }
    };

    let workload = args.workload;
    let (rounds, scale) = if args.smoke { (2, 0.01) } else { (ROUNDS, 1.0) };
    let round_seconds = args.seconds / ROUNDS as f64;
    let sized =
        |per_second: u64| ((per_second as f64 * round_seconds * scale).round() as u64).max(1);
    let ops = sized(workload.ops_per_second());
    let door_ops = sized(workload.traced_ops_per_second()).min(ops);
    let warm_up_ops = ((ops as f64 * WARM_UP_SHARE).round() as u64).max(1);
    let cap = Duration::from_secs_f64((round_seconds * CAP_FACTOR).max(5.0));

    println!(
        "# shard-perf workload={} seed={} seconds={} trace={} smoke={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke
    );
    println!(
        "# conditions: {} data sources x {} tables = {} mod shards, LatencyModel::ZERO, \
         session variables at defaults, closed loop, 1 client, SCHED_BATCH",
        deploy::DATA_SOURCES,
        deploy::SHARDS / deploy::DATA_SOURCES,
        deploy::SHARDS
    );
    println!(
        "# deps={} nproc={nproc} pinned_cpu={cpu} cpus_allowed_list={} commit={} rustc={}",
        env_or("PERF_DEPS", "unknown"),
        procfs::cpus_allowed_list(),
        env_or("PERF_COMMIT", "unknown"),
        env_or("PERF_RUSTC", "unknown"),
    );
    println!(
        "# work: {rounds} rounds x {ops} ops after {warm_up_ops} warm-up ops on {} rows; \
         traced round {door_ops} ops; round cap {cap:?}; times at nominal host speed \
         (reference sample = {} us)",
        workload.rows(),
        reference::NOMINAL_NS / 1e3
    );

    let mut reference = Reference::new();
    let oracle =
        (workload == Workload::AnalyticsScanJdbc).then(|| Arc::new(AnalyticsOracle::build()));
    let mut attempted = 0;
    let mut failed = 0;
    let mut setups = Vec::with_capacity(rounds);
    let mut scaled = Vec::with_capacity(rounds);
    let mut raw_p50_us = Vec::with_capacity(rounds);
    let mut raw_throughput = Vec::with_capacity(rounds);
    let mut reference_ns = Vec::new();
    for r in 0..rounds {
        let mut stage = Stage::build(workload, args.seed, oracle.as_ref(), &mut reference);
        failed += stage.warm_up(warm_up_ops, cap, &mut reference);
        let batch = stage.run(ops, cap, &mut Untraced, &mut reference);
        failed += batch.failed + stage.check_table();
        attempted += batch.attempted();
        let raw = summarize(&batch.latency_ns);
        println!(
            "# round {r}: setup {:.3} s, {} failed of {ops} in {:.3} s, p50 {:.2} us as \
             measured, host speed {:.3}",
            stage.setup_s,
            batch.failed,
            batch.wall_ns as f64 / 1e9,
            raw.p50_us,
            reference::speed(&batch.reference_ns)
        );
        setups.push(stage.setup_s);
        scaled.push(batch.scaled_ns());
        raw_p50_us.push(raw.p50_us);
        raw_throughput.push(raw.throughput_ops_s);
        reference_ns.extend(batch.reference_ns);
    }
    // Equal seeds make op `i` the same op, on the same history, in every
    // round: it has one scaled latency per round, and one is chosen.
    let latency_ns = per_op_latency(&scaled);
    let summary = summarize(&latency_ns);
    let end_to_end = vec![
        Metric::new("throughput_ops_s", summary.throughput_ops_s, "1/s"),
        Metric::new("p50_us", summary.p50_us, "us"),
        Metric::new("p95_us", summary.p95_us, "us"),
        Metric::new("setup_s", median(&setups), "s"),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let traced = trace::traced_round(
            workload,
            args.seed,
            oracle.as_ref(),
            warm_up_ops,
            door_ops,
            cap,
            &mut reference,
        );
        attempted += traced.door.attempted();
        failed += traced.door.failed + traced.other_failed;
        println!(
            "# traced round: {} failed of {door_ops} in {:.3} s",
            traced.door.failed,
            traced.door.wall_ns as f64 / 1e9
        );
        per_layer.extend(traced.metrics);
        let spread = raw_throughput.iter().copied().fold(f64::MIN, f64::max)
            - raw_throughput.iter().copied().fold(f64::MAX, f64::min);
        // The traced round ran the rounds' first `door_ops` ops, once: it
        // is held against one untraced execution of the same ops.
        let one_pass: Vec<f64> = scaled
            .iter()
            .map(|round| summarize(&round[..door_ops as usize]).p50_us)
            .collect();
        let traced_p50_us = summarize(&traced.door.scaled_ns()).p50_us;
        per_layer.extend([
            Metric::new("run.drift_ratio", drift_ratio(&latency_ns), "ratio"),
            Metric::new("run.p99_us", summary.p99_us, "us"),
            Metric::new("run.raw_p50_us", median(&raw_p50_us), "us"),
            Metric::new("run.host_speed", reference::speed(&reference_ns), "ratio"),
            Metric::new(
                "run.round_spread_pct",
                spread / median(&raw_throughput) * 100.0,
                "%",
            ),
            Metric::new(
                "run.trace_overhead_pct",
                (traced_p50_us / median(&one_pass) - 1.0) * 100.0,
                "%",
            ),
        ]);
        let path = format!("{OUT_DIR}/trace_{}.json", workload.name());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, &traced.trace_json));
        match written {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => {
                eprintln!("shard-perf: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    for m in end_to_end.iter().chain(&per_layer) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("ops_attempted {attempted}\nops_failed {failed}");
    let reported = if args.trace { &per_layer } else { &end_to_end };
    println!("{}", json_line(failed == 0, attempted, failed, reported));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
