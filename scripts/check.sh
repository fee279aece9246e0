#!/usr/bin/env bash
# Repo-wide gate: clippy clean (warnings are errors), rustfmt clean, every
# test in the workspace, the benchmark smoke and the observability-overhead
# gate.
# Run before sending a PR; CI runs the same commands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Test gate: every suite in the workspace — the root package's integration
# tests and the several hundred tests inside crates/* (plain `cargo test`
# runs only the former). This is also the MVCC gate (`--test mvcc`: seeded
# snapshot-isolation scenarios), the chaos gate (`--test chaos`, `-p
# shard-core --test chaos_faults`: the deterministic fault matrix), the
# reshard gate (`--test reshard`: online resharding under seeded chaos), the
# trace gate (`-p shard-core --test tracing`) and the proxy gate (`-p
# shard-proxy`: wire protocol, frame I/O contract, protocol fuzz). The
# chaos and reshard scenarios carry their own in-test watchdogs, so a hung
# thread fails the step instead of wedging CI; `timeout` is a second line
# of defence.
echo "==> cargo test --workspace -q"
timeout 1800 cargo test --workspace -q

# Benchmark smoke: every BENCHMARK.json workload, traced and untraced, at
# 1/100 of the work, with outputs and correctness checked against the
# benchmark's contract.
echo "==> perf: benchmark harness smoke"
timeout 600 bash crates/perf/run.sh --smoke

# Observability gate: metrics and 1/16-sampled tracing are on by default,
# so their cost is a tax on every statement. The gate bounds, in nanoseconds
# per point SELECT, what the default configuration costs over
# `SET metrics = off` (150 ns) and over `SET trace_sample = off` (150 ns), and
# what an armed slow-query threshold that nothing crosses (every statement
# records) costs over the default (1180 ns). One session, the setting under
# test switched between short interleaved blocks; the median of the per-round
# differences is what is compared (crates/bench/src/bin/obs_gate.rs).
echo "==> obs: observability-overhead smoke gate"
timeout 600 cargo run --release -p shard-bench --bin obs_gate

echo "OK"
