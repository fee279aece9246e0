#!/usr/bin/env bash
# Repo-wide gate: clippy clean (warnings are errors), rustfmt clean, every
# test in the workspace, the bench smokes and the benchmark smoke.
# Run before sending a PR; CI runs the same commands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

# Write-path smoke: the writes bench doubles as an integration test of the
# batched/parallel write path and its ablation knobs (real criterion runs
# each bench once under --test; the offline shim ignores the flag and runs
# the full — still fast — sample loop).
echo "==> cargo bench -p shard-bench --bench writes -- --test"
timeout 600 cargo bench -p shard-bench --bench writes -- --test

# Routing smoke: the routing bench doubles as an integration test of the
# GSI-narrowed point lookup and the partial-aggregate pushdown path against
# their ablation knobs (each bench arm asserts its result rows).
echo "==> cargo bench -p shard-bench --bench routing -- --test"
timeout 600 cargo bench -p shard-bench --bench routing -- --test

# Analytics smoke: the analytics bench doubles as an integration test of the
# vectorized batch-scan path against its `SET batch_scan = off` ablation —
# setup asserts byte-identical results between the two modes and every bench
# arm asserts its result rows.
echo "==> cargo bench -p shard-bench --bench analytics -- --test"
timeout 600 cargo bench -p shard-bench --bench analytics -- --test

# MVCC smoke: the mvcc bench doubles as an integration test of the
# snapshot-read path against its `SET mvcc = off` ablation — setup asserts
# byte-identical results between modes, and the under-load phase asserts
# zero reader-attributable lock waits with 8 concurrent writers.
echo "==> cargo bench -p shard-bench --bench mvcc -- --test"
timeout 600 cargo bench -p shard-bench --bench mvcc -- --test

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
# so their cost is a tax on every statement. The gate compares point-SELECT
# p50 for the default configuration vs `SET metrics = off` and vs
# `SET trace_sample = off` (best-of-3) and fails above 5% + 300ns slack.
echo "==> obs: observability-overhead smoke gate"
timeout 600 cargo run --release -p shard-bench --bin obs_gate

echo "OK"
