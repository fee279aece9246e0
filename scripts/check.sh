#!/usr/bin/env bash
# Repo-wide lint gate: clippy clean (warnings are errors) and rustfmt clean.
# Run before sending a PR; CI runs the same two commands.
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

# MVCC gate: seeded snapshot-isolation integration tests (snapshot scan
# stability, read-your-writes, reader/writer stress with a balanced-SUM
# invariant, the on/off equivalence matrix, recovery discarding
# uncommitted versions, snapshot-pinned vacuum).
echo "==> mvcc: snapshot-isolation integration tests"
timeout 600 cargo test --test mvcc -q

# Chaos gate: the deterministic fault-matrix run (fixed seed baked into the
# tests). The scenario has its own in-test watchdog, so a hung thread fails
# the step instead of wedging CI; `timeout` is a second line of defence.
echo "==> chaos: seeded fault-matrix integration tests"
timeout 600 cargo test --test chaos -q
timeout 600 cargo test -p shard-core --test chaos_faults -q

# Reshard gate: live online resharding under seeded chaos (replica loss,
# write faults, fence-timeout rollback, mid-backfill cancel). Like the chaos
# gate, every scenario carries its own in-test watchdog; `timeout` is a
# second line of defence.
echo "==> reshard: seeded chaos-during-reshard integration tests"
timeout 600 cargo test --test reshard -q

# Trace gate: end-to-end distributed tracing (cross-layer span trees, head
# sampling + tail keep, the flight recorder, the SLO burn-rate monitor,
# background-job traces) — including the seeded chaos scenario that drives
# an injected commit fault into a recorded incident.
echo "==> trace: distributed-tracing integration tests"
timeout 600 cargo test -p shard-core --test tracing -q

# Proxy gate: the wire protocol and its I/O contract (one write per small
# response and per request, batched streaming of large results, mid-stream
# fault framing, prompt shutdown) plus the protocol fuzz suite.
echo "==> proxy: wire protocol and frame I/O tests"
timeout 600 cargo test -p shard-proxy -q

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
