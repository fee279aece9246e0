#!/usr/bin/env bash
# The benchmark's one command (see README.md next to this file).
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       build, run one workload, print one JSON object as the last line
#   run.sh --smoke
#       every workload, traced and untraced, at 1/100 of the work, with the
#       output checked against BENCHMARK.json
#   run.sh --repeat <n>
#       two sets of <n> traced invocations per workload (seeds 1..n, the same
#       in both sets); rewrites REPEATABILITY.md from them
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/../.."
if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
    echo "run.sh: crates/perf is not inside the repository's workspace" >&2
    exit 2
fi
target=${CARGO_TARGET_DIR:-target}
mkdir -p "$target"

# Build in both worlds. With the registry reachable the workspace builds as
# it is; offline, the external crates are patched to the .devstubs stand-ins
# from the command line, so Cargo.toml is never edited. The choice is made
# once per target directory. A Cargo.lock this script causes is kept in the
# target directory between runs, not in the source tree.
deps=${PERF_DEPS:-$(cat "$target/shard-perf.deps" 2>/dev/null || true)}
own_lock=0
if [ ! -f Cargo.lock ]; then
    own_lock=1
    cp "$target/shard-perf.Cargo.lock" Cargo.lock 2>/dev/null || true
fi
if [ -z "$deps" ]; then
    if timeout 60 cargo fetch --config net.retry=0 >/dev/null 2>&1; then
        deps=registry
    else
        deps=stub
    fi
fi
echo "$deps" >"$target/shard-perf.deps"
build=(cargo build --release -p shard-perf)
if [ "$deps" = stub ]; then
    build+=(--offline)
    for crate in rand proptest criterion crossbeam parking_lot bytes serde; do
        build+=(--config "patch.crates-io.$crate.path=\".devstubs/$crate\"")
    done
fi
status=0
"${build[@]}" >&2 || status=$?
if [ "$own_lock" = 1 ] && [ -f Cargo.lock ]; then
    mv -f Cargo.lock "$target/shard-perf.Cargo.lock"
fi
[ "$status" = 0 ] || exit "$status"

bin=$target/release/shard-perf
export PERF_DEPS=$deps
PERF_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo none)
PERF_RUSTC=$(rustc --version | cut -d' ' -f2)
export PERF_COMMIT PERF_RUSTC
workloads=(point_select_jdbc point_select_proxy read_write_xa_jdbc analytics_scan_jdbc)
out=crates/perf/out
run_seconds() {
    python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'
}

case "${1:-}" in
--smoke)
    seconds=$(run_seconds)
    mkdir -p "$out"
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            "$bin" --smoke --workload "$w" --seed 42 --seconds "$seconds" --trace "$trace" \
                >"$out/smoke_${w}_$trace.txt"
            python3 crates/perf/contract.py check "$trace" "$out/smoke_${w}_$trace.txt"
        done
    done
    echo "smoke OK: ${#workloads[@]} workloads, traced and untraced, match BENCHMARK.json"
    ;;
--repeat)
    n=${2:?--repeat needs a count}
    seconds=$(run_seconds)
    rm -rf "$out/repeat"
    mkdir -p "$out/repeat"
    for set in 1 2; do
        for seed in $(seq 1 "$n"); do
            for w in "${workloads[@]}"; do
                "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
                    >"$out/repeat/${set}_${seed}_$w.txt"
            done
        done
    done
    python3 crates/perf/contract.py report "$out/repeat" >crates/perf/REPEATABILITY.md
    echo "wrote crates/perf/REPEATABILITY.md"
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
