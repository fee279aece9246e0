#!/usr/bin/env bash
# Where does a benchmark workload's CPU time go? A sampling profile without
# `perf`: the workload runs under crates/sampler (LD_PRELOAD: SIGPROF ticks,
# glibc backtrace) and the addresses are symbolised with addr2line.
#
#   scripts/profile.sh <workload> [run.sh args, e.g. --seconds 20 --seed 3]
#
# Prints self shares by function, inclusive shares and a call tree of this
# repository's (`shard_*`) functions. Builds `shard-perf` through its own run.sh, with
# line tables, into a target directory of its own (PROFILE_TARGET_DIR,
# default target/profile), so the benchmark's build is left alone; the raw
# samples stay next to it in <workload>.samples.
#
# What this cannot see (crates/sampler/src/lib.rs says why): about 250
# samples per CPU-second, so shares under ~0.1 % are noise; inlined callees
# appear only as far as `addr2line -i` finds them in the line tables; time a
# thread spends blocked is not sampled at all. Setup and both timed rounds
# are in the profile — the workload is the whole process.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [run.sh args]}
shift
target=${PROFILE_TARGET_DIR:-target/profile}
mkdir -p "$target"
target=$(cd "$target" && pwd)
samples=$target/$workload.samples

# std-only, so no cargo (and no registry) is needed to build it.
rustc --edition 2021 -O --crate-type cdylib crates/sampler/src/lib.rs \
    -o "$target/libshard_sampler.so"

# The preload reaches every process run.sh starts; only `shard-perf` arms.
CARGO_TARGET_DIR=$target CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    LD_PRELOAD=$target/libshard_sampler.so \
    SHARD_SAMPLER_OUT=$samples SHARD_SAMPLER_EXE=shard-perf \
    bash crates/perf/run.sh --workload "$workload" --seed 1 --seconds 20 --trace 0 "$@" \
    >"$target/$workload.json"

python3 - "$samples" "$target/release/shard-perf" <<'EOF'
import collections, subprocess, sys

samples_path, exe = sys.argv[1], sys.argv[2]
maps, bases, stacks, header = [], {}, [], ""
for line in open(samples_path):
    fields = line.split()
    if line.startswith("samples "):
        header = line.strip()
    elif line.startswith("map "):
        lo, hi = (int(x, 16) for x in fields[1].split("-"))
        maps.append((lo, hi, fields[3]))
        if int(fields[2], 16) == 0:
            bases.setdefault(fields[3], lo)
    elif fields:
        # Frames 0 and 1 are the handler and the signal trampoline.
        stacks.append([int(x, 16) for x in fields[2:]])

def locate(addr):
    """The object an address falls in and the address relative to its load base."""
    for lo, hi, path in maps:
        if lo <= addr < hi:
            return path, addr - bases.get(path, lo)
    return None, addr

# Symbolise the executable's addresses in one addr2line run. Every frame but
# the innermost is a return address: look up the call before it.
wanted = set()
for stack in stacks:
    for depth, addr in enumerate(stack):
        path, rel = locate(addr)
        if path and path.endswith("/shard-perf"):
            wanted.add(rel - (1 if depth else 0))
wanted = sorted(wanted)
out = subprocess.run(
    ["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
    input="".join(f"{a:#x}\n" for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()
names, i = {}, 0
while i < len(out):
    addr = int(out[i], 16)
    i += 1
    chain = []  # (function, is it this repo's code), innermost (inlined) first
    while i < len(out) and not out[i].startswith("0x"):
        # Generic arguments make names pages long; the path says whose code it is.
        name = out[i] if out[i].startswith("<") else out[i].split("<")[0]
        chain.append((name[:120], "/crates/" in out[i + 1]))
        i += 2
    names[addr] = chain

def frames_of(stack):
    """(function, ours) pairs, innermost first, inlined frames expanded."""
    result = []
    for depth, addr in enumerate(stack):
        path, rel = locate(addr)
        if path and path.endswith("/shard-perf"):
            result.extend(names.get(rel - (1 if depth else 0), [("??", False)]))
        else:
            result.append((f"[{(path or 'unmapped').rsplit('/', 1)[-1]}]", False))
    return result

total = len(stacks)
self_time, inclusive = collections.Counter(), collections.Counter()
tree = {}
for stack in stacks:
    frames = frames_of(stack)
    if not frames:
        continue
    self_time[frames[0][0]] += 1
    inclusive.update({name for name, ours in frames if ours})
    node = tree
    for name in reversed([name for name, ours in frames if ours]):
        node = node.setdefault(name, [0, {}])
        node[0] += 1
        node = node[1]

def share(n):
    return f"{100.0 * n / total:5.1f} %"

print(f"{header}; {total} stacks from {samples_path}")
print("\ntop 15 by self time (code outside the executable is named by its object)")
for name, n in self_time.most_common(15):
    print(f"  {share(n)}  {name}")
print("\ntop 15 by inclusive time, this repository's functions")
for name, n in inclusive.most_common(15):
    print(f"  {share(n)}  {name}")

print("\ncall tree of this repository's frames, inclusive (subtrees under 1 % omitted)")
def show(children, indent):
    for name, (n, below) in sorted(children.items(), key=lambda kv: -kv[1][0]):
        if 100.0 * n / total >= 1.0:
            print(f"  {share(n)}  {'  ' * indent}{name}")
            show(below, indent + 1)
show(tree, 0)
EOF
