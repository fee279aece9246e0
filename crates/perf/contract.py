#!/usr/bin/env python3
"""Checks and reports around BENCHMARK.json (used by run.sh).

  contract.py check <trace> <output-file>   BENCHMARK.json obeys the benchmark
                                            contract and the run's last line
                                            carries exactly its metrics
  contract.py report <dir>                  REPEATABILITY.md from the outputs
                                            of `run.sh --repeat`
"""
import glob
import json
import os
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
LISTING = re.compile(r"^(\S+)\s+(-?\d+(?:\.\d+)?)\s+(\S+)$")


def fail(message):
    sys.exit(f"contract.py: {message}")


def load_benchmark():
    if os.path.getsize("BENCHMARK.json") > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(b) != keys:
        fail(f"BENCHMARK.json keys are {sorted(b)}, want {sorted(keys)}")
    if not (1 <= len(b["command"]) <= 32) or any(
        len(c) > 200 or c.startswith("/") or ".." in c.split("/") for c in b["command"]
    ):
        fail("bad command")
    if not (1 <= len(b["paths"]) <= 16) or not all(PATH.match(p) for p in b["paths"]):
        fail("bad paths")
    if not (isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60):
        fail("run_seconds must be a whole number from 1 to 60")
    names = []

    def entries(key, fields, low, high):
        if not low <= len(b[key]) <= high:
            fail(f"{key} has {len(b[key])} entries, want {low} to {high}")
        for e in b[key]:
            if set(e) != fields:
                fail(f"{key} entry {e} must have exactly {sorted(fields)}")
            if not NAME.match(e["name"]):
                fail(f"bad name {e['name']!r}")
            names.append(e["name"])
            if "unit" in e and not UNIT.match(e["unit"]):
                fail(f"bad unit {e['unit']!r} on {e['name']}")
            if "better" in e and e["better"] not in ("higher", "lower"):
                fail(f"{e['name']} has no direction")
            if "why" in e and (len(e["why"]) > 200 or "\n" in e["why"]):
                fail(f"why of {e['name']} must be one line of at most 200 characters")
            if "bound" in e and not 0 < e["bound"] <= 0.25:
                fail(f"bound of {e['name']} must be in (0, 0.25]")

    entries("workloads", {"name", "why"}, 2, 8)
    entries("end_to_end", {"name", "unit", "better", "bound"}, 1, 16)
    entries("per_layer", {"name", "unit", "better"}, 1, 128)
    if len(set(names)) != len(names):
        fail("a name is used more than once")
    setup = [e for e in b["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end needs setup_s in s, lower is better")
    return b


def parse_run(path):
    """(every `name value unit` line of a run's listing, its last-line JSON)."""
    with open(path) as f:
        lines = f.read().splitlines()
    listing = {}
    for line in lines:
        m = LISTING.match(line)
        if m:
            listing[m.group(1)] = float(m.group(2))
    return listing, json.loads(lines[-1])


def check(trace, path):
    b = load_benchmark()
    _, result = parse_run(path)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{path}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{path}: {result['failed']} of {result['attempted']} ops failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{path}: attempted must be a whole number, at least 1")
    want = {e["name"]: e["unit"] for e in b["per_layer" if trace == "1" else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"{path}: metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, other unit {units}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"{path}: metric {name} must be a number with a unit")


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def is_exact_count(name, unit):
    """Counts of the program's own work: with one client and fixed work they
    must repeat bit for bit. Times, and what the scheduler decides
    (`process.*`), do not."""
    return unit in ("count", "ratio") and not name.startswith(("process.", "run."))


def report(directory):
    b = load_benchmark()
    runs = {}  # (set, seed, workload) -> listing
    for path in sorted(glob.glob(os.path.join(directory, "*.txt"))):
        s, seed, workload = os.path.basename(path)[:-4].split("_", 2)
        listing, result = parse_run(path)
        if not result["correct"]:
            fail(f"{path}: run was not correct")
        runs[(int(s), int(seed), workload)] = listing
    seeds = sorted({k[1] for k in runs})
    units = {e["name"]: e["unit"] for e in b["per_layer"]}
    print("# Repeatability of the benchmark on one commit\n")
    print(f"Written by `crates/perf/run.sh --repeat {len(seeds)}`: two sets of {len(seeds)} "
          f"invocations per workload, seeds {seeds[0]}..{seeds[-1]} in both sets, workloads "
          "interleaved, nothing between the sets but time. `spread` is the distance between "
          "the first and third quartile of a set's values (Python's "
          "`statistics.quantiles(values, n=4)`) as a share of their median; `drift` is how "
          "much worse the second set's median is than the first's, as a share of the first "
          "(negative = better). A metric holds when both spreads and the drift stay within "
          "its bound.\n")
    print("| workload | metric | bound | median 1 | median 2 | drift | spread 1 | spread 2 | holds |")
    print("|---|---|---|---|---|---|---|---|---|")
    broken = []
    for w in b["workloads"]:
        for e in b["end_to_end"]:
            sets = [[runs[(s, seed, w["name"])][e["name"]] for seed in seeds] for s in (1, 2)]
            m1, m2 = (statistics.median(v) for v in sets)
            drift = (m2 - m1) / m1 * (1 if e["better"] == "lower" else -1)
            s1, s2 = (spread(v) for v in sets)
            # The contract does not hold setup_s to its spread, only its drift.
            spreads_ok = e["name"] == "setup_s" or max(s1, s2) <= e["bound"]
            ok = drift <= e["bound"] and spreads_ok
            if not ok:
                broken.append((w["name"], e["name"]))
            print(f"| {w['name']} | {e['name']} | {e['bound']:.0%} | {m1:.4g} | {m2:.4g} | "
                  f"{drift:+.1%} | {s1:.1%} | {s2:.1%} | {'yes' if ok else '**no**'} |")
    print()
    if broken:
        print(f"**Not holding:** {broken}.\n")
    else:
        print("Every (workload, end-to-end metric) pair holds.\n")
    print("## Exact counts\n")
    print("Per-layer counts of the program's own work (every `count` and `ratio` outside "
          "`process.*` and `run.*`), compared between the two invocations with equal "
          "workload and seed:\n")
    differing = {}
    compared = 0
    for (s, seed, workload), listing in runs.items():
        if s != 1:
            continue
        other = runs[(2, seed, workload)]
        for name, unit in units.items():
            if is_exact_count(name, unit):
                compared += 1
                if listing[name] != other[name]:
                    differing.setdefault((workload, name), []).append(
                        (seed, listing[name], other[name]))
    print(f"- {compared} (workload, seed, count) triples compared, "
          f"{sum(len(v) for v in differing.values())} differ.")
    for (workload, name), cases in sorted(differing.items()):
        shown = ", ".join(f"seed {seed}: {a} vs {c}" for seed, a, c in cases[:3])
        print(f"- `{name}` on `{workload}` differs in {len(cases)} of {len(seeds)} pairs ({shown}).")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "check":
        check(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3 and sys.argv[1] == "report":
        report(sys.argv[2])
    else:
        sys.exit(__doc__)
