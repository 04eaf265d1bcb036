"""The benchmark's own check, and the one command that runs every workload.

    python3 perfbench/selfcheck.py [--seed N]

From the root of a checkout, for every workload of BENCHMARK.json, each
run lasting its ``run_seconds``:

1. runs it untraced and prints every end-to-end metric with its name,
   unit and direction, plus the correctness checks' outcome;
2. runs it traced twice with the same seed and checks that every
   per-layer metric is emitted with its unit, and that the computed
   counts (``*_gflop``, ``*_mb``, ``file_bytes``, ``*_calls``, candidates
   and task bytes) repeat exactly.

It also checks that ``plan.json`` and ``BENCHMARK.json`` agree: the same
workloads, and every pattern of the metric-movement table matches a
per-layer metric. Exits 1 if anything fails.
"""

import argparse
import fnmatch
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMPUTED = ("*_gflop", "*.im2col_mb", "checkpoint.file_bytes.*", "*_calls",
            "protocols.candidates", "protocols.task_bytes")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def check_plan(bench, plan):
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(plan["workloads"]):
        problems.append("plan.json and BENCHMARK.json list different workloads")
    per_layer = [m["name"] for m in bench["per_layer"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    for row in plan["moves"]:
        for pattern in row["per_layer"]:
            if not fnmatch.filter(per_layer, pattern):
                problems.append(f"moves pattern {pattern!r} matches no per-layer metric")
        if row["moves"] is not None and row["moves"] not in e2e:
            problems.append(f"moves names {row['moves']!r}, not an end-to-end metric")
        for w in row["on"] + row["no_change_on"]:
            if w not in plan["workloads"]:
                problems.append(f"moves names unknown workload {w!r}")
    return problems


def check_result(result, declared, label):
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        problems.append(f"{label}: metrics {sorted(set(got) ^ {m['name'] for m in declared})} "
                        "missing or undeclared")
    for m in declared:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "plan.json").read_text())
    seconds = bench["run_seconds"]
    problems = check_plan(bench, plan)

    for name in (w["name"] for w in bench["workloads"]):
        result = run(name, args.seed, seconds, 0)
        problems += check_result(result, bench["end_to_end"], f"{name} untraced")
        print(f"{name}: {result['attempted']} attempted, {result['failed']} failed, "
              f"fail_frac {result['failed'] / result['attempted']}")
        for m in bench["end_to_end"]:
            value = result["metrics"].get(m["name"], {}).get("value")
            print(f"  {m['name']:24s} {value!s:>24} {m['unit']:10s} {m['better']} is better")
        traced = [run(name, args.seed, seconds, 1) for _ in range(2)]
        for k, t in enumerate(traced):
            problems += check_result(t, bench["per_layer"], f"{name} traced run {k + 1}")
        first, second = (t["metrics"] for t in traced)
        for metric in sorted(first):
            if any(fnmatch.fnmatch(metric, pat) for pat in COMPUTED):
                a, b = first[metric]["value"], second.get(metric, {}).get("value")
                if a != b:
                    problems.append(f"{name}: computed {metric} differs between runs: {a} vs {b}")
        print(f"  traced: {len(first)} per-layer metrics, trace_overhead_frac "
              f"{first['trace_overhead_frac']['value']:.4f} / "
              f"{second['trace_overhead_frac']['value']:.4f}")

    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
