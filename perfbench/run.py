"""Benchmark of the sparsenet package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports sparsenet from that
checkout's ``src/`` and exits non-zero without a result if there is none.
The workloads and their parameters are in ``perfbench/plan.json``.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, including the tracing overhead. Either way the
correctness checks run, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans
(traced runs), per-run results and a host record go to ``.perfbench/`` in
the checkout; nothing is written anywhere else.
"""

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_sparsenet():
    src = ROOT / "src"
    if not (src / "sparsenet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparsenet sources under {src}")
    sys.path.insert(0, str(src))
    import sparsenet

    if Path(sparsenet.__file__).resolve().parent != (src / "sparsenet").resolve():
        sys.exit(f"perfbench: imported sparsenet from {sparsenet.__file__}, not {src}")


def host_record():
    """Facts about the machine, kept apart from every reproducible result.

    Thread variables are recorded as found: the benchmark never sets them.
    """
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def summary(values, higher_is_better):
    """(median, tail label, tail, worst, count). The tail is the worst-side
    percentile with at least ten samples beyond it, when there are enough
    samples for one."""
    v = sorted(values, reverse=not higher_is_better)  # worst first
    n = len(v)
    label, tail = "-", float("nan")
    if n > 10:
        pct = math.floor(100 * (1 - 10 / n))
        label, tail = f"p{pct}", v[10]
    return statistics.median(v), label, tail, v[0], n


def peak_rss_mb():
    """Peak resident size of this process plus its largest waited-for child, MiB."""
    # ru_maxrss is in KiB on Linux
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, args, tracer, checks, setup_reps):
    """Set up, repeat the workload's operation for ``args.seconds``, check.

    Returns (setup times, untraced samples, traced samples, traced run ids,
    finish info, peak RSS in MiB).
    """
    if args.trace:
        tracer.install()
    setup_s = []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        st = wl.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
    tracer.run = "prep"
    wl.prep(st)

    samples, traced, traced_runs = {}, {}, []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < args.seconds:
        is_traced = bool(args.trace) and i % 2 == 1
        if is_traced:
            tracer.install()
        else:
            tracer.uninstall()
        tracer.run = f"rep{i}"
        checks.attempted += 1
        try:
            out = wl.rep(st)
        except Exception:
            checks.failed += 1
            checks.failures.append(f"rep {i} raised")
            traceback.print_exc()
        else:
            for k, v in out.items():
                (traced if is_traced else samples).setdefault(k, []).append(v)
            if is_traced:
                traced_runs.append(tracer.run)
        if i == 1:
            # Read after a fixed number of repetitions: later ones reuse the
            # same memory, and the heap's state after a time-dependent number
            # of them varies. The jobs=2 workers of greedy_round start later
            # and are reported per layer.
            rss = peak_rss_mb()
        i += 1

    tracer.run = "finish"
    if args.trace:
        tracer.install()
    extra, info = wl.finish(st, checks)
    tracer.uninstall()
    for k, v in extra.items():
        samples.setdefault(k, []).extend(v)
    return setup_s, samples, traced, traced_runs, info, rss


def main(argv=None):
    args = parse_args(argv)
    import_sparsenet()
    from perlayer import derive
    from spans import Tracer
    from workloads import KINDS, Checks

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "plan.json").read_text())
    if args.workload not in plan["workloads"]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {sorted(plan['workloads'])}")
    p = plan["workloads"][args.workload]["params"]

    OUT.mkdir(exist_ok=True)
    host = host_record()
    (OUT / "host.json").write_text(json.dumps(host, indent=1) + "\n")
    workdir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT)
    tracer = Tracer()
    checks = Checks()
    try:
        wl = KINDS[p["kind"]](p, workdir, tracer)
        setup_s, samples, traced, traced_runs, info, rss = measure(
            wl, args, tracer, checks, plan["setup_reps"])
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if "images_per_s" not in samples:
        sys.exit("perfbench: no repetition of the workload succeeded")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host))
    if args.trace:
        # repetition 0 is untraced and pays first-call costs, so it is left out
        untraced = samples["images_per_s"][1:] or samples["images_per_s"]
        overhead = 1 - statistics.median(traced["images_per_s"]) / statistics.median(untraced)
        metrics = derive(tracer.spans, info, p["flop_batch"], traced_runs, overhead)
        declared = bench["per_layer"]
        spans_file = OUT / f"spans-{args.workload}-s{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run", "n"], "spans": tracer.spans}))
        print(f"{len(tracer.spans)} spans written to {spans_file}")
    else:
        metrics = {"setup_s": statistics.median(setup_s), "peak_rss_mb": rss}
        declared = bench["end_to_end"]
        samples["setup_s"] = setup_s
        for name, vals in samples.items():
            med, label, tail, worst, n = summary(vals, name.endswith("per_s"))
            metrics.setdefault(name, med)
            print(f"  {name:24s} median {med:.6g}  {label} {tail:.6g}  worst {worst:.6g}  n={n}")
        print(f"  test_acc {info['test_acc']!r}")
        if "jobs2" in info:
            print("  greedy round jobs=2 " + json.dumps(info["jobs2"]))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: workload {args.workload} did not produce {missing}")
    for m in declared:
        value = metrics[m["name"]]
        print(f"  {m['name']:40s} {value:>14.6g} {m['unit']:10s} {m['better']} is better")
    fail_frac = checks.failed / checks.attempted
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed, fail_frac {fail_frac}")
    for what in checks.failures:
        print(f"  FAILED: {what}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
