"""Per-layer metrics of a traced run, derived from its spans.

Times come from the traced repetitions of the workload's measured
operation only, so they do not depend on how many repetitions fit in the
run. Exceptions, each from one phase of fixed size: ``synthetic.*`` and
``datasets.*`` time the setup repetitions, and ``checkpoint.*`` time the
phase where ``ckpt_load_ms`` is measured (the repetitions on
infer_sparse, the checks after the timed loop elsewhere).

Times are means per call unless the name says otherwise. Layer and
``net.forward``/``net.backward`` times count only calls on a batch of the
workload's ``flop_batch`` images (training batches; the full 200-image
chunks of ``predict_probs`` on infer_sparse), so ``*_ms`` and
``*_gflops`` are per call at the same size as the computed ``*_gflop``
and ``*_mb``. Counts named ``*_calls`` and ``protocols.candidates`` are
per repetition, so they repeat exactly between runs. A metric of a layer
the workload does not run is 0.
"""

import statistics

import sparsenet.checkpoint as checkpoint
import sparsenet.layers as layers
import sparsenet.net as netmod

from spans import SpanIndex, layer_labels

MB = 2**20


def layer_costs(net):
    """{label: (forward flop per image, im2col bytes per image)} for the
    conv and fc layers of `net`; backward is two GEMMs of the same size."""
    labels = layer_labels(net)
    c, h, w = net.input_shape
    out = {}
    for layer in net.layers:
        label = labels[id(layer)]
        if isinstance(layer, layers.Conv2d):
            oh, ow = layer.out_hw(h, w)
            k = layer.in_channels * layer.kernel ** 2
            out[label] = (2 * layer.out_channels * k * oh * ow,
                          k * oh * ow * layer.weights.dtype.itemsize)
            c, h, w = layer.out_channels, oh, ow
        elif isinstance(layer, layers.MaxPool2d):
            h, w = h // layer.window, w // layer.window
        elif isinstance(layer, layers.Linear):
            out[label] = (2 * layer.in_features * layer.out_features, 0)
            c, h, w = layer.out_features, 1, 1
    return out


def derive(spans, info, flop_batch, traced_runs, overhead):
    ix = SpanIndex(spans)
    runs = set(traced_runs)
    mean = lambda name, scale=1.0, n=None: ix.mean(name, runs, scale, n)
    m = {}

    for build in netmod.TOPOLOGIES.values():
        net = build()
        costs = layer_costs(net)
        for label in sorted(set(layer_labels(net).values())):
            for way in ("fwd", "bwd"):
                busy = mean(f"{label}.{way}", n=flop_batch)
                m[f"{label}.{way}_ms"] = 1e3 * busy
                if label in costs:
                    flop = costs[label][0] * (1 if way == "fwd" else 2) * flop_batch
                    m[f"{label}.{way}_gflop"] = flop / 1e9
                    m[f"{label}.{way}_gflops"] = flop / busy / 1e9 if busy else 0.0
            if label in costs and costs[label][1]:
                m[f"{label}.im2col_mb"] = costs[label][1] * flop_batch / MB

    for name in ("forward", "backward"):
        m[f"net.{name}_ms"] = mean(f"net.{name}", 1e3, flop_batch)
    for name in ("predict_probs", "clone"):
        m[f"net.{name}_ms"] = mean(f"net.{name}", 1e3)

    per_rep = lambda name: len(ix.named(name, runs)) / len(runs)
    m["regularizers.l0_project_ms"] = mean("regularizers.l0_project", 1e3)
    m["regularizers.l0_project_calls"] = per_rep("regularizers.l0_project")
    m["regularizers.l1_shrinkage_update_ms"] = mean("regularizers.l1_shrinkage_update", 1e3)
    m["regularizers.apply_regularization_ms"] = mean("regularizers.apply_regularization", 1e3)

    trains = ix.named("training.train", runs)
    iters = sum(ix.spans[i][5] for i in trains)
    m["training.train_s"] = mean("training.train")
    m["training.sgd_update_ms"] = mean("training.sgd_update", 1e3)
    m["training.evaluate_accuracy_ms"] = mean("training.evaluate_accuracy", 1e3)
    m["training.evaluate_accuracy_calls"] = per_rep("training.evaluate_accuracy")
    m["training.self_ms_per_iter"] = (
        1e3 * sum(ix.self_time(i) for i in trains) / iters if iters else 0.0)
    m["training.test_acc"] = info["test_acc"]

    rounds = ix.named("protocols.greedy_round", runs)
    cand = [sum(ix.dur(j) for j in ix.descendants(i, "training.train")) for i in rounds]
    m["protocols.candidates"] = info.get("candidates", 0)
    m["protocols.candidate_train_s"] = statistics.fmean(cand) if rounds else 0.0
    m["protocols.round_self_s"] = (
        statistics.fmean(ix.dur(i) - c for i, c in zip(rounds, cand)) if rounds else 0.0)
    m["protocols.task_bytes"] = info.get("task_bytes", 0)
    jobs2 = info.get("jobs2", {})
    for jobs, results in (("jobs1", info.get("jobs1", [])), ("jobs2", [jobs2] if jobs2 else [])):
        for key in ("round_s", "cpu_per_wall", "invol_ctx_switches"):
            vals = [r[key] for r in results]
            m[f"protocols.{key}_{jobs}"] = statistics.median(vals) if vals else 0.0
    m["protocols.worker_peak_rss_mb_jobs2"] = jobs2.get("worker_peak_rss_mb", 0.0)
    m["memory.report_ms"] = mean("memory.report", 1e3)

    ckpt_runs = runs | {"finish"}
    for enc in checkpoint.ENCODINGS:
        for op in ("save", "load"):
            m[f"checkpoint.{op}_ms.{enc}"] = ix.mean(f"checkpoint.{op}.{enc}", ckpt_runs, 1e3)
        m[f"checkpoint.file_bytes.{enc}"] = info["file_bytes"][enc]

    setup = {"setup"}
    m["synthetic.make_synthetic_pair_s"] = ix.mean("synthetic.make_synthetic_pair", setup)
    m["datasets.subtract_mean_ms"] = ix.mean("datasets.subtract_mean", setup, 1e3)
    m["trace_overhead_frac"] = overhead
    return m
