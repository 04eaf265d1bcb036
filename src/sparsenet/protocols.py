"""Experiment procedures built on the trainer and regularizers.

* greedy_sparsify: layer-wise nonzero allocation by validation accuracy;
  each round shrinks one layer's cap to ceil(0.8 * t).
* threshold_compare: post-hoc magnitude thresholding vs retraining under
  the matching per-layer l0 caps.
* train_ensemble / ensemble_predict: bagged sparse ensembles under a
  total-nonzero budget, averaged at the output layer.
* data_starvation_sweep: dense vs sparse accuracy as the training set is
  subsampled away.

Nonzero totals here always include biases (at their full size; caps
apply to weights only), so budgets line up with the memory model's
parameter counts.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import csv_text
from .datasets import Dataset, bag_resample, subsample
from .errors import DataFormatError
from .memory import report
from .regularizers import RegSpec, threshold
from .training import TrainConfig, evaluate_accuracy, train


@dataclass(frozen=True)
class SparsityPlan:
    """Per-layer nonzero caps for weights."""

    caps: dict

    def validate(self, net) -> None:
        """Raise ValueError unless the plan caps exactly the parameterized
        layers of `net`, each within [1, its weight count]."""
        names = {l.name for l in net.param_layers()}
        if set(self.caps) != names:
            raise ValueError(f"plan caps layers {sorted(self.caps)}, network has {sorted(names)}")
        for name, t in self.caps.items():
            size = net.layer(name).weights.size
            if not 1 <= t <= size:
                raise ValueError(f"cap {t} for layer {name!r} outside [1, {size}]")

    def total_nnz(self, net) -> int:
        """Cap total plus bias counts: the most nonzeros a trained net
        satisfying this plan can have."""
        bias = sum(l.biases.size for l in net.param_layers())
        return sum(self.caps.values()) + bias

    def reg_specs(self, period: int = 100) -> dict:
        return {
            name: RegSpec(kind="l0_projection", t=t, period=period)
            for name, t in self.caps.items()
        }


@dataclass
class CandidateRecord:
    """One greedy candidate: the plan tried, where it was cut, how it did."""

    round: int
    layer_reduced: str
    plan: SparsityPlan
    total_nnz: int
    val_acc: float
    test_acc: float
    memory_bytes: int
    adopted: bool


def candidate_log_csv(records, layer_names) -> str:
    return csv_text(
        ["round", "layer_reduced", *(f"{name}_nnz" for name in layer_names),
         "total_nnz", "val_acc", "test_acc", "memory_bytes", "adopted"],
        ((r.round, r.layer_reduced, *(r.plan.caps[name] for name in layer_names),
          r.total_nnz, r.val_acc, r.test_acc, r.memory_bytes, r.adopted) for r in records),
    )


def candidate_log_from_csv(text: str):
    """Parse a candidate-log CSV back into CandidateRecord objects. An empty
    log, a ragged row, or a missing or unparsable cell raises DataFormatError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError("candidate log is empty")
    header = lines[0].split(",")
    layer_names = [h[: -len("_nnz")] for h in header if h.endswith("_nnz") and h != "total_nnz"]
    records = []
    for i, ln in enumerate(lines[1:], start=1):
        row = ln.split(",")
        if len(row) != len(header):
            raise DataFormatError(f"candidate log row {i}: {len(row)} cells, "
                                  f"header has {len(header)}")
        cells = dict(zip(header, row))
        try:
            caps = {name: int(cells[f"{name}_nnz"]) for name in layer_names}
            records.append(
                CandidateRecord(
                    round=int(cells["round"]),
                    layer_reduced=cells["layer_reduced"],
                    plan=SparsityPlan(caps),
                    total_nnz=int(cells["total_nnz"]),
                    val_acc=float(cells["val_acc"]),
                    test_acc=float(cells["test_acc"]),
                    memory_bytes=int(cells["memory_bytes"]),
                    adopted=cells["adopted"] == "1",
                )
            )
        except (KeyError, ValueError) as e:
            raise DataFormatError(f"candidate log row {i}: missing or bad cell {e}") from e
    return records


def _reduced_cap(t: int) -> int:
    # ceil(0.8 * t) in exact integer arithmetic
    return (4 * t + 4) // 5


def _run_tasks(task_args, train_data, val_data, jobs: int):
    """Train and validate each (net, cfg, specs) candidate, in order; up to
    `jobs` at a time on threads. Each task owns its net, and numpy releases
    the GIL in its BLAS and ufunc loops."""
    def task(args):
        net, cfg, specs = args
        net, _ = train(net, train_data, cfg, reg_specs=specs)
        return net, evaluate_accuracy(net, val_data)

    if jobs <= 1:
        return list(map(task, task_args))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, task_args))


def greedy_sparsify(base_net, train_data: Dataset, val_data: Dataset, target_nnz: int,
                    cfg: TrainConfig, projection_period: int = 100, test_data=None,
                    jobs: int = 1):
    """Greedy layer-wise sparsification down to `target_nnz` total nonzeros.

    Every round builds one candidate per layer by shrinking that layer's
    cap to ceil(0.8 * t), fine-tunes each candidate from the incumbent for
    cfg.max_iterations, and adopts the candidate with the best validation
    accuracy (ties prefer the cut that leaves the most parameters, then
    the earliest layer). Candidate RNG streams are seeded as
    cfg.seed + candidate index so results do not depend on `jobs`.

    Returns (final network, adopted SparsityPlan, list of CandidateRecord
    covering every candidate ever trained, round 0 included).
    """
    layers = base_net.param_layers()
    layer_names = [l.name for l in layers]
    min_feasible = SparsityPlan(dict.fromkeys(layer_names, 1)).total_nnz(base_net)
    if target_nnz < min_feasible:
        raise ValueError(
            f"target {target_nnz} below minimum feasible {min_feasible} (all caps at 1)"
        )

    def record(round_no, layer_reduced, plan, net, val_acc, adopted=False):
        test_acc = evaluate_accuracy(net, test_data) if test_data is not None else float("nan")
        return CandidateRecord(round_no, layer_reduced, plan, plan.total_nnz(base_net), val_acc,
                               test_acc, report(net).total_best_bytes, adopted)

    plan = SparsityPlan({l.name: max(1, int(np.count_nonzero(l.weights))) for l in layers})
    incumbent = base_net.clone()
    records = [record(0, "-", plan, incumbent, evaluate_accuracy(incumbent, val_data),
                      adopted=True)]

    candidate_index = 0
    round_no = 0
    while plan.total_nnz(base_net) > target_nnz:
        round_no += 1
        caps = plan.caps
        reducible = [name for name in layer_names if _reduced_cap(caps[name]) < caps[name]]
        if not reducible:
            raise ValueError(
                f"no layer cap reducible by 20% but total nnz "
                f"{plan.total_nnz(base_net)} still above target {target_nnz}"
            )
        plans, task_args = [], []
        for name in reducible:
            plans.append(SparsityPlan({**caps, name: _reduced_cap(caps[name])}))
            cand_cfg = replace(cfg, seed=cfg.seed + candidate_index)
            candidate_index += 1
            task_args.append(
                (incumbent.clone(), cand_cfg, plans[-1].reg_specs(projection_period))
            )
        results = _run_tasks(task_args, train_data, val_data, jobs)

        round_records = [record(round_no, name, cand_plan, net, val_acc)
                         for name, cand_plan, (net, val_acc) in zip(reducible, plans, results)]
        # ties prefer the cut leaving the most parameters, then layer order
        best = max(range(len(round_records)), key=lambda pos: (
            round_records[pos].val_acc, plans[pos].caps[reducible[pos]], -pos))
        round_records[best].adopted = True
        incumbent = results[best][0]
        plan = plans[best]
        records.extend(round_records)

    return incumbent, plan, records


THRESHOLD_COMPARE_HEADER = ("delta", "total_nnz", "acc_threshold", "acc_retrained")


def threshold_compare(dense_net, deltas, train_data: Dataset, test_data: Dataset,
                      cfg: TrainConfig, projection_period: int = 100):
    """Post-hoc thresholding vs l0 retraining at the matching sparsity.

    For each delta: threshold the dense net's weights at delta and measure
    test accuracy; copy the resulting per-layer nonzero distribution into
    an l0 plan; retrain a fresh copy of the dense weights under that plan
    and measure again. When a delta zeroes no nonzero weight the dense net
    already satisfies the plan and is reported unchanged on both branches.

    Returns rows of THRESHOLD_COMPARE_HEADER: (delta, total_nnz,
    acc_threshold, acc_retrained).
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("empty threshold grid")
    dense_acc = evaluate_accuracy(dense_net, test_data)
    dense_nnz = dense_net.nnz()
    rows = []
    for i, delta in enumerate(deltas):
        thr_net = dense_net.clone()
        caps = {}
        for layer in thr_net.param_layers():
            layer.weights = threshold(layer.weights, delta)
            caps[layer.name] = max(1, int(np.count_nonzero(layer.weights)))
        total_nnz = thr_net.nnz()
        if total_nnz == dense_nnz:
            acc_thr = acc_ret = dense_acc
        else:
            acc_thr = evaluate_accuracy(thr_net, test_data)
            plan = SparsityPlan(caps)
            rnet = dense_net.clone()
            rnet, _ = train(
                rnet, train_data, replace(cfg, seed=cfg.seed + i),
                reg_specs=plan.reg_specs(projection_period),
            )
            acc_ret = evaluate_accuracy(rnet, test_data)
        rows.append((float(delta), int(total_nnz), float(acc_thr), float(acc_ret)))
    return rows


@dataclass
class EnsembleModel:
    members: list
    plans: list
    budget: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        total = self.total_nnz()
        if total > self.budget:
            raise ValueError(f"ensemble nnz {total} exceeds budget {self.budget}")

    def total_nnz(self) -> int:
        return sum(m.nnz() for m in self.members)


def select_plan(plan_source, max_nnz: int, net) -> SparsityPlan:
    """Highest-validation-accuracy logged plan with total nnz <= max_nnz."""
    eligible = [
        r for r in plan_source if r.plan.total_nnz(net) <= max_nnz
    ]
    if not eligible:
        raise ValueError(f"no logged plan fits under {max_nnz} nonzeros")
    best = max(eligible, key=lambda r: (r.val_acc, -r.plan.total_nnz(net)))
    return best.plan


def train_ensemble(n: int, budget: int, plan_source, data: Dataset, cfg: TrainConfig, build_net):
    """Train an n-member bagged ensemble under a total nonzero budget.

    Each member trains on a bootstrap resample (the 1-member ensemble is
    the unbagged baseline) under the best logged plan with at most
    budget // n nonzeros, l0-projected every 100 iterations. Member RNG
    streams are cfg.seed + member index.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    probe = build_net(seed=cfg.seed)
    plan = select_plan(plan_source, budget // n, probe)
    members, plans = [], []
    for i in range(n):
        member_cfg = replace(cfg, seed=cfg.seed + i)
        member_data = data if n == 1 else bag_resample(data, seed=member_cfg.seed)
        net = build_net(seed=member_cfg.seed)
        net, _ = train(net, member_data, member_cfg, reg_specs=plan.reg_specs())
        members.append(net)
        plans.append(plan)
    return EnsembleModel(members=members, plans=plans, budget=budget)


def ensemble_predict(ensemble: EnsembleModel, images: np.ndarray) -> np.ndarray:
    """Argmax of the mean member output; ties go to the lowest class index."""
    mean = None
    for net in ensemble.members:
        probs = net.predict_probs(images)
        mean = probs if mean is None else mean + probs
    mean /= len(ensemble.members)
    return mean.argmax(axis=1)


def ensemble_accuracy(ensemble: EnsembleModel, data: Dataset) -> float:
    return float(np.mean(ensemble_predict(ensemble, data.images) == data.labels))


SWEEP_HEADER = ("fraction", "regime", "train_acc", "test_acc")


def data_starvation_sweep(fractions, cfg: TrainConfig, dense_specs, sparse_specs,
                          train_data: Dataset, test_data: Dataset, build_net, seed: int = 0):
    """Dense vs sparse training across shrinking training subsets.

    Both regimes train under `cfg`, the dense one with `dense_specs` and
    the sparse one with `sparse_specs`. For each fraction the same
    subsample feeds both regimes. Returns rows of SWEEP_HEADER: (fraction,
    regime, train_acc, test_acc) where train_acc is measured on the
    subsample the run actually saw.
    """
    rows = []
    for fi, fraction in enumerate(fractions):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        sub = subsample(train_data, fraction, seed=seed + fi) if fraction < 1.0 else train_data
        for ri, (regime, specs) in enumerate((("dense", dense_specs), ("sparse", sparse_specs))):
            run_cfg = replace(cfg, seed=cfg.seed + 100 * fi + ri)
            net = build_net(seed=run_cfg.seed)
            net, _ = train(net, sub, run_cfg, reg_specs=specs)
            rows.append(
                (
                    float(fraction),
                    regime,
                    evaluate_accuracy(net, sub),
                    evaluate_accuracy(net, test_data),
                )
            )
    return rows
