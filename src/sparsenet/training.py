"""Minibatch SGD with momentum, interleaved with regularization updates.

Ordering within one iteration follows the proximal-gradient pattern:
velocity/gradient step first, then the layer's regularization update
(l1 step or periodic l0 projection). l2 decay is classical weight decay,
folded into the gradient before the velocity update instead. What each
regularizer kind does at each of these points is decided in
``regularizers.py``; this module only calls it, layer by layer.

Metrics rows are appended at a fixed interval and exported as CSV:
iteration, loss, reg_term, train_acc, test_acc, then one nnz column per
parameterized layer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .regularizers import (
    RegSpec,
    add_l2_gradient,
    add_regularization_term,
    apply_regularization,
    finalize_regularization,
    l0_project,  # noqa: F401  -- unused here, but perfbench/spans.py patches training.l0_project
    within_l0_cap,
)
from .seeding import rng_for


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 0.01
    lr_decay: float = 1.0
    lr_step: int = 1000
    momentum: float = 0.9
    max_iterations: int = 1000
    seed: int = 0
    eval_interval: int = 200
    eval_max: int = 1000

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.lr_decay <= 0 or self.lr_step < 1 or self.max_iterations < 1:
            raise ValueError("invalid schedule: lr_decay > 0, lr_step >= 1, max_iterations >= 1")
        if self.eval_interval < 1 or self.eval_max < 1:
            raise ValueError("eval_interval and eval_max must be >= 1")


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Step-decayed learning rate for a 1-based iteration index."""
    return cfg.learning_rate * cfg.lr_decay ** ((iteration - 1) // cfg.lr_step)


def sgd_update(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float, momentum: float) -> None:
    """In place: v <- momentum*v - lr*grad; param <- param + v."""
    velocity *= param.dtype.type(momentum)
    velocity -= param.dtype.type(lr) * grad
    param += velocity


@dataclass
class MetricsRow:
    iteration: int
    loss: float
    reg_term: float
    train_acc: float
    test_acc: float
    l0_feasible: bool
    layer_nnz: dict


@dataclass
class MetricsLog:
    layer_names: list
    rows: list = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError("metrics must be appended with increasing iteration")
        self.rows.append(row)

    def to_csv(self) -> str:
        header = ["iteration", "loss", "reg_term", "train_acc", "test_acc"]
        header += [f"{name}_nnz" for name in self.layer_names]
        lines = [",".join(header)]
        for r in self.rows:
            cells = [str(r.iteration), repr(r.loss), repr(r.reg_term),
                     repr(r.train_acc), repr(r.test_acc)]
            cells += [str(r.layer_nnz[name]) for name in self.layer_names]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_accuracy(net, dataset, batch_size: int = 200, limit: int | None = None,
                      indices=None) -> float:
    """Fraction of correct argmax predictions; ties go to the lowest class."""
    images, labels = dataset.images, dataset.labels
    if indices is not None:
        images, labels = images[indices], labels[indices]
    elif limit is not None and limit < len(labels):
        images, labels = images[:limit], labels[:limit]
    probs = net.predict_probs(images, batch_size=batch_size)
    return float(np.mean(probs.argmax(axis=1) == labels))


def _check_finite(value, what: str, iteration: int) -> None:
    if not np.all(np.isfinite(value)):
        raise NumericError(f"non-finite {what} at iteration {iteration}; aborting run")


def _normalized_specs(net, reg_specs) -> dict:
    specs = {l.name: RegSpec() for l in net.param_layers()}
    for name, spec in (reg_specs or {}).items():
        if name not in specs:
            raise KeyError(f"reg spec references unknown layer {name!r}")
        specs[name] = spec
    return specs


def train(net, dataset, cfg: TrainConfig, reg_specs=None, test_data=None):
    """Train `net` in place for cfg.max_iterations; returns (net, MetricsLog).

    Minibatches are drawn as shuffled epochs without replacement (partial
    final batches are dropped and the epoch reshuffled). Each iteration:
    forward/backward on the batch, fold l2 decay into the gradients,
    momentum step, then the per-layer regularization update.
    """
    n = len(dataset)
    if n < cfg.batch_size:
        raise ValueError(f"dataset has {n} examples, smaller than batch size {cfg.batch_size}")
    specs = _normalized_specs(net, reg_specs)
    param_layers = net.param_layers()
    velocity = {
        l.name: (np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in param_layers
    }

    batch_rng = rng_for(cfg.seed, "batches")
    eval_rng = rng_for(cfg.seed, "eval")
    train_eval_idx = (
        np.sort(eval_rng.choice(n, size=min(n, cfg.eval_max), replace=False))
        if n > cfg.eval_max
        else None
    )

    metrics = MetricsLog(layer_names=[l.name for l in param_layers])

    def record(iteration, batch_loss):
        reg_term = 0.0
        for layer in param_layers:
            reg_term = add_regularization_term(reg_term, layer, specs[layer.name])
        train_acc = evaluate_accuracy(net, dataset, limit=cfg.eval_max, indices=train_eval_idx)
        test_acc = (
            evaluate_accuracy(net, test_data, limit=cfg.eval_max)
            if test_data is not None
            else float("nan")
        )
        metrics.append(
            MetricsRow(
                iteration=iteration,
                loss=batch_loss + reg_term,
                reg_term=reg_term,
                train_acc=train_acc,
                test_acc=test_acc,
                l0_feasible=all(within_l0_cap(l, specs[l.name], iteration) for l in param_layers),
                layer_nnz=net.layer_nnz(),
            )
        )

    order = batch_rng.permutation(n)
    cursor = 0
    for iteration in range(1, cfg.max_iterations + 1):
        if cursor + cfg.batch_size > n:
            order = batch_rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        net.forward(dataset.images[idx])
        batch_loss = net.loss(dataset.labels[idx])
        _check_finite(batch_loss, "loss", iteration)
        grads = net.backward(dataset.labels[idx])

        lr = lr_at(cfg, iteration)
        for layer in param_layers:
            gw, gb = grads[layer.name]
            _check_finite(gw, f"gradient for {layer.name}", iteration)
            _check_finite(gb, f"bias gradient for {layer.name}", iteration)
            spec = specs[layer.name]
            gw, gb = add_l2_gradient(layer, spec, gw, gb)
            vw, vb = velocity[layer.name]
            sgd_update(layer.weights, gw, vw, lr, cfg.momentum)
            sgd_update(layer.biases, gb, vb, lr, cfg.momentum)
            apply_regularization(layer, spec, lr, iteration)

        if iteration % cfg.eval_interval == 0 or iteration == cfg.max_iterations:
            if iteration == cfg.max_iterations:
                for layer in param_layers:
                    finalize_regularization(layer, specs[layer.name], iteration)
            record(iteration, batch_loss)

    return net, metrics


def full_gradient(net, dataset, batch_size: int = 200):
    """Exact gradient of the mean data loss over the whole dataset.

    Chunk gradients are means over their chunk; they are recombined with
    exact example weights so the result equals the single-pass gradient.
    """
    n = len(dataset)
    totals = None
    for start in range(0, n, batch_size):
        idx = slice(start, min(start + batch_size, n))
        count = idx.stop - idx.start
        net.forward(dataset.images[idx])
        grads = net.backward(dataset.labels[idx])
        scale = count / n
        if totals is None:
            totals = {name: (gw * scale, gb * scale) for name, (gw, gb) in grads.items()}
        else:
            for name, (gw, gb) in grads.items():
                tw, tb = totals[name]
                tw += gw * scale
                tb += gb * scale
    return totals
