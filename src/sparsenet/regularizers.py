"""Per-layer sparsity regularization: the one module that knows each kind.

Four update families, plus the baseline:

* ``l2_decay``        -- classical weight decay; its gradient 2*lambda*W is
                         folded into the data gradient before the momentum
                         step (``add_l2_gradient``), so there is no post-step.
* ``l1_subgradient``  -- W -= delta * sign(W). Drives weights near zero but
                         overshoots, so it almost never lands exactly on zero.
* ``l1_shrinkage``    -- soft thresholding, the l1 proximal operator. Weights
                         cannot change sign; small ones land exactly on zero.
* ``l0_projection``   -- every `period` iterations, keep the t largest
                         magnitudes of the layer and zero the rest.
* ``threshold_posthoc`` -- the baseline the projection is compared against: a
                         one-shot magnitude cutoff applied after training,
                         never during it.

Every per-kind rule the trainer applies lives here, one function per moment
of an iteration: ``add_l2_gradient`` before the step, ``apply_regularization``
after it, ``add_regularization_term`` and ``within_l0_cap`` when a metrics
row is logged, and ``finalize_regularization`` at completion. Each acts on
the layer's weights, and on its biases too when ``apply_to_biases`` is set.
"""

from dataclasses import dataclass, field

import numpy as np

REG_KINDS = (
    "none",
    "l2_decay",
    "l1_subgradient",
    "l1_shrinkage",
    "l0_projection",
    "threshold_posthoc",
)


@dataclass(frozen=True)
class RegSpec:
    """Regularization assignment for one layer.

    ``strength`` is the objective weight (lambda); per-iteration l1 step
    sizes are delta = strength * lr unless ``fixed_delta`` is set, in which
    case delta = strength regardless of the learning-rate schedule.
    ``stages`` optionally tightens an l0 cap over time: a tuple of
    (iteration, t) pairs with strictly increasing iterations, the last pair
    whose iteration has been reached wins. Biases are left untouched unless ``apply_to_biases`` is set; they
    contribute little to model size and sparsifying them destabilizes
    small nets.
    """

    kind: str = "none"
    strength: float = 0.0
    t: int | None = None
    period: int = 100
    apply_to_biases: bool = False
    fixed_delta: bool = False
    stages: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; known: {REG_KINDS}")
        if self.strength < 0:
            raise ValueError("regularizer strength must be >= 0")
        if self.kind == "l0_projection":
            if self.t is None or self.t < 1:
                raise ValueError("l0_projection requires a nonzero cap t >= 1")
            if self.period < 1:
                raise ValueError("l0_projection requires period >= 1")
        if self.stages and self.kind != "l0_projection":
            raise ValueError("staged schedules only apply to l0_projection")
        if any(t < 1 for _, t in self.stages):
            raise ValueError("staged caps must be >= 1")
        starts = [start for start, _ in self.stages]
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError("stage iterations must be strictly increasing")

    def effective_t(self, iteration: int) -> int:
        """Cap in force at `iteration` under the staged schedule."""
        t = self.t
        for start, staged_t in self.stages:
            if iteration >= start:
                t = staged_t
        return t


def weight_decay_spec(strength: float) -> RegSpec:
    """The fallback for a layer without its own block: l2 decay at
    `strength`, or no regularization when it is 0."""
    return RegSpec(kind="l2_decay", strength=strength) if strength > 0 else RegSpec()


def l1_subgradient_update(w: np.ndarray, delta: float) -> np.ndarray:
    """W_i - delta * sign(W_i), with sign(0) = 0."""
    if delta <= 0:
        raise ValueError("l1 subgradient step requires delta > 0")
    return w - w.dtype.type(delta) * np.sign(w)


def l1_shrinkage_update(w: np.ndarray, delta: float) -> np.ndarray:
    """Soft threshold: (|W_i| - delta)_+ * sign(W_i)."""
    if delta <= 0:
        raise ValueError("shrinkage requires delta > 0")
    return np.maximum(np.abs(w) - w.dtype.type(delta), w.dtype.type(0)) * np.sign(w)


def l0_project(w: np.ndarray, t: int) -> np.ndarray:
    """Keep the t largest-magnitude elements, zero the rest.

    Minimizes ||W - W'||_2^2 subject to ||W'||_0 <= t. Ties in magnitude are
    broken by keeping the lowest flat index, so the result is deterministic
    and idempotent. Surviving elements are copied bit-for-bit.
    """
    if t < 1:
        raise ValueError("l0 projection requires t >= 1")
    flat = w.reshape(-1)
    if t >= flat.size:
        return w.copy()
    # stable sort on -|w| keeps the lowest index first among ties
    keep = np.argsort(-np.abs(flat), kind="stable")[:t]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out.reshape(w.shape)


def threshold(w: np.ndarray, delta: float) -> np.ndarray:
    """Zero every element with |W_i| < delta; delta=0 is the identity."""
    if delta < 0:
        raise ValueError("threshold requires delta >= 0")
    return np.where(np.abs(w) < delta, w.dtype.type(0), w)


def regularization_term(w: np.ndarray, spec: RegSpec) -> float:
    """lambda * r(W) where r is defined (l2, l1 kinds); 0.0 otherwise."""
    if spec.kind == "l2_decay":
        return spec.strength * float(np.sum(np.square(w, dtype=np.float64)))
    if spec.kind in ("l1_subgradient", "l1_shrinkage"):
        return spec.strength * float(np.sum(np.abs(w, dtype=np.float64)))
    return 0.0


def _scope(spec: RegSpec):
    """Names of the layer arrays `spec` acts on: weights, then biases if opted in."""
    return ("weights", "biases") if spec.apply_to_biases else ("weights",)


def add_l2_gradient(layer, spec: RegSpec, gw: np.ndarray, gb: np.ndarray):
    """(gw, gb) plus the l2_decay gradient 2 * lambda * W over the spec's scope."""
    if spec.kind != "l2_decay" or spec.strength <= 0:
        return gw, gb
    grads = {"weights": gw, "biases": gb}
    for name in _scope(spec):
        grads[name] = grads[name] + 2.0 * spec.strength * getattr(layer, name)
    return grads["weights"], grads["biases"]


def apply_regularization(layer, spec: RegSpec, lr: float, iteration: int) -> None:
    """Apply the post-gradient-step update for `spec` to `layer` in place.

    l1 kinds run every iteration with delta = strength * lr (or a fixed
    delta, see RegSpec); l0 projection runs only when
    ``iteration % period == 0``. ``none``, ``l2_decay`` (handled in the
    gradient) and ``threshold_posthoc`` (applied after training) are no-ops.
    """
    if spec.kind == "l0_projection":
        if iteration % spec.period != 0:
            return
        t = spec.effective_t(iteration)
        for name in _scope(spec):
            setattr(layer, name, l0_project(getattr(layer, name), t))
        return
    if spec.kind == "l1_subgradient":
        update = l1_subgradient_update
    elif spec.kind == "l1_shrinkage":
        update = l1_shrinkage_update
    else:
        return
    delta = spec.strength if spec.fixed_delta else spec.strength * lr
    if delta == 0.0:
        return
    for name in _scope(spec):
        setattr(layer, name, update(getattr(layer, name), delta))


def add_regularization_term(total: float, layer, spec: RegSpec) -> float:
    """`total` plus lambda * r over the spec's scope.

    The terms are added onto the running total one array at a time, weights
    then biases, so a sum over layers rounds the same way in every caller.
    """
    for name in _scope(spec):
        total += regularization_term(getattr(layer, name), spec)
    return total


def within_l0_cap(layer, spec: RegSpec, iteration: int) -> bool:
    """False only for an l0-projected layer whose weights exceed the cap in
    force at `iteration` (momentum refills weights between projections)."""
    return (spec.kind != "l0_projection"
            or np.count_nonzero(layer.weights) <= spec.effective_t(iteration))


def finalize_regularization(layer, spec: RegSpec, iteration: int) -> None:
    """End-of-training step: re-project an l0 layer whose scope exceeds its
    cap, and apply a post-hoc threshold over the spec's scope."""
    if spec.kind == "l0_projection":
        t = spec.effective_t(iteration)
        for name in _scope(spec):
            if np.count_nonzero(getattr(layer, name)) > t:
                setattr(layer, name, l0_project(getattr(layer, name), t))
    elif spec.kind == "threshold_posthoc" and spec.strength > 0:
        for name in _scope(spec):
            setattr(layer, name, threshold(getattr(layer, name), spec.strength))
