"""The lp-norm family over dense numpy arrays: l0 count, lp, l-infinity.

Magnitudes are taken in float64 whatever the input dtype, and nothing here
mutates its input.
"""

import numpy as np


def lp_norm(x: np.ndarray, p: float) -> float:
    """(sum_i |x_i|^p)^(1/p) for p > 0, accumulated in float64."""
    if p <= 0:
        raise ValueError(f"lp_norm requires p > 0, got {p}")
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("lp_norm: tensor has non-finite elements")
    mags = np.abs(x, dtype=np.float64)
    return float(np.sum(mags**p) ** (1.0 / p))


def l0_count(x: np.ndarray, eps: float = 0.0) -> int:
    """Number of elements with |x_i| > eps; eps=0 counts exact nonzeros."""
    if eps < 0:
        raise ValueError(f"l0_count requires eps >= 0, got {eps}")
    return int(np.count_nonzero(np.abs(x) > eps))


def linf_norm(x: np.ndarray) -> float:
    """max_i |x_i|; errors on an empty tensor."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("linf_norm of an empty tensor is undefined")
    return float(np.max(np.abs(x, dtype=np.float64)))
