import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsenet.regularizers import (
    RegSpec,
    apply_regularization,
    l0_project,
    l1_shrinkage_update,
    l1_subgradient_update,
    threshold,
)


def prox_l1_scalar(w: float, delta: float) -> float:
    """Independent per-coordinate minimizer of 0.5*(z-w)^2 + delta*|z|.

    The objective is piecewise quadratic with breakpoints at z=0 and the
    two quadratic minima; evaluating it at those candidates and taking the
    argmin does not share any code with the vectorized update.
    """

    def objective(z):
        return 0.5 * (z - w) ** 2 + delta * abs(z)

    candidates = [0.0, w - delta, w + delta]
    return min(candidates, key=objective)


def brute_force_l0(w: np.ndarray, t: int):
    """Best support of size <= t by exhaustive enumeration.

    Returns (min squared distance, projected vector for one optimal
    support), computing distances the same way the assertions do.
    """
    flat = w.ravel()
    best_d, best_vec = None, None
    for support in itertools.combinations(range(flat.size), min(t, flat.size)):
        vec = np.zeros_like(flat)
        vec[list(support)] = flat[list(support)]
        d = float(np.sum(np.square(flat - vec)))
        if best_d is None or d < best_d:
            best_d, best_vec = d, vec
    return best_d, best_vec


def l0_project_argsort(w: np.ndarray, t: int) -> np.ndarray:
    """Reference l0 projection by stable argsort: sort by -|w| with ties in
    flat-index order and keep the first t."""
    flat = w.reshape(-1)
    if t >= flat.size:
        return w.copy()
    keep = np.argsort(-np.abs(flat), kind="stable")[:t]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out.reshape(w.shape)


class _FakeLayer:
    def __init__(self, weights, biases=None):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases if biases is not None else [0.0], dtype=np.float64)


class TestSubgradientUpdate:
    def test_positive_weight(self):
        npt.assert_allclose(l1_subgradient_update(np.array([0.5]), 0.1), [0.4])

    def test_sign_overshoot(self):
        # the step crosses zero instead of stopping there
        npt.assert_allclose(l1_subgradient_update(np.array([-0.05]), 0.1), [0.05])

    def test_zero_stays_zero(self):
        npt.assert_array_equal(l1_subgradient_update(np.array([0.0]), 0.1), [0.0])

    def test_subgradient_inequality(self):
        # sign(W) in the subdifferential of ||.||_1:
        # ||Z||_1 >= ||W||_1 + <sign(W), Z - W> for all Z
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = rng.standard_normal(20)
            z = rng.standard_normal(20)
            lhs = np.abs(z).sum()
            rhs = np.abs(w).sum() + np.sign(w) @ (z - w)
            assert lhs >= rhs - 1e-12


class TestShrinkageUpdate:
    def test_positive_weight(self):
        npt.assert_allclose(l1_shrinkage_update(np.array([0.5]), 0.2), [0.3])

    def test_no_sign_change(self):
        npt.assert_array_equal(l1_shrinkage_update(np.array([-0.1]), 0.2), [0.0])

    def test_matches_prox_oracle(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal(50)
        delta = 0.3
        expected = np.array([prox_l1_scalar(v, delta) for v in w])
        npt.assert_allclose(l1_shrinkage_update(w, delta), expected, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-10, 10)),
        st.floats(1e-6, 5.0),
    )
    def test_shrinkage_properties(self, w, delta):
        out = l1_shrinkage_update(w, delta)
        # sign preserved or zeroed, magnitude never grows
        assert np.all((np.sign(out) == np.sign(w)) | (out == 0))
        assert np.all(np.abs(out) <= np.abs(w) + 1e-15)
        # exact-zero boundary
        npt.assert_array_equal(out == 0, np.abs(w) <= delta)


class TestL0Projection:
    def test_top2(self):
        npt.assert_array_equal(
            l0_project(np.array([3.0, -1.0, 0.5, 2.0]), 2), [3.0, 0.0, 0.0, 2.0]
        )

    def test_t_at_least_nnz_is_identity(self):
        npt.assert_array_equal(l0_project(np.array([1.0, 1.0, 1.0]), 3), [1.0, 1.0, 1.0])

    def test_lowest_index_tie_break(self):
        npt.assert_array_equal(l0_project(np.array([2.0, -2.0, 1.0]), 1), [2.0, 0.0, 0.0])

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            t = int(rng.integers(1, 7))
            w = rng.standard_normal(size)
            best_d, _ = brute_force_l0(w, t)
            out = l0_project(w, t)
            d = float(np.sum(np.square(w.ravel() - out.ravel())))
            assert d == best_d

    def test_idempotent_bit_exact(self):
        w = np.random.default_rng(23).standard_normal((4, 5)).astype(np.float32)
        once = l0_project(w, 7)
        twice = l0_project(once, 7)
        assert once.tobytes() == twice.tobytes()

    def test_survivors_bit_identical(self):
        w = np.random.default_rng(29).standard_normal(30).astype(np.float32)
        out = l0_project(w, 10)
        kept = out != 0
        assert out[kept].tobytes() == w[kept].tobytes()

    def test_distance_is_sum_of_dropped_squares(self):
        w = np.random.default_rng(31).standard_normal(40)
        out = l0_project(w, 15)
        dropped = w[out == 0]
        npt.assert_allclose(np.sum((w - out) ** 2), np.sum(dropped**2), rtol=1e-12)


class TestL0ProjectMatchesArgsort:
    """l0_project selects by partition; the stable argsort is the oracle."""

    @staticmethod
    def _check(w, t):
        assert l0_project(w, t).tobytes() == l0_project_argsort(w, t).tobytes()

    @pytest.mark.parametrize("t", [1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 50])
    def test_cap_inside_equal_magnitude_block(self, t):
        # magnitudes 3, then a block of six 1.0s (signs mixed), then 0.5s
        w = np.array([0.5, 1.0, 3.0, -1.0, 0.5, 1.0, 1.0, -3.0, -1.0, 1.0, 0.0])
        self._check(w, t)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_plus_minus_pairs(self, t):
        w = np.array([[-2.0, 2.0, 0.25, -0.25], [0.25, -2.0, 2.0, -0.25]], dtype=np.float32)
        self._check(w, t)

    @pytest.mark.parametrize("t", [1, 7, 24, 25, 100])
    def test_all_zero_layer(self, t):
        w = np.zeros((5, 5), dtype=np.float32)
        w[0, 1] = -0.0
        self._check(w, t)

    @pytest.mark.parametrize("t", [12, 13, 1000])
    def test_cap_at_least_size(self, t):
        self._check(np.random.default_rng(3).standard_normal((3, 4)), t)

    def test_fc_scale_tie_block_across_cap(self):
        rng = np.random.default_rng(41)
        w = rng.standard_normal((50, 80)).astype(np.float32)
        w[rng.random(w.shape) < 0.3] = 0.0
        w[10:20] = np.where(rng.random((10, 80)) < 0.5, 0.5, -0.5)
        nlarger = int(np.count_nonzero(np.abs(w) > 0.5))
        for t in (nlarger - 1, nlarger + 1, nlarger + 400, nlarger + 800, 3000):
            self._check(w, t)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            st.sampled_from([np.float32, np.float64]),
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
            elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e-3]),
        ),
        st.integers(1, 90),
    )
    def test_random_ties(self, w, t):
        self._check(w, t)


class TestThreshold:
    def test_zero_delta_identity(self):
        w = np.random.default_rng(2).standard_normal(10)
        npt.assert_array_equal(threshold(w, 0.0), w)

    def test_strict_cutoff(self):
        npt.assert_array_equal(threshold(np.array([0.05, -0.2]), 0.1), [0.0, -0.2])

    def test_nnz_monotone_in_delta(self):
        w = np.random.default_rng(4).uniform(-0.1, 0.1, size=200)
        counts = [np.count_nonzero(threshold(w, d)) for d in np.linspace(0, 0.1, 21)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_agrees_with_projection_away_from_ties(self):
        w = np.random.default_rng(6).standard_normal(30)
        delta = 0.5
        t = int(np.count_nonzero(np.abs(w) >= delta))
        npt.assert_array_equal(threshold(w, delta), l0_project(w, t))


class TestRegSpec:
    def test_l0_requires_cap(self):
        with pytest.raises(ValueError):
            RegSpec(kind="l0_projection")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RegSpec(kind="l7_projection")

    def test_stages_must_increase(self):
        for stages in (((20, 50), (10, 25)), ((20, 50), (20, 25))):
            with pytest.raises(ValueError, match="strictly increasing"):
                RegSpec(kind="l0_projection", t=100, stages=stages)

    def test_staged_caps(self):
        spec = RegSpec(kind="l0_projection", t=100, stages=((10, 50), (20, 25)))
        assert spec.effective_t(5) == 100
        assert spec.effective_t(10) == 50
        assert spec.effective_t(99) == 25


class TestApplyRegularization:
    def test_none_is_identity(self):
        layer = _FakeLayer([0.5, -0.5])
        before = layer.weights.copy()
        apply_regularization(layer, RegSpec(), lr=0.1, iteration=1)
        npt.assert_array_equal(layer.weights, before)

    def test_l0_period_gating(self):
        layer = _FakeLayer(np.arange(1.0, 11.0))
        spec = RegSpec(kind="l0_projection", t=2, period=100)
        apply_regularization(layer, spec, lr=0.1, iteration=50)
        assert np.count_nonzero(layer.weights) == 10
        apply_regularization(layer, spec, lr=0.1, iteration=100)
        assert np.count_nonzero(layer.weights) == 2

    def test_l1_delta_tracks_lr(self):
        layer = _FakeLayer([1.0])
        spec = RegSpec(kind="l1_shrinkage", strength=2.0)
        apply_regularization(layer, spec, lr=0.1, iteration=1)
        npt.assert_allclose(layer.weights, [0.8])

    def test_l1_fixed_delta(self):
        layer = _FakeLayer([1.0])
        spec = RegSpec(kind="l1_shrinkage", strength=0.3, fixed_delta=True)
        apply_regularization(layer, spec, lr=0.001, iteration=1)
        npt.assert_allclose(layer.weights, [0.7])

    def test_biases_excluded_by_default(self):
        layer = _FakeLayer([1.0, 2.0, 3.0], biases=[0.5, 0.6])
        spec = RegSpec(kind="l0_projection", t=1, period=1)
        apply_regularization(layer, spec, lr=0.1, iteration=1)
        assert np.count_nonzero(layer.weights) == 1
        npt.assert_array_equal(layer.biases, [0.5, 0.6])
