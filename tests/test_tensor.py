import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenet import tensor


class TestLpNorm:
    def test_pythagorean(self):
        assert tensor.lp_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_l1_sum_of_magnitudes(self):
        assert tensor.lp_norm(np.array([1.0, -2.0, 0.0]), 1) == pytest.approx(3.0)

    def test_fractional_p_against_scalar_oracle(self):
        # independent elementwise evaluation in plain python floats
        x = [0.5, 0.5]
        p = 0.5
        expected = sum(math.pow(abs(v), p) for v in x) ** (1.0 / p)
        assert tensor.lp_norm(np.array(x), p) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            tensor.lp_norm(np.array([1.0]), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tensor.lp_norm(np.array([1.0, np.inf]), 2)

    def test_monotone_in_p(self):
        x = np.random.default_rng(3).standard_normal(40)
        l1, l2, linf = tensor.lp_norm(x, 1), tensor.lp_norm(x, 2), tensor.linf_norm(x)
        assert l1 >= l2 >= linf

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
        st.floats(-100, 100),
        st.floats(1.0, 8.0),
    )
    def test_absolute_homogeneity(self, values, c, p):
        x = np.array(values, dtype=np.float64)
        npt.assert_allclose(
            tensor.lp_norm(c * x, p), abs(c) * tensor.lp_norm(x, p), rtol=1e-6, atol=1e-9
        )


class TestL0Count:
    def test_exact_nonzeros(self):
        assert tensor.l0_count(np.array([1.0, -2.0, 0.0])) == 2

    def test_all_zero(self):
        assert tensor.l0_count(np.zeros((3, 4))) == 0

    def test_threshold_semantics(self):
        assert tensor.l0_count(np.array([1e-9, 1.0]), eps=1e-6) == 1

    def test_matches_brute_force(self):
        x = np.random.default_rng(0).choice([0.0, 0.5, -1.0], size=100)
        brute = sum(1 for v in x.ravel() if v != 0)
        assert tensor.l0_count(x) == brute

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            tensor.l0_count(np.array([1.0]), eps=-1e-3)


class TestLinfNorm:
    def test_max_magnitude(self):
        assert tensor.linf_norm(np.array([1.0, -2.0, 0.0])) == 2.0

    def test_single_zero(self):
        assert tensor.linf_norm(np.array([0.0])) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            tensor.linf_norm(np.array([]))

    def test_large_p_limit(self):
        # seed chosen so the top two magnitudes are well separated
        x = np.random.default_rng(42).standard_normal(50)
        approx = tensor.lp_norm(x, 64)
        exact = tensor.linf_norm(x)
        assert abs(approx - exact) / exact < 0.01
