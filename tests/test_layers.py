import itertools

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import numeric_grad, rel_error
from sparsenet.errors import ShapeError
from sparsenet.layers import Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from sparsenet.seeding import rng_for


def conv_forward_naive(x, weights, biases, stride=1, pad=0):
    """Direct quadruple-loop convolution, the independence oracle."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weights.shape
    assert ic == c
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = np.sum(patch * weights[oi]) + biases[oi]
    return out


def fc_forward_naive(x, weights, biases):
    x2d = x.reshape(len(x), -1)
    out = np.zeros((len(x), weights.shape[0]), dtype=np.float64)
    for ni in range(len(x)):
        for oi in range(weights.shape[0]):
            out[ni, oi] = np.dot(x2d[ni], weights[oi]) + biases[oi]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = rng_for(1, "conv", stride, pad)
        layer = Conv2d("c", 3, 5, 3, pad=pad, init_std=0.3, dtype=np.float64, rng=rng)
        x = rng.standard_normal((4, 3, 9, 9))
        fast, _ = layer.forward(x)
        slow = conv_forward_naive(x, layer.weights, layer.biases, stride, pad)
        npt.assert_allclose(fast, slow, atol=1e-6)

    def test_identity_1x1_conv(self):
        layer = Conv2d("c", 1, 1, 1, dtype=np.float64)
        layer.weights = np.ones((1, 1, 1, 1))
        layer.biases = np.zeros(1)
        x = np.random.default_rng(2).standard_normal((2, 1, 5, 5))
        npt.assert_allclose(layer.forward(x)[0], x, atol=1e-12)

    def test_channel_mismatch(self):
        layer = Conv2d("c", 3, 4, 3)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))


def conv_per_image_nchw(layer, x, dout):
    """(out, dx, grad_w, grad_b) of `layer` by the per-image NCHW
    formulation: (n, c*k*k, oh*ow) columns, one GEMM per image in every
    pass, and each column entry added back onto its pixel in (i, j) order."""
    n, c, h, w = x.shape
    o, k, p = layer.out_channels, layer.kernel, layer.pad
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    w2d = layer.weights.reshape(o, -1)
    out = (np.matmul(w2d[None], cols) + layer.biases[None, :, None]).reshape(n, o, oh, ow)
    d2 = dout.reshape(n, o, -1)
    grad_w = np.matmul(d2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(layer.weights.shape)
    grad_b = d2.sum(axis=(0, 2))
    dcols = np.matmul(w2d.T[None], d2).reshape(n, c, k, k, oh, ow)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
    return out, dxp[:, :, p : p + h, p : p + w], grad_w, grad_b


# (in_channels, out_channels, input side) of every conv in lenet_small and cifar_quick
TOPOLOGY_CONVS = [(1, 20, 28), (20, 50, 12), (3, 32, 32), (32, 32, 16), (32, 64, 8)]
# lenet_small's convs run unpadded, cifar_quick's at pad 2; each shape runs at both
CONV_CASES = [(c, o, side, pad) for c, o, side in TOPOLOGY_CONVS for pad in (0, 2)]
# no topology has this conv: a (64, 800) x (800, 16) per-image GEMM, which
# OpenBLAS 0.3.31 (Haswell kernels) sums in another order than the batched one
SMALL_GEMM = (32, 64, 8, 0)


class TestConvByteOracle:
    """Conv2d's channel-major columns give the bytes of the per-image NCHW
    formulation in every pass: one GEMM over n images' columns sums each
    output in the order of n per-image GEMMs. That is a property of the
    BLAS kernels, so it is checked on whatever numpy/BLAS runs the suite."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 50])
    @pytest.mark.parametrize("c,o,side,pad", [
        pytest.param(*case, marks=pytest.mark.xfail(
            reason="the forward's per-image GEMM takes another BLAS kernel path"))
        if case == SMALL_GEMM else case for case in CONV_CASES])
    def test_equals_per_image_nchw(self, c, o, side, pad, n, dtype):
        rng = rng_for(6, "conv-bytes", c, o, pad, n)
        layer = Conv2d("c", c, o, 5, pad=pad, init_std=0.1, dtype=dtype, rng=rng)
        layer.biases = rng.standard_normal(o).astype(dtype)
        x = rng.standard_normal((n, c, side, side)).astype(dtype)
        out, ctx = layer.forward(x)
        dout = rng.standard_normal(out.shape).astype(dtype)
        expect = conv_per_image_nchw(layer, x, dout)
        dx, (grad_w, grad_b) = layer.backward(dout, ctx)
        for got, want in zip((out, dx, grad_w, grad_b), expect):
            assert got.dtype == want.dtype and got.shape == want.shape
            npt.assert_array_equal(got, want)
        assert out.flags.c_contiguous
        no_dx, grads = layer.backward(dout, ctx, input_grad=False)
        assert no_dx is None
        assert grads[0].tobytes() == grad_w.tobytes() and grads[1].tobytes() == grad_b.tobytes()


class TestLinearForward:
    def test_matches_naive_oracle(self):
        rng = rng_for(3, "fc")
        layer = Linear("f", 12, 7, init_std=0.4, dtype=np.float64, rng=rng)
        x = rng.standard_normal((5, 3, 2, 2))
        npt.assert_allclose(
            layer.forward(x)[0], fc_forward_naive(x, layer.weights, layer.biases), atol=1e-9
        )

    def test_feature_mismatch(self):
        layer = Linear("f", 12, 7)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 13), dtype=np.float32))


class TestMaxPool:
    def test_known_windows(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, _ = MaxPool2d(2).forward(x)
        npt.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_indivisible_errors(self):
        with pytest.raises(ShapeError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 4)))

    def test_tie_gradient_goes_to_first(self):
        layer = MaxPool2d(2)
        x = np.ones((1, 1, 2, 2))
        _, ctx = layer.forward(x)
        dx, _ = layer.backward(np.array([[[[1.0]]]]), ctx)
        npt.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def _nan_canonical_bytes(a):
    """Bytes of `a` with every NaN replaced by one NaN, so NaN compares as NaN."""
    return np.where(np.isnan(a), a.dtype.type(np.nan), a).tobytes()


def maxpool_naive(x, s):
    """Python-loop reference: each window's first maximum in row-major order
    (a NaN counts as the maximum, as argmax has it), and where it sits."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // s, w // s), dtype=x.dtype)
    where = np.zeros((n, c, h // s, w // s, 2), dtype=int)
    for b, ch, oi, oj in itertools.product(range(n), range(c), range(h // s), range(w // s)):
        best = None
        for di, dj in itertools.product(range(s), range(s)):
            v = x[b, ch, oi * s + di, oj * s + dj]
            if best is None or (not np.isnan(best) and (np.isnan(v) or v > best)):
                best, pos = v, (oi * s + di, oj * s + dj)
        out[b, ch, oi, oj], where[b, ch, oi, oj] = best, pos
    return out, where


def maxpool_backward_naive(dout, where, x_shape):
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for b, ch, oi, oj in np.ndindex(dout.shape):
        dx[(b, ch, *where[b, ch, oi, oj])] = dout[b, ch, oi, oj]
    return dx


class TestMaxPoolOracle:
    """The strided-view pool against argmax semantics: first maximum,
    first NaN, and the earlier zero of a -0/+0 tie."""

    VALUES = (-1.0, -0.0, 0.0, 1.0, np.nan)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["batch", "channels", "wide"])
    def test_every_signed_zero_nan_window(self, dtype, layout):
        wins = np.array(list(itertools.product(self.VALUES, repeat=4)), dtype=dtype)
        k = len(wins)  # 625 windows of 2 x 2
        if layout == "batch":
            x = wins.reshape(k, 1, 2, 2)
        elif layout == "channels":
            x = wins.reshape(1, k, 2, 2)
        else:  # windows side by side along the width
            x = wins.reshape(k, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, 2 * k)
        layer = MaxPool2d(2)
        out, ctx = layer.forward(x)
        first = wins.argmax(axis=1)
        expect = wins[np.arange(k), first]
        assert _nan_canonical_bytes(out.reshape(-1)) == _nan_canonical_bytes(expect)

        dout = np.arange(1, k + 1, dtype=dtype).reshape(out.shape)
        dx, _ = layer.backward(dout, ctx)
        if layout == "wide":
            dwin = dx.reshape(2, k, 2).transpose(1, 0, 2).reshape(k, 4)
        else:
            dwin = dx.reshape(k, 4)
        expect_dwin = np.zeros((k, 4), dtype=dtype)
        expect_dwin[np.arange(k), first] = np.arange(1, k + 1)
        assert dwin.tobytes() == expect_dwin.tobytes()

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_ties_match_loop_reference(self, s, seed):
        rng = rng_for(seed, "pool-oracle")
        # few distinct values force equal-value ties inside windows
        x = rng.integers(-2, 3, size=(2, 3, 6, 6)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = -0.0
        x[rng.random(x.shape) < 0.05] = np.nan
        layer = MaxPool2d(s)
        out, ctx = layer.forward(x)
        expect, where = maxpool_naive(x, s)
        assert _nan_canonical_bytes(out) == _nan_canonical_bytes(expect)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dx, _ = layer.backward(dout, ctx)
        assert dx.tobytes() == maxpool_backward_naive(dout, where, x.shape).tobytes()


class TestSoftmaxLoss:
    def test_probability_simplex(self):
        rng = rng_for(4, "softmax")
        layer = SoftmaxCrossEntropy()
        probs = layer.forward(rng.standard_normal((20, 10)) * 10)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_loss_of_uniform(self):
        layer = SoftmaxCrossEntropy()
        probs = layer.forward(np.zeros((3, 10)))
        assert layer.loss(probs, np.array([0, 5, 9])) == pytest.approx(np.log(10))

    def test_shift_invariance(self):
        layer = SoftmaxCrossEntropy()
        s = np.random.default_rng(5).standard_normal((4, 6))
        a = layer.forward(s).copy()
        b = layer.forward(s + 100.0)
        npt.assert_allclose(a, b, atol=1e-12)


class TestPerLayerGradients:
    """Every layer type's backward vs central finite differences, eps=1e-5.

    The scalar probe is sum(forward(x) * R) for a fixed random R, whose
    output-gradient is exactly R; backward(R) must then match numeric
    differentiation of the probe.
    """

    def _check_layer(self, make_layer, in_shape, seed, param_check=True):
        rng = rng_for(seed, "gradcheck")
        layer = make_layer(rng)
        x = rng.standard_normal((3, *in_shape))
        r = rng.standard_normal(layer.forward(x)[0].shape)

        def probe(xv):
            return float(np.sum(layer.forward(xv)[0] * r))

        _, ctx = layer.forward(x)
        dx, grads = layer.backward(r, ctx)
        assert rel_error(dx, numeric_grad(probe, x)) <= 1e-4

        if param_check:
            for attr, analytic in zip(("weights", "biases"), grads):
                def probe_param(p, attr=attr):
                    saved = getattr(layer, attr)
                    setattr(layer, attr, p)
                    val = probe(x)
                    setattr(layer, attr, saved)
                    return val

                numeric = numeric_grad(probe_param, getattr(layer, attr))
                assert rel_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_conv(self, seed):
        self._check_layer(
            lambda rng: Conv2d("c", 2, 3, 3, pad=1, init_std=0.3, dtype=np.float64, rng=rng),
            (2, 5, 5),
            seed,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        self._check_layer(
            lambda rng: Linear("f", 8, 4, init_std=0.3, dtype=np.float64, rng=rng),
            (8,),
            seed,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_maxpool(self, seed):
        self._check_layer(lambda rng: MaxPool2d(2), (2, 4, 4), seed, param_check=False)

    @pytest.mark.parametrize("seed", range(5))
    def test_relu(self, seed):
        self._check_layer(lambda rng: ReLU(), (6,), seed, param_check=False)

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_loss(self, seed):
        rng = rng_for(seed, "gradcheck-softmax")
        head = SoftmaxCrossEntropy()
        scores = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)

        def probe(s):
            return head.loss(head.forward(s), labels)

        probs = head.forward(scores)
        head.loss(probs, labels)
        analytic = head.backward(probs, labels)
        assert rel_error(analytic, numeric_grad(probe, scores)) <= 1e-4
