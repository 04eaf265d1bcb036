"""Network layers with explicit forward and backward passes.

No autodiff, and no state beyond hyperparameters, weights and biases:
forward(x) returns (out, ctx), where ctx is what the backward pass needs
for that batch, and backward(dout, ctx) returns (dx, grads) with grads
(grad_w, grad_b) for a parameterized layer and None otherwise. A caller
that only wants outputs drops ctx, so inference keeps no activations.
Each ctx holds references or arrays the forward made anyway: conv keeps
its im2col columns, max-pool its input and pooled output (no index
array), relu its mask, fc its flattened input.
Activations are NCHW, but conv keeps its columns channel-major,
(c * k * k, n * oh * ow), so its forward and its input gradient are one
GEMM each over the whole batch. A parameterized layer's
backward(..., input_grad=False) returns dx as None.
The layer set is fixed (conv, max-pool, relu, fully-connected, softmax
loss), which keeps every backward pass independently checkable against
finite differences.
"""

import numpy as np

from .errors import ShapeError


def _im2col(xp, k):
    """(c * k * k, n * oh * ow) columns of every k x k window of `xp`, in one
    copy: channel-major, so one GEMM covers every image of the batch."""
    n, c, hp, wp = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * (hp - k + 1) * (wp - k + 1))


def _col2im(dcols, padded_shape, k):
    """Adjoint of _im2col: adds each column entry back onto its input pixel."""
    n, c, hp, wp = padded_shape
    oh, ow = hp - k + 1, wp - k + 1
    dxp = np.zeros(padded_shape, dtype=dcols.dtype)
    dxp_cn = dxp.transpose(1, 0, 2, 3)  # a (c, n, hp, wp) view, so the slices line up
    dcols = dcols.reshape(c, k, k, n, oh, ow)
    for i in range(k):
        for j in range(k):
            dxp_cn[:, :, i : i + oh, j : j + ow] += dcols[:, i, j]
    return dxp


class Conv2d:
    """2-d convolution over every kernel x kernel window of the padded input;
    weights are (out_channels, in_channels, kernel, kernel)."""

    has_params = True

    def __init__(self, name, in_channels, out_channels, kernel, pad=0,
                 init_std=0.01, dtype=np.float32, rng=None):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = pad
        rng = rng or np.random.default_rng(0)
        self.weights = (init_std * rng.standard_normal(
            (out_channels, in_channels, kernel, kernel))).astype(dtype)
        self.biases = np.zeros(out_channels, dtype=dtype)

    def out_hw(self, h, w):
        k, p = self.kernel, self.pad
        return h + 2 * p - k + 1, w + 2 * p - k + 1

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        p = self.pad
        oh, ow = self.out_hw(h, w)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        cols = _im2col(xp, self.kernel)
        out = self.weights.reshape(self.out_channels, -1) @ cols
        out += self.biases[:, None]
        out = out.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(out), (cols, x.shape)

    def backward(self, dout, ctx, input_grad=True):
        """(dx, (grad_w, grad_b)); dx is None when `input_grad` is false."""
        cols, (n, c, h, w) = ctx
        p, o = self.pad, self.out_channels
        d2 = dout.reshape(n, o, -1)
        # per-image GEMMs summed in image order: one GEMM over n * oh * ow
        # would reorder the float sums
        per_image = cols.reshape(len(cols), n, -1).transpose(1, 2, 0)
        grad_w = np.matmul(d2, per_image).sum(axis=0).reshape(self.weights.shape)
        grad_b = d2.sum(axis=(0, 2))
        if not input_grad:
            return None, (grad_w, grad_b)
        dcols = self.weights.reshape(o, -1).T @ d2.transpose(1, 0, 2).reshape(o, -1)
        dxp = _col2im(dcols, (n, c, h + 2 * p, w + 2 * p), self.kernel)
        return (dxp[:, :, p : p + h, p : p + w] if p else dxp), (grad_w, grad_b)


class MaxPool2d:
    """Max pooling over non-overlapping s x s windows; spatial dims must divide.

    Each output is the first maximum of its window in row-major order: a
    window holding a NaN pools to NaN (NaN counts as the maximum), and on a
    -0/+0 tie the earlier zero wins. The window is never materialized: the
    forward folds the s * s strided views x[:, :, i::s, j::s] into a copy of
    the first with np.maximum(view, acc). The argument order matters there:
    on a -0/+0 tie numpy (2.4) returns the second argument, the running max,
    so the earlier zero stays; np.maximum(acc, view) would let the later one
    win. tests/test_layers.py pins this against numpy's first-maximum index
    on every window over {-1, -0, +0, 1, NaN}. The context is the input
    and the pooled output, no index array; backward sends each gradient to
    the first view position equal to the max (the first NaN in a NaN
    window), so a tie routes to the first maximum.
    """

    has_params = False

    def __init__(self, window):
        self.window = window

    def _views(self, a):
        s = self.window
        return [a[:, :, i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x):
        n, c, h, w = x.shape
        s = self.window
        if h % s or w % s:
            raise ShapeError(f"pool window {s} does not divide input {h}x{w}")
        first, *rest = self._views(x)
        out = first.copy()
        for view in rest:
            np.maximum(view, out, out=out)
        return out, (x, out)

    def backward(self, dout, ctx):
        x, out = ctx
        dx = np.zeros(x.shape, dtype=dout.dtype)
        zero = dout.dtype.type(0)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for view, dview in zip(self._views(x), self._views(dx)):
            hit = view == out
            hit &= free
            free ^= hit
            dview[...] = np.where(hit, dout, zero)
        if free.any():  # only a NaN window has no position equal to its max
            for view, dview in zip(self._views(x), self._views(dx)):
                hit = free & np.isnan(view)
                free ^= hit
                np.copyto(dview, dout, where=hit)
        return dx, None


class ReLU:
    has_params = False

    def forward(self, x):
        mask = x > 0
        return np.where(mask, x, x.dtype.type(0)), mask

    def backward(self, dout, mask):
        return np.where(mask, dout, dout.dtype.type(0)), None


class Linear:
    """Fully-connected layer; flattens any trailing input dimensions."""

    has_params = True

    def __init__(self, name, in_features, out_features, init_std=0.01,
                 dtype=np.float32, rng=None):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.weights = (init_std * rng.standard_normal((out_features, in_features))).astype(dtype)
        self.biases = np.zeros(out_features, dtype=dtype)

    def forward(self, x):
        x2d = x.reshape(len(x), -1)
        if x2d.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected {self.in_features} input features, got {x2d.shape[1]}"
            )
        return x2d @ self.weights.T + self.biases, (x2d, x.shape)

    def backward(self, dout, ctx, input_grad=True):
        x2d, x_shape = ctx
        dx = (dout @ self.weights).reshape(x_shape) if input_grad else None
        return dx, (dout.T @ x2d, dout.sum(axis=0))


class SoftmaxCrossEntropy:
    """Softmax over class scores with mean cross-entropy loss.

    forward() returns the probability rows, which are also the whole
    backward context: loss() and backward() take them with a label vector.
    """

    def forward(self, scores):
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def loss(self, probs, labels) -> float:
        p = probs[np.arange(len(labels)), labels]
        return float(-np.mean(np.log(np.maximum(p, np.finfo(np.float64).tiny))))

    def backward(self, probs, labels):
        n = len(labels)
        d = probs.copy()
        d[np.arange(n), labels] -= 1
        return d / probs.dtype.type(n)
