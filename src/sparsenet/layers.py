"""Network layers with explicit forward and backward passes.

No autodiff, and no state beyond hyperparameters, weights and biases:
forward(x) returns (out, ctx), where ctx is what the backward pass needs
for that batch, and backward(dout, ctx) returns (dx, grads) with grads
(grad_w, grad_b) for a parameterized layer and None otherwise. A caller
that only wants outputs drops ctx, so inference keeps no activations.
Each ctx holds references or arrays the forward made anyway: conv keeps
its padded input (the input itself when unpadded), max-pool its input
and pooled output (no index array), relu its mask, fc its flattened
input.
Activations are NCHW, but conv builds its columns channel-major,
(c * k * k, n * oh * ow), in blocks of images: its forward and its
input gradient are one GEMM each per block, and no im2col buffer is
larger than COLUMN_BYTES unless one image's is (the input gradient's
row-padded columns are wp / ow times that). A parameterized layer's
backward(..., input_grad=False) returns dx as None.
The layer set is fixed (conv, max-pool, relu, fully-connected, softmax
loss), which keeps every backward pass independently checkable against
finite differences.
"""

import numpy as np

from .errors import ShapeError

# bytes of the largest im2col column buffer one conv pass builds: each
# pass runs on blocks of images sized to it (Conv2d.block)
COLUMN_BYTES = 16 * 2**20


def _im2col(xp, k):
    """(c * k * k, n * oh * ow) columns of every k x k window of `xp`, in one
    copy: channel-major, so one GEMM covers every image of the block."""
    n, c, hp, wp = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * (hp - k + 1) * (wp - k + 1))


def _col2im(dcols, padded_shape, k):
    """Adjoint of _im2col on row-padded columns: `dcols` is
    (c * k * k, n * oh * wp), each output row padded from ow to wp entries
    with zeros. Tap (i, j) is then one contiguous add over a flat
    (c, n, hp * wp) view at offset i * wp + j, in (i, j) order; a
    pad entry lands on a pixel of the next row as a +-0 term, which leaves
    every sum unchanged (the sums start at +0, so none is ever -0)."""
    n, c, hp, wp = padded_shape
    span = (hp - k + 1) * wp
    dxp = np.zeros(padded_shape, dtype=dcols.dtype)
    flat = dxp.transpose(1, 0, 2, 3).reshape(c, n, hp * wp)  # a view, so the taps line up
    dcols = dcols.reshape(c, k, k, n, span)
    for i in range(k):
        for j in range(k):
            # the last j entries of a tap are pad entries past the end
            flat[:, :, i * wp + j : i * wp + span] += dcols[:, i, j, :, : span - j]
    return dxp


class Conv2d:
    """2-d convolution over every kernel x kernel window of the padded input;
    weights are (out_channels, in_channels, kernel, kernel).

    Every pass runs on blocks of block() images, so no im2col buffer
    exceeds COLUMN_BYTES unless one image alone does. The context is the
    padded input; the backward rebuilds each block's columns.
    """

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

    def block(self, h, w, itemsize):
        """Images per block on h x w inputs: COLUMN_BYTES over the im2col
        bytes of one image, and at least one."""
        oh, ow = self.out_hw(h, w)
        return max(1, COLUMN_BYTES // (self.in_channels * self.kernel**2 * oh * ow * itemsize))

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        p, o = self.pad, self.out_channels
        oh, ow = self.out_hw(h, w)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        w2d = self.weights.reshape(o, -1)
        out = np.empty((n, o, oh, ow), dtype=np.result_type(x, self.weights))
        step = self.block(h, w, x.itemsize)
        for b in range(0, n, step):
            part = w2d @ _im2col(xp[b : b + step], self.kernel)
            part += self.biases[:, None]
            out[b : b + step] = part.reshape(o, -1, oh, ow).transpose(1, 0, 2, 3)
        return out, xp

    def backward(self, dout, xp, input_grad=True):
        """(dx, (grad_w, grad_b)); dx is None when `input_grad` is false."""
        n, c, hp, wp = xp.shape
        p, o, k = self.pad, self.out_channels, self.kernel
        h, w = hp - 2 * p, wp - 2 * p
        oh, ow = self.out_hw(h, w)
        w2d = self.weights.reshape(o, -1)
        d2 = dout.reshape(n, o, -1)
        grad_b = d2.sum(axis=(0, 2))
        dx = np.empty((n, c, h, w), dtype=np.result_type(w2d, dout)) if input_grad else None
        # a non-finite weight times a zero pad entry of dout is NaN, not 0
        clear_pad = input_grad and not np.isfinite(w2d).all()
        step = self.block(h, w, xp.itemsize)
        grad_w = None
        for b in range(0, n, step):
            m = min(step, n - b)
            cols = _im2col(xp[b : b + m], k)
            # one GEMM per image, summed in image order onto the running
            # total: g.sum(axis=0) is numpy's left fold over the images
            g = np.matmul(d2[b : b + m], cols.reshape(len(cols), m, -1).transpose(1, 2, 0))
            if grad_w is not None:
                g[0] += grad_w
            grad_w = g.sum(axis=0)
            del cols, g  # freed before the input-gradient GEMM and the next block
            if not input_grad:
                continue
            d_cm = np.zeros((o, m, oh, wp), dtype=dout.dtype)
            d_cm[..., :ow] = dout[b : b + m].transpose(1, 0, 2, 3)
            dcols = w2d.T @ d_cm.reshape(o, -1)
            if clear_pad:
                dcols.reshape(-1, wp)[:, ow:] = 0
            dx[b : b + m] = _col2im(dcols, (m, c, hp, wp), k)[:, :, p : p + h, p : p + w]
            del d_cm, dcols
        return dx, (grad_w.reshape(self.weights.shape), grad_b)


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
