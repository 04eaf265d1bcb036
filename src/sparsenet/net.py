"""Network container, reference topologies, and parameter bookkeeping.

A Network owns an ordered layer list ending in a softmax loss head.
Layers hold no activations: forward() keeps the backward contexts of one
batch and backward() consumes them, so each backward needs a fresh
forward; predict_probs() keeps none. Networks are single-writer: training
mutates one exclusively, while predict_probs on an unmutated network is
safe to share.

backward() does not build the first layer's input gradient, which
nothing reads.

Every conv pass, in training too, builds its im2col columns in blocks
of Conv2d.block() images, at most layers.COLUMN_BYTES of columns unless
one image alone is more: a batch keeps its activations and each conv's
padded input, never its columns.

predict_probs() bounds its whole working set. The layers before the
first Linear (conv, pool, relu) act on each image alone. They run on
blocks of B = predict_block() images, the smallest block() of their
convs. Their outputs must be the same bytes whatever the number of
images in the call. A conv is one GEMM per block, over n * oh * ow
columns, so this holds only where the BLAS sums each output in the same
order at any column count. That is a property of the BLAS kernels for
each GEMM shape, pinned for every topology conv on the stack that runs
the suite: tests/test_layers.py (TestConvByteOracle: 1, 7 and 50 images,
in blocks of 1, 3 and the budget's, against one GEMM per image) and
tests/test_network.py (TestBoundedPredict: predict_probs at every block
size against forward() on whole chunks). A Linear's GEMM is not
bit-stable across its row count, so the block outputs are concatenated
back into chunks of PREDICT_CHUNK rows (the last one partial) and the
Linear layers and the softmax run on those chunks.
The output is then byte for byte that of forward() on each chunk.
"""

import copy
import logging

import numpy as np

from .errors import ShapeError
from .layers import Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from .seeding import rng_for

log = logging.getLogger(__name__)

# rows per predict_probs chunk: the row count every Linear layer sees
PREDICT_CHUNK = 200


class Network:
    def __init__(self, layers, loss, topology, input_shape):
        self.layers = list(layers)
        self.loss_layer = loss
        self.topology = topology
        self.input_shape = tuple(input_shape)
        self._trace = None  # (probs, per-layer contexts) of the last forward()

    def param_layers(self):
        return [l for l in self.layers if l.has_params]

    def layer(self, name):
        for l in self.param_layers():
            if l.name == name:
                return l
        raise KeyError(f"no parameterized layer named {name!r}")

    @property
    def dtype(self):
        return self.param_layers()[0].weights.dtype

    def param_count(self) -> int:
        return sum(l.weights.size + l.biases.size for l in self.param_layers())

    def layer_nnz(self) -> dict:
        """{layer name: nonzero weights + nonzero biases}, in layer order."""
        return {
            l.name: int(np.count_nonzero(l.weights)) + int(np.count_nonzero(l.biases))
            for l in self.param_layers()
        }

    def nnz(self) -> int:
        return sum(self.layer_nnz().values())

    def _check_input(self, batch: np.ndarray):
        if tuple(batch.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"batch shape {tuple(batch.shape[1:])} does not match "
                f"network input {self.input_shape}"
            )

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the batch through every layer; returns softmax probabilities
        and keeps what one loss()/backward() on this batch needs."""
        self._check_input(batch)
        x = np.ascontiguousarray(batch, dtype=self.dtype)
        ctxs = []
        for layer in self.layers:
            x, ctx = layer.forward(x)
            ctxs.append(ctx)
        self._trace = self.loss_layer.forward(x), ctxs
        return self._trace[0]

    def loss(self, labels) -> float:
        if self._trace is None:
            raise RuntimeError("loss() requires a prior forward() on the same batch")
        return self.loss_layer.loss(self._trace[0], labels)

    def backward(self, labels):
        """Gradients of the mean softmax cross-entropy loss; consumes the
        last forward(), releasing each layer's context once it is used.

        Returns {layer_name: (grad_w, grad_b)} for every parameterized
        layer, in layer order.
        """
        if self._trace is None:
            raise RuntimeError("backward() requires a prior forward() on the same batch")
        (probs, ctxs), self._trace = self._trace, None
        d = self.loss_layer.backward(probs, labels)
        first, *rest = self.layers
        grads = []
        for layer in reversed(rest):
            d, g = layer.backward(d, ctxs.pop())
            if g is not None:
                grads.append((layer.name, g))
        if first.has_params:  # nothing reads the gradient of the input batch
            grads.append((first.name, first.backward(d, ctxs.pop(), input_grad=False)[1]))
        return dict(reversed(grads))

    def _split(self) -> int:
        """Index of the first Linear: the layers before it act per image."""
        return next((i for i, l in enumerate(self.layers) if isinstance(l, Linear)),
                    len(self.layers))

    def predict_block(self) -> int:
        """Images per block of the per-image layers in predict_probs: the
        smallest Conv2d.block() among them, walked from the layer shapes."""
        _, h, w = self.input_shape
        blocks = []
        for layer in self.layers[: self._split()]:
            if isinstance(layer, Conv2d):
                blocks.append(layer.block(h, w, self.dtype.itemsize))
                h, w = layer.out_hw(h, w)
            elif isinstance(layer, MaxPool2d):
                h, w = h // layer.window, w // layer.window
        return min(blocks, default=PREDICT_CHUNK)  # no conv: one block per chunk

    def predict_probs(self, images: np.ndarray) -> np.ndarray:
        """Probabilities for a full image array, without keeping any
        backward context: the per-image layers run in blocks of
        predict_block() images, the rest on chunks of PREDICT_CHUNK rows
        (see the module docstring)."""
        self._check_input(images)
        if not len(images):  # one column per output of the last layer: the classes
            return np.empty((0, self.param_layers()[-1].biases.size), self.dtype)
        split, block = self._split(), self.predict_block()
        per_image, head = self.layers[:split], self.layers[split:]

        def run(layers, x):
            for layer in layers:
                x = layer.forward(x)[0]  # the context is dropped here
            return x

        chunks = []
        for i in range(0, len(images), PREDICT_CHUNK):
            chunk = images[i : i + PREDICT_CHUNK]
            features = np.concatenate([
                run(per_image, np.ascontiguousarray(chunk[j : j + block], dtype=self.dtype))
                for j in range(0, len(chunk), block)])
            chunks.append(self.loss_layer.forward(run(head, features)))
        return np.concatenate(chunks)

    def clone(self) -> "Network":
        return copy.deepcopy(self)


def _log_param_counts(net: Network):
    for l in net.param_layers():
        log.info(
            "%s/%s: weights %s + biases %s = %d params",
            net.topology, l.name, l.weights.shape, l.biases.shape,
            l.weights.size + l.biases.size,
        )
    log.info("%s total parameters: %d", net.topology, net.param_count())


def build_lenet_small(seed: int = 0, dtype=np.float32, conv_std=0.01, fc_std=0.01) -> Network:
    """Digit-scale net for (1, 28, 28) inputs: two conv-pool pairs, two fc.

    conv1 1->20 5x5, pool2, conv2 20->50 5x5, pool2, fc1 800->500 (relu),
    fc2 500->10. 431,080 parameters, dominated by fc1.
    """
    rng = rng_for(seed, "init", "lenet_small")
    layers = [
        Conv2d("conv1", 1, 20, 5, init_std=conv_std, dtype=dtype, rng=rng),
        MaxPool2d(2),
        Conv2d("conv2", 20, 50, 5, init_std=conv_std, dtype=dtype, rng=rng),
        MaxPool2d(2),
        Linear("fc1", 50 * 4 * 4, 500, init_std=fc_std, dtype=dtype, rng=rng),
        ReLU(),
        Linear("fc2", 500, 10, init_std=fc_std, dtype=dtype, rng=rng),
    ]
    net = Network(layers, SoftmaxCrossEntropy(), "lenet_small", (1, 28, 28))
    _log_param_counts(net)
    return net


def build_cifar_quick(seed: int = 0, dtype=np.float32, conv1_std=0.01,
                      conv_std=0.01, fc_std=0.01) -> Network:
    """Small-image net for (3, 32, 32) inputs: three conv-pool stages, two fc.

    conv1 3->32 5x5 pad2, conv2 32->32 5x5 pad2, conv3 32->64 5x5 pad2, each
    followed by relu and 2x2 max pool; fc1 1024->64, fc2 64->10.
    145,578 parameters. Init std defaults suit inputs scaled to [0, 1];
    the classic 1e-4 first-conv init assumes raw pixel magnitudes.
    """
    rng = rng_for(seed, "init", "cifar_quick")
    layers = [
        Conv2d("conv1", 3, 32, 5, pad=2, init_std=conv1_std, dtype=dtype, rng=rng),
        MaxPool2d(2),
        ReLU(),
        Conv2d("conv2", 32, 32, 5, pad=2, init_std=conv_std, dtype=dtype, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d("conv3", 32, 64, 5, pad=2, init_std=conv_std, dtype=dtype, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Linear("fc1", 64 * 4 * 4, 64, init_std=fc_std, dtype=dtype, rng=rng),
        Linear("fc2", 64, 10, init_std=fc_std, dtype=dtype, rng=rng),
    ]
    net = Network(layers, SoftmaxCrossEntropy(), "cifar_quick", (3, 32, 32))
    _log_param_counts(net)
    return net


TOPOLOGIES = {
    "lenet_small": build_lenet_small,
    "cifar_quick": build_cifar_quick,
}


def build_topology(name: str, seed: int = 0, dtype=np.float32) -> Network:
    if name not in TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r}; known: {sorted(TOPOLOGIES)}")
    return TOPOLOGIES[name](seed=seed, dtype=dtype)
