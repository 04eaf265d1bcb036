"""Network container, reference topologies, and parameter bookkeeping.

A Network owns an ordered layer list ending in a softmax loss head.
forward() retains per-layer activations so backward() can produce
gradients for every weight and bias; backward before forward is an
error. Networks are single-writer: training mutates one exclusively,
while inference on an unmutated network is safe to share.
"""

import copy
import logging

import numpy as np

from .errors import ShapeError
from .layers import Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from .seeding import rng_for

log = logging.getLogger(__name__)


class Network:
    def __init__(self, layers, loss, topology="custom", input_shape=None, class_count=10):
        self.layers = list(layers)
        self.loss_layer = loss
        self.topology = topology
        self.input_shape = tuple(input_shape) if input_shape else None
        self.class_count = class_count
        self._forward_done = False

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

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the batch through every layer; returns softmax probabilities."""
        if self.input_shape and tuple(batch.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"batch shape {tuple(batch.shape[1:])} does not match "
                f"network input {self.input_shape}"
            )
        x = np.ascontiguousarray(batch, dtype=self.dtype)
        for layer in self.layers:
            x = layer.forward(x)
        probs = self.loss_layer.forward(x)
        self._forward_done = True
        return probs

    def loss(self, labels) -> float:
        if not self._forward_done:
            raise RuntimeError("loss() requires a prior forward() on the same batch")
        return self.loss_layer.loss(labels)

    def backward(self, labels):
        """Gradients of the mean softmax cross-entropy loss.

        Returns {layer_name: (grad_weights, grad_biases)} for every
        parameterized layer.
        """
        if not self._forward_done:
            raise RuntimeError("backward() requires a prior forward() on the same batch")
        d = self.loss_layer.backward(labels)
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return {l.name: (l.grad_weights, l.grad_biases) for l in self.param_layers()}

    def predict_probs(self, images: np.ndarray, batch_size: int = 200) -> np.ndarray:
        """Probabilities for a full image array, evaluated in batches."""
        chunks = [
            self.forward(images[i : i + batch_size]) for i in range(0, len(images), batch_size)
        ]
        return np.concatenate(chunks)

    def clone(self) -> "Network":
        """Deep copy of the network with activation caches dropped."""
        for layer in self.layers:
            layer.clear_cache()
        self.loss_layer.clear_cache()
        self._forward_done = False
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
    net = Network(layers, SoftmaxCrossEntropy(), "lenet_small", (1, 28, 28), 10)
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
    net = Network(layers, SoftmaxCrossEntropy(), "cifar_quick", (3, 32, 32), 10)
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
