import numpy as np
import pytest

from sparsenet.layers import Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from sparsenet.net import Network
from sparsenet.seeding import rng_for
from sparsenet.synthetic import make_image_classes, make_synthetic_pair


def small_net(seed=0, dtype=np.float32, classes=4):
    """conv(1->4) + fc net on (1, 8, 8) inputs; fast enough for training tests."""
    rng = rng_for(seed, "small-net")
    layers = [
        Conv2d("conv1", 1, 4, 3, pad=1, init_std=0.1, dtype=dtype, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Linear("fc1", 4 * 4 * 4, classes, init_std=0.1, dtype=dtype, rng=rng),
    ]
    return Network(layers, SoftmaxCrossEntropy(), "small", (1, 8, 8))


def small_data(n=120, seed=0, classes=4, noise=0.3):
    return make_image_classes(n, shape=(1, 8, 8), class_count=classes, noise=noise,
                              max_shift=1, seed=seed)


@pytest.fixture
def small_pair():
    from sparsenet.datasets import subtract_mean

    train, test = make_synthetic_pair(160, 60, shape=(1, 8, 8), class_count=4,
                                      noise=0.3, max_shift=1, seed=5)
    return subtract_mean(train, test)
