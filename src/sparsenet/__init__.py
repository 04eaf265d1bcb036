"""Sparsity-regularized CNN training at desk scale.

A small numpy stack: explicit-backward conv nets, per-layer sparsity
updates (l1 subgradient, l1 shrinkage, periodic l0 projection), the
experiment protocols built on them (thresholding baselines, greedy
layer-wise nonzero allocation, budgeted bagged ensembles, reduced-data
sweeps), and an exact sparse-storage memory model.
"""

__version__ = "0.1.0"

from .datasets import (
    Dataset,
    bag_resample,
    load_cifar10,
    load_mnist,
    split_validation,
    subsample,
    subtract_mean,
)
from .memory import MemoryReport, report
from .net import Network, build_cifar_quick, build_lenet_small, build_topology
from .protocols import (
    EnsembleModel,
    SparsityPlan,
    data_starvation_sweep,
    ensemble_predict,
    greedy_sparsify,
    threshold_compare,
    train_ensemble,
)
from .regularizers import (
    RegSpec,
    apply_regularization,
    l0_project,
    l1_shrinkage_update,
    l1_subgradient_update,
    threshold,
)
from .training import TrainConfig, evaluate_accuracy, train
