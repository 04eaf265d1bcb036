"""Greedy layer-wise sparsification, then a budgeted bagged ensemble.

Uses a small conv net so the whole demo runs in a few minutes. The
greedy search repeatedly cuts 20% of the nonzeros from whichever layer
hurts validation accuracy least; the resulting candidate log then serves
as the plan source for ensembles trained under a fixed total-nonzero
budget.
"""

import numpy as np

from sparsenet.datasets import split_validation, subtract_mean
from sparsenet.layers import Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from sparsenet.net import Network
from sparsenet.protocols import ensemble_accuracy, greedy_sparsify, train_ensemble
from sparsenet.regularizers import RegSpec
from sparsenet.seeding import rng_for
from sparsenet.synthetic import make_synthetic_pair
from sparsenet.training import TrainConfig, evaluate_accuracy, train


def build_net(seed):
    rng = rng_for(seed, "demo-net")
    layers = [
        Conv2d("conv1", 3, 16, 5, pad=2, init_std=0.16, rng=rng),
        MaxPool2d(2),
        ReLU(),
        Conv2d("conv2", 16, 32, 5, pad=2, init_std=0.07, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Linear("fc1", 32 * 4 * 4, 32, init_std=0.06, rng=rng),
        ReLU(),
        Linear("fc2", 32, 10, init_std=0.18, rng=rng),
    ]
    return Network(layers, SoftmaxCrossEntropy(), "demo16", (3, 16, 16))


train_d, test_d = make_synthetic_pair(3000, 800, shape=(3, 16, 16), noise=2.6,
                                      max_shift=2, seed=300)
train_d, test_d = subtract_mean(train_d, test_d)
train_part, val_part = split_validation(train_d, seed=4)

base = build_net(seed=1)
print(f"dense model: {base.param_count()} parameters")
cfg = TrainConfig(batch_size=32, learning_rate=0.02, momentum=0.9, lr_decay=0.5,
                  lr_step=300, max_iterations=700, eval_interval=700, eval_max=400, seed=2)
base, _ = train(base, train_part, cfg,
                reg_specs={l.name: RegSpec(kind="l2_decay", strength=1e-4)
                           for l in base.param_layers()})
print(f"dense val acc {evaluate_accuracy(base, val_part):.3f}, "
      f"test acc {evaluate_accuracy(base, test_d):.3f}")

budget = base.param_count()
cand_cfg = TrainConfig(batch_size=32, learning_rate=0.005, momentum=0.9,
                       max_iterations=100, eval_interval=100, eval_max=400, seed=3)
print("\ngreedy search down to 18% of the dense nonzeros...")
sparse_net, plan, log = greedy_sparsify(base, train_part, val_part,
                                        int(0.18 * budget), cand_cfg,
                                        projection_period=25, test_data=test_d)
dense_sizes = {l.name: l.weights.size for l in base.param_layers()}
for rec in log:
    if rec.adopted and rec.round:
        print(f"  round {rec.round:2d}: cut {rec.layer_reduced:6s} "
              f"-> total nnz {rec.total_nnz:6d}, val acc {rec.val_acc:.3f}")
print("final nnz ratios:",
      {k: round(v / dense_sizes[k], 2) for k, v in plan.caps.items()})

print("\nbagged ensembles under the dense budget:")
ens_cfg = TrainConfig(batch_size=32, learning_rate=0.02, momentum=0.9, lr_decay=0.5,
                      lr_step=300, max_iterations=700, eval_interval=700,
                      eval_max=400, seed=7)
for n in (1, 2, 5):
    ensemble = train_ensemble(n, budget, log, train_part, ens_cfg, build_net)
    print(f"  n={n}: per-member nnz <= {budget // n:6d}, total {ensemble.total_nnz():6d}, "
          f"test acc {ensemble_accuracy(ensemble, test_d):.3f}")
