"""Byte-for-byte pins of the CLI's reproducible artifacts.

Runs `train`, `sparsify-greedy` and `threshold-compare` on small generated
configs that exercise every regularizer kind (biases included) and compares
the sha256 of each artifact with a pinned value. A refactor that claims
"same bytes" must leave these hashes alone.

Float results depend on the numpy and BLAS builds, so the hashes hold only
for the stack they were captured under; on any other stack the tests skip.
"""

import hashlib

import numpy as np
import pytest

from sparsenet.cli import main

# the stack the hashes below were captured under
CAPTURED_NUMPY = "2.4.6"
CAPTURED_BLAS = "0.3.31"  # OpenBLAS

TRAIN_CFG = """
dataset = synthetic_mnist
topology = lenet_small
seed = 3
synthetic_train_n = 300
synthetic_test_n = 100
batch_size = 20
learning_rate = 0.1
max_iterations = 30
eval_interval = 7
eval_max = 100
checkpoint_encoding = best

[layer:conv1]
kind = l1_subgradient
lambda = 0.001
biases = true

[layer:conv2]
kind = l2_decay
lambda = 0.0005
biases = true

[layer:fc1]
kind = l0_projection
t = 20000
period = 4
stages = 10:10000,20:5000
biases = true

[layer:fc2]
kind = l1_shrinkage
lambda = 0.001
biases = true
"""

PROTOCOL_CFG = """
dataset = synthetic_mnist
topology = lenet_small
seed = 3
synthetic_train_n = 300
synthetic_test_n = 100
batch_size = 20
learning_rate = 0.1
max_iterations = 10
eval_interval = 5
eval_max = 100
weight_decay = 0.0005
checkpoint_encoding = best
target_nnz = 429100
candidate_iterations = 6
retrain_iterations = 6
threshold_grid = 0.005,0.02

[layer:fc2]
kind = threshold_posthoc
lambda = 0.005
biases = true
"""

GOLDEN = {
    "train": {
        "config.resolved": "936bff38d494ce5d7a84b3e6f5989afc75c1430cc6738df146b5ccf04768d5f3",
        "manifest.txt": "7012d9ac4ad67c73011a66a1eed790a1c33fa5dc9275cf3ec2ecd52e2a1b536b",
        "metrics.csv": "67f90861eec113f796fe9f1f3cd27b393207a6c882196995e45c67191947bc44",
        "model.ckpt": "99dc4e38482fdfba9d8e738a939f0e489211e3f6c8c67cddc3cb37dd666edcba",
    },
    "sparsify-greedy": {
        "candidates.csv": "d0cf879820ddb675fe877e3059a30f167348c51e7cfce0ba1482edc86b20deb5",
        "config.resolved": "ead5ae63270265e610740374de4b21299169b1e85b1a901780971c25c208db72",
        "manifest.txt": "92eed403d8fc2cda5e6c7784e19b27d7ec83e32fb1d3f5595d6d32e8f3eb999c",
        "sparse.ckpt": "cd74fd10edbb6687b4925b6d771b420c3f7b7ffabeb54f9c2d8c42a8c35e454c",
    },
    "threshold-compare": {
        "config.resolved": "ead5ae63270265e610740374de4b21299169b1e85b1a901780971c25c208db72",
        "manifest.txt": "77b8d61f7a9087c882c755d72d8cd333f45437acc7863e2c5f74031094e039da",
        "threshold_compare.csv": "33d77489c419583ca7334d020890103be0ff3ca5bb6db653014eea05f8de7986",
    },
}


def _stack_mismatch() -> str:
    """Why the hashes cannot hold on this stack, or "" when they should."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "")
    if np.__version__ == CAPTURED_NUMPY and blas.startswith(CAPTURED_BLAS):
        return ""
    return (f"golden hashes were captured under numpy {CAPTURED_NUMPY} / OpenBLAS "
            f"{CAPTURED_BLAS}; this stack is numpy {np.__version__} / BLAS {blas or '?'}")


def artifact_hashes(tmp_path, command, cfg_text):
    """Run one CLI command and return {artifact file name: sha256}."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.skipif(bool(_stack_mismatch()), reason=_stack_mismatch())
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_artifacts_byte_identical(tmp_path, command):
    cfg_text = TRAIN_CFG if command == "train" else PROTOCOL_CFG
    assert artifact_hashes(tmp_path, command, cfg_text) == GOLDEN[command]
