"""Drive the command-line interface end to end.

Generates a dataset, writes it in the CIFAR binary batch format, writes
a config file, then runs train / eval / memory-report through the CLI
exactly as a shell user would. Everything lives in a temporary directory
that is removed when the demo ends, whether or not a command failed.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from sparsenet.datasets import write_cifar_batch
from sparsenet.synthetic import as_uint8, make_synthetic_pair


def cli(*args):
    cmd = [sys.executable, "-m", "sparsenet.cli", *map(str, args)]
    print("\n$", " ".join(cmd[2:]))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="")
        raise SystemExit(proc.returncode)


with tempfile.TemporaryDirectory(prefix="sparsenet-demo-") as tmp:
    work = Path(tmp)
    print("working under", work)

    train_d, test_d = make_synthetic_pair(1200, 300, shape=(3, 32, 32), noise=4.0, seed=42)
    write_cifar_batch(work / "train.bin", as_uint8(train_d), train_d.labels)
    write_cifar_batch(work / "test.bin", as_uint8(test_d), test_d.labels)

    config = f"""
dataset = cifar10
train_batches = {work / 'train.bin'}
test_batches = {work / 'test.bin'}
topology = cifar_quick
batch_size = 32
learning_rate = 0.02
momentum = 0.9
max_iterations = 200
eval_interval = 100
seed = 1
checkpoint_encoding = best

[layer:fc1]
kind = l0_projection
t = 6000
period = 50
"""
    cfg_path = work / "run.cfg"
    cfg_path.write_text(config)

    cli("train", "--config", cfg_path, "--out", work / "run")
    # eval reads the checkpoint path from the config; global keys precede layer sections
    cfg_path.write_text(f"checkpoint = {work / 'run' / 'model.ckpt'}\n" + config)
    cli("eval", "--config", cfg_path, "--out", work / "eval")
    cli("memory-report", "--config", cfg_path, "--out", work / "mem", "--kb")

    print("\nartifacts:")
    for p in sorted((work / "run").iterdir()):
        print(" ", p.name, p.stat().st_size, "bytes")
