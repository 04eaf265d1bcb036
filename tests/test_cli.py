from pathlib import Path

import numpy as np
import pytest

from sparsenet import cli
from sparsenet.checkpoint import encode_checkpoint, save_checkpoint
from sparsenet.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, main
from sparsenet.config import DATASETS
from sparsenet.datasets import write_cifar_batch, write_idx_images, write_idx_labels
from sparsenet.net import build_topology
from sparsenet.synthetic import as_uint8, make_synthetic_pair

BASE = """
dataset = synthetic_mnist
topology = lenet_small
synthetic_train_n = 120
synthetic_test_n = 40
synthetic_noise = 0.4
batch_size = 20
learning_rate = 0.1
momentum = 0.9
max_iterations = 30
eval_interval = 15
eval_max = 120
seed = 3
"""


# the keys each command needs, so that a test's fault is the only one
REQUIRED = {
    "train": "",
    "eval": "checkpoint = missing.ckpt\n",
    "memory-report": "",
    "sparsify-greedy": "target_nnz = 200000\n",
    "threshold-compare": "threshold_grid = 0.02\n",
    "ensemble": "plan_log = missing.csv\n",
    "data-sweep": "fractions = 1.0\n",
}

PLAN_HEADER = ("round,layer_reduced,conv1_nnz,conv2_nnz,fc1_nnz,fc2_nnz,"
               "total_nnz,val_acc,test_acc,memory_bytes,adopted\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run(args):
    return main([str(a) for a in args])


class TestBasicCommands:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        assert (out / "model.ckpt").exists()
        assert (out / "metrics.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "config_sha256 = " in manifest
        assert "seed = 3" in manifest
        assert "version = sparsenet-" in manifest
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("test_accuracy=")
        float(line.split("=", 1)[1])

    def test_eval_prints_single_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        run(["train", "--config", cfg, "--out", out])
        capsys.readouterr()
        cfg2 = write_cfg(tmp_path, BASE + f"checkpoint = {out / 'model.ckpt'}\n", "eval.cfg")
        assert run(["eval", "--config", cfg2, "--out", tmp_path / "out2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("test_accuracy=")

    def test_memory_report_fresh_net_all_dense(self, tmp_path, capsys):
        # cifar_quick's zero-init biases are too few per layer to make any
        # sparse encoding pay off, so a fresh net reports dense everywhere;
        # memory-report reads no data, so a dataset the net cannot take is fine
        cfg = write_cfg(tmp_path, "dataset = synthetic_mnist\ntopology = cifar_quick\n")
        assert run(["memory-report", "--config", cfg, "--out", tmp_path / "m", "--mb"]) == 0
        tail = capsys.readouterr().out
        assert "dense" in tail and "MB" in tail
        csv = (tmp_path / "m" / "memory.csv").read_text()
        body = [ln for ln in csv.strip().splitlines()[1:] if not ln.startswith("TOTAL")]
        assert all(ln.split(",")[6] == "dense" for ln in body)

    def test_train_determinism_bit_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", cfg, "--out", out1]) == 0
        assert run(["train", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()
        assert (out1 / "manifest.txt").read_text() == (out2 / "manifest.txt").read_text()

    def test_manifest_written_after_every_artifact(self, tmp_path, monkeypatch):
        written = []
        real_write = cli.write_atomic

        def record(path, data):
            written.append(Path(path).name)
            real_write(path, data)

        monkeypatch.setattr(cli, "write_atomic", record)
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        listed = [ln.split(" = ", 1)[1] for ln in (out / "manifest.txt").read_text().splitlines()
                  if ln.startswith("artifact = ")]
        assert written[-1] == "manifest.txt"
        assert sorted(listed) == sorted(set(written) - {"manifest.txt", "config.resolved"})
        assert sorted(written) == sorted(p.name for p in out.iterdir())

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["train", "--config", cfg, "--out", out1, "--seed", 9])
        run(["train", "--config", cfg, "--out", out2])
        assert (out1 / "model.ckpt").read_bytes() != (out2 / "model.ckpt").read_bytes()
        assert "seed = 9" in (out1 / "manifest.txt").read_text()


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert run(["train", "--config", tmp_path / "nope.cfg"]) == EXIT_IO

    def test_bad_config_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "definitely_not_a_key = 1\n")
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_unknown_layer_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "[layer:fc9]\nkind = l2_decay\nlambda = 0.1\n")
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", sorted(set(REQUIRED) - {"train"}))
    def test_unknown_layer_rejected_by_every_command(self, tmp_path, command):
        cfg = write_cfg(tmp_path, BASE + REQUIRED[command]
                        + "[layer:fc9]\nkind = l2_decay\nlambda = 0.1\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,jobs", [
        ("train", 2), ("eval", 2), ("memory-report", 2), ("threshold-compare", 2),
        ("ensemble", 2), ("data-sweep", 2), ("sparsify-greedy", 0), ("train", 0),
        ("ensemble", -1),
    ])
    def test_bad_jobs_is_config_error(self, tmp_path, command, jobs):
        cfg = write_cfg(tmp_path, BASE + REQUIRED[command])
        argv = [command, "--config", cfg, "--out", tmp_path / "o", "--jobs", jobs]
        assert run(argv) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("log", [
        "",
        "round,layer_reduced,conv1_nnz,total_nnz\n0,-,500,500\n",
        PLAN_HEADER + "0,-,500\n",
        PLAN_HEADER + "0,-,x,25000,400000,5000,431080,0.5,0.5,100,1\n",
        PLAN_HEADER.replace("fc2_nnz,", "fc2_nnz,fc9_nnz,")
        + "0,-,500,25000,400000,5000,10,431090,0.5,0.5,100,1\n",
        PLAN_HEADER + "0,-,0,25000,400000,5000,430580,0.5,0.5,100,1\n",
        PLAN_HEADER + "0,-,500,25000,400000,99999999,100425080,0.5,0.5,100,1\n",
        PLAN_HEADER.replace("fc2_nnz,", "") + "0,-,500,25000,400000,426080,0.5,0.5,100,1\n",
    ], ids=["empty", "missing_column", "ragged_row", "bad_cell", "unknown_layer", "zero_cap",
            "cap_above_layer_size", "uncapped_layer"])
    def test_malformed_plan_log_is_io_error(self, tmp_path, log):
        (tmp_path / "plan.csv").write_text(log)
        cfg = write_cfg(tmp_path, BASE + f"plan_log = {tmp_path / 'plan.csv'}\n")
        assert run(["ensemble", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO

    def test_corrupt_checkpoint_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        cfg = write_cfg(tmp_path, BASE + f"checkpoint = {bad}\n")
        assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO
        assert not (tmp_path / "o").exists()

    def test_memory_report_corrupt_checkpoint_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        cfg = write_cfg(tmp_path, BASE + f"checkpoint = {bad}\n")
        assert run(["memory-report", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "memory-report", "sparsify-greedy",
                                         "threshold-compare"])
    def test_corrupt_init_checkpoint_is_io_error(self, tmp_path, command):
        bad = tmp_path / "init.ckpt"
        bad.write_bytes(b"garbage")
        cfg = write_cfg(tmp_path, BASE + REQUIRED[command] + f"init_checkpoint = {bad}\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO
        assert not (tmp_path / "o").exists()

    def test_flipped_topology_byte_is_io_error(self, tmp_path):
        raw = bytearray(encode_checkpoint(build_topology("lenet_small"), "dense"))
        raw[9] ^= 0x80  # first byte of the topology name: no longer utf-8
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        cfg = write_cfg(tmp_path, BASE + f"checkpoint = {bad}\n")
        assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO
        assert not (tmp_path / "o").exists()

    def test_init_checkpoint_of_another_topology_is_io_error(self, tmp_path):
        raw = bytearray(encode_checkpoint(build_topology("lenet_small"), "dense"))
        raw[9] = ord("m")  # "lenet_small" -> "menet_small": still utf-8, same layers
        bad = tmp_path / "init.ckpt"
        bad.write_bytes(bytes(raw))
        cfg = write_cfg(tmp_path, BASE + f"init_checkpoint = {bad}\n")
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO

    @pytest.mark.parametrize("command", ["eval", "sparsify-greedy", "threshold-compare",
                                         "ensemble", "data-sweep"])
    def test_missing_required_key_is_config_error(self, tmp_path, capsys, command):
        key = REQUIRED[command].split(" = ")[0]
        cfg = write_cfg(tmp_path, BASE)
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key", [("sparsify-greedy", "candidate_iterations"),
                                             ("threshold-compare", "retrain_iterations")])
    @pytest.mark.parametrize("value", [0, -1])
    def test_bad_iteration_count_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 command, key, value):
        def no_train(*args, **kwargs):
            raise AssertionError("a bad config must fail before any training")

        monkeypatch.setattr(cli, "train", no_train)
        cfg = write_cfg(tmp_path, BASE + REQUIRED[command] + f"{key} = {value}\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["synthetic_train_n", "synthetic_test_n"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_synthetic_set_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 key, value):
        def no_train(*args, **kwargs):
            raise AssertionError("a bad config must fail before any training")

        monkeypatch.setattr(cli, "train", no_train)
        cfg = write_cfg(tmp_path, BASE.replace(f"{key} = ", f"{key} = {value}\n# "))
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("command", cli._FEEDS_TOPOLOGY)
    def test_dataset_the_topology_cannot_read_is_config_error(self, tmp_path, capsys,
                                                               command, dataset):
        topology = "cifar_quick" if cli._SAMPLE_SHAPE[dataset] == (1, 28, 28) else "lenet_small"
        text = (BASE + REQUIRED[command]).replace("lenet_small", topology)
        cfg = write_cfg(tmp_path, text.replace("synthetic_mnist", dataset))
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert f"dataset={dataset} has" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_checkpoint_shape_mismatch_is_config_error(self, tmp_path, capsys):
        save_checkpoint(build_topology("cifar_quick"), tmp_path / "c.ckpt")
        cfg = write_cfg(tmp_path, BASE + f"checkpoint = {tmp_path / 'c.ckpt'}\n")
        assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(3, 32, 32) images, dataset=synthetic_mnist has (1, 28, 28)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    def test_diverging_train_is_numeric_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("learning_rate = 0.1", "learning_rate = 1e30"))
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.txt").exists()


class TestFileBackedDatasets:
    def test_mnist_train_eval_cycle(self, tmp_path, capsys):
        train_d, test_d = make_synthetic_pair(80, 30, shape=(1, 28, 28), noise=0.4,
                                              max_shift=2, seed=11)
        paths = {}
        for name, d in (("train", train_d), ("test", test_d)):
            ip, lp = tmp_path / f"{name}.images", tmp_path / f"{name}.labels"
            write_idx_images(ip, as_uint8(d))
            write_idx_labels(lp, d.labels)
            paths[name] = (ip, lp)
        cfg = write_cfg(
            tmp_path,
            "dataset = mnist\n"
            f"train_images = {paths['train'][0]}\ntrain_labels = {paths['train'][1]}\n"
            f"test_images = {paths['test'][0]}\ntest_labels = {paths['test'][1]}\n"
            "topology = lenet_small\nbatch_size = 16\nmax_iterations = 10\n"
            "eval_interval = 10\nseed = 1\n",
        )
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "model.ckpt").exists()

    def test_cifar_binary_cycle(self, tmp_path):
        train_d, test_d = make_synthetic_pair(60, 20, shape=(3, 32, 32), noise=0.6, seed=12)
        tb, vb = tmp_path / "train.bin", tmp_path / "test.bin"
        write_cifar_batch(tb, as_uint8(train_d), train_d.labels)
        write_cifar_batch(vb, as_uint8(test_d), test_d.labels)
        cfg = write_cfg(
            tmp_path,
            f"dataset = cifar10\ntrain_batches = {tb}\ntest_batches = {vb}\n"
            "topology = cifar_quick\nbatch_size = 20\nmax_iterations = 6\n"
            "eval_interval = 6\nseed = 1\n",
        )
        assert run(["train", "--config", cfg, "--out", tmp_path / "o"]) == 0

    def _eval_config(self, tmp_path, dataset, subtract_mean):
        """An eval config naming a checkpoint and the test files only."""
        topology, shape = {"mnist": ("lenet_small", (1, 28, 28)),
                           "cifar10": ("cifar_quick", (3, 32, 32))}[dataset]
        _, test_d = make_synthetic_pair(10, 20, shape=shape, seed=13)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_topology(topology), ckpt)
        if dataset == "mnist":
            write_idx_images(tmp_path / "test.images", as_uint8(test_d))
            write_idx_labels(tmp_path / "test.labels", test_d.labels)
            files = (f"test_images = {tmp_path / 'test.images'}\n"
                     f"test_labels = {tmp_path / 'test.labels'}\n")
        else:
            write_cifar_batch(tmp_path / "test.bin", as_uint8(test_d), test_d.labels)
            files = f"test_batches = {tmp_path / 'test.bin'}\n"
        return write_cfg(tmp_path, f"dataset = {dataset}\ntopology = {topology}\n" + files
                         + f"subtract_mean = {subtract_mean}\ncheckpoint = {ckpt}\n")

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_eval_reads_only_test_files(self, tmp_path, capsys, dataset):
        cfg = self._eval_config(tmp_path, dataset, "false")
        assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert capsys.readouterr().out.startswith("test_accuracy=")

    @pytest.mark.parametrize("shape", [(0, 28, 28), (4, 32, 32)])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_or_not_28x28_idx_is_io_error(self, tmp_path, capsys, command, shape):
        write_idx_images(tmp_path / "x.images", np.zeros(shape, dtype=np.uint8))
        write_idx_labels(tmp_path / "x.labels", np.zeros(shape[0], dtype=np.uint8))
        save_checkpoint(build_topology("lenet_small"), tmp_path / "m.ckpt")
        files = "".join(f"{split}_{kind} = {tmp_path / ('x.' + kind)}\n"
                        for split in ("train", "test") for kind in ("images", "labels"))
        cfg = write_cfg(tmp_path, BASE.replace("synthetic_mnist", "mnist") + files
                        + f"checkpoint = {tmp_path / 'm.ckpt'}\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_IO
        assert "test_accuracy" not in capsys.readouterr().out

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_eval_mean_needs_train_files(self, tmp_path, capsys, dataset):
        cfg = self._eval_config(tmp_path, dataset, "true")
        assert run(["eval", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert "training mean" in capsys.readouterr().err


class TestProtocolCommands:
    def test_greedy_then_ensemble_cycle(self, tmp_path, capsys):
        text = BASE + "target_nnz = 200000\ncandidate_iterations = 10\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "greedy"
        assert run(["sparsify-greedy", "--config", cfg, "--out", out]) == 0
        log = out / "candidates.csv"
        assert log.exists()
        header = log.read_text().splitlines()[0]
        assert header.startswith("round,layer_reduced,")
        assert "val_acc" in header and "memory_bytes" in header

        capsys.readouterr()
        ens_cfg = write_cfg(
            tmp_path,
            BASE.replace("max_iterations = 30", "max_iterations = 10")
            + f"plan_log = {log}\nensemble_size = 2\n",
            "ens.cfg",
        )
        out2 = tmp_path / "ens"
        assert run(["ensemble", "--config", ens_cfg, "--out", out2]) == 0
        assert (out2 / "member_0.ckpt").exists()
        assert (out2 / "member_1.ckpt").exists()
        summary = (out2 / "ensemble.csv").read_text().strip().splitlines()
        assert summary[0] == "member,nnz,test_acc"
        assert summary[-1].startswith("ensemble,")

    def test_threshold_compare_cmd(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE + "threshold_grid = 0.0,0.02\nretrain_iterations = 10\n"
        )
        out = tmp_path / "thr"
        assert run(["threshold-compare", "--config", cfg, "--out", out]) == 0
        lines = (out / "threshold_compare.csv").read_text().strip().splitlines()
        assert lines[0] == "delta,total_nnz,acc_threshold,acc_retrained"
        assert len(lines) == 3

    def test_threshold_compare_starts_from_init_checkpoint(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, BASE)
        assert run(["train", "--config", cfg, "--out", tmp_path / "dense"]) == 0
        ckpt = tmp_path / "dense" / "model.ckpt"
        trained_acc = capsys.readouterr().out.strip().splitlines()[-1].split("=", 1)[1]

        def no_train(*args, **kwargs):
            raise AssertionError("init_checkpoint is the dense model: nothing retrains it")

        monkeypatch.setattr(cli, "train", no_train)
        cfg = write_cfg(tmp_path, BASE + f"init_checkpoint = {ckpt}\nthreshold_grid = 0.0\n",
                        "thr.cfg")
        assert run(["threshold-compare", "--config", cfg, "--out", tmp_path / "thr"]) == 0
        rows = (tmp_path / "thr" / "threshold_compare.csv").read_text().splitlines()
        # delta 0.0 zeroes nothing, so both accuracies are the checkpoint's own
        assert rows[1].split(",")[2:] == [trained_acc, trained_acc]

    def test_data_sweep_cmd(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "fractions = 0.5,1.0\nweight_decay = 0.0001\n"
            "[layer:fc1]\nkind = l0_projection\nt = 40000\nperiod = 10\n",
        )
        out = tmp_path / "sweep"
        assert run(["data-sweep", "--config", cfg, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "fraction,regime,train_acc,test_acc"
        assert len(lines) == 5
