"""Command-line entry point and run orchestration.

Every command takes --config and writes its artifacts (checkpoints,
metrics/candidate-log/report CSVs, and a run manifest) under the output
directory. Exit codes distinguish error classes: 2 configuration,
3 input/output, 4 numeric failure during training.
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config, serialize_config, validate_layer_names
from .datasets import load_cifar10, load_mnist, split_validation, subtract_mean
from .errors import CheckpointError, ConfigError, DataFormatError, NumericError
from .memory import render_table, report, to_csv
from .net import build_topology
from .regularizers import weight_decay_spec
from .protocols import (
    candidate_log_csv,
    candidate_log_from_csv,
    data_starvation_sweep,
    ensemble_accuracy,
    greedy_sparsify,
    sweep_csv,
    threshold_compare,
    threshold_compare_csv,
    train_ensemble,
)
from .synthetic import make_synthetic_pair
from .training import evaluate_accuracy, train

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

COMMANDS = (
    "train",
    "sparsify-greedy",
    "threshold-compare",
    "ensemble",
    "data-sweep",
    "memory-report",
    "eval",
)


def load_datasets(cfg: RunConfig):
    """(train, test) datasets per the config, preprocessed."""
    if cfg.dataset == "mnist":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"dataset=mnist requires {key}")
        train_d = load_mnist(cfg.train_images, cfg.train_labels)
        test_d = load_mnist(cfg.test_images, cfg.test_labels)
    elif cfg.dataset == "cifar10":
        if not cfg.train_batches or not cfg.test_batches:
            raise ConfigError("dataset=cifar10 requires train_batches and test_batches")
        train_d = load_cifar10(cfg.train_batches)
        test_d = load_cifar10(cfg.test_batches)
    else:
        shape = (1, 28, 28) if cfg.dataset == "synthetic_mnist" else (3, 32, 32)
        train_d, test_d = make_synthetic_pair(
            cfg.synthetic_train_n, cfg.synthetic_test_n, shape=shape,
            noise=cfg.synthetic_noise, seed=cfg.seed,
        )
    if cfg.train_limit:
        train_d = train_d.take(np.arange(min(cfg.train_limit, len(train_d))))
    if cfg.test_limit:
        test_d = test_d.take(np.arange(min(cfg.test_limit, len(test_d))))
    if cfg.subtract_mean:
        train_d, test_d = subtract_mean(train_d, test_d)
    return train_d, test_d


def _base_net(cfg: RunConfig):
    net = build_topology(cfg.topology, seed=cfg.seed)
    if cfg.init_checkpoint:
        load_checkpoint(cfg.init_checkpoint, net)
    return net


def _layer_names(net):
    return [l.name for l in net.param_layers()]


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text)
    return path


def _manifest(out_dir: Path, command: str, cfg: RunConfig, artifacts) -> None:
    # hash the semantic config: the output location is not part of run identity
    canonical = serialize_config(dataclasses.replace(cfg, out_dir="."))
    lines = [
        f"command = {command}",
        f"version = sparsenet-{__version__}",
        f"config_sha256 = {hashlib.sha256(canonical.encode()).hexdigest()}",
        f"seed = {cfg.seed}",
    ]
    lines += [f"artifact = {a}" for a in sorted(Path(a).name for a in artifacts)]
    _write(out_dir, "manifest.txt", "\n".join(lines) + "\n")
    _write(out_dir, "config.resolved", canonical)


def cmd_train(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    train_d, test_d = load_datasets(cfg)
    net = _base_net(cfg)
    validate_layer_names(cfg, _layer_names(net))
    specs = cfg.reg_specs(_layer_names(net))
    net, metrics = train(net, train_d, cfg.to_train_config(), reg_specs=specs, test_data=test_d)
    ckpt = out_dir / "model.ckpt"
    save_checkpoint(net, ckpt, cfg.checkpoint_encoding)
    csv = _write(out_dir, "metrics.csv", metrics.to_csv())
    _manifest(out_dir, "train", cfg, [ckpt, csv])
    print(f"test_accuracy={evaluate_accuracy(net, test_d)}")
    return 0


def cmd_eval(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval requires checkpoint=PATH in the config")
    _, test_d = load_datasets(cfg)
    net = load_checkpoint(cfg.checkpoint)
    print(f"test_accuracy={evaluate_accuracy(net, test_d)}")
    _manifest(out_dir, "eval", cfg, [])
    return 0


def cmd_memory_report(cfg: RunConfig, out_dir: Path, jobs: int, units: str = "bytes") -> int:
    net = load_checkpoint(cfg.checkpoint) if cfg.checkpoint else _base_net(cfg)
    rep = report(net)
    print(render_table(rep, units=units))
    csv = _write(out_dir, "memory.csv", to_csv(rep))
    _manifest(out_dir, "memory-report", cfg, [csv])
    return 0


def _trained_dense(cfg: RunConfig, train_d, test_d):
    """The starting dense model: a checkpoint when given, else trained now."""
    net = _base_net(cfg)
    if cfg.init_checkpoint:
        return net
    specs = cfg.reg_specs(_layer_names(net))
    net, _ = train(net, train_d, cfg.to_train_config(), reg_specs=specs, test_data=test_d)
    return net


def cmd_sparsify_greedy(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    if cfg.target_nnz is None:
        raise ConfigError("sparsify-greedy requires target_nnz in the config")
    train_d, test_d = load_datasets(cfg)
    train_part, val_part = split_validation(train_d, cfg.seed, cfg.validation_fraction)
    base = _trained_dense(cfg, train_part, test_d)
    net, plan, records = greedy_sparsify(
        base, train_part, val_part, cfg.target_nnz,
        cfg.to_train_config(max_iterations=cfg.candidate_iterations),
        test_data=test_d, jobs=jobs,
    )
    ckpt = out_dir / "sparse.ckpt"
    save_checkpoint(net, ckpt, cfg.checkpoint_encoding)
    log = _write(out_dir, "candidates.csv", candidate_log_csv(records, _layer_names(net)))
    _manifest(out_dir, "sparsify-greedy", cfg, [ckpt, log])
    print(f"plan={plan.caps} total_nnz={plan.total_nnz(net)}")
    return 0


def cmd_threshold_compare(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    if not cfg.threshold_grid:
        raise ConfigError("threshold-compare requires threshold_grid in the config")
    train_d, test_d = load_datasets(cfg)
    dense = _trained_dense(cfg, train_d, test_d)
    rows = threshold_compare(
        dense, cfg.threshold_grid, train_d, test_d,
        cfg.to_train_config(max_iterations=cfg.retrain_iterations or cfg.max_iterations),
    )
    csv = _write(out_dir, "threshold_compare.csv", threshold_compare_csv(rows))
    _manifest(out_dir, "threshold-compare", cfg, [csv])
    return 0


def cmd_ensemble(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    if not cfg.plan_log:
        raise ConfigError("ensemble requires plan_log=PATH (a candidate-log CSV)")
    train_d, test_d = load_datasets(cfg)
    records = candidate_log_from_csv(Path(cfg.plan_log).read_text())
    probe = build_topology(cfg.topology, seed=cfg.seed)
    budget = cfg.budget if cfg.budget is not None else probe.param_count()

    def build_net(seed):
        return build_topology(cfg.topology, seed=seed)

    ensemble = train_ensemble(
        cfg.ensemble_size, budget, records, train_d, cfg.to_train_config(), build_net
    )
    artifacts = []
    for i, member in enumerate(ensemble.members):
        path = out_dir / f"member_{i}.ckpt"
        save_checkpoint(member, path, cfg.checkpoint_encoding)
        artifacts.append(path)
    acc = ensemble_accuracy(ensemble, test_d)
    lines = ["member,nnz,test_acc"]
    for i, member in enumerate(ensemble.members):
        lines.append(f"{i},{member.nnz()},{evaluate_accuracy(member, test_d)!r}")
    lines.append(f"ensemble,{ensemble.total_nnz()},{acc!r}")
    csv = _write(out_dir, "ensemble.csv", "\n".join(lines) + "\n")
    _manifest(out_dir, "ensemble", cfg, artifacts + [csv])
    print(f"ensemble_accuracy={acc}")
    return 0


def cmd_data_sweep(cfg: RunConfig, out_dir: Path, jobs: int) -> int:
    if not cfg.fractions:
        raise ConfigError("data-sweep requires fractions in the config")
    train_d, test_d = load_datasets(cfg)
    probe = build_topology(cfg.topology, seed=cfg.seed)
    validate_layer_names(cfg, _layer_names(probe))
    # dense regime ignores the layer blocks; sparse regime is exactly them
    dense_specs = {name: weight_decay_spec(cfg.weight_decay) for name in _layer_names(probe)}
    sparse_specs = cfg.reg_specs(_layer_names(probe))

    def build_net(seed):
        return build_topology(cfg.topology, seed=seed)

    rows = data_starvation_sweep(
        cfg.fractions,
        (cfg.to_train_config(), dense_specs),
        (cfg.to_train_config(), sparse_specs),
        train_d, test_d, build_net, seed=cfg.seed,
    )
    csv = _write(out_dir, "sweep.csv", sweep_csv(rows))
    _manifest(out_dir, "data-sweep", cfg, [csv])
    return 0


_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "memory-report": cmd_memory_report,
    "sparsify-greedy": cmd_sparsify_greedy,
    "threshold-compare": cmd_threshold_compare,
    "ensemble": cmd_ensemble,
    "data-sweep": cmd_data_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsenet")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a run config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel candidate/member trainings")
    parser.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
    units = parser.add_mutually_exclusive_group()
    units.add_argument("--bytes", dest="units", action="store_const", const="bytes")
    units.add_argument("--kb", dest="units", action="store_const", const="kb")
    units.add_argument("--mb", dest="units", action="store_const", const="mb")
    parser.set_defaults(units="bytes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return EXIT_IO
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "memory-report":
            return cmd_memory_report(cfg, out_dir, args.jobs, units=args.units)
        return _DISPATCH[args.command](cfg, out_dir, args.jobs)
    except (ConfigError, ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, CheckpointError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
