"""Command-line entry point and run orchestration.

Every command takes the parsed config and arguments and returns its
artifacts (checkpoints, metrics/candidate-log/report CSVs) as
{file name: str | bytes}. main alone writes them under the output
directory, each atomically, then config.resolved, then manifest.txt last,
so a manifest lists only files that are complete. Exit codes distinguish
error classes: 2 configuration, 3 input/output, 4 numeric failure during
training.
"""

import argparse
import dataclasses
import hashlib
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .artifacts import csv_text, write_atomic
from .checkpoint import encode_checkpoint, load_checkpoint
from .config import RunConfig, parse_config, serialize_config, validate_layer_names
from .datasets import load_cifar10, load_mnist, split_validation, subtract_mean
from .errors import CheckpointError, ConfigError, DataFormatError, NumericError
from .memory import render_table, report, to_csv
from .net import build_topology
from .regularizers import weight_decay_spec
from .protocols import (
    SWEEP_HEADER,
    THRESHOLD_COMPARE_HEADER,
    candidate_log_csv,
    candidate_log_from_csv,
    data_starvation_sweep,
    ensemble_accuracy,
    greedy_sparsify,
    threshold_compare,
    train_ensemble,
)
from .synthetic import make_synthetic_pair
from .training import evaluate_accuracy, train

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# the config keys, after a "train_"/"test_" prefix, that name a file-backed split
_SPLIT_KEYS = {"mnist": ("images", "labels"), "cifar10": ("batches",)}

# the (channels, height, width) of every image each dataset yields
_SAMPLE_SHAPE = {"mnist": (1, 28, 28), "synthetic_mnist": (1, 28, 28),
                 "cifar10": (3, 32, 32), "synthetic_cifar": (3, 32, 32)}


def _split_files(cfg: RunConfig, split: str, why: str = "") -> list:
    keys = [f"{split}_{k}" for k in _SPLIT_KEYS[cfg.dataset]]
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"dataset={cfg.dataset} requires {key}{why}")
    return [getattr(cfg, key) for key in keys]


def load_datasets(cfg: RunConfig, need_train: bool = True):
    """(train, test) datasets per the config, preprocessed.

    With need_train=False a file-backed dataset reads its training files
    only when subtract_mean needs their mean, and returns train as None
    when it does not.
    """
    why = "" if need_train else " (subtract_mean = true needs the training mean)"
    need_train = need_train or cfg.subtract_mean
    if cfg.dataset in _SPLIT_KEYS:
        load = load_mnist if cfg.dataset == "mnist" else load_cifar10
        train_files = _split_files(cfg, "train", why) if need_train else None
        test_files = _split_files(cfg, "test")
        train_d = load(*train_files) if need_train else None
        test_d = load(*test_files)
    else:
        train_d, test_d = make_synthetic_pair(
            cfg.synthetic_train_n, cfg.synthetic_test_n, shape=_SAMPLE_SHAPE[cfg.dataset],
            noise=cfg.synthetic_noise, seed=cfg.seed,
        )
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


def cmd_train(cfg: RunConfig, args) -> dict:
    train_d, test_d = load_datasets(cfg)
    net = _base_net(cfg)
    specs = cfg.reg_specs(_layer_names(net))
    net, metrics = train(net, train_d, cfg.to_train_config(), reg_specs=specs, test_data=test_d)
    print(f"test_accuracy={evaluate_accuracy(net, test_d)}")
    return {"model.ckpt": encode_checkpoint(net, cfg.checkpoint_encoding),
            "metrics.csv": metrics.to_csv()}


def cmd_eval(cfg: RunConfig, args, net) -> dict:
    """Test accuracy of `net`, the checkpoint main loaded and checked."""
    _, test_d = load_datasets(cfg, need_train=False)
    print(f"test_accuracy={evaluate_accuracy(net, test_d)}")
    return {}


def cmd_memory_report(cfg: RunConfig, args) -> dict:
    net = load_checkpoint(cfg.checkpoint) if cfg.checkpoint else _base_net(cfg)
    rep = report(net)
    print(render_table(rep, units=args.units))
    return {"memory.csv": to_csv(rep)}


def _trained_dense(cfg: RunConfig, train_d, test_d):
    """The starting dense model: a checkpoint when given, else trained now."""
    net = _base_net(cfg)
    if cfg.init_checkpoint:
        return net
    specs = cfg.reg_specs(_layer_names(net))
    net, _ = train(net, train_d, cfg.to_train_config(), reg_specs=specs, test_data=test_d)
    return net


def cmd_sparsify_greedy(cfg: RunConfig, args) -> dict:
    train_d, test_d = load_datasets(cfg)
    train_part, val_part = split_validation(train_d, cfg.seed, cfg.validation_fraction)
    base = _trained_dense(cfg, train_part, test_d)
    net, plan, records = greedy_sparsify(
        base, train_part, val_part, cfg.target_nnz,
        dataclasses.replace(cfg.to_train_config(), max_iterations=cfg.candidate_iterations),
        test_data=test_d, jobs=args.jobs,
    )
    print(f"plan={plan.caps} total_nnz={plan.total_nnz(net)}")
    return {"sparse.ckpt": encode_checkpoint(net, cfg.checkpoint_encoding),
            "candidates.csv": candidate_log_csv(records, _layer_names(net))}


def cmd_threshold_compare(cfg: RunConfig, args) -> dict:
    train_d, test_d = load_datasets(cfg)
    dense = _trained_dense(cfg, train_d, test_d)
    retrain = cfg.max_iterations if cfg.retrain_iterations is None else cfg.retrain_iterations
    rows = threshold_compare(
        dense, cfg.threshold_grid, train_d, test_d,
        dataclasses.replace(cfg.to_train_config(), max_iterations=retrain),
    )
    return {"threshold_compare.csv": csv_text(THRESHOLD_COMPARE_HEADER, rows)}


def cmd_ensemble(cfg: RunConfig, args) -> dict:
    records = candidate_log_from_csv(Path(cfg.plan_log).read_text())
    probe = build_topology(cfg.topology, seed=cfg.seed)
    for i, record in enumerate(records, start=1):
        try:
            record.plan.validate(probe)
        except ValueError as e:
            raise DataFormatError(f"candidate log row {i}: {e}") from e
    train_d, test_d = load_datasets(cfg)
    budget = cfg.budget if cfg.budget is not None else probe.param_count()

    ensemble = train_ensemble(
        cfg.ensemble_size, budget, records, train_d, cfg.to_train_config(),
        partial(build_topology, cfg.topology),
    )
    acc = ensemble_accuracy(ensemble, test_d)
    print(f"ensemble_accuracy={acc}")
    artifacts = {f"member_{i}.ckpt": encode_checkpoint(member, cfg.checkpoint_encoding)
                 for i, member in enumerate(ensemble.members)}
    rows = [(i, member.nnz(), evaluate_accuracy(member, test_d))
            for i, member in enumerate(ensemble.members)]
    rows.append(("ensemble", ensemble.total_nnz(), acc))
    artifacts["ensemble.csv"] = csv_text(("member", "nnz", "test_acc"), rows)
    return artifacts


def cmd_data_sweep(cfg: RunConfig, args) -> dict:
    train_d, test_d = load_datasets(cfg)
    probe = build_topology(cfg.topology, seed=cfg.seed)
    # dense regime ignores the layer blocks; sparse regime is exactly them
    dense_specs = {name: weight_decay_spec(cfg.weight_decay) for name in _layer_names(probe)}
    sparse_specs = cfg.reg_specs(_layer_names(probe))

    rows = data_starvation_sweep(
        cfg.fractions, cfg.to_train_config(), dense_specs, sparse_specs,
        train_d, test_d, partial(build_topology, cfg.topology), seed=cfg.seed,
    )
    return {"sweep.csv": csv_text(SWEEP_HEADER, rows)}


_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "memory-report": cmd_memory_report,
    "sparsify-greedy": cmd_sparsify_greedy,
    "threshold-compare": cmd_threshold_compare,
    "ensemble": cmd_ensemble,
    "data-sweep": cmd_data_sweep,
}

# the commands that feed the configured dataset to the configured topology
_FEEDS_TOPOLOGY = ("train", "sparsify-greedy", "threshold-compare", "ensemble", "data-sweep")

# the config key each command cannot run without
_REQUIRED_KEY = {
    "eval": "checkpoint",
    "sparsify-greedy": "target_nnz",
    "threshold-compare": "threshold_grid",
    "ensemble": "plan_log",
    "data-sweep": "fractions",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsenet")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to a run config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="train greedy candidates on up to N threads, at most one per "
                             "candidate; results do not depend on N (sparsify-greedy only)")
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
        if args.jobs < 1 or (args.jobs != 1 and args.command != "sparsify-greedy"):
            raise ConfigError(f"--jobs {args.jobs}: sparsify-greedy takes >= 1, other commands 1")
        key = _REQUIRED_KEY.get(args.command)
        if key and getattr(cfg, key) in (None, "", ()):
            raise ConfigError(f"{args.command} requires {key} in the config")
        topology = build_topology(cfg.topology)
        validate_layer_names(cfg, _layer_names(topology))
        shape = _SAMPLE_SHAPE[cfg.dataset]
        if args.command in _FEEDS_TOPOLOGY and shape != topology.input_shape:
            raise ConfigError(f"dataset={cfg.dataset} has {shape} images, "
                              f"topology={cfg.topology} takes {topology.input_shape}")
        command = _DISPATCH[args.command]
        if args.command == "eval":  # its checkpoint, not the topology, reads the data
            net = load_checkpoint(cfg.checkpoint)
            if net.input_shape != shape:
                raise ConfigError(f"checkpoint topology {net.topology} takes {net.input_shape} "
                                  f"images, dataset={cfg.dataset} has {shape}")
            command = partial(cmd_eval, net=net)
        artifacts = command(cfg, args)
        # made only now, so a command that fails (a corrupt checkpoint, a
        # diverging run) leaves no --out directory behind
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # hash the semantic config: the output location is not part of run identity
        canonical = serialize_config(dataclasses.replace(cfg, out_dir="."))
        manifest = [
            f"command = {args.command}",
            f"version = sparsenet-{__version__}",
            f"config_sha256 = {hashlib.sha256(canonical.encode()).hexdigest()}",
            f"seed = {cfg.seed}",
            *(f"artifact = {name}" for name in sorted(artifacts)),
        ]
        artifacts |= {"config.resolved": canonical, "manifest.txt": "\n".join(manifest) + "\n"}
        for name, data in artifacts.items():
            write_atomic(out_dir / name, data)
        return 0
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
