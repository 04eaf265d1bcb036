"""Run configuration: a line-oriented key=value format with layer sections.

Global keys come first; per-layer regularizer blocks follow under
``[layer:NAME]`` headers and parse straight into ``RegSpec``, which owns
their validation. Parsing is fail-closed: unknown keys, duplicate
keys, and malformed values are positioned errors, because a silently
ignored typo in a regularizer name would invalidate an experiment.

parse -> serialize -> parse is the identity on RunConfig values.
"""

from dataclasses import dataclass, field, fields
from typing import get_args

from .errors import ConfigError
from .memory import FORMATS
from .regularizers import RegSpec, weight_decay_spec
from .training import TrainConfig

DATASETS = ("mnist", "cifar10", "synthetic_mnist", "synthetic_cifar")
ENCODINGS = (*FORMATS, "best")


def _parse_bool(s: str) -> bool:
    if s in ("true", "false"):
        return s == "true"
    raise ValueError(f"expected true/false, got {s!r}")


def _parse_floats(s: str):
    return tuple(float(x) for x in s.split(","))


def _parse_paths(s: str):
    return tuple(x.strip() for x in s.split(",") if x.strip())


def _parse_stages(s: str):
    out = []
    for part in s.split(","):
        it, _, t = part.partition(":")
        out.append((int(it), int(t)))
    return tuple(out)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(_fmt(v) for v in value)
    return str(value)


# layer key -> (RegSpec field, parser); the order is the serialized order
_LAYER_KEYS = {
    "kind": ("kind", str),
    "lambda": ("strength", float),
    "t": ("t", int),
    "period": ("period", int),
    "biases": ("apply_to_biases", _parse_bool),
    "fixed_delta": ("fixed_delta", _parse_bool),
    "stages": ("stages", _parse_stages),
}


@dataclass
class RunConfig:
    dataset: str = "synthetic_cifar"
    topology: str = "cifar_quick"
    seed: int = 0
    out_dir: str = "runs/out"
    subtract_mean: bool = True

    # file-backed datasets
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train_batches: tuple = ()
    test_batches: tuple = ()
    # procedural datasets
    synthetic_train_n: int = 2000
    synthetic_test_n: int = 500
    synthetic_noise: float = 0.8

    # trainer
    batch_size: int = 50
    learning_rate: float = 0.01
    lr_decay: float = 1.0
    lr_step: int = 1000
    momentum: float = 0.9
    max_iterations: int = 1000
    eval_interval: int = 200
    eval_max: int = 1000
    weight_decay: float = 0.0

    # command inputs
    checkpoint: str | None = None
    init_checkpoint: str | None = None
    checkpoint_encoding: str = "dense"
    target_nnz: int | None = None
    candidate_iterations: int = 2000
    retrain_iterations: int | None = None
    threshold_grid: tuple = ()
    ensemble_size: int = 1
    budget: int | None = None
    plan_log: str | None = None
    fractions: tuple = ()
    validation_fraction: float = 0.1

    layers: dict = field(default_factory=dict)

    def to_train_config(self) -> TrainConfig:
        """The trainer's settings: every TrainConfig field read from this config."""
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def reg_specs(self, layer_names) -> dict:
        """Per-layer RegSpec map: explicit blocks win, otherwise a global
        l2 term when weight_decay is set."""
        fallback = weight_decay_spec(self.weight_decay)
        return {name: self.layers.get(name, fallback) for name in layer_names}


# the tuple fields; every other global key parses with its field's type
_TUPLE_PARSERS = {
    "train_batches": _parse_paths,
    "test_batches": _parse_paths,
    "threshold_grid": _parse_floats,
    "fractions": _parse_floats,
}


def _global_parser(f):
    if f.name in _TUPLE_PARSERS:
        return _TUPLE_PARSERS[f.name]
    kind = (get_args(f.type) or (f.type,))[0]  # X | None parses as X
    return _parse_bool if kind is bool else kind


_GLOBAL_KEYS = {f.name: _global_parser(f) for f in fields(RunConfig) if f.name != "layers"}


def parse_config(text: str) -> RunConfig:
    section = None          # None = global scope, else layer name
    values = {None: {}}     # section -> {field name: parsed value}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not (line.startswith("[layer:") and line.endswith("]")):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            section = line[len("[layer:") : -1]
            if not section:
                raise ConfigError(f"line {lineno}: empty layer name")
            if section in values:
                raise ConfigError(f"line {lineno}: duplicate layer section {section!r}")
            values[section] = {}
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        where = f"layer section {section!r}" if section else "global scope"
        if section is None:
            attr, parse = key, _GLOBAL_KEYS.get(key)
        else:
            attr, parse = _LAYER_KEYS.get(key, (key, None))
        if parse is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        if attr in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in {where}")
        try:
            values[section][attr] = parse(value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from e

    cfg = RunConfig(**values.pop(None))
    for name, spec_fields in values.items():
        try:
            cfg.layers[name] = RegSpec(**spec_fields)
        except ValueError as e:
            raise ConfigError(f"layer {name!r}: {e}") from e
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.dataset not in DATASETS:
        raise ConfigError(f"unknown dataset {cfg.dataset!r}; known: {DATASETS}")
    if cfg.checkpoint_encoding not in ENCODINGS:
        raise ConfigError(
            f"unknown checkpoint_encoding {cfg.checkpoint_encoding!r}; known: {ENCODINGS}"
        )
    if not 0.0 < cfg.validation_fraction < 1.0:
        raise ConfigError("validation_fraction must be in (0, 1)")
    for key in ("synthetic_train_n", "synthetic_test_n", "candidate_iterations"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if cfg.retrain_iterations is not None and cfg.retrain_iterations < 1:
        raise ConfigError("retrain_iterations must be >= 1")
    try:
        cfg.to_train_config()
    except ValueError as e:
        raise ConfigError(str(e)) from e


def validate_layer_names(cfg: RunConfig, known_names) -> None:
    """Every [layer:NAME] block must target a layer of the chosen topology."""
    unknown = sorted(set(cfg.layers) - set(known_names))
    if unknown:
        raise ConfigError(
            f"config names layers {unknown} not present in topology "
            f"{cfg.topology!r} (has {sorted(known_names)})"
        )


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        if f.name == "layers":
            continue
        value = getattr(cfg, f.name)
        if value is None or value == ():
            continue
        lines.append(f"{f.name} = {_fmt(value)}")
    for name, spec in cfg.layers.items():
        lines.append("")
        lines.append(f"[layer:{name}]")
        for key, (attr, _) in _LAYER_KEYS.items():
            value = getattr(spec, attr)
            if value is None or value == ():
                continue
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
