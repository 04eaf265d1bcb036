import pytest

from sparsenet.config import (
    RunConfig,
    parse_config,
    serialize_config,
    validate_layer_names,
)
from sparsenet.errors import ConfigError
from sparsenet.training import TrainConfig

MINIMAL = """
dataset = synthetic_cifar
topology = cifar_quick
seed = 7
max_iterations = 40

[layer:fc1]
kind = l0_projection
t = 500
period = 50
"""


class TestParse:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 7
        assert cfg.max_iterations == 40
        assert set(cfg.layers) == {"fc1"}
        spec = cfg.layers["fc1"]
        assert spec.kind == "l0_projection" and spec.t == 500 and spec.period == 50

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate key 'seed'"):
            parse_config("seed = 1\nbatch_size = 4\nseed = 2\n")

    def test_duplicate_key_allowed_across_sections(self):
        text = MINIMAL + "\n[layer:fc2]\nkind = l1_shrinkage\nlambda = 0.01\n"
        cfg = parse_config(text)
        assert cfg.layers["fc2"].strength == 0.01

    def test_unknown_global_key(self):
        with pytest.raises(ConfigError, match="unknown key 'learning_rat'"):
            parse_config("learning_rat = 0.1\n")

    def test_unknown_layer_key(self):
        with pytest.raises(ConfigError, match="unknown key 'cap'"):
            parse_config("[layer:fc1]\ncap = 3\n")

    def test_l0_without_t(self):
        with pytest.raises(ConfigError, match="fc1"):
            parse_config("[layer:fc1]\nkind = l0_projection\n")

    def test_bad_enum(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config("[layer:fc1]\nkind = l3_projection\n")
        with pytest.raises(ConfigError, match="unknown dataset"):
            parse_config("dataset = imagenet\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    @pytest.mark.parametrize("text,match", [
        ("[section]\n", "line 1: malformed section header"),
        ("seed = 1\n[layer:fc1\n", "line 2: malformed section header"),
        ("[layer:]\n", "line 1: empty layer name"),
        ("[layer:fc1]\nt = 3\n[layer:fc1]\n", "line 3: duplicate layer section 'fc1'"),
    ])
    def test_bad_section_header(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize("key", ["train_limit", "test_limit"])
    def test_removed_limit_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 100\n")

    def test_bad_value_positioned(self):
        with pytest.raises(ConfigError, match="line 2.*seed"):
            parse_config("batch_size = 8\nseed = soon\n")

    def test_stages(self):
        cfg = parse_config(
            "[layer:fc1]\nkind = l0_projection\nt = 100\nstages = 50:80,100:40\n"
        )
        assert cfg.layers["fc1"].stages == ((50, 80), (100, 40))

    def test_stages_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(
                "[layer:fc1]\nkind = l0_projection\nt = 100\nstages = 100:80,50:40\n"
            )


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        cfg1 = parse_config(MINIMAL)
        text = serialize_config(cfg1)
        cfg2 = parse_config(text)
        assert cfg1 == cfg2
        assert serialize_config(cfg2) == text

    def test_rich_config_roundtrip(self):
        text = (
            "dataset = mnist\ntrain_images = a.idx\ntrain_labels = b.idx\n"
            "test_images = c.idx\ntest_labels = d.idx\ntopology = lenet_small\n"
            "learning_rate = 0.05\nmomentum = 0.95\nweight_decay = 0.0005\n"
            "threshold_grid = 0.0,0.01,0.1\nfractions = 0.02,0.1,0.5,1.0\n"
            "subtract_mean = false\n"
            "[layer:fc1]\nkind = l1_subgradient\nlambda = 0.001\nbiases = true\n"
            "fixed_delta = true\n"
        )
        cfg1 = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg1))
        assert cfg1 == cfg2
        assert cfg2.threshold_grid == (0.0, 0.01, 0.1)
        assert cfg2.layers["fc1"].apply_to_biases is True

    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg


class TestValidation:
    def test_layer_names_checked_against_topology(self):
        cfg = parse_config(MINIMAL)
        validate_layer_names(cfg, ["conv1", "fc1", "fc2"])
        with pytest.raises(ConfigError, match="fc9"):
            bad = parse_config(MINIMAL.replace("fc1", "fc9"))
            validate_layer_names(bad, ["conv1", "fc1", "fc2"])

    def test_train_config_reads_every_trainer_field(self):
        cfg = parse_config("batch_size = 7\nlearning_rate = 0.5\nlr_decay = 0.9\nlr_step = 11\n"
                           "momentum = 0.3\nmax_iterations = 13\nseed = 17\n"
                           "eval_interval = 19\neval_max = 23\n")
        expect = TrainConfig(batch_size=7, learning_rate=0.5, lr_decay=0.9, lr_step=11,
                             momentum=0.3, max_iterations=13, seed=17, eval_interval=19,
                             eval_max=23)
        assert cfg.to_train_config() == expect

    @pytest.mark.parametrize("text,match", [
        ("subtract_mean = yes\n", "expected true/false"),
        ("checkpoint_encoding = sparse\n", "unknown checkpoint_encoding"),
        ("validation_fraction = 0.0\n", r"validation_fraction must be in \(0, 1\)"),
        ("validation_fraction = 1.0\n", r"validation_fraction must be in \(0, 1\)"),
        ("synthetic_train_n = 0\n", "synthetic_train_n must be >= 1"),
        ("synthetic_train_n = -1\n", "synthetic_train_n must be >= 1"),
        ("synthetic_test_n = 0\n", "synthetic_test_n must be >= 1"),
        ("synthetic_test_n = -1\n", "synthetic_test_n must be >= 1"),
    ])
    def test_rejects_bad_global_value(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_train_config_fields_validated(self):
        with pytest.raises(ConfigError):
            parse_config("momentum = 1.5\n")

    def test_reg_specs_fall_back_to_weight_decay(self):
        cfg = parse_config("weight_decay = 0.01\n" + MINIMAL.lstrip())
        specs = cfg.reg_specs(["conv1", "fc1"])
        assert specs["conv1"].kind == "l2_decay"
        assert specs["conv1"].strength == 0.01
        assert specs["fc1"].kind == "l0_projection"

    def test_layer_reg_defaults(self):
        assert parse_config("[layer:fc1]\n").layers["fc1"].kind == "none"
