import itertools
import logging

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_data, small_net
from sparsenet.checkpoint import load_checkpoint, save_checkpoint
from sparsenet.datasets import Dataset
from sparsenet.errors import NumericError
from sparsenet.regularizers import RegSpec, threshold
from sparsenet.seeding import rng_for
from sparsenet.training import (
    TrainConfig,
    evaluate_accuracy,
    lr_at,
    sgd_update,
    train,
)


class TestSgdUpdate:
    def test_quadratic_descent_sequence(self):
        # plain-python oracle for 3 steps of gradient descent on (w-1)^2
        w_oracle, lr = 3.0, 0.1
        expected = []
        for _ in range(3):
            w_oracle = w_oracle - lr * 2.0 * (w_oracle - 1.0)
            expected.append(w_oracle)

        w = np.array([3.0])
        v = np.zeros(1)
        seen = []
        for _ in range(3):
            grad = 2.0 * (w - 1.0)
            sgd_update(w, grad, v, lr=lr, momentum=0.0)
            seen.append(float(w[0]))
        npt.assert_allclose(seen, expected, rtol=1e-15)
        npt.assert_allclose(seen, [2.6, 2.28, 2.024], rtol=1e-12)

    def test_zero_gradient_zero_velocity_is_identity(self):
        w = np.array([1.5, -2.0])
        v = np.zeros(2)
        sgd_update(w, np.zeros(2), v, lr=0.1, momentum=0.9)
        npt.assert_array_equal(w, [1.5, -2.0])

    def test_lr_zero_leaves_regularization_only(self):
        # with lr=0 the gradient contributes nothing; a fixed-delta
        # shrinkage spec still moves the weights
        from sparsenet.regularizers import apply_regularization

        class L:
            weights = np.array([1.0])
            biases = np.array([0.0])

        layer = L()
        v = np.zeros(1)
        sgd_update(layer.weights, np.array([123.0]), v, lr=0.0, momentum=0.0)
        npt.assert_array_equal(layer.weights, [1.0])
        apply_regularization(
            layer, RegSpec(kind="l1_shrinkage", strength=0.25, fixed_delta=True),
            lr=0.0, iteration=1,
        )
        npt.assert_allclose(layer.weights, [0.75])

    def test_momentum_accumulates(self):
        w = np.array([0.0])
        v = np.zeros(1)
        g = np.array([1.0])
        sgd_update(w, g, v, lr=0.1, momentum=0.5)
        npt.assert_allclose(w, [-0.1])
        sgd_update(w, g, v, lr=0.1, momentum=0.5)
        npt.assert_allclose(w, [-0.1 - 0.15])


def test_warns_when_a_layer_ends_all_zero(caplog):
    train_d = small_data()
    spec = RegSpec(kind="l1_shrinkage", strength=10.0, fixed_delta=True)
    cfg = TrainConfig(batch_size=20, learning_rate=0.01, max_iterations=1)
    with caplog.at_level(logging.WARNING, logger="sparsenet.training"):
        net, _ = train(small_net(), train_d, cfg, {"fc1": spec})
    assert not net.layer("fc1").weights.any() and net.layer("conv1").weights.any()
    assert [r.getMessage() for r in caplog.records] == [
        "fc1 ends training with every weight at zero"]


class TestSchedule:
    def test_step_decay(self):
        cfg = TrainConfig(learning_rate=0.1, lr_decay=0.5, lr_step=100, max_iterations=300)
        assert lr_at(cfg, 1) == pytest.approx(0.1)
        assert lr_at(cfg, 100) == pytest.approx(0.1)
        assert lr_at(cfg, 101) == pytest.approx(0.05)
        assert lr_at(cfg, 201) == pytest.approx(0.025)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("kw,match", [
        (dict(lr_decay=0.0), "invalid schedule"),
        (dict(lr_step=0), "invalid schedule"),
        (dict(max_iterations=0), "invalid schedule"),
        (dict(eval_interval=0), "eval_interval and eval_max"),
        (dict(eval_max=0), "eval_interval and eval_max"),
    ])
    def test_schedule_and_eval_bounds(self, kw, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kw)


def _grad_flat(grads):
    return np.concatenate(
        [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads.values()]
    )


def _whole_set_gradient(net, data):
    """Gradient of the mean data loss over all of `data`, in one pass."""
    net.forward(data.images)
    return _grad_flat(net.backward(data.labels))


class TestFullGradient:
    def test_enumeration_unbiasedness(self):
        # average of gradients over all |B|=2 minibatches of a 4-example
        # set equals the full-dataset gradient
        net = small_net(seed=2, dtype=np.float64)
        data = small_data(n=4, seed=3)
        full = _whole_set_gradient(net, data)
        batches = list(itertools.combinations(range(4), 2))
        acc = np.zeros_like(full)
        for batch in batches:
            idx = np.array(batch)
            net.forward(data.images[idx])
            acc += _grad_flat(net.backward(data.labels[idx]))
        acc /= len(batches)
        npt.assert_allclose(acc, full, atol=1e-10)

    def test_gradient_norm_decreases_on_separable_toy(self):
        net = small_net(seed=8, dtype=np.float64)
        data = small_data(n=60, seed=9, noise=0.05)
        before = float(np.linalg.norm(_whole_set_gradient(net, data)))
        cfg = TrainConfig(batch_size=20, learning_rate=0.5, momentum=0.9,
                          max_iterations=300, eval_interval=300, seed=0)
        train(net, data, cfg)
        after = float(np.linalg.norm(_whole_set_gradient(net, data)))
        assert after < before


class TestExactZerosEndToEnd:
    """After train(), l1 shrinkage leaves exact zeros in a layer and the l1
    subgradient leaves almost none: the operator-level contrast in
    test_regularizers, through the whole training loop."""

    @staticmethod
    def _fc1_zeros(kind, seed, data):
        spec = RegSpec(kind=kind, strength=0.01)
        cfg = TrainConfig(batch_size=20, learning_rate=0.1, max_iterations=100, seed=seed)
        net, _ = train(small_net(seed=seed), data, cfg, reg_specs={"conv1": spec, "fc1": spec})
        weights = net.layer("fc1").weights
        return int(np.count_nonzero(weights == 0)), weights.size

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shrinkage_zeros_subgradient_almost_none(self, small_pair, seed):
        train_d, _ = small_pair
        shrunk, size = self._fc1_zeros("l1_shrinkage", seed, train_d)
        subgrad, _ = self._fc1_zeros("l1_subgradient", seed, train_d)
        assert shrunk > 0, f"shrinkage left no exact zero in fc1 on seed {seed}"
        assert subgrad <= 0.01 * size, f"subgradient left {subgrad} of {size} zeros on seed {seed}"


class TestTrainLoop:
    def test_dataset_smaller_than_batch(self):
        net = small_net()
        data = small_data(n=10)
        with pytest.raises(ValueError, match="smaller than batch"):
            train(net, data, TrainConfig(batch_size=16, max_iterations=5))

    def test_spec_for_unknown_layer(self):
        with pytest.raises(KeyError, match="unknown layer 'fc9'"):
            train(small_net(), small_data(n=40), TrainConfig(batch_size=8, max_iterations=1),
                  reg_specs={"fc9": RegSpec(kind="l2_decay", strength=0.1)})

    def test_loss_decreases_with_l2_baseline(self, small_pair):
        train_d, _ = small_pair
        net = small_net(seed=10)
        cfg = TrainConfig(batch_size=20, learning_rate=0.5, momentum=0.9,
                          max_iterations=400, eval_interval=25, seed=1)
        specs = {n.name: RegSpec(kind="l2_decay", strength=1e-4) for n in net.param_layers()}
        _, metrics = train(net, train_d, cfg, reg_specs=specs)
        losses = [r.loss for r in metrics.rows]
        # majority of consecutive windows improve, and the end beats the start
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert drops > len(losses) // 2
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_l0_caps_hold_after_projection_events(self, small_pair):
        train_d, _ = small_pair
        net = small_net(seed=11)
        t = 20
        cfg = TrainConfig(batch_size=20, learning_rate=0.2, momentum=0.9,
                          max_iterations=120, eval_interval=30, seed=2)
        specs = {"fc1": RegSpec(kind="l0_projection", t=t, period=30)}
        net, metrics = train(net, train_d, cfg, reg_specs=specs)
        # eval rows land exactly on projection iterations
        for row in metrics.rows:
            assert row.layer_nnz["fc1"] <= t + net.layer("fc1").biases.size
            assert row.l0_feasible
        assert np.count_nonzero(net.layer("fc1").weights) <= t

    def test_caps_hold_at_completion_with_offset_period(self, small_pair):
        # max_iterations not a multiple of the period: the final state must
        # still satisfy the cap
        train_d, _ = small_pair
        net = small_net(seed=12)
        cfg = TrainConfig(batch_size=20, learning_rate=0.2, max_iterations=50,
                          eval_interval=20, seed=3)
        specs = {"fc1": RegSpec(kind="l0_projection", t=15, period=30)}
        net, metrics = train(net, train_d, cfg, reg_specs=specs)
        assert np.count_nonzero(net.layer("fc1").weights) <= 15
        # iteration 20 precedes the first projection and momentum refills
        # the zeros by 40; only the completion row is feasible again
        assert [(r.iteration, r.l0_feasible) for r in metrics.rows] == [
            (20, False), (40, False), (50, True)
        ]

    def test_staged_tightening(self, small_pair):
        train_d, _ = small_pair
        net = small_net(seed=13)
        cfg = TrainConfig(batch_size=20, learning_rate=0.2, max_iterations=90,
                          eval_interval=30, seed=4)
        specs = {
            "fc1": RegSpec(kind="l0_projection", t=60, period=30, stages=((60, 25),))
        }
        net, metrics = train(net, train_d, cfg, reg_specs=specs)
        nnz_by_iter = {r.iteration: r.layer_nnz["fc1"] for r in metrics.rows}
        bias = net.layer("fc1").biases.size
        assert nnz_by_iter[30] <= 60 + bias
        assert nnz_by_iter[60] <= 25 + bias
        assert np.count_nonzero(net.layer("fc1").weights) <= 25

    def test_determinism_bit_exact(self, small_pair):
        train_d, _ = small_pair
        outs = []
        for _ in range(2):
            net = small_net(seed=14)
            cfg = TrainConfig(batch_size=20, learning_rate=0.3, momentum=0.9,
                              max_iterations=150, eval_interval=50, seed=5)
            specs = {"fc1": RegSpec(kind="l1_shrinkage", strength=1e-3)}
            net, _ = train(net, train_d, cfg, reg_specs=specs)
            outs.append(
                b"".join(
                    l.weights.tobytes() + l.biases.tobytes() for l in net.param_layers()
                )
            )
        assert outs[0] == outs[1]

    def test_finetune_from_checkpoint(self, small_pair, tmp_path):
        train_d, test_d = small_pair
        dense = small_net(seed=15)
        cfg = TrainConfig(batch_size=20, learning_rate=0.5, momentum=0.9,
                          max_iterations=300, eval_interval=100, seed=6)
        dense, _ = train(dense, train_d, cfg)
        path = tmp_path / "dense.ckpt"
        save_checkpoint(dense, path, "dense")

        sparse = small_net(seed=99)
        load_checkpoint(path, sparse)
        for a, b in zip(dense.param_layers(), sparse.param_layers()):
            assert a.weights.tobytes() == b.weights.tobytes()
        specs = {"fc1": RegSpec(kind="l0_projection", t=30, period=25)}
        sparse, _ = train(sparse, train_d, replace_cfg(cfg, seed=7, max_iterations=150),
                          reg_specs=specs)
        assert np.count_nonzero(sparse.layer("fc1").weights) <= 30
        # fine-tuned sparse model should stay usable
        assert evaluate_accuracy(sparse, test_d) > 0.3

    def test_nonfinite_aborts(self, small_pair):
        train_d, _ = small_pair
        bad_images = train_d.images.copy()
        bad_images[0] = np.inf
        bad = Dataset(images=bad_images, labels=train_d.labels, class_count=4)
        net = small_net(seed=16)
        cfg = TrainConfig(batch_size=len(bad), learning_rate=0.1, max_iterations=3,
                          eval_interval=1, seed=8)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            train(net, bad, cfg)

    def test_reg_term_value(self, small_pair):
        train_d, _ = small_pair
        lam = 0.01
        cfg = TrainConfig(batch_size=20, learning_rate=0.1, max_iterations=10,
                          eval_interval=10, seed=9)
        penalty = {
            "l2_decay": lambda a: float(np.sum(np.square(a, dtype=np.float64))),
            "l1_subgradient": lambda a: float(np.sum(np.abs(a, dtype=np.float64))),
            "l1_shrinkage": lambda a: float(np.sum(np.abs(a, dtype=np.float64))),
        }
        for (kind, r), biases in itertools.product(penalty.items(), (False, True)):
            net = small_net(seed=17)
            spec = RegSpec(kind=kind, strength=lam, apply_to_biases=biases)
            net, metrics = train(net, train_d, cfg,
                                 reg_specs={n.name: spec for n in net.param_layers()})
            expected = lam * sum(
                r(l.weights) + (r(l.biases) if biases else 0.0) for l in net.param_layers()
            )
            assert metrics.rows[-1].reg_term == pytest.approx(expected, rel=1e-6), (kind, biases)

    def test_threshold_posthoc_at_completion(self, small_pair):
        # the cutoff is a no-op during training, so the thresholded run is the
        # unregularized run with |w| < lambda zeroed at the end
        train_d, _ = small_pair
        cfg = TrainConfig(batch_size=20, learning_rate=0.2, max_iterations=30,
                          eval_interval=10, seed=11)
        lam = 0.5
        plain, _ = train(small_net(seed=19), train_d, cfg)
        specs = {
            "conv1": RegSpec(kind="threshold_posthoc", strength=lam, apply_to_biases=True),
            "fc1": RegSpec(kind="threshold_posthoc", strength=lam),
        }
        cut, _ = train(small_net(seed=19), train_d, cfg, reg_specs=specs)
        for name in ("conv1", "fc1"):
            w = cut.layer(name).weights
            assert not np.any((w != 0) & (np.abs(w) < lam))
            npt.assert_array_equal(w, threshold(plain.layer(name).weights, lam))
        npt.assert_array_equal(cut.layer("conv1").biases,
                               threshold(plain.layer("conv1").biases, lam))
        kept = cut.layer("fc1").biases
        npt.assert_array_equal(kept, plain.layer("fc1").biases)
        assert np.any((kept != 0) & (np.abs(kept) < lam))


class TestMetricsSubsets:
    def test_accuracies_read_the_pinned_subsets(self, small_pair):
        # both sets are longer than eval_max: train accuracy reads a sorted
        # seeded sample of the training set, test accuracy the test set's head
        train_d, test_d = small_pair
        cfg = TrainConfig(batch_size=20, learning_rate=0.05, max_iterations=4,
                          eval_interval=4, eval_max=50, seed=10)
        assert len(train_d) > cfg.eval_max and len(test_d) > cfg.eval_max
        net, metrics = train(small_net(seed=21), train_d, cfg, test_data=test_d)

        def acc(images, labels):
            return float(np.mean(net.predict_probs(images).argmax(axis=1) == labels))

        idx = np.sort(rng_for(cfg.seed, "eval").choice(len(train_d), cfg.eval_max,
                                                         replace=False))
        last = metrics.rows[-1]
        assert last.train_acc == acc(train_d.images[idx], train_d.labels[idx])
        assert last.test_acc == acc(test_d.images[: cfg.eval_max], test_d.labels[: cfg.eval_max])


def replace_cfg(cfg, **kw):
    from dataclasses import replace

    return replace(cfg, **kw)


class TestMetricsCsv:
    def test_header_and_rows(self, small_pair):
        train_d, test_d = small_pair
        net = small_net(seed=18)
        cfg = TrainConfig(batch_size=20, learning_rate=0.2, max_iterations=60,
                          eval_interval=20, seed=10)
        net, metrics = train(net, train_d, cfg, test_data=test_d)
        csv = metrics.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "iteration,loss,reg_term,train_acc,test_acc,conv1_nnz,fc1_nnz"
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert int(first[0]) == 20
        float(first[1]), float(first[3]), float(first[4])
        assert csv.endswith("\n") and "\r" not in csv

    def test_monotone_iterations_enforced(self):
        from sparsenet.training import MetricsLog, MetricsRow

        log = MetricsLog(layer_names=["a"])
        row = MetricsRow(1, 0.0, 0.0, 0.0, 0.0, True, {"a": 1})
        log.append(row)
        with pytest.raises(ValueError):
            log.append(row)
