import pickle

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_net
from sparsenet.datasets import split_validation
from sparsenet.net import build_lenet_small
from sparsenet.protocols import (
    CandidateRecord,
    EnsembleModel,
    SparsityPlan,
    _candidate_task,
    _WORKER_DATA,
    _reduced_cap,
    _worker_init,
    candidate_log_csv,
    candidate_log_from_csv,
    data_starvation_sweep,
    ensemble_accuracy,
    ensemble_predict,
    greedy_sparsify,
    select_plan,
    threshold_compare,
    train_ensemble,
)
from sparsenet.regularizers import RegSpec
from sparsenet.synthetic import make_synthetic_pair
from sparsenet.training import TrainConfig, evaluate_accuracy, train


@pytest.fixture(scope="module")
def task():
    from sparsenet.datasets import subtract_mean

    train_d, test_d = make_synthetic_pair(200, 80, shape=(1, 8, 8), class_count=4,
                                          noise=0.45, max_shift=1, seed=21)
    return subtract_mean(train_d, test_d)


def quick_cfg(**kw):
    base = dict(batch_size=20, learning_rate=0.5, momentum=0.9, max_iterations=60,
                eval_interval=60, eval_max=200, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestReducedCap:
    def test_exact_ceiling_arithmetic(self):
        import math

        for t in range(1, 2000):
            assert _reduced_cap(t) == math.ceil(0.8 * t)

    def test_first_round_candidates(self):
        assert _reduced_cap(100) == 80


class TestSparsityPlan:
    def test_validate_bounds(self):
        net = small_net()
        SparsityPlan({"conv1": 1, "fc1": 1}).validate(net)
        SparsityPlan({"conv1": 1, "fc1": net.layer("fc1").weights.size}).validate(net)
        with pytest.raises(ValueError):
            SparsityPlan({"conv1": 1, "fc1": 0}).validate(net)
        with pytest.raises(ValueError):
            SparsityPlan({"conv1": 1, "fc1": 10**9}).validate(net)

    def test_total_includes_biases(self):
        net = small_net()
        plan = SparsityPlan({"conv1": 10, "fc1": 20})
        bias = sum(l.biases.size for l in net.param_layers())
        assert plan.total_nnz(net) == 30 + bias


class TestGreedy:
    def test_run_and_invariants(self, task):
        train_d, test_d = task
        train_part, val_part = split_validation(train_d, seed=1)
        base = small_net(seed=30)
        base, _ = train(base, train_part, quick_cfg(max_iterations=250, seed=11))

        start_total = base.nnz()
        target = int(start_total * 0.55)
        net, plan, records = greedy_sparsify(
            base, train_part, val_part, target, quick_cfg(seed=50), test_data=test_d
        )

        # final plan satisfied by the returned network
        for name, cap in plan.caps.items():
            assert np.count_nonzero(net.layer(name).weights) <= cap
        assert plan.total_nnz(net) <= target

        # adopted-chain totals strictly decrease by exactly one layer's cut
        adopted = [r for r in records if r.adopted]
        for prev, cur in zip(adopted, adopted[1:]):
            drops = {
                name: prev.plan.caps[name] - cur.plan.caps[name]
                for name in prev.plan.caps
                if prev.plan.caps[name] != cur.plan.caps[name]
            }
            assert len(drops) == 1
            (name, amount), = drops.items()
            assert amount == prev.plan.caps[name] - _reduced_cap(prev.plan.caps[name])
            assert cur.layer_reduced == name
            assert cur.total_nnz == prev.total_nnz - amount

        # every candidate in a round shares the previous round's plan
        # except for exactly one reduced layer
        rounds = {r.round for r in records if r.round > 0}
        for rnd in rounds:
            prev_caps = [r for r in adopted if r.round < rnd][-1].plan.caps
            for rec in (r for r in records if r.round == rnd):
                diff = [k for k in prev_caps if rec.plan.caps[k] != prev_caps[k]]
                assert diff == [rec.layer_reduced]

    def test_jobs1_run_releases_datasets(self, task):
        train_d, _ = task
        train_part, val_part = split_validation(train_d, seed=1)
        base = small_net(seed=32)
        target = base.nnz() - 1
        greedy_sparsify(base, train_part, val_part, target, quick_cfg(max_iterations=5), jobs=1)
        assert _WORKER_DATA == {}

    def test_target_below_feasible_errors(self, task):
        train_d, _ = task
        train_part, val_part = split_validation(train_d, seed=1)
        base = small_net(seed=31)
        with pytest.raises(ValueError, match="minimum feasible"):
            greedy_sparsify(base, train_part, val_part, 1, quick_cfg())

    def test_candidate_result_pickles_without_caches(self):
        # a pool pickles every candidate back to the parent: its weights and
        # biases, not the activations of its training or validation passes
        train_d, val_d = make_synthetic_pair(40, 50, shape=(1, 28, 28), seed=4)
        net = build_lenet_small(seed=0)
        param_bytes = sum(l.weights.nbytes + l.biases.nbytes for l in net.param_layers())
        _worker_init(train_d, val_d)
        cfg = quick_cfg(batch_size=10, max_iterations=2, eval_interval=2, eval_max=10)
        assert len(pickle.dumps(_candidate_task((net, cfg, {})))) < 3 * param_bytes

    def test_log_csv_roundtrip(self, task):
        net = small_net()
        plan = SparsityPlan({"conv1": 30, "fc1": 100})
        rec = CandidateRecord(
            round=1, layer_reduced="fc1", plan=plan, total_nnz=plan.total_nnz(net),
            val_acc=0.5, test_acc=float("nan"), memory_bytes=1234, adopted=True,
        )
        csv = candidate_log_csv([rec], ["conv1", "fc1"])
        back = candidate_log_from_csv(csv)
        assert back[0].plan.caps == plan.caps
        assert back[0].val_acc == 0.5
        assert back[0].adopted


class TestThresholdCompare:
    def test_zero_delta_equals_dense(self, task):
        train_d, test_d = task
        dense = small_net(seed=32)
        dense, _ = train(dense, train_d, quick_cfg(max_iterations=250, seed=12))
        dense_acc = evaluate_accuracy(dense, test_d)
        rows = threshold_compare(dense, [0.0], train_d, test_d, quick_cfg(seed=13))
        delta, nnz, acc_thr, acc_ret = rows[0]
        assert delta == 0.0
        assert nnz == dense.nnz()
        assert acc_thr == pytest.approx(dense_acc)
        assert acc_ret == pytest.approx(dense_acc)

    def test_nnz_non_increasing_in_delta(self, task):
        train_d, test_d = task
        dense = small_net(seed=33)
        dense, _ = train(dense, train_d, quick_cfg(max_iterations=250, seed=14))
        grid = [0.0, 0.01, 0.05, 0.1, 0.3]
        rows = threshold_compare(dense, grid, train_d, test_d, quick_cfg(seed=15))
        nnzs = [r[1] for r in rows]
        assert all(a >= b for a, b in zip(nnzs, nnzs[1:]))

    def test_zero_delta_with_dense_zeros_does_not_retrain(self, task, monkeypatch):
        train_d, test_d = task
        dense = small_net(seed=34)
        dense.layer("fc1").weights[0, :5] = 0.0
        dense_acc = evaluate_accuracy(dense, test_d)

        def no_train(*args, **kwargs):
            raise AssertionError("delta 0.0 removes nothing, so nothing retrains")

        monkeypatch.setattr("sparsenet.protocols.train", no_train)
        rows = threshold_compare(dense, [0.0], train_d, test_d, quick_cfg(seed=16))
        assert rows == [(0.0, dense.nnz(), dense_acc, dense_acc)]

    def test_empty_grid_errors(self, task):
        train_d, test_d = task
        with pytest.raises(ValueError):
            threshold_compare(small_net(), [], train_d, test_d, quick_cfg())


def _fake_log(net, caps_levels):
    """Candidate records with the given cap scalings of the dense sizes."""
    records = []
    dense = {l.name: l.weights.size for l in net.param_layers()}
    for i, scale in enumerate(caps_levels):
        caps = {k: max(1, int(v * scale)) for k, v in dense.items()}
        plan = SparsityPlan(caps)
        records.append(
            CandidateRecord(
                round=i, layer_reduced="-", plan=plan, total_nnz=plan.total_nnz(net),
                val_acc=0.5 + scale / 10, test_acc=float("nan"), memory_bytes=0,
                adopted=False,
            )
        )
    return records


class TestEnsembles:
    def test_select_plan_prefers_accuracy_under_cap(self):
        net = small_net()
        records = _fake_log(net, [1.0, 0.5, 0.25])
        total = net.param_count()
        plan = select_plan(records, total, net)
        assert plan.caps == records[0].plan.caps
        plan_half = select_plan(records, records[1].total_nnz, net)
        assert plan_half.caps == records[1].plan.caps
        with pytest.raises(ValueError, match="no logged plan"):
            select_plan(records, 10, net)

    def test_single_member_is_baseline_on_original_data(self, task):
        train_d, test_d = task

        def build(seed):
            return small_net(seed=seed)

        records = _fake_log(build(0), [1.0, 0.5])
        cfg = quick_cfg(max_iterations=150, seed=60)
        ens = train_ensemble(1, build(0).param_count(), records, train_d, cfg, build)
        solo = build(cfg.seed)
        solo, _ = train(solo, train_d, cfg,
                        reg_specs=records[0].plan.reg_specs(100))
        npt.assert_array_equal(ens.members[0].layer("fc1").weights,
                               solo.layer("fc1").weights)
        pred_e = ensemble_predict(ens, test_d.images)
        pred_s = solo.predict_probs(test_d.images).argmax(axis=1)
        npt.assert_array_equal(pred_e, pred_s)

    def test_budget_invariant_after_training(self, task):
        train_d, _ = task

        def build(seed):
            return small_net(seed=seed)

        budget = build(0).param_count()
        records = _fake_log(build(0), [1.0, 0.45, 0.2])
        ens = train_ensemble(3, budget, records, train_d,
                             quick_cfg(max_iterations=80, seed=61), build)
        assert ens.total_nnz() <= budget
        for member, plan in zip(ens.members, ens.plans):
            for name, cap in plan.caps.items():
                assert np.count_nonzero(member.layer(name).weights) <= cap

    def test_identical_members_match_single_model(self, task):
        _, test_d = task
        net = small_net(seed=40)
        ens = EnsembleModel(members=[net, net.clone()], plans=[None, None],
                            budget=2 * net.param_count())
        single = net.predict_probs(test_d.images).argmax(axis=1)
        npt.assert_array_equal(ensemble_predict(ens, test_d.images), single)

    def test_opposite_scores_cancel(self):
        class Stub:
            def __init__(self, probs):
                self._p = probs

            def predict_probs(self, images):
                return np.tile(self._p, (len(images), 1))

            def nnz(self):
                return 1

        up = Stub(np.array([0.6, 0.2, 0.2]))
        down = Stub(np.array([0.0, 0.4, 0.6]))
        ens = EnsembleModel(members=[up, down], plans=[None, None], budget=10)
        pred = ensemble_predict(ens, np.zeros((3, 1)))
        # means: [0.3, 0.3, 0.4] -> class 2
        npt.assert_array_equal(pred, [2, 2, 2])
        # tie case: lowest class index wins
        tie = EnsembleModel(
            members=[Stub(np.array([0.5, 0.5, 0.0])), Stub(np.array([0.5, 0.5, 0.0]))],
            plans=[None, None], budget=10,
        )
        npt.assert_array_equal(ensemble_predict(tie, np.zeros((2, 1))), [0, 0])

    def test_member_order_invariance(self, task):
        _, test_d = task
        a, b = small_net(seed=41), small_net(seed=42)
        e1 = EnsembleModel(members=[a, b], plans=[None, None], budget=10**9)
        e2 = EnsembleModel(members=[b, a], plans=[None, None], budget=10**9)
        npt.assert_array_equal(
            ensemble_predict(e1, test_d.images), ensemble_predict(e2, test_d.images)
        )

    def test_empty_ensemble_errors(self):
        with pytest.raises(ValueError):
            EnsembleModel(members=[], plans=[], budget=10)


class TestDataStarvation:
    def test_sweep_rows_and_full_fraction(self, task):
        train_d, test_d = task

        def build(seed):
            return small_net(seed=seed)

        sparse_specs = {"fc1": RegSpec(kind="l0_projection", t=40, period=50)}
        rows = data_starvation_sweep([0.25, 1.0], quick_cfg(max_iterations=150, seed=70), {},
                                     sparse_specs, train_d, test_d, build, seed=3)
        assert len(rows) == 4
        assert {r[1] for r in rows} == {"dense", "sparse"}
        for fraction, regime, train_acc, test_acc in rows:
            assert 0.0 <= train_acc <= 1.0 and 0.0 <= test_acc <= 1.0
        # fraction=1.0 uses the whole training set
        assert rows[2][0] == 1.0

    def test_rejects_bad_fraction(self, task):
        train_d, test_d = task
        with pytest.raises(ValueError):
            data_starvation_sweep([0.0], quick_cfg(), {}, {},
                                  train_d, test_d, lambda seed: small_net(seed=seed))
