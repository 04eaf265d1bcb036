import pickle
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsenet.checkpoint as checkpoint
import sparsenet.layers as layers
from gradcheck import check_network_gradients
from sparsenet.checkpoint import (
    ENCODINGS,
    checkpoint_overhead_bytes,
    encode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from sparsenet.errors import CheckpointError, ShapeError
from sparsenet.layers import COLUMN_BYTES, Conv2d, Linear, MaxPool2d, ReLU, SoftmaxCrossEntropy
from sparsenet.memory import format_bytes, report
from sparsenet.net import (
    Network,
    build_cifar_quick,
    build_lenet_small,
    build_topology,
)
from sparsenet.regularizers import l0_project
from sparsenet.seeding import rng_for
from sparsenet.synthetic import make_synthetic_pair
from sparsenet.training import TrainConfig, train


def toy_net(seed=0, dtype=np.float64):
    """2 conv + 1 fc net on (2, 8, 8) inputs, 4 classes."""
    rng = rng_for(seed, "toy")
    layers = [
        Conv2d("c1", 2, 3, 3, pad=1, init_std=0.2, dtype=dtype, rng=rng),
        MaxPool2d(2),
        ReLU(),
        Conv2d("c2", 3, 4, 3, init_std=0.2, dtype=dtype, rng=rng),
        ReLU(),
        Linear("f1", 4 * 2 * 2, 4, init_std=0.2, dtype=dtype, rng=rng),
    ]
    return Network(layers, SoftmaxCrossEntropy(), "toy", (2, 8, 8))


class TestTopologies:
    def test_lenet_small_shapes(self):
        net = build_lenet_small(seed=0)
        assert net.input_shape == (1, 28, 28)
        probs = net.forward(np.zeros((2, 1, 28, 28), dtype=np.float32))
        assert probs.shape == (2, 10)
        assert net.param_count() == 431_080

    def test_cifar_quick_shapes(self):
        net = build_cifar_quick(seed=0)
        assert net.input_shape == (3, 32, 32)
        probs = net.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert probs.shape == (2, 10)
        assert net.param_count() == 145_578

    def test_fc_dominates_parameter_count(self):
        # lenet: fc layers are >90% of all parameters; cifar_quick: fc1 is
        # the single largest layer
        lenet = build_lenet_small(seed=0)
        counts = {l.name: l.weights.size + l.biases.size for l in lenet.param_layers()}
        fc_total = sum(v for k, v in counts.items() if k.startswith("fc"))
        assert fc_total > 0.9 * lenet.param_count()

        quick = build_cifar_quick(seed=0)
        counts = {l.name: l.weights.size + l.biases.size for l in quick.param_layers()}
        assert max(counts, key=counts.get) == "fc1"

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            build_topology("alexnet")

    def test_unknown_layer_name(self):
        with pytest.raises(KeyError, match="no parameterized layer named 'fc9'"):
            build_lenet_small().layer("fc9")


class TestForward:
    def test_zero_weights_give_uniform_probs(self):
        net = toy_net()
        for layer in net.param_layers():
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        probs = net.forward(np.random.default_rng(0).standard_normal((5, 2, 8, 8)))
        npt.assert_allclose(probs, 1.0 / 4.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        net = toy_net()
        probs = net.forward(np.random.default_rng(1).standard_normal((7, 2, 8, 8)))
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_batch_permutation_equivariance(self):
        net = toy_net()
        x = np.random.default_rng(2).standard_normal((6, 2, 8, 8))
        perm = np.array([3, 1, 5, 0, 4, 2])
        a = net.forward(x)[perm]
        b = net.forward(x[perm])
        npt.assert_allclose(a, b, atol=1e-12)

    def test_shape_mismatch(self):
        net = toy_net()
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 3, 8, 8)))

    def test_deterministic(self):
        net = toy_net()
        x = np.random.default_rng(3).standard_normal((4, 2, 8, 8))
        npt.assert_array_equal(net.forward(x), net.forward(x))


class TestBackward:
    def test_requires_forward_first(self):
        net = toy_net()
        with pytest.raises(RuntimeError, match="loss"):
            net.loss(np.array([0, 1]))
        with pytest.raises(RuntimeError):
            net.backward(np.array([0, 1]))

    def test_whole_net_finite_differences(self):
        net = toy_net(seed=5)
        rng = rng_for(5, "fd")
        x = rng.standard_normal((3, 2, 8, 8))
        y = rng.integers(0, 4, size=3)
        errs = check_network_gradients(net, x, y)
        worst = max(max(pair) for pair in errs.values())
        assert worst <= 1e-4

    def test_duplicated_example_mean_invariance(self):
        net = toy_net()
        x = np.random.default_rng(4).standard_normal((1, 2, 8, 8))
        y = np.array([2])
        net.forward(x)
        single = net.backward(y)
        net.forward(np.concatenate([x, x]))
        double = net.backward(np.array([2, 2]))
        for name in single:
            npt.assert_allclose(single[name][0], double[name][0], atol=1e-12)


def _full_backward(net, x, y):
    """{layer name: (grad_w, grad_b)} from a backward through every layer
    that also builds the gradient of the input batch."""
    ctxs = []
    for layer in net.layers:
        x, ctx = layer.forward(x)
        ctxs.append(ctx)
    d = net.loss_layer.backward(net.loss_layer.forward(x), y)
    grads = []
    for layer, ctx in zip(reversed(net.layers), reversed(ctxs)):
        d, g = layer.backward(d, ctx)
        if g is not None:
            grads.append((layer.name, g))
    return dict(reversed(grads))


def _assert_same_grad_bytes(got, want):
    assert list(got) == list(want)
    for name, (grad_w, grad_b) in want.items():
        assert got[name][0].dtype == grad_w.dtype and got[name][1].dtype == grad_b.dtype
        assert got[name][0].tobytes() == grad_w.tobytes(), name
        assert got[name][1].tobytes() == grad_b.tobytes(), name


class TestFirstLayerInputGradient:
    """Network.backward asks layers[0] for its parameter gradients only:
    nothing reads the gradient of the input batch."""

    @pytest.mark.parametrize("topology", ["lenet_small", "cifar_quick"])
    def test_never_built(self, topology, monkeypatch):
        net = build_topology(topology, seed=2)
        rng = rng_for(2, "first-layer", topology)
        x = rng.standard_normal((7, *net.input_shape)).astype(np.float32)
        y = rng.integers(0, 10, size=7)
        full = _full_backward(net, x, y)
        convs = [l for l in net.layers if isinstance(l, Conv2d)]
        assert net.layers[0] is convs[0]
        calls = []

        def spy(dcols, padded_shape, k):
            calls.append(padded_shape)
            return col2im(dcols, padded_shape, k)

        col2im = layers._col2im
        monkeypatch.setattr(layers, "_col2im", spy)
        for _ in range(2):
            calls.clear()
            net.forward(x)
            _assert_same_grad_bytes(net.backward(y), full)
            assert len(calls) == len(convs) - 1

    @pytest.mark.parametrize("first", ["pool", "relu", "linear"])
    def test_first_layer_not_a_conv(self, first):
        rng = rng_for(3, "first-layer", first)
        conv = Conv2d("c", 2, 3, 3, pad=1, init_std=0.2, dtype=np.float64, rng=rng)
        fc = Linear("f", 3 * 4 * 4, 4, init_std=0.2, dtype=np.float64, rng=rng)
        stack = {
            "pool": [MaxPool2d(2), conv, ReLU(), fc],
            "relu": [ReLU(), conv, MaxPool2d(2), fc],
            "linear": [Linear("f0", 2 * 8 * 8, 3 * 4 * 4, init_std=0.2, dtype=np.float64,
                              rng=rng), ReLU(), fc],
        }[first]
        net = Network(stack, SoftmaxCrossEntropy(), "toy", (2, 8, 8))
        x = rng.standard_normal((5, 2, 8, 8))
        y = rng.integers(0, 4, size=5)
        full = _full_backward(net, x, y)
        net.forward(x)
        _assert_same_grad_bytes(net.backward(y), full)


def _assert_holds_only_parameters(net):
    for layer in (*net.layers, net.loss_layer):
        arrays = {k for k, v in vars(layer).items() if isinstance(v, np.ndarray)}
        assert arrays <= {"weights", "biases"}
    param_bytes = sum(l.weights.nbytes + l.biases.nbytes for l in net.param_layers())
    assert len(pickle.dumps(net)) < 1.25 * param_bytes


@pytest.mark.parametrize("topology", ["lenet_small", "cifar_quick"])
class TestNoActivationState:
    """A network between steps costs its parameters and nothing else."""

    def _setup(self, topology):
        net = build_topology(topology)
        train_d, test_d = make_synthetic_pair(40, 30, shape=net.input_shape, seed=2)
        return net, train_d, test_d

    def test_after_train_with_test_data(self, topology):
        net, train_d, test_d = self._setup(topology)
        cfg = TrainConfig(batch_size=10, max_iterations=3, eval_interval=2, eval_max=40)
        net, _ = train(net, train_d, cfg, test_data=test_d)
        _assert_holds_only_parameters(net)

    def test_after_predict_probs(self, topology):
        net, _, test_d = self._setup(topology)
        net.predict_probs(test_d.images)
        _assert_holds_only_parameters(net)

    def test_after_forward_backward(self, topology):
        net, train_d, _ = self._setup(topology)
        net.forward(train_d.images[:20])
        net.backward(train_d.labels[:20])
        _assert_holds_only_parameters(net)

    def test_backward_consumes_the_forward(self, topology):
        net, train_d, _ = self._setup(topology)
        net.forward(train_d.images[:5])
        net.backward(train_d.labels[:5])
        with pytest.raises(RuntimeError):
            net.backward(train_d.labels[:5])

    def test_predict_probs_checks_input_shape(self, topology):
        net, train_d, _ = self._setup(topology)
        with pytest.raises(ShapeError):
            net.predict_probs(train_d.images[:, :, 1:])


# what predict_probs may hold beside its largest column buffer: that conv's
# input, its GEMM product and biased sum, and the output array (measured
# at a 16 MiB budget: 2.6 MB on cifar_quick, 4.9 MB on lenet_small)
PREDICT_SLACK_BYTES = 8 * 2**20


@pytest.mark.parametrize("topology", ["lenet_small", "cifar_quick"])
class TestBoundedPredict:
    """predict_probs runs every layer in blocks of predict_block() images
    and gives the bytes of a plain loop of forward() over those blocks."""

    def _setup(self, topology, n=450):
        net = build_topology(topology, seed=4)
        for layer in net.param_layers():  # away from near-uniform probabilities
            layer.weights *= 10
        images = rng_for(4, "bounded-predict").standard_normal((n, *net.input_shape))
        return net, images.astype(np.float32)

    def test_equals_blocked_forward(self, topology, monkeypatch):
        net, images = self._setup(topology)
        seen = []

        def spy(xp, k):
            cols = im2col(xp, k)
            seen.append(cols.nbytes)
            return cols

        im2col = layers._im2col
        monkeypatch.setattr(layers, "_im2col", spy)
        net.predict_probs(images[:1])
        per_image = max(seen)  # the largest column buffer of one image
        b = net.predict_block()
        assert b == COLUMN_BYTES // per_image and 1 < b < len(images)
        for n in (1, b - 1, b, b + 1, 2 * b + 1, 450):
            seen.clear()
            probs = net.predict_probs(images[:n])
            assert max(seen) == min(n, b) * per_image <= COLUMN_BYTES
            expect = np.concatenate([net.forward(images[i : min(i + b, n)])
                                     for i in range(0, n, b)])
            assert probs.dtype == expect.dtype and probs.shape == expect.shape
            assert probs.tobytes() == expect.tobytes(), n

    def test_traced_peak_within_budget(self, topology):
        net, images = self._setup(topology)
        net.predict_probs(images[:1])  # first-call allocations are not the working set
        tracemalloc.start()
        try:
            net.predict_probs(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < COLUMN_BYTES + PREDICT_SLACK_BYTES

    def test_empty_input(self, topology):
        net, images = self._setup(topology, n=0)
        probs = net.predict_probs(images)
        assert probs.shape == (0, 10) and probs.dtype == net.dtype


def test_predict_probs_without_conv_is_one_forward():
    """With no conv to bound a block, predict_probs runs the whole call as
    one block: the bytes of one forward() over every image."""
    rng = rng_for(5, "predict-no-conv")
    stack = [Linear("f1", 64, 32, init_std=0.5, rng=rng), ReLU(),
             Linear("f2", 32, 10, init_std=0.5, rng=rng)]
    net = Network(stack, SoftmaxCrossEntropy(), "mlp", (1, 8, 8))
    images = rng.standard_normal((450, 1, 8, 8)).astype(np.float32)
    assert net.predict_probs(images).tobytes() == net.forward(images).tobytes()


# what one cifar_quick forward plus backward at batch 50 may hold beside a
# COLUMN_BYTES column buffer, fixed before the first measurement: conv2's
# row-padded input-gradient columns (wp / ow = 20 / 16 of its 16 MiB
# budget: 4 MiB more), the activations and contexts the batch keeps
# (~14 MB) and a block's GEMM products and gradient copies (~4 MB)
TRAIN_SLACK_BYTES = 24 * 2**20


class TestBoundedTraining:
    """A training step builds its conv columns in blocks too: its traced
    peak does not grow with the column bytes of the whole batch (conv2's
    alone are 41 MB at batch 50, once in forward and once in backward)."""

    def test_traced_peak_within_budget(self):
        net = build_cifar_quick(seed=4)
        rng = rng_for(4, "bounded-train")
        x = rng.standard_normal((50, *net.input_shape)).astype(np.float32)
        y = rng.integers(0, 10, size=50)
        net.forward(x)  # first-call allocations are not the working set
        net.backward(y)
        tracemalloc.start()
        try:
            net.forward(x)
            net.backward(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < COLUMN_BYTES + TRAIN_SLACK_BYTES


class TestCheckpoints:
    @pytest.mark.parametrize("encoding", ["dense", "bitmask", "indexed"])
    def test_roundtrip_bit_exact(self, tmp_path, encoding):
        net = toy_net(seed=7, dtype=np.float32)
        # make it sparse so the sparse encodings have work to do
        for layer in net.param_layers():
            layer.weights = l0_project(layer.weights, max(1, layer.weights.size // 3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, encoding)
        other = toy_net(seed=8, dtype=np.float32)
        load_checkpoint(path, other)
        for a, b in zip(net.param_layers(), other.param_layers()):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()

    def test_roundtrip_float64(self, tmp_path):
        net = toy_net(seed=9, dtype=np.float64)
        path = tmp_path / "m64.ckpt"
        save_checkpoint(net, path, "dense")
        other = toy_net(seed=1, dtype=np.float64)
        load_checkpoint(path, other)
        for a, b in zip(net.param_layers(), other.param_layers()):
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_topology_reload_without_target(self, tmp_path):
        net = build_lenet_small(seed=3)
        path = tmp_path / "lenet.ckpt"
        save_checkpoint(net, path, "dense")
        loaded = load_checkpoint(path)
        assert loaded.topology == "lenet_small"
        for a, b in zip(net.param_layers(), loaded.param_layers()):
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_bitmask_popcount_equals_values(self, tmp_path):
        net = toy_net(dtype=np.float32)
        layer = net.param_layers()[0]
        layer.weights = l0_project(layer.weights, 5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, "bitmask")
        raw = path.read_bytes()
        # reload and confirm the recorded nnz matches actual nonzeros
        reloaded = load_checkpoint(path, toy_net(seed=2, dtype=np.float32))
        flat = np.concatenate(
            [reloaded.param_layers()[0].weights.ravel(), reloaded.param_layers()[0].biases]
        )
        assert np.count_nonzero(flat) == 5 + np.count_nonzero(
            reloaded.param_layers()[0].biases
        )
        assert len(raw) > 0

    @pytest.mark.parametrize("encoding", ["dense", "bitmask", "indexed"])
    def test_file_size_matches_memory_report(self, tmp_path, encoding):
        net = toy_net(seed=11, dtype=np.float32)
        for layer in net.param_layers():
            layer.weights = l0_project(layer.weights, max(1, layer.weights.size // 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, encoding)
        rep = report(net)
        payload_total = rep.total(encoding)
        assert path.stat().st_size == payload_total + checkpoint_overhead_bytes(net)

    @pytest.mark.parametrize("encoding", ["dense", "bitmask", "indexed"])
    def test_float64_file_size_matches_memory_report(self, tmp_path, encoding):
        net = build_lenet_small(seed=3, dtype=np.float64)
        fc1 = net.layer("fc1")
        fc1.weights = l0_project(fc1.weights, fc1.weights.size // 10)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, encoding)
        expected = checkpoint_overhead_bytes(net, encoding) + report(net).total(encoding)
        assert path.stat().st_size == expected

    def test_indexed_payload_is_8_bytes_per_nonzero(self, tmp_path):
        net = toy_net(seed=12, dtype=np.float32)
        for layer in net.param_layers():
            layer.weights = l0_project(layer.weights, 3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, "indexed")
        assert path.stat().st_size == checkpoint_overhead_bytes(net) + 8 * net.nnz()

    def test_best_encoding_picks_cheapest(self, tmp_path):
        net = toy_net(seed=13, dtype=np.float32)
        net.param_layers()[0].weights = l0_project(net.param_layers()[0].weights, 2)
        path = tmp_path / "best.ckpt"
        save_checkpoint(net, path, "best")
        rep = report(net)
        assert path.stat().st_size == rep.total_best_bytes + checkpoint_overhead_bytes(net)

    def test_payload_size_mismatch_raises(self, tmp_path, monkeypatch):
        # a raised error, not an assert, so the check also holds under python -O
        monkeypatch.setattr(checkpoint, "_encode_payload", lambda flat, enc, vb: b"")
        with pytest.raises(CheckpointError, match="memory model"):
            save_checkpoint(toy_net(dtype=np.float32), tmp_path / "x.ckpt", "dense")
        assert not (tmp_path / "x.ckpt").exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE" + b"\0" * 50)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        net = toy_net(dtype=np.float32)
        p = tmp_path / "x.ckpt"
        save_checkpoint(net, p, "dense")
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p, toy_net(dtype=np.float32))

    def test_truncated_payload(self, tmp_path):
        net = toy_net(dtype=np.float32)
        p = tmp_path / "x.ckpt"
        save_checkpoint(net, p, "dense")
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p, toy_net(dtype=np.float32))

    def test_nnz_inconsistency(self, tmp_path):
        net = toy_net(dtype=np.float32)
        p = tmp_path / "x.ckpt"
        save_checkpoint(net, p, "dense")
        raw = bytearray(p.read_bytes())
        # corrupt the first layer's nnz field: it sits right after the
        # fixed header and the first layer's name/encoding/shape block
        from sparsenet.checkpoint import MAGIC, _layer_header, _pack_str

        offset = len(MAGIC) + 3 + len(_pack_str(net.topology)) + 4
        offset += len(_layer_header(net.param_layers()[0], "dense"))
        raw[offset : offset + 8] = (12345).to_bytes(8, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="nnz"):
            load_checkpoint(p, toy_net(dtype=np.float32))

    @pytest.mark.parametrize("encoding,code", [("dense", 0), ("bitmask", 1), ("indexed", 2)])
    def test_encoding_byte_on_disk(self, lenet_blobs, encoding, code):
        net = build_lenet_small()
        blob, _ = lenet_blobs[encoding]
        for layer, pos in zip(net.param_layers(), _layer_offsets(net, blob)):
            assert blob[pos + len(checkpoint._pack_str(layer.name))] == code

    def test_unknown_encoding_name(self):
        with pytest.raises(CheckpointError, match="unknown encoding 'sparse'"):
            encode_checkpoint(build_lenet_small(), "sparse")

    def test_unknown_encoding_byte(self, tmp_path, lenet_blobs):
        net = build_lenet_small()
        raw = bytearray(lenet_blobs["dense"][0])
        raw[_layer_offsets(net, raw)[0] + len(checkpoint._pack_str("conv1"))] = 3
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unknown encoding code 3"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path, lenet_blobs):
        p = tmp_path / "x.ckpt"
        p.write_bytes(lenet_blobs["indexed"][0] + b"\0")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(p)

    @pytest.mark.parametrize("encoding", ["dense", "bitmask", "indexed"])
    def test_decode_checks_nnz_against_payload(self, encoding):
        # popcount, nonzero count and pair count; load_checkpoint's length
        # check already rejects a wrong indexed nnz, so the pair count is
        # reached only by calling the decoder directly
        flat = np.array([0.0, 1.5, 0.0, -2.0, 3.0], dtype=np.float32)
        payload = checkpoint._encode_payload(flat, encoding, 4)
        npt.assert_array_equal(checkpoint._decode_payload(payload, encoding, 5, 3, 4), flat)
        with pytest.raises(CheckpointError, match="nnz inconsistency"):
            checkpoint._decode_payload(payload, encoding, 5, 2, 4)

    def test_indexed_nnz_disagreeing_with_pair_count(self, tmp_path, lenet_blobs):
        # one pair fewer in the header than in the payload: the payload
        # length no longer matches the indexed encoding of that nnz
        net = build_lenet_small()
        raw = bytearray(lenet_blobs["indexed"][0])
        head = checkpoint._layer_header(net.layer("conv1"), "indexed")
        pos = _layer_offsets(net, raw)[0] + len(head)
        (nnz,) = struct.unpack_from("<Q", raw, pos)
        struct.pack_into("<Q", raw, pos, nnz - 1)
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="payload length"):
            load_checkpoint(p)


def _layer_offsets(net, blob):
    """Offset of each layer's record (its name field) in `blob`, a checkpoint of `net`."""
    pos = len(checkpoint.MAGIC) + 3 + len(checkpoint._pack_str(net.topology)) + 4
    starts = []
    for layer in net.param_layers():
        starts.append(pos)
        head = len(checkpoint._layer_header(layer, "dense")) + 16
        (payload_len,) = struct.unpack_from("<Q", blob, pos + head - 8)
        pos += head + payload_len
    assert pos == len(blob)
    return starts


def _header_offsets(net, blob):
    """Offsets of every byte of `blob` (a checkpoint of `net`) outside the payloads."""
    starts = _layer_offsets(net, blob)
    offsets = list(range(starts[0]))
    for layer, pos in zip(net.param_layers(), starts):
        offsets += range(pos, pos + len(checkpoint._layer_header(layer, "dense")) + 16)
    return offsets


@pytest.fixture(scope="module")
def lenet_blobs():
    """{encoding: (checkpoint bytes, header offsets)} of a sparse lenet_small."""
    net = build_lenet_small(seed=3)
    for layer in net.param_layers():
        layer.weights = l0_project(layer.weights, 40)
    blobs = {enc: encode_checkpoint(net, enc) for enc in ENCODINGS}
    return {enc: (blob, _header_offsets(net, blob)) for enc, blob in blobs.items()}


class TestCorruptCheckpoints:
    """Whatever the damage, load_checkpoint raises CheckpointError or nothing."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_raises_checkpoint_error(self, tmp_path, lenet_blobs, data):
        blob, _ = lenet_blobs[data.draw(st.sampled_from(ENCODINGS))]
        p = tmp_path / "cut.ckpt"
        p.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bit_flip_raises_only_checkpoint_error(self, tmp_path, lenet_blobs, data):
        blob, header = lenet_blobs[data.draw(st.sampled_from(ENCODINGS))]
        offset = data.draw(st.sampled_from(header) | st.integers(0, len(blob) - 1))
        raw = bytearray(blob)
        raw[offset] ^= 1 << data.draw(st.integers(0, 7))
        p = tmp_path / "flip.ckpt"
        p.write_bytes(bytes(raw))
        target = build_lenet_small() if data.draw(st.booleans()) else None
        try:
            load_checkpoint(p, target)
        except CheckpointError:
            pass

    @pytest.mark.parametrize("byte,match", [(0xEC, "utf-8"), (ord("m"), "unknown topology")])
    def test_corrupt_topology_name(self, tmp_path, byte, match):
        raw = bytearray(encode_checkpoint(build_lenet_small(), "dense"))
        raw[len(checkpoint.MAGIC) + 5] = byte  # first byte of "lenet_small"
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)

    def test_topology_name_mismatch_with_target(self, tmp_path):
        raw = bytearray(encode_checkpoint(build_lenet_small(), "dense"))
        raw[len(checkpoint.MAGIC) + 5] = ord("m")  # "lenet_small" -> "menet_small"
        p = tmp_path / "x.ckpt"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="topology mismatch"):
            load_checkpoint(p, build_lenet_small())
