import numpy as np
import pytest

from sparsenet import memory
from sparsenet.memory import (
    MB,
    best_format,
    bytes_bitmask,
    bytes_dense,
    bytes_indexed,
    format_bytes,
    render_table,
    report,
    report_from_counts,
    to_csv,
)
from sparsenet.net import build_cifar_quick
from sparsenet.regularizers import l0_project

# AlexNet-family layer profile (weights + biases per layer); the classic
# 61M-parameter ImageNet network whose published size figures anchor the
# byte formulas below.
IMAGENET_PROFILE = {
    "conv1": 96 * 3 * 11 * 11 + 96,
    "conv2": 256 * 48 * 5 * 5 + 256,
    "conv3": 384 * 256 * 3 * 3 + 384,
    "conv4": 384 * 192 * 3 * 3 + 384,
    "conv5": 256 * 192 * 3 * 3 + 256,
    "fc6": 9216 * 4096 + 4096,
    "fc7": 4096 * 4096 + 4096,
    "fc8": 4096 * 1000 + 1000,
}


class TestFormulas:
    def test_reference_point(self):
        assert bytes_dense(1000) == 4000
        assert bytes_bitmask(1000, 100) == 525
        assert bytes_indexed(100) == 800
        assert best_format(1000, 100) == ("bitmask", 525)

    def test_fully_dense_layer_prefers_dense(self):
        for n in (1, 8, 9, 1000):
            fmt, cost = best_format(n, n)
            assert fmt == "dense"
            assert cost <= bytes_bitmask(n, n)
            assert cost <= bytes_indexed(n)

    def test_nnz_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            bytes_bitmask(10, 11)

    def test_monotone_in_nnz(self):
        n = 4096
        bitmask = [bytes_bitmask(n, k) for k in range(0, n + 1, 64)]
        indexed = [bytes_indexed(k) for k in range(0, n + 1, 64)]
        assert all(a <= b for a, b in zip(bitmask, bitmask[1:]))
        assert all(a <= b for a, b in zip(indexed, indexed[1:]))

    def test_indexed_vs_dense_crossover(self):
        # indexed beats dense exactly when 8*nnz < 4*N, i.e. nnz/N < 1/2
        n = 1024
        assert bytes_indexed(n // 2 - 1) < bytes_dense(n)
        assert bytes_indexed(n // 2) == bytes_dense(n)

    def test_bitmask_vs_indexed_crossover(self):
        # bitmask beats indexed exactly when ceil(N/8) < 4*nnz
        n = 1024
        for nnz in range(0, 200):
            expect = (n + 7) // 8 < 4 * nnz
            assert (bytes_bitmask(n, nnz) < bytes_indexed(nnz)) == expect

    @pytest.mark.parametrize("call", [
        lambda: format_bytes("dense", -1, 0),
        lambda: format_bytes("bitmask", 10, -1),
        lambda: format_bytes("indexed", 10, 11),
        lambda: format_bytes("csr", 10, 1),
        lambda: bytes_indexed(-1),
    ], ids=["negative_n", "negative_nnz", "nnz_above_n", "unknown_format", "indexed_negative"])
    def test_bad_counts_and_formats_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_best_format_ties_follow_format_order(self):
        # 31 of 32: dense 128 == bitmask 4 + 124; 1 of 32: bitmask 4 + 4 == indexed 8
        assert best_format(32, 31) == ("dense", 128) == ("dense", bytes_bitmask(32, 31))
        assert best_format(32, 1) == ("bitmask", 8) == ("bitmask", bytes_indexed(1))
        for n in range(0, 65):
            for nnz in range(n + 1):
                costs = [format_bytes(f, n, nnz) for f in memory.FORMATS]
                fmt, cost = best_format(n, nnz)
                assert cost == min(costs)
                assert fmt == memory.FORMATS[costs.index(cost)]

    def test_double_precision_mode(self):
        assert bytes_dense(10, value_bytes=8) == 80
        assert bytes_bitmask(16, 2, value_bytes=8) == 2 + 16
        assert bytes_indexed(3, value_bytes=8) == 36


class TestPublishedSizes:
    def test_dense_61m_is_233mb(self):
        mb = bytes_dense(61_000_000) / MB
        assert abs(mb - 233.0) < 1.0

    def test_profile_dense_total(self):
        total = sum(IMAGENET_PROFILE.values())
        assert total == 60_965_224
        assert abs(bytes_dense(total) / MB - 233.0) < 1.0

    def test_sparse_profile_indexed_is_58mb(self):
        # fc layers sparsified (400k nonzeros in fc8, 3M in each of fc6/fc7)
        # and stored indexed, conv layers kept dense
        sparse_fc = {"fc6": 3_000_000 + 4096, "fc7": 3_000_000 + 4096, "fc8": 400_000 + 1000}
        total = 0
        for name, n in IMAGENET_PROFILE.items():
            if name in sparse_fc:
                total += bytes_indexed(sparse_fc[name])
            else:
                total += bytes_dense(n)
        assert abs(total / MB - 58.0) < 1.0
        # "all but 14% of the weights set to zero"
        nnz = sum(sparse_fc.values()) + sum(
            n for name, n in IMAGENET_PROFILE.items() if name not in sparse_fc
        )
        assert nnz / sum(IMAGENET_PROFILE.values()) == pytest.approx(0.14, abs=0.01)


class TestReport:
    def test_selected_format_is_minimal(self):
        rng = np.random.default_rng(0)
        counts = [(f"l{i}", int(n), int(rng.integers(0, n + 1)))
                  for i, n in enumerate(rng.integers(1, 10_000, size=50))]
        rep = report_from_counts(counts)
        for row in rep.layers:
            assert row.best_bytes == min(row.bytes_dense, row.bytes_bitmask, row.bytes_indexed)

    def test_totals_are_column_sums(self):
        rep = report_from_counts([("a", 100, 10), ("b", 256, 256)])
        assert rep.total("dense") == sum(r.bytes_dense for r in rep.layers)
        assert rep.total_best_bytes == sum(r.best_bytes for r in rep.layers)
        assert rep.total_params == 356

    def test_fresh_net_all_dense(self):
        rep = report(build_cifar_quick(seed=0))
        assert all(r.best_format == "dense" for r in rep.layers)
        assert rep.total_params == 145_578

    def test_sparse_layer_never_dense(self):
        net = build_cifar_quick(seed=0)
        fc1 = net.layer("fc1")
        fc1.weights = l0_project(fc1.weights, fc1.weights.size // 100)
        rep = report(net)
        row = {r.name: r for r in rep.layers}["fc1"]
        assert row.best_format in ("bitmask", "indexed")

    def test_render_and_csv(self):
        rep = report_from_counts([("a", 1000, 100)])
        table = render_table(rep, units="kb")
        assert "KB" in table and "bitmask" in table
        csv = to_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("layer,params,nnz")
        assert lines[1].startswith("a,1000,100,4000,525,800,bitmask,525")
        assert lines[-1].startswith("TOTAL,")

    def test_table_rows_carry_the_csv_numbers(self):
        rep = report_from_counts([("conv1", 2432, 2432), ("conv2", 25632, 3000),
                                  ("fc1", 400500, 401), ("fc2", 5010, 0), ("tie", 1024, 512)])
        table = render_table(rep, units="bytes").splitlines()
        csv = to_csv(rep).strip().splitlines()
        assert table[-1] == "(amounts in bytes)"
        assert len(table) - 1 == len(csv) == len(rep.layers) + 2
        # the table shows the CSV columns with best bytes before best format
        for t, c in zip(table[1:], csv[1:]):
            cells = c.split(",")
            assert t.split() == cells[:6] + [cells[7], cells[6]]
        assert table[-2].split()[0] == csv[-1].split(",")[0] == "TOTAL"

    def test_units(self):
        assert memory._fmt_amount(2048, "kb") == "2.00"
        assert memory._fmt_amount(3 * MB, "mb") == "3.00"
        with pytest.raises(ValueError):
            memory._fmt_amount(1, "gib")
