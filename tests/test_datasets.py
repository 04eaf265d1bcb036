import struct

import numpy as np
import numpy.testing as npt
import pytest

from sparsenet.datasets import (
    Dataset,
    bag_resample,
    load_cifar10,
    load_mnist,
    split_validation,
    subsample,
    subtract_mean,
    write_cifar_batch,
    write_idx_images,
    write_idx_labels,
)
from sparsenet.errors import DataFormatError, ShapeError
from sparsenet.synthetic import as_uint8, make_image_classes, make_synthetic_pair


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(50, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=50, dtype=np.uint8)
    ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


class TestMnistLoader:
    def test_roundtrip(self, idx_pair):
        ipath, lpath, images, labels = idx_pair
        d = load_mnist(ipath, lpath)
        assert d.images.shape == (50, 1, 28, 28)
        assert d.class_count == 10
        npt.assert_array_equal(d.labels, labels)
        npt.assert_allclose(d.images[:, 0], images / 255.0, atol=1e-7)
        assert d.images.min() >= 0.0 and d.images.max() <= 1.0

    def test_file_length_arithmetic(self, idx_pair):
        ipath, lpath, images, _ = idx_pair
        n = len(images)
        assert ipath.stat().st_size == 16 + n * 28 * 28
        assert lpath.stat().st_size == 8 + n

    def test_bad_image_magic(self, idx_pair, tmp_path):
        _, lpath, _, _ = idx_pair
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000801, 1, 28, 28) + b"\0" * 784)
        with pytest.raises(DataFormatError, match="bad magic in image file"):
            load_mnist(bad, lpath)

    def test_bad_label_magic(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">II", 0x00000803, 50) + b"\0" * 50)
        with pytest.raises(DataFormatError, match="bad magic in label file"):
            load_mnist(ipath, bad)

    def test_truncated_images(self, idx_pair, tmp_path):
        ipath, lpath, _, _ = idx_pair
        cut = tmp_path / "cut.idx"
        cut.write_bytes(ipath.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="truncated"):
            load_mnist(cut, lpath)

    def test_count_mismatch(self, idx_pair, tmp_path):
        ipath, _, _, _ = idx_pair
        lpath = tmp_path / "short.idx"
        write_idx_labels(lpath, np.zeros(49, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="count mismatch"):
            load_mnist(ipath, lpath)

    @pytest.mark.parametrize("shape,match", [((0, 28, 28), "holds no images"),
                                             ((3, 32, 32), "32x32 images, expected 28x28"),
                                             ((3, 28, 27), "28x27 images, expected 28x28")])
    def test_empty_or_not_28x28(self, tmp_path, shape, match):
        write_idx_images(tmp_path / "img.idx", np.zeros(shape, dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(shape[0], dtype=np.uint8))
        with pytest.raises(DataFormatError, match=match):
            load_mnist(tmp_path / "img.idx", tmp_path / "lab.idx")

class TestCifarLoader:
    def test_multi_batch(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        all_labels = []
        for b in range(3):
            images = rng.integers(0, 256, size=(20, 3, 32, 32), dtype=np.uint8)
            labels = rng.integers(0, 10, size=20, dtype=np.uint8)
            p = tmp_path / f"batch{b}.bin"
            write_cifar_batch(p, images, labels)
            paths.append(p)
            all_labels.append(labels)
        d = load_cifar10(paths)
        assert d.images.shape == (60, 3, 32, 32)
        npt.assert_array_equal(d.labels, np.concatenate(all_labels))

    def test_single_record(self, tmp_path):
        p = tmp_path / "one.bin"
        write_cifar_batch(p, np.zeros((1, 3, 32, 32), dtype=np.uint8), [7])
        d = load_cifar10(p)
        assert len(d) == 1
        assert d.labels[0] == 7

    def test_corrupt_length(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\0" * (3072 * 4))
        with pytest.raises(DataFormatError, match="not a multiple"):
            load_cifar10(p)

    def test_pure_function_of_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cifar_batch(p1, images, [0, 1, 2, 3, 4])
        p2.write_bytes(p1.read_bytes())
        d1, d2 = load_cifar10(p1), load_cifar10(p2)
        npt.assert_array_equal(d1.images, d2.images)
        npt.assert_array_equal(d1.labels, d2.labels)


def _toy_dataset(n=40, seed=0, value=None):
    rng = np.random.default_rng(seed)
    images = (
        np.full((n, 1, 4, 4), value, dtype=np.float32)
        if value is not None
        else rng.random((n, 1, 4, 4), dtype=np.float32)
    )
    return Dataset(images=images, labels=rng.integers(0, 10, size=n), class_count=10)


@pytest.mark.parametrize("images,labels,error,match", [
    (np.zeros((3, 4, 4)), np.zeros(3, dtype=int), ShapeError, r"\(n, c, h, w\)"),
    (np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=int), DataFormatError, "count mismatch"),
    (np.zeros((3, 1, 4, 4)), np.array([0, 1, 10]), DataFormatError, "out of range"),
], ids=["3d_images", "count_mismatch", "label_at_class_count"])
def test_dataset_rejects_bad_arrays(images, labels, error, match):
    with pytest.raises(error, match=match):
        Dataset(images=images, labels=labels, class_count=10)


class TestSubtractMean:
    def test_constant_dataset_goes_to_zero(self):
        train, test = _toy_dataset(value=0.25), _toy_dataset(value=0.25)
        out_train, _ = subtract_mean(train, test)
        npt.assert_allclose(out_train.images, 0.0, atol=1e-7)

    def test_train_mean_becomes_zero(self):
        train, test = _toy_dataset(seed=1), _toy_dataset(seed=2)
        out_train, _ = subtract_mean(train, test)
        npt.assert_allclose(out_train.images.mean(axis=0), 0.0, atol=1e-5)

    def test_train_mean_reused_on_test(self):
        train, test = _toy_dataset(seed=3), _toy_dataset(seed=4)
        out_train, out_test = subtract_mean(train, test)
        train_mean = train.images.mean(axis=0)
        npt.assert_allclose(out_test.images, test.images - train_mean, atol=1e-6)
        # the test set's own mean is NOT zero after the shift
        assert abs(out_test.images.mean()) > 1e-4

    def test_shape_mismatch(self):
        a = _toy_dataset()
        b = Dataset(
            images=np.zeros((5, 3, 4, 4), dtype=np.float32),
            labels=np.zeros(5, dtype=np.int64),
            class_count=10,
        )
        with pytest.raises(ShapeError):
            subtract_mean(a, b)


class TestSubsample:
    def test_full_fraction_keeps_everything(self):
        d = _toy_dataset()
        out = subsample(d, 1.0, seed=0)
        assert len(out) == len(d)
        npt.assert_array_equal(np.sort(out.labels), np.sort(d.labels))

    def test_floor_arithmetic(self):
        d = _toy_dataset(n=41)
        assert len(subsample(d, 0.5, seed=0)) == 20

    def test_deterministic(self):
        d = _toy_dataset()
        a, b = subsample(d, 0.3, seed=9), subsample(d, 0.3, seed=9)
        npt.assert_array_equal(a.images, b.images)
        npt.assert_array_equal(a.labels, b.labels)

    def test_rejects_bad_fraction(self):
        d = _toy_dataset()
        for frac in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample(d, frac, seed=0)

    def test_no_fabricated_examples(self):
        d = _toy_dataset()
        out = subsample(d, 0.5, seed=3)
        originals = {img.tobytes() for img in d.images}
        assert all(img.tobytes() in originals for img in out.images)


class TestBagResample:
    def test_same_size(self):
        d = _toy_dataset()
        assert len(bag_resample(d, seed=0)) == len(d)

    def test_deterministic(self):
        d = _toy_dataset()
        a, b = bag_resample(d, seed=4), bag_resample(d, seed=4)
        npt.assert_array_equal(a.images, b.images)

    def test_empty_errors(self):
        d = Dataset(
            images=np.zeros((0, 1, 2, 2), dtype=np.float32),
            labels=np.zeros(0, dtype=np.int64),
            class_count=10,
        )
        with pytest.raises(ValueError):
            bag_resample(d, seed=0)

    def test_distinct_fraction_near_bootstrap_limit(self):
        # distinct fraction of an n-bootstrap approaches 1 - 1/e; the
        # analytic value at finite n is 1 - (1 - 1/n)^n
        n = 50_000
        d = Dataset(
            images=np.zeros((n, 1, 1, 1), dtype=np.float32),
            labels=np.arange(n) % 10,
            class_count=10,
        )
        out = bag_resample(d, seed=12)
        # labels alone collide; recover the drawn index multiset instead
        from sparsenet.seeding import rng_for

        idx = rng_for(12, "bag").integers(0, n, size=n)
        distinct = len(np.unique(idx)) / n
        expected = 1.0 - (1.0 - 1.0 / n) ** n
        assert abs(distinct - expected) < 0.02
        assert len(out) == n

    def test_no_fabricated_examples(self):
        d = _toy_dataset()
        out = bag_resample(d, seed=5)
        originals = {img.tobytes() for img in d.images}
        assert all(img.tobytes() in originals for img in out.images)


class TestSplitValidation:
    def test_sizes_and_disjointness(self):
        d = make_image_classes(100, shape=(1, 8, 8), seed=0)
        train, val = split_validation(d, seed=0, fraction=0.1)
        assert len(train) == 90 and len(val) == 10
        train_bytes = {img.tobytes() for img in train.images}
        assert all(img.tobytes() not in train_bytes for img in val.images)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError, match="validation fraction"):
            split_validation(_toy_dataset(), seed=0, fraction=fraction)


class TestSynthetic:
    def test_deterministic_and_bounded(self):
        a = make_image_classes(20, shape=(3, 16, 16), seed=7)
        b = make_image_classes(20, shape=(3, 16, 16), seed=7)
        npt.assert_array_equal(a.images, b.images)
        assert a.images.min() >= 0.0 and a.images.max() <= 1.0

    def test_pair_split_disjoint(self):
        train, test = make_synthetic_pair(30, 10, shape=(1, 8, 8), seed=1)
        assert len(train) == 30 and len(test) == 10

    def test_uint8_roundtrip_through_loaders(self, tmp_path):
        d = make_image_classes(12, shape=(3, 32, 32), seed=3)
        p = tmp_path / "batch.bin"
        write_cifar_batch(p, as_uint8(d), d.labels)
        loaded = load_cifar10(p)
        npt.assert_array_equal(loaded.labels, d.labels)
        npt.assert_allclose(loaded.images, d.images, atol=1.0 / 255.0)
