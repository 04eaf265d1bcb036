"""Dataset ingestion, preprocessing, subsampling, and bagged resampling.

Loaders cover the two standard on-disk layouts used at this scale:

* IDX image/label files (big-endian headers, magic 0x00000803 / 0x00000801)
* CIFAR-10 binary batches (3073-byte records: 1 label byte + 3072 pixels,
  channel-major)

Pixels are scaled to [0, 1] on load; per-pixel mean subtraction is a
separate, explicit step so the training-set mean can be reused on the
test set. Writers for both formats live here too, next to the parsers
they mirror.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, ShapeError
from .seeding import rng_for

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass(frozen=True)
class Dataset:
    """Images of shape (n, channels, h, w) with integer class labels.

    Immutable after construction; all transforms return new instances.
    """

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeError(f"images must be (n, c, h, w), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise DataFormatError(
                f"image/label count mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if len(self.labels) and int(self.labels.max()) >= self.class_count:
            raise DataFormatError("label index out of range for class_count")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def sample_shape(self):
        return self.images.shape[1:]

    def take(self, indices) -> "Dataset":
        return replace(self, images=self.images[indices], labels=self.labels[indices])


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataFormatError(f"truncated file: expected {n} bytes of {what}, got {len(buf)}")
    return buf


def load_mnist(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a (n, 1, 28, 28) dataset."""
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"bad magic in image file: 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        if n == 0:
            raise DataFormatError("image file holds no images")
        if (rows, cols) != (28, 28):
            raise DataFormatError(f"image file holds {rows}x{cols} images, expected 28x28")
        raw = _read_exact(f, n * rows * cols, "image pixels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)

    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"bad magic in label file: 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        raw = _read_exact(f, n_labels, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if n != n_labels:
        raise DataFormatError(f"image/label count mismatch: {n} images vs {n_labels} labels")
    return Dataset(images=images.astype(np.float32) / 255.0, labels=labels, class_count=10)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images of shape (n, h, w) or (n, 1, h, w) as an IDX file."""
    if images.ndim == 4:
        images = images[:, 0]
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def load_cifar10(batch_paths) -> Dataset:
    """Load one or more CIFAR-10 binary batches into a (n, 3, 32, 32) dataset."""
    if isinstance(batch_paths, (str, bytes)) or hasattr(batch_paths, "__fspath__"):
        batch_paths = [batch_paths]
    images, labels = [], []
    for path in batch_paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: file size {len(raw)} is not a multiple of "
                f"{CIFAR_RECORD_BYTES}-byte records"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels.append(records[:, 0].astype(np.int64))
        images.append(records[:, 1:].reshape(-1, 3, 32, 32))
    return Dataset(
        images=np.concatenate(images).astype(np.float32) / 255.0,
        labels=np.concatenate(labels),
        class_count=10,
    )


def write_cifar_batch(path, images: np.ndarray, labels) -> None:
    """Write uint8 images (n, 3, 32, 32) + labels as one CIFAR binary batch."""
    n = len(labels)
    records = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = np.asarray(labels, dtype=np.uint8)
    records[:, 1:] = np.ascontiguousarray(images, dtype=np.uint8).reshape(n, -1)
    with open(path, "wb") as f:
        f.write(records.tobytes())


def subtract_mean(train: Dataset, other: Dataset):
    """Shift both datasets by the per-pixel mean of the training set.

    The training mean, not the other set's own mean, is subtracted from
    both.
    """
    if train.sample_shape != other.sample_shape:
        raise ShapeError(
            f"sample shape mismatch: {train.sample_shape} vs {other.sample_shape}"
        )
    mean = train.images.mean(axis=0, dtype=np.float64).astype(train.images.dtype)
    return (
        replace(train, images=train.images - mean),
        replace(other, images=other.images - mean),
    )


def subsample(d: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform sample without replacement of floor(fraction * n) examples."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    size = int(len(d) * fraction)
    rng = rng_for(seed, "subsample")
    keep = np.sort(rng.choice(len(d), size=size, replace=False))
    return d.take(keep)


def bag_resample(d: Dataset, seed: int) -> Dataset:
    """Bootstrap resample: n draws with replacement from an n-example set."""
    if len(d) == 0:
        raise ValueError("cannot resample an empty dataset")
    rng = rng_for(seed, "bag")
    return d.take(rng.integers(0, len(d), size=len(d)))


def split_validation(d: Dataset, seed: int, fraction: float = 0.1):
    """(train, validation) split; validation is the last `fraction` of a
    seeded shuffle of the dataset."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")
    order = rng_for(seed, "valsplit").permutation(len(d))
    n_val = max(1, int(len(d) * fraction))
    return d.take(order[:-n_val]), d.take(order[-n_val:])
