"""Byte accounting for dense, bitmask, and indexed weight storage.

Prints the crossover behavior as a layer gets sparser, then the
published-scale profile of a 61M-parameter network: ~233 MB dense, and
~58 MB once the fully-connected layers are sparsified and stored in the
indexed format.
"""

from sparsenet.memory import (
    FORMATS,
    MB,
    best_format,
    format_bytes,
    render_table,
    report_from_counts,
)

n = 100_000
print(f"one layer, N={n} parameters:")
print(f"{'nnz/N':>8} {'dense':>10} {'bitmask':>10} {'indexed':>10} {'best':>8}")
for ratio in (1.0, 0.5, 0.2, 0.05, 0.01, 0.001):
    nnz = int(n * ratio)
    fmt, _ = best_format(n, nnz)
    costs = "".join(f" {format_bytes(f, n, nnz):>10}" for f in FORMATS)
    print(f"{ratio:>8.3f}{costs} {fmt:>8}")

profile = [
    ("conv1", 96 * 3 * 11 * 11 + 96),
    ("conv2", 256 * 48 * 5 * 5 + 256),
    ("conv3", 384 * 256 * 3 * 3 + 384),
    ("conv4", 384 * 192 * 3 * 3 + 384),
    ("conv5", 256 * 192 * 3 * 3 + 256),
    ("fc6", 9216 * 4096 + 4096),
    ("fc7", 4096 * 4096 + 4096),
    ("fc8", 4096 * 1000 + 1000),
]
total = sum(n for _, n in profile)
print(f"\n61M-parameter profile: {total:,} params, dense = {format_bytes('dense', total, 0)/MB:.1f} MB")

sparse_nnz = {"fc6": 3_000_000 + 4096, "fc7": 3_000_000 + 4096, "fc8": 400_000 + 1000}
sparse_bytes = sum(
    format_bytes("indexed" if name in sparse_nnz else "dense", count, sparse_nnz.get(name, count))
    for name, count in profile
)
print(f"fc layers sparsified + indexed, convs dense = {sparse_bytes/MB:.1f} MB")

rep = report_from_counts(
    [(name, count, sparse_nnz.get(name, count)) for name, count in profile]
)
print("\nper-layer best-format report (MB):")
print(render_table(rep, units="mb"))
