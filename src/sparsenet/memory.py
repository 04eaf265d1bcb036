"""Exact byte costs of dense, bitmask, and indexed weight storage.

Per layer with N parameters and nnz nonzeros, at the default 4-byte
single-precision value width:

* dense   : 4 * N
* bitmask : ceil(N / 8) presence bits plus the nonzero values, 4 * nnz
* indexed : (index, value) pairs, (4 + 4) * nnz with pinned 32-bit indices

CSR-style formats cost approximately the same as ``indexed`` and are not
accounted separately. Units follow binary prefixes: KB = 2**10 bytes,
MB = 2**20 bytes.
"""

from dataclasses import dataclass

INDEX_BYTES = 4
SINGLE_VALUE_BYTES = 4
DOUBLE_VALUE_BYTES = 8

KB = 2**10
MB = 2**20

FORMATS = ("dense", "bitmask", "indexed")


def _check_counts(n: int, nnz: int) -> None:
    if n < 0 or nnz < 0:
        raise ValueError("parameter counts must be nonnegative")
    if nnz > n:
        raise ValueError(f"nnz {nnz} exceeds parameter count {n}")


def bytes_dense(n: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    _check_counts(n, 0)
    return value_bytes * n


def bytes_bitmask(n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    _check_counts(n, nnz)
    return (n + 7) // 8 + value_bytes * nnz


def bytes_indexed(nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    if nnz < 0:
        raise ValueError("nnz must be nonnegative")
    return (INDEX_BYTES + value_bytes) * nnz


def format_bytes(fmt: str, n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    if fmt == "dense":
        return bytes_dense(n, value_bytes)
    if fmt == "bitmask":
        return bytes_bitmask(n, nnz, value_bytes)
    if fmt == "indexed":
        _check_counts(n, nnz)
        return bytes_indexed(nnz, value_bytes)
    raise ValueError(f"unknown storage format {fmt!r}")


def best_format(n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES):
    """(format name, bytes) of the cheapest encoding; ties prefer dense,
    then bitmask, matching the declaration order in FORMATS."""
    costs = [(format_bytes(f, n, nnz, value_bytes), i, f) for i, f in enumerate(FORMATS)]
    cost, _, fmt = min(costs)
    return fmt, cost


@dataclass
class LayerCost:
    name: str
    param_count: int
    nnz: int
    bytes_dense: int
    bytes_bitmask: int
    bytes_indexed: int
    best_format: str
    best_bytes: int


@dataclass
class MemoryReport:
    layers: list
    value_bytes: int

    @property
    def total_params(self) -> int:
        return sum(r.param_count for r in self.layers)

    @property
    def total_nnz(self) -> int:
        return sum(r.nnz for r in self.layers)

    def total(self, fmt: str) -> int:
        return sum(format_bytes(fmt, r.param_count, r.nnz, self.value_bytes) for r in self.layers)

    @property
    def total_best_bytes(self) -> int:
        # per-layer best formats chosen independently
        return sum(r.best_bytes for r in self.layers)


def report_from_counts(counts, value_bytes: int = SINGLE_VALUE_BYTES) -> MemoryReport:
    """Build a report from (name, param_count, nnz) triples."""
    rows = []
    for name, n, nnz in counts:
        fmt, best = best_format(n, nnz, value_bytes)
        rows.append(
            LayerCost(
                name=name,
                param_count=int(n),
                nnz=int(nnz),
                bytes_dense=bytes_dense(n, value_bytes),
                bytes_bitmask=bytes_bitmask(n, nnz, value_bytes),
                bytes_indexed=bytes_indexed(nnz, value_bytes),
                best_format=fmt,
                best_bytes=best,
            )
        )
    return MemoryReport(layers=rows, value_bytes=value_bytes)


def report(net, value_bytes: int = SINGLE_VALUE_BYTES) -> MemoryReport:
    """Memory report of a network's parameter layers.

    Biases count toward each layer's N and nnz; a layer's parameters are
    treated as one flat vector when costing the sparse formats, matching
    the checkpoint payload layout exactly.
    """
    nnz = net.layer_nnz()
    counts = [(l.name, l.weights.size + l.biases.size, nnz[l.name]) for l in net.param_layers()]
    return report_from_counts(counts, value_bytes)


def _fmt_amount(nbytes: int, units: str) -> str:
    if units == "bytes":
        return str(nbytes)
    if units == "kb":
        return f"{nbytes / KB:.2f}"
    if units == "mb":
        return f"{nbytes / MB:.2f}"
    raise ValueError(f"unknown units {units!r}")


def render_table(rep: MemoryReport, units: str = "bytes") -> str:
    """Aligned text table with a totals row."""
    header = ["layer", "params", "nnz", "dense", "bitmask", "indexed", "best", "best_fmt"]
    rows = [header]
    for r in rep.layers:
        rows.append(
            [
                r.name,
                str(r.param_count),
                str(r.nnz),
                _fmt_amount(r.bytes_dense, units),
                _fmt_amount(r.bytes_bitmask, units),
                _fmt_amount(r.bytes_indexed, units),
                _fmt_amount(r.best_bytes, units),
                r.best_format,
            ]
        )
    rows.append(
        [
            "TOTAL",
            str(rep.total_params),
            str(rep.total_nnz),
            _fmt_amount(rep.total("dense"), units),
            _fmt_amount(rep.total("bitmask"), units),
            _fmt_amount(rep.total("indexed"), units),
            _fmt_amount(rep.total_best_bytes, units),
            "-",
        ]
    )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    unit_label = {"bytes": "bytes", "kb": "KB (2^10 bytes)", "mb": "MB (2^20 bytes)"}[units]
    lines.append(f"(amounts in {unit_label})")
    return "\n".join(lines)


def to_csv(rep: MemoryReport) -> str:
    """CSV rows in bytes, one line per layer plus a TOTAL line."""
    lines = ["layer,params,nnz,bytes_dense,bytes_bitmask,bytes_indexed,best_format,best_bytes"]
    for r in rep.layers:
        lines.append(
            f"{r.name},{r.param_count},{r.nnz},{r.bytes_dense},"
            f"{r.bytes_bitmask},{r.bytes_indexed},{r.best_format},{r.best_bytes}"
        )
    lines.append(
        f"TOTAL,{rep.total_params},{rep.total_nnz},{rep.total('dense')},"
        f"{rep.total('bitmask')},{rep.total('indexed')},-,{rep.total_best_bytes}"
    )
    return "\n".join(lines) + "\n"
