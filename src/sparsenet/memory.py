"""Exact byte costs of dense, bitmask, and indexed weight storage.

Per layer with N parameters and nnz nonzeros, at the default 4-byte
single-precision value width:

* dense   : 4 * N
* bitmask : ceil(N / 8) presence bits plus the nonzero values, 4 * nnz
* indexed : (index, value) pairs, (4 + 4) * nnz with pinned 32-bit indices

``format_bytes`` is the one formula; every other byte count here, and the
checkpoint's payload check, calls it. CSR-style formats cost approximately
the same as ``indexed`` and are not accounted separately. Units follow
binary prefixes: KB = 2**10 bytes, MB = 2**20 bytes.
"""

from dataclasses import astuple, dataclass

from .artifacts import csv_text

INDEX_BYTES = 4
SINGLE_VALUE_BYTES = 4

KB = 2**10
MB = 2**20

FORMATS = ("dense", "bitmask", "indexed")


def format_bytes(fmt: str, n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    """Bytes of `n` parameters holding `nnz` nonzeros stored as `fmt`."""
    if n < 0 or nnz < 0:
        raise ValueError("parameter counts must be nonnegative")
    if nnz > n:
        raise ValueError(f"nnz {nnz} exceeds parameter count {n}")
    if fmt == "dense":
        return value_bytes * n
    if fmt == "bitmask":
        return (n + 7) // 8 + value_bytes * nnz
    if fmt == "indexed":
        return (INDEX_BYTES + value_bytes) * nnz
    raise ValueError(f"unknown storage format {fmt!r}")


def bytes_dense(n: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    return format_bytes("dense", n, 0, value_bytes)


def bytes_bitmask(n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    return format_bytes("bitmask", n, nnz, value_bytes)


def bytes_indexed(nnz: int, value_bytes: int = SINGLE_VALUE_BYTES) -> int:
    return format_bytes("indexed", nnz, nnz, value_bytes)


def best_format(n: int, nnz: int, value_bytes: int = SINGLE_VALUE_BYTES):
    """(format name, bytes) of the cheapest format. min keeps the first of
    equal costs, so ties prefer dense, then bitmask, as FORMATS lists them."""
    return min(((fmt, format_bytes(fmt, n, nnz, value_bytes)) for fmt in FORMATS),
               key=lambda cost: cost[1])


@dataclass
class LayerCost:
    # the field order is the CSV column order (CSV_HEADER)
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
        costs = {fmt: format_bytes(fmt, n, nnz, value_bytes) for fmt in FORMATS}
        fmt, best = best_format(n, nnz, value_bytes)
        rows.append(LayerCost(name=name, param_count=int(n), nnz=int(nnz),
                              bytes_dense=costs["dense"], bytes_bitmask=costs["bitmask"],
                              bytes_indexed=costs["indexed"], best_format=fmt, best_bytes=best))
    return MemoryReport(layers=rows, value_bytes=value_bytes)


def report(net) -> MemoryReport:
    """Memory report of a network's parameter layers at the width of the
    network's own values (4 bytes for float32, 8 for float64).

    Biases count toward each layer's N and nnz; a layer's parameters are
    treated as one flat vector when costing the sparse formats, matching
    the checkpoint payload layout exactly.
    """
    nnz = net.layer_nnz()
    counts = [(l.name, l.weights.size + l.biases.size, nnz[l.name]) for l in net.param_layers()]
    return report_from_counts(counts, net.dtype.itemsize)


CSV_HEADER = ("layer", "params", "nnz", "bytes_dense", "bytes_bitmask", "bytes_indexed",
              "best_format", "best_bytes")

# table column label -> the CSV_HEADER column it shows, in table order
_TABLE_COLUMNS = {"layer": "layer", "params": "params", "nnz": "nnz", "dense": "bytes_dense",
                  "bitmask": "bytes_bitmask", "indexed": "bytes_indexed", "best": "best_bytes",
                  "best_fmt": "best_format"}


def _rows(rep: MemoryReport) -> list:
    """The rows of every rendering, in CSV_HEADER order: one per layer,
    then TOTAL."""
    rows = [astuple(r) for r in rep.layers]
    rows.append(("TOTAL", rep.total_params, rep.total_nnz, *(rep.total(f) for f in FORMATS),
                 "-", rep.total_best_bytes))
    return rows


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
    cols = [CSV_HEADER.index(c) for c in _TABLE_COLUMNS.values()]
    rows = [list(_TABLE_COLUMNS)]
    for row in _rows(rep):
        rows.append([_fmt_amount(row[i], units) if "bytes" in CSV_HEADER[i] else str(row[i])
                     for i in cols])
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    unit_label = {"bytes": "bytes", "kb": "KB (2^10 bytes)", "mb": "MB (2^20 bytes)"}[units]
    lines.append(f"(amounts in {unit_label})")
    return "\n".join(lines)


def to_csv(rep: MemoryReport) -> str:
    """CSV rows in bytes, one line per layer plus a TOTAL line."""
    return csv_text(CSV_HEADER, _rows(rep))
