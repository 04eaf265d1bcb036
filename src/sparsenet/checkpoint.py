"""Binary checkpoint format with dense, bitmask, and indexed encodings.

All integers are little-endian and fixed-width so files are bit-exact
across runs. Layout:

    magic "SPNC" | version u16 | value_bytes u8 | topology (u16 len + utf8)
    layer_count u32
    per layer:
        name (u16 len + utf8) | encoding u8 | weight shape (u8 ndim + u32*)
        bias shape (u8 ndim + u32*) | nnz u64 | payload_len u64 | payload

The encoding byte is 0 for dense, 1 for bitmask and 2 for indexed; any
other value fails to load.

A layer's weights and biases are concatenated into one flat row-major
vector of N values before encoding, so payload sizes equal the memory
model's per-layer predictions exactly:

    dense   : N values
    bitmask : ceil(N/8) mask bytes (flat index i -> bit i%8 of byte i/8,
              LSB first) followed by the nnz nonzero values in flat order
    indexed : nnz interleaved (u32 flat index, value) pairs, ascending

Zeros are identified by ``value != 0``, so a negative zero stored under a
sparse encoding reloads as +0.0; dense payloads round-trip every bit.
"""

import struct

import numpy as np

from .artifacts import write_atomic
from .errors import CheckpointError
from .memory import FORMATS, best_format, format_bytes
from .net import TOPOLOGIES, build_topology

MAGIC = b"SPNC"
VERSION = 1
ENCODINGS = FORMATS
# the on-disk encoding byte, fixed here so that FORMATS' order (the
# best_format tie order) never changes what a stored byte means
_ENC_CODE = {"dense": 0, "bitmask": 1, "indexed": 2}
_ENC_NAME = {code: name for name, code in _ENC_CODE.items()}


def _value_dtype(value_bytes: int):
    return np.dtype("<f4") if value_bytes == 4 else np.dtype("<f8")


def _encode_payload(flat: np.ndarray, encoding: str, value_bytes: int) -> bytes:
    vdt = _value_dtype(value_bytes)
    if encoding == "dense":
        return flat.astype(vdt, copy=False).tobytes()
    nz = np.flatnonzero(flat)
    values = flat[nz].astype(vdt, copy=False)
    if encoding == "bitmask":
        mask = np.zeros(flat.size, dtype=np.uint8)
        mask[nz] = 1
        return np.packbits(mask, bitorder="little").tobytes() + values.tobytes()
    # indexed: encode_checkpoint admits only ENCODINGS
    pairs = np.empty(len(nz), dtype=np.dtype([("idx", "<u4"), ("val", vdt)]))
    pairs["idx"] = nz
    pairs["val"] = values
    return pairs.tobytes()


def _decode_payload(payload: bytes, encoding: str, n: int, nnz: int, value_bytes: int):
    vdt = _value_dtype(value_bytes)
    flat = np.zeros(n, dtype=vdt)
    if encoding == "dense":
        flat[:] = np.frombuffer(payload, dtype=vdt)
        if int(np.count_nonzero(flat)) != nnz:
            raise CheckpointError("nnz inconsistency: dense payload disagrees with header")
        return flat
    if encoding == "bitmask":
        mask_bytes = (n + 7) // 8
        mask = np.unpackbits(
            np.frombuffer(payload[:mask_bytes], dtype=np.uint8), bitorder="little"
        )[:n]
        if int(mask.sum()) != nnz:
            raise CheckpointError("nnz inconsistency: bitmask popcount disagrees with header")
        flat[mask.astype(bool)] = np.frombuffer(payload[mask_bytes:], dtype=vdt)
        return flat
    # indexed: load_checkpoint maps only the known encoding codes
    pairs = np.frombuffer(payload, dtype=np.dtype([("idx", "<u4"), ("val", vdt)]))
    if len(pairs) != nnz:
        raise CheckpointError("nnz inconsistency: pair count disagrees with header")
    if len(pairs) and (pairs["idx"][-1] >= n or np.any(np.diff(pairs["idx"].astype(np.int64)) <= 0)):
        raise CheckpointError("corrupt indexed payload: indices not ascending and in range")
    flat[pairs["idx"]] = pairs["val"]
    return flat


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


def _layer_header(layer, encoding: str) -> bytes:
    out = [_pack_str(layer.name), struct.pack("<B", _ENC_CODE[encoding])]
    for shape in (layer.weights.shape, layer.biases.shape):
        out.append(struct.pack("<B", len(shape)))
        out.append(struct.pack(f"<{len(shape)}I", *shape))
    return b"".join(out)


def checkpoint_overhead_bytes(net, encoding: str = "dense") -> int:
    """Header bytes of a checkpoint for `net`: everything except payloads."""
    total = len(MAGIC) + 2 + 1 + len(_pack_str(net.topology)) + 4
    for layer in net.param_layers():
        total += len(_layer_header(layer, encoding)) + 8 + 8
    return total


def encode_checkpoint(net, encoding: str = "dense") -> bytes:
    """The checkpoint bytes of every parameterized layer of `net` under one
    encoding.

    ``encoding="best"`` picks the cheapest encoding per layer using the
    memory model.
    """
    if encoding not in ENCODINGS and encoding != "best":
        raise CheckpointError(f"unknown encoding {encoding!r}; use {ENCODINGS} or 'best'")
    value_bytes = net.dtype.itemsize
    layers = net.param_layers()
    blob = [MAGIC, struct.pack("<HB", VERSION, value_bytes), _pack_str(net.topology),
            struct.pack("<I", len(layers))]
    for layer in layers:
        flat = np.concatenate([layer.weights.ravel(), layer.biases.ravel()])
        nnz = int(np.count_nonzero(flat))
        enc = encoding
        if enc == "best":
            enc, _ = best_format(flat.size, nnz, value_bytes)
        payload = _encode_payload(flat, enc, value_bytes)
        expect = format_bytes(enc, flat.size, nnz, value_bytes)
        if len(payload) != expect:
            raise CheckpointError(
                f"{layer.name}: {enc} payload is {len(payload)} bytes, memory model says {expect}"
            )
        blob.append(_layer_header(layer, enc))
        blob.append(struct.pack("<QQ", nnz, len(payload)))
        blob.append(payload)
    return b"".join(blob)


def save_checkpoint(net, path, encoding: str = "dense") -> None:
    """Write `encode_checkpoint(net, encoding)` to `path` atomically."""
    write_atomic(path, encode_checkpoint(net, encoding))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        (n,) = self.unpack("<H", what)
        try:
            return self.take(n, what).decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"corrupt checkpoint: {what} is not utf-8") from e


def load_checkpoint(path, net=None):
    """Load a checkpoint into `net`, whose topology name must match the
    recorded one, or into a fresh instance of the recorded topology when
    `net` is omitted. Returns the network."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, value_bytes = r.unpack("<HB", "version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if value_bytes not in (4, 8):
        raise CheckpointError(f"{path}: unsupported value width {value_bytes} bytes")
    topology = r.string("topology name")
    (layer_count,) = r.unpack("<I", "layer count")

    if net is None:
        if topology not in TOPOLOGIES:
            raise CheckpointError(f"{path}: unknown topology {topology!r}")
        dtype = np.float32 if value_bytes == 4 else np.float64
        net = build_topology(topology, dtype=dtype)
    elif topology != net.topology:
        raise CheckpointError(
            f"{path}: topology mismatch: checkpoint has {topology!r}, network is {net.topology!r}"
        )
    layers = net.param_layers()
    if len(layers) != layer_count:
        raise CheckpointError(
            f"layer count mismatch: checkpoint has {layer_count}, network has {len(layers)}"
        )
    for layer in layers:
        name = r.string("layer name")
        if name != layer.name:
            raise CheckpointError(f"layer name mismatch: {name!r} vs {layer.name!r}")
        (enc_code,) = r.unpack("<B", "encoding")
        encoding = _ENC_NAME.get(enc_code)
        if encoding is None:
            raise CheckpointError(f"unknown encoding code {enc_code}")
        shapes = []
        for what in ("weight shape", "bias shape"):
            (ndim,) = r.unpack("<B", what)
            shapes.append(tuple(r.unpack(f"<{ndim}I", what)))
        wshape, bshape = shapes
        if wshape != layer.weights.shape or bshape != layer.biases.shape:
            raise CheckpointError(
                f"{name}: shape mismatch {wshape}/{bshape} vs "
                f"{layer.weights.shape}/{layer.biases.shape}"
            )
        nnz, payload_len = r.unpack("<QQ", "payload header")
        payload = r.take(payload_len, f"{name} payload")
        n = int(np.prod(wshape, dtype=np.int64)) + int(np.prod(bshape, dtype=np.int64))
        if nnz > n:
            raise CheckpointError(f"{name}: nnz {nnz} exceeds parameter count {n}")
        expected_len = format_bytes(encoding, n, nnz, value_bytes)
        if payload_len != expected_len:
            raise CheckpointError(
                f"{name}: payload length {payload_len} does not match "
                f"{encoding} encoding of {n} params with {nnz} nonzeros"
            )
        flat = _decode_payload(payload, encoding, n, nnz, value_bytes)
        nw = int(np.prod(wshape, dtype=np.int64))
        dtype = layer.weights.dtype
        layer.weights = flat[:nw].reshape(wshape).astype(dtype, copy=False)
        layer.biases = flat[nw:].reshape(bshape).astype(dtype, copy=False)
    if r.pos != len(r.data):
        raise CheckpointError(f"{path}: {len(r.data) - r.pos} trailing bytes after last layer")
    return net
