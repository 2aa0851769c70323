"""Model checkpoint serialization.

A checkpoint (format version 3) is one line of JSON, a newline, and the
little-endian float64 bytes of the embedding matrix, then of the parameter
vector, so values come back bit for bit and save/load/save is
byte-identical. The header holds ``version``, ``hyper``, ``vocab_checksum``,
``embedding`` (``dim1``, ``dim2``), ``meta``, ``tensors`` (each tensor's
``shape``, in payload order) and the payload's ``sha256``. The shapes give
where each tensor starts and the payload's length. A load reads at most
HEADER_LIMIT bytes for the header line and checks the whole header against
the file's size before it allocates anything, then the payload against the
hash and every value for finiteness. Version 2 checkpoints still load;
version 1 (the whole file one JSON text) is not read: retrain with ``mtltox train``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from mtltox.corpus import atomic_write, from_json
from mtltox.embeddings import EmbeddingTable
from mtltox.network import Hyper, ModelParams, Tensors, param_shapes

FORMAT_VERSION = 3
# Versions a load reads. A version 2 header also gives each tensor's byte "offset" and the
# payload's length, "payload_bytes"; both follow from the shapes, so neither is read.
VERSIONS_READ = (2, 3)
DTYPE = "<f8"
EMBEDDING = "embedding"  # the embedding matrix's name in the header's "tensors"
# The header's keys in file order, with the JSON type of each value.
HEADER_TYPES = dict(version=int, hyper=dict, vocab_checksum=str, embedding=dict, meta=dict, tensors=dict, sha256=str)
HYPER_FIELDS = sorted(f.name for f in fields(Hyper))
HEADER_LIMIT = 1 << 20  # bytes; a longer first line is not a header
VERSION_1 = "checkpoint version 1; re-run `mtltox train`"


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint."""


def _bytes(a: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy (zero-size arrays too)."""
    return memoryview(a.reshape(-1)).cast("B")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _shape(entry) -> list[int] | None:
    """A tensor entry's shape, or None unless it is a list of non-negative integers."""
    shape = entry.get("shape") if isinstance(entry, dict) else None
    return shape if isinstance(shape, list) and all(map(_is_count, shape)) else None


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    table: EmbeddingTable,
    vocab_checksum: str,
    meta: dict | None = None,
) -> None:
    """The header line, the embedding matrix and the parameter vector, through ``atomic_write``."""
    buffers = [np.asarray(a, DTYPE, order="C") for a in (table.matrix, params.tensors.vector)]
    sha = hashlib.sha256()
    for a in buffers:
        sha.update(_bytes(a))
    header = {
        "version": FORMAT_VERSION,
        "hyper": asdict(params.hyper),
        "vocab_checksum": vocab_checksum,
        "embedding": {"dim1": table.dim1, "dim2": table.dim2},
        "meta": meta or {},
        "tensors": {name: {"shape": list(a.shape)} for name, a in {EMBEDDING: table.matrix, **params.tensors}.items()},
        "sha256": sha.hexdigest(),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for a in buffers:
            fh.write(_bytes(a))


def _check_header(path, header, payload_size: int) -> Hyper:
    """The header's model; refuse a header that is malformed or does not describe exactly payload_size bytes."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
    version = header.get("version")
    if version == 1:
        raise CheckpointError(f"{path}: {VERSION_1}")
    if version not in VERSIONS_READ:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    wrong = [key for key, kind in HEADER_TYPES.items() if not isinstance(header.get(key), kind)]
    if wrong:
        raise CheckpointError(f"{path}: checkpoint header lacks or mistypes {', '.join(wrong)}")
    if sorted(header["hyper"]) != HYPER_FIELDS:
        raise CheckpointError(f"{path}: 'hyper' has fields {sorted(header['hyper'])}, not {HYPER_FIELDS}")
    if not all(_is_count(header["embedding"].get(key)) for key in ("dim1", "dim2")):
        raise CheckpointError(f"{path}: 'embedding' must hold the integers dim1 and dim2")
    model = from_json(Hyper, header["hyper"], path, "hyper", CheckpointError)
    width = header["embedding"]["dim1"] + header["embedding"]["dim2"]
    if model.embed_dim != width:
        raise CheckpointError(f"{path}: 'hyper' embed_dim is {model.embed_dim}, not dim1 + dim2 = {width}")
    shapes = {name: _shape(entry) for name, entry in header["tensors"].items()}
    matrix = shapes.get(EMBEDDING)
    if matrix is None or len(matrix) != 2 or matrix[1] != width:
        raise CheckpointError(f"{path}: tensor '{EMBEDDING}' has shape {matrix}, not [rows, {width}]")
    expected = {EMBEDDING: matrix} | {name: list(shape) for name, shape in param_shapes(model).items()}
    if list(shapes.items()) != list(expected.items()):  # a load reads the matrix, then one vector in this order
        diff = [f"'{name}' {shapes.get(name)} (the model's {expected.get(name)})" for name in
                sorted(shapes.keys() | expected.keys()) if shapes.get(name) != expected.get(name)]
        raise CheckpointError(f"{path}: tensors do not fit 'hyper': {'; '.join(diff or [f'not in the order {list(expected)}'])}")
    size = 8 * sum(map(math.prod, expected.values()))
    if payload_size != size:
        raise CheckpointError(f"{path}: payload holds {payload_size} bytes, the header declares {size}")
    return model


def load_checkpoint(path: str | Path) -> tuple[ModelParams, EmbeddingTable, str, dict]:
    """Returns (params, embedding table, vocab checksum, meta).

    Reads format 3 or 2, the payload in two pieces sized from the header's
    shapes: the embedding matrix, then the parameter vector. A missing file raises
    FileNotFoundError. A file that cannot be read, whose header or payload is
    malformed or corrupt, or whose payload holds a NaN or an infinity, raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline(HEADER_LIMIT + 1)
            if len(line) > HEADER_LIMIT:  # version 1 was one JSON text, which is not read whole
                problem = VERSION_1 if line.startswith(b'{"version": 1,') else f"header is over {HEADER_LIMIT} bytes"
                raise CheckpointError(f"{path}: {problem}")
            try:
                header = json.loads(line)
            except ValueError as exc:
                raise CheckpointError(f"{path}: checkpoint header is not JSON: {exc}") from exc
            size = os.fstat(fh.fileno()).st_size - len(line)
            hyper = _check_header(path, header, size)
            matrix = np.empty(header["tensors"][EMBEDDING]["shape"], DTYPE)
            tensors = Tensors(param_shapes(hyper), np.empty(size // 8 - matrix.size, DTYPE))
            sha = hashlib.sha256()
            for what, a in (("embedding matrix", matrix), ("parameter vector", tensors.vector)):
                if fh.readinto(_bytes(a)) != a.nbytes:
                    raise CheckpointError(f"{path}: payload ends inside the {what}")
                sha.update(_bytes(a))
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if sha.hexdigest() != header["sha256"]:
        raise CheckpointError(f"{path}: payload SHA-256 does not match the header")
    if not (np.isfinite(matrix).all() and np.isfinite(tensors.vector).all()):
        bad = next(name for name, a in {EMBEDDING: matrix, **tensors}.items() if not np.isfinite(a).all())
        raise CheckpointError(f"{path}: tensor '{bad}' holds a non-finite value")
    emb = header["embedding"]
    table = EmbeddingTable(matrix=matrix, dim1=emb["dim1"], dim2=emb["dim2"])
    return ModelParams(hyper, tensors), table, header["vocab_checksum"], header["meta"]
