"""Model checkpoint serialization.

Checkpoints are versioned JSON containers holding the hyperparameters, every
parameter tensor, the frozen embedding table, and checksums tying the model
to the vocabulary it was trained with. Floats serialize via Python's repr
(shortest round-tripping decimal), so save/load/save is byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from mtltox.embeddings import EmbeddingTable
from mtltox.network import Hyper, ModelParams

FORMAT_VERSION = 1
WRITE_CHUNK = 65536  # array values per encoder call in save_checkpoint


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint."""


def _holds_array(obj) -> bool:
    return isinstance(obj, np.ndarray) or isinstance(obj, dict) and any(map(_holds_array, obj.values()))


def _write_json(fh, obj) -> None:
    """Write json.dump's text for obj, arrays as {"shape", "data"} encoded WRITE_CHUNK values
    per call, so few Python floats exist at once. Dicts holding arrays need str keys."""
    if isinstance(obj, np.ndarray):
        fh.write(f'{{"shape": {json.dumps(list(obj.shape))}, "data": [')
        for i in range(0, obj.size, WRITE_CHUNK):
            fh.write((", " if i else "") + json.dumps(obj.flat[i : i + WRITE_CHUNK].tolist())[1:-1])
        fh.write("]}")
    elif not _holds_array(obj):
        fh.write(json.dumps(obj))
    else:
        for i, (key, value) in enumerate(obj.items()):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            _write_json(fh, value)
        fh.write("}")


def _tensor_from_json(obj: dict) -> np.ndarray:
    return np.array(obj["data"], dtype=float).reshape(obj["shape"])


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    table: EmbeddingTable,
    vocab_checksum: str,
    meta: dict | None = None,
) -> None:
    """Atomic write: serialize to a temp file, then rename into place."""
    payload = {
        "version": FORMAT_VERSION,
        "hyper": asdict(params.hyper),
        "vocab_checksum": vocab_checksum,
        "embedding": {"dim1": table.dim1, "dim2": table.dim2, "matrix": table.matrix},
        "tensors": params.tensors,
        "meta": meta or {},
    }
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_json(fh, payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str | Path) -> tuple[ModelParams, EmbeddingTable, str, dict]:
    """Returns (params, embedding table, vocab checksum, meta)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if payload.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {payload.get('version')!r}")
    hyper = Hyper(**payload["hyper"])
    params = ModelParams(
        hyper=hyper,
        tensors={name: _tensor_from_json(obj) for name, obj in payload["tensors"].items()},
    )
    emb = payload["embedding"]
    table = EmbeddingTable(
        matrix=_tensor_from_json(emb["matrix"]), dim1=emb["dim1"], dim2=emb["dim2"]
    )
    return params, table, payload["vocab_checksum"], payload.get("meta", {})
