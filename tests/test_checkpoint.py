import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import tiny_hyper
from mtltox import checkpoint
from mtltox.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mtltox.corpus import Vocabulary
from mtltox.embeddings import random_table
from mtltox.network import init_params


def test_roundtrip_exact(tmp_path):
    hyper = tiny_hyper(n_aux=2)
    params = init_params(hyper, seed=13)
    vocab = Vocabulary.build([["a", "b"]])
    table = random_table(vocab, 1, 1, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, table, vocab.checksum(), meta={"note": "x"})
    loaded, loaded_table, checksum, meta = load_checkpoint(path)

    assert loaded.hyper == hyper
    assert checksum == vocab.checksum()
    assert meta == {"note": "x"}
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    assert np.array_equal(loaded_table.matrix, table.matrix)


def test_save_load_save_byte_identical(tmp_path):
    hyper = tiny_hyper()
    params = init_params(hyper, seed=1)
    vocab = Vocabulary.build([["a"]])
    table = random_table(vocab, 1, 1, seed=0)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_checkpoint(p1, params, table, vocab.checksum())
    loaded, loaded_table, checksum, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, loaded_table, checksum, meta)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("chunk", [3, checkpoint.WRITE_CHUNK])
def test_file_is_the_text_json_dump_writes(tmp_path, monkeypatch, chunk):
    """Arrays are encoded a chunk at a time, but the file holds the same text
    as one json.dump of the whole checkpoint: key order, separators, float
    repr, NaN and infinities, and meta keys that json turns into strings."""
    monkeypatch.setattr(checkpoint, "WRITE_CHUNK", chunk)
    hyper = tiny_hyper(n_aux=2)
    params = init_params(hyper, seed=3)
    params.tensors["dense1_W"].flat[:4] = [np.inf, -np.inf, np.nan, -0.0]
    vocab = Vocabulary.build([["a", "b"]])
    table = random_table(vocab, 1, 1, seed=0)
    meta = {"fold": 2, "alpha": 0.6, "nested": {"k": [1, 2.5, None]}, 7: True}
    path = tmp_path / "model.json"
    save_checkpoint(path, params, table, "abc", meta)

    def tensor(arr):
        return {"shape": list(arr.shape), "data": arr.ravel().tolist()}

    expected = {
        "version": 1,
        "hyper": asdict(hyper),
        "vocab_checksum": "abc",
        "embedding": {"dim1": table.dim1, "dim2": table.dim2, "matrix": tensor(table.matrix)},
        "tensors": {name: tensor(arr) for name, arr in params.tensors.items()},
        "meta": meta,
    }
    assert path.read_text(encoding="utf-8") == json.dumps(expected)


def test_unreadable_checkpoint(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"version": 99}')
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
