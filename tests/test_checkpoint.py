import hashlib
import json
import math
import os
import stat
import tracemalloc
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


def test_file_is_a_header_line_then_the_float64_payload(tmp_path):
    """The first line is the JSON header; then come the <f8 bytes of the
    embedding matrix and of each tensor in order, which the header's shapes
    and SHA-256 describe. The largest and smallest floats, a subnormal and
    -0.0 come back bit for bit, and meta keys that json turns into strings
    read back as strings."""
    hyper = tiny_hyper(n_aux=2)
    params = init_params(hyper, seed=3)
    params.tensors["dense1_W"].flat[:4] = [np.finfo(float).max, -np.finfo(float).max, 5e-324, -0.0]
    vocab = Vocabulary.build([["a", "b"]])
    table = random_table(vocab, 1, 1, seed=0)
    meta = {"fold": 2, "alpha": 0.6, "nested": {"k": [1, 2.5, None]}, 7: True}
    path = tmp_path / "model.json"
    save_checkpoint(path, params, table, "abc", meta)

    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    assert list(header) == list(checkpoint.HEADER_TYPES)
    assert header["version"] == 3
    assert header["hyper"] == asdict(hyper)
    assert header["vocab_checksum"] == "abc"
    assert header["embedding"] == {"dim1": table.dim1, "dim2": table.dim2}
    assert header["meta"] == {"fold": 2, "alpha": 0.6, "nested": {"k": [1, 2.5, None]}, "7": True}
    arrays = [table.matrix, *params.tensors.values()]
    assert list(header["tensors"]) == ["embedding", *params.tensors]
    assert header["tensors"] == {name: {"shape": list(a.shape)} for name, a in zip(header["tensors"], arrays)}
    assert payload == b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)
    assert header["sha256"] == hashlib.sha256(payload).hexdigest()

    loaded, _, _, loaded_meta = load_checkpoint(path)
    saved_bits = params.tensors["dense1_W"].view("<u8")
    assert np.array_equal(loaded.tensors["dense1_W"].view("<u8"), saved_bits)
    assert loaded_meta["7"] is True


def test_format_2_loads_bit_for_bit_and_resaves_as_format_3(tmp_path):
    """A version 2 header is a version 3 header plus each tensor's byte
    ``offset`` and the ``payload_bytes``; it loads, and a save of what it
    loaded writes the same payload under a version 3 header."""
    params = init_params(tiny_hyper(n_aux=2), seed=4)
    vocab = Vocabulary.build([["a", "b"]])
    table = random_table(vocab, 1, 1, seed=0)
    v3 = tmp_path / "v3.json"
    save_checkpoint(v3, params, table, vocab.checksum(), meta={"fold": 1})
    line, payload = v3.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["version"], offset = 2, 0
    for entry in header["tensors"].values():
        entry["offset"] = offset
        offset += 8 * math.prod(entry["shape"])
    header = {key: header[key] for key in ("version", "hyper", "vocab_checksum", "embedding", "meta", "tensors")} | {
        "payload_bytes": offset, "sha256": header["sha256"]
    }
    v2 = tmp_path / "v2.json"
    v2.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    loaded, loaded_table, checksum, meta = load_checkpoint(v2)
    assert loaded.hyper == params.hyper and checksum == vocab.checksum() and meta == {"fold": 1}
    assert loaded.tensors.vector.view("<u8").tobytes() == params.tensors.vector.view("<u8").tobytes()
    assert loaded_table.matrix.view("<u8").tobytes() == table.matrix.view("<u8").tobytes()
    again = tmp_path / "again.json"
    save_checkpoint(again, loaded, loaded_table, checksum, meta)
    assert again.read_bytes() == v3.read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_refused_naming_the_tensor(tmp_path, value):
    params = init_params(tiny_hyper(n_aux=2), seed=3)
    params.tensors["dense2_W"].flat[1] = value
    table = random_table(Vocabulary.build([["a", "b"]]), 1, 1, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, table, "abc")
    with pytest.raises(CheckpointError, match="tensor 'dense2_W' holds a non-finite value") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


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


def _header_and_payload(tmp_path):
    params = init_params(tiny_hyper(), seed=1)
    vocab = Vocabulary.build([["a"]])
    path = tmp_path / "good.json"
    save_checkpoint(path, params, random_table(vocab, 1, 1, seed=0), vocab.checksum())
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _with_tensor(header, name, entry):
    return header | {"tensors": header["tensors"] | {name: entry}}


HUGE = 2**31
NO_MATRIX = "tensor 'embedding' has shape None, not [rows, 2]"
MALFORMED_HEADERS = {
    "list": (lambda h: [1, 2], "not a JSON object"),
    "version-1": (lambda h: {"version": 1}, "checkpoint version 1; re-run `mtltox train`"),
    "version-99": (lambda h: {"version": 99}, "unsupported checkpoint version 99"),
    "no-version": (lambda h: _without(h, "version"), "version None"),
    "no-hyper": (lambda h: _without(h, "hyper"), "lacks or mistypes hyper"),
    "no-sha256": (lambda h: _without(h, "sha256"), "lacks or mistypes sha256"),
    "hyper-unknown-field": (lambda h: h | {"hyper": h["hyper"] | {"bogus": 1}}, "'hyper' has fields"),
    "hyper-missing-field": (lambda h: h | {"hyper": _without(h["hyper"], "hidden")}, "'hyper' has fields"),
    "hyper-not-object": (lambda h: h | {"hyper": [1]}, "lacks or mistypes hyper"),
    "tensors-not-object": (lambda h: h | {"tensors": []}, "lacks or mistypes tensors"),
    "no-embedding": (lambda h: h | {"tensors": _without(h["tensors"], "embedding")}, NO_MATRIX),
    "shape-not-list": (lambda h: _with_tensor(h, "embedding", {"shape": 4}), NO_MATRIX),
    "shape-negative": (lambda h: _with_tensor(h, "embedding", {"shape": [-2, 2]}), NO_MATRIX),
    "shape-float": (lambda h: _with_tensor(h, "embedding", {"shape": [2.0, 2]}), NO_MATRIX),
    "entry-not-object": (lambda h: _with_tensor(h, "embedding", [2, 2]), NO_MATRIX),
    "model-shape-float": (lambda h: _with_tensor(h, "dense1_b", {"shape": [2.0]}), "'dense1_b' None (the model's [2])"),
    "model-shape-bool": (lambda h: _with_tensor(h, "head_tox_b", {"shape": [True]}), "'head_tox_b' None (the model's [1])"),
    "model-tensor-missing": (lambda h: h | {"tensors": _without(h["tensors"], "attn_w")}, "'attn_w' None (the model's [4])"),
    "sha256-not-string": (lambda h: h | {"sha256": 123}, "lacks or mistypes sha256"),
    "larger-than-file": (lambda h: _with_tensor(h, "embedding", {"shape": [HUGE, 2]}), "the header declares"),
}


@pytest.mark.parametrize("mutate, message", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_refused_before_allocating(tmp_path, monkeypatch, mutate, message):
    header, payload = _header_and_payload(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(mutate(header)).encode() + b"\n" + payload)

    def no_allocation(*args, **kwargs):
        raise AssertionError("np.empty called for a malformed header")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_parameter_tensors_in_another_order_refused(tmp_path):
    """The model's tensors must follow the embedding in ``param_shapes`` order,
    as a save writes them, because a load reads them as one vector: a header
    that lists them last to first is refused, though its shapes and hash
    describe the reordered payload."""
    header, payload = _header_and_payload(tmp_path)
    chunks, start = {}, 0
    for name, entry in header["tensors"].items():
        size = 8 * math.prod(entry["shape"])
        chunks[name], start = payload[start : start + size], start + size
    embedding, *names = header["tensors"]
    order = [embedding, *reversed(names)]
    payload = b"".join(chunks[name] for name in order)
    header |= {"tensors": {name: header["tensors"][name] for name in order}, "sha256": hashlib.sha256(payload).hexdigest()}
    path = tmp_path / "reordered.json"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="tensors do not fit 'hyper': not in the order") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_missing_checkpoint_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.json")


def test_directory_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match=str(tmp_path)):
        load_checkpoint(tmp_path)


def test_checkpoint_gets_the_usual_file_mode(tmp_path):
    params = init_params(tiny_hyper(), seed=1)
    vocab = Vocabulary.build([["a"]])
    umask = os.umask(0o022)
    try:
        save_checkpoint(tmp_path / "model.json", params, random_table(vocab, 1, 1, seed=0), vocab.checksum())
        (tmp_path / "plain.json").write_bytes(b"{}")
    finally:
        os.umask(umask)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model.json", "plain.json"]  # no temp file left
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("model.json", "plain.json")]
    assert modes == [0o644, 0o644]


def _long_line(start: bytes) -> bytes:
    """A single-line file of over 20 MB that starts with ``start``, like a version 1 checkpoint."""
    return start + b", ".join([b"0.123456789"] * 2_000_000) + b"]}}"


@pytest.mark.parametrize(
    "start, message",
    [
        (b'{"version": 1, "hyper": {}, "tensors": {"w": [', "checkpoint version 1; re-run `mtltox train`"),
        (b'{"hyper": {}, "version": 1, "tensors": {"w": [', "header is over 1048576 bytes"),
    ],
    ids=["version-1", "other"],
)
def test_long_first_line_refused_without_reading_it_all(tmp_path, start, message):
    path = tmp_path / "v1.json"
    path.write_bytes(_long_line(start))
    assert path.stat().st_size > 20 * 2**20
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
    assert peak < 4 * 2**20, peak
