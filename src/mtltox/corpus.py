"""Corpus ingestion: parsing, tokenization, vocabulary, label binarization, folds.

Input follows the Civil Comments CSV/JSONL schema: a ``comment_text`` column,
a fractional ``target`` toxicity score, nine identity columns and five
toxicity-subtype columns, all in [0, 1]. Identity cells may be empty, in
which case the record is unannotated (distinct from zero): its comment's
``identity_labels`` is None until identity propagation fills it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

PAD_INDEX = 0
UNK_INDEX = 1

IDENTITY_COLUMNS = (
    "male",
    "female",
    "homosexual_gay_or_lesbian",
    "christian",
    "jewish",
    "muslim",
    "black",
    "white",
    "psychiatric_or_mental_illness",
)

SUBTYPE_COLUMNS = (
    "severe_toxicity",
    "obscene",
    "threat",
    "identity_attack",
    "insult",
)

# Stripped before whitespace splitting; apostrophes are kept so contractions
# survive, and case is never folded.
PUNCTUATION = '.,!?;:"()'


class CorpusError(ValueError):
    """Malformed input data (bad row, unknown column, unusable value)."""


@dataclass
class RawRecord:
    """One parsed input row, pre-tokenization."""

    id: str
    comment_text: str
    target: float
    identity_scores: dict[str, float] | None  # None = not annotated
    subtype_scores: dict[str, float] = field(default_factory=dict)


@dataclass(kw_only=True)
class Comment:
    """One encoded training/evaluation example. Its binary label and whether it
    needs identity propagation follow from its fields, so they are properties."""

    id: str
    token_ids: np.ndarray  # the real tokens' ids, int64, at most max_len of them
    y: float  # the toxicity score, in [0, 1]
    identity_labels: np.ndarray | None  # (K,) scores in [0, 1], or None when unannotated
    subtype_labels: np.ndarray  # (S,) scores in [0, 1]
    beta: float = 1.0  # set by reweight
    propagated: bool = False  # identity_labels filled by propagate_identities

    @property
    def y_bin(self) -> int:
        return int(self.y >= 0.5)

    @property
    def needs_propagation(self) -> bool:
        return self.identity_labels is None

    @property
    def identities_present(self):
        """(K,) bools, identity label >= 0.5; empty when unannotated, so the comment is in no subgroup."""
        return () if self.identity_labels is None else self.identity_labels >= 0.5

    @property
    def true_length(self) -> int:
        return len(self.token_ids)


def tokenize(text: str) -> list[str]:
    """Strip the PUNCTUATION characters and split on whitespace.

    Case is preserved. Total: any string (including empty) tokenizes.
    """
    return text.translate(str.maketrans("", "", PUNCTUATION)).split()


class Vocabulary:
    """Token-to-index map with index 0 reserved for padding, 1 for unknown."""

    def __init__(self, token_to_index: dict[str, int]):
        self._token_to_index = token_to_index  # indices 2, 3, ... in some order

    @classmethod
    def build(cls, token_sequences) -> "Vocabulary":
        """Build from an iterable of token lists (training split only).

        Tokens are ranked by descending frequency, ties broken by first
        occurrence, so the result is deterministic.
        """
        counts: dict[str, int] = {}
        order: dict[str, int] = {}
        for seq in token_sequences:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
                order.setdefault(tok, len(order))
        ranked = sorted(counts, key=lambda t: (-counts[t], order[t]))
        return cls({tok: 2 + i for i, tok in enumerate(ranked)})

    def __len__(self) -> int:
        # Includes the two reserved indices.
        return len(self._token_to_index) + 2

    def index_of(self, token: str) -> int:
        return self._token_to_index.get(token, UNK_INDEX)

    def tokens_by_index(self) -> list[str | None]:
        """Token for each index; None at the two reserved slots."""
        out: list[str | None] = [None] * len(self)
        for tok, idx in self._token_to_index.items():
            out[idx] = tok
        return out

    def _lines(self) -> list[str]:
        """One ``token<TAB>index`` line per token, sorted by index."""
        return [
            f"{tok}\t{idx}"
            for tok, idx in sorted(self._token_to_index.items(), key=lambda kv: kv[1])
        ]

    def save(self, path: str | Path) -> None:
        lines = self._lines()
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """One ``token<TAB>index`` per line, as ``save`` writes them."""
        def entry(_, line: str) -> tuple[str, int]:
            tok, tab, idx = line.rpartition("\t")
            if not tab:
                raise ValueError(f"expected token<TAB>index: {line!r}")
            return tok, int(idx)

        mapping = dict(read_rows(path, "lines", entry))
        if sorted(mapping.values()) != list(range(2, 2 + len(mapping))):
            raise CorpusError(f"{path}: vocabulary indices must be contiguous from 2, one per token")
        return cls(mapping)

    def checksum(self) -> str:
        """Stable hex digest of the serialized form, for checkpoint pairing."""
        import hashlib

        return hashlib.sha256("\n".join(self._lines()).encode("utf-8")).hexdigest()


def read_rows(path: str | Path, kind: str, parse: typing.Callable) -> list:
    """``[parse(n, row) ...]`` over a file's rows: for ``kind`` "csv" a ``DictReader``
    dict per data row, numbered from 1; for "jsonl" the parsed value, and for
    "lines" the text without its ending, of each non-blank line, numbered by line.

    Decoding goes a line at a time: a byte that is not UTF-8 raises CorpusError
    ``<file>: line <n>: ...``; invalid JSON or CSV, or a KeyError, TypeError,
    ValueError or OverflowError from ``parse``, ``<file>: row <n>: ...`` (a
    CorpusError keeps its class). A missing file raises FileNotFoundError.
    """
    path, line, n, out = Path(path), 0, 0, []

    def decoded(fh):
        nonlocal line
        for line, raw in enumerate(fh, 1):
            yield raw.decode("utf-8")

    with path.open("rb") as fh:
        if kind == "csv":
            rows = enumerate(csv.DictReader(decoded(fh)), 1)
        else:
            rows = ((k, text.rstrip("\r\n")) for k, text in enumerate(decoded(fh), 1) if text.strip())
        try:
            for n, row in rows:
                out.append(parse(n, json.loads(row) if kind == "jsonl" else row))
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: line {line}: not UTF-8: {exc.reason}, byte {exc.start + 1}") from exc
        except csv.Error as exc:
            raise CorpusError(f"{path}: row {n + 1}: invalid CSV: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: row {n}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise CorpusError(f"{path}: row {n}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            error = type(exc) if isinstance(exc, CorpusError) else CorpusError
            raise error(f"{path}: row {n}: {exc}") from exc
    return out


@contextlib.contextmanager
def atomic_write(path: str | Path, **text):
    """A new temp file beside ``path``, opened "xb", or "x" with the text options
    given (``encoding``, ``newline``), which replaces ``path`` when the block ends.
    On any exception the temp file is removed and ``path`` is left as it was, so
    no reader meets a partial output. A symlink's target is the file replaced.

    Only a missing path or a regular file is replaced: any other existing
    target (a device such as /dev/null, a FIFO, a pipe at /dev/stdout) is
    opened "w" or "wb" and written in place, as no file can stand in for it."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)  # through any symlink
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w" if text else "wb", **text) as fh:
            yield fh
        return
    path = Path(path).resolve()
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x" if text else "xb", **text) as fh:  # a new file, with the mode open(path, "w") would give
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The JSON value types a field of each type accepts, and their name; a bool is not a number.
JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def from_json(cls, obj, path, section: str, error: type[Exception] = CorpusError, **given):
    """``cls(**given, **obj)`` from the JSON object ``obj``, the ``section`` of the file ``path``.

    ``error`` names the file and the section, or ``<section>.<key>``, when ``obj``
    is not an object, a key is not a field of the dataclass ``cls`` or is one of
    ``given``'s, a value's JSON type does not fit its field, an integer is too
    large for a float, an integer field is above ``sys.maxsize`` (numpy takes
    no larger size), or ``cls`` refuses a value with a ValueError.
    """
    if not isinstance(obj, dict):
        raise error(f"{path}: '{section}' must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = [f"{section}.{key}" for key in obj if key not in hints or key in given]
    if unknown:
        raise error(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    for key, value in obj.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)  # (X, NoneType) for X | None
        accepted, what = JSON_TYPES[kinds[0]]
        if type(None) in kinds:
            accepted, what = (*accepted, type(None)), f"{what} or null"
        if type(value) not in accepted:
            raise error(f"{path}: '{section}.{key}' must be {what}")
        if type(value) is int:  # the model's arithmetic turns it into a float
            try:
                float(value)
            except OverflowError:
                raise error(f"{path}: '{section}.{key}' is an integer too large for a float") from None
            if kinds[0] is int and value > sys.maxsize:
                raise error(f"{path}: '{section}.{key}' must be at most {sys.maxsize}")
    try:
        return cls(**given, **obj)
    except ValueError as exc:  # the dataclasses' checks read "<field> must be ..."
        raise error(f"{path}: {section}.{exc}") from exc


def _parse_score(value, name: str) -> float:
    if isinstance(value, bool):  # a JSON true or false, which float() would read as 1 or 0
        raise CorpusError(f"field {name!r} is not a number: {value!r}")
    try:
        score = float(value)
    except (TypeError, ValueError):
        raise CorpusError(f"field {name!r} is not a number: {value!r}")
    if not 0.0 <= score <= 1.0:
        raise CorpusError(f"field {name!r} out of [0,1]: {score}")
    return score


def _record_from_mapping(row_num: int, row) -> RawRecord:
    """A corpus row as a RawRecord; its row number is the default id."""
    if not isinstance(row, dict):
        raise CorpusError(f"a record must be a JSON object, got {row!r}")
    if row.get("comment_text") is None:
        raise CorpusError("missing field 'comment_text'")
    if not isinstance(row["comment_text"], str):
        raise CorpusError(f"field 'comment_text' is not a string: {row['comment_text']!r}")
    if row.get("target") in (None, ""):
        raise CorpusError("missing field 'target'")
    target = _parse_score(row["target"], "target")

    identity_scores = {n: _parse_score(row[n], n) for n in IDENTITY_COLUMNS if row.get(n) not in (None, "")}
    subtype_scores = {n: _parse_score(row[n], n) for n in SUBTYPE_COLUMNS if row.get(n) not in (None, "")}
    return RawRecord(
        id=str(row.get("id", row_num)),
        comment_text=row["comment_text"],
        target=target,
        identity_scores=identity_scores or None,
        subtype_scores=subtype_scores,
    )


def load_corpus(path: str | Path, schema: str = "csv") -> list[RawRecord]:
    """Parse a CSV or JSONL file into RawRecords.

    Identity columns that are absent from the file, or empty in a row, leave
    that record's ``identity_scores`` as None (unannotated), never zero.
    """
    if schema not in ("csv", "jsonl"):
        raise CorpusError(f"unknown schema: {schema!r} (expected 'csv' or 'jsonl')")
    return read_rows(path, schema, _record_from_mapping)


def make_comment(
    comment_id: str, text: str, y: float, identity_labels: np.ndarray | None, vocab: Vocabulary,
    max_len: int, c: float, subtype_labels: np.ndarray | None = None,
) -> Comment:
    """Encode one comment and derive its weight.

    The comment keeps the ids of its first ``max_len`` tokens, unpadded. Its
    label ``y_bin`` is ``y >= 0.5``. Non-toxic comments that mention an
    identity (an identity label >= 0.5) get weight c, the false positive
    penalty multiplier; everything else gets weight 1. ``identity_labels=None``
    means unannotated: the comment keeps None, is weighted as identity-absent,
    and ``needs_propagation`` reads true. Omitted subtype labels are zero.
    """
    if not 0.0 < c < np.inf:  # NaN fails this too
        raise ValueError(f"c must be finite and > 0, got {c}")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    comment = Comment(
        id=comment_id,
        token_ids=np.array([vocab.index_of(tok) for tok in tokenize(text)[:max_len]], dtype=np.int64),
        y=y,
        identity_labels=identity_labels,
        subtype_labels=np.zeros(len(SUBTYPE_COLUMNS)) if subtype_labels is None else subtype_labels,
    )
    reweight(comment, c)
    return comment


def binarize_and_weight(record: RawRecord, c: float, vocab: Vocabulary, max_len: int = 220) -> Comment:
    """``make_comment`` on one record's text, target and scores, in column order."""
    scores = record.identity_scores
    identity = None if scores is None else np.array([scores.get(n, 0.0) for n in IDENTITY_COLUMNS], dtype=float)
    subtypes = np.array([record.subtype_scores.get(n, 0.0) for n in SUBTYPE_COLUMNS], dtype=float)
    return make_comment(record.id, record.comment_text, record.target, identity, vocab, max_len, c, subtypes)


def reweight(comment: Comment, c: float) -> None:
    """Recompute beta in place: c for a non-toxic comment with an identity label >= 0.5, else 1."""
    # Builtin any: a fifth of np.any's cost on 9 labels, once per comment.
    comment.beta = c if comment.y_bin == 0 and any(comment.identities_present) else 1.0


def comment_to_dict(comment: Comment) -> dict:
    """The fields by name; JSON holds the arrays as lists, and None as null."""
    values = {f.name: getattr(comment, f.name) for f in fields(Comment)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def _json_score(value, name: str) -> float:
    """A score of a prepared line: a JSON number (a string is not one here) that ``_parse_score`` takes."""
    if type(value) not in JSON_TYPES[float][0]:
        raise CorpusError(f"field {name!r} is not a number: {value!r}")
    return _parse_score(value, name)


def _json_scores(value, name: str) -> np.ndarray:
    """A list of scores, checked in one pass; only a list that fails is read a score at a time, to name the fault."""
    if type(value) is not list:
        raise CorpusError(f"field {name!r} is not a list of numbers: {value!r}")
    accepted = JSON_TYPES[float][0]
    if all(type(v) in accepted and 0.0 <= v <= 1.0 for v in value):  # NaN fails this too
        return np.array(value, dtype=float)
    return np.array([_json_score(v, f"{name}[{k}]") for k, v in enumerate(value)], dtype=float)


def comment_from_dict(obj) -> Comment:
    """The comment of one prepared line, every field checked; a fault raises
    CorpusError ``bad comment: <what>``, and a missing field KeyError.

    ``id`` is a string, ``token_ids`` non-negative integers, ``y`` and each
    label a JSON number in [0, 1], ``identity_labels`` a list or null (null is
    unannotated), ``beta`` a finite number above 0, and ``propagated`` true or
    false; older lines lack it. The label counts are not checked here. Older
    lines also read: ``token_ids`` padded, with the real count as
    ``true_length``; a ``y_bin``, which must be ``y >= 0.5``; and
    ``needs_propagation``: true stands for null ``identity_labels`` (such a
    line stores zeros, which are not read), false for the labels stored.
    Other keys are ignored.
    """
    try:
        if not isinstance(obj, dict):
            raise CorpusError(f"a prepared line must be a JSON object, got {obj!r}")
        ids = np.array(obj["token_ids"])
        if ids.ndim != 1 or ids.size and (ids.dtype.kind != "i" or ids.min() < 0):
            raise CorpusError("token_ids must be a list of non-negative integers")
        n = obj.get("true_length", ids.size)
        if type(n) is not int or not 0 <= n <= ids.size:
            raise CorpusError(f"true_length {n!r} is not an integer in [0, {ids.size}]")
        typed = {"id": obj["id"], "beta": obj["beta"], "propagated": obj.get("propagated", False)}
        for (name, value), kind in zip(typed.items(), (str, float, bool)):
            accepted, what = JSON_TYPES[kind]
            if type(value) not in accepted:
                raise CorpusError(f"field {name!r} must be {what}, got {value!r}")
        beta = float(typed["beta"])
        if not 0.0 < beta < math.inf:  # NaN fails this too
            raise CorpusError(f"field 'beta' must be finite and > 0, got {beta}")
        identity = obj["identity_labels"]
        needs_propagation = obj.get("needs_propagation", identity is None)
        if type(needs_propagation) is not bool:
            raise CorpusError(f"field 'needs_propagation' must be true or false, got {needs_propagation!r}")
        if identity is None and not needs_propagation:
            raise CorpusError("field 'needs_propagation' is false, but 'identity_labels' is null")
        comment = Comment(
            id=typed["id"],
            token_ids=ids[:n].astype(np.int64),
            y=_json_score(obj["y"], "y"),
            identity_labels=None if needs_propagation else _json_scores(identity, "identity_labels"),
            subtype_labels=_json_scores(obj["subtype_labels"], "subtype_labels"),
            beta=beta,
            propagated=typed["propagated"],
        )
        y_bin = obj.get("y_bin", comment.y_bin)
        if type(y_bin) is not int or y_bin != comment.y_bin:
            raise CorpusError(f"field 'y_bin' is {y_bin!r}, but 'y' {comment.y} gives {comment.y_bin}")
        return comment
    except CorpusError as exc:
        raise CorpusError(f"bad comment: {exc}") from None


def save_comments(path: str | Path, comments: list[Comment]) -> None:
    """One JSON object per line, in order."""
    with atomic_write(path, encoding="utf-8") as fh:
        for comment in comments:
            fh.write(json.dumps(comment_to_dict(comment)) + "\n")


def _prepared_comment(_, obj) -> Comment:
    comment = comment_from_dict(obj)
    if comment.true_length == 0:
        raise CorpusError(f"comment {comment.id!r} has no tokens")
    return comment


def load_comments(path: str | Path) -> list[Comment]:
    """The comments of a prepared JSONL file, as ``save_comments`` writes them; a file of none is refused."""
    comments = read_rows(path, "jsonl", _prepared_comment)
    if not comments:
        raise CorpusError(f"{path}: no comments")
    return comments


def make_folds(n: int, k_folds: int = 5, seed: int = 0) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Shuffle indices with the given seed and split into K disjoint folds,
    each a ``(train_idx, val_idx)`` pair.

    Validation fold sizes differ by at most one; together they cover every
    index exactly once.
    """
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if n < k_folds:
        raise ValueError(f"need at least {k_folds} records, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, k_folds)
    folds = []
    start = 0
    for i in range(k_folds):
        size = base + (1 if i < extra else 0)
        val = perm[start : start + size]
        train = np.concatenate([perm[:start], perm[start + size :]])
        folds.append((tuple(int(j) for j in train), tuple(int(j) for j in val)))
        start += size
    return tuple(folds)
