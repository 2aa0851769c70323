"""Corpus ingestion: parsing, tokenization, vocabulary, label binarization, folds.

Input follows the Civil Comments CSV/JSONL schema: a ``comment_text`` column,
a fractional ``target`` toxicity score, nine identity columns and five
toxicity-subtype columns, all in [0, 1]. Identity cells may be empty, in
which case the record is treated as unannotated (distinct from zero) and
flagged for identity propagation.
"""

from __future__ import annotations

import csv
import json
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
DEFAULT_PUNCTUATION = '.,!?;:"()'


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


@dataclass
class Comment:
    """One encoded training/evaluation example."""

    id: str
    token_ids: np.ndarray  # shape (max_len,), int
    true_length: int
    y: float
    y_bin: int
    identity_labels: np.ndarray  # shape (9,), floats in [0, 1]
    subtype_labels: np.ndarray  # shape (5,), floats in [0, 1]
    identity_present: bool = False  # identity_present and beta are set by reweight
    beta: float = 1.0
    needs_propagation: bool = False
    propagated: bool = False


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic K-fold split: ``folds[i] = (train_idx, val_idx)``."""

    n: int
    k_folds: int
    seed: int
    folds: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def tokenize(text: str, punctuation: str = DEFAULT_PUNCTUATION) -> list[str]:
    """Strip the configured punctuation characters and split on whitespace.

    Case is preserved. Total: any string (including empty) tokenizes.
    """
    cleaned = text.translate(str.maketrans("", "", punctuation))
    return cleaned.split()


class Vocabulary:
    """Token-to-index map with index 0 reserved for padding, 1 for unknown."""

    def __init__(self, tokens_by_index: dict[str, int] | None = None):
        self._token_to_index: dict[str, int] = {}
        if tokens_by_index:
            for token, index in tokens_by_index.items():
                if index < 2:
                    raise CorpusError(f"vocabulary index {index} is reserved")
                self._token_to_index[token] = index
            indices = sorted(self._token_to_index.values())
            if indices != list(range(2, 2 + len(indices))):
                raise CorpusError("vocabulary indices must be contiguous from 2")

    @classmethod
    def build(cls, token_sequences, max_size: int | None = None) -> "Vocabulary":
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
        if max_size is not None:
            ranked = ranked[:max_size]
        vocab = cls()
        vocab._token_to_index = {tok: 2 + i for i, tok in enumerate(ranked)}
        return vocab

    def __len__(self) -> int:
        # Includes the two reserved indices.
        return len(self._token_to_index) + 2

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_index

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
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        mapping: dict[str, int] = {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line:
                continue
            try:
                tok, idx = line.rsplit("\t", 1)
                mapping[tok] = int(idx)
            except ValueError as exc:
                raise CorpusError(f"{path}: bad vocabulary line {lineno}: {line!r}") from exc
        return cls(mapping)

    def checksum(self) -> str:
        """Stable hex digest of the serialized form, for checkpoint pairing."""
        import hashlib

        return hashlib.sha256("\n".join(self._lines()).encode("utf-8")).hexdigest()


def encode(
    tokens: list[str], vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, int]:
    """Map tokens to indices, truncate to max_len, right-pad with PAD_INDEX."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = tokens[:max_len]
    ids = np.full(max_len, PAD_INDEX, dtype=np.int64)
    for i, tok in enumerate(kept):
        ids[i] = vocab.index_of(tok)
    return ids, len(kept)


def _parse_score(value, row_num: int, name: str) -> float:
    try:
        score = float(value)
    except (TypeError, ValueError):
        raise CorpusError(f"row {row_num}: field {name!r} is not a number: {value!r}")
    if not 0.0 <= score <= 1.0:
        raise CorpusError(f"row {row_num}: field {name!r} out of [0,1]: {score}")
    return score


def _record_from_mapping(row: dict, row_num: int, identity_columns) -> RawRecord:
    if "comment_text" not in row or row["comment_text"] is None:
        raise CorpusError(f"row {row_num}: missing field 'comment_text'")
    if "target" not in row or row["target"] in (None, ""):
        raise CorpusError(f"row {row_num}: missing field 'target'")
    target = _parse_score(row["target"], row_num, "target")

    identity_scores: dict[str, float] = {}
    any_identity_column = False
    for name in identity_columns:
        if name in row:
            any_identity_column = True
            value = row[name]
            if value in (None, ""):
                continue
            identity_scores[name] = _parse_score(value, row_num, name)
    subtype_scores: dict[str, float] = {}
    for name in SUBTYPE_COLUMNS:
        value = row.get(name)
        if value not in (None, ""):
            subtype_scores[name] = _parse_score(value, row_num, name)

    return RawRecord(
        id=str(row.get("id", row_num)),
        comment_text=str(row["comment_text"]),
        target=target,
        identity_scores=identity_scores if (any_identity_column and identity_scores) else None,
        subtype_scores=subtype_scores,
    )


def _jsonl_rows(path: Path):
    """Yield (row number, parsed object) per nonblank line; rows are numbered by line."""
    for row_num, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            yield row_num, json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: row {row_num}: invalid JSON: {exc}") from exc


def load_corpus(
    path: str | Path,
    schema: str = "csv",
    identity_columns=IDENTITY_COLUMNS,
) -> list[RawRecord]:
    """Parse a CSV or JSONL file into RawRecords.

    Identity columns that are absent from the file, or empty in a row, leave
    that record's ``identity_scores`` as None (unannotated), never zero.
    """
    for name in identity_columns:
        if name not in IDENTITY_COLUMNS:
            raise CorpusError(f"unknown identity column: {name!r}")
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"input file not found: {path}")

    records: list[RawRecord] = []
    if schema == "csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "comment_text" not in reader.fieldnames:
                raise CorpusError(f"{path}: header must include 'comment_text'")
            for row_num, row in enumerate(reader, 1):
                records.append(_record_from_mapping(row, row_num, identity_columns))
    elif schema == "jsonl":
        for row_num, row in _jsonl_rows(path):
            records.append(_record_from_mapping(row, row_num, identity_columns))
    else:
        raise CorpusError(f"unknown schema: {schema!r} (expected 'csv' or 'jsonl')")
    return records


def make_comment(
    comment_id: str, text: str, y: float, identity_labels: np.ndarray | None, vocab: Vocabulary,
    max_len: int, c: float, subtype_labels: np.ndarray | None = None,
) -> Comment:
    """Encode one comment and derive its binary label, identity flag and weight.

    The label is ``y >= 0.5``. Non-toxic comments that mention an identity
    (an identity label >= 0.5) get weight c, the false positive penalty
    multiplier; everything else gets weight 1. ``identity_labels=None`` means
    unannotated: the labels are zero, so the comment is weighted as
    identity-absent, and it is flagged ``needs_propagation``. Omitted subtype
    labels are zero.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    token_ids, true_length = encode(tokenize(text), vocab, max_len)
    comment = Comment(
        id=comment_id,
        token_ids=token_ids,
        true_length=true_length,
        y=y,
        y_bin=int(y >= 0.5),
        identity_labels=np.zeros(len(IDENTITY_COLUMNS)) if identity_labels is None else identity_labels,
        subtype_labels=np.zeros(len(SUBTYPE_COLUMNS)) if subtype_labels is None else subtype_labels,
        needs_propagation=identity_labels is None,
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
    """Recompute identity_present and beta in place from identity_labels."""
    # Builtin any: a fifth of np.any's cost on 9 labels, once per comment.
    comment.identity_present = any(comment.identity_labels >= 0.5)
    comment.beta = c if (comment.y_bin == 0 and comment.identity_present) else 1.0


# The array fields of Comment and their dtypes; JSON holds them as lists.
_ARRAY_FIELDS = {"token_ids": np.int64, "identity_labels": float, "subtype_labels": float}


def comment_to_dict(comment: Comment) -> dict:
    values = {f.name: getattr(comment, f.name) for f in fields(Comment)}
    values.update((name, values[name].tolist()) for name in _ARRAY_FIELDS)
    return values


def comment_from_dict(obj: dict) -> Comment:
    """Every field is required except ``propagated``, which older files lack."""
    values = {f.name: obj[f.name] for f in fields(Comment) if f.name != "propagated" or f.name in obj}
    values.update((name, np.array(values[name], dtype=dtype)) for name, dtype in _ARRAY_FIELDS.items())
    return Comment(**values)


def save_comments(path: str | Path, comments: list[Comment]) -> None:
    """One JSON object per line, in order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(json.dumps(comment_to_dict(comment)) + "\n")


def load_comments(path: str | Path) -> list[Comment]:
    path = Path(path)
    comments = []
    for row_num, obj in _jsonl_rows(path):
        try:
            comment = comment_from_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: row {row_num}: bad comment: {exc!r}") from exc
        if comment.true_length == 0:
            raise CorpusError(f"{path}: row {row_num}: comment {comment.id!r} has no tokens")
        comments.append(comment)
    return comments


def make_folds(n: int, k_folds: int = 5, seed: int = 0) -> FoldPlan:
    """Shuffle indices with the given seed and split into K disjoint folds.

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
    return FoldPlan(n=n, k_folds=k_folds, seed=seed, folds=tuple(folds))
