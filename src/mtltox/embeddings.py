"""Pre-trained word vector loading and the frozen concatenated embedding table.

Each vocabulary word gets a vector of dimension D1 + D2 built from two text
sources (GloVe-style files). Words missing from a source get a seeded random
vector in that source's slice, so table construction is reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mtltox.corpus import PAD_INDEX, CorpusError, Vocabulary, read_rows


# Rows per block when build_table draws the vectors of missing words.
OOV_BLOCK_ROWS = 1024


class EmbeddingError(CorpusError):
    """Malformed embedding file."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Frozen |V| x (D1 + D2) lookup matrix; row 0 (padding) is all zeros."""

    matrix: np.ndarray
    dim1: int
    dim2: int

    @property
    def dim(self) -> int:
        return self.dim1 + self.dim2


def load_vectors(path: str | Path, dim: int) -> dict[str, np.ndarray]:
    """Parse a text embedding file: one ``word v1 ... v_dim`` per line.

    A FastText-style header line (``count dim``) is detected and skipped.
    Every value must be a finite number. Duplicate words keep the last
    occurrence, with a warning.
    """
    def entry(lineno: int, line: str):
        parts = line.split(" ")
        if lineno == 1 and len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal():
            return None  # the header
        if len(parts) != dim + 1:
            raise EmbeddingError(f"expected {dim + 1} fields, got {len(parts)}")
        vec = np.array([float(v) for v in parts[1:]])
        if not np.isfinite(vec).all():
            raise EmbeddingError(f"vector for {parts[0]!r} is not finite")
        return lineno, parts[0], vec

    vectors: dict[str, np.ndarray] = {}
    for lineno, word, vec in filter(None, read_rows(path, "lines", entry)):
        if word in vectors:
            warnings.warn(f"duplicate embedding for {word!r} at line {lineno}; keeping last")
        vectors[word] = vec
    return vectors


def build_table(
    vocab: Vocabulary,
    src1: dict[str, np.ndarray],
    src2: dict[str, np.ndarray],
    oov_seed: int = 0,
    *,
    dim1: int,
    dim2: int,
) -> EmbeddingTable:
    """Concatenate two embedding sources over the vocabulary.

    Words absent from a source draw a Uniform(-0.05, 0.05) vector for that
    source's slice from a generator seeded with oov_seed; the padding row is
    zeroed last. Two builds with the same inputs are identical.
    """
    rng = np.random.default_rng(oov_seed)
    tokens = vocab.tokens_by_index()
    matrix = np.zeros((len(tokens), dim1 + dim2))
    found = np.zeros((len(tokens), 2), dtype=bool)  # row has a vector in source 1, 2
    for idx, tok in enumerate(tokens):
        for j, (src, lo, hi) in enumerate(((src1, 0, dim1), (src2, dim1, dim1 + dim2))):
            if tok is not None and tok in src:
                vec = src[tok]
                if len(vec) != hi - lo:
                    raise EmbeddingError(f"vector for {tok!r} has length {len(vec)}, want {hi - lo}")
                matrix[idx, lo:hi] = vec
                found[idx, j] = True
    # Reserved and OOV slices draw in index order (boolean assignment fills in
    # C order), keeping builds reproducible; blocks of rows bound the temporary
    # draw. The padding row is overwritten below.
    for start in range(0, len(tokens), OOV_BLOCK_ROWS):
        rows = matrix[start : start + OOV_BLOCK_ROWS]
        holes = np.repeat(~found[start : start + OOV_BLOCK_ROWS], (dim1, dim2), axis=1)
        rows[holes] = rng.uniform(-0.05, 0.05, holes.sum())
    matrix[PAD_INDEX, :] = 0.0
    return EmbeddingTable(matrix=matrix, dim1=dim1, dim2=dim2)


@dataclass(frozen=True)
class EmbeddingSources:
    """How to build a table: two vector files (an empty path reads none) of
    dimensions dim1 and dim2, and the seed of the vectors the files lack."""

    source1: str = ""
    source2: str = ""
    dim1: int = 50
    dim2: int = 50
    oov_seed: int = 0

    def __post_init__(self):
        for name in ("dim1", "dim2", "oov_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def table(self, vocab: Vocabulary) -> EmbeddingTable:
        src1 = load_vectors(self.source1, self.dim1) if self.source1 else {}
        src2 = load_vectors(self.source2, self.dim2) if self.source2 else {}
        return build_table(vocab, src1, src2, self.oov_seed, dim1=self.dim1, dim2=self.dim2)


def random_table(
    vocab: Vocabulary, dim1: int, dim2: int, seed: int = 0, scale: float = 1.0
) -> EmbeddingTable:
    """Table with no pre-trained sources: every word is a seeded random vector.

    ``scale`` multiplies the random rows; padding stays zero. Handy when a toy
    model needs inputs with a magnitude closer to real pre-trained vectors.
    """
    table = build_table(vocab, {}, {}, oov_seed=seed, dim1=dim1, dim2=dim2)
    if scale != 1.0:
        table.matrix[1:] *= scale
    return table


def lookup(table: EmbeddingTable, token_ids: np.ndarray) -> np.ndarray:
    """Row-gather: result row m is the table row for token_ids[m]."""
    ids = np.asarray(token_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.matrix.shape[0]):
        raise IndexError(f"token id out of range [0, {table.matrix.shape[0]})")
    return table.matrix[ids]


def checksum(table: EmbeddingTable) -> str:
    """Content hash, used to verify the table was not mutated by training."""
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(table.matrix).tobytes()).hexdigest()
