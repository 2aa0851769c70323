"""Seeded inputs for the benchmark workloads.

The same seed gives the same inputs. The paper-scale comments follow a
Civil-Comments-like length profile: lognormal with a median of 40 tokens and
a long right tail, so that 1 comment in 16 passes the 220-token cap and is
truncated. The profile is taken at fixed quantiles, one length per quantile
of a block, so every block of comments holds the same lengths and the same
token count whatever the seed; the seed draws the words, the labels and the
order within each block. Run-to-run differences in time then come from the
machine, not from a longer draw of comments.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

import numpy as np

import mtltox.corpus as corpus
import mtltox.metrics as metrics
import mtltox.templates as templates

MEDIAN_TOKENS = 40.0
LENGTH_SIGMA = 1.0
ZIPF_EXPONENT = 1.1
TOXIC_SHARE = 0.3
IDENTITY_SHARE = 0.1
# Comments that tokenize to nothing, as real comment dumps hold.
EMPTY_TEXTS = ("...", "?!", "!!! ...")
REPORT_POSITIVE_SHARE = 0.08
REPORT_SUBGROUP_SHARE = 0.05


def length_profile(n: int) -> list[int]:
    """Token counts at the quantiles (i + 0.5) / n of the length distribution."""
    normal = statistics.NormalDist()
    return [
        max(1, round(MEDIAN_TOKENS * math.exp(LENGTH_SIGMA * normal.inv_cdf((i + 0.5) / n))))
        for i in range(n)
    ]


def word_list(n_words: int) -> list[str]:
    """Probe and identity words first, then synthetic words: Zipf rank order."""
    words: list[str] = []
    texts = [t.text.replace(templates.SLOT, "") for t in templates.builtin_templates()]
    for token in corpus.tokenize(" ".join(texts + list(templates.DEFAULT_IDENTITY_KEYWORDS))):
        if token not in words:
            words.append(token)
    words += [f"w{i}" for i in range(n_words - len(words))]
    return words[:n_words]


def zipf_probabilities(n_words: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n_words + 1) ** ZIPF_EXPONENT
    return p / p.sum()


def _fraction(rng: np.random.Generator, low: int, high: int) -> float:
    """An annotator-agreement fraction in tenths, low/10 to high/10."""
    return int(rng.integers(low, high + 1)) / 10.0


def comment_rows(
    rng: np.random.Generator,
    words: list[str],
    lengths: list[int],
    blocks: int,
    prefix: str,
    empty_blocks: tuple[int, ...] = (),
) -> list[dict[str, str]]:
    """Rows in the Civil Comments CSV schema, ``blocks`` blocks of len(lengths).

    Each block holds every length of the profile once, in a seeded order. A
    block listed in ``empty_blocks`` leads with a comment that tokenizes to
    nothing.
    """
    probs = zipf_probabilities(len(words))
    rows = []
    for block in range(blocks):
        for position, length in enumerate(rng.permutation(lengths)):
            ids = rng.choice(len(words), size=int(length), p=probs)
            tokens = [words[i] for i in ids]
            for i in range(9, len(tokens), 11):
                tokens[i] += "," if i % 2 else "."
            text = " ".join(tokens)
            if block in empty_blocks and position == 0:
                text = EMPTY_TEXTS[int(rng.integers(len(EMPTY_TEXTS)))]
            toxic = rng.random() < TOXIC_SHARE
            row = {
                "id": f"{prefix}-{len(rows)}",
                "comment_text": text,
                "target": repr(_fraction(rng, 5, 10) if toxic else _fraction(rng, 0, 4)),
            }
            for name in corpus.IDENTITY_COLUMNS:
                mentioned = rng.random() < IDENTITY_SHARE
                row[name] = repr(_fraction(rng, 5, 10) if mentioned else 0.0)
            for name in corpus.SUBTYPE_COLUMNS:
                row[name] = repr(_fraction(rng, 0, 10) if toxic else 0.0)
            rows.append(row)
    return rows


def raw_record(row: dict[str, str]) -> corpus.RawRecord:
    """The record ``load_corpus`` would parse from the row."""
    return corpus.RawRecord(
        id=row["id"],
        comment_text=row["comment_text"],
        target=float(row["target"]),
        identity_scores={name: float(row[name]) for name in corpus.IDENTITY_COLUMNS},
        subtype_scores={name: float(row[name]) for name in corpus.SUBTYPE_COLUMNS},
    )


def write_csv(path: Path, rows: list[dict[str, str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def report_rows(rng: np.random.Generator, n: int, subgroups) -> list[metrics.ScoredExample]:
    """(score, label, identity set) rows standing in for a scored test set.

    Scores are rounded to 1e-3, so ties exercise the midrank path, and
    non-toxic identity mentions score higher, so BPSN AUCs sit below the
    overall AUC as they do for a biased model.
    """
    subgroups = list(subgroups)
    labels = rng.random(n) < REPORT_POSITIVE_SHARE
    member = rng.random((n, len(subgroups))) < REPORT_SUBGROUP_SHARE
    scores = rng.beta(2.0, 5.0, n) + 0.35 * labels + 0.15 * (member.any(axis=1) & ~labels)
    scores = np.round(np.clip(scores, 0.0, 1.0), 3)
    bits = member @ (1 << np.arange(len(subgroups)))
    groups = {
        int(b): frozenset(name for k, name in enumerate(subgroups) if int(b) >> k & 1)
        for b in np.unique(bits)
    }
    return [
        metrics.ScoredExample(score=float(s), label=int(y), subgroups=groups[int(b)])
        for s, y, b in zip(scores, labels, bits)
    ]
