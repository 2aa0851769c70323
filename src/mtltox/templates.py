"""Template-based bias probe: instantiate toxic/non-toxic sentence templates
over identity keywords and report the model's scores per identity.

A model that scores "I am a gay person, ask me anything" high is confusing
identity mentions with toxicity; the probe makes that visible as elevated
mean non-toxic scores and misclassification counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from mtltox.corpus import Vocabulary, make_comment
from mtltox.embeddings import EmbeddingTable
from mtltox.network import ModelParams, predict

SLOT = "<Identity>"

DEFAULT_IDENTITY_KEYWORDS = ("gay", "lesbian", "bisexual", "muslim", "jew", "black")


@dataclass(frozen=True)
class Template:
    text: str  # contains the slot exactly once
    polarity: str  # "toxic" or "nontoxic"
    source: str = "builtin"

    def __post_init__(self):
        if self.polarity not in ("toxic", "nontoxic"):
            raise ValueError(f"bad polarity: {self.polarity!r}")
        if self.text.count(SLOT) != 1:
            raise ValueError(f"template must contain {SLOT} exactly once: {self.text!r}")


@dataclass
class ProbeResult:
    identity: str
    nontoxic_scores: list[float] = field(default_factory=list)
    toxic_scores: list[float] = field(default_factory=list)

    @property
    def mean_nontoxic(self) -> float:
        return float(np.mean(self.nontoxic_scores))

    @property
    def mean_toxic(self) -> float:
        return float(np.mean(self.toxic_scores))

    def misclassified(self) -> int:
        """Non-toxic probes scored at/above 0.5 plus toxic ones below."""
        return sum(1 for s in self.nontoxic_scores if s >= 0.5) + sum(
            1 for s in self.toxic_scores if s < 0.5
        )

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "nontoxic_scores": self.nontoxic_scores,
            "toxic_scores": self.toxic_scores,
            "mean_nontoxic": self.mean_nontoxic,
            "mean_toxic": self.mean_toxic,
            "misclassified": self.misclassified(),
        }


def load_templates(path: str | Path, source: str = "file") -> list[Template]:
    """Read a templates file: one ``polarity<TAB>text`` per line, # comments.

    A malformed line raises ValueError naming ``path:line``.
    """
    templates = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        polarity, tab, text = line.partition("\t")
        try:
            if not tab:
                raise ValueError("expected polarity<TAB>text")
            templates.append(Template(text=text, polarity=polarity, source=source))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return templates


def builtin_templates() -> list[Template]:
    """The 7 non-toxic and 7 toxic built-in probe sentences."""
    ref = resources.files("mtltox").joinpath("data/builtin_templates.tsv")
    with resources.as_file(ref) as path:
        return load_templates(path, source="builtin")


def instantiate(
    template: Template,
    keyword: str,
    allowed=DEFAULT_IDENTITY_KEYWORDS,
) -> str:
    """Substitute the identity keyword into the template's slot."""
    if allowed is not None and keyword not in allowed:
        raise ValueError(f"keyword {keyword!r} not in the configured identity list")
    return template.text.replace(SLOT, keyword)


def run_probe(
    params: ModelParams,
    table: EmbeddingTable,
    vocab: Vocabulary,
    identities=DEFAULT_IDENTITY_KEYWORDS,
    templates: list[Template] | None = None,
    max_len: int | None = None,
) -> dict[str, ProbeResult]:
    """Score every (template, identity) pair; results grouped by identity.

    A probe's one identity label marks the identity it mentions. A name given
    twice is probed once.
    """
    if templates is None:
        templates = builtin_templates()
    if max_len is None:
        max_len = params.hyper.max_len
    unique = list(dict.fromkeys(identities))
    probes = [
        make_comment(
            f"{identity}:{t.polarity}", instantiate(t, identity, allowed=identities),
            float(t.polarity == "toxic"), np.ones(1), vocab, max_len, 1.0,
        )
        for identity in unique
        for t in templates
    ]
    scores, _ = predict(params, table, probes)
    results: dict[str, ProbeResult] = {}
    for identity, row in zip(unique, scores.reshape(len(unique), len(templates))):
        result = results[identity] = ProbeResult(identity=identity)
        for template, score in zip(templates, row):
            if template.polarity == "nontoxic":
                result.nontoxic_scores.append(float(score))
            else:
                result.toxic_scores.append(float(score))
    return results
