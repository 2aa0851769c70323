"""Evaluation statistics: ROC-AUC, P/R/F1, subgroup bias AUCs, power mean, KS.

AUCs use the Mann-Whitney rank formulation with midranks for ties, so they
agree exactly with the O(n^2) pair-counting definition. Restricted AUCs over
a single-class set are mathematically undefined and are reported as None
(never silently zero), with the class counts recorded alongside. The KS
p-value uses the Kolmogorov distribution's series, so numpy is the only
dependency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

# Series terms for kolmogorov_sf; from k = 5 on each is below 1e-21.
_K = np.arange(1, 11)


@dataclass(frozen=True)
class ScoredExample:
    """A model score, binary label, and the identities the comment mentions."""

    score: float
    label: int
    subgroups: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PRF1:
    precision: float
    recall: float
    f1: float
    # Names of quantities whose denominator was zero (reported as 0.0).
    degenerate: frozenset[str] = frozenset()


@dataclass(frozen=True)
class SubgroupStats:
    subgroup_auc: float | None
    bpsn_auc: float | None
    n_pos: int  # toxic comments mentioning the subgroup
    n_neg: int  # non-toxic comments mentioning the subgroup


@dataclass(frozen=True)
class BiasReport:
    overall_auc: float | None
    precision: float
    recall: float
    f1: float
    degenerate: frozenset[str]
    subgroups: dict[str, SubgroupStats]
    generalized_mean_bias_auc: float | None
    power: float
    n_effective: int  # subgroups with a defined Subgroup AUC

    def to_dict(self) -> dict:
        return {**asdict(self), "degenerate": sorted(self.degenerate)}


def midranks(x) -> np.ndarray:
    """1-based ranks of x, each run of equal values getting the mean of its ranks."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(examples: list[ScoredExample]) -> float | None:
    """Rank-based ROC-AUC; None when only one class is present."""
    scores = np.array([e.score for e in examples], dtype=float)
    labels = np.array([e.label for e in examples], dtype=int)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    if np.isnan(scores).any():
        return float("nan")
    ranks = midranks(scores)
    r_pos = ranks[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def prf1(examples: list[ScoredExample]) -> PRF1:
    """Precision/recall/F1 with predictions positive at score >= 0.5."""
    tp = fp = fn = 0
    for e in examples:
        pred = e.score >= 0.5
        if pred and e.label == 1:
            tp += 1
        elif pred and e.label == 0:
            fp += 1
        elif not pred and e.label == 1:
            fn += 1
    degenerate = set()
    if tp + fp == 0:
        precision = 0.0
        degenerate.add("precision")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        degenerate.add("recall")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1 = 0.0
        degenerate.add("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PRF1(precision, recall, f1, frozenset(degenerate))


def subgroup_auc(examples: list[ScoredExample], subgroup: str) -> float | None:
    """ROC-AUC restricted to comments that mention the given identity."""
    return roc_auc([e for e in examples if subgroup in e.subgroups])


def bpsn_auc(examples: list[ScoredExample], subgroup: str) -> float | None:
    """Background-positive / subgroup-negative AUC.

    Negatives: non-toxic comments mentioning the identity. Positives: toxic
    comments not mentioning it. Low values mean identity mentions are being
    scored above genuinely toxic background comments (false-positive bias).
    """
    return roc_auc([
        e
        for e in examples
        if (e.label == 0 and subgroup in e.subgroups)
        or (e.label == 1 and subgroup not in e.subgroups)
    ])


def generalized_mean_bias(auc_values, p: float = -5.0) -> float | None:
    """Power mean M_p = (mean(m^p))^(1/p) of the per-subgroup AUCs.

    Undefined (None) when any value is 0 with p < 0.
    """
    values = np.asarray(list(auc_values), dtype=float)
    if values.size == 0:
        raise ValueError("need at least one AUC value")
    if not np.all((values >= 0) & (values <= 1)):  # NaN fails this too
        raise ValueError("AUC values must lie in [0, 1]")
    if p < 0 and np.any(values == 0):
        return None
    if p == 0:
        return float(np.exp(np.mean(np.log(values))))
    return float(np.mean(values**p) ** (1.0 / p))


def kolmogorov_sf(z: float) -> float:
    """P(K > z) for the Kolmogorov distribution, the limit law of sqrt(n) D_n.

    For z >= 1 the alternating series 2 sum (-1)^(k-1) exp(-2 k^2 z^2); below 1
    one minus the theta form sqrt(2 pi)/z sum exp(-(2k-1)^2 pi^2 / (8 z^2)),
    which converges fast where the alternating one does not.
    """
    if z <= 0:
        return 1.0
    if z >= 1:
        return float(2.0 * np.sum((-1.0) ** (_K - 1) * np.exp(-2.0 * _K**2 * z**2)))
    with np.errstate(divide="ignore"):  # z**2 underflows to 0 for tiny z
        terms = np.exp(-((2 * _K - 1) ** 2) * np.pi**2 / (8.0 * z**2))
    return float(1.0 - np.sqrt(2.0 * np.pi) * np.sum(terms) / z)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the sup-distance between the two empirical CDFs; the p-value uses
    the Kolmogorov distribution at sqrt(n_a n_b / (n_a + n_b)) * D.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p_value = min(1.0, kolmogorov_sf(np.sqrt(n_eff) * d))
    return d, p_value


def bias_report(examples: list[ScoredExample], subgroups, p: float = -5.0) -> BiasReport:
    """Assemble overall metrics plus per-subgroup bias AUCs into one report.

    The generalized mean runs over the defined Subgroup AUCs only, with the
    effective count recorded; it is NaN when one of them is.
    """
    overall = roc_auc(examples)
    scores = prf1(examples)
    per_subgroup: dict[str, SubgroupStats] = {}
    for name in subgroups:
        members = [e for e in examples if name in e.subgroups]
        per_subgroup[name] = SubgroupStats(
            subgroup_auc=roc_auc(members),
            bpsn_auc=bpsn_auc(examples, name),
            n_pos=sum(1 for e in members if e.label == 1),
            n_neg=sum(1 for e in members if e.label == 0),
        )
    defined = [s.subgroup_auc for s in per_subgroup.values() if s.subgroup_auc is not None]
    if np.isnan(defined).any():  # a NaN score's AUCs are NaN (roc_auc), which generalized_mean_bias refuses
        gmb = float("nan")
    else:
        gmb = generalized_mean_bias(defined, p) if defined else None
    return BiasReport(
        overall_auc=overall,
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        degenerate=scores.degenerate,
        subgroups=per_subgroup,
        generalized_mean_bias_auc=gmb,
        power=p,
        n_effective=len(defined),
    )
