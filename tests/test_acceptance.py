"""Acceptance suite: nine numbered criteria, one pass/fail line each.

The lines are printed in the terminal summary (see conftest.py). Criterion 7
is the expensive one (ten small training runs); everything else is fast.
"""

import contextlib
import json
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    analytic_grads,
    finite_difference_grads,
    max_relative_error,
    random_example,
    tiny_hyper,
)
from mtltox.corpus import Comment, Vocabulary, load_comments, save_comments
from mtltox.embeddings import random_table
from mtltox.losses import EPS, loss_grad_heads, multitask_loss
from mtltox.metrics import (
    ScoredExample,
    bpsn_auc,
    generalized_mean_bias,
    ks_two_sample,
    prf1,
    roc_auc,
    subgroup_auc,
)
from mtltox.network import Hyper, init_params, predict
from mtltox.synthetic import (
    DEFAULT_IDENTITY_KEYWORDS,
    biased_corpus,
    separable_corpus,
)
from mtltox.templates import builtin_templates, run_probe
from mtltox.training import TrainConfig, train_fold

REPORT: list[str] = []


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        REPORT.append(f"criterion {number}: FAIL - {description}")
        raise
    REPORT.append(f"criterion {number}: PASS - {description}")


def pair_auc(examples):
    """O(n^2) pair-counting oracle with half credit for ties."""
    pos = [e.score for e in examples if e.label == 1]
    neg = [e.score for e in examples if e.label == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences (< 1e-4)"):
        start = time.monotonic()
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(20):
            k = int(rng.choice([1, 3]))
            h = tiny_hyper(
                n_aux=k,
                attention=bool(trial % 2),
                embed_dim=int(rng.integers(2, 9)),
                hidden=int(rng.integers(1, 5)),
                dense=int(rng.integers(1, 5)),
                max_len=int(rng.integers(1, 6)),
            )
            params = init_params(h, seed=trial)
            # Jitter every tensor so no ReLU pre-activation sits exactly on
            # the kink, where central differences disagree with the
            # subgradient convention by construction.
            for arr in params.tensors.values():
                arr += rng.normal(scale=0.05, size=arr.shape)
            example = random_example(h, 100 + trial)
            alpha = float(rng.choice([0.2, 0.6, 1.0]))
            got = analytic_grads(params, *example, alpha)
            want = finite_difference_grads(params, *example, alpha)
            worst = max(worst, max_relative_error(got, want))
        assert worst < 1e-4
        assert time.monotonic() - start < 60.0


def test_criterion_2_auc_pair_oracle():
    with criterion(2, "rank AUCs equal the O(n^2) pair oracle to 1e-12"):
        start = time.monotonic()
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(10, 301))
            # Coarse score grid injects plenty of ties.
            scores = rng.integers(0, 12, size=n) / 11.0
            labels = rng.integers(0, 2, size=n)
            in_group = rng.random(n) < 0.4
            examples = [
                ScoredExample(
                    float(s), int(l), frozenset(["g"]) if m else frozenset()
                )
                for s, l, m in zip(scores, labels, in_group)
            ]
            checks = [
                (roc_auc(examples), pair_auc(examples)),
                (
                    subgroup_auc(examples, "g"),
                    pair_auc([e for e in examples if "g" in e.subgroups]),
                ),
                (
                    bpsn_auc(examples, "g"),
                    pair_auc(
                        [
                            e
                            for e in examples
                            if ("g" in e.subgroups) == (e.label == 0)
                        ]
                    ),
                ),
            ]
            for got, want in checks:
                if want is None:
                    assert got is None
                else:
                    assert got is not None and abs(got - want) <= 1e-12
        assert time.monotonic() - start < 30.0


def test_criterion_3_power_mean():
    with criterion(3, "power mean properties plus frozen reference value"):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            vals = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 8)))
            p = float(rng.uniform(-8.0, 8.0))
            m = generalized_mean_bias(vals, p)
            assert min(vals) - 1e-12 <= m <= max(vals) + 1e-12
            const = float(vals[0])
            same = generalized_mean_bias([const] * 5, p)
            assert same == pytest.approx(const, abs=1e-12)
            lower = generalized_mean_bias(vals, p - 1.0)
            assert lower <= m + 1e-12
        frozen = generalized_mean_bias([0.9, 0.8, 0.7], p=-5.0)
        assert frozen == pytest.approx(0.7755087912021006, abs=1e-12)


def test_criterion_4_loss_semantics():
    with criterion(4, "beta linearity, alpha affineness, single-task reduction"):
        rng = np.random.default_rng(44)
        y_hat = rng.uniform(0.05, 0.95, size=6)
        aux_hat = rng.uniform(0.05, 0.95, size=(6, 3))
        y = rng.uniform(size=6)
        aux_y = rng.uniform(size=(6, 3))
        ones = np.ones(6)

        def grads(alpha, beta):
            return loss_grad_heads(y_hat, aux_hat, y, aux_y, beta, alpha)

        # beta linearity: tripling every weight triples every gradient.
        g1, a1 = grads(0.6, ones)
        g3, a3 = grads(0.6, 3.0 * ones)
        assert np.allclose(g3, 3.0 * g1, atol=1e-12)
        assert np.allclose(a3, 3.0 * a1, atol=1e-12)

        # alpha affineness: the loss is affine in alpha at fixed predictions.
        def total(alpha):
            return multitask_loss(y_hat, aux_hat, y, aux_y, ones, alpha).total

        mid = total(0.5)
        assert mid == pytest.approx(0.5 * (total(0.0) + total(1.0)), abs=1e-12)
        assert total(0.25) == pytest.approx(
            0.75 * total(0.0) + 0.25 * total(1.0), abs=1e-12
        )

        # alpha=1, K=0 reduces to plain per-example BCE on the main head.
        empty = np.zeros((6, 0))
        out = multitask_loss(y_hat, empty, y, empty, ones, 1.0)
        p = np.clip(y_hat, EPS, 1.0 - EPS)
        bce = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        assert out.total == pytest.approx(float(bce.mean()), abs=1e-12)


def test_criterion_5_masking(tmp_path):
    with criterion(5, "padded positions never change outputs (1e-12)"):
        # Padding reaches the program only in older prepared lines, which pad
        # token_ids to max_len and give the real count as true_length.
        # hidden 4 and dense 8 keep the ReLUs alive: at hidden 2 and dense 2
        # every score is exactly 0.5, whatever the tokens.
        h = tiny_hyper(n_aux=2, embed_dim=4, hidden=4, dense=8, max_len=8)
        params = init_params(h, seed=5)
        vocab = Vocabulary.build([[f"w{i}" for i in range(30)]])
        table = random_table(vocab, 2, 2, seed=0)
        rng = np.random.default_rng(55)
        comments = [
            Comment(
                id=str(n),
                token_ids=rng.integers(2, len(vocab), size=int(rng.integers(1, 8))),
                y=0.0,
                identity_labels=np.zeros(2),
                subtype_labels=np.zeros(5),
            )
            for n in range(50)
        ]
        save_comments(tmp_path / "clean.jsonl", comments)
        padded = []
        for line in (tmp_path / "clean.jsonl").read_text().splitlines():
            obj = json.loads(line)
            length = len(obj["token_ids"])
            obj["token_ids"] += rng.integers(0, len(vocab), size=8 - length).tolist()
            padded.append(json.dumps(obj | {"true_length": length}) + "\n")
        (tmp_path / "padded.jsonl").write_text("".join(padded))
        y1, aux1 = predict(params, table, load_comments(tmp_path / "clean.jsonl"))
        y2, aux2 = predict(params, table, load_comments(tmp_path / "padded.jsonl"))
        assert np.ptp(y1) > 1e-6 and np.all(np.ptp(aux1, axis=0) > 1e-6)  # the scores depend on the tokens
        assert np.all(np.abs(y1 - y2) <= 1e-12)
        assert np.all(np.abs(aux1 - aux2) <= 1e-12)


def test_criterion_6_convergence():
    with criterion(6, "separable toy corpus reaches F1 >= 0.95 in 30 epochs"):
        start = time.monotonic()
        comments, vocab = separable_corpus(n=200, seed=3)
        table = random_table(vocab, 4, 4, seed=0, scale=5.0)
        train, val = comments[:160], comments[160:]
        hyper = Hyper(
            embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=0,
            dropout_rate=0.0, attention=True, max_len=12,
        )
        cfg = TrainConfig(
            epochs=30, batch_size=32, learning_rate=0.05, seed=0, patience=30
        )
        params, _ = train_fold(train, val, table, hyper, cfg)
        scores, _ = predict(params, table, val)
        out = prf1([ScoredExample(float(s), c.y_bin) for s, c in zip(scores, val)])
        assert out.f1 >= 0.95
        assert time.monotonic() - start < 120.0


IDENTS = list(DEFAULT_IDENTITY_KEYWORDS)
BIAS_SEEDS = (0, 1, 2, 3, 4)


def _bias_run(train, evaluation, vocab, table, n_aux, alpha, seed):
    hyper = Hyper(
        embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=n_aux,
        dropout_rate=0.0, attention=True, max_len=16,
    )
    cfg = TrainConfig(
        epochs=3, batch_size=64, learning_rate=0.05, seed=seed,
        alpha=alpha, patience=3,
    )
    split = int(0.9 * len(train))
    params, record = train_fold(train[:split], train[split:], table, hyper, cfg)
    scores, _ = predict(params, table, evaluation)
    examples = [
        ScoredExample(
            float(s),
            cm.y_bin,
            frozenset(
                IDENTS[i] for i in range(len(IDENTS))
                if cm.identity_labels[i] >= 0.5
            ),
        )
        for s, cm in zip(scores, evaluation)
    ]
    bpsns = {name: bpsn_auc(examples, name) for name in IDENTS}
    probe = run_probe(params, table, vocab, IDENTS, builtin_templates())
    mean_nontoxic = float(np.mean([probe[n].mean_nontoxic for n in IDENTS]))
    return bpsns, mean_nontoxic, record


@pytest.fixture(scope="module")
def bias_comparison():
    train, evaluation, vocab = biased_corpus(identity_cooccurrence=0.9, seed=0)
    table = random_table(vocab, 4, 4, seed=0, scale=5.0)
    runs = {}
    # Both models train on the same weighted corpus (biased_corpus's c = 3.0
    # weights), so the comparison isolates the auxiliary heads.
    for tag, (n_aux, alpha) in {
        "single": (0, 1.0),
        "mtl": (6, 0.6),
    }.items():
        runs[tag] = [
            _bias_run(train, evaluation, vocab, table, n_aux, alpha, s)
            for s in BIAS_SEEDS
        ]
    return {"corpus": (train, evaluation, vocab, table), "runs": runs}


def test_criterion_7_directional_bias_comparison(bias_comparison):
    with criterion(7, "MTL beats single-task BPSN per identity, lower probe score"):
        start = time.monotonic()
        runs = bias_comparison["runs"]
        medians = {}
        for tag in ("single", "mtl"):
            medians[tag] = {
                name: float(np.median([r[0][name] for r in runs[tag]]))
                for name in IDENTS
            }
        for name in IDENTS:
            assert medians["mtl"][name] > medians["single"][name], name
        nt = {
            tag: float(np.median([r[1] for r in runs[tag]]))
            for tag in ("single", "mtl")
        }
        assert nt["mtl"] < nt["single"]
        # The fixture already ran before the clock started; ten runs of this
        # size complete in roughly five minutes, far inside the budget.
        assert time.monotonic() - start < 900.0


def test_criterion_8_determinism(bias_comparison):
    with criterion(8, "identical seeds reproduce identical run records"):
        train, evaluation, vocab, table = bias_comparison["corpus"]
        for tag, (n_aux, alpha) in {
            "single": (0, 1.0),
            "mtl": (6, 0.6),
        }.items():
            bpsns, nt, record = _bias_run(
                train, evaluation, vocab, table, n_aux, alpha, BIAS_SEEDS[0]
            )
            first = bias_comparison["runs"][tag][0]
            d1, d2 = first[2].to_dict(), record.to_dict()
            d1.pop("wall_clock"), d2.pop("wall_clock")
            assert d1 == d2
            assert first[0] == bpsns
            assert first[1] == nt


def test_criterion_9_ks_test():
    with criterion(9, "KS statistic on identical, disjoint, and fixture samples"):
        rng = np.random.default_rng(99)
        sample = rng.uniform(size=40)
        d_same, p_same = ks_two_sample(sample, sample.copy())
        assert d_same == pytest.approx(0.0, abs=1e-12)
        assert p_same == pytest.approx(1.0, abs=1e-9)

        d_disjoint, p_disjoint = ks_two_sample(
            rng.uniform(0.0, 0.3, size=25), rng.uniform(0.7, 1.0, size=30)
        )
        assert d_disjoint == pytest.approx(1.0, abs=1e-12)
        assert p_disjoint < 0.001

        a, b = [0.1, 0.4, 0.7], [0.2, 0.5, 0.8, 0.9]
        d, p = ks_two_sample(a, b)
        assert d == pytest.approx(0.5, abs=1e-12)
        en = np.sqrt(3 * 4 / 7)
        assert p == pytest.approx(float(stats.kstwobign.sf(en * 0.5)), abs=1e-9)
