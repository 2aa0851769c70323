import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtltox.metrics import (
    ScoredExample,
    bias_report,
    bpsn_auc,
    generalized_mean_bias,
    kolmogorov_sf,
    ks_two_sample,
    midranks,
    prf1,
    roc_auc,
    subgroup_auc,
)


def pair_auc(examples):
    """O(n^2) pair-counting oracle: mean over all (pos, neg) pairs of
    [score_pos > score_neg] + 0.5 [equal]."""
    pos = [e.score for e in examples if e.label == 1]
    neg = [e.score for e in examples if e.label == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def random_examples(rng, n, subgroups=(), tie_values=None):
    out = []
    for _ in range(n):
        score = float(rng.choice(tie_values)) if tie_values is not None else float(rng.random())
        groups = frozenset(s for s in subgroups if rng.random() < 0.4)
        out.append(ScoredExample(score=score, label=int(rng.random() < 0.5), subgroups=groups))
    return out


class TestRocAuc:
    def test_perfect_separation(self):
        examples = [ScoredExample(0.9, 1), ScoredExample(0.8, 1), ScoredExample(0.1, 0)]
        assert roc_auc(examples) == 1.0

    def test_all_ties_half(self):
        examples = [ScoredExample(0.5, 1), ScoredExample(0.5, 0), ScoredExample(0.5, 1)]
        assert roc_auc(examples) == 0.5

    def test_single_class_undefined(self):
        assert roc_auc([ScoredExample(0.4, 1), ScoredExample(0.6, 1)]) is None

    def test_matches_pair_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            examples = random_examples(rng, 200, tie_values=np.linspace(0, 1, 17))
            expected = pair_auc(examples)
            if expected is None:
                continue
            assert roc_auc(examples) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), st.integers(0, 1)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_pair_oracle_on_heavy_ties(self, rows):
        examples = [ScoredExample(score, label) for score, label in rows]
        expected = pair_auc(examples)
        if expected is None:
            assert roc_auc(examples) is None
        else:
            assert roc_auc(examples) == pytest.approx(expected, abs=1e-12)

    def test_nan_score_gives_nan(self):
        examples = [ScoredExample(float("nan"), 1), ScoredExample(0.2, 0), ScoredExample(0.7, 1)]
        assert np.isnan(roc_auc(examples))

    def test_rank_invariance(self):
        rng = np.random.default_rng(1)
        examples = random_examples(rng, 100)
        base = roc_auc(examples)
        transformed = [
            ScoredExample(float(np.expm1(3 * e.score)), e.label, e.subgroups) for e in examples
        ]
        assert roc_auc(transformed) == pytest.approx(base, abs=1e-12)

    def test_label_complement(self):
        rng = np.random.default_rng(2)
        examples = random_examples(rng, 80)
        flipped = [ScoredExample(e.score, 1 - e.label, e.subgroups) for e in examples]
        assert roc_auc(flipped) == pytest.approx(1.0 - roc_auc(examples), abs=1e-12)


class TestMidranks:
    def test_hand_fixture(self):
        assert midranks([0.3, 0.1, 0.3, 0.2, 0.3]).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
        assert midranks([]).tolist() == []

    def test_equals_scipy_rankdata_bytes(self):
        from scipy.stats import rankdata

        scores = np.random.default_rng(4).random(20_000)
        for decimals in (1, 2, 3, 6):
            rounded = np.round(scores, decimals)
            assert midranks(rounded).tobytes() == rankdata(rounded).tobytes()


class TestPrf1:
    def test_all_correct(self):
        examples = [ScoredExample(0.9, 1), ScoredExample(0.1, 0)]
        out = prf1(examples)
        assert (out.precision, out.recall, out.f1) == (1.0, 1.0, 1.0)

    def test_no_predicted_positives(self):
        out = prf1([ScoredExample(0.1, 1), ScoredExample(0.2, 0)])
        assert "precision" in out.degenerate
        assert out.recall == 0.0

    def test_counting_oracle(self):
        # TP=3, FP=1, FN=2
        examples = (
            [ScoredExample(0.9, 1)] * 3
            + [ScoredExample(0.9, 0)]
            + [ScoredExample(0.1, 1)] * 2
            + [ScoredExample(0.1, 0)] * 4
        )
        out = prf1(examples)
        assert out.precision == pytest.approx(0.75)
        assert out.recall == pytest.approx(0.6)
        assert out.f1 == pytest.approx(2 * 0.45 / 1.35)

    def test_threshold_is_inclusive(self):
        out = prf1([ScoredExample(0.5, 1), ScoredExample(0.4999999, 0)])
        assert out.recall == 1.0  # score exactly 0.5 counts as positive


class TestSubgroupAuc:
    def test_perfect_within_subgroup(self):
        examples = [
            ScoredExample(0.9, 1, frozenset({"g"})),
            ScoredExample(0.1, 0, frozenset({"g"})),
            ScoredExample(0.5, 1),
        ]
        assert subgroup_auc(examples, "g") == 1.0

    def test_absent_subgroup_undefined(self):
        assert subgroup_auc([ScoredExample(0.5, 1)], "nope") is None

    def test_fixture_matches_pair_oracle_on_restriction(self):
        rng = np.random.default_rng(3)
        examples = random_examples(rng, 12, subgroups=("g",), tie_values=[0.2, 0.5, 0.8])
        restricted = [e for e in examples if "g" in e.subgroups]
        assert subgroup_auc(examples, "g") == pair_auc(restricted)


class TestBpsnAuc:
    def test_biased_model_scores_low(self):
        # Every identity-mentioning non-toxic comment outranks every
        # background toxic comment: the worst case, BPSN 0.
        examples = [ScoredExample(0.9, 0, frozenset({"g"}))] * 3 + [ScoredExample(0.2, 1)] * 3
        assert bpsn_auc(examples, "g") == 0.0

    def test_unbiased_perfect_ranker(self):
        examples = [ScoredExample(0.1, 0, frozenset({"g"}))] * 3 + [ScoredExample(0.9, 1)] * 3
        assert bpsn_auc(examples, "g") == 1.0

    def test_one_side_empty_undefined(self):
        assert bpsn_auc([ScoredExample(0.5, 1)], "g") is None

    def test_fixture_matches_pair_oracle(self):
        rng = np.random.default_rng(4)
        examples = random_examples(rng, 12, subgroups=("g",), tie_values=[0.1, 0.5, 0.9])
        restricted = [
            e
            for e in examples
            if (e.label == 0 and "g" in e.subgroups) or (e.label == 1 and "g" not in e.subgroups)
        ]
        assert bpsn_auc(examples, "g") == pair_auc(restricted)

    def test_restriction_semantics(self):
        # Subgroup toxics and background non-toxics must not participate.
        core = [ScoredExample(0.3, 0, frozenset({"g"})), ScoredExample(0.7, 1)]
        noise = [ScoredExample(0.99, 1, frozenset({"g"})), ScoredExample(0.01, 0)]
        assert bpsn_auc(core + noise, "g") == bpsn_auc(core, "g")


class TestGeneralizedMean:
    def test_idempotence(self):
        assert generalized_mean_bias([0.7, 0.7, 0.7], -5) == pytest.approx(0.7, abs=1e-12)

    def test_p_one_is_arithmetic_mean(self):
        assert generalized_mean_bias([0.2, 0.4, 0.9], 1) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_reference_value(self):
        # mpmath at 40 digits: ((0.9^-5 + 0.8^-5 + 0.7^-5)/3)^(-1/5)
        assert generalized_mean_bias([0.9, 0.8, 0.7], -5) == pytest.approx(
            0.7755087912021006, abs=1e-12
        )

    def test_zero_with_negative_p_undefined(self):
        assert generalized_mean_bias([0.5, 0.0], -5) is None

    def test_p_zero_is_the_geometric_mean(self):
        # (0.25 * 1.0) ** (1/2) and (0.5 * 0.8 * 0.9) ** (1/3) = 0.36 ** (1/3)
        assert generalized_mean_bias([0.25, 1.0], 0) == pytest.approx(0.5, abs=1e-12)
        assert generalized_mean_bias([0.5, 0.8, 0.9], 0.0) == pytest.approx(0.7113786608980126, abs=1e-12)

    def test_no_values_refused(self):
        with pytest.raises(ValueError, match="need at least one AUC value"):
            generalized_mean_bias([], -5)

    @pytest.mark.parametrize("outside", [-0.1, 1.2])
    def test_auc_outside_the_unit_interval_refused(self, outside):
        with pytest.raises(ValueError, match=r"AUC values must lie in \[0, 1\]"):
            generalized_mean_bias([0.5, outside], -5)

    @pytest.mark.parametrize("p", [-5.0, 0.0])
    def test_nan_auc_refused(self, p):
        with pytest.raises(ValueError, match=r"AUC values must lie in \[0, 1\]"):
            generalized_mean_bias([0.5, float("nan")], p)

    @pytest.mark.parametrize("p", [-5.0, 0.0])
    def test_a_report_over_a_nan_score_has_a_nan_mean(self, p):
        examples = [ScoredExample(0.9, 1, frozenset({"g"})), ScoredExample(float("nan"), 0, frozenset({"g"}))]
        report = bias_report(examples, ["g"], p=p)
        assert np.isnan(report.subgroups["g"].subgroup_auc) and np.isnan(report.generalized_mean_bias_auc)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=9),
    )
    @settings(max_examples=200)
    def test_bounds_and_monotonicity_in_p(self, values):
        results = [generalized_mean_bias(values, p) for p in (-5.0, -1.0, 1.0, 5.0)]
        for r in results:
            assert min(values) - 1e-12 <= r <= max(values) + 1e-12
        for lo, hi in zip(results, results[1:]):
            assert lo <= hi + 1e-12


class TestKsTwoSample:
    def test_identical_samples(self):
        d, p = ks_two_sample([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert d == 1.0

    def test_fixture_against_step_oracle(self):
        a, b = [0.1, 0.4, 0.7], [0.2, 0.5, 0.8, 0.9]

        def ecdf(sample, x):
            return sum(1 for v in sample if v <= x) / len(sample)

        expected = max(abs(ecdf(a, x) - ecdf(b, x)) for x in a + b)
        d, _ = ks_two_sample(a, b)
        assert d == pytest.approx(expected, abs=1e-12)
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


def test_kolmogorov_sf_matches_scipy():
    from scipy.stats import kstwobign

    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    grid = np.r_[0.0, 5e-324, 1e-300, 1e-10, 0.01, below, 1.0, above, np.linspace(0.0, 5.0, 5001)]
    ours = np.array([kolmogorov_sf(float(z)) for z in grid])
    np.testing.assert_allclose(ours, kstwobign.sf(grid), rtol=0, atol=1e-12)
    assert kolmogorov_sf(-1.0) == 1.0


def test_import_leaves_scipy_out():
    # In a fresh interpreter: this test session imports scipy itself.
    code = "import sys, mtltox, mtltox.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestBiasReport:
    def test_perfect_ranker_single_subgroup(self):
        examples = [
            ScoredExample(0.9, 1, frozenset({"g"})),
            ScoredExample(0.1, 0, frozenset({"g"})),
            ScoredExample(0.8, 1),
            ScoredExample(0.2, 0),
        ]
        report = bias_report(examples, ["g"])
        assert report.overall_auc == 1.0
        assert report.subgroups["g"].subgroup_auc == 1.0
        assert report.subgroups["g"].bpsn_auc == 1.0
        assert report.generalized_mean_bias_auc == pytest.approx(1.0)

    def test_empty_subgroup_list(self):
        report = bias_report([ScoredExample(0.9, 1), ScoredExample(0.1, 0)], [])
        assert report.overall_auc == 1.0
        assert report.subgroups == {}
        assert report.generalized_mean_bias_auc is None
        assert report.n_effective == 0

    def test_nine_subgroup_fixture_field_by_field(self):
        rng = np.random.default_rng(5)
        names = [f"s{i}" for i in range(9)]
        examples = random_examples(rng, 120, subgroups=names, tie_values=np.linspace(0, 1, 9))
        report = bias_report(examples, names)
        assert report.overall_auc == pytest.approx(pair_auc(examples), abs=1e-12)
        defined = []
        for name in names:
            members = [e for e in examples if name in e.subgroups]
            expected_sub = pair_auc(members)
            got = report.subgroups[name].subgroup_auc
            if expected_sub is None:
                assert got is None
            else:
                assert got == pytest.approx(expected_sub, abs=1e-12)
                defined.append(got)
            assert report.subgroups[name].n_pos == sum(1 for e in members if e.label == 1)
            assert report.subgroups[name].n_neg == sum(1 for e in members if e.label == 0)
        assert report.n_effective == len(defined)
        assert report.generalized_mean_bias_auc == pytest.approx(
            generalized_mean_bias(defined, -5.0), abs=1e-12
        )

    def test_undefined_carried_not_zeroed(self):
        examples = [
            ScoredExample(0.9, 1, frozenset({"only_toxic"})),
            ScoredExample(0.1, 0),
        ]
        report = bias_report(examples, ["only_toxic"])
        assert report.subgroups["only_toxic"].subgroup_auc is None
        assert report.subgroups["only_toxic"].n_pos == 1
        assert report.subgroups["only_toxic"].n_neg == 0


# Few distinct scores, so ties occur, and now and then a NaN.
_SCORES = st.sampled_from([0.1, 0.1, 0.5, 0.5, 0.5, 0.9, 0.9, 0.3, 0.7, float("nan")])
_EXAMPLES = st.lists(
    st.builds(ScoredExample, _SCORES, st.integers(0, 1), st.frozensets(st.sampled_from(["a", "b", "c"]))),
    max_size=12,
)


@given(examples=_EXAMPLES, names=st.lists(st.sampled_from(["a", "b", "absent"]), max_size=4))
@settings(max_examples=50, deadline=None)
def test_bias_report_subgroups_match_the_public_functions_bit_for_bit(examples, names):
    """The report's Subgroup AUC, BPSN AUC and counts are the public functions' own values,
    for a name given twice and a name no example has too."""
    report = bias_report(examples, names)
    for name in names:
        members = [e for e in examples if name in e.subgroups]
        expected = {
            "subgroup_auc": subgroup_auc(examples, name),
            "bpsn_auc": bpsn_auc(examples, name),
            "n_pos": sum(e.label == 1 for e in members),
            "n_neg": sum(e.label == 0 for e in members),
        }
        assert json.dumps(report.to_dict()["subgroups"][name]) == json.dumps(expected)
