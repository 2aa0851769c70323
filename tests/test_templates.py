import numpy as np
import pytest

from mtltox.embeddings import random_table
from mtltox.network import init_params
from mtltox.synthetic import build_vocab
from mtltox.templates import (
    DEFAULT_IDENTITY_KEYWORDS,
    Template,
    builtin_templates,
    instantiate,
    load_templates,
    run_probe,
)
from conftest import tiny_hyper


class TestBuiltinTemplates:
    def test_counts(self):
        templates = builtin_templates()
        assert sum(1 for t in templates if t.polarity == "nontoxic") == 7
        assert sum(1 for t in templates if t.polarity == "toxic") == 7

    def test_first_nontoxic(self):
        nontoxic = [t for t in builtin_templates() if t.polarity == "nontoxic"]
        assert nontoxic[0].text == "I am <Identity>"

    def test_third_toxic(self):
        toxic = [t for t in builtin_templates() if t.polarity == "toxic"]
        assert toxic[2].text == "<Identity> people are gross and universally hated"

    def test_every_template_has_one_slot(self):
        for t in builtin_templates():
            assert t.text.count("<Identity>") == 1


class TestInstantiate:
    def test_substitution(self):
        assert instantiate(Template("I am <Identity>", "nontoxic"), "gay") == "I am gay"

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ValueError, match="martian"):
            instantiate(Template("I am <Identity>", "nontoxic"), "martian")

    def test_keyword_list_override(self):
        text = instantiate(Template("I am <Identity>", "nontoxic"), "martian", allowed=("martian",))
        assert text == "I am martian"

    def test_keyword_appears_exactly_once(self):
        for template in builtin_templates():
            out = instantiate(template, "muslim")
            assert out.count("muslim") == 1

    def test_template_without_slot_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            Template("no slot here", "toxic")


class TestRunProbe:
    def setup_method(self):
        self.vocab = build_vocab()
        self.table = random_table(self.vocab, 2, 2, seed=0)
        self.hyper = tiny_hyper(n_aux=0, embed_dim=4, max_len=16)

    def test_constant_output_stub(self):
        # Zeroed network weights force the toxicity head to a constant; every
        # mean equals it, and all 7 toxic probes per identity misclassify.
        params = init_params(self.hyper, seed=0)
        for name in params.tensors:
            params.tensors[name][:] = 0.0
        params.tensors["head_tox_b"][0] = np.log(0.3 / 0.7)  # sigmoid -> 0.3
        results = run_probe(params, self.table, self.vocab)
        for result in results.values():
            assert result.mean_nontoxic == pytest.approx(0.3, abs=1e-12)
            assert result.mean_toxic == pytest.approx(0.3, abs=1e-12)
            assert result.misclassified() == 7

    def test_score_counts(self):
        params = init_params(self.hyper, seed=1)
        results = run_probe(params, self.table, self.vocab)
        assert len(results) == 6
        total = sum(len(r.nontoxic_scores) + len(r.toxic_scores) for r in results.values())
        assert total == 6 * 14

    def test_deterministic_given_params(self):
        params = init_params(self.hyper, seed=2)
        r1 = run_probe(params, self.table, self.vocab)
        r2 = run_probe(params, self.table, self.vocab)
        for identity in r1:
            assert r1[identity].nontoxic_scores == r2[identity].nontoxic_scores
            assert r1[identity].toxic_scores == r2[identity].toxic_scores

    def test_misclassification_manual_recount(self):
        params = init_params(self.hyper, seed=3)
        for result in run_probe(params, self.table, self.vocab).values():
            manual = sum(1 for s in result.nontoxic_scores if s >= 0.5)
            manual += sum(1 for s in result.toxic_scores if s < 0.5)
            assert result.misclassified() == manual

    def test_repeated_identity_is_probed_once(self):
        params = init_params(self.hyper, seed=4)
        once = run_probe(params, self.table, self.vocab, ("gay", "muslim"))
        repeated = run_probe(params, self.table, self.vocab, ("gay", "muslim", "gay"))
        assert list(repeated) == ["gay", "muslim"]
        assert {k: v.to_dict() for k, v in repeated.items()} == {k: v.to_dict() for k, v in once.items()}


def test_load_templates_file(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# comment\nnontoxic\tHello <Identity> friend\ntoxic\tAway with <Identity>\n")
    templates = load_templates(path)
    assert len(templates) == 2
    assert templates[0].polarity == "nontoxic"
    assert templates[1].text == "Away with <Identity>"
