import json

import numpy as np
import pytest

from mtltox.corpus import (
    IDENTITY_COLUMNS,
    PAD_INDEX,
    UNK_INDEX,
    Comment,
    CorpusError,
    RawRecord,
    Vocabulary,
    binarize_and_weight,
    comment_from_dict,
    comment_to_dict,
    encode,
    load_comments,
    load_corpus,
    make_comment,
    make_folds,
    save_comments,
    tokenize,
)


def make_vocab(*tokens):
    return Vocabulary.build([list(tokens)])


class TestTokenize:
    def test_punctuation_stripped_case_kept(self):
        assert tokenize("I am gay.") == ["I", "am", "gay"]

    def test_empty(self):
        assert tokenize("") == []

    def test_default_punctuation_set(self):
        assert tokenize("Hello, World! It's fine") == ["Hello", "World", "It's", "fine"]

    def test_custom_punctuation(self):
        assert tokenize("a-b c", punctuation="-") == ["ab", "c"]


class TestEncode:
    def test_padding(self):
        vocab = make_vocab("a", "b", "c")
        ids, length = encode(["a", "b", "c"], vocab, 5)
        assert length == 3
        assert list(ids[3:]) == [PAD_INDEX, PAD_INDEX]
        assert all(i >= 2 for i in ids[:3])

    def test_truncation_at_max_len(self):
        vocab = make_vocab("w")
        ids, length = encode(["w"] * 300, vocab, 220)
        assert length == 220
        assert len(ids) == 220

    def test_oov_maps_to_unknown(self):
        vocab = make_vocab("known")
        ids, _ = encode(["mystery"], vocab, 2)
        assert ids[0] == UNK_INDEX

    def test_padding_count_property(self):
        vocab = make_vocab("a", "b")
        for tokens in (["a"], ["a", "b"], ["a", "b", "a", "b"]):
            ids, length = encode(tokens, vocab, 6)
            assert int(np.sum(ids == PAD_INDEX)) >= 6 - length
            assert list(ids[length:]) == [PAD_INDEX] * (6 - length)


class TestVocabulary:
    def test_roundtrip_byte_identical(self, tmp_path):
        vocab = make_vocab("the", "cat", "sat", "the", "the")
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        vocab.save(p1)
        Vocabulary.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reserved_indices(self):
        vocab = make_vocab("x")
        assert vocab.index_of("x") == 2
        assert len(vocab) == 3

    def test_frequency_order(self):
        vocab = Vocabulary.build([["rare", "common", "common"]])
        assert vocab.index_of("common") < vocab.index_of("rare")

    def test_max_size_cap(self):
        vocab = Vocabulary.build([[f"w{i}" for i in range(100)]], max_size=10)
        assert len(vocab) == 12


class TestLoadCorpus:
    def test_passthrough_no_identity_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,comment_text,target\n1,hello there,0.7\n")
        records = load_corpus(path)
        assert records[0].target == 0.7
        assert records[0].identity_scores is None

    def test_malformed_target_names_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,comment_text,target\n1,hello,abc\n")
        with pytest.raises(CorpusError, match="row 1.*target"):
            load_corpus(path)

    def test_unknown_identity_column_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,comment_text,target\n1,hello,0.1\n")
        with pytest.raises(CorpusError, match="unknown identity column"):
            load_corpus(path, identity_columns=("martian",))

    def test_ten_row_fixture_exact(self, tmp_path):
        # One row per identity, plus one unannotated row.
        header = "id,comment_text,target," + ",".join(IDENTITY_COLUMNS)
        rows = []
        for i, name in enumerate(IDENTITY_COLUMNS):
            scores = ["" for _ in IDENTITY_COLUMNS]
            scores[i] = "0.9"
            rows.append(f"{i},comment number {i},0.{i},{','.join(scores)}")
        rows.append(f"9,last comment,0.5,{','.join([''] * len(IDENTITY_COLUMNS))}")
        path = tmp_path / "c.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

        records = load_corpus(path)
        assert len(records) == 10
        for i, name in enumerate(IDENTITY_COLUMNS):
            assert records[i] == RawRecord(
                id=str(i),
                comment_text=f"comment number {i}",
                target=float(f"0.{i}"),
                identity_scores={name: 0.9},
                subtype_scores={},
            )
        assert records[9].identity_scores is None

    def test_jsonl_schema(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "comment_text": "hi", "target": 0.2, "male": 0.8}\n')
        records = load_corpus(path, schema="jsonl")
        assert records[0].identity_scores == {"male": 0.8}

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,comment_text,target\n1,hello,1.5\n")
        with pytest.raises(CorpusError, match="out of"):
            load_corpus(path)


class TestBinarizeAndWeight:
    vocab = Vocabulary.build([["some", "words"]])

    def record(self, target, identities=None):
        return RawRecord("r", "some words", target, identities)

    def test_nontoxic_identity_upweighted(self):
        c = binarize_and_weight(self.record(0.2, {"black": 0.8}), 3.0, self.vocab, 5)
        assert c.beta == 3.0
        assert c.y_bin == 0
        assert c.identity_present

    def test_toxic_identity_not_upweighted(self):
        c = binarize_and_weight(self.record(0.9, {"black": 0.8}), 3.0, self.vocab, 5)
        assert c.beta == 1.0
        assert c.y_bin == 1

    def test_no_identity_not_upweighted(self):
        c = binarize_and_weight(self.record(0.2, {"black": 0.4}), 3.0, self.vocab, 5)
        assert c.beta == 1.0
        assert not c.identity_present

    def test_absent_identities_flagged_for_propagation(self):
        c = binarize_and_weight(self.record(0.2, None), 3.0, self.vocab, 5)
        assert c.needs_propagation
        assert c.beta == 1.0

    @pytest.mark.parametrize("target,expected", [(0.499999, 0), (0.5, 1), (0.500001, 1), (0.0, 0), (1.0, 1)])
    def test_binarize_threshold_exact(self, target, expected):
        c = binarize_and_weight(self.record(target), 3.0, self.vocab, 5)
        assert c.y_bin == expected


class TestMakeComment:
    vocab = Vocabulary.build([["some", "words"]])

    def test_unannotated_labels_are_zero_and_flagged(self):
        c = make_comment("u", "some words", 0.2, None, self.vocab, 5, 3.0)
        assert c.identity_labels.tolist() == [0.0] * len(IDENTITY_COLUMNS)
        assert c.needs_propagation
        assert not c.identity_present
        assert c.beta == 1.0

    def test_given_labels_set_flag_and_weight(self):
        c = make_comment("a", "some words", 0.2, np.array([0.0, 0.5]), self.vocab, 5, 3.0)
        assert not c.needs_propagation
        assert c.identity_present
        assert c.beta == 3.0
        assert c.subtype_labels.tolist() == [0.0] * 5
        assert (c.true_length, c.y_bin) == (2, 0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError, match="c must be"):
            make_comment("a", "some words", 0.2, None, self.vocab, 5, 0.0)


class TestMakeFolds:
    def test_even_partition(self):
        plan = make_folds(10, 5, seed=7)
        val_sets = [set(v) for _, v in plan.folds]
        assert all(len(v) == 2 for v in val_sets)
        assert set().union(*val_sets) == set(range(10))

    def test_remainder_distribution(self):
        plan = make_folds(11, 5, seed=0)
        sizes = sorted(len(v) for _, v in plan.folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        assert make_folds(20, 4, seed=3) == make_folds(20, 4, seed=3)

    def test_disjoint_and_complementary(self):
        plan = make_folds(17, 4, seed=1)
        for train, val in plan.folds:
            assert set(train) & set(val) == set()
            assert set(train) | set(val) == set(range(17))
        val_sets = [set(v) for _, v in plan.folds]
        for i in range(len(val_sets)):
            for j in range(i + 1, len(val_sets)):
                assert val_sets[i] & val_sets[j] == set()

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            make_folds(3, 5)


def test_comment_jsonl_roundtrip(tmp_path):
    vocab = Vocabulary.build([["some", "words"]])
    original = binarize_and_weight(RawRecord("r", "some words", 0.3, {"male": 0.7}), 3.0, vocab, 4)
    path = tmp_path / "d.jsonl"
    save_comments(path, [original])
    loaded = load_comments(path)[0]
    assert comment_to_dict(loaded) == comment_to_dict(original)


def test_load_comments_requires_every_field_but_propagated(tmp_path):
    vocab = Vocabulary.build([["some", "words"]])
    comment = binarize_and_weight(RawRecord("r", "some words", 0.3, {"male": 0.7}), 3.0, vocab, 4)
    full = comment_to_dict(comment)
    old = {k: v for k, v in full.items() if k != "propagated"}
    assert comment_to_dict(comment_from_dict(old)) == full
    path = tmp_path / "d.jsonl"
    lines = [json.dumps(full), json.dumps({k: v for k, v in full.items() if k != "beta"})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"d\.jsonl: row 2: .*beta"):
        load_comments(path)


def test_load_comments_refuses_a_comment_without_tokens(tmp_path):
    vocab = Vocabulary.build([["some", "words"]])
    comments = [
        binarize_and_weight(RawRecord(str(i), text, 0.3, {}), 3.0, vocab, 4)
        for i, text in enumerate(["some words", "!!! ...", "words"])
    ]
    path = tmp_path / "d.jsonl"
    save_comments(path, comments)
    with pytest.raises(CorpusError, match=r"d\.jsonl: row 2: comment '1' has no tokens"):
        load_comments(path)
