import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def encoded(text, vocab, max_len):
    return make_comment("e", text, 0.0, None, vocab, max_len, 3.0)


class TestEncode:
    """make_comment's token ids: the first max_len tokens, and no padding."""

    def test_padding(self):
        vocab = make_vocab("a", "b", "c")
        c = encoded("a b c", vocab, 5)
        assert c.true_length == 3
        assert c.token_ids.tolist() == [vocab.index_of(t) for t in ("a", "b", "c")]
        assert c.token_ids.dtype == np.int64
        assert all(i >= 2 for i in c.token_ids)

    def test_padding_count_property(self):
        vocab = make_vocab("a", "b", "c")
        for text in ("a", "a b", "a b c b", "c b a b c a"):
            c = encoded(text, vocab, 6)
            assert c.token_ids.tolist() == [vocab.index_of(t) for t in text.split()]
            assert c.true_length == len(c.token_ids) == len(text.split())
            assert int(np.sum(c.token_ids == PAD_INDEX)) == 0

    def test_truncation_at_max_len(self):
        vocab = make_vocab("w")
        c = encoded(" ".join(["w"] * 300), vocab, 220)
        assert c.true_length == 220
        assert c.token_ids.tolist() == [vocab.index_of("w")] * 220

    def test_oov_maps_to_unknown(self):
        vocab = make_vocab("known")
        c = encoded("mystery known", vocab, 2)
        assert c.token_ids.tolist() == [UNK_INDEX, vocab.index_of("known")]

    def test_max_len_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_len must be"):
            encoded("a", make_vocab("a"), 0)


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
        assert binarize_and_weight(self.record(0.2, {"black": 0.8}), 5.0, self.vocab, 5).beta == 5.0

    def test_toxic_identity_not_upweighted(self):
        c = binarize_and_weight(self.record(0.9, {"black": 0.8}), 3.0, self.vocab, 5)
        assert c.beta == 1.0
        assert c.y_bin == 1

    def test_no_identity_not_upweighted(self):
        c = binarize_and_weight(self.record(0.2, {"black": 0.4}), 3.0, self.vocab, 5)
        assert c.beta == 1.0
        assert binarize_and_weight(self.record(0.2, {"black": 0.4, "male": 0.5}), 3.0, self.vocab, 5).beta == 3.0

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

    def test_unannotated_labels_are_none(self):
        c = make_comment("u", "some words", 0.2, None, self.vocab, 5, 3.0)
        assert c.identity_labels is None
        assert c.needs_propagation
        assert c.identities_present == ()
        assert c.beta == 1.0
        assert make_comment("u", "some words", 0.2, None, self.vocab, 5, 7.0).beta == 1.0

    def test_given_labels_set_flag_and_weight(self):
        c = make_comment("a", "some words", 0.2, np.array([0.0, 0.5]), self.vocab, 5, 3.0)
        assert not c.needs_propagation
        assert c.identities_present.tolist() == [False, True]
        assert c.beta == 3.0
        assert make_comment("a", "some words", 0.7, np.array([0.0, 0.5]), self.vocab, 5, 3.0).beta == 1.0
        assert c.subtype_labels.tolist() == [0.0] * 5
        assert (c.true_length, c.y_bin) == (2, 0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError, match="c must be"):
            make_comment("a", "some words", 0.2, None, self.vocab, 5, 0.0)


class TestMakeFolds:
    def test_even_partition(self):
        plan = make_folds(10, 5, seed=7)
        val_sets = [set(v) for _, v in plan]
        assert all(len(v) == 2 for v in val_sets)
        assert set().union(*val_sets) == set(range(10))

    def test_remainder_distribution(self):
        plan = make_folds(11, 5, seed=0)
        sizes = sorted(len(v) for _, v in plan)
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        assert make_folds(20, 4, seed=3) == make_folds(20, 4, seed=3)

    def test_disjoint_and_complementary(self):
        plan = make_folds(17, 4, seed=1)
        for train, val in plan:
            assert set(train) & set(val) == set()
            assert set(train) | set(val) == set(range(17))
        val_sets = [set(v) for _, v in plan]
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


# A line as the padded format wrote it: token_ids padded to max_len 6, and true_length.
PADDED_LINE = (
    '{"id": "r7", "token_ids": [4, 1, 2, 3, 0, 0], "true_length": 4, "y": 0.2, "y_bin": 0, '
    '"identity_labels": [0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "subtype_labels": [0.0, 0.0, 0.0, 0.0, 0.0], '
    '"identity_present": true, "beta": 3.0, "needs_propagation": false, "propagated": false}'
)


def test_padded_line_loads_to_the_same_comment_and_predictions(tmp_path):
    from conftest import tiny_hyper
    from mtltox.embeddings import random_table
    from mtltox.network import init_params, predict

    vocab = Vocabulary.build([["some", "words", "here"]])
    comment = binarize_and_weight(RawRecord("r7", "here are some words", 0.2, {"male": 0.7}), 3.0, vocab, 6)
    path = tmp_path / "d.jsonl"
    save_comments(path, [comment])
    new_line = path.read_text()
    assert "true_length" not in new_line and '"token_ids": [4, 1, 2, 3],' in new_line
    path.write_text(PADDED_LINE + "\n" + new_line)
    padded, new = load_comments(path)
    assert comment_to_dict(padded) == comment_to_dict(new) == comment_to_dict(comment)
    assert (padded.y_bin, padded.needs_propagation) == (new.y_bin, new.needs_propagation) == (0, False)
    assert padded.token_ids.dtype == np.int64 and padded.true_length == 4

    params = init_params(tiny_hyper(n_aux=9, embed_dim=4, max_len=6), seed=3)
    table = random_table(vocab, 2, 2, seed=1)
    for got, want in zip(predict(params, table, [padded]), predict(params, table, [new])):
        assert np.array_equal(got, want)


BAD_TOKEN_FIELDS = {
    "float-id": ({"token_ids": [2.5, 3]}, "non-negative integers"),
    "negative-id": ({"token_ids": [2, -1]}, "non-negative integers"),
    "string-id": ({"token_ids": ["2"]}, "non-negative integers"),
    "bool-id": ({"token_ids": [True]}, "non-negative integers"),
    "nested-ids": ({"token_ids": [[2, 3]]}, "non-negative integers"),
    "true-length-too-long": ({"true_length": 7}, "true_length 7 is not an integer in [0, 6]"),
    "true-length-negative": ({"true_length": -1}, "true_length -1 is not"),
    "true-length-float": ({"true_length": 4.0}, "true_length 4.0 is not"),
    "true-length-bool": ({"true_length": True}, "true_length True is not"),
}


@pytest.mark.parametrize("change, message", BAD_TOKEN_FIELDS.values(), ids=BAD_TOKEN_FIELDS.keys())
def test_load_comments_refuses_bad_token_ids_and_true_length(tmp_path, change, message):
    path = tmp_path / "d.jsonl"
    path.write_text(PADDED_LINE + "\n" + json.dumps(json.loads(PADDED_LINE) | change) + "\n")
    with pytest.raises(CorpusError, match=rf"d\.jsonl: row 2: bad comment: .*{re.escape(message)}"):
        load_comments(path)


def test_a_prepared_line_holds_no_derived_key_and_null_labels_when_unannotated(tmp_path):
    vocab = Vocabulary.build([["some", "words"]])
    comments = [
        binarize_and_weight(RawRecord("a", "some words", 0.7, {"male": 0.7}), 3.0, vocab, 4),
        binarize_and_weight(RawRecord("u", "some words", 0.2, None), 3.0, vocab, 4),
    ]
    path = tmp_path / "d.jsonl"
    save_comments(path, comments)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [list(obj) for obj in lines] == [[f.name for f in fields(Comment)]] * 2
    assert "y_bin" not in lines[0] and "needs_propagation" not in lines[0]
    assert lines[1]["identity_labels"] is None
    annotated, unannotated = load_comments(path)
    assert (annotated.y_bin, annotated.needs_propagation) == (1, False)
    assert (unannotated.y_bin, unannotated.needs_propagation, unannotated.identity_labels) == (0, True, None)


def test_older_lines_read_y_bin_and_needs_propagation():
    base = json.loads(PADDED_LINE)
    assert comment_from_dict(base).identity_labels.tolist() == [0.7] + [0.0] * 8
    flagged = comment_from_dict(base | {"identity_labels": [0.0] * 9, "needs_propagation": True})
    assert flagged.identity_labels is None and flagged.needs_propagation and flagged.beta == 3.0
    assert comment_from_dict(base | {"identity_labels": None, "needs_propagation": True}).identity_labels is None
    without = {k: v for k, v in base.items() if k not in ("y_bin", "needs_propagation")}
    assert comment_to_dict(comment_from_dict(without)) == comment_to_dict(comment_from_dict(base))


# One field of PADDED_LINE changed, and the message that names the fault.
BAD_FIELDS = {
    "id-list": ({"id": [1]}, "field 'id' must be a string, got [1]"),
    "id-number": ({"id": 7}, "field 'id' must be a string"),
    "y-nan": ({"y": float("nan")}, "field 'y' out of [0,1]: nan"),
    "y-above-1": ({"y": 2.0}, "field 'y' out of [0,1]: 2.0"),
    "y-string": ({"y": "0.5"}, "field 'y' is not a number: '0.5'"),
    "y-bool": ({"y": False}, "field 'y' is not a number: False"),
    "y-null": ({"y": None}, "field 'y' is not a number: None"),
    "y-int-too-large": ({"y": 10**400}, "int too large to convert to float"),
    "identity-nan": ({"identity_labels": [float("nan")] * 9}, "field 'identity_labels[0]' out of [0,1]: nan"),
    "identity-inf": ({"identity_labels": [0.0, float("inf")]}, "field 'identity_labels[1]' out of [0,1]: inf"),
    "identity-string": ({"identity_labels": "0.5"}, "field 'identity_labels' is not a list of numbers"),
    "identity-nested": ({"identity_labels": [[0.5]]}, "field 'identity_labels[0]' is not a number"),
    "subtype-null": ({"subtype_labels": None}, "field 'subtype_labels' is not a list of numbers: None"),
    "subtype-negative": ({"subtype_labels": [0.0, -1]}, "field 'subtype_labels[1]' out of [0,1]: -1.0"),
    "beta-negative": ({"beta": -1}, "field 'beta' must be finite and > 0, got -1.0"),
    "beta-nan": ({"beta": float("nan")}, "field 'beta' must be finite and > 0, got nan"),
    "beta-zero": ({"beta": 0}, "field 'beta' must be finite and > 0, got 0.0"),
    "beta-bool": ({"beta": True}, "field 'beta' must be a number, got True"),
    "beta-int-too-large": ({"beta": 10**400}, "int too large to convert to float"),
    "propagated-string": ({"propagated": "no"}, "field 'propagated' must be true or false, got 'no'"),
    "propagated-int": ({"propagated": 0}, "field 'propagated' must be true or false, got 0"),
    "y-bin-contradicts-y": ({"y_bin": 1}, "field 'y_bin' is 1, but 'y' 0.2 gives 0"),
    "y-bin-out-of-range": ({"y_bin": 7}, "field 'y_bin' is 7, but 'y' 0.2 gives 0"),
    "y-bin-bool": ({"y_bin": False}, "field 'y_bin' is False"),
    "needs-propagation-string": ({"needs_propagation": "yes"}, "field 'needs_propagation' must be true or false"),
    "needs-propagation-false-with-null-labels": (
        {"identity_labels": None}, "field 'needs_propagation' is false, but 'identity_labels' is null"
    ),
    "not-an-object": (None, "a prepared line must be a JSON object, got [1, 2]"),
}


@pytest.mark.parametrize("change, message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_load_comments_refuses_a_bad_field_naming_file_and_row(tmp_path, change, message):
    path = tmp_path / "d.jsonl"
    line = [1, 2] if change is None else json.loads(PADDED_LINE) | change
    path.write_text(PADDED_LINE + "\n" + json.dumps(line) + "\n")
    with pytest.raises(CorpusError, match=rf"d\.jsonl: row 2: .*{re.escape(message)}"):
        load_comments(path)


def test_atomic_write_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "target.tsv").write_text("old\n")
    (tmp_path / "link.tsv").symlink_to("target.tsv")
    make_vocab("a", "b").save(tmp_path / "link.tsv")
    assert (tmp_path / "link.tsv").is_symlink()
    assert (tmp_path / "target.tsv").read_text() == "a\t2\nb\t3\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.tsv", "target.tsv"]


@given(text=st.text(max_size=60), max_len=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_make_save_load_round_trip(text, max_len):
    tokens = tokenize(text)
    vocab = Vocabulary.build([tokens[::2]])  # every other token is unknown to it
    comment = make_comment(text, text, 0.4, None, vocab, max_len, 3.0)
    assert comment.token_ids.tolist() == [vocab.index_of(t) for t in tokens[:max_len]]
    assert PAD_INDEX not in comment.token_ids
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        save_comments(path, [comment])
        if not tokens:
            with pytest.raises(CorpusError, match="has no tokens"):
                load_comments(path)
            return
        (loaded,) = load_comments(path)
    assert comment_to_dict(loaded) == comment_to_dict(comment)
    assert loaded.token_ids.dtype == np.int64
