import numpy as np
import pytest

from mtltox.corpus import PAD_INDEX, Vocabulary
from mtltox.embeddings import (
    OOV_BLOCK_ROWS,
    EmbeddingError,
    build_table,
    checksum,
    load_vectors,
    lookup,
    random_table,
)


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadVectors:
    def test_direct_parse(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["the 0.1 0.2"])
        assert load_vectors(path, 2) == {"the": pytest.approx([0.1, 0.2])}

    def test_arity_error_names_line(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["the 0.1"])
        with pytest.raises(EmbeddingError, match=r"v\.txt: row 1: expected 3 fields, got 2"):
            load_vectors(path, 2)

    def test_five_line_fixture(self, tmp_path):
        words = ["a", "b", "c", "d", "e"]
        lines = [f"{w} {i}.0 {i}.5" for i, w in enumerate(words)]
        vectors = load_vectors(write_vectors(tmp_path / "v.txt", lines), 2)
        assert set(vectors) == set(words)
        for i, w in enumerate(words):
            assert vectors[w] == pytest.approx([float(i), i + 0.5])

    def test_fasttext_header_skipped(self, tmp_path):
        path = write_vectors(tmp_path / "v.vec", ["2 3", "a 1 2 3", "b 4 5 6"])
        vectors = load_vectors(path, 3)
        assert set(vectors) == {"a", "b"}

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["a 1 1", "a 2 2"])
        with pytest.warns(UserWarning, match="duplicate"):
            vectors = load_vectors(path, 2)
        assert vectors["a"] == pytest.approx([2.0, 2.0])


class TestBuildTable:
    vocab = Vocabulary.build([["hello", "world"]])

    def test_concatenation(self):
        src1 = {"hello": np.array([1.0, 2.0])}
        src2 = {"hello": np.array([3.0])}
        table = build_table(self.vocab, src1, src2, oov_seed=0, dim1=2, dim2=1)
        idx = self.vocab.index_of("hello")
        assert table.matrix[idx].tolist() == [1.0, 2.0, 3.0]
        assert table.dim == 3

    def test_padding_row_zero(self):
        table = random_table(self.vocab, 2, 2, seed=5)
        assert table.matrix[PAD_INDEX].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_oov_reproducible(self):
        t1 = random_table(self.vocab, 3, 2, seed=42)
        t2 = random_table(self.vocab, 3, 2, seed=42)
        assert np.array_equal(t1.matrix, t2.matrix)
        assert np.all(np.abs(t1.matrix) <= 0.05)

    def test_partial_source_membership(self):
        src1 = {"hello": np.array([9.0])}
        table = build_table(self.vocab, src1, {}, oov_seed=1, dim1=1, dim2=1)
        idx = self.vocab.index_of("hello")
        assert table.matrix[idx, 0] == 9.0
        assert abs(table.matrix[idx, 1]) <= 0.05  # random slice for the missing source

    def test_wrong_length_vector_refused(self):
        with pytest.raises(EmbeddingError, match="'world' has length 1, want 2"):
            build_table(self.vocab, {}, {"world": np.array([1.0])}, dim1=1, dim2=2)

    def test_matches_per_row_reference_across_blocks(self):
        words = [f"w{i}" for i in range(OOV_BLOCK_ROWS + 300)]
        vocab = Vocabulary.build([words])
        rng = np.random.default_rng(8)
        src1 = {w: rng.random(3) for w in words[::3]}
        src2 = {w: rng.random(2) for w in words[::5]}
        table = build_table(vocab, src1, src2, oov_seed=11, dim1=3, dim2=2)

        # The per-row loop the block draw replaces: one draw per missing slice.
        draws = np.random.default_rng(11)
        expected = np.zeros((len(vocab), 5))
        for idx, tok in enumerate(vocab.tokens_by_index()):
            for src, lo, hi in ((src1, 0, 3), (src2, 3, 5)):
                if tok in src:
                    expected[idx, lo:hi] = src[tok]
                else:
                    expected[idx, lo:hi] = draws.uniform(-0.05, 0.05, hi - lo)
        expected[PAD_INDEX] = 0.0
        assert table.matrix.tobytes() == expected.tobytes()


class TestLookup:
    table = random_table(Vocabulary.build([["a", "b", "c"]]), 2, 2, seed=0)

    def test_zero_ids_give_zero_rows(self):
        out = lookup(self.table, np.array([0, 0, 0]))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_single_row(self):
        out = lookup(self.table, np.array([2]))
        assert np.array_equal(out[0], self.table.matrix[2])

    def test_matches_naive_copy_oracle(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, self.table.matrix.shape[0], size=50)
        out = lookup(self.table, ids)
        naive = np.stack([self.table.matrix[i].copy() for i in ids])
        assert np.array_equal(out, naive)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            lookup(self.table, np.array([999]))


def test_checksum_detects_mutation():
    table = random_table(Vocabulary.build([["a"]]), 2, 2, seed=0)
    before = checksum(table)
    table.matrix[1, 0] += 1.0
    assert checksum(table) != before
