"""One rule for every line-based file the CLI reads: an error names the file
and the row (``<file>: row <n>: <what>``), or the line of a byte that is not
UTF-8, and exits 2."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtltox.checkpoint import save_checkpoint
from mtltox.cli import main
from mtltox.corpus import CorpusError, Vocabulary, read_rows
from mtltox.embeddings import EmbeddingError, load_vectors, random_table
from mtltox.network import Hyper, init_params
from test_cli import CONFIG, run_prep, run_train, write_fixture_csv


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A prepared corpus, its vocabulary and a 2-fold run of the test_cli fixture."""
    workdir = tmp_path_factory.mktemp("trained")
    write_fixture_csv(workdir / "corpus.csv")
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    assert run_prep(workdir) == 0
    assert run_train(workdir) == 0
    return workdir


def corpus_jsonl(trained):
    rows = csv.DictReader(io.StringIO((trained / "corpus.csv").read_text()))
    return "".join(json.dumps(row) + "\n" for row in rows)


def predictions_jsonl(trained):
    return "".join(json.dumps({"score": s, "label": l}) + "\n" for s, l in [(0.9, 1), (0.2, 0), (0.8, 1)])


def prep(tmp, path, fmt):
    outputs = ["--vocab-out", str(tmp / "v.tsv"), "--out", str(tmp / "d.jsonl")]
    return ["prep", "--input", str(path), "--format", fmt, *outputs]


def train(trained, tmp, data=None, vocab=None, source1=None):
    config = tmp / "config.json"
    embeddings = {**CONFIG["embeddings"], **({"source1": str(source1)} if source1 else {})}
    config.write_text(json.dumps({**CONFIG, "embeddings": embeddings}))
    return [
        "train",
        "--data", str(data or trained / "data.jsonl"),
        "--vocab", str(vocab or trained / "vocab.tsv"),
        "--config", str(config),
        "--out-dir", str(tmp / "run"),
    ]


def templates(trained, tmp, path):
    model = ["--checkpoint", str(trained / "run" / "checkpoint_fold0.json"), "--vocab", str(trained / "vocab.tsv")]
    return ["templates", *model, "--templates-file", str(path)]


def bias_report(trained, tmp, path):
    return ["bias-report", "--predictions", str(path), "--subgroups", "male", "--out", str(tmp / "rep.json")]


# Each line-based file the CLI reads: (file name, its good text from the trained
# fixture, a malformed third line, the row that line is, the command reading it).
INPUTS = {
    "corpus-csv": (
        "corpus.csv", lambda t: (t / "corpus.csv").read_text(), "1,some text,abc", 2,
        lambda t, tmp, path: prep(tmp, path, "csv"),
    ),
    "corpus-jsonl": ("corpus.jsonl", corpus_jsonl, "5", 3, lambda t, tmp, path: prep(tmp, path, "jsonl")),
    "corpus-jsonl-text-not-string": (
        "corpus.jsonl", corpus_jsonl, '{"comment_text": ["a", "b"], "target": 0.1}', 3,
        lambda t, tmp, path: prep(tmp, path, "jsonl"),
    ),
    "corpus-jsonl-bool-score": (
        "corpus.jsonl", corpus_jsonl, '{"comment_text": "some words", "target": true, "male": false}', 3,
        lambda t, tmp, path: prep(tmp, path, "jsonl"),
    ),
    "prepared-jsonl": (
        "data.jsonl", lambda t: (t / "data.jsonl").read_text(), '{"id": "2", "token_ids": [2,', 3,
        lambda t, tmp, path: train(t, tmp, data=path),
    ),
    "vocabulary-tsv": (
        "vocab.tsv", lambda t: (t / "vocab.tsv").read_text(), "number", 3,
        lambda t, tmp, path: train(t, tmp, vocab=path),
    ),
    "embedding-text": (
        "vectors.txt", lambda t: "".join(f"{w} 0.1 0.2 0.3\n" for w in ("comment", "number", "nice", "kind")),
        "nice 0.1 0.2", 3, lambda t, tmp, path: train(t, tmp, source1=path),
    ),
    "templates-tsv": (
        "extra.tsv", lambda t: "nontoxic\tI am <Identity>\n" * 3, "neutral\tI am <Identity>", 3, templates,
    ),
    "predictions-csv": (
        "preds.csv", lambda t: "score,label,male\n0.9,1,0.0\n0.2,0,0.9\n0.8,1,0.9\n0.1,0,0.0\n", "0.2,2,0.9", 2,
        bias_report,
    ),
    "predictions-jsonl": ("preds.jsonl", predictions_jsonl, '{"score": 0.2}', 3, bias_report),
    "predictions-jsonl-upper-case-suffix": ("preds.JSONL", predictions_jsonl, '{"score": 0.2}', 3, bias_report),
    "predictions-jsonl-json-suffix": ("preds.json", predictions_jsonl, '{"score": 0.2}', 3, bias_report),
}


@pytest.mark.parametrize("fault", ["not-utf8", "malformed-row"])
@pytest.mark.parametrize("name, good, bad_line, row, command", INPUTS.values(), ids=INPUTS.keys())
def test_every_line_based_input_names_the_file_and_line_or_row(
    trained, tmp_path, capsys, fault, name, good, bad_line, row, command
):
    path = tmp_path / name
    lines = good(trained).encode("utf-8").splitlines(keepends=True)
    argv = command(trained, tmp_path, path)
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 0, capsys.readouterr().err  # the good file is read
    if fault == "not-utf8":
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        expected = f"{path}: line 3: not UTF-8"
    else:
        lines[2] = bad_line.encode("utf-8") + b"\n"
        expected = f"{path}: row {row}: "
    path.write_bytes(b"".join(lines))
    for output in ("d.jsonl", "rep.json"):  # written by the run on the good file
        (tmp_path / output).unlink(missing_ok=True)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err, err
    assert not (tmp_path / "d.jsonl").exists() and not (tmp_path / "rep.json").exists()


class TestReadRows:
    def test_csv_rows_are_numbered_by_data_row_and_bad_bytes_by_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b'a,b\n1,"two\nlines"\n3,4\n5,\xff\n')
        with pytest.raises(CorpusError, match=r"c\.csv: line 5: not UTF-8: invalid start byte, byte 3"):
            read_rows(path, "csv", lambda n, row: row)
        path.write_bytes(b'a,b\n1,"two\nlines"\n3,4\n')
        assert read_rows(path, "csv", lambda n, row: (n, row["b"])) == [(1, "two\nlines"), (2, "4")]

    def test_line_kinds_skip_blank_lines_and_drop_line_endings(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("one \r\n\n  \ntwo\u2028x\n".encode("utf-8"))  # U+2028 ends no line
        assert read_rows(path, "lines", lambda n, line: (n, line)) == [(1, "one "), (4, "two\u2028x")]
        path.write_text('{"a": 1}\n\n[2]\n')
        assert read_rows(path, "jsonl", lambda n, obj: (n, obj)) == [(1, {"a": 1}), (3, [2])]

    def test_a_lone_carriage_return_in_csv_is_an_invalid_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"a\n1\n2\r3\n")
        with pytest.raises(CorpusError, match=r"c\.csv: row 2: invalid CSV: new-line character"):
            read_rows(path, "csv", lambda n, row: row)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_embedding_value_names_file_and_row(tmp_path, value):
    path = tmp_path / "v.txt"
    path.write_text(f"2 2\na 0.1 0.2\nb 0.3 {value}\n")
    with pytest.raises(EmbeddingError, match=rf"v\.txt: row 3: vector for 'b' is not finite"):
        load_vectors(path, 2)


def test_vocabulary_index_errors_name_the_file(tmp_path):
    path = tmp_path / "v.tsv"
    for text in ["hello\t5\n", "hello\t1\n", "hello\t2\nworld\t2\n", "hello\t2\nhello\t3\n"]:
        path.write_text(text)
        with pytest.raises(CorpusError, match=r"v\.tsv: vocabulary indices must be contiguous from 2"):
            Vocabulary.load(path)


_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=12)
_SCORE = st.one_of(
    st.floats(0, 1).map(repr), st.sampled_from(["", "nan", "inf", "-0.5", "1.5", "1e400", "abc"]), _TEXT
)
# JSON values a JSONL score may hold besides strings.
_JSON_SCORE = st.one_of(_SCORE, st.floats(), st.sampled_from([True, None, [1], {}, 10**400]))
_COLUMNS = ["id", "comment_text", "target", "male", "insult"]


@st.composite
def _prep_input(draw):
    """(format, bytes) of a prep input: arbitrary or invalid UTF-8 bytes, or
    rows with columns missing or extra, arbitrary scores, non-object JSONL lines,
    or well-formed rows."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return fmt, draw(st.binary(max_size=40))
    if shape == 1:
        return fmt, draw(st.text(st.characters(exclude_categories=["Cs"]), max_size=40)).encode("utf-8")
    # Half the row inputs are ones prep accepts: a text with a token, in-range scores, no stray line or byte.
    well_formed = draw(st.booleans())
    if well_formed:
        others = draw(st.lists(st.sampled_from(["id", "male", "insult", "extra"]), unique=True))
        columns = ["comment_text", "target", *others]
        cell = {"id": _TEXT, "comment_text": _TEXT.map("word ".__add__), "target": st.floats(0, 1).map(repr)}
        cell["extra"], score = _TEXT, st.floats(0, 1).map(repr) | st.just("")
    else:
        columns = draw(st.lists(st.sampled_from(_COLUMNS + ["extra"]), unique=True, min_size=1))
        cell = {"id": _TEXT, "comment_text": _TEXT, "extra": _TEXT}
        score = _JSON_SCORE if fmt == "jsonl" else _SCORE
    rows = [{c: draw(cell.get(c, score)) for c in columns} for _ in range(draw(st.integers(well_formed, 4)))]
    if fmt == "jsonl":
        lines = [json.dumps(row) for row in rows]
        if not well_formed and draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["5", '"text"', "[1]", "null", "{"])))
        data = "".join(line + "\n" for line in lines).encode("utf-8")
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        writer.writerows([[row[c] for c in columns] for row in rows])
        data = buffer.getvalue().encode("utf-8")
    if data and not well_formed and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return fmt, data


def evaluate_with_a_tiny_checkpoint(tmp):
    """``evaluate``'s arguments for what ``prep`` wrote to ``tmp``, with a tiny untrained model
    saved for its vocabulary."""
    vocab = Vocabulary.load(tmp / "v.tsv")
    params = init_params(Hyper(embed_dim=4, hidden=2, dense1=2, dense2=2, max_len=12))
    save_checkpoint(tmp / "ck.json", params, random_table(vocab, 2, 2), vocab.checksum())
    return ["evaluate", "--checkpoint", str(tmp / "ck.json"), "--data", str(tmp / "d.jsonl"),
            "--vocab", str(tmp / "v.tsv"), "--out", str(tmp / "out.json")]


@given(prep_input=_prep_input())
@settings(max_examples=50, deadline=None)
def test_prep_ends_in_exit_0_or_exit_2_naming_the_file(prep_input):
    """And when prep exits 0, evaluate on what it wrote ends in exit 0 or exit 2 naming the file."""
    fmt, data = prep_input
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corpus.{fmt}"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(prep(Path(tmp), path, fmt))
        assert code == 0 or (code == 2 and str(path) in err.getvalue()), (code, err.getvalue())
        if code == 0:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(evaluate_with_a_tiny_checkpoint(Path(tmp)))
            assert code == 0 or (code == 2 and str(Path(tmp) / "d.jsonl") in err.getvalue()), (code, err.getvalue())
