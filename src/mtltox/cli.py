"""Command-line entry point: the subcommands prep, propagate, train,
evaluate, bias-report, templates and ks-compare.

The command-line contract is stated once, in the "Command line" section of
README.md: what each subcommand reads and writes, the config file, what each
input check refuses and with which message, and the exit codes. The config
file (JSON) for propagate/train, with every accepted key, each optional;
any other key is refused with exit code 2:

    {
      "hyper":      {"hidden": 8, "dense1": 16, "dense2": 16, "n_aux": 9,
                     "dropout_rate": 0.2, "attention": true, "max_len": 220},
      "embeddings": {"source1": "glove.txt", "source2": "fasttext.vec",
                     "dim1": 50, "dim2": 50, "oov_seed": 0},
      "train":      {"epochs": 30, "batch_size": 64, "learning_rate": 0.001,
                     "seed": 0, "alpha": 0.6, "c": 3.0, "grad_clip_norm": 5.0,
                     "patience": 5, "k_folds": 5, "aux_source": "identities",
                     "power": -5.0},
      "subgroups":  ["male", "female"]
    }
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from mtltox.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mtltox.corpus import (
    IDENTITY_COLUMNS,
    SUBTYPE_COLUMNS,
    UNK_INDEX,
    Comment,
    CorpusError,
    Vocabulary,
    atomic_write,
    binarize_and_weight,
    from_json,
    load_comments,
    load_corpus,
    read_rows,
    save_comments,
    tokenize,
)
from mtltox.embeddings import EmbeddingSources, EmbeddingTable
from mtltox.metrics import BiasReport, ScoredExample, bias_report, ks_two_sample
from mtltox.network import Hyper, NetworkError
from mtltox.templates import (
    DEFAULT_IDENTITY_KEYWORDS,
    builtin_templates,
    load_templates,
    run_probe,
)
from mtltox.training import (
    TrainConfig,
    evaluate_model,
    propagate_identities,
    run_experiment,
)

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_COMPAT = 4


class CompatibilityError(RuntimeError):
    pass


def _subgroup_problem(names: list[str]) -> str | None:
    """Why ``names`` cannot label the identity columns by position, or None: more names than columns, or one twice."""
    if len(names) > len(IDENTITY_COLUMNS):
        return f"gives {len(names)} names, but each comment has {len(IDENTITY_COLUMNS)} identity columns"
    repeated = next((name for k, name in enumerate(names) if name in names[:k]), None)
    return None if repeated is None else f"gives {repeated!r} twice"


def _load_config(path: str | None, **flags) -> tuple[EmbeddingSources, Hyper, TrainConfig, list[str]]:
    """The config's sections and subgroups, the flags given (not None) set over ``train``'s."""
    config = {}
    if path is not None:
        try:
            config = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
            raise CorpusError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise CorpusError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in ("hyper", "embeddings", "train", "subgroups")]
    if unknown:
        raise CorpusError(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    subgroups = config.get("subgroups", list(IDENTITY_COLUMNS))
    if type(subgroups) is not list or not all(type(name) is str for name in subgroups):
        raise CorpusError(f"{path}: 'subgroups' must be a list of strings")
    if problem := _subgroup_problem(subgroups):
        raise CorpusError(f"{path}: 'subgroups' {problem}")
    sources = from_json(EmbeddingSources, config.get("embeddings", {}), path, "embeddings")
    hyper = from_json(Hyper, config.get("hyper", {}), path, "hyper", embed_dim=sources.dim1 + sources.dim2)
    cfg = from_json(TrainConfig, config.get("train", {}), path, "train")
    cfg = dataclasses.replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    labels = len(IDENTITY_COLUMNS if cfg.aux_source == "identities" else SUBTYPE_COLUMNS)
    if hyper.n_aux not in (0, labels):
        raise CorpusError(
            f"{path}: 'hyper.n_aux' is {hyper.n_aux}, but each comment has {labels} {cfg.aux_source} labels"
        )
    return sources, hyper, cfg, subgroups


def _check_token_ids(data_path: str, comments: list[Comment], table: EmbeddingTable) -> None:
    """Refuse prepared comments with a token id beyond the embedding table's rows."""
    rows = table.matrix.shape[0]
    bad = next((c for c in comments if c.token_ids.max() >= rows), None)
    if bad is not None:
        raise CompatibilityError(
            f"{data_path}: comment {bad.id!r} has token id {bad.token_ids.max()}, beyond the embedding "
            f"table's {rows} rows: the data was prepared with another vocabulary"
        )


def _training_inputs(args):
    """(comments, vocab, table, hyper, cfg, subgroups) for propagate and train; the config is read first."""
    sources, hyper, cfg, subgroups = _load_config(args.config, seed=args.seed, k_folds=getattr(args, "folds", None))
    comments = load_comments(args.data)
    vocab = Vocabulary.load(args.vocab)
    table = sources.table(vocab)
    _check_token_ids(args.data, comments, table)
    return comments, vocab, table, hyper, cfg, subgroups


def _load_paired_checkpoint(path: str, vocab_path: str | None):
    """(params, table, vocab) from a checkpoint; vocab is None without a path.

    A vocabulary whose checksum differs from the checkpoint's is refused.
    """
    params, table, vocab_checksum, _ = load_checkpoint(path)
    vocab = Vocabulary.load(vocab_path) if vocab_path else None
    if vocab is not None and vocab.checksum() != vocab_checksum:
        raise CompatibilityError(f"{path}: vocabulary {vocab_path} does not match the checkpoint")
    return params, table, vocab


def _refuse_overwrite(inputs: dict[str, str | None], outputs: dict[str, str | Path | None]) -> None:
    """Refuse an output, in writing order, that resolves to an input file or to an earlier output: writing it would
    replace that file. Keys are the options, values their paths; None is an option not given."""
    files = {Path(path).resolve(): option for option, path in inputs.items() if path is not None}
    for option, path in outputs.items():
        if path is None:
            continue
        other = files.setdefault(Path(path).resolve(), option)
        if other != option:
            raise ValueError(f"{option} and {other} are both {path}: writing {option} would replace the {other} file")


def _report_outputs(out: str) -> dict[str, Path]:
    """The files ``_write_report`` writes, in order, keyed by what names them."""
    return {"--out": Path(out), "--out's per-subgroup CSV": Path(out).with_suffix(".csv")}


def cmd_prep(args) -> int:
    _refuse_overwrite({"--input": args.input}, {"--vocab-out": args.vocab_out, "--out": args.out})
    records = load_corpus(args.input, schema=args.format)
    if not records:
        raise CorpusError(f"{args.input}: no records")
    vocab = Vocabulary.build(tokenize(r.comment_text) for r in records)
    comments = [binarize_and_weight(r, args.c, vocab, args.max_len) for r in records]
    for comment in comments:
        if comment.true_length == 0:
            raise CorpusError(f"{args.input}: record {comment.id!r}: comment_text has no tokens")
    vocab.save(args.vocab_out)
    save_comments(args.out, comments)

    n = len(comments)
    n_nontoxic = sum(1 for c in comments if c.y_bin == 0)
    n_weighted = sum(1 for c in comments if c.beta != 1.0)
    n_unannotated = sum(1 for c in comments if c.needs_propagation)
    print(f"comments: {n}")
    print(f"non-toxic: {n_nontoxic} ({100.0 * n_nontoxic / n:.2f}%)")
    print(f"weighted (beta={args.c:g}): {n_weighted}")
    print(f"needing identity propagation: {n_unannotated}")
    print(f"vocabulary size: {len(vocab)}")
    groups = [{name for name, present in zip(IDENTITY_COLUMNS, c.identities_present) if present} for c in comments]
    for name in IDENTITY_COLUMNS:
        print(f"identity {name}: {sum(name in g for g in groups)}")
    return 0


def cmd_propagate(args) -> int:
    _refuse_overwrite({"--config": args.config, "--data": args.data, "--vocab": args.vocab}, {"--out": args.out})
    comments, _, table, hyper, cfg, _ = _training_inputs(args)
    if cfg.aux_source != "identities":  # the predictor it trains fills identity labels
        raise CorpusError(f"{args.config}: 'train.aux_source' is {cfg.aux_source!r}; propagate fills identity labels")
    filled = propagate_identities(comments, table, hyper, cfg)
    save_comments(args.out, filled)
    print(f"propagated identities for {sum(1 for c in filled if c.propagated)} comments")
    return 0


def cmd_train(args) -> int:
    comments, vocab, table, hyper, cfg, subgroups = _training_inputs(args)
    out_dir = Path(args.out_dir)  # made where the first file is written
    grid = args.alpha if isinstance(args.alpha, list) else None
    if args.alpha is not None and grid is None:
        cfg = dataclasses.replace(cfg, alpha=args.alpha)

    def write_fold(params, record, tried) -> None:
        fold, metrics = record.fold, record.metrics
        out_dir.mkdir(parents=True, exist_ok=True)
        if grid is not None and fold == 0:
            results = [r.to_dict() for r in tried]
            _write_json(out_dir / "alpha_grid.json", {"chosen_alpha": record.alpha, "results": results})
            print(f"alpha grid search: chose alpha={record.alpha}")
        save_checkpoint(
            out_dir / f"checkpoint_fold{fold}.json",
            params,
            table,
            vocab.checksum(),
            meta={"fold": fold, "alpha": record.alpha, "seed": record.seed},
        )
        _write_json(out_dir / f"run_fold{fold}.json", record.to_dict())
        print(
            f"fold {fold}: val AUC={metrics['overall_auc']}, F1={metrics['f1']:.4f}, "
            f"GMB AUC={metrics['generalized_mean_bias_auc']}"
        )

    run_experiment(comments, table, hyper, cfg, subgroups, grid, on_fold=write_fold)
    return 0


def _write_json(path: Path, obj) -> str:
    """``obj`` as indented JSON to ``path``, through ``atomic_write``; returns the text."""
    text = json.dumps(obj, indent=2)
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(text)
    return text


def _write_report(report: BiasReport, out: str) -> None:
    """The report as JSON to ``out`` and stdout, and its subgroup table as CSV beside ``out``."""
    json_path, csv_path = _report_outputs(out).values()
    text = _write_json(json_path, report.to_dict())
    with atomic_write(csv_path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subgroup", "subgroup_auc", "bpsn_auc", "n_pos", "n_neg"])
        for name, stats in report.subgroups.items():
            writer.writerow([name, stats.subgroup_auc, stats.bpsn_auc, stats.n_pos, stats.n_neg])
    print(text)


def cmd_evaluate(args) -> int:
    inputs = {"--checkpoint": args.checkpoint, "--data": args.data, "--vocab": args.vocab}
    _refuse_overwrite(inputs, _report_outputs(args.out))
    params, table, _ = _load_paired_checkpoint(args.checkpoint, args.vocab)
    comments = load_comments(args.data)
    _check_token_ids(args.data, comments, table)
    _write_report(evaluate_model(params, table, comments, args.subgroups, args.p), args.out)
    return 0


def _predictions_to_examples(path: Path, subgroups: list[str]) -> list[ScoredExample]:
    """Scored examples from a CSV or JSONL predictions file; a score must be finite and a label 0 or 1."""
    def example(_, row) -> ScoredExample:
        score, label = float(row["score"]), float(row["label"])
        if not math.isfinite(score):
            raise ValueError(f"score {row['score']!r} is not a finite number")
        if label not in (0.0, 1.0):
            raise ValueError(f"label {row['label']!r} is not 0 or 1")
        groups = frozenset(
            name for name in subgroups if row.get(name) not in (None, "") and float(row[name]) >= 0.5
        )
        return ScoredExample(score=score, label=int(label), subgroups=groups)

    examples = read_rows(path, "jsonl" if path.suffix.lower() in (".jsonl", ".json") else "csv", example)
    if not examples:
        raise CorpusError(f"{path}: no predictions")
    return examples


def cmd_bias_report(args) -> int:
    _refuse_overwrite({"--predictions": args.predictions}, _report_outputs(args.out))
    subgroups = [s for s in args.subgroups.split(",") if s] if args.subgroups else list(IDENTITY_COLUMNS)
    examples = _predictions_to_examples(Path(args.predictions), subgroups)
    _write_report(bias_report(examples, subgroups, p=args.p), args.out)
    return 0


def cmd_templates(args) -> int:
    inputs = {"--checkpoint": args.checkpoint, "--vocab": args.vocab, "--templates-file": args.templates_file}
    _refuse_overwrite(inputs, {"--out": args.out})
    params, table, vocab = _load_paired_checkpoint(args.checkpoint, args.vocab)
    identities = DEFAULT_IDENTITY_KEYWORDS
    if args.identities:
        identities = tuple(s for s in args.identities.split(",") if s)
        for word in identities:  # a word the vocabulary cannot spell would probe <unk>, or an empty slot
            tokens = tokenize(word)
            outside = [token for token in tokens if vocab.index_of(token) == UNK_INDEX]
            if outside or not tokens:
                why = f"its token {outside[0]!r} is outside" if outside else "it has no token in"
                raise ValueError(f"--identities: {word!r}: {why} the vocabulary {args.vocab}")
    templates = builtin_templates()
    if args.templates_file:
        templates = templates + load_templates(args.templates_file)
    results = run_probe(params, table, vocab, identities, templates)
    payload = {identity: result.to_dict() for identity, result in results.items()}
    if args.out:
        _write_json(Path(args.out), payload)
    for identity, result in results.items():
        print(
            f"{identity}: mean nontoxic={result.mean_nontoxic:.4f} "
            f"mean toxic={result.mean_toxic:.4f} misclassified={result.misclassified()}"
        )
    return 0


def _per_fold_metric(run_dir: Path, metric: str) -> list[float]:
    """Each fold's metric, from the run records of one whole run: folds 0 to n-1, each of a run of n folds."""
    key = {"auc": "overall_auc", "f1": "f1"}[metric]
    values, folds, k_folds = [], [], []
    for path in sorted(run_dir.glob("run_fold*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorpusError(f"{path}: cannot read run record: {exc}") from exc
        if not isinstance(record, dict):
            raise CorpusError(f"{path}: run record must be a JSON object")
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            raise CorpusError(f"{path}: 'metrics' must be a JSON object")
        value = metrics.get(key)
        if value is None:
            raise CorpusError(f"{path}: 'metrics.{key}' is missing or null")
        if type(value) not in (int, float) or not math.isfinite(value):
            raise CorpusError(f"{path}: 'metrics.{key}' must be a finite number, got {value!r}")
        values.append(float(value))
        folds.append(record.get("fold"))
        if isinstance(record.get("config"), dict) and "k_folds" in record["config"]:
            k_folds.append(record["config"]["k_folds"])
    if len(values) < 2:
        raise CorpusError(f"{run_dir}: need at least two folds with metric {key!r}")
    n = len(values)
    if sorted(fold for fold in folds if type(fold) is int) != list(range(n)) or any(k != n for k in k_folds):
        raise CorpusError(
            f"{run_dir}: not one whole run: {n} run records give 'fold' {folds} and 'config.k_folds' {k_folds}, "
            f"not folds 0 to {n - 1} of a {n}-fold run"
        )
    return values


def cmd_ks_compare(args) -> int:
    a = _per_fold_metric(Path(args.run_a), args.metric)
    b = _per_fold_metric(Path(args.run_b), args.metric)
    d, p_value = ks_two_sample(a, b)
    print(f"D={d} p={p_value}")
    return 0


def _float(text: str) -> float:
    """``float(text)``, or NaN for text that is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite_float(text: str) -> float:
    """argparse type of ``--p``: a report cannot hold NaN or an infinity."""
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _c(text: str) -> float:
    """argparse type of ``--c``: the weight ``make_comment`` takes, a finite number above 0."""
    value = _float(text)
    if not 0.0 < value < math.inf:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _max_len(text: str) -> int:
    """argparse type of ``--max-len``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _subgroups(text: str) -> list[str]:
    """argparse type of evaluate's ``--subgroups``: comma-separated names of the identity columns, by position."""
    names = [name for name in text.split(",") if name]
    if problem := _subgroup_problem(names):
        raise argparse.ArgumentTypeError(problem)
    return names


def _report_out(text: str) -> str:
    """argparse type of evaluate's and bias-report's ``--out``: the subgroup CSV goes beside it, so no .csv name."""
    if text.lower().endswith(".csv"):
        raise argparse.ArgumentTypeError(f"{text!r} ends in .csv: the per-subgroup CSV written beside --out would replace it")
    return text


def _alpha(text: str) -> float | list[float]:
    """argparse type of ``--alpha``: a finite number, or ``grid:`` and a comma-separated list of them."""
    if text.startswith("grid:"):
        return [_finite_float(value) for value in text[len("grid:") :].split(",")]
    return _finite_float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtltox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="tokenize a corpus, build the vocabulary, write dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--vocab-out", required=True)
    p.add_argument("--max-len", type=_max_len, default=220)
    p.add_argument("--c", type=_c, default=3.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("propagate", help="fill identity scores for unannotated comments")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("train", help="K-fold training, optional alpha grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--config")
    p.add_argument("--alpha", type=_alpha, help="a float, or grid:0.2,0.6,1.0 for a search")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a dataset with a checkpoint, emit a bias report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")
    p.add_argument("--subgroups", type=_subgroups, default=",".join(IDENTITY_COLUMNS))
    p.add_argument("--p", type=_finite_float, default=-5.0)
    p.add_argument("--out", type=_report_out, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bias-report", help="bias report from an offline predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--subgroups")
    p.add_argument("--p", type=_finite_float, default=-5.0)
    p.add_argument("--out", type=_report_out, required=True)
    p.set_defaults(func=cmd_bias_report)

    p = sub.add_parser("templates", help="score the identity probe templates")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--identities")
    p.add_argument("--templates-file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("ks-compare", help="KS test on per-fold metrics of two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--metric", choices=["auc", "f1"], default="auc")
    p.set_defaults(func=cmd_ks_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflow or a NaN that matters ends in a NetworkError, whose
        # message is the report: numpy's warnings on the way add only noise.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # what train and propagate allocate, their config's sizes decide
        if getattr(args, "config", None) is None:
            raise
        print(f"error: {args.config}: a size is too large to allocate: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NetworkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CheckpointError, CompatibilityError) as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT


if __name__ == "__main__":
    sys.exit(main())
