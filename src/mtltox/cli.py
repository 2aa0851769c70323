"""Command-line entry point.

Subcommands: prep, propagate, train, evaluate, bias-report, templates,
ks-compare. Exit codes: 0 success, 2 input error, 3 numerical failure,
4 checkpoint/vocabulary compatibility error.

Config file (JSON) for propagate/train. Every key is optional, and every
accepted key is shown; any other key is refused with exit code 2:

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

Each value must have the type of the field's default (an integer serves as a
number; ``grad_clip_norm`` may be null); any other value is refused with exit
code 2. ``subgroups`` (train only), a list of strings, names the subgroups of
the per-fold bias metrics; the k-th name labels the k-th identity column, and
the default is all nine identity column names. Omitted embedding sources fall
back to seeded random vectors of the configured dimensions.

``prep`` refuses a row whose text has no tokens, and propagate, train and
evaluate refuse a prepared comment with none, with exit code 2. ``train``
refuses a corpus with unannotated identity rows: run ``propagate`` on it
first. The MTLTOX_SEED environment variable overrides the default seed
wherever --seed is not given.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from mtltox.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from mtltox.corpus import (
    IDENTITY_COLUMNS,
    CorpusError,
    Vocabulary,
    binarize_and_weight,
    load_comments,
    load_corpus,
    save_comments,
    tokenize,
)
from mtltox.embeddings import EmbeddingError, EmbeddingTable, build_table, load_vectors
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
    grid_search_alpha,
    propagate_identities,
    run_experiment,
)

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_COMPAT = 4


class CompatibilityError(RuntimeError):
    pass


def _default_seed() -> int:
    return int(os.environ.get("MTLTOX_SEED", "0"))


# The JSON value types a field of each type accepts, and their name; a bool is not a number.
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def _field_types(cls) -> dict[str, tuple[tuple[type, ...], str]]:
    """The ``_JSON_TYPES`` entry of each field's default, with null where the annotation allows None."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            continue
        accepted, name = _JSON_TYPES[type(f.default)]
        if type(None) in typing.get_args(hints[f.name]):
            accepted, name = (*accepted, type(None)), f"{name} or null"
        types[f.name] = (accepted, name)
    return types


# The keys each config section accepts, with their value types; "subgroups" is
# the one other top-level key. Hyper's embed_dim has no default: it is dim1 + dim2.
CONFIG_TYPES = {
    "hyper": _field_types(Hyper),
    "embeddings": dict.fromkeys(("source1", "source2"), _JSON_TYPES[str])
    | dict.fromkeys(("dim1", "dim2", "oov_seed"), _JSON_TYPES[int]),
    "train": _field_types(TrainConfig),
}
CONFIG_SECTIONS = {section: set(types) for section, types in CONFIG_TYPES.items()}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise CorpusError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in CONFIG_TYPES and key != "subgroups"]
    for section, types in CONFIG_TYPES.items():
        if not isinstance(config.get(section, {}), dict):
            raise CorpusError(f"{path}: '{section}' must be a JSON object")
        unknown += [f"{section}.{key}" for key in config.get(section, {}) if key not in types]
    if unknown:
        raise CorpusError(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    for section, types in CONFIG_TYPES.items():
        for key, value in config.get(section, {}).items():
            accepted, name = types[key]
            if type(value) not in accepted:
                raise CorpusError(f"{path}: '{section}.{key}' must be {name}")
    subgroups = config.get("subgroups", [])
    if type(subgroups) is not list or not all(type(name) is str for name in subgroups):
        raise CorpusError(f"{path}: 'subgroups' must be a list of strings")
    return config


def _build_table(config: dict, vocab: Vocabulary) -> EmbeddingTable:
    emb = config.get("embeddings", {})
    dim1 = emb.get("dim1", 50)
    dim2 = emb.get("dim2", 50)
    src1 = load_vectors(emb["source1"], dim1) if emb.get("source1") else {}
    src2 = load_vectors(emb["source2"], dim2) if emb.get("source2") else {}
    return build_table(vocab, src1, src2, emb.get("oov_seed", 0), dim1=dim1, dim2=dim2)


def _build_train_cfg(config: dict, args) -> TrainConfig:
    fields = dict(config.get("train", {}))
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    fields.setdefault("seed", _default_seed())
    if getattr(args, "folds", None) is not None:
        fields["k_folds"] = args.folds
    return TrainConfig(**fields)


def _training_inputs(args):
    """(config, comments, vocab, table, hyper, cfg) for propagate and train."""
    config = _load_config(args.config)
    comments = load_comments(args.data)
    vocab = Vocabulary.load(args.vocab)
    table = _build_table(config, vocab)
    hyper = Hyper(embed_dim=table.dim, **config.get("hyper", {}))
    return config, comments, vocab, table, hyper, _build_train_cfg(config, args)


def _load_paired_checkpoint(path: str, vocab_path: str | None):
    """(params, table, vocab) from a checkpoint; vocab is None without a path.

    A vocabulary whose checksum differs from the checkpoint's is refused.
    """
    params, table, vocab_checksum, _ = load_checkpoint(path)
    vocab = Vocabulary.load(vocab_path) if vocab_path else None
    if vocab is not None and vocab.checksum() != vocab_checksum:
        raise CompatibilityError("vocabulary does not match the checkpoint")
    return params, table, vocab


def cmd_prep(args) -> int:
    records = load_corpus(args.input, schema=args.format)
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
    for i, name in enumerate(IDENTITY_COLUMNS):
        count = sum(1 for c in comments if c.identity_labels[i] >= 0.5)
        print(f"identity {name}: {count}")
    return 0


def cmd_propagate(args) -> int:
    _, comments, _, table, hyper, cfg = _training_inputs(args)
    filled = propagate_identities(comments, table, hyper, cfg)
    save_comments(args.out, filled)
    print(f"propagated identities for {sum(1 for c in filled if c.propagated)} comments")
    return 0


def cmd_train(args) -> int:
    config, comments, vocab, table, hyper, cfg = _training_inputs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subgroups = config.get("subgroups", list(IDENTITY_COLUMNS))

    if args.alpha and args.alpha.startswith("grid:"):
        grid = [float(v) for v in args.alpha[len("grid:") :].split(",")]
        chosen, results = grid_search_alpha(comments, table, hyper, cfg, subgroups, grid)
        (out_dir / "alpha_grid.json").write_text(
            json.dumps({"chosen_alpha": chosen, "results": results}, indent=2)
        )
        print(f"alpha grid search: chose alpha={chosen}")
        cfg = dataclasses.replace(cfg, alpha=chosen)
    elif args.alpha:
        cfg = dataclasses.replace(cfg, alpha=float(args.alpha))

    def write_fold(params, record, report) -> None:
        fold = record.fold
        save_checkpoint(
            out_dir / f"checkpoint_fold{fold}.json",
            params,
            table,
            vocab.checksum(),
            meta={"fold": fold, "alpha": record.alpha, "seed": record.seed},
        )
        (out_dir / f"run_fold{fold}.json").write_text(json.dumps(record.to_dict(), indent=2))
        print(
            f"fold {fold}: val AUC={report.overall_auc}, F1={report.f1:.4f}, "
            f"GMB AUC={report.generalized_mean_bias_auc}"
        )

    run_experiment(comments, table, hyper, cfg, subgroups, on_fold=write_fold)
    return 0


def _report_to_csv(report: BiasReport, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subgroup", "subgroup_auc", "bpsn_auc", "n_pos", "n_neg"])
        for name, stats in report.subgroups.items():
            writer.writerow([name, stats.subgroup_auc, stats.bpsn_auc, stats.n_pos, stats.n_neg])


def cmd_evaluate(args) -> int:
    params, table, _ = _load_paired_checkpoint(args.checkpoint, args.vocab)
    comments = load_comments(args.data)
    subgroups = [s for s in args.subgroups.split(",") if s] if args.subgroups else []
    report = evaluate_model(params, table, comments, subgroups, args.p)
    payload = {"p": args.p, "report": report.to_dict()}
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2))
    _report_to_csv(report, out.with_suffix(".csv"))
    print(json.dumps(payload["report"], indent=2))
    return 0


def _predictions_to_examples(path: Path, subgroups: list[str]) -> list[ScoredExample]:
    # Rows are numbered as in load_corpus: by line for JSONL, by data row for CSV.
    if path.suffix == ".jsonl":
        lines = enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        rows = [(row_num, line) for row_num, line in lines if line.strip()]
    else:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(enumerate(csv.DictReader(fh), 1))
    examples = []
    for row_num, row in rows:
        try:
            if isinstance(row, str):
                row = json.loads(row)
            score = float(row["score"])
            label = int(float(row["label"]))
            groups = frozenset(
                name for name in subgroups if row.get(name) not in (None, "") and float(row[name]) >= 0.5
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"predictions row {row_num}: {exc}") from exc
        examples.append(ScoredExample(score=score, label=label, subgroups=groups))
    return examples


def cmd_bias_report(args) -> int:
    subgroups = [s for s in args.subgroups.split(",") if s] if args.subgroups else list(IDENTITY_COLUMNS)
    examples = _predictions_to_examples(Path(args.predictions), subgroups)
    report = bias_report(examples, subgroups, p=args.p)
    out = Path(args.out)
    out.write_text(json.dumps(report.to_dict(), indent=2))
    _report_to_csv(report, out.with_suffix(".csv"))
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_templates(args) -> int:
    params, table, vocab = _load_paired_checkpoint(args.checkpoint, args.vocab)
    identities = (
        tuple(s for s in args.identities.split(",") if s)
        if args.identities
        else DEFAULT_IDENTITY_KEYWORDS
    )
    templates = builtin_templates()
    if args.templates_file:
        templates = templates + load_templates(args.templates_file)
    results = run_probe(params, table, vocab, identities, templates)
    payload = {identity: result.to_dict() for identity, result in results.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
    for identity, result in results.items():
        print(
            f"{identity}: mean nontoxic={result.mean_nontoxic:.4f} "
            f"mean toxic={result.mean_toxic:.4f} misclassified={result.misclassified()}"
        )
    return 0


def _per_fold_metric(run_dir: Path, metric: str) -> list[float]:
    key = {"auc": "overall_auc", "f1": "f1"}[metric]
    values = []
    for path in sorted(run_dir.glob("run_fold*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        value = record.get("metrics", {}).get(key)
        if value is None:
            raise CorpusError(f"{path}: metric {key!r} missing or undefined")
        values.append(float(value))
    if len(values) < 2:
        raise CorpusError(f"{run_dir}: need at least two folds with metric {key!r}")
    return values


def cmd_ks_compare(args) -> int:
    a = _per_fold_metric(Path(args.run_a), args.metric)
    b = _per_fold_metric(Path(args.run_b), args.metric)
    d, p_value = ks_two_sample(a, b)
    print(f"D={d} p={p_value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtltox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="tokenize a corpus, build the vocabulary, write dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--vocab-out", required=True)
    p.add_argument("--max-len", type=int, default=220)
    p.add_argument("--c", type=float, default=3.0)
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
    p.add_argument("--alpha", help="a float, or grid:0.2,0.6,1.0 for a search")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a dataset with a checkpoint, emit a bias report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab")
    p.add_argument("--subgroups", default=",".join(IDENTITY_COLUMNS))
    p.add_argument("--p", type=float, default=-5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bias-report", help="bias report from an offline predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--subgroups")
    p.add_argument("--p", type=float, default=-5.0)
    p.add_argument("--out", required=True)
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
        return args.func(args)
    except (CorpusError, EmbeddingError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NetworkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CheckpointError, CompatibilityError) as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT


if __name__ == "__main__":
    sys.exit(main())
