"""Show how multi-task training reduces identity-triggered false positives.

We build a corpus where identity keywords co-occur with toxicity 90% of the
time, train a single-task model and a multi-task model, and probe both with
templated sentences. The single-task model scores harmless sentences like
"I am <Identity>" as toxic; the multi-task variant, which also has to predict
which identities are mentioned, much less so.
Run with: python3 demos/template_probe.py (takes a minute or two)
"""

from mtltox import (
    DEFAULT_IDENTITY_KEYWORDS,
    Hyper,
    TrainConfig,
    biased_corpus,
    builtin_templates,
    random_table,
    run_probe,
    train_fold,
)

train, _, vocab = biased_corpus(identity_cooccurrence=0.9, seed=0)
table = random_table(vocab, 4, 4, seed=0, scale=5.0)
split = int(0.9 * len(train))


def fit(n_aux, alpha):
    hyper = Hyper(
        embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=n_aux,
        dropout_rate=0.0, attention=True, max_len=16,
    )
    cfg = TrainConfig(
        epochs=3, batch_size=64, learning_rate=0.05, seed=0,
        alpha=alpha, patience=3,
    )
    params, _ = train_fold(train[:split], train[split:], table, hyper, cfg)
    return params


# Both models train on the same weighted corpus (biased_corpus's c = 3.0
# weights), so the comparison isolates the auxiliary heads.
single = fit(n_aux=0, alpha=1.0)
mtl = fit(n_aux=6, alpha=0.6)

identities = list(DEFAULT_IDENTITY_KEYWORDS)
templates = builtin_templates()
print(f"{'identity':<10} {'single nontoxic':>16} {'mtl nontoxic':>14}")
for model, probe in (
    ("single", run_probe(single, table, vocab, identities, templates)),
    ("mtl", run_probe(mtl, table, vocab, identities, templates)),
):
    if model == "single":
        single_probe = probe
    else:
        for name in identities:
            print(
                f"{name:<10} {single_probe[name].mean_nontoxic:>16.3f} "
                f"{probe[name].mean_nontoxic:>14.3f}"
            )

# A low score on non-toxic templates means fewer false positives on harmless
# identity mentions; toxic templates should still score high for both models.
