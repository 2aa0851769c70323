"""Fill in missing identity annotations with a trained identity predictor.

Only a subset of a real corpus carries identity labels. We strip the labels
from a third of a synthetic corpus, run the propagation step (a mean-pooling
variant of the network trained only on the auxiliary heads), and check the
predicted labels against the ones we hid.
Run with: python3 demos/identity_propagation.py (takes a few seconds)
"""

import dataclasses

import numpy as np

from mtltox import (
    DEFAULT_IDENTITY_KEYWORDS,
    Hyper,
    TrainConfig,
    biased_corpus,
    propagate_identities,
    random_table,
)

train, _, vocab = biased_corpus(n_train=600, n_eval=8, seed=1)
table = random_table(vocab, 4, 4, seed=0, scale=5.0)

# Hide the annotations on every third comment, remembering the truth.
hidden_truth = {}
corpus = []
for i, comment in enumerate(train):
    if i % 3 == 0:
        hidden_truth[comment.id] = comment.identity_labels.copy()
        comment = dataclasses.replace(comment, identity_labels=None)
    corpus.append(comment)

hyper = Hyper(
    embed_dim=8, hidden=12, dense1=16, dense2=16, n_aux=6,
    dropout_rate=0.0, attention=True, max_len=16,
)
cfg = TrainConfig(epochs=20, batch_size=32, learning_rate=0.05, seed=0, patience=20)
filled = propagate_identities(corpus, table, hyper, cfg)

# Score the propagation as a per-identity binary prediction at 0.5.
correct = total = 0
for comment in filled:
    if comment.id in hidden_truth:
        truth = hidden_truth[comment.id] >= 0.5
        guess = comment.identity_labels >= 0.5
        correct += int(np.array_equal(truth, guess))
        total += 1
print(f"propagated {total} comments, all-6-identities exact match: {correct / total:.3f}")

names = list(DEFAULT_IDENTITY_KEYWORDS)
example = next(c for c in filled if c.propagated)
pairs = ", ".join(f"{n}={v:.2f}" for n, v in zip(names, example.identity_labels))
print(f"example propagated scores for comment {example.id}: {pairs}")
