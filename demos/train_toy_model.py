"""Train the attention BiLSTM on a tiny separable corpus and save a checkpoint.

The corpus marks a comment toxic exactly when it contains a marker token, so
a correct implementation should reach near-perfect validation F1 in a few
epochs. Run with: python3 demos/train_toy_model.py
"""

import os
import tempfile

from mtltox import (
    Hyper,
    ScoredExample,
    TrainConfig,
    predict,
    prf1,
    random_table,
    separable_corpus,
    train_fold,
)
from mtltox.checkpoint import save_checkpoint

# 200 comments, toxic iff they contain the marker token "badword".
comments, vocab = separable_corpus(n=200, seed=3)
train, val = comments[:160], comments[160:]

# No pre-trained vectors here: a seeded random table stands in for them.
# The scale keeps input magnitudes close to real embedding vectors.
table = random_table(vocab, 4, 4, seed=0, scale=5.0)

hyper = Hyper(
    embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=0,
    dropout_rate=0.0, attention=True, max_len=12,
)
cfg = TrainConfig(epochs=15, batch_size=32, learning_rate=0.05, seed=0, patience=15)

params, record = train_fold(train, val, table, hyper, cfg)
for epoch in record.epochs:
    print(f"epoch {epoch['epoch']:2d}  train {epoch['train_loss']:.4f}  val {epoch['val_loss']:.4f}")

scores, _ = predict(params, table, val)
result = prf1([ScoredExample(float(s), c.y_bin) for s, c in zip(scores, val)])
print(f"validation precision {result.precision:.3f} recall {result.recall:.3f} f1 {result.f1:.3f}")

fd, path = tempfile.mkstemp(suffix=".json")
os.close(fd)
save_checkpoint(path, params, table, vocab.checksum(), {"demo": "train_toy_model"})
print(f"checkpoint written to {path}")
