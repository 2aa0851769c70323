"""Multi-task BiLSTM toxicity classifier with unintended-bias evaluation.

Everything numerical is plain numpy: the bidirectional LSTM layers, the
attention pooling, the hand-derived backward pass, Adam, and the rank-based
bias metrics. No deep-learning framework is involved.
"""

import os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: from hidden 128 the two directions of a layer run on two threads,
# and a multi-threaded BLAS under each makes them compete for the same cores.
# `mtltox evaluate` of a paper-size checkpoint over 160 comments on 2 cores:
# 2.31 s with OPENBLAS_NUM_THREADS unset against 1.71 s with it at 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from mtltox.corpus import (
    IDENTITY_COLUMNS,
    SUBTYPE_COLUMNS,
    Comment,
    RawRecord,
    Vocabulary,
    binarize_and_weight,
    load_corpus,
    make_comment,
    make_folds,
    tokenize,
)
from mtltox.embeddings import EmbeddingTable, build_table, load_vectors, random_table
from mtltox.losses import LossBreakdown, loss_grad_heads, multitask_loss
from mtltox.metrics import (
    BiasReport,
    ScoredExample,
    bias_report,
    bpsn_auc,
    generalized_mean_bias,
    ks_two_sample,
    prf1,
    roc_auc,
    subgroup_auc,
)
from mtltox.network import (
    Hyper,
    ModelParams,
    backward,
    forward,
    init_params,
    predict,
    spatial_dropout_mask,
)
from mtltox.templates import (
    DEFAULT_IDENTITY_KEYWORDS,
    ProbeResult,
    Template,
    builtin_templates,
    instantiate,
    run_probe,
)
from mtltox.synthetic import biased_corpus, separable_corpus
from mtltox.training import (
    AdamState,
    RunRecord,
    TrainConfig,
    adam_step,
    propagate_identities,
    run_experiment,
    train_fold,
)

__version__ = "0.1.0"
