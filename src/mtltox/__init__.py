"""Multi-task BiLSTM toxicity classifier with unintended-bias evaluation.

Everything numerical is plain numpy: the bidirectional LSTM layers, the
attention pooling, the hand-derived backward pass, Adam, and the rank-based
bias metrics. No deep-learning framework is involved.
"""

from mtltox.corpus import (
    IDENTITY_COLUMNS,
    SUBTYPE_COLUMNS,
    Comment,
    FoldPlan,
    RawRecord,
    Vocabulary,
    binarize_and_weight,
    load_corpus,
    make_comment,
    make_folds,
    tokenize,
)
from mtltox.embeddings import EmbeddingTable, build_table, load_vectors, random_table
from mtltox.losses import LossBreakdown, LossConfig, bce, loss_grad_heads, multitask_loss
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
    ForwardTrace,
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
    grid_search_alpha,
    propagate_identities,
    run_experiment,
    train_fold,
)

__version__ = "0.1.0"
