"""Synthetic corpora for bias experiments and convergence checks.

``biased_corpus`` builds a template-based dataset in which identity keywords
co-occur with toxicity in most training examples, so a single-task classifier
learns the identity words as toxicity features; a held-out set with balanced
non-toxic identity mentions then exposes the false-positive bias.
"""

from __future__ import annotations

import numpy as np

from mtltox.corpus import Comment, Vocabulary, make_comment, tokenize
from mtltox.templates import DEFAULT_IDENTITY_KEYWORDS, builtin_templates, instantiate

NEUTRAL_SENTENCES = (
    "Thanks for the help I really appreciate it",
    "What a lovely day for a walk in the park",
    "The meeting is scheduled for tomorrow morning",
    "I agree with the points raised in this article",
    "Could you share the source for that claim",
    "This recipe turned out better than expected",
    "The game last night went into overtime",
)

TOXIC_SENTENCES = (
    "What the heck is wrong with you",
    "You are a complete idiot and everyone knows it",
    "Shut up nobody wants to hear your garbage",
    "You people make me sick get lost",
    "This is the dumbest thing I have ever read",
    "Go away and never come back you loser",
    "Only a moron would believe something this stupid",
)


def build_vocab(identities=DEFAULT_IDENTITY_KEYWORDS) -> Vocabulary:
    """Vocabulary covering the templates, fillers, and identity keywords."""
    texts = [t.text.replace("<Identity>", "x") for t in builtin_templates()]
    texts += list(NEUTRAL_SENTENCES) + list(TOXIC_SENTENCES) + list(identities)
    return Vocabulary.build(tokenize(t) for t in texts)


def biased_corpus(
    n_train: int = 3200,
    n_eval: int = 800,
    identity_cooccurrence: float = 0.8,
    identities=DEFAULT_IDENTITY_KEYWORDS,
    vocab: Vocabulary | None = None,
    max_len: int = 16,
    c: float = 3.0,
    seed: int = 0,
) -> tuple[list[Comment], list[Comment], Vocabulary]:
    """Returns (train set, eval set, vocabulary).

    Training: half the examples mention an identity, and of those a
    ``identity_cooccurrence`` fraction are toxic; the other half are
    background comments, split evenly between toxic and neutral. Evaluation:
    identity mentions are all non-toxic (balanced across identities) against
    an equal number of toxic and neutral background comments.
    """
    rng = np.random.default_rng(seed)
    if vocab is None:
        vocab = build_vocab(identities)
    templates = builtin_templates()
    nontoxic_templates = [t for t in templates if t.polarity == "nontoxic"]
    toxic_templates = [t for t in templates if t.polarity == "toxic"]
    k = len(identities)

    def mention(template, idx: int, toxic: bool, cid: str) -> Comment:
        """A comment whose one identity label marks ``identities[idx]``."""
        labels = np.zeros(k)
        labels[idx] = 1.0
        text = instantiate(template, identities[idx], allowed=identities)
        return make_comment(cid, text, float(toxic), labels, vocab, max_len, c)

    def identity_comment(toxic: bool, cid: str) -> Comment:
        pool = toxic_templates if toxic else nontoxic_templates
        template = pool[rng.integers(len(pool))]
        return mention(template, int(rng.integers(k)), toxic, cid)

    def background_comment(toxic: bool, cid: str) -> Comment:
        pool = TOXIC_SENTENCES if toxic else NEUTRAL_SENTENCES
        return make_comment(cid, pool[rng.integers(len(pool))], float(toxic), np.zeros(k), vocab, max_len, c)

    train: list[Comment] = []
    for n in range(n_train):
        if n % 2 == 0:
            toxic = rng.random() < identity_cooccurrence
            train.append(identity_comment(toxic, f"train-{n}"))
        else:
            train.append(background_comment(rng.random() < 0.5, f"train-{n}"))

    evaluation: list[Comment] = []
    for n in range(n_eval):
        if n % 2 == 0:
            # Balanced non-toxic identity mentions, cycling the identities.
            template = nontoxic_templates[rng.integers(len(nontoxic_templates))]
            evaluation.append(mention(template, (n // 2) % k, False, f"eval-{n}"))
        else:
            evaluation.append(background_comment(n % 4 == 1, f"eval-{n}"))
    return train, evaluation, vocab


def separable_corpus(
    n: int = 200,
    marker: str = "badword",
    vocab: Vocabulary | None = None,
    max_len: int = 12,
    seed: int = 0,
) -> tuple[list[Comment], Vocabulary]:
    """Linearly separable toy corpus: toxic iff the marker token appears."""
    rng = np.random.default_rng(seed)
    filler = [w for s in NEUTRAL_SENTENCES for w in tokenize(s)]
    if vocab is None:
        vocab = Vocabulary.build([filler + [marker]])
    comments = []
    for i in range(n):
        toxic = i % 2 == 0
        length = int(rng.integers(4, 9))
        words = [filler[rng.integers(len(filler))] for _ in range(length)]
        if toxic:
            words[rng.integers(len(words))] = marker
        comments.append(make_comment(f"toy-{i}", " ".join(words), float(toxic), np.zeros(0), vocab, max_len, 1.0))
    return comments, vocab
