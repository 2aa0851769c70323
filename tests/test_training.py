import dataclasses
import tracemalloc

import numpy as np
import pytest

from mtltox.corpus import Comment, Vocabulary, make_folds
from mtltox.embeddings import checksum, random_table
from mtltox.metrics import prf1, ScoredExample
from mtltox.network import Hyper, ModelParams, NetworkError, Tensors, init_params, predict
from mtltox.synthetic import biased_corpus, separable_corpus
from mtltox.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    AdamState,
    TrainConfig,
    _targets,
    adam_step,
    clip_global_norm,
    evaluate_model,
    propagate_identities,
    run_experiment,
    train_fold,
)


def scalar_params(value=0.0):
    hyper = Hyper(embed_dim=1, hidden=1, dense1=1, dense2=1, n_aux=0)
    return ModelParams(hyper=hyper, tensors=Tensors({"w": (1,)}, np.array([value])))


class TestAdamStep:
    cfg = TrainConfig(learning_rate=0.1)

    def test_zero_grads_leave_params_unchanged(self):
        params = scalar_params(1.5)
        state = AdamState()
        params, state = adam_step(params, params.tensors.like(np.zeros(1)), state, self.cfg)
        assert params.tensors["w"][0] == 1.5
        assert state.t == 1

    def test_first_step_hand_value(self):
        # g=1 at t=1: m_hat = v_hat = 1, update = -lr / (1 + eps) ~ -0.1
        params = scalar_params(0.0)
        state = AdamState()
        params, _ = adam_step(params, params.tensors.like(np.ones(1)), state, self.cfg)
        assert params.tensors["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_clipping_reduces_norm(self):
        grads = Tensors({"a": (25,)}, np.full(25, 10.0))  # norm 50
        clipped = clip_global_norm(grads, 5.0)
        norm = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
        assert norm == pytest.approx(5.0, rel=1e-12)

    def test_clipping_noop_below_threshold(self):
        grads = Tensors({"a": (2,)}, np.array([3.0, 4.0]))  # norm 5
        assert clip_global_norm(grads, 5.0) is grads

    @pytest.mark.parametrize("norm", [5.0, 50.0], ids=["below-threshold", "above-threshold"])
    def test_gradients_that_are_not_a_tensors_are_refused(self, norm):
        grads = {"w": np.array([norm])}
        with pytest.raises(TypeError, match="gradients are a Tensors, not a dict"):
            clip_global_norm(grads, 5.0)
        with pytest.raises(TypeError, match="gradients are a Tensors, not a dict"):
            adam_step(scalar_params(), grads, AdamState(), self.cfg)

    def test_gradients_named_otherwise_are_refused(self):
        grads = Tensors({"v": (1,)}, np.ones(1))
        with pytest.raises(ValueError, match=r"gradients for \['v'\], not for the parameters \['w'\]"):
            adam_step(scalar_params(), grads, AdamState(), self.cfg)

    def test_nonfinite_grad_rejected(self):
        params = scalar_params()
        state = AdamState()
        with pytest.raises(NetworkError, match="non-finite"):
            adam_step(params, params.tensors.like(np.array([np.nan])), state, self.cfg)

    def test_second_moments_nonnegative(self):
        params = scalar_params()
        state = AdamState()
        rng = np.random.default_rng(0)
        for _ in range(20):
            params, state = adam_step(params, params.tensors.like(rng.normal(size=1)), state, self.cfg)
            assert state.v[0] >= 0.0
            assert np.isfinite(params.tensors["w"][0])


def per_tensor_adam_step(tensors, grads, m, v, t, cfg):
    """The Adam step as it ran before the vectors, tensor by tensor, on name-keyed dicts: the oracle."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NetworkError(f"non-finite gradient for {name}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not (total <= cfg.grad_clip_norm or total == 0.0):
        factor = cfg.grad_clip_norm / total
        grads = {k: g * factor for k, g in grads.items()}
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, g in grads.items():
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        tensors[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return total > cfg.grad_clip_norm


@pytest.mark.parametrize(
    "hyper, steps",
    [
        (Hyper(embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=6), 300),  # desk-bias's model
        (Hyper(embed_dim=600, hidden=256, dense1=512, dense2=512, n_aux=9), 5),  # the paper's
    ],
    ids=["desk", "paper"],
)
def test_adam_step_equals_the_per_tensor_step_bitwise(hyper, steps):
    cfg = TrainConfig(learning_rate=0.01, grad_clip_norm=5.0)
    params = init_params(hyper, seed=1)
    state = AdamState()
    tensors = {name: a.copy() for name, a in params.tensors.items()}
    m, v = ({name: np.zeros_like(a) for name, a in tensors.items()} for _ in range(2))
    rng = np.random.default_rng(2)
    fired = 0
    for step in range(steps):
        # Norms from about 0.3 to about 30 times the clip threshold, so clipping fires on some steps.
        scale = 5.0 * 10.0 ** rng.uniform(-0.5, 1.5) / np.sqrt(params.tensors.vector.size)
        grads = params.tensors.like(rng.normal(scale=scale, size=params.tensors.vector.size))
        fired += per_tensor_adam_step(tensors, {k: g.copy() for k, g in grads.items()}, m, v, step + 1, cfg)
        adam_step(params, grads, state, cfg)
    assert 0 < fired < steps
    for got, want in ((params.tensors.vector, tensors), (state.m, m), (state.v, v)):
        assert got.tobytes() == np.concatenate([want[name].ravel() for name in params.tensors]).tobytes()


def toy_hyper(vocab_dim=None, n_aux=0, attention=True):
    return Hyper(
        embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=n_aux,
        dropout_rate=0.1, attention=attention, max_len=12,
    )


def quick_cfg(**kw):
    defaults = dict(epochs=3, batch_size=32, learning_rate=0.01, seed=0, k_folds=2, patience=10)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainFold:
    def test_epochs_zero_returns_init(self):
        comments, vocab = separable_corpus(n=20, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        hyper = toy_hyper()
        params, record = train_fold(comments[:15], comments[15:], table, hyper, quick_cfg(epochs=0))
        reference = init_params(hyper, 0)
        assert record.epochs == []
        assert all(np.array_equal(params.tensors[k], reference.tensors[k]) for k in params.tensors)

    def test_early_stopping_returns_the_best_epoch_bitwise(self, monkeypatch):
        """With patience 3, the scripted validation losses improve at epochs 0
        and 1 and then not for three epochs (a tie is no improvement), so
        training stops after epoch 4 of 10 and returns epoch 1's parameters."""
        import mtltox.training as training

        script = iter([3.0, 2.0, 2.5, 2.0, 2.1, 1.0, 0.5, 0.4, 0.3, 0.2])
        seen = []

        def scripted_loss(params, *args):
            seen.append(params.tensors.vector.copy())
            return next(script)

        monkeypatch.setattr(training, "dataset_loss", scripted_loss)
        comments, vocab = separable_corpus(n=20, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        params, record = train_fold(comments[:15], comments[15:], table, toy_hyper(), quick_cfg(epochs=10, patience=3))
        assert [e["val_loss"] for e in record.epochs] == [3.0, 2.0, 2.5, 2.0, 2.1]
        assert len(seen) == 5
        assert params.tensors.vector.tobytes() == seen[1].tobytes()
        assert all(seen[1].tobytes() != other.tobytes() for other in seen[2:])

    @pytest.mark.parametrize(
        "epochs, patience, script, best, copies",
        [
            (1, 1, [3.0], 0, 0),  # paper-train's one epoch: nothing is copied
            (3, 10, [3.0, 2.0, 1.0], 2, 1),  # the last epoch improves: the trained parameters are the result
            (4, 10, [3.0, 3.5, 2.0, 2.5], 2, 1),  # epochs 0 and 2 improve: epoch 2 refills epoch 0's buffer
            (10, 2, [2.0, 1.0, 1.5, 1.5], 1, 1),  # a patience stop after epoch 3 returns epoch 1's
        ],
        ids=["one-epoch", "last-improves", "buffer-reused", "patience-stop"],
    )
    def test_best_epoch_paths_return_the_validated_bits(self, monkeypatch, epochs, patience, script, best, copies):
        import mtltox.training as training

        scripted, seen, made, copy = iter(script), [], [], ModelParams.copy

        def scripted_loss(params, *args):
            seen.append((params, params.tensors.vector.copy()))
            return next(scripted)

        def counted_copy(params):
            made.append(copy(params))
            return made[-1]

        monkeypatch.setattr(training, "dataset_loss", scripted_loss)
        monkeypatch.setattr(ModelParams, "copy", counted_copy)
        comments, vocab = separable_corpus(n=20, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        cfg = quick_cfg(epochs=epochs, patience=patience, batch_size=8)
        params, record = train_fold(comments[:15], comments[15:], table, toy_hyper(), cfg)
        assert [e["val_loss"] for e in record.epochs] == script
        assert params.tensors.vector.tobytes() == seen[best][1].tobytes()
        assert all(seen[best][1].tobytes() != vector.tobytes() for _, vector in seen[best + 1 :])
        assert len(made) == copies
        if best == len(script) - 1:
            assert params is seen[-1][0]
        else:
            assert params is made[0]

    def test_a_paper_size_run_peaks_under_five_and_a_half_parameter_vectors(self):
        # 3 epochs of batch 4 over 6 training and 2 validation comments of
        # three tokens, every epoch improving. The run holds the parameters,
        # Adam's two moments, one gradient at a time and the best epoch's
        # copy: 160.0 MB, 5.18 vectors of 30.9 MB, with the trace's few MB.
        # Holding the last step's gradient until the next backward, and
        # copying the best parameters afresh at each improving epoch, read
        # 187.6 MB, 6.07 vectors (2 cores, numpy 2.4.6).
        vocab = Vocabulary.build([[f"w{i}" for i in range(30)]])
        table = random_table(vocab, 300, 300, seed=0)
        rng = np.random.default_rng(0)
        comments = [
            Comment(
                id=str(i), token_ids=rng.integers(2, len(vocab), size=3), y=float(i % 2),
                identity_labels=np.zeros(9), subtype_labels=np.zeros(5),
            )
            for i in range(8)
        ]
        hyper = Hyper(embed_dim=600, hidden=256, dense1=512, dense2=512, n_aux=9)
        tracemalloc.start()
        try:
            params, record = train_fold(comments[:6], comments[6:], table, hyper, TrainConfig(epochs=3, batch_size=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(later["val_loss"] < earlier["val_loss"] for earlier, later in zip(record.epochs, record.epochs[1:]))
        assert peak < 5.5 * params.tensors.vector.nbytes, peak / params.tensors.vector.nbytes

    def test_empty_split_rejected(self):
        comments, vocab = separable_corpus(n=10, seed=0)
        table = random_table(vocab, 4, 4, seed=0)
        with pytest.raises(ValueError):
            train_fold([], comments, table, toy_hyper(), quick_cfg())

    def test_same_seed_identical_losses(self):
        comments, vocab = separable_corpus(n=40, seed=1)
        table = random_table(vocab, 4, 4, seed=0)
        _, r1 = train_fold(comments[:30], comments[30:], table, toy_hyper(), quick_cfg(epochs=2))
        _, r2 = train_fold(comments[:30], comments[30:], table, toy_hyper(), quick_cfg(epochs=2))
        assert r1.epochs == r2.epochs

    def test_embeddings_stay_frozen(self):
        comments, vocab = separable_corpus(n=30, seed=2)
        table = random_table(vocab, 4, 4, seed=0)
        before = checksum(table)
        train_fold(comments[:20], comments[20:], table, toy_hyper(), quick_cfg(epochs=2))
        assert checksum(table) == before

    def test_separable_corpus_converges(self):
        # Toxic iff the marker token appears: F1 >= 0.95 within 30 epochs.
        comments, vocab = separable_corpus(n=200, seed=3)
        table = random_table(vocab, 4, 4, seed=0, scale=5.0)
        train, val = comments[:160], comments[160:]
        cfg = quick_cfg(epochs=30, learning_rate=0.05, patience=30)
        hyper = Hyper(
            embed_dim=8, hidden=4, dense1=8, dense2=8, n_aux=0,
            dropout_rate=0.0, attention=True, max_len=12,
        )
        params, _ = train_fold(train, val, table, hyper, cfg)
        scores, _ = predict(params, table, val)
        out = prf1([ScoredExample(float(s), c.y_bin) for s, c in zip(scores, val)])
        assert out.f1 >= 0.95

    def test_subtype_heads_train(self):
        comments, vocab = separable_corpus(n=30, seed=4)
        rng = np.random.default_rng(0)
        for comment in comments:
            comment.subtype_labels = rng.random(5)
        table = random_table(vocab, 4, 4, seed=0)
        cfg = quick_cfg(epochs=2, aux_source="subtypes")
        _, record = train_fold(comments[:20], comments[20:], table, toy_hyper(n_aux=5), cfg)
        assert len(record.epochs) == 2
        assert all(np.isfinite(e["train_loss"]) and np.isfinite(e["val_loss"]) for e in record.epochs)

    def test_subtype_head_count_mismatch_names_subtypes(self):
        comments, _ = separable_corpus(n=4, seed=0)
        with pytest.raises(ValueError, match="subtypes") as info:
            _targets(comments, toy_hyper(n_aux=9), quick_cfg(aux_source="subtypes"))
        message = f"comment {comments[0].id!r} has 5 subtypes labels but the model has 9 auxiliary heads"
        assert message in str(info.value)


def run_grid(comments, table, grid, subgroups=(), **cfg):
    """run_experiment over an alpha grid; (fold records, the records each fold tried)."""
    tried = []
    records = run_experiment(
        comments, table, toy_hyper(), quick_cfg(epochs=1, **cfg), list(subgroups), grid,
        on_fold=lambda params, record, fold_tried: tried.append(fold_tried),
    )
    return records, tried


class TestGridSearch:
    def test_single_point_grid(self):
        comments, vocab = separable_corpus(n=30, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        records, tried = run_grid(comments, table, [0.4])
        assert [r.alpha for r in records] == [0.4, 0.4]
        assert [len(fold) for fold in tried] == [1, 1]

    def test_one_entry_per_grid_point(self):
        comments, vocab = separable_corpus(n=30, seed=5)
        table = random_table(vocab, 4, 4, seed=0)
        records, tried = run_grid(comments, table, [0.2, 0.8])
        assert [r.alpha for r in tried[0]] == [0.2, 0.8]
        assert all(r.fold == 0 for r in tried[0])
        assert records[0] in tried[0]
        assert tried[1] == [records[1]]

    def test_undefined_metric_ties_prefer_larger_alpha(self):
        # With no subgroups the bias metric is always undefined, so every
        # grid point ties and the larger alpha must win, on every fold.
        comments, vocab = separable_corpus(n=30, seed=6)
        table = random_table(vocab, 4, 4, seed=0)
        records, tried = run_grid(comments, table, [0.2, 1.0, 0.6])
        assert [r.alpha for r in records] == [1.0, 1.0]
        assert records[0] is tried[0][1]

    def test_best_defined_metric_wins_over_a_larger_alpha(self, monkeypatch):
        import mtltox.training as training

        comments, vocab = separable_corpus(n=30, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        gmb = iter([0.6, 0.9, None, 0.5])  # in training order: the grid on fold 0, then fold 1
        real_evaluate_model = training.evaluate_model
        monkeypatch.setattr(
            training, "evaluate_model",
            lambda *args: dataclasses.replace(real_evaluate_model(*args), generalized_mean_bias_auc=next(gmb)),
        )
        records, tried = run_grid(comments, table, [0.2, 0.5, 0.8])
        assert [r.metrics["generalized_mean_bias_auc"] for r in tried[0]] == [0.6, 0.9, None]
        assert [r.alpha for r in records] == [0.5, 0.5]

    def test_empty_grid_rejected(self):
        comments, vocab = separable_corpus(n=30, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            run_grid(comments, table, [])

    def test_only_the_best_model_is_kept_beside_the_one_training(self, monkeypatch):
        import gc
        import weakref

        import mtltox.training as training

        comments, vocab = separable_corpus(n=30, seed=6)
        table = random_table(vocab, 4, 4, seed=0)
        trained, alive = [], []

        def watched_train_fold(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in trained))
            params, record = real_train_fold(*args)
            trained.append(weakref.ref(params))
            return params, record

        real_train_fold = training.train_fold
        monkeypatch.setattr(training, "train_fold", watched_train_fold)
        run_grid(comments, table, [0.2, 0.6, 1.0, 0.4])
        assert len(alive) == 5  # four grid points on fold 0, then fold 1
        assert max(alive) == 1


class TestPropagateIdentities:
    def make_sets(self, seed=0):
        train, _, vocab = biased_corpus(n_train=60, n_eval=8, seed=seed)
        table = random_table(vocab, 4, 4, seed=0)
        return train, table, vocab

    def test_all_annotated_is_noop(self):
        comments, table, _ = self.make_sets()
        out = propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))
        assert out is comments
        assert not any(c.propagated for c in out)

    def test_empty_annotated_rejected(self):
        comments, table, _ = self.make_sets()
        for c in comments:
            c.identity_labels = None
        with pytest.raises(ValueError, match="no annotated"):
            propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))

    def test_scores_in_unit_interval_and_flagged(self):
        comments, table, _ = self.make_sets(seed=1)
        for c in comments[40:]:
            c.identity_labels = None
        out = propagate_identities(comments, table, toy_hyper(n_aux=6), quick_cfg(epochs=1))
        filled = [c for c in out if c.propagated]
        assert len(filled) == len(comments) - 40
        for c in filled:
            assert np.all((c.identity_labels >= 0.0) & (c.identity_labels <= 1.0))
            assert not c.needs_propagation

    def test_duplicate_of_annotated_comment_gets_its_identity(self):
        # An unannotated comment identical to annotated gay=1 examples should
        # be scored > 0.5 for that identity once the predictor converges.
        train, _, vocab = biased_corpus(n_train=400, n_eval=8, seed=2)
        table = random_table(vocab, 4, 4, seed=0, scale=5.0)
        target_idx = 0  # "gay"
        donors = [c for c in train if c.identity_labels[target_idx] == 1.0]
        clone = dataclasses.replace(donors[0], id="clone", identity_labels=None)
        hyper = Hyper(
            embed_dim=8, hidden=12, dense1=16, dense2=16, n_aux=6,
            dropout_rate=0.0, attention=True, max_len=16,
        )
        cfg = quick_cfg(epochs=30, learning_rate=0.05, patience=30, c=3.0)
        out = propagate_identities(train + [clone], table, hyper, cfg)
        assert out[-1].propagated
        assert out[-1].identity_labels[target_idx] > 0.5


class TestRunExperiment:
    def test_two_fold_plumbing(self):
        train, _, vocab = biased_corpus(n_train=60, n_eval=8, seed=3)
        table = random_table(vocab, 4, 4, seed=0)
        cfg = quick_cfg(epochs=1)
        folds = make_folds(len(train), cfg.k_folds, cfg.seed)
        reports = []

        def rescore(params, record, tried):
            assert tried == [record]
            val_set = [train[i] for i in folds[record.fold][1]]
            reports.append(evaluate_model(params, table, val_set, ["gay", "muslim"], cfg.power))

        records = run_experiment(train, table, toy_hyper(n_aux=6), cfg, ["gay", "muslim"], on_fold=rescore)
        assert [r.fold for r in records] == [0, 1]
        assert [r.metrics for r in records] == [report.to_dict() for report in reports]
        assert all(set(r.metrics["subgroups"]) == {"gay", "muslim"} for r in records)
        defined = [r.metrics["overall_auc"] for r in records if r.metrics["overall_auc"] is not None]
        expected = [report.overall_auc for report in reports if report.overall_auc is not None]
        assert len(defined) == len(expected)
        if defined:
            assert np.mean(defined) == pytest.approx(np.mean(expected))

    def test_unannotated_without_propagation_rejected(self):
        train, _, vocab = biased_corpus(n_train=30, n_eval=8, seed=4)
        table = random_table(vocab, 4, 4, seed=0)
        train[0].identity_labels = None
        with pytest.raises(ValueError, match="propagat"):
            run_experiment(train, table, toy_hyper(n_aux=6), quick_cfg(epochs=1), [])

    def test_single_task_reduction_runs_on_same_code_path(self):
        # alpha=1, c=1, K=0 is the plain BiLSTM-attention classifier.
        comments, vocab = separable_corpus(n=30, seed=7)
        table = random_table(vocab, 4, 4, seed=0)
        cfg = quick_cfg(epochs=1, alpha=1.0, c=1.0)
        records = run_experiment(comments, table, toy_hyper(n_aux=0), cfg, [])
        assert len(records) == 2


def test_batch_pass_sums_single_example_gradients():
    from mtltox.losses import loss_grad_heads
    from mtltox.network import backward, forward, spatial_dropout_mask
    from mtltox.training import _batch_pass

    comments, _, vocab = biased_corpus(n_train=12, n_eval=2, identity_cooccurrence=0.9, seed=4)
    assert len({c.true_length for c in comments}) > 1
    table = random_table(vocab, 3, 3, seed=1)
    hyper = Hyper(embed_dim=6, hidden=3, dense1=4, dense2=4, n_aux=6, dropout_rate=0.3, max_len=16)
    params = init_params(hyper, seed=2)
    cfg = TrainConfig(seed=0)
    got, _ = _batch_pass(params, table, comments, _targets(comments, hyper, cfg), cfg, np.random.default_rng(9))

    rng = np.random.default_rng(9)
    traces = [
        forward(params, table, [c], spatial_dropout_mask(hyper.embed_dim, hyper.dropout_rate, rng)[None, :])
        for c in comments
    ]
    heads = np.concatenate([tr.heads for tr in traces])
    d_y, d_aux = loss_grad_heads(
        heads[:, 0],
        heads[:, 1:],
        np.array([c.y for c in comments]),
        np.array([c.identity_labels for c in comments]),
        np.array([c.beta for c in comments]),
        cfg.alpha,
    )
    want = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
    for n, trace in enumerate(traces):
        for name, g in backward(params, trace, d_y[n : n + 1], d_aux[n : n + 1]).items():
            want[name] += g
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert scale > 0.0, name
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
