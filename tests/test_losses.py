import numpy as np
import pytest

from mtltox.losses import loss_grad_heads, multitask_loss


def bce(y_hat, y):
    """One example's loss with alpha 1, beta 1 and no auxiliary heads: its toxicity BCE."""
    return multitask_loss([y_hat], np.zeros((1, 0)), [y], np.zeros((1, 0)), [1.0], 1.0).total


class TestBce:
    def test_symmetric_point(self):
        assert bce(0.5, 0.5) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction(self):
        assert bce(1.0, 1.0) == pytest.approx(0.0, abs=1e-6)  # clamp leaves eps

    def test_arbitrary_precision_value(self):
        # -[0.2 ln 0.9 + 0.8 ln 0.1], mpmath at 40 digits
        assert bce(0.9, 0.2) == pytest.approx(1.8631401775268018, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert bce(rng.random(), rng.random()) >= 0.0


def batch(yh, ah, y, ay, b):
    return (
        np.asarray(yh, dtype=float),
        np.asarray(ah, dtype=float),
        np.asarray(y, dtype=float),
        np.asarray(ay, dtype=float),
        np.asarray(b, dtype=float),
    )


class TestMultitaskLoss:
    def test_alpha_one_drops_auxiliary(self):
        alpha = 1.0
        out = multitask_loss(*batch([0.7], [[0.2, 0.9]], [1.0], [[0.5, 0.5]], [2.0]), alpha)
        assert out.auxiliary_term == 0.0
        assert out.total == pytest.approx(2.0 * -np.log(0.7), abs=1e-12)

    def test_single_example_hand_value(self):
        # beta=3, alpha=0.6, yhat=0.7 y=1, one aux head yhat=0.4 y=0.25;
        # frozen from an mpmath evaluation at 40 digits.
        alpha = 0.6
        out = multitask_loss(*batch([0.7], [[0.4]], [1.0], [[0.25]], [3.0]), alpha)
        assert out.total == pytest.approx(1.3766451800413564, abs=1e-12)

    def test_beta_linearity(self):
        alpha = 0.3
        args = ([0.7, 0.2], [[0.4], [0.6]], [1.0, 0.0], [[0.25], [0.9]], [1.0, 2.0])
        doubled = ([0.7, 0.2], [[0.4], [0.6]], [1.0, 0.0], [[0.25], [0.9]], [2.0, 4.0])
        assert multitask_loss(*batch(*doubled), alpha).total == pytest.approx(
            2.0 * multitask_loss(*batch(*args), alpha).total, abs=1e-12
        )

    def test_breakdown_consistency(self):
        alpha = 0.6
        out = multitask_loss(
            *batch([0.7, 0.3], [[0.2, 0.9], [0.5, 0.5]], [1.0, 0.0], [[0.5, 0.1], [0.0, 1.0]], [3.0, 1.0]),
            alpha,
        )
        # Both toxicity BCEs are -ln 0.7: beta 3 and 1, alpha 0.6, mean over two examples.
        assert out.toxicity_term == pytest.approx(alpha * (3.0 + 1.0) * -np.log(0.7) / 2.0, abs=1e-12)
        assert out.total == pytest.approx(out.toxicity_term + out.auxiliary_term, abs=1e-9)

    def test_alpha_affine_interpolation(self):
        rng = np.random.default_rng(1)
        args = batch(
            rng.random(5), rng.random((5, 3)), rng.random(5), rng.random((5, 3)), 1 + rng.random(5)
        )
        a_sum = multitask_loss(*args, 1.0).total
        b_sum = multitask_loss(*args, 0.0).total
        for alpha in (0.1, 0.35, 0.6, 0.9):
            got = multitask_loss(*args, alpha).total
            assert got == pytest.approx(alpha * a_sum + (1 - alpha) * b_sum, rel=1e-12)

    def test_mean_reduction_divides(self):
        # The batch loss is the mean of the four single-example losses.
        args = batch([0.7, 0.2, 0.4, 0.9], np.zeros((4, 0)), [1, 0, 1, 1], np.zeros((4, 0)), [1, 1, 1, 1])
        singles = [multitask_loss(*(a[n : n + 1] for a in args), 0.5).total for n in range(4)]
        assert multitask_loss(*args, 0.5).total == pytest.approx(sum(singles) / 4.0, abs=1e-12)

    def test_head_count_mismatch(self):
        alpha = 0.5
        with pytest.raises(ValueError, match="mismatch"):
            multitask_loss(*batch([0.5], [[0.5, 0.5]], [1.0], [[0.5, 0.5, 0.5]], [1.0]), alpha)

    def test_zero_at_exact_targets(self):
        alpha = 0.6
        out = multitask_loss(*batch([1.0], [[0.0]], [1.0], [[0.0]], [1.0]), alpha)
        assert out.total == pytest.approx(0.0, abs=1e-6)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(9)
        alpha = 0.4
        for _ in range(50):
            out = multitask_loss(
                *batch(rng.random(3), rng.random((3, 2)), rng.random(3), rng.random((3, 2)), 1 + rng.random(3)),
                alpha,
            )
            assert out.total >= 0.0


class TestLossGradHeads:
    def test_zero_at_match(self):
        alpha = 0.6
        d_y, d_aux = loss_grad_heads(*batch([0.3], [[0.7]], [0.3], [[0.7]], [1.0]), alpha)
        assert d_y == pytest.approx([0.0], abs=1e-12)
        assert d_aux[0] == pytest.approx([0.0], abs=1e-12)

    def test_beta_scales_grads_exactly(self):
        alpha = 0.6
        d1, a1 = loss_grad_heads(*batch([0.7], [[0.4]], [0.0], [[0.9]], [1.0]), alpha)
        d3, a3 = loss_grad_heads(*batch([0.7], [[0.4]], [0.0], [[0.9]], [3.0]), alpha)
        assert d3[0] == pytest.approx(3.0 * d1[0], rel=1e-15)
        assert a3[0, 0] == pytest.approx(3.0 * a1[0, 0], rel=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        alpha = 0.35
        yh = 0.1 + 0.8 * rng.random(4)
        ah = 0.1 + 0.8 * rng.random((4, 2))
        y = rng.random(4)
        ay = rng.random((4, 2))
        b = 1.0 + 2.0 * rng.random(4)
        d_y, d_aux = loss_grad_heads(yh, ah, y, ay, b, alpha)
        eps = 1e-6
        for n in range(4):
            up, down = yh.copy(), yh.copy()
            up[n] += eps
            down[n] -= eps
            fd = (
                multitask_loss(up, ah, y, ay, b, alpha).total
                - multitask_loss(down, ah, y, ay, b, alpha).total
            ) / (2 * eps)
            assert d_y[n] == pytest.approx(fd, rel=1e-6)
            for k in range(2):
                up, down = ah.copy(), ah.copy()
                up[n, k] += eps
                down[n, k] -= eps
                fd = (
                    multitask_loss(yh, up, y, ay, b, alpha).total
                    - multitask_loss(yh, down, y, ay, b, alpha).total
                ) / (2 * eps)
                assert d_aux[n, k] == pytest.approx(fd, rel=1e-6)

    def test_sigmoid_composition_collapses(self):
        # d(loss)/d(logit) through a sigmoid must equal beta*alpha*(p - y).
        alpha = 0.6
        p, y, beta = 0.73, 0.2, 3.0
        d_y, _ = loss_grad_heads(*batch([p], np.zeros((1, 0)), [y], np.zeros((1, 0)), [beta]), alpha)
        pre_activation_grad = d_y[0] * p * (1 - p)  # sigmoid derivative
        assert pre_activation_grad == pytest.approx(beta * 0.6 * (p - y), rel=1e-12)
