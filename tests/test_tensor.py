import numpy as np
import pytest

from opfault import tensor as T

from _utils import mse_loss, numerical_grad, rel_err


def test_l1_and_mse_hand_values():
    a = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    b = np.array([2.0, 2.0, 1.0], dtype=np.float32)
    assert T.l1_loss(a, b) == pytest.approx(1.0)  # (1 + 0 + 2) / 3
    assert mse_loss(a, b) == pytest.approx(5.0 / 3.0)


def test_losses_reject_shape_mismatch_and_nonfinite():
    with pytest.raises(ValueError):
        T.l1_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse_loss(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValueError):
        T.bce_loss(np.array([np.inf]), np.array([1.0]))


def test_bce_hand_value():
    pred = np.array([0.8, 0.2], dtype=np.float32)
    target = np.array([1.0, 0.0], dtype=np.float32)
    # both terms are -log(0.8)
    assert T.bce_loss(pred, target) == pytest.approx(-np.log(0.8), rel=1e-6)


def test_bce_clamps_saturated_predictions():
    loss = T.bce_loss(np.array([0.0]), np.array([1.0]))
    assert loss == pytest.approx(-np.log(T.BCE_EPS))
    assert np.isfinite(T.bce_loss(np.array([1.0]), np.array([0.0])))


def test_bce_rejects_soft_targets():
    with pytest.raises(ValueError):
        T.bce_loss(np.array([0.5]), np.array([0.3]))


def test_bce_grad_matches_finite_difference():
    rng = np.random.default_rng(7)
    pred = rng.uniform(0.05, 0.95, size=12).astype(np.float64)
    target = (rng.random(12) < 0.5).astype(np.float64)
    g = T.bce_grad(pred, target)
    gn = numerical_grad(lambda: T.bce_loss(pred, target), pred, h=1e-6)
    assert rel_err(g, gn) < 1e-6


def test_adam_first_step_is_signed_lr():
    # with zero moment history the first update is lr * g / (|g| + eps)
    p = np.array([1.0, -2.0], dtype=np.float32)
    g = np.array([0.5, -0.25], dtype=np.float32)
    st = T.AdamState.for_param(p, lr=1e-3)
    p1 = T.adam_step(p, g, st)
    assert np.allclose(p - p1, 1e-3 * np.sign(g), atol=1e-7)
    assert st.t == 1


def test_adam_trajectory_matches_reference():
    # independent scalar reference, default hyperparameters
    rng = np.random.default_rng(3)
    grads = rng.normal(size=20).astype(np.float64)
    theta_ref, m, v = 0.7, 0.0, 0.0
    lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta_ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = np.array([0.7], dtype=np.float64)
    st = T.AdamState.for_param(p)
    for g in grads:
        p = T.adam_step(p, np.array([g]), st)
    assert p[0] == pytest.approx(theta_ref, abs=1e-12)


def test_adam_optimizer_descends_quadratic():
    w = np.array([[2.0]], dtype=np.float32)
    b = np.array([1.0], dtype=np.float32)
    opt = T.AdamOptimizer([(w, b)], lr=1e-2)
    for _ in range(2000):
        w, b = opt.params[0]
        opt.step([(2.0 * w, 2.0 * b)])  # d/dx of x^2
    w, b = opt.params[0]
    assert abs(w[0, 0]) < 1e-2 and abs(b[0]) < 1e-2


def test_adam_preserves_dtype():
    p = np.zeros(4, dtype=np.float32)
    st = T.AdamState.for_param(p)
    out = T.adam_step(p, np.ones(4, dtype=np.float32), st)
    assert out.dtype == np.float32
