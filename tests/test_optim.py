import math

import numpy as np
import pytest

from mvhash.net import ModelParams, NetConfig, init_params
from mvhash.optim import adamw_step, cosine_lr, init_optim
from mvhash.trainer import TrainConfig


def scalar_setup(theta=1.0, lr=1e-5, weight_decay=0.0):
    cfg = NetConfig((1,), 1, 1)
    params = init_params(cfg, 0)
    params.buf[:] = theta
    return params, init_optim(params), TrainConfig(lr=lr, weight_decay=weight_decay)


def test_zero_grad_zero_decay_is_fixed_point():
    params, state, train_cfg = scalar_setup()
    grads = ModelParams(params.cfg)
    before = params.buf.copy()
    p, s = params, state
    for _ in range(10):
        p, s = adamw_step(p, grads, s, train_cfg.lr, train_cfg)
    assert np.array_equal(p.buf, before)
    assert s.step == 10


def test_first_step_bias_corrected():
    params, state, train_cfg = scalar_setup(theta=1.0, lr=1e-5)
    grads = ModelParams(params.cfg, np.ones_like(params.buf))
    new_params, new_state = adamw_step(params, grads, state, train_cfg.lr, train_cfg)
    # m_hat = v_hat = 1 at step 1, so the update is lr / (1 + eps)
    expected = 1.0 - 1e-5 * (1.0 / (1.0 + 1e-8))
    assert new_params.hash_w[0, 0] == pytest.approx(expected, abs=1e-15)
    assert new_state.step == 1


def test_decoupled_decay_only():
    params, state, train_cfg = scalar_setup(theta=1.0, lr=1e-5, weight_decay=0.01)
    grads = ModelParams(params.cfg)
    new_params, _ = adamw_step(params, grads, state, train_cfg.lr, train_cfg)
    assert new_params.hash_w[0, 0] == pytest.approx(1.0 - 1e-7, abs=1e-18)


def test_first_step_magnitude_bounded():
    cfg = NetConfig((3, 4), 2, 3)
    params = init_params(cfg, 1)
    rng = np.random.default_rng(2)
    grads = ModelParams(cfg, rng.normal(size=params.buf.shape))
    lr = 1e-3
    before = params.buf.copy()
    new_params, _ = adamw_step(params, grads, init_optim(params), lr, TrainConfig(lr=lr))
    assert np.all(np.abs(new_params.buf - before) <= lr * (1.0 + 1e-6))


def test_deterministic():
    cfg = NetConfig((3,), 2, 2)
    pa, pb = init_params(cfg, 3), init_params(cfg, 3)
    rng = np.random.default_rng(4)
    grads = ModelParams(cfg, rng.normal(size=pa.buf.shape))
    train_cfg = TrainConfig(lr=1e-4)
    a, _ = adamw_step(pa, grads, init_optim(pa), train_cfg.lr, train_cfg)
    b, _ = adamw_step(pb, grads, init_optim(pb), train_cfg.lr, train_cfg)
    for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(x, y)


def test_cosine_schedule_endpoints():
    assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(1e-3, 50, 100) == pytest.approx(5e-4)


def textbook_adamw(theta, grads, lrs, b1, b2, eps, wd):
    """Scalar AdamW over a list of per-step gradient lists, from zero moments:
    theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)."""
    theta = list(theta)
    m, v = [0.0] * len(theta), [0.0] * len(theta)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        for i, gi in enumerate(g):
            m[i] = b1 * m[i] + (1.0 - b1) * gi
            v[i] = b2 * v[i] + (1.0 - b2) * gi * gi
            m_hat, v_hat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
            theta[i] -= lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta[i])
    return theta, m, v


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("schedule", ["constant", "cosine"])
@pytest.mark.parametrize("beta2", [0.999, 0.0])
def test_steps_match_textbook_reference(weight_decay, schedule, beta2):
    steps, lr = 6, 1e-2
    train_cfg = TrainConfig(lr=lr, beta2=beta2, weight_decay=weight_decay)
    params = init_params(NetConfig((3, 2), 2, 3), 5)
    rng = np.random.default_rng(6)
    # gradients of both signs and of different scales, so every moment moves
    grads = [rng.normal(size=params.buf.size) * rng.choice([1e-3, 1.0, 30.0])
             for _ in range(steps)]
    lrs = [cosine_lr(lr, s, steps) if schedule == "cosine" else lr for s in range(steps)]
    want_theta, want_m, want_v = textbook_adamw(
        params.buf.tolist(), [g.tolist() for g in grads], lrs,
        train_cfg.beta1, beta2, train_cfg.eps, weight_decay)
    state = init_optim(params)
    for g, step_lr in zip(grads, lrs):
        adamw_step(params, ModelParams(params.cfg, g), state, step_lr, train_cfg)
    assert state.step == steps
    np.testing.assert_allclose(params.buf, want_theta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(state.m, want_m, rtol=1e-12, atol=0)
    np.testing.assert_allclose(state.v, want_v, rtol=1e-12, atol=0)
