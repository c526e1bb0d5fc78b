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
