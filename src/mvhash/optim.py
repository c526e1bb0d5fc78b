"""AdamW with decoupled weight decay, in place on flat parameter buffers."""

import math
from dataclasses import dataclass

import numpy as np

from .net import ModelParams

__all__ = ["OptimState", "init_optim", "adamw_step", "cosine_lr"]


@dataclass
class OptimState:
    step: int
    m: np.ndarray  # first-moment estimates, flat in parameter-buffer order
    v: np.ndarray  # second-moment estimates, flat in parameter-buffer order


def init_optim(params: ModelParams) -> OptimState:
    """Step 0 and zero moments for `params`."""
    return OptimState(step=0, m=np.zeros_like(params.buf), v=np.zeros_like(params.buf))


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps, which must be positive."""
    t = min(step, total_steps) / total_steps
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * t))


def adamw_step(params: ModelParams, grads: ModelParams, state: OptimState, lr: float, cfg):
    """One decoupled-weight-decay Adam update, in place; returns (params, state).

    lr is this step's rate (the run's lr, or its schedule's value); cfg, the
    run's TrainConfig, gives beta1, beta2, eps and weight_decay. The update is
    theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta), taken in the
    scalar bias-correction form of Kingma & Ba (2015, section 2):
    lr * c2 / (1 - beta1^t) * m / (sqrt(v) + eps * c2) with c2 = sqrt(1 - beta2^t),
    which is equal in exact arithmetic and makes no pass dividing the
    moments. The decay lr * wd * theta is taken from theta before the step.
    """
    t = state.step + 1
    b1, b2 = cfg.beta1, cfg.beta2
    c2 = math.sqrt(1.0 - b2 ** t)
    theta, g, m, v = params.buf, grads.buf, state.m, state.v
    tmp = np.empty_like(theta)

    m *= b1  # m = b1 * m + (1 - b1) * g
    m += np.multiply(g, 1.0 - b1, out=tmp)
    v *= b2  # v = b2 * v + (1 - b2) * g * g
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp

    np.sqrt(v, out=tmp)  # m / (sqrt(v) + eps * c2)
    tmp += cfg.eps * c2
    np.divide(m, tmp, out=tmp)
    tmp *= lr * c2 / (1.0 - b1 ** t)
    if cfg.weight_decay:
        theta *= 1.0 - lr * cfg.weight_decay
    theta -= tmp
    state.step = t
    return params, state
