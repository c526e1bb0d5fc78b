"""Finite-difference verification of the analytic backward pass."""

from dataclasses import dataclass

import numpy as np

from .loss import LossConfig, total_loss
from .net import NetConfig, backward_batch, forward_batch, init_params

__all__ = ["GradCheckResult", "check_case", "run_gradcheck"]

STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


@dataclass
class GradCheckResult:
    cases: int
    max_rel_err: float
    failures: int


def _loss_of(params, x, labels, loss_cfg):
    h, _ = forward_batch(x, params, dropout_p=0.0, train_mode=False)
    loss, _ = total_loss(h, labels, loss_cfg)
    return loss


def check_case(net_cfg: NetConfig, loss_cfg: LossConfig, batch_size: int, seed: int):
    """(max relative error, failure count) for one random instance."""
    rng = np.random.default_rng(seed)
    params = init_params(net_cfg, seed)
    x = np.hstack([rng.normal(size=(batch_size, d)) for d in net_cfg.view_dims])
    # labels drawn so similar and dissimilar pairs both occur
    labels = np.zeros((batch_size, 3), dtype=np.int8)
    labels[np.arange(batch_size), rng.integers(3, size=batch_size)] = 1

    h, tape = forward_batch(x, params, dropout_p=0.0, train_mode=False)
    _, dH = total_loss(h, labels, loss_cfg)
    analytic = backward_batch(tape, params, dH)

    theta, fd = params.buf, np.empty(params.buf.size)
    for i, orig in enumerate(theta.tolist()):
        theta[i] = orig + STEP
        up = _loss_of(params, x, labels, loss_cfg)
        theta[i] = orig - STEP
        fd[i] = (up - _loss_of(params, x, labels, loss_cfg)) / (2 * STEP)
        theta[i] = orig
    # relative error where either side exceeds the floor, absolute error elsewhere
    diff = np.abs(analytic.buf - fd)
    scale = np.maximum(np.abs(analytic.buf), np.abs(fd))
    big = scale > ABS_FLOOR
    rel = diff[big] / scale[big]
    failures = np.count_nonzero(rel > REL_TOL) + np.count_nonzero(diff[~big] > ABS_FLOOR)
    return float(rel.max(initial=0.0)), int(failures)


def run_gradcheck(seed: int = 0, cases: int = 20) -> GradCheckResult:
    """Random small configurations; dims kept small so FD stays fast."""
    rng = np.random.default_rng(seed)
    max_rel, failures = 0.0, 0
    for i in range(cases):
        n_views = int(rng.integers(1, 3))
        net_cfg = NetConfig(
            view_dims=tuple(int(rng.integers(3, 9)) for _ in range(n_views)),
            proj_dim=int(rng.integers(2, 5)),
            code_bits=int(rng.integers(2, 7)),
        )
        b = int(rng.integers(2, 9))
        loss_cfg = LossConfig(lam=0.5, mu=0.5, w_d=1.5)
        rel, fails = check_case(net_cfg, loss_cfg, b, seed=seed * 1000 + i)
        max_rel = max(max_rel, rel)
        failures += fails
    return GradCheckResult(cases=cases, max_rel_err=max_rel, failures=failures)
