"""Pairwise metric loss over a reduced batch block, plus quantization loss.

The batch of continuous codes is split into the first lam*b and last lam*b
rows; the inner-product matrix between the two slices drives a softplus
metric term whose dissimilar-pair weight w_d keeps repulsive gradient alive
even when the similarity indicator is zero. The quantization term pulls
each code component's magnitude toward 1 so that sign-thresholding at
inference loses little. As in net.py, products use np.dot, which dispatches
faster than `@` on small blocks.
"""

from dataclasses import dataclass

import numpy as np

from .data import check_fields
from .linalg import ShapeError, sigmoid

__all__ = [
    "LossConfig",
    "PairBlock",
    "pairwise_similarity",
    "metric_loss",
    "total_loss",
]


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.5  # fraction of the batch in each block, in (0, 0.5]
    mu: float = 0.5  # quantization weight
    w_d: float = 1.5  # softplus weight (dissimilar pairs still repel)

    def __post_init__(self):
        check_fields(self, lambda: (
            ("lam", 0.0 < self.lam <= 0.5, "in (0, 0.5]"),
            ("mu", self.mu >= 0.0, ">= 0"),
            ("w_d", self.w_d >= 0.0, ">= 0"),
        ))

    def block_size(self, batch_size: int) -> int:
        m = int(self.lam * batch_size)
        if m < 1:
            raise ValueError(
                f"lam * batch_size = {self.lam * batch_size:.3f} < 1; "
                "increase lam or the batch size"
            )
        return m


@dataclass
class PairBlock:
    prec_indices: np.ndarray  # first lam*b batch positions
    rest_indices: np.ndarray  # last lam*b batch positions
    phi: np.ndarray  # (m, m) code inner products
    sim: np.ndarray  # (m, m) pairwise similarity


def pairwise_similarity(labels_a, labels_b) -> np.ndarray:
    """Similarity matrix between two label sets: 1 iff any category is shared.

    Leading axes are batch axes: (..., m, C) and (..., n, C) give (..., m, n).
    """
    a = np.asarray(labels_a, dtype=np.float64)
    b = np.asarray(labels_b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"category counts differ: {a.shape[-1]} vs {b.shape[-1]}")
    return (a @ np.swapaxes(b, -1, -2) > 0).astype(np.float64)


def _metric(phi: np.ndarray, sim: np.ndarray, w_d: float):
    """Mean of w_d*softplus(phi) - s*phi and its gradient in phi.

    softplus(x) = logaddexp(0, x) and its derivative, sigmoid, is computed
    through tanh, so neither overflows for large |x|.
    """
    m2 = phi.size
    loss = (w_d * np.add.reduce(np.logaddexp(0.0, phi), axis=None) - np.vdot(sim, phi)) / m2
    d_phi = sigmoid(phi)
    d_phi *= w_d
    d_phi -= sim
    d_phi /= m2
    return float(loss), d_phi


def metric_loss(block: PairBlock, cfg: LossConfig):
    """Mean over the block of w_d*softplus(phi) - s*phi; returns (loss, dPhi)."""
    return _metric(block.phi, block.sim, cfg.w_d)


def _quantization(H: np.ndarray, m: int, scale: float):
    """(sum of || |h| - 1 ||_2 over the rows of H[:m] and H[b-m:], divided by b;
    scale times its gradient, zero on the rows between those blocks).

    The subgradient at h_k = 0 and at zero residual norm is taken as 0.
    """
    b = H.shape[0]
    g = np.abs(H)  # the residual |h| - 1, then the gradient
    g -= 1.0
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    if 2 * m < b:  # the rows between the blocks add no loss and get no gradient
        norms[m:b - m] = 0.0
        g[m:b - m] = 0.0
    total = np.add.reduce(norms)
    # |h| - 1 is exact near |h| = 1, so a nonzero norm is at least 2**-53: the
    # floor only turns a zero row's 0 / 0 into 0
    g /= np.maximum(norms, 2.0 ** -60)[:, None]
    g *= np.sign(H)
    g *= scale / b
    return float(total / b), g


def total_loss(H: np.ndarray, labels, cfg: LossConfig, metric_weight: float = 1.0,
               sim: np.ndarray = None):
    """Metric + mu * quantization; returns (loss, dH) over the whole batch.

    Both terms cover only the blocks H[:m] and H[b-m:], which are disjoint
    because m = int(lam*b) <= b/2; rows between them get zero gradient. The
    quantization term sums || |h| - 1 ||_2 over the 2m block rows and divides
    by b, not 2m. metric_weight is 1.0, or 0.0 for the ablation that removes
    the metric term entirely; any other value is a ValueError. sim, when
    given, is the (m, m) pairwise_similarity of labels[:m] and labels[b-m:],
    taken as it is.
    """
    if metric_weight not in (0.0, 1.0):
        raise ValueError(f"metric_weight must be 0.0 or 1.0, got {metric_weight!r}")
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ShapeError(f"H has shape {H.shape}, expected (batch, bits)")
    b = H.shape[0]
    if b < 2:
        raise ValueError("need a batch of at least 2 samples")
    m = cfg.block_size(b)
    lq, dH = _quantization(H, m, cfg.mu)
    loss = cfg.mu * lq
    if metric_weight != 0.0:
        prec, rest = H[:m], H[b - m:]
        if sim is None:
            labels = np.asarray(labels, dtype=np.float64)
            if labels.ndim != 2 or len(labels) != b:
                raise ShapeError(f"labels have shape {labels.shape}, expected ({b}, categories)")
            sim = pairwise_similarity(labels[:m], labels[b - m:])
        elif sim.shape != (m, m):
            raise ShapeError(f"sim shape {sim.shape} != ({m}, {m})")
        lm, d_phi = _metric(np.dot(prec, rest.T), sim, cfg.w_d)
        loss += lm
        dH[:m] += np.dot(d_phi, rest)
        dH[b - m:] += np.dot(d_phi.T, prec)
    return loss, dH

