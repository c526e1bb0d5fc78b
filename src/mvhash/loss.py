"""Pairwise metric loss over a reduced batch block, plus quantization loss.

The batch of continuous codes is split into the first lam*b and last lam*b
rows; the inner-product matrix between the two slices drives a softplus
metric term whose dissimilar-pair weight w_d keeps repulsive gradient alive
even when the similarity indicator is zero. The quantization term pulls
each code component's magnitude toward 1 so that sign-thresholding at
inference loses little.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, sigmoid

__all__ = [
    "LossConfig",
    "PairBlock",
    "pairwise_similarity",
    "build_pair_block",
    "metric_loss",
    "quantization_loss",
    "total_loss",
    "hamming_from_inner",
]


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.5  # fraction of the batch in each block, in (0, 0.5]
    mu: float = 0.5  # quantization weight
    w_d: float = 1.5  # softplus weight (dissimilar pairs still repel)
    binarize_similarity: bool = True  # False: raw label inner products (experimental)

    def __post_init__(self):
        if not 0.0 < self.lam <= 0.5:
            raise ValueError(f"lam must be in (0, 0.5], got {self.lam}")
        if self.mu < 0.0 or self.w_d < 0.0:
            raise ValueError("mu and w_d must be nonnegative")

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


def pairwise_similarity(labels_a, labels_b, binarize: bool = True) -> np.ndarray:
    """Similarity matrix between two label sets: 1 iff any category is shared.

    With binarize=False returns the raw label inner products instead (can
    exceed 1 for multi-label data).
    """
    a = np.asarray(labels_a, dtype=np.float64)
    b = np.asarray(labels_b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"category counts differ: {a.shape[-1]} vs {b.shape[-1]}")
    prod = a @ b.T
    if binarize:
        return (prod > 0).astype(np.float64)
    return prod


def build_pair_block(H: np.ndarray, labels, cfg: LossConfig) -> PairBlock:
    """Slice the first and last lam*b rows and form their phi/sim matrices."""
    H = np.asarray(H, dtype=np.float64)
    b = H.shape[0]
    if b < 2:
        raise ValueError("need a batch of at least 2 samples")
    m = cfg.block_size(b)
    labels = np.asarray(labels, dtype=np.float64)
    phi = H[:m] @ H[b - m:].T
    sim = pairwise_similarity(labels[:m], labels[b - m:], binarize=cfg.binarize_similarity)
    return PairBlock(np.arange(m), np.arange(b - m, b), phi, sim)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def metric_loss(block: PairBlock, cfg: LossConfig):
    """Mean over the block of w_d*softplus(phi) - s*phi; returns (loss, dPhi)."""
    m2 = block.phi.size
    loss = float(np.sum(cfg.w_d * _softplus(block.phi) - block.sim * block.phi) / m2)
    d_phi = (cfg.w_d * sigmoid(block.phi) - block.sim) / m2
    return loss, d_phi


def _quantization(rows: np.ndarray, b: int):
    """(sum of || |h| - 1 ||_2 over rows, divided by b; its gradient per row).

    The subgradient at h_k = 0 and at zero residual norm is taken as 0.
    """
    resid = np.abs(rows) - 1.0
    norms = np.sqrt((resid * resid).sum(axis=1))
    nonzero = (norms > 0)[:, None]
    g = np.divide(resid, norms[:, None], out=np.zeros_like(resid), where=nonzero)
    np.multiply(g, np.sign(rows), out=g, where=nonzero)
    g /= b
    return float(norms.sum() / b), g


def quantization_loss(H: np.ndarray, block_indices):
    """Mean (over the full batch size) of || |h_i| - 1 ||_2 for i in the block.

    The normalizer is 1/b even though only 2*lam*b rows contribute. The
    subgradient at h_k = 0 and at zero residual norm is taken as 0.
    Returns (loss, dH).
    """
    H = np.asarray(H, dtype=np.float64)
    idx = np.asarray(block_indices, dtype=np.intp)
    loss, g = _quantization(H[idx], H.shape[0])
    dH = np.zeros_like(H)
    dH[idx] = g
    return loss, dH


def total_loss(H: np.ndarray, labels, cfg: LossConfig, metric_weight: float = 1.0):
    """Metric + mu * quantization; returns (loss, dH) over the whole batch.

    metric_weight exists for the ablation that removes the metric term
    entirely (set it to 0); rows outside the two blocks get zero gradient.
    The blocks H[:m] and H[b-m:] are disjoint because m = int(lam*b) <= b/2.
    """
    H = np.asarray(H, dtype=np.float64)
    block = build_pair_block(H, labels, cfg)
    lm, d_phi = metric_loss(block, cfg)
    b, m = H.shape[0], block.phi.shape[0]
    prec, rest = H[:m], H[b - m:]
    lq, g = _quantization(np.concatenate((prec, rest)), b)
    dH = np.zeros_like(H)
    dH[:m], dH[b - m:] = g[:m], g[m:]

    loss = metric_weight * lm + cfg.mu * lq
    dH *= cfg.mu
    if metric_weight != 0.0:
        dH[:m] += metric_weight * (d_phi @ rest)
        dH[b - m:] += metric_weight * (d_phi.T @ prec)
    return loss, dH


def hamming_from_inner(phi: float, k: int) -> float:
    """Hamming distance of two +/-1 codes from their inner product: (k - phi)/2."""
    if abs(phi) > k:
        raise ValueError(f"|phi|={abs(phi)} exceeds code length {k}")
    return 0.5 * (k - phi)
