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

from .linalg import ShapeError

__all__ = [
    "LossConfig",
    "PairBlock",
    "pairwise_similarity",
    "build_pair_block",
    "metric_loss",
    "total_loss",
    "hamming_from_inner",
]


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.5  # fraction of the batch in each block, in (0, 0.5]
    mu: float = 0.5  # quantization weight
    w_d: float = 1.5  # softplus weight (dissimilar pairs still repel)

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


def pairwise_similarity(labels_a, labels_b) -> np.ndarray:
    """Similarity matrix between two label sets: 1 iff any category is shared."""
    a = np.asarray(labels_a, dtype=np.float64)
    b = np.asarray(labels_b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"category counts differ: {a.shape[-1]} vs {b.shape[-1]}")
    return (a @ b.T > 0).astype(np.float64)


def build_pair_block(H: np.ndarray, labels, cfg: LossConfig) -> PairBlock:
    """Slice the first and last lam*b rows and form their phi/sim matrices."""
    H = np.asarray(H, dtype=np.float64)
    b = H.shape[0]
    if b < 2:
        raise ValueError("need a batch of at least 2 samples")
    m = cfg.block_size(b)
    labels = np.asarray(labels, dtype=np.float64)
    phi = H[:m] @ H[b - m:].T
    sim = pairwise_similarity(labels[:m], labels[b - m:])
    return PairBlock(np.arange(m), np.arange(b - m, b), phi, sim)


def _metric(phi: np.ndarray, sim: np.ndarray, w_d: float):
    """Mean of w_d*softplus(phi) - s*phi and its gradient in phi.

    softplus(x) = max(x, 0) + log1p(e) and sigmoid(x) = [1 or e] / (1 + e)
    share e = exp(-|x|), so neither overflows for large |x|.
    """
    m2 = phi.size
    e = np.exp(-np.abs(phi))
    terms = w_d * (np.maximum(phi, 0.0) + np.log1p(e)) - sim * phi
    d_phi = (w_d * (np.where(phi >= 0, 1.0, e) / (1.0 + e)) - sim) / m2
    return float(np.add.reduce(terms, axis=None) / m2), d_phi


def metric_loss(block: PairBlock, cfg: LossConfig):
    """Mean over the block of w_d*softplus(phi) - s*phi; returns (loss, dPhi)."""
    return _metric(block.phi, block.sim, cfg.w_d)


def _quantization(H: np.ndarray, m: int):
    """(sum of || |h| - 1 ||_2 over the rows of H[:m] and H[b-m:], divided by b;
    its gradient, zero on the rows between those blocks).

    The subgradient at h_k = 0 and at zero residual norm is taken as 0.
    """
    b = H.shape[0]
    resid = np.abs(H)
    resid -= 1.0
    norms = np.sqrt(np.add.reduce(resid * resid, axis=1))
    total = np.add.reduce(np.concatenate((norms[:m], norms[b - m:])))
    norms[m:b - m] = 0.0  # no gradient between the blocks
    nonzero = (norms > 0)[:, None]
    g = np.divide(resid, norms[:, None], out=np.zeros(resid.shape), where=nonzero)
    np.multiply(g, np.sign(H), out=g, where=nonzero)
    g /= b
    return float(total / b), g


def total_loss(H: np.ndarray, labels, cfg: LossConfig, metric_weight: float = 1.0):
    """Metric + mu * quantization; returns (loss, dH) over the whole batch.

    Both terms cover only the blocks H[:m] and H[b-m:], which are disjoint
    because m = int(lam*b) <= b/2; rows between them get zero gradient. The
    quantization term sums || |h| - 1 ||_2 over the 2m block rows and divides
    by b, not 2m. metric_weight exists for the ablation that removes the
    metric term entirely (set it to 0).
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    b = H.shape[0]
    if b < 2:
        raise ValueError("need a batch of at least 2 samples")
    m = cfg.block_size(b)
    prec, rest = H[:m], H[b - m:]
    lm, d_phi = _metric(prec @ rest.T, pairwise_similarity(labels[:m], labels[b - m:]),
                        cfg.w_d)
    lq, dH = _quantization(H, m)
    dH *= cfg.mu

    loss = metric_weight * lm + cfg.mu * lq
    if metric_weight != 0.0:
        dH[:m] += metric_weight * (d_phi @ rest)
        dH[b - m:] += metric_weight * (d_phi.T @ prec)
    return loss, dH


def hamming_from_inner(phi: float, k: int) -> float:
    """Hamming distance of two +/-1 codes from their inner product: (k - phi)/2."""
    if abs(phi) > k:
        raise ValueError(f"|phi|={abs(phi)} exceeds code length {k}")
    return 0.5 * (k - phi)
