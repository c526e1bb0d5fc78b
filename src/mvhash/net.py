"""Multi-view hashing network: per-view projection, gated fusion, tanh hash head.

The forward pass caches every intermediate in a BatchTape so the backward
pass can produce analytic gradients without an autograd framework. Training
keeps the continuous tanh codes; sign-thresholding happens only when codes
are emitted for retrieval (`binarize`), since sgn has zero gradient almost
everywhere and the quantization loss already pushes |h| toward 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, sigmoid

__all__ = [
    "NetConfig",
    "ModelParams",
    "BatchTape",
    "init_params",
    "normalize_view",
    "context_gating",
    "hash_head",
    "forward_batch",
    "backward_batch",
    "binarize",
]


@dataclass(frozen=True)
class NetConfig:
    """Static architecture: per-view input dims, shared projection dim, code bits."""

    view_dims: tuple
    proj_dim: int
    code_bits: int

    def __post_init__(self):
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        if len(self.view_dims) < 1 or any(d < 1 for d in self.view_dims):
            raise ValueError("need at least one view with positive dimension")
        if self.proj_dim < 1 or self.code_bits < 1:
            raise ValueError("proj_dim and code_bits must be positive")

    @property
    def num_views(self) -> int:
        return len(self.view_dims)

    @property
    def fused_dim(self) -> int:
        return self.num_views * self.proj_dim

    def layout(self) -> list:
        """(name, shape) of every parameter tensor, in buffer and checkpoint order."""
        n, k = self.fused_dim, self.code_bits
        entries = []
        for v, d in enumerate(self.view_dims):
            entries += [(f"norm_w.{v}", (self.proj_dim, d)), (f"norm_b.{v}", (self.proj_dim,))]
        return entries + [("fusion_w", (n, n)), ("fusion_b", (n,)),
                          ("hash_w", (k, n)), ("hash_b", (k,))]

    @property
    def num_params(self) -> int:
        return sum(math.prod(shape) for _, shape in self.layout())


class ModelParams:
    """All trainable weights in one contiguous float64 buffer.

    `buf` holds the tensors of `cfg.layout()` back to back; the named
    attributes are reshaped views into it, so an in-place write through
    either shows in both. Gradients use the same container.
    """

    def __init__(self, cfg: NetConfig, buf=None):
        size = cfg.num_params
        if buf is None:
            buf = np.zeros(size)
        elif buf.dtype != np.float64 or buf.shape != (size,) or not buf.flags.c_contiguous:
            raise ShapeError(f"parameter buffer: expected {size} contiguous float64 values, "
                             f"got {buf.dtype} {buf.shape}")
        self.cfg, self.buf = cfg, buf
        self._named, off = [], 0
        for name, shape in cfg.layout():
            size = math.prod(shape)
            self._named.append((name, buf[off:off + size].reshape(shape)))
            off += size
        views = dict(self._named)
        self.norm_w = [views[f"norm_w.{v}"] for v in range(cfg.num_views)]  # (proj_dim, d_view)
        self.norm_b = [views[f"norm_b.{v}"] for v in range(cfg.num_views)]  # (proj_dim,)
        self.fusion_w = views["fusion_w"]  # (n, n), n = num_views * proj_dim
        self.fusion_b = views["fusion_b"]  # (n,)
        self.hash_w = views["hash_w"]  # (K, n)
        self.hash_b = views["hash_b"]  # (K,)

    def tensors(self):
        """(name, view) pairs in buffer order."""
        return iter(self._named)


def init_params(cfg: NetConfig, seed: int) -> ModelParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, seeded.

    Draws follow buffer order; a bias shares the bound of the weight before it.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(cfg)
    for _, t in params.tensors():
        if t.ndim == 2:
            bound = 1.0 / np.sqrt(t.shape[1])
        t[...] = rng.uniform(-bound, bound, size=t.shape)
    return params


def normalize_view(x: np.ndarray, params: ModelParams, view_index: int) -> np.ndarray:
    """Project one view into the shared dimension, bounded to (-1, 1) by tanh."""
    w = params.norm_w[view_index]
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"view {view_index}: expected dim {w.shape[1]}, got {x.shape[-1]}")
    return np.tanh(x @ w.T + params.norm_b[view_index])


def context_gating(x_concat: np.ndarray, params: ModelParams):
    """Sigmoid gate over the concatenated features; returns (fused, gate)."""
    x = np.asarray(x_concat, dtype=np.float64)
    if x.shape[-1] != params.fusion_w.shape[1]:
        raise ShapeError(f"expected fused dim {params.fusion_w.shape[1]}, got {x.shape[-1]}")
    gate = sigmoid(x @ params.fusion_w.T + params.fusion_b)
    return gate * x, gate


def hash_head(x_fusion: np.ndarray, params: ModelParams) -> np.ndarray:
    """Linear layer + tanh producing continuous codes in (-1, 1)."""
    x = np.asarray(x_fusion, dtype=np.float64)
    if x.shape[-1] != params.hash_w.shape[1]:
        raise ShapeError(f"expected fused dim {params.hash_w.shape[1]}, got {x.shape[-1]}")
    return np.tanh(x @ params.hash_w.T + params.hash_b)


@dataclass
class BatchTape:
    """Forward-pass intermediates needed by the analytic backward pass."""

    raw_views: list  # per view, (b, d_view)
    normalized: list  # per view, (b, proj_dim)
    mask: np.ndarray  # inverted-dropout mask, entries in {0, 1/(1-p)}; None without dropout
    dropped: np.ndarray  # concat after dropout, (b, n)
    gate: np.ndarray  # (b, n); all-ones when gating disabled
    fused: np.ndarray  # (b, n)
    codes: np.ndarray  # continuous codes H, (b, K)
    gated: bool = True


def forward_batch(
    views: list,
    params: ModelParams,
    dropout_p: float = 0.0,
    train_mode: bool = False,
    rng_seed: int = 0,
    view_mask=None,
    use_gating: bool = True,
):
    """Run the network on a batch.

    views: list with one (b, d_view) array per view. view_mask optionally
    zeroes whole views before normalization (single-view ablations);
    use_gating=False makes fusion the identity (concatenation ablation).
    Returns (H, tape) with H of shape (b, K).
    """
    if not views or views[0].shape[0] == 0:
        raise ValueError("empty batch")
    b = views[0].shape[0]
    if any(v.shape[0] != b for v in views):
        raise ShapeError("views disagree on batch size")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")

    raw = [np.asarray(v, dtype=np.float64) for v in views]
    if view_mask is not None:
        raw = [v if keep else np.zeros_like(v) for v, keep in zip(raw, view_mask)]

    normalized = [normalize_view(raw[v], params, v) for v in range(len(raw))]
    concat = np.concatenate(normalized, axis=1)

    mask, dropped = None, concat
    if train_mode and dropout_p > 0.0:
        rng = np.random.default_rng(rng_seed)
        keep = rng.random(concat.shape) >= dropout_p
        mask = keep / (1.0 - dropout_p)
        dropped = concat * mask

    if use_gating:
        fused, gate = context_gating(dropped, params)
    else:
        gate = np.ones_like(dropped)
        fused = dropped

    codes = hash_head(fused, params)
    tape = BatchTape(raw, normalized, mask, dropped, gate, fused, codes, gated=use_gating)
    return codes, tape


def backward_batch(tape: BatchTape, params: ModelParams, dH: np.ndarray,
                   out: ModelParams = None) -> ModelParams:
    """Analytic gradients of a scalar loss given dL/dH.

    Every gradient tensor is written into `out` (allocated when None),
    which is returned; a training loop passes the same buffer each step.
    """
    dH = np.asarray(dH, dtype=np.float64)
    if dH.shape != tape.codes.shape:
        raise ShapeError(f"dH shape {dH.shape} != codes shape {tape.codes.shape}")
    grads = ModelParams(params.cfg) if out is None else out

    # hash head: H = tanh(fused @ hash_w.T + hash_b)
    dA = dH * (1.0 - tape.codes ** 2)
    np.matmul(dA.T, tape.fused, out=grads.hash_w)
    dA.sum(axis=0, out=grads.hash_b)
    d_fused = dA @ params.hash_w

    # gating: fused = gate * dropped, gate = sigmoid(dropped @ fusion_w.T + fusion_b).
    # Both the gate branch and the identity branch carry gradient.
    if tape.gated:
        d_gate = d_fused * tape.dropped
        d_dropped = d_fused * tape.gate
        dZ = d_gate * tape.gate * (1.0 - tape.gate)
        np.matmul(dZ.T, tape.dropped, out=grads.fusion_w)
        dZ.sum(axis=0, out=grads.fusion_b)
        d_dropped += dZ @ params.fusion_w
    else:
        d_dropped = d_fused
        grads.fusion_w[...] = 0.0
        grads.fusion_b[...] = 0.0

    d_concat = d_dropped if tape.mask is None else d_dropped * tape.mask

    proj = tape.normalized[0].shape[1]
    for v, (x_raw, t) in enumerate(zip(tape.raw_views, tape.normalized)):
        dP = d_concat[:, v * proj:(v + 1) * proj] * (1.0 - t ** 2)
        np.matmul(dP.T, x_raw, out=grads.norm_w[v])
        dP.sum(axis=0, out=grads.norm_b[v])
    return grads


def binarize(h: np.ndarray) -> np.ndarray:
    """Sign-threshold continuous codes to {-1, +1}; the tie h == 0 maps to +1."""
    h = np.asarray(h, dtype=np.float64)
    return np.where(h >= 0.0, np.int8(1), np.int8(-1))
