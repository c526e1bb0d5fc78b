"""Multi-view hashing network: per-view projection, gated fusion, tanh hash head.

A batch is one (b, D) block of feature rows with the views side by side,
the layout a dataset split stores. `forward_batch` slices the columns of
each view the network reads (`NetConfig.views`) by `NetConfig.view_dims`,
projects them into a shared dimension, gates their concatenation (unless
`NetConfig.gated` is False) and maps it to K continuous codes, and it caches
every intermediate in a BatchTape so that `backward_batch` can produce
analytic gradients without an autograd framework. Training keeps the
continuous tanh codes; sign-thresholding happens only when codes are
emitted for retrieval (`binarize`), since sgn has zero gradient almost
everywhere and the quantization loss already pushes |h| toward 1.
Products of 2-D blocks use np.dot, the same product as `@` with less
dispatch per call, which at batch 8 is most of a call's cost.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .linalg import ShapeError, sigmoid

__all__ = [
    "NetConfig",
    "ModelParams",
    "BatchTape",
    "init_params",
    "forward_batch",
    "backward_batch",
    "binarize",
]


@dataclass(frozen=True)
class NetConfig:
    """Static architecture: per-view input dims, shared projection dim, code bits,
    and the network's structure: the views it reads and whether it gates their fusion.

    `views` are ascending indices into `view_dims`, every view by default. A
    view left out is not part of the network: it has no weights, and the
    columns of its features are never read. With `gated` False, fusion is the
    identity, so the network has no fusion weights.
    """

    view_dims: tuple
    proj_dim: int
    code_bits: int
    views: tuple = None
    gated: bool = True

    def __post_init__(self):
        object.__setattr__(self, "view_dims", tuple(self.view_dims))
        if not self.view_dims:
            raise ValueError("view_dims: need at least one view")
        for name, value in [("view_dims", d) for d in self.view_dims] + [
                ("proj_dim", self.proj_dim), ("code_bits", self.code_bits)]:
            if type(value) is not int or value < 1:  # exact, so a float or a bool never passes
                raise ValueError(f"{name}: expected a positive integer, got {value!r}")
        n = len(self.view_dims)
        views = tuple(range(n)) if self.views is None else self.views
        if (type(views) not in (tuple, list) or not views
                or any(type(v) is not int for v in views)
                or list(views) != sorted(set(views)) or not 0 <= views[0] <= views[-1] < n):
            raise ValueError(f"views: expected ascending, distinct indices into {n} "
                             f"view(s), got {self.views!r}")
        object.__setattr__(self, "views", tuple(views))
        if type(self.gated) is not bool:
            raise ValueError(f"gated: expected a bool, got {self.gated!r}")

    @cached_property
    def input_dim(self) -> int:
        return sum(self.view_dims)

    @cached_property
    def view_columns(self) -> tuple:
        """Per view, the slice of its columns in a (b, input_dim) feature block."""
        ends = tuple(accumulate(self.view_dims))
        return tuple(slice(e - d, e) for d, e in zip(self.view_dims, ends))

    @property
    def fused_dim(self) -> int:
        return len(self.views) * self.proj_dim

    def layout(self) -> list:
        """(name, shape) of every parameter tensor, in buffer and checkpoint order."""
        n, k = self.fused_dim, self.code_bits
        entries = []
        for v in self.views:
            entries += [(f"norm_w.{v}", (self.proj_dim, self.view_dims[v])),
                        (f"norm_b.{v}", (self.proj_dim,))]
        if self.gated:
            entries += [("fusion_w", (n, n)), ("fusion_b", (n,))]
        return entries + [("hash_w", (k, n)), ("hash_b", (k,))]

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
        named = dict(self._named)
        # one per view the network reads, in cfg.views order
        self.norm_w = [named[f"norm_w.{v}"] for v in cfg.views]  # (proj_dim, d_view)
        self.norm_b = [named[f"norm_b.{v}"] for v in cfg.views]  # (proj_dim,)
        self.fusion_w = named.get("fusion_w")  # (n, n), n = fused_dim; None when not gated
        self.fusion_b = named.get("fusion_b")  # (n,)
        self.hash_w = named["hash_w"]  # (K, n)
        self.hash_b = named["hash_b"]  # (K,)

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


@dataclass
class BatchTape:
    """Forward-pass intermediates needed by the analytic backward pass."""

    x: np.ndarray  # input rows, views side by side, (b, D)
    concat: np.ndarray  # tanh projections of the views read, side by side, (b, n)
    mask: np.ndarray  # inverted-dropout mask, entries in {0, 1/(1-p)}; None without dropout
    dropped: np.ndarray  # concat after dropout, (b, n)
    gate: np.ndarray  # (b, n); None when the network is not gated
    fused: np.ndarray  # (b, n)
    codes: np.ndarray  # continuous codes H, (b, K)


def forward_batch(
    x: np.ndarray,
    params: ModelParams,
    dropout_p: float = 0.0,
    train_mode: bool = False,
    rng: np.random.Generator = None,
):
    """Run the network on a batch.

    x: (b, D) feature rows, views side by side in `params.cfg.view_dims`
    order; it is never written to, and only the columns of the views in
    `params.cfg.views` are read. A network that is not gated fuses by the
    identity (the concatenation ablation). In train mode with
    dropout_p > 0 the keep mask is one rng.random draw of shape (b, n);
    the caller owns the Generator, so successive batches continue one
    stream. Returns (H, tape) with H of shape (b, K).
    """
    cfg = params.cfg
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"expected (b, {cfg.input_dim}) feature rows, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    dropout = train_mode and dropout_p > 0.0
    if dropout and rng is None:
        raise ValueError("train-mode dropout needs an rng (a numpy Generator)")

    # per-view projections side by side, then one tanh over all of them
    concat = np.tanh(np.concatenate([np.dot(x[:, cfg.view_columns[v]], w.T) + b
                                     for v, w, b in zip(cfg.views, params.norm_w, params.norm_b)],
                                    axis=1))

    mask, dropped = None, concat
    if dropout:
        keep = rng.random(concat.shape) >= dropout_p
        mask = keep / (1.0 - dropout_p)
        dropped = concat * mask

    # context gating, or the identity
    gate, fused = None, dropped
    if cfg.gated:
        gate = sigmoid(np.dot(dropped, params.fusion_w.T) + params.fusion_b)
        fused = gate * dropped

    codes = np.tanh(np.dot(fused, params.hash_w.T) + params.hash_b)  # hash head
    return codes, BatchTape(x, concat, mask, dropped, gate, fused, codes)


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

    # hash head: H = tanh(fused @ hash_w.T + hash_b). Temporaries are updated in
    # place, each product in the operand order of the out-of-place expression.
    dA = np.square(tape.codes)  # dH * (1 - H**2)
    np.subtract(1.0, dA, out=dA)
    dA *= dH
    np.dot(dA.T, tape.fused, out=grads.hash_w)
    np.add.reduce(dA, axis=0, out=grads.hash_b)
    dP = np.dot(dA, params.hash_w)  # d_fused, then d_dropped, then dP

    # gating: fused = gate * dropped, gate = sigmoid(dropped @ fusion_w.T + fusion_b).
    # Both the gate branch and the identity branch carry gradient.
    if tape.gate is not None:
        dZ = dP * tape.dropped  # d_gate * gate * (1 - gate)
        dZ *= tape.gate
        dZ *= np.subtract(1.0, tape.gate)
        dP *= tape.gate
        np.dot(dZ.T, tape.dropped, out=grads.fusion_w)
        np.add.reduce(dZ, axis=0, out=grads.fusion_b)
        dP += np.dot(dZ, params.fusion_w)

    # tanh' of every view in one pass; each column block then feeds its view's weights
    if tape.mask is not None:
        dP *= tape.mask
    t = np.square(tape.concat)
    np.subtract(1.0, t, out=t)
    dP *= t

    cfg, p = params.cfg, params.cfg.proj_dim
    for i, v in enumerate(cfg.views):
        # contiguous copies, so a 1-wide block takes the same matmul path as a full one
        dP_v = np.ascontiguousarray(dP[:, i * p:(i + 1) * p])
        np.dot(dP_v.T, np.ascontiguousarray(tape.x[:, cfg.view_columns[v]]), out=grads.norm_w[i])
        np.add.reduce(dP_v, axis=0, out=grads.norm_b[i])
    return grads


def binarize(h: np.ndarray) -> np.ndarray:
    """Sign-threshold continuous codes to {-1, +1}; the tie h == 0 maps to +1."""
    codes = (np.asarray(h, dtype=np.float64) >= 0.0).view(np.int8)  # 0 or 1, one byte a code
    codes += codes
    codes -= 1
    return codes
