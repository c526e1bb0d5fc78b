"""Training loop: data -> network -> loss -> optimizer, plus checkpoints.

Ablation modes reshape the pipeline at runtime: metric-only drops the
quantization term (mu=0), quant-only zeroes the metric term, image-only /
text-only blank the other view before normalization, and concat-only
replaces the learned gate with the identity.
"""

import csv
import json
import math
import struct
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import net as netmod
from .data import Columns, DatasetSplit, batches, stack_labels, stack_views
from .loss import LossConfig, total_loss
from .net import ModelParams, NetConfig, binarize, forward_batch, init_params
from .optim import OptimState, adamw_step, cosine_lr, init_optim
from .retrieval import build_index, evaluate

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "train",
    "dropout_stream",
    "export_curves",
    "codes_for",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

ABLATIONS = ("full", "metric-only", "quant-only", "image-only", "text-only", "concat-only")
LR_SCHEDULES = ("constant", "cosine")
_CHUNK = 512  # rows per forward pass in codes_for


@dataclass(frozen=True)
class TrainConfig:
    bits: int = 16
    proj_dim: int = 16
    epochs: int = 500
    batch_size: int = 128
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    dropout_p: float = 0.1
    lam: float = 0.5
    mu: float = 0.5
    w_d: float = 1.5
    seed: int = 0
    eval_every: int = 20
    ablation: str = "full"
    lr_schedule: str = "constant"  # one of LR_SCHEDULES

    def __post_init__(self):
        for f in fields(self):  # exact types, so a bool or a string never passes
            value = getattr(self, f.name)
            if f.type is int and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type is float and (type(value) not in (int, float) or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}; pick one of {ABLATIONS}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
        for name, ok, rule in (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("bits", self.bits >= 1, ">= 1"),
            ("proj_dim", self.proj_dim >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 2, ">= 2"),
            ("dropout_p", 0.0 <= self.dropout_p < 1.0, "in [0, 1)"),
            ("lr", self.lr > 0.0, "> 0"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("eps", self.eps > 0.0, "> 0"),
            ("weight_decay", self.weight_decay >= 0.0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("eval_every", self.eval_every >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        LossConfig(lam=self.lam, mu=self.mu, w_d=self.w_d)  # validates ranges

    def pipeline(self, num_views: int):
        """(loss_cfg, metric_weight, view_mask, use_gating) for this ablation."""
        mu = 0.0 if self.ablation == "metric-only" else self.mu
        loss_cfg = LossConfig(lam=self.lam, mu=mu, w_d=self.w_d)
        metric_weight = 0.0 if self.ablation == "quant-only" else 1.0
        view_mask = None
        if self.ablation == "image-only":
            view_mask = [v == 0 for v in range(num_views)]
        elif self.ablation == "text-only":
            if num_views < 2:
                raise ValueError("text-only ablation needs at least two views")
            view_mask = [v == 1 for v in range(num_views)]
        use_gating = self.ablation != "concat-only"
        return loss_cfg, metric_weight, view_mask, use_gating


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    test_map: float = None
    wall_ms: float = 0.0


@dataclass
class TrainResult:
    params: ModelParams
    optim_state: OptimState
    records: list
    net_cfg: NetConfig
    best_params: ModelParams
    best_epoch: int
    best_map: float


def codes_for(split: Columns, params: ModelParams, view_mask=None,
              use_gating=True) -> np.ndarray:
    """Continuous codes in eval mode (dropout off), over row slices of the split."""
    out = np.empty((len(split), params.cfg.code_bits))
    for start in range(0, len(split), _CHUNK):
        h, _ = forward_batch(stack_views(split, slice(start, start + _CHUNK)), params,
                             dropout_p=0.0, train_mode=False,
                             view_mask=view_mask, use_gating=use_gating)
        out[start:start + _CHUNK] = h
    return out


def _test_map(dataset: DatasetSplit, params, view_mask, use_gating) -> float:
    q_codes = binarize(codes_for(dataset.query, params, view_mask, use_gating))
    db_codes = binarize(codes_for(dataset.retrieval, params, view_mask, use_gating))
    index = build_index(db_codes, dataset.retrieval.ids, dataset.retrieval.labels)
    return evaluate(q_codes, dataset.query.ids, dataset.query.labels, index).map


def _snapshot(params: ModelParams) -> ModelParams:
    return ModelParams(params.cfg, params.buf.copy())


def dropout_stream(seed: int) -> np.random.Generator:
    """The one Generator a training run draws its dropout masks from.

    The spawn key keeps it apart from init_params' stream (seed) and the
    shuffles of batches ((seed, epoch)). A plain (seed, 0) would not:
    SeedSequence pads short entropy with zeros, so it equals seed.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def train(dataset: DatasetSplit, cfg: TrainConfig) -> TrainResult:
    """Run the full training loop; deterministic under (cfg, dataset).

    Every training batch draws its dropout mask from one stream per run,
    dropout_stream(cfg.seed), in batch order. Periodic evaluation runs in
    eval mode and draws nothing from it.
    """
    net_cfg = NetConfig(dataset.view_dims, cfg.proj_dim, cfg.bits)
    loss_cfg, metric_weight, view_mask, use_gating = cfg.pipeline(net_cfg.num_views)

    params = init_params(net_cfg, cfg.seed)
    state = init_optim(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                       eps=cfg.eps, weight_decay=cfg.weight_decay)
    steps_per_epoch = max(1, len(dataset.train) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    grads = ModelParams(net_cfg)  # overwritten by every backward pass
    rng = dropout_stream(cfg.seed)
    records = []
    best_params, best_epoch, best_map = _snapshot(params), 0, -1.0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        losses = []
        for bi, rows in enumerate(batches(dataset.train, cfg.batch_size,
                                          cfg.seed, epoch)):
            x = stack_views(dataset.train, rows)
            h, tape = forward_batch(x, params, dropout_p=cfg.dropout_p, train_mode=True,
                                    rng=rng, view_mask=view_mask, use_gating=use_gating)
            loss, dH = total_loss(h, stack_labels(dataset.train, rows), loss_cfg,
                                  metric_weight=metric_weight)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {bi}"
                )
            netmod.backward_batch(tape, params, dH, out=grads)
            lr = (cosine_lr(cfg.lr, state.step, total_steps)
                  if cfg.lr_schedule == "cosine" else None)
            adamw_step(params, grads, state, lr=lr)
            losses.append(loss)

        test_map = None
        if cfg.eval_every > 0 and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            test_map = _test_map(dataset, params, view_mask, use_gating)
            if test_map > best_map:
                best_params, best_epoch, best_map = _snapshot(params), epoch, test_map
        wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(EpochRecord(epoch, float(np.mean(losses)), test_map, wall_ms))

    if best_map < 0:
        best_params, best_epoch, best_map = _snapshot(params), cfg.epochs, float("nan")
    return TrainResult(params, state, records, net_cfg, best_params, best_epoch, best_map)


def export_curves(records, path) -> None:
    """CSV of per-epoch loss / test mAP; blank mAP on non-eval epochs."""
    if not records:
        raise ValueError("no epoch records to export")
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "map", "wall_ms"])
        for r in records:
            writer.writerow([
                r.epoch,
                repr(r.loss),
                "" if r.test_map is None else repr(r.test_map),
                f"{r.wall_ms:.3f}",
            ])


# --- checkpoint container: JSON header + raw float64 buffers -----------------

_MAGIC = b"MVHCKPT1"
_PREFIX = len(_MAGIC) + 8  # magic, then the header length as little-endian uint64
_OPTIM_FIELDS = ("step", "lr", "beta1", "beta2", "eps", "weight_decay")


@dataclass
class Checkpoint:
    params: ModelParams
    net_cfg: NetConfig
    config: dict = field(default_factory=dict)
    optim: OptimState = None


def save_checkpoint(path, params: ModelParams, net_cfg: NetConfig,
                    config: dict = None, optim: OptimState = None) -> None:
    """Bit-exact, self-describing container; byte-identical for equal inputs.

    The body is the parameter buffer, then the optimizer's m and v buffers
    when present, each little-endian float64 in `net_cfg.layout()` order.
    """
    if params.cfg != net_cfg:
        raise ValueError(f"parameters are laid out for {params.cfg}, not {net_cfg}")
    header = {
        "net": {"view_dims": list(net_cfg.view_dims),
                "proj_dim": net_cfg.proj_dim,
                "code_bits": net_cfg.code_bits},
        "config": config or {},
        "tensors": [{"name": n, "shape": list(s)} for n, s in net_cfg.layout()],
        "optim": None,
    }
    buffers = [params.buf]
    if optim is not None:
        header["optim"] = {k: getattr(optim, k) for k in _OPTIM_FIELDS}
        buffers += [optim.m, optim.v]
    head = json.dumps(header, sort_keys=True).encode()
    with open(Path(path), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for buf in buffers:
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed, truncated or padded file is a ValueError."""
    data = Path(path).read_bytes()
    if data[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(data) < _PREFIX:
        raise ValueError(f"{path}: truncated checkpoint ({len(data)} bytes)")
    (head_len,) = struct.unpack("<Q", data[len(_MAGIC):_PREFIX])
    body_at = _PREFIX + head_len
    try:
        header = json.loads(data[_PREFIX:body_at])
        net = header["net"]
        net_cfg = NetConfig(tuple(net["view_dims"]), net["proj_dim"], net["code_bits"])
        entries = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
        o = header["optim"]
        hyper = None if o is None else {k: o[k] for k in _OPTIM_FIELDS}
        config = header["config"]
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed checkpoint header "
                         f"({type(e).__name__}: {e})") from None
    if entries != net_cfg.layout():
        raise ValueError(f"{path}: header tensors do not match the layout of {net_cfg}")
    n = net_cfg.num_params
    buffers = 1 if hyper is None else 3
    expected = body_at + buffers * n * 8
    if len(data) != expected:
        raise ValueError(f"{path}: {len(data)} bytes, expected {expected} for "
                         f"{buffers} buffer(s) of {n} float64 values")
    flat = np.frombuffer(data, dtype="<f8", offset=body_at).astype(np.float64)
    params = ModelParams(net_cfg, flat[:n])
    optim = None
    if hyper is not None:
        optim = OptimState(m=flat[n:2 * n], v=flat[2 * n:], **hyper)
    return Checkpoint(params=params, net_cfg=net_cfg, config=config, optim=optim)
