"""Training loop: data -> network -> loss -> optimizer, plus checkpoints.

`TrainConfig.pipeline` maps each ablation to what it changes: metric-only
drops the quantization term (mu=0) and quant-only zeroes the metric term;
image-only and text-only build a network that reads only that view, and
concat-only one that fuses by the identity. The network's `NetConfig` holds
this structure and a checkpoint stores it with the parameters, so eval and
search read the forward function from the file, not from the training config.
"""

import csv
import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import net as netmod
from .data import (Columns, DatasetSplit, batches, check_fields, epoch_rows, option,
                   stack_labels, stack_views)
from .loss import LossConfig, pairwise_similarity, total_loss
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
    bits: int = option(16, "hash code length K")
    proj_dim: int = option(16, "shared per-view projection dim")
    epochs: int = option(500, "training epochs")
    batch_size: int = option(128, "batch size b")
    lr: float = option(1e-5, "AdamW learning rate")
    beta1: float = option(0.9, "AdamW beta1")
    beta2: float = option(0.999, "AdamW beta2")
    eps: float = option(1e-8, "AdamW epsilon")
    weight_decay: float = option(0.0, "decoupled weight decay")
    dropout_p: float = option(0.1, "dropout probability on concatenated features",
                              flag="--dropout")
    lam: float = option(0.5, "block fraction for the pairwise loss, in (0, 0.5]")
    mu: float = option(0.5, "quantization loss weight")
    w_d: float = option(1.5, "dissimilar-pair softplus weight", flag="--wd-pair")
    seed: int = option(0, "RNG seed")
    eval_every: int = option(20, "epochs between test-mAP evaluations")
    ablation: str = option("full", "pipeline variant", choices=ABLATIONS)
    lr_schedule: str = option("constant", "lr schedule", choices=LR_SCHEDULES)

    def __post_init__(self):
        check_fields(self, lambda: (
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
        ))
        LossConfig(lam=self.lam, mu=self.mu, w_d=self.w_d)  # validates ranges

    def pipeline(self, num_views: int):
        """(loss_cfg, metric_weight, views, gated) for this ablation on data of
        num_views views; views and gated are the NetConfig fields of its network."""
        mu = 0.0 if self.ablation == "metric-only" else self.mu
        loss_cfg = LossConfig(lam=self.lam, mu=mu, w_d=self.w_d)
        metric_weight = 0.0 if self.ablation == "quant-only" else 1.0
        if self.ablation == "text-only" and num_views < 2:
            raise ValueError("ablation text-only needs at least two views")
        views = {"image-only": (0,), "text-only": (1,)}.get(self.ablation,
                                                              tuple(range(num_views)))
        return loss_cfg, metric_weight, views, self.ablation != "concat-only"


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


def codes_for(split: Columns, params: ModelParams) -> np.ndarray:
    """Continuous codes in eval mode (dropout off), over row slices of the split."""
    out = np.empty((len(split), params.cfg.code_bits))
    for start in range(0, len(split), _CHUNK):
        h, _ = forward_batch(stack_views(split, slice(start, start + _CHUNK)), params,
                             dropout_p=0.0, train_mode=False)
        out[start:start + _CHUNK] = h
    return out


def _test_map(dataset: DatasetSplit, params, views, gated) -> float:
    """Test mAP of params; views and gated, the structure the caller built the
    network from, must be the network's own."""
    if (views, gated) != (params.cfg.views, params.cfg.gated):
        raise ValueError(f"network has views {params.cfg.views}, gated {params.cfg.gated}; "
                         f"given views {views}, gated {gated}")
    q_codes = binarize(codes_for(dataset.query, params))
    db_codes = binarize(codes_for(dataset.retrieval, params))
    index = build_index(db_codes, dataset.retrieval.ids, dataset.retrieval.labels)
    return evaluate(q_codes, dataset.query.ids, dataset.query.labels, index).map


def _gather(split: Columns, rows: np.ndarray, m: int):
    """Read an epoch's batches once. rows is epoch_rows' (steps, b) array; returns
    (the rows as one float64 split, in batch order; sims, with sims[i] the
    similarity of batch i's first and last m labels, from one batched product)."""
    flat = rows.ravel()
    block = Columns(None, np.asarray(split.features[flat], np.float64),
                    split.labels[flat].astype(np.float64))
    labels = block.labels.reshape(*rows.shape, -1)
    return block, pairwise_similarity(labels[:, :m], labels[:, -m:])


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
    loss_cfg, metric_weight, views, gated = cfg.pipeline(len(dataset.view_dims))
    net_cfg = NetConfig(dataset.view_dims, cfg.proj_dim, cfg.bits, views, gated)

    params = init_params(net_cfg, cfg.seed)
    state = init_optim(params)
    steps_per_epoch = max(1, len(dataset.train) // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    grads = ModelParams(net_cfg)  # overwritten by every backward pass
    rng = dropout_stream(cfg.seed)
    b = cfg.batch_size
    records = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        losses = []
        block, sims = _gather(dataset.train, epoch_rows(dataset.train, b, cfg.seed, epoch),
                              loss_cfg.block_size(b))
        # batches() yields these rows a step at a time, and each step reads its slice
        # of block. bench/tracing.py delimits a step by batches() and times
        # stack_labels within it; total_loss, given sims[bi], does not read the labels.
        for bi, _ in enumerate(batches(dataset.train, b, cfg.seed, epoch)):
            rows = slice(bi * b, (bi + 1) * b)
            h, tape = forward_batch(stack_views(block, rows), params, dropout_p=cfg.dropout_p,
                                    train_mode=True, rng=rng)
            loss, dH = total_loss(h, stack_labels(block, rows), loss_cfg,
                                  metric_weight=metric_weight, sim=sims[bi])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {bi}"
                )
            netmod.backward_batch(tape, params, dH, out=grads)
            lr = (cosine_lr(cfg.lr, state.step, total_steps)
                  if cfg.lr_schedule == "cosine" else cfg.lr)
            adamw_step(params, grads, state, lr, cfg)
            losses.append(loss)

        test_map = None
        if cfg.eval_every > 0 and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            test_map = _test_map(dataset, params, views, gated)
        wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(EpochRecord(epoch, float(np.mean(losses)), test_map, wall_ms))

    return TrainResult(params, state, records, net_cfg)


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


# --- checkpoint container: JSON header + raw float64 parameters ---------------

_MAGIC = b"MVHCKPT2"
_PREFIX = len(_MAGIC) + 8  # magic, then the header length as little-endian uint64


@dataclass
class Checkpoint:
    params: ModelParams
    net_cfg: NetConfig
    config: dict = field(default_factory=dict)
    step: int = None  # optimizer steps taken; None for a checkpoint saved without one


def _check_finite(path, params: ModelParams) -> None:
    """A ValueError naming path and the first tensor that holds a NaN or +/-inf."""
    if not np.isfinite(params.buf).all():
        name = next(n for n, t in params.tensors() if not np.isfinite(t).all())
        raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")


def save_checkpoint(path, params: ModelParams, net_cfg: NetConfig,
                    config: dict = None, optim: OptimState = None) -> None:
    """Bit-exact, self-describing container; byte-identical for equal inputs.

    The header's net is the whole network, its structure included; the body
    is the parameter buffer, little-endian float64 in `net_cfg.layout()`
    order. Of the optimizer only the step is recorded. config is stored as
    provenance and read by nothing. Non-finite parameters are refused and
    nothing is written.
    """
    if params.cfg != net_cfg:
        raise ValueError(f"parameters are laid out for {params.cfg}, not {net_cfg}")
    _check_finite(path, params)
    header = {
        "net": asdict(net_cfg),
        "config": config or {},
        "tensors": [{"name": n, "shape": list(s)} for n, s in net_cfg.layout()],
        "optim": None if optim is None else {"step": optim.step},
    }
    head = json.dumps(header, sort_keys=True).encode()
    with open(Path(path), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        fh.write(np.ascontiguousarray(params.buf, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed, truncated or padded file, or one whose
    parameters hold a NaN or +/-inf, is a ValueError."""
    data = Path(path).read_bytes()
    if data[:len(_MAGIC)] == b"MVHCKPT1":
        raise ValueError(f"{path}: checkpoint format MVHCKPT1 predates this version, "
                         f"which reads {_MAGIC.decode()}; train the model again")
    if data[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(data) < _PREFIX:
        raise ValueError(f"{path}: truncated checkpoint ({len(data)} bytes)")
    (head_len,) = struct.unpack("<Q", data[len(_MAGIC):_PREFIX])
    body_at = _PREFIX + head_len
    try:
        header = json.loads(data[_PREFIX:body_at])
        net, config, tensors, optim = (header[k] for k in ("net", "config", "tensors", "optim"))
        net_cfg = NetConfig(**net)
        entries = [(e["name"], tuple(e["shape"])) for e in tensors]
        has_optim = optim is not None
        step = optim["step"] if has_optim else None
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed checkpoint header "
                         f"({type(e).__name__}: {e})") from None
    # Each object read above has every key it needs; it may hold no other.
    for where, found, keys in [("header", header, {"net", "config", "tensors", "optim"}),
                               ("header optim", optim or {}, {"step"}),
                               *((f"header tensors[{i}]", e, {"name", "shape"})
                                 for i, e in enumerate(tensors))]:
        if unknown := set(found) - keys:
            raise ValueError(f"{path}: {where} has unknown key {min(unknown)!r}")
    if json.dumps(net, sort_keys=True) != json.dumps(asdict(net_cfg), sort_keys=True):
        raise ValueError(f"{path}: header net {net!r} does not spell out {net_cfg}")
    if type(config) is not dict:
        raise ValueError(f"{path}: header config is not a JSON object ({config!r})")
    if has_optim and (type(step) is not int or step < 0):  # no bool, float, string or null
        raise ValueError(f"{path}: header optim.step is not a non-negative integer ({step!r})")
    for name, shape in entries:  # exact, since 32.0 and True compare equal to 32 and 1
        if any(type(d) is not int for d in shape):
            raise ValueError(f"{path}: header tensor {name!r} shape is not a list of "
                             f"integers ({list(shape)!r})")
    if entries != net_cfg.layout():
        raise ValueError(f"{path}: header tensors do not match the layout of {net_cfg}")
    n = net_cfg.num_params
    if len(data) != body_at + n * 8:
        raise ValueError(f"{path}: {len(data)} bytes, expected {body_at + n * 8} for "
                         f"{n} float64 parameters")
    flat = np.frombuffer(data, dtype="<f8", offset=body_at).astype(np.float64)
    params = ModelParams(net_cfg, flat)
    _check_finite(path, params)
    return Checkpoint(params=params, net_cfg=net_cfg, config=config, step=step)
