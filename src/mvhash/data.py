"""Feature ingestion, synthetic dataset generation, shuffling, batching.

Datasets live on disk as a JSON manifest plus, per split, a raw
little-endian float32 tensor file (one row per record, views concatenated
in order) and a CSV sidecar with the record id and its multi-hot label as
a bitstring. Features are widened to float64 on load.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureRecord",
    "DatasetSplit",
    "SynthConfig",
    "DatasetError",
    "load_features",
    "write_features",
    "generate_synthetic",
    "batches",
    "stack_views",
    "stack_labels",
]

MANIFEST_NAME = "manifest.json"


class DatasetError(ValueError):
    """Malformed manifest, tensor file, or record."""


@dataclass
class FeatureRecord:
    id: str
    views: list  # one float64 vector per view
    label: np.ndarray  # multi-hot over C categories


@dataclass
class DatasetSplit:
    train: list
    retrieval: list
    query: list
    view_dims: tuple
    categories: int

    def split(self, name: str):
        return {"train": self.train, "retrieval": self.retrieval, "query": self.query}[name]


@dataclass(frozen=True)
class SynthConfig:
    categories: int = 4
    views: int = 2
    view_dims: tuple = (16, 16)
    train_size: int = 800
    retrieval_size: int = 800
    query_size: int = 200
    noise_sigma: float = 0.1
    multi_label_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.categories < 1 or self.views < 1:
            raise ValueError("categories and views must be >= 1")
        if len(self.view_dims) != self.views or any(d < 1 for d in self.view_dims):
            raise ValueError("view_dims must list one positive dim per view")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")
        if not 0.0 <= self.multi_label_p <= 1.0:
            raise ValueError("multi_label_p must be in [0, 1]")


def stack_views(records) -> list:
    """Per-view (b, d_view) matrices for a batch of records."""
    n_views = len(records[0].views)
    return [np.stack([r.views[v] for r in records]) for v in range(n_views)]


def stack_labels(records) -> np.ndarray:
    return np.stack([r.label for r in records]).astype(np.float64)


def _label_bits(label: np.ndarray) -> str:
    return "".join("1" if x else "0" for x in label)


def _parse_label(bits: str, categories: int, rec_id: str) -> np.ndarray:
    if len(bits) != categories or set(bits) - {"0", "1"}:
        raise DatasetError(f"record {rec_id}: bad label string {bits!r}")
    label = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
    if label.sum() == 0:
        raise DatasetError(f"record {rec_id}: no category set")
    return label.astype(np.int8)


def write_features(split: DatasetSplit, out_dir) -> Path:
    """Write manifest + per-split tensor/record files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "view_dims": list(split.view_dims),
        "categories": split.categories,
        "splits": {},
    }
    for name in ("train", "retrieval", "query"):
        records = split.split(name)
        feat_file = f"{name}.f32"
        rec_file = f"{name}.csv"
        rows = np.concatenate(
            [np.concatenate(r.views)[None, :] for r in records], axis=0
        ) if records else np.zeros((0, sum(split.view_dims)))
        rows.astype("<f4").tofile(out / feat_file)
        with open(out / rec_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "label"])
            for r in records:
                writer.writerow([r.id, _label_bits(r.label)])
        manifest["splits"][name] = {
            "features": feat_file,
            "records": rec_file,
            "count": len(records),
        }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_features(manifest_path) -> DatasetSplit:
    """Load and validate a dataset from its manifest."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DatasetError(f"manifest {path} is not valid JSON: {e}") from e

    def require(table, key, where=""):
        if not isinstance(table, dict) or key not in table:
            raise DatasetError(f"manifest {path}: missing key '{where}{key}'")
        return table[key]

    view_dims = tuple(int(d) for d in require(manifest, "view_dims"))
    categories = int(require(manifest, "categories"))
    split_table = require(manifest, "splits")
    total_dim = sum(view_dims)
    base = path.parent

    splits = {}
    for name in ("train", "retrieval", "query"):
        entry = require(split_table, name, "splits.")
        feat_path = base / require(entry, "features", f"splits.{name}.")
        rec_path = base / require(entry, "records", f"splits.{name}.")
        count = int(require(entry, "count", f"splits.{name}."))
        if count < 0:
            raise DatasetError(f"manifest {path}: splits.{name}.count is negative ({count})")
        for p in (feat_path, rec_path):
            if not p.exists():
                raise DatasetError(f"split {name!r}: missing file {p}")

        raw = np.fromfile(feat_path, dtype="<f4")
        if raw.size != count * total_dim:
            raise DatasetError(
                f"split {name!r}: {feat_path.name} holds {raw.size} floats, "
                f"expected {count} x {total_dim}"
            )
        feats = raw.astype(np.float64).reshape(count, total_dim)

        records = []
        seen = set()
        with open(rec_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["id", "label"]:
                raise DatasetError(f"split {name!r}: bad header in {rec_path.name}")
            for i, row in enumerate(reader):
                if len(row) != 2:
                    raise DatasetError(f"split {name!r}: malformed row {i + 2}")
                rec_id, bits = row
                if rec_id in seen:
                    raise DatasetError(f"split {name!r}: duplicate id {rec_id!r}")
                seen.add(rec_id)
                if i >= count:
                    raise DatasetError(f"split {name!r}: more records than declared count")
                vec = feats[i]
                if not np.isfinite(vec).all():
                    raise DatasetError(f"record {rec_id}: non-finite feature values")
                views, off = [], 0
                for d in view_dims:
                    views.append(vec[off:off + d].copy())
                    off += d
                records.append(FeatureRecord(rec_id, views, _parse_label(bits, categories, rec_id)))
        if len(records) != count:
            raise DatasetError(
                f"split {name!r}: {len(records)} records, manifest declares {count}"
            )
        splits[name] = records

    if not splits["train"] or not splits["retrieval"] or not splits["query"]:
        raise DatasetError("all three splits must be non-empty")
    return DatasetSplit(splits["train"], splits["retrieval"], splits["query"],
                        view_dims, categories)


def generate_synthetic(cfg: SynthConfig) -> DatasetSplit:
    """Clustered multi-view features: per-category unit anchors plus Gaussian noise.

    A sample's per-view feature is the mean of its categories' anchors for
    that view plus N(0, sigma^2) noise. Multi-label samples (two categories)
    are drawn with probability multi_label_p. Deterministic under seed.
    """
    rng = np.random.default_rng(cfg.seed)
    anchors = []  # per view: (C, d) unit rows
    for d in cfg.view_dims:
        a = rng.normal(size=(cfg.categories, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        anchors.append(a)

    def make(prefix, count):
        records = []
        for i in range(count):
            label = np.zeros(cfg.categories, dtype=np.int8)
            primary = rng.integers(cfg.categories)
            label[primary] = 1
            if cfg.categories > 1 and rng.random() < cfg.multi_label_p:
                extra = rng.integers(cfg.categories - 1)
                label[extra if extra < primary else extra + 1] = 1
            cats = np.flatnonzero(label)
            views = []
            for v, d in enumerate(cfg.view_dims):
                center = anchors[v][cats].mean(axis=0)
                views.append(center + rng.normal(scale=cfg.noise_sigma, size=d))
            records.append(FeatureRecord(f"{prefix}{i:06d}", views, label))
        return records

    return DatasetSplit(
        train=make("tr", cfg.train_size),
        retrieval=make("db", cfg.retrieval_size),
        query=make("q", cfg.query_size),
        view_dims=cfg.view_dims,
        categories=cfg.categories,
    )


def batches(records, batch_size: int, seed: int, epoch: int):
    """Epoch-seeded shuffle, then full batches; a ragged tail is dropped.

    Dropping the tail keeps the lambda-block slicing consistent across the
    whole epoch.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    if batch_size > len(records):
        raise ValueError(f"batch_size {batch_size} exceeds split size {len(records)}")
    rng = np.random.default_rng((seed, epoch))
    order = rng.permutation(len(records))
    for start in range(0, len(records) - batch_size + 1, batch_size):
        yield [records[j] for j in order[start:start + batch_size]]
