"""Feature ingestion, synthetic dataset generation, shuffling, batching.

Datasets live on disk as a JSON manifest plus, per split, a raw
little-endian float32 tensor file (one row per record, views concatenated
in order) and a CSV sidecar with the record id and its multi-hot label as
a bitstring. In memory a split is columnar: the ids, one (N, D) feature matrix
(float32 as loaded; the network widens each batch) and one (N, C) int8 label matrix.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Columns",
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
SPLITS = ("train", "retrieval", "query")


class DatasetError(ValueError):
    """Malformed manifest, tensor file, or record."""


@dataclass
class Columns:
    """One split: row i is record ids[i], features[i] and labels[i]."""

    ids: list
    features: np.ndarray  # (N, D), views concatenated in order; float32 as loaded
    labels: np.ndarray  # (N, C) int8 multi-hot

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class DatasetSplit:
    """The three splits; load_features leaves a split it did not read None."""

    train: Columns
    retrieval: Columns
    query: Columns
    view_dims: tuple
    categories: int


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


def stack_views(split: Columns, rows=None) -> np.ndarray:
    """(b, D) feature rows of `rows` (default: all), views side by side: a
    C-contiguous copy for an index array, a view of `features` for a slice."""
    return split.features if rows is None else split.features[rows]


def stack_labels(split: Columns, rows=None) -> np.ndarray:
    """(b, C) float64 labels of `rows` (default: every row)."""
    return (split.labels if rows is None else split.labels[rows]).astype(np.float64)


def write_features(split: DatasetSplit, out_dir) -> Path:
    """Write manifest + per-split tensor/record files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "view_dims": list(split.view_dims),
        "categories": split.categories,
        "splits": {},
    }
    for name in SPLITS:
        cols = getattr(split, name)
        feat_file = f"{name}.f32"
        rec_file = f"{name}.csv"
        cols.features.astype("<f4").tofile(out / feat_file)
        chars = (cols.labels != 0).view(np.uint8) + ord("0")
        bits = chars.view(f"S{split.categories}").ravel().astype(str)
        with open(out / rec_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "label"])
            writer.writerows(zip(cols.ids, bits.tolist()))
        manifest["splits"][name] = {
            "features": feat_file,
            "records": rec_file,
            "count": len(cols),
        }
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def _reject(name, ids, bad, problem):
    """Raise for the first row flagged in `bad`, naming the split and the record id."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DatasetError(f"split {name!r}, record {ids[i]!r}: {problem(i)}")


def _read_records(name, rec_path, count, categories):
    """(ids, (count, C) int8 labels) of a CSV sidecar, checked as whole arrays."""
    with open(rec_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["id", "label"]]:
        raise DatasetError(f"split {name!r}: bad header in {rec_path.name}")
    rows = rows[1:]
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    if (widths != 2).any():
        raise DatasetError(f"split {name!r}: malformed row {int(np.argmax(widths != 2)) + 2}")
    ids, bits = map(list, zip(*rows)) if rows else ([], [])
    if len(ids) != count:  # name the first record past the count, or the last one
        edge = f" (at record {ids[min(count, len(ids) - 1)]!r})" if ids else ""
        raise DatasetError(f"split {name!r}: {len(ids)} records in {rec_path.name}{edge}, "
                           f"manifest declares {count}")
    first = np.unique(np.array(ids, dtype=str), return_index=True)[1]  # of each id
    _reject(name, ids, np.isin(np.arange(count), first, invert=True), lambda i: "duplicate id")
    # One column past C flags strings longer than C; shorter ones pad with 0.
    chars = np.array(bits, dtype=f"<U{categories + 1}").view(np.uint32)
    chars = chars.reshape(count, categories + 1)
    ones = chars[:, :categories] == ord("1")
    bad = (chars[:, categories] != 0) | ((chars[:, :categories] != ord("0")) & ~ones).any(axis=1)
    _reject(name, ids, bad, lambda i: f"bad label string {bits[i]!r}")
    _reject(name, ids, ~ones.any(axis=1), lambda i: "no category set")
    return ids, ones.astype(np.int8)


def load_features(manifest_path, read=SPLITS) -> DatasetSplit:
    """Load and validate a dataset from its manifest.

    Every split's manifest entry, files and feature byte length are
    checked; only the splits named in `read` are parsed and validated row
    by row, and the others are None.
    """
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DatasetError(f"manifest {path} is not valid JSON: {e}") from e

    def require(table, key, where="", problem=lambda value: None):
        """table[key]; a DatasetError naming the key if absent or if problem(value)."""
        if not isinstance(table, dict) or key not in table:
            raise DatasetError(f"manifest {path}: missing key '{where}{key}'")
        if bad := problem(table[key]):
            raise DatasetError(f"manifest {path}: {where}{key} {bad} ({table[key]!r})")
        return table[key]

    # exact types, so a bool, a float or a numeric string never passes
    def positive(v):
        return None if type(v) is int and v > 0 else "is not a positive integer"

    def dims(v):
        ok = type(v) is list and v and not any(map(positive, v))
        return None if ok else "is not a non-empty list of positive integers"

    def non_negative(v):
        if type(v) is not int:
            return "is not an integer"
        return "is negative" if v < 0 else None

    def file_name(v):  # no directory part, so the file lies in the dataset directory
        ok = type(v) is str and Path(v).name == v and v != ".."
        return None if ok else "is not a file name inside the dataset directory"

    view_dims = tuple(require(manifest, "view_dims", problem=dims))
    categories = require(manifest, "categories", problem=positive)
    split_table = require(manifest, "splits")
    total_dim = sum(view_dims)
    base = path.parent

    splits, counts = {}, []
    for name in SPLITS:
        entry, where = require(split_table, name, "splits."), f"splits.{name}."
        feat_path = base / require(entry, "features", where, file_name)
        rec_path = base / require(entry, "records", where, file_name)
        count = require(entry, "count", where, non_negative)
        for p in (feat_path, rec_path):
            if not p.is_file():
                raise DatasetError(f"split {name!r}: missing file {p}")

        size = feat_path.stat().st_size
        if size != count * total_dim * 4:
            raise DatasetError(f"split {name!r}: {feat_path.name} holds {size} bytes, "
                               f"expected {count} x {total_dim} float32 values")
        counts.append(count)
        if name not in read:
            splits[name] = None
            continue
        ids, labels = _read_records(name, rec_path, count, categories)
        feats = np.fromfile(feat_path, "<f4").reshape(count, total_dim)
        _reject(name, ids, ~np.isfinite(feats).all(axis=1), lambda i: "non-finite feature values")
        splits[name] = Columns(ids, feats, labels)

    if not all(counts):
        raise DatasetError("all three splits must be non-empty")
    return DatasetSplit(**splits, view_dims=view_dims, categories=categories)


def generate_synthetic(cfg: SynthConfig) -> DatasetSplit:
    """Clustered multi-view features: per-category unit anchors plus Gaussian noise.

    A sample's per-view feature is the mean of its categories' anchors for
    that view plus N(0, sigma^2) noise. Multi-label samples (two categories)
    are drawn with probability multi_label_p. Deterministic under seed.
    """
    rng = np.random.default_rng(cfg.seed)
    draws = [rng.normal(size=(cfg.categories, d)) for d in cfg.view_dims]
    # (C, D): per view, unit anchor rows; views side by side
    anchors = np.concatenate([a / np.linalg.norm(a, axis=1, keepdims=True) for a in draws], axis=1)
    # Indexed [p, e] by a record's categories: e = -1 (the last entry) for
    # a single-label record. A centre is the mean of the categories'
    # anchors, (a + b) / 2 for two as mean() computes it, and a for one.
    centers = np.concatenate([(anchors[:, None] + anchors[None]) / 2, anchors[:, None]], axis=1)

    def make(prefix, count):
        # Each record draws its primary category, the multi-label coin, the
        # optional second category, then its noise: one normal() call over
        # all views draws the same stream as one call per view.
        labels = np.zeros((count, cfg.categories), dtype=np.int8)
        feats = np.empty((count, anchors.shape[1]))
        for i in range(count):
            p, e = rng.integers(cfg.categories), -1
            if cfg.categories > 1 and rng.random() < cfg.multi_label_p:
                e = rng.integers(cfg.categories - 1)
                e = e if e < p else e + 1
                labels[i, e] = 1
            labels[i, p] = 1
            np.add(centers[p, e], rng.normal(scale=cfg.noise_sigma, size=feats.shape[1]),
                   out=feats[i])
        return Columns([f"{prefix}{i:06d}" for i in range(count)], feats, labels)

    return DatasetSplit(
        train=make("tr", cfg.train_size),
        retrieval=make("db", cfg.retrieval_size),
        query=make("q", cfg.query_size),
        view_dims=cfg.view_dims,
        categories=cfg.categories,
    )


def batches(split: Columns, batch_size: int, seed: int, epoch: int):
    """Epoch-seeded shuffle, then the row indices of each full batch.

    A ragged tail is dropped, which keeps the lambda-block slicing
    consistent across the whole epoch.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    if batch_size > len(split):
        raise ValueError(f"batch_size {batch_size} exceeds split size {len(split)}")
    rng = np.random.default_rng((seed, epoch))
    order = rng.permutation(len(split))
    for start in range(0, len(split) - batch_size + 1, batch_size):
        yield order[start:start + batch_size]
