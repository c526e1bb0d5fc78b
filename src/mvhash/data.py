"""Feature ingestion, synthetic dataset generation, shuffling, batching.

Datasets live on disk as a JSON manifest plus, per split, a raw
little-endian float32 tensor file (one row per record, views concatenated
in order) and a CSV sidecar with the record id and its multi-hot label as
a bitstring. In memory a split is columnar, loaded or drawn: the ids, one (N, D)
float32 feature matrix, which only the network widens, and one (N, C) int8 label
matrix. A drawn value is summed in float64 and rounded once to float32, so a
drawn split equals itself written and loaded again.
Every load error is one DatasetError line naming the file at fault. A CSV
sidecar is parsed in one pass that stops at its first fault in file order;
its count, ids and labels are then checked column by column.
"""

import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "Columns",
    "DatasetSplit",
    "SynthConfig",
    "DatasetError",
    "option",
    "check_fields",
    "load_features",
    "write_features",
    "generate_synthetic",
    "epoch_rows",
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

    ids: list  # None in a training block, which nothing looks up by id
    features: np.ndarray  # (N, D) float32, views concatenated in order
    labels: np.ndarray  # (N, C) multi-hot; int8 as loaded or drawn

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class DatasetSplit:
    """The three splits; load_features leaves a split it did not read None."""

    train: Columns
    retrieval: Columns
    query: Columns
    view_dims: tuple
    categories: int


def option(default, help, **cli):
    """A config field that is also a command-line flag: `help` describes it, and
    `cli` may hold `flag` (when it is not --<name>) and `choices`."""
    return field(default=default, metadata={"help": help, **cli})


def check_fields(cfg, rules):
    """Check a config dataclass: exact field types and choices, then its value rules.

    An int field must hold an int, a float field a finite int or float, and a
    tuple field a tuple, so a bool, a string or a NaN never passes; a field
    declared with `option(choices=...)` must hold one of them. Once these
    hold, rules() gives (name, ok, rule) triples; the first that is not ok is
    a ValueError naming the field.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is int and type(value) is not int:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        # an int compares exactly, so one too large for a float fails, as do NaN and inf
        if f.type is float and (type(value) not in (int, float)
                                or not abs(value) <= sys.float_info.max):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if f.type is tuple and type(value) is not tuple:
            raise ValueError(f"{f.name} must be a tuple, got {value!r}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
    for name, ok, rule in rules():
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {getattr(cfg, name)!r}")


@dataclass(frozen=True)
class SynthConfig:
    categories: int = option(4, "number of categories C")
    views: int = option(None, "number of views, checked against --view-dims when given "
                              "(default: one per view dim)")
    view_dims: tuple = option((16, 16), "comma-separated per-view dims")
    train_size: int = option(800, "training split records")
    retrieval_size: int = option(800, "retrieval split records")
    query_size: int = option(200, "query split records")
    noise_sigma: float = option(0.1, "cluster noise stddev", flag="--sigma")
    multi_label_p: float = option(0.0, "probability that a record has two categories")
    seed: int = option(0, "RNG seed")

    def __post_init__(self):
        if self.views is None:  # one view per dim; 0 lets a non-tuple fail as view_dims
            object.__setattr__(self, "views",
                               len(self.view_dims) if type(self.view_dims) is tuple else 0)
        check_fields(self, lambda: (
            *((name, getattr(self, name) >= 1, ">= 1") for name in
              ("categories", "train_size", "retrieval_size", "query_size")),
            ("view_dims", self.view_dims and all(type(d) is int and d >= 1
                                                 for d in self.view_dims),
             "one or more positive integers"),
            ("views", self.views >= 1, ">= 1"),
            ("view_dims", len(self.view_dims) == self.views,
             f"one positive integer for each of {self.views} views"),
            ("noise_sigma", self.noise_sigma > 0, "> 0"),
            ("multi_label_p", 0.0 <= self.multi_label_p <= 1.0, "in [0, 1]"),
            ("seed", self.seed >= 0, ">= 0"),
        ))


def stack_views(split: Columns, rows=None) -> np.ndarray:
    """(b, D) feature rows of `rows` (default: all), views side by side: a
    C-contiguous copy for an index array, a view of `features` for a slice."""
    return split.features if rows is None else split.features[rows]


def stack_labels(split: Columns, rows=None) -> np.ndarray:
    """(b, C) float64 labels of `rows` (default: every row); a view of `labels`
    when they are float64 already and `rows` is a slice or None."""
    return np.asarray(split.labels if rows is None else split.labels[rows], dtype=np.float64)


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
        np.asarray(cols.features, "<f4").tofile(out / feat_file)  # no copy when float32
        chars = (cols.labels != 0).view(np.uint8) + ord("0")
        bits = chars.view(f"S{split.categories}").ravel().astype(str)
        with open(out / rec_file, "w", newline="", encoding="utf-8") as fh:
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


def _reject(file, name, ids, bad, problem):
    """Raise for the first row flagged in `bad`, naming the file, the split and the record id."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DatasetError(f"{file}: split {name!r}, record {ids[i]!r}: {problem(i)}")


def _read_records(name, rec_path, count, categories):
    """(ids, (count, C) int8 labels) of a CSV sidecar: one pass of the reader checks the
    encoding, quoting, header and row widths; then the count, ids and labels as columns."""
    ids, bits = [], []
    try:
        with open(rec_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["id", "label"]:
                raise DatasetError(f"{rec_path}: split {name!r}: bad header")
            for n, row in enumerate(reader, 2):
                if len(row) != 2:
                    raise DatasetError(f"{rec_path}: split {name!r}: malformed row {n}")
                ids.append(row[0])
                bits.append(row[1])
    except (UnicodeDecodeError, csv.Error) as e:
        raise DatasetError(f"{rec_path}: split {name!r}: {e}") from None
    if len(ids) != count:  # name the first record past the count, or the last one
        edge = f" (at record {ids[min(count, len(ids) - 1)]!r})" if ids else ""
        raise DatasetError(f"{rec_path}: split {name!r}: {len(ids)} records{edge}, "
                           f"manifest declares {count}")
    if len(set(ids)) != count:  # as Python strings: numpy's str dtype drops trailing NULs
        seen = set()
        for record in ids:
            if record in seen:
                raise DatasetError(f"{rec_path}: split {name!r}, record {record!r}: "
                                   "duplicate id")
            seen.add(record)
    # Lengths from Python: numpy's str dtype drops trailing NULs, so "010\0" would read as "010".
    lengths = np.fromiter(map(len, bits), dtype=np.int64, count=count)
    chars = np.array(bits, dtype=f"<U{categories}").view(np.uint32).reshape(count, categories)
    ones = chars == ord("1")
    bad = (lengths != categories) | ((chars != ord("0")) & ~ones).any(axis=1)
    _reject(rec_path, name, ids, bad, lambda i: f"bad label string {bits[i]!r}")
    _reject(rec_path, name, ids, ~ones.any(axis=1), lambda i: "no category set")
    return ids, ones.view(np.int8)


def load_features(manifest_path, read=SPLITS) -> DatasetSplit:
    """Load and validate a dataset from its manifest.

    The manifest may hold only the keys write_features writes. Every
    split's manifest entry, files and feature byte length are checked, and
    its count must be a positive integer (a DatasetError naming the field);
    only the splits named in `read` are parsed and validated row by row,
    and the others are None. A name in `read` that is not in SPLITS is a
    ValueError.
    """
    if unknown := [name for name in read if name not in SPLITS]:
        raise ValueError(f"read: unknown split {unknown[0]!r}, expected names from {SPLITS}")
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetError(f"manifest {path} is not valid JSON: {e}") from e

    def require(table, key, where="", problem=lambda value: None):
        """table[key]; a DatasetError naming the key if absent or if problem(value)."""
        if not isinstance(table, dict) or key not in table:
            raise DatasetError(f"manifest {path}: missing key '{where}{key}'")
        if bad := problem(table[key]):
            raise DatasetError(f"manifest {path}: {where}{key} {bad} ({table[key]!r})")
        return table[key]

    def known(table, keys, where=""):
        """A DatasetError naming the first key of table, if a dict, that is not in keys."""
        if isinstance(table, dict) and (unknown := sorted(set(table) - set(keys))):
            raise DatasetError(f"manifest {path}: unknown key '{where}{unknown[0]}'")

    # exact types, so a bool, a float or a numeric string never passes
    def positive(v):
        return None if type(v) is int and v > 0 else "is not a positive integer"

    def dims(v):
        ok = type(v) is list and v and not any(map(positive, v))
        return None if ok else "is not a non-empty list of positive integers"

    def file_name(v):  # no directory part, so the file lies in the dataset directory
        ok = type(v) is str and Path(v).name == v and v != ".."
        return None if ok else "is not a file name inside the dataset directory"

    known(manifest, ("view_dims", "categories", "splits"))
    view_dims = tuple(require(manifest, "view_dims", problem=dims))
    categories = require(manifest, "categories", problem=positive)
    split_table = require(manifest, "splits")
    known(split_table, SPLITS, "splits.")
    total_dim = sum(view_dims)
    base = path.parent

    splits = {}
    for name in SPLITS:
        entry, where = require(split_table, name, "splits."), f"splits.{name}."
        known(entry, ("features", "records", "count"), where)
        feat_path = base / require(entry, "features", where, file_name)
        rec_path = base / require(entry, "records", where, file_name)
        count = require(entry, "count", where, positive)
        for p in (feat_path, rec_path):
            if not p.is_file():
                raise DatasetError(f"split {name!r}: missing file {p}")

        size = feat_path.stat().st_size
        if size != count * total_dim * 4:
            raise DatasetError(f"{feat_path}: split {name!r}: {size} bytes, manifest {path} "
                               f"declares {count} x {total_dim} float32 values")
        if name not in read:
            splits[name] = None
            continue
        ids, labels = _read_records(name, rec_path, count, categories)
        feats = np.fromfile(feat_path, "<f4").reshape(count, total_dim)
        # A float64 sum of finite float32 values cannot overflow, and a NaN, an inf or
        # +inf with -inf makes it non-finite: one value a row, no (N, D) mask.
        with np.errstate(invalid="ignore", over="ignore"):
            finite = np.isfinite(feats.sum(axis=1, dtype=np.float64))
        _reject(feat_path, name, ids, ~finite, lambda i: "non-finite feature values")
        splits[name] = Columns(ids, feats, labels)
    return DatasetSplit(**splits, view_dims=view_dims, categories=categories)


def generate_synthetic(cfg: SynthConfig) -> DatasetSplit:
    """Clustered multi-view features: per-category unit anchors plus Gaussian noise.

    A sample's per-view feature is the mean of its categories' anchors for
    that view plus N(0, sigma^2) noise. Multi-label samples (two categories)
    are drawn with probability multi_label_p. Deterministic under seed.

    Every value is computed in float64 and rounded once to float32, the
    dtype of a loaded split, so write_features then load_features gives
    back this split.
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
        # all views draws the same stream as one call per view. Rows are
        # summed into the float64 `block` and cast into `feats` a block at a
        # time, since a cast per row costs more than the add itself.
        labels = np.zeros((count, cfg.categories), dtype=np.int8)
        feats = np.empty((count, anchors.shape[1]), dtype=np.float32)
        block = np.empty((min(count, 256), anchors.shape[1]))
        for start in range(0, count, len(block)):
            rows = block[:count - start]
            for i, row in enumerate(rows, start):
                p, e = rng.integers(cfg.categories), -1
                if cfg.categories > 1 and rng.random() < cfg.multi_label_p:
                    e = rng.integers(cfg.categories - 1)
                    e = e if e < p else e + 1
                    labels[i, e] = 1
                labels[i, p] = 1
                np.add(centers[p, e], rng.normal(scale=cfg.noise_sigma, size=row.shape),
                       out=row)
            feats[start:start + len(rows)] = rows
        return Columns([f"{prefix}{i:06d}" for i in range(count)], feats, labels)

    return DatasetSplit(
        train=make("tr", cfg.train_size),
        retrieval=make("db", cfg.retrieval_size),
        query=make("q", cfg.query_size),
        view_dims=cfg.view_dims,
        categories=cfg.categories,
    )


def epoch_rows(split: Columns, batch_size: int, seed: int, epoch: int) -> np.ndarray:
    """Epoch-seeded shuffle, cut into full batches: a (steps, batch_size) array
    whose row i holds the split's row indices of batch i.

    A ragged tail is dropped, which keeps the lambda-block slicing
    consistent across the whole epoch.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    if batch_size > len(split):
        raise ValueError(f"batch_size {batch_size} exceeds split size {len(split)}")
    order = np.random.default_rng((seed, epoch)).permutation(len(split))
    steps = len(split) // batch_size
    return order[:steps * batch_size].reshape(steps, batch_size)


def batches(split: Columns, batch_size: int, seed: int, epoch: int):
    """The rows of epoch_rows(split, batch_size, seed, epoch), one batch at a time."""
    yield from epoch_rows(split, batch_size, seed, epoch)
