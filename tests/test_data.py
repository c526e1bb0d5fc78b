import json
import shutil
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvhash.data import (Columns, DatasetError, DatasetSplit, SynthConfig,
                         batches, generate_synthetic, load_features,
                         stack_labels, stack_views, write_features)


def tiny_split():
    rng = np.random.default_rng(0)
    def cols(prefix, n):
        return Columns(
            [f"{prefix}{i}" for i in range(n)],
            rng.normal(size=(n, 7)),
            np.array([[1, 0] if i % 2 else [0, 1] for i in range(n)], dtype=np.int8),
        )
    return DatasetSplit(
        train=cols("t", 3),
        retrieval=cols("r", 3),
        query=cols("q", 2),
        view_dims=(4, 3),
        categories=2,
    )


class TestRoundTrip:
    def test_shapes_preserved(self, tmp_path):
        manifest = write_features(tiny_split(), tmp_path)
        loaded = load_features(manifest)
        assert loaded.view_dims == (4, 3)
        assert loaded.categories == 2
        assert len(loaded.train) == 3 and len(loaded.query) == 2

    def test_values_identical(self, tmp_path):
        split = tiny_split()
        loaded = load_features(write_features(split, tmp_path))
        orig, back = split.train, loaded.train
        assert back.ids == orig.ids
        assert np.array_equal(back.labels, orig.labels)
        # stored as float32, so round-trip is exact at that precision
        assert np.array_equal(back.features, orig.features.astype(np.float32).astype(np.float64))

    def test_accepts_directory_path(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        assert load_features(tmp_path).categories == 2

    def test_unread_splits_checked_by_size_only(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "query", lambda t: t.replace("q1,10", "q1,1x"))
        loaded = load_features(tmp_path, read=("train",))
        assert loaded.retrieval is None and loaded.query is None
        assert loaded.train.ids == ["t0", "t1", "t2"]
        feat = tmp_path / "query.f32"
        feat.write_bytes(feat.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="query"):
            load_features(tmp_path, read=("train",))

    @pytest.mark.parametrize("read", [("train", "qury"), ("Train",), ("train", None)])
    def test_unknown_split_named(self, tmp_path, read):
        write_features(tiny_split(), tmp_path)
        with pytest.raises(ValueError) as info:
            load_features(tmp_path, read=read)
        assert str(info.value) == (f"read: unknown split {read[-1]!r}, "
                                   "expected names from ('train', 'retrieval', 'query')")


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_features(tmp_path / "nope.json")

    def test_truncated_feature_file(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        feat = tmp_path / "train.f32"
        feat.write_bytes(feat.read_bytes()[:-8])
        with pytest.raises(DatasetError, match="train"):
            load_features(tmp_path)

    def test_duplicate_id(self, tmp_path):
        split = tiny_split()
        split.train.ids[1] = split.train.ids[0]
        write_features(split, tmp_path)
        with pytest.raises(DatasetError, match="duplicate id"):
            load_features(tmp_path)

    def test_empty_label_named_in_error(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        csv_path = tmp_path / "query.csv"
        text = csv_path.read_text().replace("q1,10", "q1,00")
        csv_path.write_text(text)
        with pytest.raises(DatasetError, match="q1"):
            load_features(tmp_path)

    def test_nan_features_named_in_error(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        feat = tmp_path / "query.f32"
        raw = np.fromfile(feat, dtype="<f4")
        raw[0] = np.nan
        raw.tofile(feat)
        with pytest.raises(DatasetError, match="q0"):
            load_features(tmp_path)


    def test_largest_float32_values_accepted(self, tmp_path):
        # their float32 sum overflows to inf; the check sums in float64
        split = tiny_split()
        split.query.features[1] = np.finfo(np.float32).max
        write_features(split, tmp_path)
        loaded = load_features(tmp_path)
        assert np.all(loaded.query.features[1] == np.finfo(np.float32).max)

    def test_finiteness_check_holds_no_mask_of_the_features(self, tmp_path):
        # An (N, D) bool mask would add N * D bytes, a quarter of the features.
        rows, dim = 2000, 2048

        def cols(prefix, n, value):
            return Columns([f"{prefix}{i}" for i in range(n)],
                           np.full((n, dim), value, dtype=np.float32),
                           np.eye(2, dtype=np.int8)[np.arange(n) % 2])
        write_features(DatasetSplit(train=cols("t", 3, 0), retrieval=cols("r", rows, 1),
                                    query=cols("q", 2, 0), view_dims=(dim - 3, 3),
                                    categories=2), tmp_path)
        tracemalloc.start()
        try:
            loaded = load_features(tmp_path, read=("retrieval",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        feature_bytes = loaded.retrieval.features.nbytes
        assert peak < feature_bytes + rows * dim // 8, f"{peak / 1e6:.2f} MB"


def rewrite_csv(tmp_path, name, edit):
    path = tmp_path / f"{name}.csv"
    path.write_text(edit(path.read_text()))


class TestErrorNamesFirstBadRecord:
    """Each check reports the split and the id of the first bad row, not row 0."""

    def load_error(self, tmp_path):
        with pytest.raises(DatasetError) as info:
            load_features(tmp_path)
        return str(info.value)

    def test_non_finite_features(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        feat = tmp_path / "retrieval.f32"
        raw = np.fromfile(feat, dtype="<f4")
        raw[7 + 3] = np.inf  # row 1 of 7-wide rows
        raw[14] = np.nan  # row 2
        raw.tofile(feat)
        err = self.load_error(tmp_path)
        assert "'retrieval'" in err and "'r1'" in err and "non-finite" in err
        assert "'r0'" not in err and "'r2'" not in err

    @pytest.mark.parametrize("bits", ["1x", "100", "1", "", "1 ", "10\0"])
    def test_bad_label_string(self, tmp_path, bits):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "train", lambda t: t.replace("t1,10", f"t1,{bits}"))
        err = self.load_error(tmp_path)
        assert "'train'" in err and "'t1'" in err and "bad label string" in err
        assert "'t0'" not in err

    def test_empty_label(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "train", lambda t: t.replace("t2,01", "t2,00"))
        err = self.load_error(tmp_path)
        assert "'train'" in err and "'t2'" in err and "no category set" in err

    def test_duplicate_id(self, tmp_path):
        split = tiny_split()
        split.retrieval.ids[:] = ["r0", "r1", "r1"]
        write_features(split, tmp_path)
        err = self.load_error(tmp_path)
        assert "'retrieval'" in err and "'r1'" in err and "duplicate id" in err
        assert "'r0'" not in err

    def test_too_many_rows(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "query", lambda t: t + "q2,10\nq3,01\n")
        err = self.load_error(tmp_path)
        assert "'query'" in err and "'q2'" in err and "declares 2" in err
        assert "'q3'" not in err

    def test_too_few_rows(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "retrieval", lambda t: t.replace("r2,01\n", ""))
        err = self.load_error(tmp_path)
        assert "'retrieval'" in err and "'r1'" in err and "declares 3" in err

    def test_malformed_row(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        rewrite_csv(tmp_path, "train", lambda t: t.replace("t1,10", "t1,10,x"))
        assert "malformed row 3" in self.load_error(tmp_path)

    def test_first_fault_in_file_order(self, tmp_path):
        """A malformed row is reported before a bad byte the reader has not yet decoded."""
        write_features(tiny_split(), tmp_path)
        path = tmp_path / "train.csv"
        raw = path.read_bytes().replace(b"t1,10", b"t1,10,x")
        path.write_bytes(raw + b"pad,01\n" * 4000 + b"\xff,01\n")  # 28 KB past the fault
        err = self.load_error(tmp_path)
        assert "malformed row 3" in err and "decode" not in err


class TestErrorsNameTheFile:
    """Every load error is one line that names the file at fault."""

    def load_error(self, tmp_path):
        with pytest.raises(DatasetError) as info:
            load_features(tmp_path)
        message = str(info.value)
        assert "\n" not in message
        return message

    @pytest.mark.parametrize("name", ["manifest.json", "train.csv", "query.csv"])
    def test_non_utf8_byte(self, tmp_path, name):
        write_features(tiny_split(), tmp_path)
        path = tmp_path / name
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"\xff" + raw[20:])
        err = self.load_error(tmp_path)
        assert str(path) in err and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("name, edit, problem", [
        ("train.csv", lambda t: t.replace("t1,10", "t1,10,x"), "malformed row 3"),
        ("train.csv", lambda t: t.replace("t1,10", "t1,1x"), "bad label string"),
        ("train.csv", lambda t: t.replace("t2,01", "t2,00"), "no category set"),
        ("retrieval.csv", lambda t: t.replace("r2,", "r1,"), "duplicate id"),
        ("query.csv", lambda t: t + "q2,10\n", "declares 2"),
        ("query.csv", lambda t: t.replace("id,", "ID,"), "bad header"),
    ])
    def test_bad_record(self, tmp_path, name, edit, problem):
        write_features(tiny_split(), tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text()))
        err = self.load_error(tmp_path)
        assert str(path) in err and problem in err

    def test_ids_differing_by_a_trailing_nul(self, tmp_path):
        split = tiny_split()
        split.train.ids[1] = "t0\0"
        if sys.version_info >= (3, 11):  # ids compare as Python strings, NUL and all
            write_features(split, tmp_path)
            assert load_features(tmp_path).train.ids == ["t0", "t0\0", "t2"]
        else:  # the csv module neither writes nor reads NUL before 3.11
            write_features(tiny_split(), tmp_path)
            rewrite_csv(tmp_path, "train", lambda t: t.replace("t1,", "t0\0,"))
            err = self.load_error(tmp_path)
            assert str(tmp_path / "train.csv") in err and "'train'" in err and "NUL" in err

    def test_non_finite_features(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        path = tmp_path / "query.f32"
        raw = np.fromfile(path, dtype="<f4")
        raw[8] = np.inf
        raw.tofile(path)
        err = self.load_error(tmp_path)
        assert str(path) in err and "'q1'" in err and "non-finite" in err

    def test_opposite_infinities_in_one_row(self, tmp_path):
        # +inf and -inf sum to NaN, so the row-sum check still rejects the row
        write_features(tiny_split(), tmp_path)
        path = tmp_path / "query.f32"
        raw = np.fromfile(path, dtype="<f4")
        raw[7:9] = [np.inf, -np.inf]
        raw.tofile(path)
        err = self.load_error(tmp_path)
        assert str(path) in err and "'q1'" in err and "non-finite" in err
        assert "'q0'" not in err

    def test_feature_file_size_names_the_manifest_too(self, tmp_path):
        manifest = write_features(tiny_split(), tmp_path)
        path = tmp_path / "train.f32"
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        err = self.load_error(tmp_path)
        assert str(path) in err and str(manifest) in err and "3 x 7 float32" in err


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       counts=st.tuples(*[st.integers(1, 12)] * 3),
       view_dims=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
       categories=st.integers(1, 9),
       ids=st.lists(st.text(alphabet='ab,"\' 1', min_size=1, max_size=4),
                    min_size=36, max_size=36, unique=True))
def test_round_trip_exact(tmp_path_factory, seed, counts, view_dims, categories, ids):
    """write_features then load_features: ids, labels and float32-rounded features."""
    rng = np.random.default_rng(seed)
    parts, at = [], 0
    for n in counts:
        labels = (rng.random((n, categories)) < 0.4).astype(np.int8)
        labels[np.arange(n), rng.integers(categories, size=n)] = 1
        feats = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, sum(view_dims)))
        parts.append(Columns(ids[at:at + n], feats, labels))
        at += n
    split = DatasetSplit(*parts, view_dims=view_dims, categories=categories)
    loaded = load_features(write_features(split, tmp_path_factory.mktemp("rt")))
    assert (loaded.view_dims, loaded.categories) == (view_dims, categories)
    for orig, back in zip(parts, (loaded.train, loaded.retrieval, loaded.query)):
        assert back.ids == orig.ids
        assert back.labels.dtype == np.int8 and np.array_equal(back.labels, orig.labels)
        assert back.features.dtype == np.float32  # as stored; the network widens its rows
        assert np.array_equal(back.features, orig.features.astype(np.float32))


def edit_manifest(tmp_path, edit):
    manifest = write_features(tiny_split(), tmp_path)
    table = json.loads(manifest.read_text())
    edit(table)
    manifest.write_text(json.dumps(table))
    return manifest


class TestManifestErrors:
    @pytest.mark.parametrize("key", ["view_dims", "categories", "splits"])
    def test_missing_top_level_key(self, tmp_path, key):
        manifest = edit_manifest(tmp_path, lambda t: t.pop(key))
        with pytest.raises(DatasetError) as info:
            load_features(manifest)
        assert f"'{key}'" in str(info.value) and str(manifest) in str(info.value)

    @pytest.mark.parametrize("key", ["count", "features", "records"])
    def test_missing_split_key(self, tmp_path, key):
        manifest = edit_manifest(tmp_path, lambda t: t["splits"]["retrieval"].pop(key))
        with pytest.raises(DatasetError) as info:
            load_features(manifest)
        assert f"'splits.retrieval.{key}'" in str(info.value)
        assert str(manifest) in str(info.value)

    def test_negative_count(self, tmp_path):
        def edit(table):
            table["splits"]["query"]["count"] = -1
        manifest = edit_manifest(tmp_path, edit)
        with pytest.raises(DatasetError, match="splits.query.count is negative"):
            load_features(manifest)

    @pytest.mark.parametrize("key, value", [
        ("categories", "3"),
        ("categories", True),
        ("splits.query.count", "10"),
        ("splits.query.count", True),
        ("view_dims", "abc"),
        ("view_dims", [4.5, 4.5]),
        ("view_dims", []),
        ("view_dims", [-1, 10]),
        ("view_dims", [4, True]),
        ("splits.query.features", 5),
        ("splits.query.features", "../other/query.f32"),
    ])
    def test_value_rejected_by_exact_type(self, tmp_path, key, value):
        # 3 categories, (4, 4) views and 10 query records: "3", "10" and a
        # truncated [4.5, 4.5] would each read as the right value
        cfg = SynthConfig(categories=3, view_dims=(4, 4), train_size=4, retrieval_size=4,
                          query_size=10)
        manifest = write_features(generate_synthetic(cfg), tmp_path / "data")
        (tmp_path / "other").mkdir()  # a readable file outside the dataset directory
        shutil.copy(tmp_path / "data" / "query.f32", tmp_path / "other" / "query.f32")
        table = entry = json.loads(manifest.read_text())
        *parents, last = key.split(".")
        for part in parents:
            entry = entry[part]
        entry[last] = value
        manifest.write_text(json.dumps(table))
        with pytest.raises(DatasetError) as info:
            load_features(manifest)
        message = str(info.value)
        assert str(manifest) in message and key in message and "\n" not in message


class TestSynthetic:
    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
        ("train_size", 0),
        ("query_size", 0),
        ("train_size", -1),
        ("seed", -1),
        ("categories", True),
        ("train_size", 2.5),
        ("view_dims", (4.5, 4)),
    ])
    def test_bad_value_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError) as info:
            SynthConfig(**{field: value})
        assert str(info.value).startswith(f"{field} must be")

    def test_degenerate_noise_collapses_clusters(self):
        cfg = SynthConfig(noise_sigma=1e-12, train_size=40, retrieval_size=1,
                          query_size=1, seed=3)
        split = generate_synthetic(cfg)
        labels, feats = split.train.labels, split.train.features
        for label in np.unique(labels, axis=0):
            group = feats[(labels == label).all(axis=1)]
            assert np.allclose(group, group[0], atol=1e-9)

    def test_deterministic_under_seed(self):
        a = generate_synthetic(SynthConfig(seed=5, train_size=20, retrieval_size=5,
                                           query_size=5))
        b = generate_synthetic(SynthConfig(seed=5, train_size=20, retrieval_size=5,
                                           query_size=5))
        assert a.train.ids == b.train.ids
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_nearest_neighbor_separability(self):
        # 1-NN in raw concatenated feature space validates cluster structure
        cfg = SynthConfig(categories=4, views=2, view_dims=(16, 16),
                          train_size=200, retrieval_size=1, query_size=1,
                          noise_sigma=0.1, seed=7)
        split = generate_synthetic(cfg)
        feats = split.train.features
        labels = stack_labels(split.train)
        dists = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        nn = dists.argmin(axis=1)
        correct = sum(labels[i] @ labels[nn[i]] > 0 for i in range(len(nn)))
        assert correct / len(nn) >= 0.95

    def test_every_record_has_a_category(self):
        split = generate_synthetic(SynthConfig(train_size=100, retrieval_size=10,
                                               query_size=10, multi_label_p=0.5,
                                               seed=9))
        for cols in (split.train, split.retrieval, split.query):
            assert (cols.labels.sum(axis=1) >= 1).all()

    def test_multi_label_frequency(self):
        p = 0.3
        n = 10_000
        cfg = SynthConfig(train_size=n, retrieval_size=1, query_size=1,
                          multi_label_p=p, seed=11)
        split = generate_synthetic(cfg)
        multi = int((split.train.labels.sum(axis=1) > 1).sum())
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(multi - n * p) <= 3 * sigma


class TestBatches:
    def records(self, n):
        return Columns([str(i) for i in range(n)], np.zeros((n, 2)),
                       np.ones((n, 1), dtype=np.int8))

    def test_drops_short_tail(self):
        out = list(batches(self.records(10), 4, seed=0, epoch=0))
        assert len(out) == 2
        assert all(len(b) == 4 for b in out)

    def test_deterministic_per_epoch(self):
        recs = self.records(10)
        a = [[recs.ids[j] for j in b] for b in batches(recs, 4, seed=1, epoch=2)]
        b = [[recs.ids[j] for j in b] for b in batches(recs, 4, seed=1, epoch=2)]
        assert a == b
        c = [[recs.ids[j] for j in b] for b in batches(recs, 4, seed=1, epoch=3)]
        assert a != c

    def test_permutation_no_duplicates(self):
        recs = self.records(12)
        emitted = [recs.ids[j] for b in batches(recs, 4, seed=2, epoch=0) for j in b]
        assert len(emitted) == len(set(emitted)) == 12
        assert sorted(emitted) == sorted(recs.ids)

    def test_batch_size_errors(self):
        with pytest.raises(ValueError):
            list(batches(self.records(4), 1, seed=0, epoch=0))
        with pytest.raises(ValueError):
            list(batches(self.records(4), 8, seed=0, epoch=0))

    def test_smallest_batch_size(self):
        out = list(batches(self.records(5), 2, seed=0, epoch=0))
        assert [len(b) for b in out] == [2, 2]


def test_stack_views_shapes():
    split = tiny_split()
    x = stack_views(split.train)
    assert x.shape == (3, 7) and x is split.train.features


@pytest.mark.parametrize("rows", [None, np.array([2, 0]), np.array([1])])
def test_stack_views_c_contiguous(rows):
    split = tiny_split()
    x = stack_views(split.train, rows)
    picked = split.train.features[np.arange(3) if rows is None else rows]
    assert x.flags.c_contiguous and x.dtype == np.float64
    assert np.array_equal(x, picked)


def test_stack_views_slice_is_a_view():
    split = tiny_split()
    x = stack_views(split.train, slice(1, 3))
    assert x.shape == (2, 7) and np.shares_memory(x, split.train.features)
    assert np.array_equal(x, split.train.features[1:3])


def test_stack_labels_rows():
    split = tiny_split()
    labels = stack_labels(split.train, np.array([1, 2]))
    assert labels.dtype == np.float64
    assert np.array_equal(labels, split.train.labels[[1, 2]])
    assert np.array_equal(stack_labels(split.train), split.train.labels)
