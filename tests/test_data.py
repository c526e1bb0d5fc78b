import json

import numpy as np
import pytest

from mvhash.data import (DatasetError, DatasetSplit, FeatureRecord, SynthConfig,
                         batches, generate_synthetic, load_features,
                         stack_labels, stack_views, write_features)


def tiny_split():
    rng = np.random.default_rng(0)
    def rec(prefix, i):
        return FeatureRecord(
            f"{prefix}{i}",
            [rng.normal(size=4), rng.normal(size=3)],
            np.array([1, 0] if i % 2 else [0, 1], dtype=np.int8),
        )
    return DatasetSplit(
        train=[rec("t", i) for i in range(3)],
        retrieval=[rec("r", i) for i in range(3)],
        query=[rec("q", i) for i in range(2)],
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
        for orig, back in zip(split.train, loaded.train):
            assert back.id == orig.id
            assert np.array_equal(back.label, orig.label)
            for a, b in zip(orig.views, back.views):
                # stored as float32, so round-trip is exact at that precision
                assert np.array_equal(b, a.astype(np.float32).astype(np.float64))

    def test_accepts_directory_path(self, tmp_path):
        write_features(tiny_split(), tmp_path)
        assert load_features(tmp_path).categories == 2


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
        split.train[1].id = split.train[0].id
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


class TestSynthetic:
    def test_degenerate_noise_collapses_clusters(self):
        cfg = SynthConfig(noise_sigma=1e-12, train_size=40, retrieval_size=1,
                          query_size=1, seed=3)
        split = generate_synthetic(cfg)
        by_cat = {}
        for r in split.train:
            by_cat.setdefault(tuple(r.label), []).append(r)
        for group in by_cat.values():
            first = group[0]
            for other in group[1:]:
                for a, b in zip(first.views, other.views):
                    assert np.allclose(a, b, atol=1e-9)

    def test_deterministic_under_seed(self):
        a = generate_synthetic(SynthConfig(seed=5, train_size=20, retrieval_size=5,
                                           query_size=5))
        b = generate_synthetic(SynthConfig(seed=5, train_size=20, retrieval_size=5,
                                           query_size=5))
        for ra, rb in zip(a.train, b.train):
            assert ra.id == rb.id
            assert all(np.array_equal(x, y) for x, y in zip(ra.views, rb.views))
            assert np.array_equal(ra.label, rb.label)

    def test_nearest_neighbor_separability(self):
        # 1-NN in raw concatenated feature space validates cluster structure
        cfg = SynthConfig(categories=4, views=2, view_dims=(16, 16),
                          train_size=200, retrieval_size=1, query_size=1,
                          noise_sigma=0.1, seed=7)
        split = generate_synthetic(cfg)
        feats = np.stack([np.concatenate(r.views) for r in split.train])
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
        for r in split.train + split.retrieval + split.query:
            assert r.label.sum() >= 1

    def test_multi_label_frequency(self):
        p = 0.3
        n = 10_000
        cfg = SynthConfig(train_size=n, retrieval_size=1, query_size=1,
                          multi_label_p=p, seed=11)
        split = generate_synthetic(cfg)
        multi = sum(r.label.sum() > 1 for r in split.train)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(multi - n * p) <= 3 * sigma


class TestBatches:
    def records(self, n):
        return [FeatureRecord(str(i), [np.zeros(2)], np.array([1], dtype=np.int8))
                for i in range(n)]

    def test_drops_short_tail(self):
        out = list(batches(self.records(10), 4, seed=0, epoch=0))
        assert len(out) == 2
        assert all(len(b) == 4 for b in out)

    def test_deterministic_per_epoch(self):
        recs = self.records(10)
        a = [[r.id for r in b] for b in batches(recs, 4, seed=1, epoch=2)]
        b = [[r.id for r in b] for b in batches(recs, 4, seed=1, epoch=2)]
        assert a == b
        c = [[r.id for r in b] for b in batches(recs, 4, seed=1, epoch=3)]
        assert a != c

    def test_permutation_no_duplicates(self):
        recs = self.records(12)
        emitted = [r.id for b in batches(recs, 4, seed=2, epoch=0) for r in b]
        assert len(emitted) == len(set(emitted)) == 12
        assert sorted(emitted) == sorted(r.id for r in recs)

    def test_batch_size_errors(self):
        with pytest.raises(ValueError):
            list(batches(self.records(4), 1, seed=0, epoch=0))
        with pytest.raises(ValueError):
            list(batches(self.records(4), 8, seed=0, epoch=0))


def test_stack_views_shapes():
    split = tiny_split()
    views = stack_views(split.train)
    assert views[0].shape == (3, 4) and views[1].shape == (3, 3)
