import csv
import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhash.data import SynthConfig, generate_synthetic, load_features, write_features
from mvhash.net import NetConfig, init_params
from mvhash.optim import init_optim
from mvhash.trainer import (Checkpoint, EpochRecord, TrainConfig, codes_for, dropout_stream,
                            export_curves, load_checkpoint, save_checkpoint, train)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SynthConfig(
        categories=3, views=2, view_dims=(5, 4), train_size=40,
        retrieval_size=20, query_size=10, noise_sigma=0.1, seed=1))


SMALL = dict(bits=4, proj_dim=3, batch_size=8, eval_every=0, seed=2)


def params_equal(a, b):
    return all(np.array_equal(x, y)
               for (_, x), (_, y) in zip(a.tensors(), b.tensors()))


class TestTrain:
    def test_zero_epochs_returns_initial_params(self, tiny_dataset):
        result = train(tiny_dataset, TrainConfig(epochs=0, **SMALL))
        assert result.records == []
        fresh = init_params(result.net_cfg, 2)
        assert params_equal(result.params, fresh)

    def test_deterministic_runs(self, tiny_dataset):
        cfg = TrainConfig(epochs=3, **SMALL)
        a = train(tiny_dataset, cfg)
        b = train(tiny_dataset, cfg)
        assert params_equal(a.params, b.params)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]

    def test_evaluation_schedule(self, tiny_dataset):
        cfg = TrainConfig(epochs=5, bits=4, proj_dim=3, batch_size=8,
                          eval_every=2, seed=2)
        result = train(tiny_dataset, cfg)
        evaluated = [r.epoch for r in result.records if r.test_map is not None]
        assert evaluated == [2, 4, 5]
        assert all(0.0 <= r.test_map <= 1.0 for r in result.records
                   if r.test_map is not None)
        assert result.best_epoch in evaluated

    def test_losses_finite(self, tiny_dataset):
        result = train(tiny_dataset, TrainConfig(epochs=3, **SMALL))
        assert all(np.isfinite(r.loss) for r in result.records)

    @pytest.mark.parametrize("ablation", ["metric-only", "quant-only",
                                          "image-only", "text-only", "concat-only"])
    def test_ablations_run(self, tiny_dataset, ablation):
        result = train(tiny_dataset, TrainConfig(epochs=1, ablation=ablation, **SMALL))
        assert len(result.records) == 1

    def test_cosine_schedule_runs(self, tiny_dataset):
        result = train(tiny_dataset, TrainConfig(epochs=2, lr_schedule="cosine", **SMALL))
        assert len(result.records) == 2

    def test_bad_ablation_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(ablation="nonsense")

    @pytest.mark.parametrize("field,value", [
        ("bits", 0), ("proj_dim", 0), ("batch_size", 1), ("dropout_p", 1.0),
        ("dropout_p", -0.1), ("lr", 0.0), ("lr", -1e-3), ("eval_every", -1),
        ("beta1", 1.0), ("beta2", 1.5), ("beta2", -0.1), ("eps", 0.0), ("eps", -1.0),
        ("weight_decay", -0.01), ("seed", -1),
        ("bits", "16"), ("bits", 16.5), ("bits", True), ("epochs", None),
        ("seed", 1.0), ("lr", "1e-3"), ("lr", True), ("mu", float("nan")),
        ("weight_decay", float("inf")), ("dropout_p", [0.1]),
    ])
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value).startswith(f"{field} must be")
        assert repr(value) in str(info.value)
        assert "\n" not in str(info.value)


class TestDropoutStream:
    def test_evaluation_draws_nothing_from_it(self, tiny_dataset):
        # dropout on (0.1 by default): a periodic eval that drew from the
        # training stream would shift every later mask
        runs = [train(tiny_dataset, TrainConfig(epochs=3, **{**SMALL, "eval_every": every}))
                for every in (0, 1)]
        assert [r.test_map is None for r in runs[1].records] == [False] * 3
        a, b = (r.params.buf.tobytes() for r in runs)
        assert a == b
        for moment in ("m", "v"):
            a, b = (getattr(r.optim_state, moment).tobytes() for r in runs)
            assert a == b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_apart_from_init_and_shuffle_streams(self, seed):
        draws = dropout_stream(seed).random(8)
        assert np.array_equal(draws, dropout_stream(seed).random(8))
        others = [seed] + [(seed, epoch) for epoch in range(4)]
        for other in others:
            assert not np.array_equal(draws, np.random.default_rng(other).random(8))


class TestFloat32Features:
    """A loaded split keeps the file's float32 and forward_batch widens the rows
    it reads: every result is bit-identical to the same rows given as float64."""

    @pytest.fixture(scope="class")
    def splits(self, tmp_path_factory):
        # 1-wide views take another matmul path; 600 rows span two codes_for chunks
        cfg = SynthConfig(categories=3, views=3, view_dims=(1, 5, 1), train_size=40,
                          retrieval_size=600, query_size=10, seed=4)
        loaded = load_features(write_features(generate_synthetic(cfg),
                                              tmp_path_factory.mktemp("f32")))
        def widen(cols):
            return dataclasses.replace(cols, features=cols.features.astype(np.float64))
        widened = dataclasses.replace(loaded, train=widen(loaded.train),
                                      retrieval=widen(loaded.retrieval), query=widen(loaded.query))
        assert loaded.train.features.dtype == np.float32
        assert widened.train.features.dtype == np.float64
        return loaded, widened

    @pytest.mark.parametrize("ablation", ["full", "image-only", "concat-only"])
    def test_codes_for(self, splits, ablation):
        _, _, view_mask, use_gating = TrainConfig(ablation=ablation).pipeline(3)
        params = init_params(NetConfig((1, 5, 1), 1, 8), seed=3)
        loaded, widened = (codes_for(s.retrieval, params, view_mask, use_gating)
                           for s in splits)
        assert loaded.tobytes() == widened.tobytes()

    @pytest.mark.parametrize("ablation", ["full", "image-only"])
    def test_train(self, splits, ablation):
        cfg = TrainConfig(epochs=2, bits=4, proj_dim=1, batch_size=8, eval_every=1,
                          ablation=ablation, seed=2)
        loaded, widened = (train(s, cfg) for s in splits)
        for a, b in ((loaded.params.buf, widened.params.buf),
                     (loaded.optim_state.m, widened.optim_state.m),
                     (loaded.optim_state.v, widened.optim_state.v)):
            assert a.tobytes() == b.tobytes()
        assert ([(r.loss, r.test_map) for r in loaded.records]
                == [(r.loss, r.test_map) for r in widened.records])


class TestPipelineMapping:
    def test_metric_only_drops_mu(self):
        loss_cfg, mw, mask, gated = TrainConfig(ablation="metric-only").pipeline(2)
        assert loss_cfg.mu == 0.0 and mw == 1.0 and mask is None and gated

    def test_quant_only_zeroes_metric(self):
        loss_cfg, mw, mask, gated = TrainConfig(ablation="quant-only").pipeline(2)
        assert mw == 0.0 and loss_cfg.mu == 0.5

    def test_single_view_masks(self):
        _, _, mask, _ = TrainConfig(ablation="image-only").pipeline(2)
        assert mask == [True, False]
        _, _, mask, _ = TrainConfig(ablation="text-only").pipeline(2)
        assert mask == [False, True]

    def test_concat_only_disables_gate(self):
        *_, gated = TrainConfig(ablation="concat-only").pipeline(2)
        assert not gated


class TestExportCurves:
    def records(self):
        return [EpochRecord(1, 2.5, None, 10.0),
                EpochRecord(2, 2.25, 0.5, 11.0),
                EpochRecord(3, 2.0, None, 9.0)]

    def test_row_count(self, tmp_path):
        path = tmp_path / "curves.csv"
        export_curves(self.records(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,map,wall_ms"
        assert len(lines) == 4

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "curves.csv"
        records = self.records()
        export_curves(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, records):
            assert int(row["epoch"]) == rec.epoch
            assert float(row["loss"]) == rec.loss
            assert (row["map"] == "") == (rec.test_map is None)
            if rec.test_map is not None:
                assert float(row["map"]) == rec.test_map

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_curves([], tmp_path / "x.csv")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, TrainConfig(epochs=2, **SMALL))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result.params, result.net_cfg,
                        config={"seed": 2}, optim=result.optim_state)
        ckpt = load_checkpoint(path)
        assert params_equal(ckpt.params, result.params)
        assert ckpt.net_cfg == result.net_cfg
        assert ckpt.config == {"seed": 2}
        assert ckpt.optim.step == result.optim_state.step
        assert np.array_equal(ckpt.optim.m, result.optim_state.m)
        assert np.array_equal(ckpt.optim.v, result.optim_state.v)

        resaved = tmp_path / "ckpt2.bin"
        save_checkpoint(resaved, ckpt.params, ckpt.net_cfg,
                        config=ckpt.config, optim=ckpt.optim)
        assert path.read_bytes() == resaved.read_bytes()

    def test_without_optimizer_state(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, TrainConfig(epochs=0, **SMALL))
        path = tmp_path / "init.bin"
        save_checkpoint(path, result.params, result.net_cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.optim is None
        assert params_equal(ckpt.params, result.params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)


def assert_one_line_error(path):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message
    return message


def rewrite_header(path, edit):
    """Apply edit() to the JSON header of the checkpoint at path, keeping the body."""
    data = path.read_bytes()
    (head_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(head)) + head + data[16 + head_len:])


class TestCheckpointValidation:
    @settings(max_examples=12, deadline=None)
    @given(view_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           proj=st.integers(1, 2), bits=st.integers(1, 3), with_optim=st.booleans(),
           extra=st.binary(min_size=1, max_size=16))
    def test_truncated_or_padded_file_rejected(self, view_dims, proj, bits, with_optim, extra):
        net_cfg = NetConfig(tuple(view_dims), proj, bits)
        params = init_params(net_cfg, 0)
        optim = init_optim(params) if with_optim else None
        with tempfile.TemporaryDirectory() as tmp:
            full, cut = Path(tmp) / "full.bin", Path(tmp) / "cut.bin"
            save_checkpoint(full, params, net_cfg, config={"seed": 0}, optim=optim)
            data = full.read_bytes()
            assert params_equal(load_checkpoint(full).params, params)
            for offset in range(len(data)):
                cut.write_bytes(data[:offset])
                assert_one_line_error(cut)
            cut.write_bytes(data + extra)
            assert_one_line_error(cut)

    @pytest.mark.parametrize("edit", [
        lambda h: h["tensors"][0].update(shape=h["tensors"][0]["shape"][::-1]),
        lambda h: h["tensors"][-1].update(name="bias"),
        lambda h: h["tensors"].reverse(),
        lambda h: h["net"].update(code_bits=2),
    ], ids=["shape", "name", "order", "net"])
    def test_header_must_match_layout(self, tmp_path, edit):
        net_cfg = NetConfig((3, 2), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, edit)
        assert_one_line_error(path)

    @pytest.mark.parametrize("key, value", [
        ("view_dims", [3.9, 2]), ("view_dims", [3, True]), ("proj_dim", 2.0), ("code_bits", 3.0),
    ])
    def test_non_integer_net_dims_named(self, tmp_path, key, value):
        # int() would accept each of these: 3.9 truncates to 3, True and 2.0 compare equal
        net_cfg = NetConfig((3, 2), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, lambda h: h["net"].update({key: value}))
        assert key in assert_one_line_error(path)

    def test_malformed_header_named(self, tmp_path):
        net_cfg = NetConfig((3,), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, lambda h: h.pop("net"))
        assert "'net'" in assert_one_line_error(path)
