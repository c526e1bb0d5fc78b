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
from mvhash.trainer import (Checkpoint, EpochRecord, TrainConfig, _gather, _test_map, codes_for,
                            dropout_stream, export_curves, load_checkpoint, save_checkpoint,
                            train)


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

    @pytest.mark.parametrize("field,value", [
        ("bits", 0), ("proj_dim", 0), ("batch_size", 1), ("dropout_p", 1.0),
        ("dropout_p", -0.1), ("lr", 0.0), ("lr", -1e-3), ("eval_every", -1),
        ("beta1", 1.0), ("beta2", 1.5), ("beta2", -0.1), ("eps", 0.0), ("eps", -1.0),
        ("weight_decay", -0.01), ("seed", -1),
        ("bits", "16"), ("bits", 16.5), ("bits", True), ("epochs", None),
        ("seed", 1.0), ("lr", "1e-3"), ("lr", True), ("mu", float("nan")),
        ("weight_decay", float("inf")), ("dropout_p", [0.1]), ("lr", 10**400),
        ("ablation", "nonsense"), ("ablation", 3), ("lr_schedule", "linear"), ("beta2", 1.0),
    ])
    def test_bad_value_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value).startswith(f"{field} must be")
        assert repr(value) in str(info.value)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("lam,batch_size", [(0.1, 8), (0.25, 2), (0.01, 99)])
    def test_batch_without_a_pair_block_rejected_at_construction(self, lam, batch_size):
        with pytest.raises(ValueError) as info:
            TrainConfig(lam=lam, batch_size=batch_size)
        assert str(info.value) == (f"lam * batch_size = {lam * batch_size:.3f} < 1; "
                                   "increase lam or the batch size")

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("bits", 1), ("proj_dim", 1), ("batch_size", 2), ("dropout_p", 0.0),
        ("beta1", 0.0), ("beta2", 0.0), ("weight_decay", 0.0), ("seed", 0), ("eval_every", 0),
    ])
    def test_boundary_value_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value


class TestPinnedRun:
    """Three epochs of the acceptance config, pinned to values of a reference run.

    Any change to batching, the loss, the gradients or the optimizer moves
    these far more than a relative 1e-9; other CPUs and BLAS kernels move
    only the last bits.
    """

    def test_losses_and_final_parameters(self):
        dataset = generate_synthetic(SynthConfig(
            categories=4, views=2, view_dims=(32, 32), train_size=800,
            retrieval_size=800, query_size=200, noise_sigma=0.1, seed=42))
        result = train(dataset, TrainConfig(bits=16, proj_dim=32, epochs=3, batch_size=8,
                                            eval_every=0, seed=0))
        buf = result.params.buf
        assert [r.loss for r in result.records] == pytest.approx(
            [2.9424389728301126, 2.937491779904377, 2.9379916783247984], rel=1e-9, abs=0)
        assert [buf.sum(), buf @ buf, buf[0], buf[-1]] == pytest.approx(
            [-5.959564337266775, 49.52477507496742, 0.04754999927712833,
             0.05310493743950095], rel=1e-9, abs=0)
        assert result.optim_state.step == 300


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
        _, _, views, gated = TrainConfig(ablation=ablation).pipeline(3)
        params = init_params(NetConfig((1, 5, 1), 1, 8, views, gated), seed=3)
        loaded, widened = (codes_for(s.retrieval, params) for s in splits)
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


def test_gather_reads_rows_in_batch_order(tiny_dataset):
    rows = np.arange(40)[::-1].reshape(5, 8)
    block, sims = _gather(tiny_dataset.train, rows, 4)
    assert len(block) == rows.size and sims.shape == (5, 4, 4)
    assert np.array_equal(block.features, tiny_dataset.train.features[rows.ravel()])
    assert np.array_equal(block.labels, tiny_dataset.train.labels[rows.ravel()])


class TestPipelineMapping:
    def test_metric_only_drops_mu(self):
        loss_cfg, mw, views, gated = TrainConfig(ablation="metric-only").pipeline(2)
        assert loss_cfg.mu == 0.0 and mw == 1.0 and views == (0, 1) and gated

    def test_quant_only_zeroes_metric(self):
        loss_cfg, mw, views, gated = TrainConfig(ablation="quant-only").pipeline(2)
        assert mw == 0.0 and loss_cfg.mu == 0.5

    def test_single_view_masks(self):
        # a single-view ablation is a network that reads that one view
        _, _, views, _ = TrainConfig(ablation="image-only").pipeline(2)
        assert views == (0,)
        _, _, views, _ = TrainConfig(ablation="text-only").pipeline(3)
        assert views == (1,)

    def test_concat_only_disables_gate(self):
        *_, gated = TrainConfig(ablation="concat-only").pipeline(2)
        assert not gated

    @pytest.mark.parametrize("ablation", ["full", "image-only", "text-only", "concat-only"])
    def test_trained_network_has_the_pipeline_structure(self, tiny_dataset, ablation):
        cfg = TrainConfig(epochs=1, ablation=ablation, **SMALL)
        _, _, views, gated = cfg.pipeline(2)
        result = train(tiny_dataset, cfg)
        assert (result.net_cfg.views, result.net_cfg.gated) == (views, gated)
        assert result.params.cfg == result.net_cfg

    def test_test_map_rejects_another_structure(self, tiny_dataset):
        params = init_params(NetConfig((5, 4), 3, 4, gated=False), 0)
        assert 0.0 <= _test_map(tiny_dataset, params, (0, 1), False) <= 1.0
        for views, gated in (((0, 1), True), ((0,), False)):
            with pytest.raises(ValueError, match="network has views"):
                _test_map(tiny_dataset, params, views, gated)

    def test_text_only_needs_a_second_view(self, tiny_dataset):
        one_view = dataclasses.replace(tiny_dataset, view_dims=(9,))
        with pytest.raises(ValueError, match="text-only needs at least two views"):
            train(one_view, TrainConfig(epochs=1, ablation="text-only", **SMALL))


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
        assert ckpt.step == result.optim_state.step
        # the body is the parameters alone: the moments are not stored
        assert path.read_bytes().endswith(result.params.buf.astype("<f8").tobytes())
        assert path.stat().st_size == 16 + header_length(path) + 8 * result.params.buf.size

        resaved = tmp_path / "ckpt2.bin"
        optim = dataclasses.replace(init_optim(ckpt.params), step=ckpt.step)
        save_checkpoint(resaved, ckpt.params, ckpt.net_cfg, config=ckpt.config, optim=optim)
        assert path.read_bytes() == resaved.read_bytes()

    @pytest.mark.parametrize("views, gated", [((1,), True), ((0, 1), False)],
                             ids=["text-only", "concat-only"])
    def test_structure_round_trip(self, tmp_path, views, gated):
        net_cfg = NetConfig((3, 2), 2, 3, views, gated)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.net_cfg == net_cfg and params_equal(ckpt.params, init_params(net_cfg, 0))

    def test_without_optimizer_state(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, TrainConfig(epochs=0, **SMALL))
        path = tmp_path / "init.bin"
        save_checkpoint(path, result.params, result.net_cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.step is None
        assert params_equal(ckpt.params, result.params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)


def header_length(path):
    return struct.unpack("<Q", path.read_bytes()[8:16])[0]


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
        lambda h: h["net"].update(gated=False),
        lambda h: h["net"].update(views=[1]),
        lambda h: h["net"].update(views=None),
        lambda h: h["net"].pop("views"),
        lambda h: h["net"].pop("gated"),
        lambda h: h["net"].update(extra=1),
    ], ids=["shape", "name", "order", "net", "gated", "views", "views-null", "views-missing",
            "gated-missing", "net-extra-key"])
    def test_header_must_match_layout(self, tmp_path, edit):
        net_cfg = NetConfig((3, 2), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, edit)
        assert_one_line_error(path)

    @pytest.mark.parametrize("proj, shape", [(2, [2.0, 3.0]), (1, [True, 3])],
                             ids=["float", "bool"])
    def test_non_integer_tensor_shape_named(self, tmp_path, proj, shape):
        # each entry compares equal to the stored dimension
        net_cfg = NetConfig((3, 2), proj, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, lambda h: h["tensors"][0].update(shape=shape))
        assert "norm_w.0" in assert_one_line_error(path)

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

    @pytest.mark.parametrize("edit, key", [
        (lambda h: h.update(config=[1, 2]), "config"),
        (lambda h: h.update(config="seed"), "config"),
        (lambda h: h["optim"].update(step=-1), "optim.step"),
        (lambda h: h["optim"].update(step="seven"), "optim.step"),
        (lambda h: h["optim"].update(step=7.0), "optim.step"),
        (lambda h: h["optim"].update(step=True), "optim.step"),
        (lambda h: h["optim"].update(step=None), "optim.step"),
    ], ids=["config-list", "config-str", "step-negative", "step-str", "step-float",
            "step-bool", "step-null"])
    def test_bad_config_or_step_named(self, tmp_path, edit, key):
        net_cfg = NetConfig((3, 2), 2, 3)
        params = init_params(net_cfg, 0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, net_cfg, config={"seed": 0}, optim=init_optim(params))
        rewrite_header(path, edit)
        assert key in assert_one_line_error(path)

    @pytest.mark.parametrize("edit, where, key", [
        (lambda h: h.update(extra="x"), "header", "extra"),
        (lambda h: h["optim"].update(lr="NaN"), "header optim", "lr"),
        (lambda h: h["tensors"][0].update(dtype="f2"), "header tensors[0]", "dtype"),
    ], ids=["top-level", "optim", "tensor-entry"])
    def test_unread_key_named(self, tmp_path, edit, where, key):
        net_cfg = NetConfig((3, 2), 2, 3)
        params = init_params(net_cfg, 0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, net_cfg, config={"seed": 0}, optim=init_optim(params))
        rewrite_header(path, edit)
        assert f"{where} has unknown key {key!r}" in assert_one_line_error(path)

    @pytest.mark.parametrize("views, gated", [(None, True), (None, False), ((0,), True),
                                              ((1,), False), ((0, 2), True)])
    @pytest.mark.parametrize("config, with_optim", [(None, False), ({"seed": 3}, True)])
    def test_every_written_file_loads(self, tmp_path, views, gated, config, with_optim):
        net_cfg = NetConfig((3, 2, 4), 2, 5, views, gated)
        params = init_params(net_cfg, 1)
        optim = init_optim(params) if with_optim else None
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, net_cfg, config=config, optim=optim)
        ckpt = load_checkpoint(path)
        assert ckpt.net_cfg == net_cfg and params_equal(ckpt.params, params)
        assert ckpt.config == (config or {}) and ckpt.step == (0 if with_optim else None)

    @pytest.mark.parametrize("names", [("norm_w.1",), ("hash_b",), ("fusion_b",),
                                       ("hash_b", "norm_w.1")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_named(self, tmp_path, names, value):
        net_cfg = NetConfig((3, 2), 2, 3)
        params = init_params(net_cfg, 0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, net_cfg)
        tensors = dict(params.tensors())
        for name in names:
            tensors[name].flat[-1] = value
        first = min(names, key=list(tensors).index)  # in buffer order
        # the file as the writer would lay it out; save_checkpoint itself refuses it
        body = params.buf.astype("<f8").tobytes()
        path.write_bytes(path.read_bytes()[:-len(body)] + body)
        expected = f"{path}: tensor {first!r} holds a non-finite value"
        assert assert_one_line_error(path) == expected
        refused = tmp_path / "refused.bin"
        with pytest.raises(ValueError) as info:
            save_checkpoint(refused, params, net_cfg)
        assert str(info.value) == f"{refused}: tensor {first!r} holds a non-finite value"
        assert not refused.exists()

    def test_format_1_rejected(self, tmp_path):
        net_cfg = NetConfig((3, 2), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        path.write_bytes(b"MVHCKPT1" + path.read_bytes()[8:])
        assert "MVHCKPT1" in assert_one_line_error(path)

    def test_malformed_header_named(self, tmp_path):
        net_cfg = NetConfig((3,), 2, 3)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(net_cfg, 0), net_cfg)
        rewrite_header(path, lambda h: h.pop("net"))
        assert "'net'" in assert_one_line_error(path)
