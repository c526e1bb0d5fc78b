import argparse
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvhash.data
import mvhash.retrieval
from mvhash.cli import build_parser, main
from mvhash.data import SynthConfig, load_features, stack_labels
from mvhash.net import NetConfig, binarize, init_params
from mvhash.retrieval import average_precision, build_index, pack_code, search
from mvhash.trainer import TrainConfig, codes_for, load_checkpoint, save_checkpoint
from test_trainer import rewrite_header


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["synth", "--out", str(out), "--categories", "3",
                 "--view-dims", "6,5", "--train-size", "60",
                 "--retrieval-size", "30", "--query-size", "10",
                 "--sigma", "0.1", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                 "--epochs", "2", "--batch-size", "8", "--bits", "8",
                 "--proj-dim", "4", "--eval-every", "1", "--seed", "3"])
    assert code == 0
    return out


def shuffled_ranking_map(query_labels, corpus_labels, trials=50, seed=0):
    """Expected mAP when rankings are uniformly random."""
    rng = np.random.default_rng(seed)
    n = corpus_labels.shape[0]
    maps = []
    for _ in range(trials):
        aps = []
        for q in query_labels:
            order = rng.permutation(n)
            rel = (corpus_labels[order] @ q > 0).astype(float)
            aps.append(average_precision(rel, int(rel.sum())))
        maps.append(np.mean(aps))
    return float(np.mean(maps))


class TestSynth:
    def test_artifacts_loadable(self, dataset_dir):
        split = load_features(dataset_dir)
        assert split.view_dims == (6, 5)
        assert len(split.train) == 60
        assert (dataset_dir / "synth_config.json").exists()

    def test_deterministic(self, dataset_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--categories", "3",
                     "--view-dims", "6,5", "--train-size", "60",
                     "--retrieval-size", "30", "--query-size", "10",
                     "--sigma", "0.1", "--seed", "5"]) == 0
        for name in ("train.f32", "retrieval.f32", "query.f32", "train.csv"):
            assert (tmp_path / name).read_bytes() == (dataset_dir / name).read_bytes()


    def test_draw_order_pinned(self, tmp_path):
        # The acceptance dataset and the benchmark corpora depend on the draw
        # order; multi-label draws make every branch of the synthesis draw.
        assert main(["synth", "--out", str(tmp_path), "--categories", "5",
                     "--views", "3", "--view-dims", "3,4,2", "--train-size", "40",
                     "--retrieval-size", "30", "--query-size", "10", "--sigma", "0.2",
                     "--multi-label-p", "0.4", "--seed", "17"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in SYNTH_DIGESTS}
        assert digests == SYNTH_DIGESTS

    def test_views_default_to_the_view_dims(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--view-dims", "3,4,2",
                     "--train-size", "10", "--retrieval-size", "10", "--query-size", "4"]) == 0
        assert json.loads((tmp_path / "synth_config.json").read_text())["views"] == 3
        assert load_features(tmp_path).view_dims == (3, 4, 2)

    def test_given_views_must_match_the_view_dims(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--views", "2",
                     "--view-dims", "3,4,2"]) == 1
        assert capsys.readouterr().err == ("error: view_dims must be one positive integer for "
                                           "each of 2 views, got (3, 4, 2)\n")
        assert not (tmp_path / "d").exists()

    def test_peak_memory_below_the_float64_features(self, tmp_path, capsys):
        # The features are drawn into float32 rows and written without a copy,
        # about 0.6x the float64 bytes here. A float64 draw, 18.4 MB at 9k x 256,
        # plus a float32 copy of its largest split peaks at about 1.4x.
        rows, dims = 9000, (128, 128)
        float64_bytes = rows * sum(dims) * 8
        tracemalloc.start()
        try:
            code = main(["synth", "--out", str(tmp_path), "--categories", "8",
                         "--view-dims", ",".join(map(str, dims)), "--train-size", "6000",
                         "--retrieval-size", "2500", "--query-size", "500",
                         "--multi-label-p", "0.2", "--seed", "3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.75 * float64_bytes, f"{peak / 1e6:.1f} MB"


SYNTH_DIGESTS = {
    "train.f32": "e4e37ff2b1e699b09eaca99da9d620a08d9b12a1ff3cf1a276c49174ae6b6040",
    "retrieval.f32": "12dc328f92f6bf471ffbfa328aef593fee0f6298e98873b93fa8f019f869d580",
    "query.f32": "4e3fc1f72daebaa8f1e8957c8e398fd53bc485a275b400c84da227ee62a81d84",
    "train.csv": "a6bdc456fb629d40b64c6fbbb22ea5417c6527d96e4402e854d7ce20b385a9d4",
    "retrieval.csv": "3c89a2609a2506050c371a2029494f5384b3a7a1e8e3a0bd08494c55e6e70cad",
    "query.csv": "e99acc6e3195b9eafc5bf4002f13544cd9c777f9be4fcefe2873cd7b85d906fb",
    "manifest.json": "b4f5a04148a55039ce2cb02371ad9a13db5c2624994d7abdd9fa63390ab3c805",
}


class TestFlagsFromConfigs:
    """The train and synth flags are derived from TrainConfig and SynthConfig."""

    @pytest.mark.parametrize("command,cls", [("train", TrainConfig), ("synth", SynthConfig)])
    def test_one_flag_per_field(self, command, cls):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices[command]._actions
                 if a.dest not in ("help", "data", "out", "config")]
        assert sorted(dests) == sorted(f.name for f in fields(cls))

    def test_synth_defaults_are_the_dataclass_defaults(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "synth_config.json").read_text())
        assert written == json.loads(json.dumps(asdict(SynthConfig())))

    def test_train_defaults_are_the_dataclass_defaults(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path),
                     "--epochs", "0"]) == 0
        written = json.loads((tmp_path / "train_config.json").read_text())
        assert written == asdict(TrainConfig(epochs=0))

    @pytest.mark.parametrize("flag,value,field", [
        ("--sigma", "nan", "noise_sigma"), ("--train-size", "0", "train_size"),
        ("--train-size", "-1", "train_size"), ("--seed", "-1", "seed"),
    ])
    def test_bad_synth_value_is_one_line_naming_the_field(self, tmp_path, capsys, flag, value,
                                                          field):
        assert main(["synth", "--out", str(tmp_path / "d"), flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must be")
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_artifacts(self, run_dir):
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "checkpoint.bin", "curves.csv", "train_config.json"]
        resolved = json.loads((run_dir / "train_config.json").read_text())
        assert resolved["epochs"] == 2 and resolved["lr"] == 1e-5

    def test_zero_epochs_checkpoint(self, dataset_dir, tmp_path):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path),
                     "--epochs", "0", "--bits", "8", "--proj-dim", "4",
                     "--batch-size", "8"]) == 0
        ckpt = load_checkpoint(tmp_path / "checkpoint.bin")
        assert ckpt.net_cfg.code_bits == 8

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 1, "bits": 4, "proj_dim": 3,
                                        "batch_size": 8, "mu": 0.25}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--config", str(cfg_file), "--bits", "8"]) == 0
        resolved = json.loads((out / "train_config.json").read_text())
        assert resolved["bits"] == 8  # flag wins
        assert resolved["mu"] == 0.25  # config file survives

    @pytest.mark.parametrize("text,detail", [
        ('{"bits": "16"}', "bits must be an integer, got '16'"),
        ('{"bits": 16.5}', "bits must be an integer, got 16.5"),
        ('{"lr": true}', "lr must be a finite number, got True"),
        ('{"ablation": "nonsense"}', "ablation must be one of"),
        ('{"lr": 1' + '0' * 400 + '}', "lr must be a finite number"),
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"bits": 16,', "Expecting property name"),
    ])
    def test_bad_config_file_is_one_line_naming_it(self, dataset_dir, tmp_path, capsys,
                                                   text, detail):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--config", str(cfg_file), "--epochs", "1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(cfg_file) in err[0] and detail in err[0]

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["train", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x"), "--config", str(cfg_file)]) == 1


class TestSplitsRead:
    """Rows are parsed only for the splits a command reads."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        names, read_records = [], mvhash.data._read_records

        def spy(name, *args):
            names.append(name)
            return read_records(name, *args)
        monkeypatch.setattr(mvhash.data, "_read_records", spy)
        return names

    def train(self, dataset_dir, out, eval_every):
        return main(["train", "--data", str(dataset_dir), "--out", str(out), "--epochs", "1",
                     "--batch-size", "8", "--bits", "8", "--proj-dim", "4",
                     "--eval-every", eval_every])

    def test_train_without_eval_parses_train_only(self, dataset_dir, tmp_path, parsed):
        assert self.train(dataset_dir, tmp_path, "0") == 0
        assert parsed == ["train"]

    def test_train_with_eval_parses_every_split(self, dataset_dir, tmp_path, parsed):
        assert self.train(dataset_dir, tmp_path, "1") == 0
        assert parsed == ["train", "retrieval", "query"]

    @pytest.mark.parametrize("command", ["eval", "search"])
    def test_eval_and_search_parse_retrieval_and_query(self, dataset_dir, run_dir, parsed,
                                                       command, capsys):
        assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir)]) == 0
        assert parsed == ["retrieval", "query"]


class TestGroupingBuiltBySearch:
    """Only search() reads the distinct-code grouping, so nothing else builds it."""

    @pytest.fixture
    def grouped(self, monkeypatch):
        calls, group = [], mvhash.retrieval._group

        def spy(words):
            calls.append(words.shape)
            return group(words)
        monkeypatch.setattr(mvhash.retrieval, "_group", spy)
        return calls

    def test_eval_never_groups(self, dataset_dir, run_dir, grouped, capsys):
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--cutoffs", "5"]) == 0
        assert grouped == []

    def test_train_with_periodic_eval_never_groups(self, dataset_dir, tmp_path, grouped,
                                                    capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path),
                     "--epochs", "2", "--batch-size", "8", "--bits", "8", "--proj-dim", "4",
                     "--eval-every", "1"]) == 0
        assert grouped == []

    def test_search_groups_once(self, dataset_dir, run_dir, grouped, capsys):
        assert main(["search", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "-k", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10  # one search per query
        assert len(grouped) == 1


class TestEval:
    def test_report_written(self, dataset_dir, run_dir, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--out", str(report_path),
                     "--cutoffs", "1,5,10"]) == 0
        lines = report_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert "mAP" in capsys.readouterr().out

    def test_untrained_checkpoint_near_random_baseline(self, tmp_path, capsys):
        # high noise: with no class structure in the features, an untrained
        # projection must rank like a shuffled baseline (a random projection
        # of *separable* features keeps cluster structure, so low-noise data
        # would not sit near the baseline even before training)
        dataset_dir = tmp_path / "noisy"
        assert main(["synth", "--out", str(dataset_dir), "--categories", "3",
                     "--view-dims", "6,5", "--train-size", "60",
                     "--retrieval-size", "60", "--query-size", "20",
                     "--sigma", "3.0", "--seed", "5"]) == 0
        out = tmp_path / "run0"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--epochs", "0", "--bits", "8", "--proj-dim", "4",
                     "--batch-size", "8", "--seed", "11"]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--data", str(dataset_dir)]) == 0
        last_line = capsys.readouterr().out.strip().splitlines()[-1]
        reported = float(last_line.split(":")[1].strip())
        split = load_features(dataset_dir)
        baseline = shuffled_ranking_map(stack_labels(split.query),
                                        stack_labels(split.retrieval))
        assert abs(reported - baseline) <= 0.1


class TestSearch:
    def test_ranked_output(self, dataset_dir, run_dir, capsys):
        assert main(["search", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "-k", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10  # one per query record
        for line in lines:
            qid, hits = line.split(":")
            assert qid.startswith("q")
            assert len(hits.split()) == 5

    def test_same_lines_as_search_per_query(self, dataset_dir, run_dir, capsys):
        checkpoint = run_dir / "checkpoint.bin"
        assert main(["search", "--checkpoint", str(checkpoint),
                     "--data", str(dataset_dir), "-k", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ckpt, split = load_checkpoint(checkpoint), load_features(dataset_dir)
        index = build_index(binarize(codes_for(split.retrieval, ckpt.params)),
                            split.retrieval.ids, stack_labels(split.retrieval))
        q_codes = binarize(codes_for(split.query, ckpt.params))
        assert lines == [f"{qid}: {' '.join(search(index, pack_code(q_codes[i]), 7))}"
                         for i, qid in enumerate(split.query.ids)]


class TestCheckpointMatchesDataset:
    def one_line_error(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        return err[0]

    @pytest.mark.parametrize("command", ["eval", "search"])
    def test_view_dims_mismatch_fails_up_front(self, run_dir, tmp_path, capsys, command):
        swapped = tmp_path / "swapped"
        assert main(["synth", "--out", str(swapped), "--categories", "3",
                     "--view-dims", "5,6", "--train-size", "10",
                     "--retrieval-size", "10", "--query-size", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.bin"
        assert main([command, "--checkpoint", str(checkpoint), "--data", str(swapped)]) == 1
        err = self.one_line_error(capsys)
        assert str(checkpoint) in err and str(swapped) in err
        assert "(6, 5)" in err and "(5, 6)" in err

    @pytest.mark.parametrize("command", ["eval", "search"])
    def test_invalid_stored_pipeline_rejected(self, tmp_path, capsys, command):
        # A text-only network reads a second view; a checkpoint of one view must not
        # claim one.
        data = tmp_path / "one_view"
        assert main(["synth", "--out", str(data), "--categories", "3", "--views", "1",
                     "--view-dims", "6", "--train-size", "10", "--retrieval-size", "10",
                     "--query-size", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        net_cfg = NetConfig((6,), 4, 8)
        checkpoint = tmp_path / "text_only.bin"
        save_checkpoint(checkpoint, init_params(net_cfg, 0), net_cfg,
                        config={"ablation": "text-only", "best_epoch": 3})
        rewrite_header(checkpoint, lambda h: h["net"].update(views=[1]))
        assert main([command, "--checkpoint", str(checkpoint), "--data", str(data)]) == 1
        err = self.one_line_error(capsys)
        assert str(checkpoint) in err and "views" in err

    @pytest.fixture(scope="class")
    def ablation_runs(self, dataset_dir, run_dir, tmp_path_factory):
        """Checkpoint path of a full, a concat-only and an image-only run."""
        runs = {"full": run_dir / "checkpoint.bin"}
        for ablation in ("concat-only", "image-only"):
            out = tmp_path_factory.mktemp(ablation)
            assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                         "--epochs", "2", "--batch-size", "8", "--bits", "8",
                         "--proj-dim", "4", "--eval-every", "1", "--seed", "3",
                         "--ablation", ablation]) == 0
            runs[ablation] = out / "checkpoint.bin"
        return runs

    @pytest.mark.parametrize("command", [["eval", "--cutoffs", "5"], ["search", "-k", "3"]],
                             ids=["eval", "search"])
    @pytest.mark.parametrize("ablation, edit", [
        ("concat-only", lambda c: {**c, "ablation": "full"}),
        ("image-only", lambda c: {**c, "ablation": "full"}),
        ("full", lambda c: {**c, "ablation": "concat-only"}),
        ("full", lambda c: {"seed": 13}),
        ("full", lambda c: {**c, "bits": 8, "proj_dim": 4}),
        ("full", lambda c: {**c, "bits": 64}),
        ("full", lambda c: {**c, "seed": 13, "proj_dim": 16}),
    ], ids=["concat-only", "image-only", "full", "partial", "matching", "bits", "proj_dim"])
    def test_stored_config_is_provenance_only(self, ablation_runs, dataset_dir, tmp_path,
                                              capsys, ablation, edit, command):
        # the network in the header is the forward function, whatever the stored
        # config says: an edited one gives exactly the clean file's output
        clean = ablation_runs[ablation]
        edited = tmp_path / "edited.bin"
        shutil.copy(clean, edited)
        rewrite_header(edited, lambda h: h.update(config=edit(h["config"])))
        assert load_checkpoint(edited).net_cfg == load_checkpoint(clean).net_cfg
        outputs = []
        for path in (clean, edited):
            capsys.readouterr()
            assert main([command[0], "--checkpoint", str(path), "--data", str(dataset_dir),
                         *command[1:]]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out and outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["eval", "search"])
    @pytest.mark.parametrize("ablation, edit", [
        ("full", {"gated": False}), ("concat-only", {"gated": True}),
        ("image-only", {"views": [0, 1]}), ("image-only", {"views": [1]}),
        ("full", {"views": [0]}),
    ], ids=["ungate", "gate", "add-view", "swap-view", "drop-view"])
    def test_edited_structure_rejected(self, ablation_runs, dataset_dir, tmp_path, capsys,
                                       ablation, edit, command):
        checkpoint = tmp_path / "edited.bin"
        shutil.copy(ablation_runs[ablation], checkpoint)
        rewrite_header(checkpoint, lambda h: h["net"].update(edit))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(checkpoint), "--data", str(dataset_dir)]) == 1
        assert str(checkpoint) in self.one_line_error(capsys)

    def test_checkpoint_uses_stored_pipeline(self, ablation_runs, dataset_dir, capsys):
        checkpoint = ablation_runs["image-only"]
        ckpt, split = load_checkpoint(checkpoint), load_features(dataset_dir)
        assert ckpt.net_cfg.views == (0,)
        capsys.readouterr()
        assert main(["search", "--checkpoint", str(checkpoint),
                     "--data", str(dataset_dir), "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        index = build_index(binarize(codes_for(split.retrieval, ckpt.params)),
                            split.retrieval.ids, split.retrieval.labels)
        q_codes = binarize(codes_for(split.query, ckpt.params))
        assert lines == [f"{qid}: {' '.join(search(index, pack_code(q_codes[i]), 3))}"
                         for i, qid in enumerate(split.query.ids)]


def json_paths(node, path=()):
    """The key or index path of every value inside a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


class TestCorruptCheckpoint:
    """One corruption of a full-ablation checkpoint: eval and search then give the
    clean run's output, or exit 1 with one stderr line naming the checkpoint."""

    COMMANDS = (["eval", "--cutoffs", "5"], ["search", "-k", "3"])

    def run(self, command, checkpoint, dataset_dir):
        """(exit code, stdout, stderr) of one cli.main call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                         *command[1:]])
        return code, out.getvalue(), err.getvalue()

    @pytest.fixture(scope="class")
    def clean(self, dataset_dir, run_dir):
        data = (run_dir / "checkpoint.bin").read_bytes()
        (head_len,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16:16 + head_len])
        assert header["config"]["ablation"] == "full" and header["optim"] is not None
        runs = [self.run(c, run_dir / "checkpoint.bin", dataset_dir) for c in self.COMMANDS]
        assert [code for code, _, _ in runs] == [0, 0]
        # the clean file's own magic, so that a fuzzed file is not rejected by its magic alone
        return data[:8], header, data[16 + head_len:], runs

    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_clean_output_or_one_line_naming_it(self, clean, dataset_dir, draw):
        magic, header, body, clean_runs = clean
        header = copy.deepcopy(header)
        kind = draw.draw(st.sampled_from(["delete", "retype", "cut", "pad"]))
        if kind in ("delete", "retype"):
            *at, key = draw.draw(st.sampled_from(list(json_paths(header))))
            parent = functools.reduce(operator.getitem, at, header)
            if kind == "delete":
                del parent[key]
            else:
                old = type(parent[key])
                parent[key] = draw.draw(JSON_VALUES.filter(lambda v: type(v) is not old))
        elif kind == "cut":
            body = body[:-draw.draw(st.integers(1, len(body)))]
        else:
            body += draw.draw(st.binary(min_size=1, max_size=64))
        head = json.dumps(header, sort_keys=True).encode()
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Path(tmp) / "corrupt.bin"
            checkpoint.write_bytes(magic + struct.pack("<Q", len(head)) + head + body)
            for command, clean_run in zip(self.COMMANDS, clean_runs):
                code, out, err = self.run(command, checkpoint, dataset_dir)
                if code == 0:
                    assert (out, err) == clean_run[1:]
                else:
                    assert code == 1 and out == ""
                    lines = err.splitlines()
                    assert len(lines) == 1 and str(checkpoint) in lines[0]


    def test_format_1_is_one_line_naming_it(self, run_dir, dataset_dir, tmp_path):
        checkpoint = tmp_path / "format1.bin"
        checkpoint.write_bytes(b"MVHCKPT1" + (run_dir / "checkpoint.bin").read_bytes()[8:])
        for command in self.COMMANDS:
            code, out, err = self.run(command, checkpoint, dataset_dir)
            assert code == 1 and out == "" and len(err.splitlines()) == 1
            assert str(checkpoint) in err and "MVHCKPT1" in err

    @pytest.mark.parametrize("name, value", [("norm_w.1", np.nan), ("hash_b", np.inf),
                                             ("fusion_b", -np.inf)])
    def test_non_finite_parameter_is_one_line_naming_it(self, run_dir, dataset_dir, tmp_path,
                                                        name, value):
        params = load_checkpoint(run_dir / "checkpoint.bin").params
        dict(params.tensors())[name].flat[0] = value
        body = params.buf.astype("<f8").tobytes()
        checkpoint = tmp_path / "non_finite.bin"
        checkpoint.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:-len(body)] + body)
        for command in self.COMMANDS:
            code, out, err = self.run(command, checkpoint, dataset_dir)
            assert (code, out) == (1, "")
            assert err == f"error: {checkpoint}: tensor {name!r} holds a non-finite value\n"


class TestCorruptDataset:
    """One corruption of a dataset file: train, eval and search then give the clean
    run's output, or exit 1 with one stderr line naming the corrupted file."""

    COMMANDS = (["train", "--epochs", "1", "--batch-size", "8", "--bits", "8",
                 "--proj-dim", "4", "--eval-every", "1", "--seed", "3"],
                ["eval", "--cutoffs", "5"], ["search", "-k", "3"])
    # each edit leaves the row invalid: a changed id or label would be valid data
    CSV_EDITS = ("non-utf8", "extra field", "drop field", "label char", "clear label",
                 "drop row", "repeat row")

    def run(self, command, data, checkpoint, tmp):
        """(exit code, stdout, stderr) of one cli.main call."""
        where = (["--out", str(Path(tmp) / "run")] if command[0] == "train"
                 else ["--checkpoint", str(checkpoint)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--data", str(data), *where, *command[1:]])
        return code, out.getvalue(), err.getvalue()

    @pytest.fixture(scope="class")
    def clean(self, dataset_dir, run_dir, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("clean")
        runs = [self.run(c, dataset_dir, run_dir / "checkpoint.bin", tmp) for c in self.COMMANDS]
        assert [code for code, _, _ in runs] == [0, 0, 0]
        return runs

    def mangle_csv(self, draw, raw):
        """`raw` with one line (the header included) made invalid."""
        lines = raw.split(b"\r\n")
        assert lines[-1] == b""
        i = draw.draw(st.integers(0, len(lines) - 2))
        line, edit = lines[i], draw.draw(st.sampled_from(self.CSV_EDITS))
        ident, _, label = line.partition(b",")
        if edit == "non-utf8":  # between ASCII bytes, any byte >= 0x80 is invalid UTF-8
            at = draw.draw(st.integers(0, len(line)))
            new = [line[:at] + bytes([draw.draw(st.integers(0x80, 0xFF))]) + line[at:]]
        elif edit == "extra field":
            new = [line + b"," + draw.draw(st.text(max_size=4)).encode()]
        elif edit == "drop field":
            new = [ident]
        elif edit == "label char":
            at = draw.draw(st.integers(0, len(label) - 1))
            char = draw.draw(st.characters(codec="utf-8", exclude_characters="01")).encode()
            new = [ident + b"," + label[:at] + char + label[at + 1:]]
        elif edit == "clear label":
            new = [ident + b"," + b"0" * len(label)]
        else:
            new = [] if edit == "drop row" else [line, line]
        return b"\r\n".join(lines[:i] + new + lines[i + 1:])

    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_clean_output_or_one_line_naming_the_file(self, clean, dataset_dir, run_dir, draw):
        kind = draw.draw(st.sampled_from(["delete", "retype", "csv", "cut", "pad"]))
        split = draw.draw(st.sampled_from(mvhash.data.SPLITS))
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data"
            shutil.copytree(dataset_dir, data)
            if kind in ("delete", "retype"):
                path = data / "manifest.json"
                manifest = json.loads(path.read_text())
                *at, key = draw.draw(st.sampled_from(list(json_paths(manifest))))
                parent = functools.reduce(operator.getitem, at, manifest)
                if kind == "delete":
                    del parent[key]
                else:
                    old = type(parent[key])
                    parent[key] = draw.draw(JSON_VALUES.filter(lambda v: type(v) is not old))
                path.write_text(json.dumps(manifest))
            elif kind == "csv":
                path = data / f"{split}.csv"
                path.write_bytes(self.mangle_csv(draw, path.read_bytes()))
            else:
                path = data / f"{split}.f32"
                raw = path.read_bytes()
                path.write_bytes(raw[:-draw.draw(st.integers(1, len(raw)))] if kind == "cut"
                                 else raw + draw.draw(st.binary(min_size=1, max_size=64)))
            for command, clean_run in zip(self.COMMANDS, clean):
                code, out, err = self.run(command, data, run_dir / "checkpoint.bin", tmp)
                if code == 0:
                    assert (out, err) == clean_run[1:]
                else:
                    assert code == 1 and out == ""
                    lines = err.splitlines()
                    assert len(lines) == 1 and str(path) in lines[0]


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--cases", "3"]) == 0
        assert "max relative error" in capsys.readouterr().out


class TestErrors:
    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                     "--data", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_positive_cutoff_exit_1(self, dataset_dir, run_dir, capsys):
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--cutoffs", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "cutoffs" in err[0] and "0" in err[0]

    @pytest.mark.parametrize("argv,flag,text", [
        (["synth", "--view-dims", "16,x"], "--view-dims", "'16,x'"),
        (["eval", "--cutoffs", "10,abc"], "--cutoffs", "'10,abc'"),
    ])
    def test_bad_integer_list_names_the_flag(self, dataset_dir, run_dir, tmp_path, capsys,
                                             argv, flag, text):
        where = (["--out", str(tmp_path)] if argv[0] == "synth" else
                 ["--checkpoint", str(run_dir / "checkpoint.bin"), "--data", str(dataset_dir)])
        assert main([*argv, *where]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}:") and text in err[0]

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(mvhash.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "mvhash", "--help"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: mvhash")

    def test_help_documents_hyperparameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--lr", "--beta1", "--beta2", "--dropout", "--lam",
                     "--mu", "--wd-pair"):
            assert flag in text
