import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvhash.data
import mvhash.retrieval
from mvhash.cli import main
from mvhash.data import load_features, stack_labels
from mvhash.net import NetConfig, binarize, init_params
from mvhash.retrieval import average_precision, build_index, pack_code, search
from mvhash.trainer import codes_for, load_checkpoint, save_checkpoint


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


SYNTH_DIGESTS = {
    "train.f32": "e4e37ff2b1e699b09eaca99da9d620a08d9b12a1ff3cf1a276c49174ae6b6040",
    "retrieval.f32": "12dc328f92f6bf471ffbfa328aef593fee0f6298e98873b93fa8f019f869d580",
    "query.f32": "4e3fc1f72daebaa8f1e8957c8e398fd53bc485a275b400c84da227ee62a81d84",
    "train.csv": "a6bdc456fb629d40b64c6fbbb22ea5417c6527d96e4402e854d7ce20b385a9d4",
    "retrieval.csv": "3c89a2609a2506050c371a2029494f5384b3a7a1e8e3a0bd08494c55e6e70cad",
    "query.csv": "e99acc6e3195b9eafc5bf4002f13544cd9c777f9be4fcefe2873cd7b85d906fb",
    "manifest.json": "b4f5a04148a55039ce2cb02371ad9a13db5c2624994d7abdd9fa63390ab3c805",
}


class TestTrain:
    def test_artifacts(self, run_dir):
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "checkpoint_best.bin").exists()
        assert (run_dir / "curves.csv").exists()
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
    def test_eval_and_search_parse_every_split(self, dataset_dir, run_dir, parsed, command,
                                               capsys):
        assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir)]) == 0
        assert parsed == ["train", "retrieval", "query"]


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
        # A text-only model needs a second view; one-view data must not run it
        # on all-zero inputs.
        data = tmp_path / "one_view"
        assert main(["synth", "--out", str(data), "--categories", "3", "--views", "1",
                     "--view-dims", "6", "--train-size", "10", "--retrieval-size", "10",
                     "--query-size", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        net_cfg = NetConfig((6,), 4, 8)
        checkpoint = tmp_path / "text_only.bin"
        save_checkpoint(checkpoint, init_params(net_cfg, 0), net_cfg,
                        config={"ablation": "text-only", "best_epoch": 3})
        assert main([command, "--checkpoint", str(checkpoint), "--data", str(data)]) == 1
        err = self.one_line_error(capsys)
        assert str(checkpoint) in err and "text-only" in err

    @pytest.mark.parametrize("command", ["eval", "search"])
    @pytest.mark.parametrize("stored, ok", [
        ({"seed": 13}, True), ({"bits": 8, "proj_dim": 4}, True),
        ({"bits": 64}, False), ({"seed": 13, "proj_dim": 16}, False),
    ], ids=["partial", "matching", "bits", "proj_dim"])
    def test_stored_config_must_match_network(self, dataset_dir, tmp_path, capsys, command,
                                              stored, ok):
        # Keys a partial config leaves out are not compared.
        net_cfg = NetConfig((6, 5), 4, 8)
        checkpoint = tmp_path / "ckpt.bin"
        save_checkpoint(checkpoint, init_params(net_cfg, 0), net_cfg, config=stored)
        code = main([command, "--checkpoint", str(checkpoint), "--data", str(dataset_dir)])
        if ok:
            assert code == 0
            return
        assert code == 1
        err = self.one_line_error(capsys)
        key = next(k for k in stored if k != "seed")
        assert str(checkpoint) in err and f"{key} {stored[key]}" in err

    def test_best_checkpoint_uses_stored_pipeline(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--epochs", "2", "--batch-size", "8", "--bits", "8",
                     "--proj-dim", "4", "--eval-every", "1", "--seed", "3",
                     "--ablation", "image-only"]) == 0
        checkpoint = out / "checkpoint_best.bin"
        assert "best_epoch" in load_checkpoint(checkpoint).config
        capsys.readouterr()
        assert main(["search", "--checkpoint", str(checkpoint),
                     "--data", str(dataset_dir), "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ckpt, split = load_checkpoint(checkpoint), load_features(dataset_dir)
        mask = [True, False]
        index = build_index(binarize(codes_for(split.retrieval, ckpt.params, mask)),
                            split.retrieval.ids, split.retrieval.labels)
        q_codes = binarize(codes_for(split.query, ckpt.params, mask))
        assert lines == [f"{qid}: {' '.join(search(index, pack_code(q_codes[i]), 3))}"
                         for i, qid in enumerate(split.query.ids)]


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
