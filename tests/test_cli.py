import json

import numpy as np
import pytest

from mvhash.cli import main
from mvhash.data import load_features, stack_labels
from mvhash.net import binarize
from mvhash.retrieval import average_precision, build_index, pack_code, search
from mvhash.trainer import codes_for, load_checkpoint


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

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["train", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "x"), "--config", str(cfg_file)]) == 1


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
                            [r.id for r in split.retrieval], stack_labels(split.retrieval))
        q_codes = binarize(codes_for(split.query, ckpt.params))
        assert lines == [f"{r.id}: {' '.join(search(index, pack_code(q_codes[i]), 7))}"
                         for i, r in enumerate(split.query)]


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

    def test_help_documents_hyperparameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--lr", "--beta1", "--beta2", "--dropout", "--lam",
                     "--mu", "--wd-pair"):
            assert flag in text
