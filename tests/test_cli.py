import csv
import gzip
import json
import os
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mapml import SyntheticSpec, TrainConfig, cli, load_csv, load_model
from mapml.cli import main


@pytest.fixture
def synth_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    rc = main(["synth", "--classes", "2", "--latents-per-class", "2",
               "--dim", "3", "--sigma", "0.08", "--samples-per-latent", "30",
               "--seed", "3", "--out", path])
    assert rc == 0
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSynth:
    def test_writes_loadable_csv(self, synth_csv):
        data = load_csv(synth_csv, label_column="label")
        assert data.n == 120 and data.d == 3 and data.n_classes == 2

    def test_deterministic(self, tmp_path, synth_csv):
        other = str(tmp_path / "again.csv")
        main(["synth", "--classes", "2", "--latents-per-class", "2",
              "--dim", "3", "--sigma", "0.08", "--samples-per-latent", "30",
              "--seed", "3", "--out", other])
        assert Path(synth_csv).read_text() == Path(other).read_text()

    def test_nan_sigma_clean_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["synth", "--sigma", "nan", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: noise_sigma must be >= 0")
        assert not out.exists()

    def test_infinite_sigma_clean_error(self, tmp_path, capsys):
        # refused by the spec, which names the field
        rc = main(["synth", "--sigma", "inf", "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: noise_sigma must be >= 0 and finite, got inf\n"


class TestTrain:
    def test_happy_path(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "model.mapml")
        rc = main(["train", "--data", synth_csv, "--tau", "10",
                   "--outer-iters", "3", "--inner-iters", "400",
                   "--seed", "1", "--out", model_path])
        assert rc == 0
        assert os.path.exists(model_path)
        out = capsys.readouterr().out
        assert "k=1" in out and "k=3" in out
        # each iteration's line times the stages and the loss scan
        lines = [line for line in out.splitlines() if line.startswith("k=")]
        assert len(lines) == 3
        assert all("latent_s=" in line and "metric_s=" in line and "loss_s=" in line
                   for line in lines)
        trace = read_csv(model_path + ".loss.csv")
        assert trace[0] == ["k", "loss"]
        losses = [float(r[1]) for r in trace[1:]]
        assert len(losses) == 4
        assert all(b <= a + 1e-6 * abs(a) for a, b in zip(losses, losses[1:]))

    def test_latent_count_reported(self, tmp_path, capsys):
        # 100 examples over 2 classes at tau=10 -> 10 latents
        data_path = str(tmp_path / "d.csv")
        main(["synth", "--classes", "2", "--latents-per-class", "1",
              "--dim", "2", "--sigma", "0.05", "--samples-per-latent", "50",
              "--seed", "0", "--out", data_path])
        model_path = str(tmp_path / "m.mapml")
        rc = main(["train", "--data", data_path, "--tau", "10",
                   "--outer-iters", "1", "--inner-iters", "200",
                   "--out", model_path])
        assert rc == 0
        assert "m=10" in capsys.readouterr().out
        assert load_model(model_path).latents.shape[0] == 10

    def test_label_column_index_without_header(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.normal(size=(40, 2)) + np.repeat([[0.0], [3.0]], 20, axis=0),
                                np.repeat([5, 9], 20)])
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, rows, delimiter=",")
        model_path = str(tmp_path / "m.mapml")
        rc = main(["train", "--data", str(data_path), "--label-column", "2", "--tau", "10",
                   "--outer-iters", "1", "--inner-iters", "200", "--out", model_path])
        assert rc == 0, capsys.readouterr().err
        model = load_model(model_path)
        assert model.latents.shape == (4, 2)
        np.testing.assert_array_equal(model.label_names, [5, 9])

    def test_missing_dataset_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "m.mapml")])
        assert exc.value.code == 2

    def test_missing_output_directory_fails_before_training(self, tmp_path, synth_csv,
                                                            monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("trained or loaded data despite a bad --out")

        for name in ("_load_dataset", "train_mapml", "train_random_triplet_baseline"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "missing" / "m.mapml"
        for baseline in ("none", "random-triplet"):
            rc = main(["train", "--data", synth_csv, "--baseline", baseline,
                       "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: output directory") and "missing" in err
        assert not out.parent.exists()

    def test_bad_path_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.mapml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_gzip_idx_clean_error(self, tmp_path, capsys):
        images, labels = tmp_path / "imgs.gz", tmp_path / "labs.gz"
        images.write_bytes(gzip.compress(struct.pack(">IIII", 0x803, 2, 1, 1) + b"\0\0")[:-12])
        labels.write_bytes(gzip.compress(struct.pack(">II", 0x801, 2) + b"\0\1"))
        rc = main(["train", "--idx-images", str(images), "--idx-labels", str(labels),
                   "--out", str(tmp_path / "m.mapml")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "imgs.gz" in err

    def test_oversized_idx_header_clean_error(self, tmp_path, capsys):
        # (2**32 - 1)**3 payload bytes: more than sys.maxsize
        images, labels = tmp_path / "imgs", tmp_path / "labs"
        images.write_bytes(struct.pack(">IIII", 0x803, *[2 ** 32 - 1] * 3) + b"\0\0")
        labels.write_bytes(struct.pack(">II", 0x801, 2) + b"\0\1")
        rc = main(["train", "--idx-images", str(images), "--idx-labels", str(labels),
                   "--out", str(tmp_path / "m.mapml")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: images payload truncated")

    def test_nan_gamma_clean_error(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "m.mapml")
        rc = main(["train", "--data", synth_csv, "--gamma", "nan",
                   "--outer-iters", "1", "--inner-iters", "200", "--out", model_path])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(model_path)

    def test_baseline_flag(self, tmp_path, synth_csv):
        model_path = str(tmp_path / "b.mapml")
        rc = main(["train", "--data", synth_csv, "--baseline", "random-triplet",
                   "--inner-iters", "400", "--out", model_path])
        assert rc == 0
        loaded = load_model(model_path)
        assert loaded.latents.shape[0] == 120  # trivial latent model

    def test_deterministic_model_bytes(self, tmp_path, synth_csv):
        a = str(tmp_path / "a.mapml")
        b = str(tmp_path / "b.mapml")
        argv = ["train", "--data", synth_csv, "--outer-iters", "2",
                "--inner-iters", "300", "--seed", "5"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert Path(a + ".loss.csv").read_text() == Path(b + ".loss.csv").read_text()


class TestEval:
    def test_latent_and_original_modes(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "2",
              "--inner-iters", "300", "--out", model_path])
        capsys.readouterr()
        rc = main(["eval", "--model", model_path, "--test", synth_csv,
                   "--refs", "latent", "--data", synth_csv])
        assert rc == 0
        out = capsys.readouterr().out
        assert "refs=latent" in out
        rc = main(["eval", "--model", model_path, "--test", synth_csv,
                   "--refs", "original", "--data", synth_csv])
        assert rc == 0
        assert "refs=original" in capsys.readouterr().out

    def test_k_below_one_usage_error(self, tmp_path, synth_csv, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded a model or data despite --k 0")

        for name in ("load_model", "_load_dataset"):
            monkeypatch.setattr(cli, name, refuse)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", str(tmp_path / "m.mapml"), "--test", synth_csv,
                  "--k", "0"])
        assert exc.value.code == 2

    def test_query_time_percentiles_printed(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        capsys.readouterr()
        assert main(["eval", "--model", model_path, "--test", synth_csv,
                     "--refs", "latent"]) == 0
        out = capsys.readouterr().out
        # 120 test rows against 4 latents: one block, so all three agree
        times = re.search(r"mean_query_s=(\S+) p50_query_s=(\S+) p99_query_s=(\S+)$", out)
        assert times is not None and len(set(times.groups())) == 1

    def test_original_mode_requires_data(self, tmp_path, synth_csv):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_path, "--test", synth_csv,
                  "--refs", "original"])
        assert exc.value.code == 2

    def test_test_idx_images_without_labels_names_test_flags(self, tmp_path, synth_csv,
                                                             capsys):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        rc = main(["eval", "--model", model_path, "--test-idx-images",
                   str(tmp_path / "imgs")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: IDX input needs both --test-idx-images and --test-idx-labels\n"


    def test_latent_refs_take_label_names_from_model(self, tmp_path, capsys):
        # training labels {3, 5, 7}, test labels {3, 7}: the test set's own
        # codes 0, 1 would name the latents of class 7 as class 5
        rng = np.random.default_rng(0)
        train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        for path, labels in ((train, [3, 5, 7] * 20), (test, [3, 7] * 5)):
            with open(path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["f0", "f1", "label"])
                for y in labels:
                    w.writerow([repr(float(v)) for v in rng.normal(y, 0.1, size=2)] + [y])
        model_path = str(tmp_path / "model.mapml")
        assert main(["train", "--data", train, "--outer-iters", "1",
                     "--inner-iters", "200", "--out", model_path]) == 0
        argv = ["eval", "--model", model_path, "--test", test, "--refs", "latent"]
        capsys.readouterr()
        assert main(argv) == 0
        assert "error_rate=0.000000" in capsys.readouterr().out
        # a sidecar without the names needs the training data to name them
        with open(model_path + ".meta") as f:
            meta = json.load(f)
        del meta["label_names"]
        with open(model_path + ".meta", "w") as f:
            json.dump(meta, f)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(argv + ["--data", train]) == 0
        assert "error_rate=0.000000" in capsys.readouterr().out

    def test_oversized_model_header_clean_error(self, tmp_path, synth_csv, capsys):
        # an 84-byte model whose header says d = 2**31: d*d*8 bytes is more
        # than sys.maxsize
        model_path = tmp_path / "big.mapml"
        model_path.write_bytes(b"MAPMLBIN" + struct.pack("<III", 1, 2 ** 31, 1)
                               + b"\0" * 64)
        rc = main(["eval", "--model", str(model_path), "--test", synth_csv,
                   "--refs", "latent"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: model payload truncated")

    def test_non_finite_latent_clean_error(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        d = load_model(model_path).metric.dim
        raw = bytearray(Path(model_path).read_bytes())
        off = 20 + d * d * 8  # latents[0, 0], after the header and the metric
        raw[off:off + 8] = struct.pack("<d", float("nan"))
        Path(model_path).write_bytes(bytes(raw))
        capsys.readouterr()
        rc = main(["eval", "--model", model_path, "--test", synth_csv,
                   "--refs", "latent"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: model latents contain non-finite")

    def test_malformed_sidecar_clean_error(self, tmp_path, synth_csv, capsys):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        with open(model_path + ".meta", "w") as f:
            f.write('{"config": {"tau": 10.0, "not_a_field": 1}}')
        capsys.readouterr()
        rc = main(["eval", "--model", model_path, "--test", synth_csv,
                   "--refs", "latent"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not_a_field" in err

    @pytest.mark.parametrize("corrupt", ["trailing_bytes", "sidecar_dim"])
    def test_inconsistent_model_clean_error(self, tmp_path, synth_csv, capsys, corrupt):
        model_path = str(tmp_path / "model.mapml")
        main(["train", "--data", synth_csv, "--outer-iters", "1",
              "--inner-iters", "200", "--out", model_path])
        if corrupt == "trailing_bytes":
            with open(model_path, "ab") as f:
                f.write(b"junk")
        else:
            with open(model_path + ".meta") as f:
                meta = json.load(f)
            meta["dim"] += 1
            with open(model_path + ".meta", "w") as f:
                json.dump(meta, f)
        capsys.readouterr()
        rc = main(["eval", "--model", model_path, "--test", synth_csv,
                   "--refs", "latent"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


ALL_METHODS = "euclid,mapml,mapml-o,random-triplet"


def count_training(monkeypatch):
    """Record the name of the trainer in each of the CLI's training calls."""
    calls = []
    for name in ("train_mapml", "train_random_triplet_baseline"):
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


class TestBench:
    @pytest.mark.parametrize("methods, taus", [("mapml", "10,20,0"), ("euclid", "0,500")])
    def test_bad_swept_tau_fails_before_training(self, synth_csv, capsys, monkeypatch,
                                                 methods, taus):
        calls = count_training(monkeypatch)
        rc = main(["bench", "--data", synth_csv, "--methods", methods, "--trials", "1",
                   "--outer-iters", "1", "--inner-iters", "200", "--tau-sweep", taus])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "tau" in err
        assert out == "" and calls == []

    def test_each_trainer_runs_once_per_tau_and_trial(self, synth_csv, monkeypatch):
        calls = count_training(monkeypatch)
        rc = main(["bench", "--data", synth_csv, "--methods", ALL_METHODS,
                   "--trials", "2", "--tau-sweep", "5,10",
                   "--outer-iters", "1", "--inner-iters", "200"])
        assert rc == 0
        assert Counter(calls) == {"train_mapml": 4, "train_random_triplet_baseline": 4}

    def test_euclid_scored_once_per_run(self, synth_csv, monkeypatch):
        # euclid's inputs do not change with tau or trial: 1 pass, plus one
        # mapml pass per (tau, trial)
        calls = []
        def counted(*args, _fn=cli.evaluate, **kwargs):
            calls.append(kwargs["reference_mode"])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, "evaluate", counted)
        rc = main(["bench", "--data", synth_csv, "--methods", "euclid,mapml",
                   "--trials", "2", "--tau-sweep", "5,10",
                   "--outer-iters", "1", "--inner-iters", "200"])
        assert rc == 0
        assert Counter(calls) == {"original": 1, "latent": 4}

    def test_stage_seconds_reported(self, tmp_path, synth_csv):
        out_csv = str(tmp_path / "bench.csv")
        rc = main(["bench", "--data", synth_csv, "--methods", "mapml,random-triplet",
                   "--trials", "1", "--outer-iters", "1", "--inner-iters", "400",
                   "--csv-out", out_csv])
        assert rc == 0
        rows = read_csv(out_csv)
        rows = {r[0]: dict(zip(rows[0], r)) for r in rows[1:]}
        assert float(rows["mapml"]["latent_stage_seconds"]) > 0
        assert float(rows["random-triplet"]["metric_stage_seconds"]) > 0

    def test_euclid_only_zero_stddev(self, tmp_path, synth_csv, capsys):
        out_csv = str(tmp_path / "bench.csv")
        rc = main(["bench", "--data", synth_csv, "--methods", "euclid",
                   "--trials", "3", "--csv-out", out_csv])
        assert rc == 0
        rows = read_csv(out_csv)
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["method"] == "euclid"
        assert float(row["std_error_pct"]) == 0.0

    def test_csv_matches_table(self, tmp_path, synth_csv, capsys):
        out_csv = str(tmp_path / "bench.csv")
        main(["bench", "--data", synth_csv, "--methods", "euclid,mapml",
              "--trials", "2", "--outer-iters", "2", "--inner-iters", "300",
              "--csv-out", out_csv])
        table = capsys.readouterr().out
        for row in read_csv(out_csv)[1:]:
            for cell in row:
                assert str(cell) in table

    def test_trial_seeds_reproducible(self, tmp_path, synth_csv, capsys):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        argv = ["bench", "--data", synth_csv, "--methods", "mapml",
                "--trials", "3", "--outer-iters", "2", "--inner-iters", "300",
                "--seed", "9"]
        main(argv + ["--csv-out", out_a])
        main(argv + ["--csv-out", out_b])
        a, b = read_csv(out_a), read_csv(out_b)
        # error columns identical; timing columns may differ
        for ra, rb in zip(a, b):
            assert ra[:5] == rb[:5]

    def test_unknown_method_usage_error(self, synth_csv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", synth_csv, "--methods", "svm"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--methods", ","], ["--k", "0"]])
    def test_empty_sweep_usage_error(self, synth_csv, flags):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", synth_csv, "--methods", "euclid"] + flags)
        assert exc.value.code == 2

    def test_tau_sweep_rows(self, tmp_path, synth_csv):
        out_csv = str(tmp_path / "sweep.csv")
        rc = main(["bench", "--data", synth_csv, "--methods", "mapml",
                   "--trials", "1", "--outer-iters", "1", "--inner-iters", "200",
                   "--tau-sweep", "5,10", "--csv-out", out_csv])
        assert rc == 0
        rows = read_csv(out_csv)
        assert [r[1] for r in rows[1:]] == ["5", "10"]


class TestNoiseSweep:
    def test_rows_per_sigma_and_method(self, tmp_path, synth_csv):
        out_csv = str(tmp_path / "noise.csv")
        rc = main(["noise-sweep", "--data", synth_csv, "--test", synth_csv,
                   "--sigmas", "50/255,0.5", "--methods", "euclid,mapml",
                   "--trials", "2", "--outer-iters", "1", "--inner-iters", "200",
                   "--csv-out", out_csv])
        assert rc == 0
        rows = read_csv(out_csv)
        assert len(rows) == 5
        sigmas = {r[0] for r in rows[1:]}
        assert f"{50/255:.6f}" in sigmas and f"{0.5:.6f}" in sigmas

    def test_mapml_and_mapml_o_share_training(self, synth_csv, monkeypatch):
        calls = []
        train = cli.train_mapml

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train_mapml", counted)
        rc = main(["noise-sweep", "--data", synth_csv, "--sigmas", "0.1",
                   "--methods", "mapml,mapml-o", "--trials", "2",
                   "--outer-iters", "1", "--inner-iters", "200"])
        assert rc == 0
        assert len(calls) == 2  # one per trial

    def test_each_trainer_runs_once_per_sigma_and_trial(self, synth_csv, monkeypatch):
        calls = count_training(monkeypatch)
        rc = main(["noise-sweep", "--data", synth_csv, "--methods", ALL_METHODS,
                   "--trials", "2", "--sigmas", "0.1,0.5",
                   "--outer-iters", "1", "--inner-iters", "200"])
        assert rc == 0
        assert Counter(calls) == {"train_mapml": 4, "train_random_triplet_baseline": 4}

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--methods", ","], ["--k", "0"]])
    def test_empty_sweep_usage_error(self, synth_csv, flags):
        with pytest.raises(SystemExit) as exc:
            main(["noise-sweep", "--data", synth_csv, "--methods", "euclid"] + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize("sigmas", ["0.1,-1", "0.1,nan", "0.1,inf"])
    def test_bad_sigma_fails_before_training(self, synth_csv, capsys, monkeypatch, sigmas):
        calls = count_training(monkeypatch)
        rc = main(["noise-sweep", "--data", synth_csv, "--methods", "mapml", "--trials", "1",
                   "--outer-iters", "1", "--inner-iters", "200", "--sigmas", sigmas])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: sigma must be >= 0")
        assert calls == []

    def test_zero_denominator_sigma_clean_error(self, synth_csv, capsys):
        rc = main(["noise-sweep", "--data", synth_csv, "--methods", "euclid",
                   "--trials", "1", "--sigmas", "1/0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestOutputPaths:
    """Every output path is checked before any data is loaded or made, or trained on.

    ``TestTrain`` checks ``train --out`` into a missing directory.
    """

    @pytest.mark.parametrize("argv,missing", [
        (["train", "--data", "{csv}", "--out"], False),
        (["bench", "--data", "{csv}", "--trials", "1", "--csv-out"], True),
        (["bench", "--data", "{csv}", "--trials", "1", "--csv-out"], False),
        (["noise-sweep", "--data", "{csv}", "--trials", "1", "--csv-out"], True),
        (["noise-sweep", "--data", "{csv}", "--trials", "1", "--csv-out"], False),
        (["synth", "--out"], True),
        (["synth", "--out"], False)])
    def test_bad_output_path_fails_before_any_run(self, tmp_path, synth_csv, monkeypatch,
                                                 capsys, argv, missing):
        def refuse(*args, **kwargs):
            raise AssertionError("ran despite a bad output path")

        for name in ("_load_dataset", "generate_synthetic", "train_mapml",
                     "train_random_triplet_baseline"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / "missing" / "out.csv" if missing else tmp_path
        capsys.readouterr()
        rc = main([a.format(csv=synth_csv) for a in argv] + [str(path)])
        assert rc == 1
        out, err = capsys.readouterr()
        want = (f"output directory {str(path.parent)!r} does not exist" if missing
                else f"{argv[-1]} {str(path)!r} is a directory")
        assert (out, err) == ("", f"error: {want}\n")
        assert not (tmp_path / "missing").exists()


class TestConfigFlags:
    """The training and synth flags take their defaults from the config types."""

    TRAIN = {"--tau": "tau", "--gamma": "gamma", "--lambda": "lam", "--delta": "delta",
             "--outer-iters": "outer_iters", "--inner-iters": "inner_iters",
             "--latent-em-iters": "latent_em_iters", "--seed": "rng_seed",
             "--active-set-cap": "active_set_cap"}
    SYNTH = {"--classes": "n_classes", "--latents-per-class": "latents_per_class",
             "--dim": "dim", "--sigma": "noise_sigma",
             "--samples-per-latent": "samples_per_latent", "--seed": "seed"}

    @pytest.mark.parametrize("command", ["train", "bench", "noise-sweep", "synth"])
    def test_flag_defaults_are_field_defaults(self, command):
        flags, config = (self.SYNTH, SyntheticSpec()) if command == "synth" \
            else (self.TRAIN, TrainConfig())
        required = ["--out", "x"] if command in ("train", "synth") else []
        parser = cli.build_parser()
        defaults = parser.parse_args([command] + required)
        for flag, field in flags.items():
            default = getattr(defaults, field)
            assert default == getattr(config, field) and type(default) is \
                type(getattr(config, field)), flag
            # the flag sets that field
            assert getattr(parser.parse_args([command, flag, "2"] + required), field) == 2


class TestDataDirEnv:
    def test_relative_path_resolved(self, tmp_path, synth_csv, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("MAPML_DATA_DIR", os.path.dirname(synth_csv))
        monkeypatch.chdir(elsewhere)
        model_path = str(tmp_path / "m.mapml")
        rc = main(["train", "--data", os.path.basename(synth_csv),
                   "--outer-iters", "1", "--inner-iters", "200",
                   "--out", model_path])
        assert rc == 0
