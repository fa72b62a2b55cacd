import gzip
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mapml import (Metric, SyntheticSpec, TrainConfig, generate_synthetic,
                   init_latents, load_csv, load_idx, load_model,
                   run_latent_stage, save_model)
from mapml.driver import TrainResult
from mapml.latent import LatentModel


def write_idx_pair(tmp_path, pixels, labels, gz=False, images_magic=0x803,
                   labels_magic=0x801, truncate_images=0):
    """Hand-built IDX pair; pixels is (n, rows, cols) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = struct.pack(">IIII", images_magic, n, rows, cols) + pixels.tobytes()
    lab = struct.pack(">II", labels_magic, len(labels)) + bytes(labels)
    if truncate_images:
        img = img[:-truncate_images]
    ip = tmp_path / ("imgs.gz" if gz else "imgs")
    lp = tmp_path / ("labs.gz" if gz else "labs")
    ip.write_bytes(gzip.compress(img) if gz else img)
    lp.write_bytes(gzip.compress(lab) if gz else lab)
    return str(ip), str(lp)


class TestLoadIdx:
    def test_single_white_image(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.full((1, 2, 2), 255), [1, ])
        data = load_idx(ip, lp)
        assert data.n == 1 and data.d == 4
        np.testing.assert_array_equal(data.features, np.ones((1, 4)))

    def test_normalization_and_layout(self, tmp_path):
        px = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        ip, lp = write_idx_pair(tmp_path, px, [0, 1])
        data = load_idx(ip, lp)
        np.testing.assert_allclose(data.features,
                                   px.reshape(2, 6) / 255.0)

    def test_gzip_transparent(self, tmp_path):
        px = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        ip, lp = write_idx_pair(tmp_path, px, [0, 1], gz=True)
        data = load_idx(ip, lp)
        np.testing.assert_allclose(data.features, px.reshape(2, 6) / 255.0)

    def test_labels_magic_mismatch(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 1, 1)), [0],
                                labels_magic=0x803)
        with pytest.raises(ValueError, match="labels magic mismatch"):
            load_idx(ip, lp)

    def test_images_magic_mismatch(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 1, 1)), [0],
                                images_magic=0x801)
        with pytest.raises(ValueError, match="images magic mismatch"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1],
                                truncate_images=3)
        with pytest.raises(ValueError, match="images payload truncated"):
            load_idx(ip, lp)

    def test_truncated_gzip(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], gz=True)
        raw = Path(ip).read_bytes()
        Path(ip).write_bytes(raw[:-12])
        with pytest.raises(ValueError, match="imgs.gz"):
            load_idx(ip, lp)

    def test_corrupt_deflate(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], gz=True)
        raw = Path(lp).read_bytes()
        # first deflate byte after the 10-byte gzip header: reserved block type
        Path(lp).write_bytes(raw[:10] + b"\xff" + raw[11:])
        with pytest.raises(ValueError, match="labs.gz"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ip, _ = write_idx_pair(tmp_path / "a", np.zeros((2, 1, 1)), [0, 1])
        _, lp = write_idx_pair(tmp_path / "b", np.zeros((3, 1, 1)), [0, 1, 2])
        with pytest.raises(ValueError, match="count mismatch"):
            load_idx(ip, lp)


class TestLoadIdxMnist:
    def test_full_training_files(self):
        from conftest import _mnist_paths

        paths = _mnist_paths()
        if paths is None:
            pytest.skip("MNIST IDX files not available")
        data = load_idx(paths[0], paths[1])
        assert data.n == 60_000 and data.d == 784
        assert data.n_classes == 10
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        assert np.bincount(data.labels).sum() == data.n


class TestLoadCsv:
    def test_minimal(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        data = load_csv(str(p), label_column=2)
        assert data.n == 3 and data.d == 2
        assert list(data.labels) == [0, 1, 0]

    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(str(p), label_column="label")
        assert data.n == 2 and data.d == 2

    def test_feature_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label,b\n10.0,0,20.0\n30.0,1,40.0\n")
        data = load_csv(str(p), label_column="label")
        np.testing.assert_allclose(data.features, [[10.0, 20.0], [30.0, 40.0]])

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(str(p), label_column="label")

    def test_named_label_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="needs a header"):
            load_csv(str(p), label_column="label")

    @pytest.mark.parametrize("column", ["2", "-1"])
    def test_integer_string_is_an_index_without_header(self, tmp_path, column):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        data = load_csv(str(p), label_column=column)
        assert data.d == 2
        assert list(data.labels) == [0, 1, 0]

    def test_header_named_like_an_index_resolves_by_name(self, tmp_path):
        # column "2" is the header's first column, not column index 2
        p = tmp_path / "d.csv"
        p.write_text("2,x,y\n0,10.0,20.0\n1,30.0,40.0\n")
        data = load_csv(str(p), label_column="2")
        np.testing.assert_allclose(data.features, [[10.0, 20.0], [30.0, 40.0]])
        assert list(data.labels) == [0, 1]

    def test_integer_string_is_an_index_beside_a_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(str(p), label_column="0")
        np.testing.assert_allclose(data.features, [[2.0, 0.0], [4.0, 1.0]])

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(ValueError, match="ragged row 2"):
            load_csv(str(p), label_column=2)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(p), label_column=2)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_label(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"x,y,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,{label}\n")
        with pytest.raises(ValueError, match="non-finite label .* row 4"):
            load_csv(str(p), label_column="label")


class TestGenerateSynthetic:
    def test_noiseless_equals_latents(self):
        spec = SyntheticSpec(n_classes=2, latents_per_class=2, dim=3,
                             noise_sigma=0.0, samples_per_latent=5, seed=0)
        data, truth = generate_synthetic(spec)
        np.testing.assert_array_equal(data.features,
                                      truth.latents[truth.membership])
        np.testing.assert_allclose(truth.cluster_margins, 0.0)

    def test_deterministic(self):
        spec = SyntheticSpec(seed=42)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)

    def test_cluster_means_near_latents(self):
        spec = SyntheticSpec(n_classes=1, latents_per_class=1, dim=4,
                             noise_sigma=0.1, samples_per_latent=10_000, seed=1)
        data, truth = generate_synthetic(spec)
        mean = data.features.mean(axis=0)
        # CLT: per-coordinate error well below 4*sigma/100
        np.testing.assert_allclose(mean, truth.latents[0], atol=4 * 0.1 / 100)

    def test_explicit_latents(self):
        z = np.arange(6, dtype=float).reshape(2, 3)
        spec = SyntheticSpec(n_classes=2, latents_per_class=1, dim=3,
                             noise_sigma=0.0, samples_per_latent=2, seed=0,
                             true_latents=z)
        _, truth = generate_synthetic(spec)
        np.testing.assert_array_equal(truth.latents, z)

    def test_latent_stage_recovers_truth(self):
        # separable 2-class, 1 latent each: init + one latent stage lands
        # within 0.05 per coordinate of the truth after optimal matching
        z = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        spec = SyntheticSpec(n_classes=2, latents_per_class=1, dim=3,
                             noise_sigma=0.05, samples_per_latent=50, seed=2,
                             true_latents=z)
        data, truth = generate_synthetic(spec)
        cfg = TrainConfig(tau=2.0, gamma=0.0, latent_em_iters=10)
        model = init_latents(data, cfg.tau, seed=0)
        model = run_latent_stage(data, model, Metric.identity(3), cfg)
        cost = np.linalg.norm(model.latents[:, None] - truth.latents[None], axis=2)
        rows, cols = linear_sum_assignment(cost)
        err = np.abs(model.latents[rows] - truth.latents[cols]).max()
        assert err <= 0.05

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=0)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=-1.0)

    def test_rejects_nan_sigma(self):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            SyntheticSpec(noise_sigma=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("n_classes", 2.5), ("dim", 2.0), ("samples_per_latent", np.float64(3)),
        ("seed", 1.5), ("latents_per_class", True),
        ("noise_sigma", np.inf), ("noise_sigma", True), ("noise_sigma", "0.1")])
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SyntheticSpec(**{field: value})

    def test_numpy_scalars_accepted(self):
        spec = SyntheticSpec(n_classes=np.int64(2), latents_per_class=np.uint8(1),
                             dim=np.int32(3), noise_sigma=np.float32(0.1),
                             samples_per_latent=np.int64(4), seed=np.uint32(3))
        data, _ = generate_synthetic(spec)
        assert (data.n, data.d, data.n_classes) == (8, 3, 2)

    def test_narrow_numpy_integers_do_not_overflow(self):
        # 100 * 2 latents overflow int8 unless the counts are Python ints
        spec = SyntheticSpec(n_classes=np.int8(100), latents_per_class=np.int8(2), dim=2,
                             samples_per_latent=np.int8(1))
        assert type(spec.n_classes) is type(spec.latents_per_class) is int
        data, truth = generate_synthetic(spec)
        assert (data.n, data.n_classes, truth.m) == (200, 100, 200)


def small_result(rng):
    z = rng.normal(size=(3, 2))
    model = LatentModel(
        latents=z,
        membership=np.zeros(4, dtype=np.int64),
        cluster_margins=np.abs(rng.normal(size=3)),
        per_class_counts=np.array([2, 1]),
    )
    M = rng.normal(size=(2, 2))
    return TrainResult(
        metric=Metric(0.5 * (M + M.T)),
        latent_model=model,
        loss_trace=rng.normal(size=4) ** 2,
        history=[],
        config=TrainConfig(rng_seed=9),
        label_names=np.array([3.0, 7.0]),
    )


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        result = small_result(rng)
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.metric.matrix, result.metric.matrix)
        np.testing.assert_array_equal(loaded.latents, result.latent_model.latents)
        np.testing.assert_array_equal(loaded.latent_labels,
                                      result.latent_model.latent_labels)
        np.testing.assert_array_equal(loaded.loss_trace, result.loss_trace)
        np.testing.assert_array_equal(loaded.label_names, result.label_names)
        assert loaded.config == result.config
        assert loaded.format_version == 1

    def test_numpy_integer_config_round_trips(self, tmp_path):
        # the sidecar is JSON: the config must hold Python ints
        result = small_result(np.random.default_rng(2))
        result.config = TrainConfig(outer_iters=np.int64(2), inner_iters=np.int64(20),
                                    latent_em_iters=np.int32(3), rng_seed=np.uint8(9),
                                    active_set_cap=np.int64(50))
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        loaded = load_model(path)
        assert loaded.config == result.config
        assert all(type(getattr(loaded.config, name)) is int
                   for name in ("outer_iters", "inner_iters", "latent_em_iters",
                                "rng_seed", "active_set_cap"))

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.mapml"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic mismatch"):
            load_model(str(path))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        result = small_result(rng)
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="unexpected end of payload"):
            load_model(path)

    def test_trailing_bytes_refused(self, tmp_path):
        rng = np.random.default_rng(5)
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(rng))
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ValueError, match="1 trailing byte"):
            load_model(path)

    @pytest.mark.parametrize("where,value,match", [
        ("latent", np.nan, "latents contain non-finite"),
        ("latent", -np.inf, "latents contain non-finite"),
        ("metric", np.inf, "metric matrix contains non-finite"),
    ])
    def test_non_finite_payload_refused(self, tmp_path, where, value, match):
        # header 20 bytes, then the 2 x 2 metric, then the 3 x 2 latents
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(np.random.default_rng(9)))
        raw = bytearray(Path(path).read_bytes())
        off = 20 + (2 * 2 * 8 if where == "latent" else 0)
        raw[off:off + 8] = struct.pack("<d", value)
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    @pytest.mark.parametrize("key,value", [("dim", 3), ("m", 2), ("dim", "2"),
                                           ("m", None), ("format_version", "x"),
                                           ("format_version", 2), ("format_version", 0),
                                           ("format_version", 1.0)])
    def test_sidecar_disagreeing_with_header(self, tmp_path, key, value):
        rng = np.random.default_rng(6)
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(rng))
        meta_path = tmp_path / "model.mapml.meta"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"model.mapml.meta.*{key}"):
            load_model(path)

    @pytest.mark.parametrize("value,accepted", [(1e-12, True), (1e-9, False),
                                                (None, False)])
    def test_legacy_tie_tolerance_key(self, tmp_path, value, accepted):
        # sidecars from before the tie tolerance became a constant carry it
        rng = np.random.default_rng(7)
        result = small_result(rng)
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        meta_path = tmp_path / "model.mapml.meta"
        meta = json.loads(meta_path.read_text())
        meta["config"]["tie_tolerance"] = value
        meta_path.write_text(json.dumps(meta))
        if accepted:
            assert load_model(path).config == result.config
        else:
            with pytest.raises(ValueError, match="model.mapml.meta.*tie_tolerance"):
                load_model(path)

    @pytest.mark.parametrize("names", ['"3,7"', '["a", "b"]', '[3, NaN]', '[3, Infinity]',
                                       '[7, 3]', '[3, 3]', '[3]', '[true, false]',
                                       '[3, null]', '[[3], [7]]'])
    def test_bad_label_names_refused(self, tmp_path, names):
        # latent labels are codes 0, 0, 1: the names must be at least two
        # finite numbers in strictly increasing order
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(np.random.default_rng(8)))
        meta_path = tmp_path / "model.mapml.meta"
        meta = json.loads(meta_path.read_text())
        meta["label_names"] = "NAMES"
        meta_path.write_text(json.dumps(meta).replace('"NAMES"', names))
        with pytest.raises(ValueError, match="model.mapml.meta.*label_names"):
            load_model(path)

    def test_future_version_refused(self, tmp_path):
        rng = np.random.default_rng(2)
        result = small_result(rng)
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        raw = bytearray(Path(path).read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"version 99.*version 1"):
            load_model(path)

    def test_version_zero_refused(self, tmp_path):
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(np.random.default_rng(2)))
        raw = bytearray(Path(path).read_bytes())
        raw[8:12] = struct.pack("<I", 0)
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"version 0 is invalid"):
            load_model(path)

    @pytest.mark.parametrize("d, m", [(0, 3), (2, 0), (0, 0)])
    def test_empty_header_refused(self, tmp_path, d, m):
        # a header of d = 0 or m = 0 with a payload of the size it declares
        path = tmp_path / "model.mapml"
        path.write_bytes(b"MAPMLBIN" + struct.pack("<III", 1, d, m)
                         + bytes(d * d * 8 + m * d * 8 + m * 4))
        with pytest.raises(ValueError, match=rf"dim {d} and {m} latents"):
            load_model(str(path))

    def test_missing_sidecar_tolerated(self, tmp_path):
        rng = np.random.default_rng(3)
        result = small_result(rng)
        path = str(tmp_path / "model.mapml")
        save_model(path, result)
        (tmp_path / "model.mapml.meta").unlink()
        loaded = load_model(path)
        assert loaded.config is None and loaded.label_names is None
        np.testing.assert_array_equal(loaded.metric.matrix, result.metric.matrix)

    @pytest.mark.parametrize("sidecar", [
        '{"config": {"tau": 10.0, "not_a_field": 1}}',
        '{"config": ["tau", 10.0]}',
        '{"config": {"tau": "ten"}}',
        '{"config": {"lam": NaN}}',
        '{"loss_trace": [{"k": 1}]}',
        '{"loss_trace": "123"}',
        '{"loss_trace": 123}',
        '{"loss_trace": [[1.0, 2.0]]}',
        '{"loss_trace": [1.0, NaN]}',
        '{"loss_trace": [Infinity]}',
        '{"loss_trace": [true, false]}',
        '{"config": {"rng_seed": "abc"}}',
        '{"config": {"rng_seed": -3}}',
        '{"config": {"rng_seed": 1.5}}',
        '{"config": {"tau": true}}',
        '[1, 2, 3]',
        '"just a string"',
        '{"config": ',
    ])
    def test_malformed_sidecar_is_value_error(self, tmp_path, sidecar):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "model.mapml")
        save_model(path, small_result(rng))
        (tmp_path / "model.mapml.meta").write_text(sidecar)
        with pytest.raises(ValueError, match="model.mapml.meta"):
            load_model(path)
