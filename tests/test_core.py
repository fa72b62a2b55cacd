from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Dataset, Metric, TrainConfig, core
from mapml.core import (class_bounds, count_below, full_loss_all, hinge_block,
                        is_identity, other_class_columns, pairwise_mahalanobis_sq)
from mapml.data_io import load_model, save_model
from mapml.metric import build_active_set

from conftest import (MatmulCounter, make_latent_model, oracle_full_loss,
                      oracle_mahalanobis, oracle_valid_triplets, random_psd,
                      random_symmetric)


def pair_distance(metric, a, b):
    """One squared distance through the shipped pairwise kernel (2 x 2)."""
    return float(pairwise_mahalanobis_sq(metric, np.stack([a, b]))[0, 1])


class TestDataset:
    def test_reindexes_labels(self):
        data = Dataset([[0.0], [1.0], [2.0]], [7, 3, 7])
        assert data.n_classes == 2
        assert list(data.label_names) == [3, 7]
        assert list(data.labels) == [1, 0, 1]

    def test_original_labels_recoverable(self):
        data = Dataset([[0.0], [1.0]], ["b", "a"])
        assert list(data.label_names[data.labels]) == ["b", "a"]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([[np.nan]], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)), [])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [0])

    def test_immutable(self):
        data = Dataset([[1.0, 2.0]], [0])
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0


class TestMetric:
    def test_identity(self):
        m = Metric.identity(3)
        assert m.dim == 3
        np.testing.assert_array_equal(m.matrix, np.eye(3))

    def test_identity_skips_the_scans(self):
        # the identity is valid by construction: no finiteness or symmetry scan
        with mock.patch.object(np, "isfinite", side_effect=AssertionError("scanned")), \
                mock.patch.object(np, "abs", side_effect=AssertionError("scanned")):
            m = Metric.identity(784)
        assert m.matrix.dtype == np.float64 and m.matrix.flags.c_contiguous
        assert is_identity(m.matrix)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 2.0

    def test_identity_refuses_bad_dimensions(self):
        with pytest.raises(ValueError, match="dimension >= 1"):
            Metric.identity(0)
        with pytest.raises(TypeError):
            Metric.identity(2.5)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Metric([[1.0, 1.0], [0.0, 1.0]])

    def test_reports_max_asymmetry_from_partial_last_panel(self):
        # d = 130 is checked in row panels of 64, 64 and 2; the largest
        # asymmetry pairs rows 128 and 129, which only the last panel holds
        M = np.eye(130)
        M[3, 70] = 1e-6
        M[128, 129] = 2.5e-3
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 0\.0025\)"):
            Metric(M)

    def test_accepts_tiny_asymmetry(self):
        M = np.eye(2)
        M[0, 1] = 5e-10
        Metric(M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Metric(np.ones((2, 3)))

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension >= 1"):
            Metric(np.zeros((0, 0)))

    def test_min_eigenvalue(self):
        m = Metric(np.diag([2.0, -1.0]))
        assert m.min_eigenvalue() == pytest.approx(-1.0)


def near_identity(d, index, value):
    M = np.eye(d)
    M[index] = value
    return M


def model_file_arrays(tmp_path):
    """The arrays of a model as ``load_model`` reads it back."""
    model = make_latent_model([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [2, 1],
                              membership=np.array([0, 2]))
    result = SimpleNamespace(metric=Metric([[2.0, 1.0], [1.0, 3.0]]), latent_model=model,
                             loss_trace=np.array([1.0]), config=None,
                             label_names=np.array([3.0, 7.0]))
    save_model(tmp_path / "m.bin", result)
    loaded = load_model(tmp_path / "m.bin")
    return [loaded.metric.matrix, loaded.latents, loaded.latent_labels]


class TestImmutability:
    """Every array of the library's value types is frozen: no writeable view can exist.

    ``evaluate`` and ``knn_predict`` reuse the kNN index of such arrays, and
    ``latent._assigned_from`` reuses an assignment on ``data is blocks.data``.
    """

    @pytest.mark.parametrize("arrays", [
        lambda _: vars(Dataset([[1.0, 2.0], [3.0, 4.0]], [7, 3])).values(),
        lambda _: vars(Dataset([[1.0]], ["a"])).values(),
        lambda _: [Metric([[2.0, 1.0], [1.0, 3.0]]).matrix],
        lambda _: [Metric.identity(3).matrix],
        lambda _: [Metric._unchecked(np.eye(2)).matrix],
        lambda _: [v for v in vars(make_latent_model(
            [[0.0], [1.0], [2.0]], [2, 1], membership=np.array([0, 2]))).values()
            if isinstance(v, np.ndarray)],
        model_file_arrays,
    ], ids=["dataset", "dataset-str", "metric", "identity", "unchecked", "latent-model",
            "load-model"])
    def test_writeable_refused(self, arrays, tmp_path):
        arrays = list(arrays(tmp_path))
        assert arrays
        for arr in arrays:
            assert core.is_frozen(arr)
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            view = arr[:1]
            with pytest.raises(ValueError):
                view.flags.writeable = True

    def test_frozen_copies_a_mutable_array_and_keeps_a_frozen_one(self):
        a = np.arange(6.0).reshape(2, 3)
        f = core.frozen(a)
        a[0, 0] = 9.0  # the copy does not see its source change
        assert f[0, 0] == 0.0 and f.shape == (2, 3)
        assert core.frozen(f) is f
        assert core.frozen(f, np.int64).dtype == np.int64
        # a non-contiguous view of a frozen array gets its own C-contiguous buffer
        t = core.frozen(f.T)
        assert t.flags.c_contiguous and core.is_frozen(t)
        np.testing.assert_array_equal(t, np.arange(6.0).reshape(2, 3).T)

    @pytest.mark.parametrize("make", [
        lambda: np.zeros(3),
        lambda: np.zeros(3)[:2].view(),
        lambda: np.frombuffer(bytearray(24)),
        lambda: np.frombuffer(memoryview(bytes(24))),
        lambda: bytes(24),
        lambda: [0.0, 0.0],
        lambda: np.frombuffer(bytes(28), offset=4),
    ], ids=["writeable", "view", "bytearray", "memoryview", "bytes", "list", "unaligned"])
    def test_is_frozen_refuses_other_arrays(self, make):
        arr = make()
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False  # read-only is not immutable
        assert not core.is_frozen(arr)

    def test_frozen_aligns_an_unaligned_buffer(self):
        # an unaligned float64 view of bytes: every product would copy it
        x = np.arange(6.0)
        raw = np.frombuffer(bytes(4) + x.tobytes(), "<f8", offset=4).reshape(2, 3)
        assert not raw.flags.aligned
        f = core.frozen(raw)
        assert f is not raw and f.flags.aligned and core.is_frozen(f)
        np.testing.assert_array_equal(f, x.reshape(2, 3))
        assert Dataset(raw, [0, 1]).features.flags.aligned

    def test_dataset_refuses_object_labels(self):
        with pytest.raises(ValueError, match="numbers or strings"):
            Dataset([[0.0], [1.0]], np.array([1, 2], dtype=object))


class TestIsIdentity:
    @pytest.mark.parametrize("d", [1, 7])
    def test_eye(self, d):
        assert is_identity(np.eye(d))

    @pytest.mark.parametrize("M", [
        near_identity(4, (1, 3), 1e-300),
        near_identity(4, (2, 2), np.nextafter(1.0, 2.0)),
        near_identity(4, (0, 0), np.nan),
        np.zeros((3, 3)),
        np.eye(2, 3),
    ], ids=["tiny_offdiagonal", "ulp_diagonal", "nan_diagonal", "zeros", "non_square"])
    def test_not_identity(self, M):
        assert not is_identity(M)


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.tau == 10.0
        assert cfg.outer_iters == 10
        assert cfg.inner_iters == 10_000

    @pytest.mark.parametrize("kwargs", [
        dict(tau=0.0), dict(tau=101.0), dict(gamma=-1.0), dict(lam=0.0),
        dict(delta=0.0), dict(outer_iters=-1), dict(inner_iters=3),
        dict(inner_iters=-2), dict(latent_em_iters=0), dict(active_set_cap=0),
        dict(outer_iters=True),
        dict(tau=float("nan")), dict(gamma=float("nan")), dict(lam=float("nan")),
        dict(delta=float("nan")), dict(tau=float("inf")),
        dict(outer_iters=2.5), dict(latent_em_iters=1.5), dict(inner_iters=4.0),
        dict(active_set_cap=True),
        dict(rng_seed="abc"), dict(rng_seed=1.5), dict(rng_seed=-3), dict(rng_seed=None),
        dict(rng_seed=True), dict(rng_seed=[1]), dict(rng_seed=np.int64(-1)),
        dict(tau=True), dict(gamma=True), dict(lam=True), dict(delta=True),
        dict(lam=np.True_), dict(tau="10"), dict(delta=None),
        dict(gamma=float("inf")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestMahalanobisSq:
    def test_identity_unit_offset(self):
        assert pair_distance(Metric.identity(2), (1.0, 0.0), (0.0, 0.0)) == 1.0

    def test_dense_matvec_oracle(self):
        M = [[2.0, 1.0], [1.0, 2.0]]
        a, b = np.array([1.5, 2.0]), np.array([0.5, 1.0])  # a - b = (1, 1)
        expected = oracle_mahalanobis(M, a, b)
        assert expected == pytest.approx(6.0, abs=1e-12)
        assert pair_distance(Metric(M), a, b) == pytest.approx(6.0, rel=1e-12)

    def test_nonnegative_under_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            M = Metric(random_psd(rng, d))
            a, b = rng.normal(size=d), rng.normal(size=d)
            assert pair_distance(M, a, b) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_distance(Metric.identity(2), (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))

    def test_clamps_tiny_negative(self):
        M = Metric(np.diag([1.0, -1e-12]))
        assert pair_distance(M, (0.0, 1.0), (0.0, 0.0)) == 0.0

    def test_propagates_real_negative(self):
        M = Metric(np.diag([1.0, -1.0]))
        assert pair_distance(M, (0.0, 1.0), (0.0, 0.0)) == -1.0

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        M = random_symmetric(rng, 3)
        A = rng.normal(size=(5, 3))
        got = pairwise_mahalanobis_sq(Metric(M), A)
        for i in range(5):
            for j in range(5):
                assert got[i, j] == pytest.approx(
                    oracle_mahalanobis(M, A[i], A[j]), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n,d", [(0, 3), (1, 1), (63, 40), (64, 64), (65, 7),
                                     (130, 130), (200, 4)])
    def test_row_slabs_equal_whole_matrix_form(self, n, d):
        # the slab-by-slab result is the whole-matrix expansion bit for bit,
        # clamp included, across slab boundaries and at several dimensions
        rng = np.random.default_rng(n)
        M = Metric(random_symmetric(rng, d))
        A = rng.normal(size=(n, d))
        AM = A @ M.matrix
        q = np.einsum("ij,ij->i", AM, A)
        want = q[:, None] + q[None, :] - 2.0 * (AM @ A.T)
        np.copyto(want, 0.0, where=(want > -1e-9) & (want < 0.0))
        got = pairwise_mahalanobis_sq(M, A)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPairwiseAtIdentity:
    """At an exact identity A M is A: no product with the metric, the same bytes."""

    @staticmethod
    def counted(matrix):
        return SimpleNamespace(dim=matrix.shape[0], matrix=matrix.view(MatmulCounter))

    # at (65, 200) numpy's A @ A.T (SYRK) rounds differently from the GEMM
    @pytest.mark.parametrize("n, d", [(1, 3), (65, 200), (130, 16)])
    def test_no_product_and_equal_to_the_product_path(self, n, d):
        A = np.random.default_rng(n).normal(size=(n, d))
        MatmulCounter.matmuls = 0
        got = pairwise_mahalanobis_sq(self.counted(np.eye(d)), A)
        assert MatmulCounter.matmuls == 0
        with mock.patch.object(core, "is_identity", lambda matrix: False):
            want = pairwise_mahalanobis_sq(Metric.identity(d), A)
        assert got.tobytes() == want.tobytes()

    def test_one_ulp_off_the_identity_takes_the_product(self):
        M = np.eye(5)
        M[1, 3] = M[3, 1] = np.nextafter(0.0, 1.0)
        A = np.random.default_rng(9).normal(size=(20, 5))
        MatmulCounter.matmuls = 0
        got = pairwise_mahalanobis_sq(self.counted(M), A)
        assert MatmulCounter.matmuls == 1
        assert got.tobytes() == pairwise_mahalanobis_sq(Metric(M), A).tobytes()


class TestTripletUniverse:
    def test_counts(self):
        # a margin too large to satisfy makes every valid triplet active
        counts = [3, 2, 1]
        model = make_latent_model(np.arange(6.0)[:, None], counts,
                                  margins=np.full(6, 100.0))
        t = build_active_set(model, Metric.identity(1), cap=1000, seed=0)
        # per anchor: (m_r - 1) same-class partners x (m - m_r) other-class
        expected = 3 * (2 * 3) + 2 * (1 * 4) + 0
        assert t.shape == (expected, 3)
        assert [tuple(r) for r in t] == oracle_valid_triplets(model.latent_labels)

    def test_single_class_empty(self):
        model = make_latent_model(np.arange(3.0)[:, None], [3],
                                  margins=np.full(3, 100.0))
        assert full_loss_all(Metric.identity(1), model) == 0.0
        assert len(build_active_set(model, Metric.identity(1), cap=10, seed=0)) == 0


class TestFullLoss:
    def test_empty_triplets(self):
        # one latent per class: no same-class partner, so no triplet
        model = make_latent_model(np.zeros((2, 1)), [1, 1])
        assert full_loss_all(Metric.identity(1), model) == 0.0

    def test_satisfied_constraint_inactive(self):
        # (0, 1, 2): D2(o,q) - D2(o,p) = 2 - 1 = 1 + margin -> hinge exactly
        # zero; (1, 0, 2): 5 - 1 > 1 -> satisfied
        z = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, -1.0]])
        model = make_latent_model(z, [2, 1])
        assert full_loss_all(Metric.identity(2), model) == 0.0

    def test_exhaustive_hand_enumeration(self):
        z = np.array([[0.0], [1.0], [1.5]])
        model = make_latent_model(z, [2, 1])
        expected = oracle_full_loss(np.eye(1), z, model.latent_labels,
                                    np.zeros(3))
        assert full_loss_all(Metric.identity(1), model) == pytest.approx(expected, rel=1e-12)
        # hand check: only (1, 0, 2) is violated, hinge = 1 - (0.25 - 1) = 1.75
        assert expected == pytest.approx(1.75)

    def test_brute_force_property(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            d = int(rng.integers(1, 5))
            c = int(rng.integers(2, min(m, 3) + 1))
            counts = np.full(c, m // c)
            counts[: m % c] += 1
            z = rng.normal(size=(m, d))
            margins = rng.uniform(0, 2, size=m)
            M_arr = random_symmetric(rng, d)
            model = make_latent_model(z, counts, margins=margins)
            expected = oracle_full_loss(M_arr, z, model.latent_labels, margins)
            assert full_loss_all(Metric(M_arr), model) == pytest.approx(
                expected, rel=1e-9, abs=1e-9)


# entries with duplicates, both zeros, a subnormal and huge magnitudes
ENTRIES = [-3.5, -1.0, -0.0, 0.0, 5e-324, 0.1, 0.3, 1.0, 2.5, 1e300]
# keys beside those: the entries themselves, +-1 ulp of each (from
# count_keys), and keys below and above every entry
KEY_BASES = ENTRIES + [-np.inf, -1e308, 1e308, np.inf]
ROW_LENGTHS = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]) | st.integers(1, 40)


def count_keys(bases, shifts):
    """Each base moved by shift ulps (-1, 0 or +1) toward -inf or +inf."""
    bases = np.asarray(bases, dtype=np.float64)
    return np.where(shifts < 0, np.nextafter(bases, -np.inf),
                    np.where(shifts > 0, np.nextafter(bases, np.inf), bases))


def searchsorted_rows(rows, keys):
    """The reference: one ``np.searchsorted(side="left")`` per sorted row."""
    return np.stack([np.searchsorted(np.sort(r), k, side="left")
                     for r, k in zip(rows, keys)])


class TestCountBelow:
    @settings(max_examples=300)
    @given(data=st.data(), k=st.integers(1, 4), n=ROW_LENGTHS, j=st.integers(1, 8))
    def test_matches_searchsorted_per_row(self, data, k, n, j):
        rows = np.array(data.draw(st.lists(st.sampled_from(ENTRIES), min_size=k * n,
                                           max_size=k * n))).reshape(k, n)
        bases = data.draw(st.lists(st.sampled_from(KEY_BASES), min_size=k * j,
                                   max_size=k * j))
        shifts = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=k * j,
                                             max_size=k * j)))
        keys = count_keys(bases, shifts).reshape(k, j)
        want = searchsorted_rows(rows, keys)
        got = count_below(np.sort(rows, axis=1), keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64])
    def test_every_boundary_key(self, n):
        # rows of repeated entries; every entry, +-1 ulp of it, +-0.0 and
        # keys outside the rows' range, on each row
        rng = np.random.default_rng(n)
        rows = np.sort(rng.choice(ENTRIES, size=(3, n)), axis=1)
        bases = np.repeat(KEY_BASES, 3)
        shifts = np.tile([-1, 0, 1], len(KEY_BASES))
        keys = np.broadcast_to(count_keys(bases, shifts), (3, bases.size))
        np.testing.assert_array_equal(count_below(rows, keys), searchsorted_rows(rows, keys))


class TestHingeBlockLabels:
    def instance(self, labels):
        rng = np.random.default_rng(len(labels))
        Z = rng.normal(size=(len(labels), 2))
        E = pairwise_mahalanobis_sq(Metric.identity(2), Z)
        return E, np.full(len(labels), 0.2)

    def test_slices_match_class_gathers(self):
        # each block is the class's rows of E: lo, hi, sorted rows; the
        # rows that decode_ranks argsorts are the same columns, unsorted
        counts = [3, 2, 4]
        E, margins = self.instance([0] * 3 + [1] * 2 + [2] * 4)
        labels = np.repeat([0, 1, 2], counts)
        bounds = class_bounds(counts, len(labels))
        assert len(bounds) == 3
        for r, (lo, hi) in enumerate(bounds):
            same = np.flatnonzero(labels == r)
            diff = np.flatnonzero(labels != r)
            assert (lo, hi) == (same[0], same[-1] + 1)
            b_sorted = hinge_block(E, lo, hi, margins)[0]
            np.testing.assert_array_equal(b_sorted, np.sort(E[np.ix_(same, diff)], axis=1))
            np.testing.assert_array_equal(other_class_columns(E, lo, hi),
                                          E[np.ix_(same, diff)])
