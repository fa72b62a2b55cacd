import numpy as np
import pytest

from mapml import (Dataset, Metric, TrainConfig, build_active_set,
                   full_loss_all, pairwise_mahalanobis_sq)
from mapml.core import is_identity

from conftest import (make_latent_model, oracle_full_loss, oracle_mahalanobis,
                      oracle_valid_triplets, random_psd, random_symmetric)


def pair_distance(metric, a, b):
    """One squared distance through the shipped pairwise kernel (1 x 1)."""
    return float(pairwise_mahalanobis_sq(metric, np.atleast_2d(a), np.atleast_2d(b))[0, 0])


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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Metric([[1.0, 1.0], [0.0, 1.0]])

    def test_accepts_tiny_asymmetry(self):
        M = np.eye(2)
        M[0, 1] = 5e-10
        Metric(M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Metric(np.ones((2, 3)))

    def test_min_eigenvalue(self):
        m = Metric(np.diag([2.0, -1.0]))
        assert m.min_eigenvalue() == pytest.approx(-1.0)


def near_identity(d, index, value):
    M = np.eye(d)
    M[index] = value
    return M


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
        B = rng.normal(size=(4, 3))
        got = pairwise_mahalanobis_sq(Metric(M), A, B)
        for i in range(5):
            for j in range(4):
                assert got[i, j] == pytest.approx(
                    oracle_mahalanobis(M, A[i], B[j]), rel=1e-9, abs=1e-9)


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
