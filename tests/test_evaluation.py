import numpy as np
import pytest

from mapml import Dataset, Metric, add_gaussian_noise, evaluate, knn_predict

from conftest import oracle_knn_euclidean, random_psd


class TestKnnPredict:
    def test_single_reference_forced(self):
        got = knn_predict([0.0, 0.0], [[5.0, 5.0]], [3], Metric.identity(2), k=1)
        assert got == 3

    def test_majority_vote(self):
        refs = np.array([[0.0], [1.0], [5.0]])
        labels = np.array([0, 0, 1])
        got = knn_predict([0.4], refs, labels, Metric.identity(1), k=3)
        assert got == 0
        # independent exhaustive-sort oracle agrees
        assert oracle_knn_euclidean([0.4], refs, labels, 3) == 0

    def test_vote_tie_nearest_class_wins(self):
        # one vote each; the class of the nearer neighbor wins
        refs = np.array([[1.0], [-2.0]])
        got = knn_predict([0.0], refs, np.array([0, 1]), Metric.identity(1), k=2)
        assert got == 0  # ref at distance 1 beats ref at distance 2

    def test_distance_tie_smaller_index(self):
        refs = np.array([[1.0], [-1.0]])
        got = knn_predict([0.0], refs, np.array([5, 6]), Metric.identity(1), k=1)
        assert got == 5

    def test_empty_refs_raises(self):
        with pytest.raises(ValueError):
            knn_predict([0.0], np.empty((0, 1)), np.array([], dtype=int),
                        Metric.identity(1), k=1)

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            knn_predict([0.0], [[1.0]], [0], Metric.identity(1), k=2)

    def test_agrees_with_euclidean_oracle(self):
        rng = np.random.default_rng(0)
        refs = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        M = Metric.identity(3)
        for _ in range(1000):
            q = rng.normal(size=3)
            assert knn_predict(q, refs, labels, M, k=3) == \
                oracle_knn_euclidean(q, refs, labels, 3)

    def test_metric_scale_invariance(self):
        rng = np.random.default_rng(1)
        refs = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        M = Metric(random_psd(rng, 4))
        M5 = Metric(5.0 * M.matrix)
        for _ in range(200):
            q = rng.normal(size=4)
            assert knn_predict(q, refs, labels, M, k=3) == \
                knn_predict(q, refs, labels, M5, k=3)


class TestEvaluate:
    def test_self_lookup_zero_error(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
        report = evaluate(data, data.features, data.labels,
                          Metric.identity(3), k=1)
        assert report.error_rate == 0.0
        assert report.n_test == 20

    def test_matches_knn_predict(self):
        rng = np.random.default_rng(3)
        refs = rng.normal(size=(25, 3))
        labels = rng.integers(0, 3, size=25)
        queries = rng.normal(size=(40, 3))
        M = Metric(random_psd(rng, 3))
        test = Dataset(queries, rng.integers(0, 3, size=40))
        report = evaluate(test, refs, labels, M, k=3)
        expected_errors = sum(
            knn_predict(q, refs, labels, M, k=3) != test.labels[i]
            for i, q in enumerate(queries))
        assert report.error_rate == pytest.approx(expected_errors / 40)

    def test_identity_metric_is_euclidean(self):
        rng = np.random.default_rng(4)
        refs = rng.normal(size=(30, 2))
        labels = rng.integers(0, 2, size=30)
        test = Dataset(rng.normal(size=(50, 2)), rng.integers(0, 2, size=50))
        report = evaluate(test, refs, labels, Metric.identity(2), k=3)
        errors = sum(
            oracle_knn_euclidean(test.features[i], refs, labels, 3) != test.labels[i]
            for i in range(50))
        assert report.error_rate == pytest.approx(errors / 50)

    def test_empty_test_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)), [])

    def test_label_name_alignment(self):
        # refs labeled {3, 9}; the test set only contains 9s
        refs = np.array([[0.0], [10.0]])
        train = Dataset(refs, [3, 9])
        test = Dataset([[9.5], [0.2]], [9, 9])
        report = evaluate(test, train.features, train.labels,
                          Metric.identity(1), k=1,
                          refs_label_names=train.label_names)
        assert report.error_rate == pytest.approx(0.5)

    def test_unseen_test_label_counts_as_error(self):
        train = Dataset([[0.0], [10.0]], [0, 1])
        test = Dataset([[0.1]], [2])
        report = evaluate(test, train.features, train.labels,
                          Metric.identity(1), k=1,
                          refs_label_names=train.label_names)
        assert report.error_rate == 1.0

    def test_latent_refs_faster_when_much_smaller(self):
        rng = np.random.default_rng(5)
        d = 64
        refs = rng.normal(size=(4000, d))
        labels = rng.integers(0, 4, size=4000)
        test = Dataset(rng.normal(size=(300, d)), rng.integers(0, 4, size=300))
        M = Metric.identity(d)
        big = evaluate(test, refs, labels, M, k=3)
        small = evaluate(test, refs[:200], labels[:200], M, k=3)
        assert small.mean_query_time < big.mean_query_time


class TestAddGaussianNoise:
    def test_sigma_zero_unchanged(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=(10, 3)), rng.integers(0, 2, size=10))
        noisy = add_gaussian_noise(data, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.features, data.features)
        np.testing.assert_array_equal(noisy.labels, data.labels)

    def test_negative_sigma_raises(self):
        data = Dataset([[0.0]], [0])
        with pytest.raises(ValueError):
            add_gaussian_noise(data, -0.1, seed=0)

    def test_zero_mean(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(1000, 1000)), rng.integers(0, 2, size=1000))
        noisy = add_gaussian_noise(data, 0.2, seed=2)
        diff = noisy.features - data.features
        assert abs(diff.mean()) <= 3 * 0.2 / 1e3  # 3 sigma over 10^6 entries

    def test_moment_estimation(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(1000, 1000)), rng.integers(0, 2, size=1000))
        noisy = add_gaussian_noise(data, 0.2, seed=3)
        diff = noisy.features - data.features
        assert diff.std() == pytest.approx(0.2, abs=0.002)

    def test_no_clamping_by_default(self):
        data = Dataset(np.zeros((200, 50)), np.r_[np.zeros(100), np.ones(100)])
        noisy = add_gaussian_noise(data, 1.0, seed=4)
        assert (noisy.features < 0).any()

    def test_deterministic(self):
        data = Dataset(np.zeros((10, 5)), np.r_[np.zeros(5), np.ones(5)])
        a = add_gaussian_noise(data, 0.5, seed=6)
        b = add_gaussian_noise(data, 0.5, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
