import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Dataset, Metric, add_gaussian_noise, evaluate, evaluation, knn_predict

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



def agrees_row_by_row(queries, want, refs, labels, metric, k):
    """True when ``evaluate`` predicts ``want[i]`` for every row i.

    The test set is labelled with ``want``; ``refs_label_names`` maps each
    raw reference label to itself, so any disagreement counts as an error.
    """
    test = Dataset(queries, want)
    report = evaluate(test, refs, labels, metric, k=k,
                      refs_label_names=np.arange(max(labels) + 1))
    return report.error_rate == 0.0


class TestTieRules:
    @pytest.mark.parametrize("refs, labels, k, want", [
        # squared distances 4, 4, 1, 1: argpartition alone keeps index 3
        ([2.0, -2.0, 1.0, -1.0], [0, 0, 5, 6], 1, 5),
        # 4, 0, 4, 0, 1, 1: argpartition alone keeps index 5, not 4
        ([2.0, 0.0, -2.0, 0.0, 1.0, -1.0], [2, 0, 2, 1, 1, 0], 3, 1),
    ])
    def test_tie_at_kth_distance_keeps_smaller_index(self, refs, labels, k, want):
        refs = np.array(refs)[:, None]
        M = Metric.identity(1)
        assert oracle_knn_euclidean([0.0], refs, labels, k) == want
        assert knn_predict([0.0], refs, labels, M, k) == want
        assert agrees_row_by_row([[0.0]], [want], refs, labels, M, k)

    @settings(max_examples=150)
    @given(st.data())
    def test_integer_grid_matches_oracle_for_every_k(self, data):
        # small integer coordinates: exact scores, dense ties at every rank
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(1, 3))
        q = data.draw(st.integers(1, 6))
        coords = st.integers(-2, 2).map(float)
        refs = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d)))
        queries = np.array(data.draw(st.lists(coords, min_size=q * d, max_size=q * d)))
        refs, queries = refs.reshape(n, d), queries.reshape(q, d)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        # the identity, or a diagonal in {1, 2, 3}: scores stay exact integers
        diag = data.draw(st.one_of(st.just([1] * d),
                                   st.lists(st.integers(1, 3), min_size=d, max_size=d)))
        M = Metric(np.diag(np.array(diag, dtype=float)))
        for k in range(1, n + 1):
            want = [oracle_knn_euclidean(x, refs, labels, k, M.matrix) for x in queries]
            assert [knn_predict(x, refs, labels, M, k) for x in queries] == want
            assert agrees_row_by_row(queries, want, refs, labels, M, k)

    def test_ragged_blocks_match_knn_predict(self, monkeypatch):
        rng = np.random.default_rng(9)
        refs = rng.integers(-2, 3, size=(20, 2)).astype(float)
        labels = rng.integers(0, 3, size=20)
        queries = rng.integers(-2, 3, size=(23, 2)).astype(float)
        M = Metric(np.array([[2.0, 1.0], [1.0, 3.0]]))
        want = [knn_predict(x, refs, labels, M, k=4) for x in queries]
        blocks = []
        rank = evaluation._knn_labels

        def spy(X, *args):
            blocks.append(X.shape[0])
            return rank(X, *args)

        monkeypatch.setattr(evaluation, "BLOCK_SCORES", 5 * 20)
        monkeypatch.setattr(evaluation, "_knn_labels", spy)
        assert agrees_row_by_row(queries, want, refs, labels, M, k=4)
        assert blocks == [5, 5, 5, 5, 3]


class TestReferenceValidation:
    @pytest.mark.parametrize("labels", [[0, 1, 2], [0], [[0], [1]]])
    def test_labels_not_one_per_reference(self, labels):
        refs = [[1.0], [2.0]]
        with pytest.raises(ValueError, match="one label per reference"):
            knn_predict([0.0], refs, labels, Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="one label per reference"):
            evaluate(Dataset([[0.0]], [0]), refs, labels, Metric.identity(1), k=1)

    def test_reference_width_not_metric_dim(self):
        with pytest.raises(ValueError, match="dimension 1"):
            knn_predict([0.0], [[1.0, 2.0]], [0], Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="dimension 1"):
            evaluate(Dataset([[0.0]], [0]), [[1.0, 2.0]], [0], Metric.identity(1), k=1)

    def test_query_width_not_metric_dim(self):
        with pytest.raises(ValueError, match="query must have shape"):
            knn_predict([0.0, 0.0], [[1.0]], [0], Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="dimension 1"):
            evaluate(Dataset([[0.0, 0.0]], [0]), [[1.0]], [0], Metric.identity(1), k=1)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                     [np.nan, np.inf, -np.inf]])
    @pytest.mark.parametrize("row", [0, 3])  # among and away from the query's nearest
    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_non_finite_reference(self, bad, row):
        refs = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.3, 0.3, 0.3],
                         [5.0, 5.0, 5.0]])
        refs[row, :len(bad)] = bad
        x, labels, M = [0.0, 0.0, 0.0], [0, 1, 1, 0], Metric.identity(3)
        match = f"reference {row} has a non-finite entry"
        with pytest.raises(ValueError, match=match):
            knn_predict(x, refs, labels, M, k=2)
        with pytest.raises(ValueError, match=match):
            evaluate(Dataset([x], [0]), refs, labels, M, k=2)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_overflowing_scores_never_pick_a_reference_twice(self):
        # both forms r^T M r are finite; the far reference's score
        # -2 x^T M r overflows to +inf
        refs, labels, M = [[0.0], [-1e154]], [0, 1], Metric.identity(1)
        assert knn_predict([1e154], refs, labels, M, k=1) == 0
        # a second pick would be an inf score: ref 0 again, by index
        with pytest.raises(ValueError, match="overflow"):
            knn_predict([1e154], refs, labels, M, k=2)
        with pytest.raises(ValueError, match="overflow"):
            evaluate(Dataset([[1e154]], [0]), refs, labels, M, k=2)

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [0.0, np.nan], [0.0, np.inf]])
    def test_non_integer_labels(self, labels):
        refs = [[1.0], [2.0]]
        with pytest.raises(ValueError, match="integer"):
            knn_predict([0.0], refs, labels, Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="integer"):
            evaluate(Dataset([[0.0]], [0]), refs, labels, Metric.identity(1), k=1)

    def test_integral_float_labels_accepted(self):
        refs = [[1.0], [2.0]]
        assert knn_predict([2.1], refs, [0.0, 1.0], Metric.identity(1), k=1) == 1
        rep = evaluate(Dataset([[2.1]], [1]), refs, [0.0, 1.0], Metric.identity(1), k=1,
                       refs_label_names=[0, 1])
        assert rep.error_rate == 0.0

    def test_label_values_beyond_reference_count(self):
        # the vote is sized by the coded labels, not by the largest value
        refs = [[0.0], [1.0]]
        test = Dataset([[0.1], [0.9]], [0, 1])
        preds = [knn_predict(x, refs, [0, 2 ** 62], Metric.identity(1), k=1)
                 for x in test.features]
        assert preds == [0, 2 ** 62]
        rep = evaluate(test, refs, [0, 2 ** 62], Metric.identity(1), k=1)
        assert rep.error_rate == np.mean(np.array(preds) != test.labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, bad):
        with pytest.raises(ValueError, match="finite"):
            knn_predict([bad], [[1.0], [2.0]], [0, 1], Metric.identity(1), k=1)


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

    def test_nan_sigma_raises(self):
        data = Dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            add_gaussian_noise(data, float("nan"), seed=0)

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
