import gc
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Dataset, Metric, add_gaussian_noise, core, evaluate, evaluation, knn_predict

from conftest import MatmulCounter, oracle_knn_euclidean, random_psd


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

    @pytest.mark.parametrize("names", [[7, 5], [5], [[5], [7]], [5, np.nan], [5, 5]],
                             ids=["decreasing", "too-few", "2-D", "nan", "repeated"])
    def test_malformed_refs_label_names(self, names):
        # [7, 5] named code 1 "5" and scored the nearest-to-code-1 row, labelled
        # 5, as an error; [5] left code 1 without a name
        test = Dataset([[9.9]], [5])
        with pytest.raises(ValueError, match="refs_label_names"):
            evaluate(test, [[0.0], [10.0]], [0, 1], Metric.identity(1), k=1,
                     refs_label_names=names)

    def test_refs_label_names_cover_coded_labels(self):
        # labels beyond the reference count: the names must still reach
        # the largest label value
        test = Dataset([[9.9]], [5])
        refs, labels = [[0.0], [10.0]], [0, 3]
        with pytest.raises(ValueError, match="refs_label_names has 3 entries"):
            evaluate(test, refs, labels, Metric.identity(1), k=1,
                     refs_label_names=[1, 2, 4])
        rep = evaluate(test, refs, labels, Metric.identity(1), k=1,
                       refs_label_names=[1, 2, 4, 5])
        assert rep.error_rate == 0.0

    def test_string_label_names(self):
        train = Dataset([[0.0], [10.0]], ["a", "b"])
        test = Dataset([[9.9], [0.1]], ["b", "b"])
        rep = evaluate(test, train.features, train.labels, Metric.identity(1), k=1,
                       refs_label_names=train.label_names)
        assert rep.error_rate == 0.5

    def test_one_block_percentiles_equal_mean(self):
        rng = np.random.default_rng(10)
        test = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, size=50))
        rep = evaluate(test, rng.normal(size=(30, 3)), rng.integers(0, 2, size=30),
                       Metric.identity(3), k=3)
        assert rep.p50_query_time == rep.p99_query_time == rep.mean_query_time > 0

    def test_percentiles_over_row_shares_of_block_time(self, monkeypatch):
        # blocks of 5, 5, 5, 5, 3 rows timed 5, 5, 5, 5 and 30 s: rows take
        # 1 s (20 rows) or 10 s (3 rows)
        ticks = iter(np.cumsum([0, 5, 0, 5, 0, 5, 0, 5, 0, 30]))
        clock = type("Clock", (), {"perf_counter": staticmethod(lambda: next(ticks))})
        monkeypatch.setattr(evaluation, "time", clock)
        monkeypatch.setattr(evaluation, "BLOCK_SCORES", 5 * 20)
        monkeypatch.setattr(evaluation, "MIN_BLOCK_ROWS", 1)
        rng = np.random.default_rng(11)
        test = Dataset(rng.normal(size=(23, 2)), rng.integers(0, 2, size=23))
        rep = evaluate(test, rng.normal(size=(20, 2)), rng.integers(0, 2, size=20),
                       Metric.identity(2), k=1)
        assert rep.mean_query_time == pytest.approx(50 / 23)
        assert (rep.p50_query_time, rep.p99_query_time) == (1.0, 10.0)

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

    The test set is labelled with ``want``; the references carry their
    labels' positions among the distinct values, which ``refs_label_names``
    names, so any disagreement counts as an error. (Naming the raw values
    instead would take max(labels) + 1 names.)
    """
    test = Dataset(queries, want)
    names, codes = np.unique(labels, return_inverse=True)
    report = evaluate(test, refs, codes, metric, k=k, refs_label_names=names)
    return report.error_rate == 0.0


def spy_block_rows(monkeypatch):
    """The list that each ranked block's row count is appended to."""
    blocks = []
    rank = evaluation._knn_labels

    def spy(X, *args):
        blocks.append(X.shape[0])
        return rank(X, *args)

    monkeypatch.setattr(evaluation, "_knn_labels", spy)
    return blocks


class TestEvaluateAtIdentity:
    """At an exact identity R M is R: no product with the metric, the same predictions."""

    @pytest.mark.parametrize("grid", [False, True])  # integer coordinates tie densely
    def test_no_product_and_equal_to_the_product_path(self, monkeypatch, grid):
        rng = np.random.default_rng(21)
        refs, rows = rng.normal(size=(300, 20)), rng.normal(size=(200, 20))
        if grid:
            refs, rows = np.round(refs), np.round(rows)
        labels = rng.integers(0, 4, size=300)
        test = Dataset(rows, rng.integers(0, 4, size=200))
        preds = []
        vote = evaluation._knn_labels

        def spy(S, labels, k):
            preds.append(vote(S, labels, k))
            return preds[-1]

        monkeypatch.setattr(evaluation, "_knn_labels", spy)
        MatmulCounter.matmuls = 0
        counted = SimpleNamespace(dim=20, matrix=np.eye(20).view(MatmulCounter))
        got = evaluate(test, refs, labels, counted, k=5)
        assert MatmulCounter.matmuls == 0
        with monkeypatch.context() as patch:
            patch.setattr(core, "is_identity", lambda matrix: False)
            want = evaluate(test, refs, labels, Metric.identity(20), k=5)
        assert 0 < got.error_rate == want.error_rate
        assert len(preds) == 2  # one block each
        np.testing.assert_array_equal(preds[0], preds[1])


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
        # values at and beyond n: the vote compares labels, never indexes by them
        labels = data.draw(st.lists(st.sampled_from([0, 1, 7, 2 ** 40]),
                                    min_size=n, max_size=n))
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
        monkeypatch.setattr(evaluation, "BLOCK_SCORES", 5 * 20)
        monkeypatch.setattr(evaluation, "MIN_BLOCK_ROWS", 1)
        blocks = spy_block_rows(monkeypatch)
        assert agrees_row_by_row(queries, want, refs, labels, M, k=4)
        assert blocks == [5, 5, 5, 5, 3]

    def test_blocks_hold_min_rows_against_many_refs(self, monkeypatch):
        # 2100 references leave BLOCK_SCORES // 2100 = 124 rows per block,
        # under the floor of MIN_BLOCK_ROWS
        rng = np.random.default_rng(12)
        refs = rng.integers(-3, 4, size=(2100, 2)).astype(float)
        labels = rng.integers(0, 4, size=2100)
        queries = rng.integers(-3, 4, size=(300, 2)).astype(float)
        M = Metric(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert 2100 * evaluation.MIN_BLOCK_ROWS > evaluation.BLOCK_SCORES
        want = [knn_predict(x, refs, labels, M, k=3) for x in queries]
        blocks = spy_block_rows(monkeypatch)
        assert agrees_row_by_row(queries, want, refs, labels, M, k=3)
        rows = evaluation.MIN_BLOCK_ROWS
        assert blocks[:-1] == [rows] * (len(blocks) - 1)
        assert sum(blocks) == 300 and 0 < blocks[-1] <= rows


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

    @pytest.mark.parametrize("k", [2.0, True, np.float64(2), "2", None],
                             ids=["float", "bool", "numpy-float", "str", "none"])
    def test_non_integer_k(self, k):
        refs, labels = [[1.0], [2.0], [3.0]], [0, 1, 1]
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_predict([0.0], refs, labels, Metric.identity(1), k=k)
        with pytest.raises(ValueError, match="k must be an integer"):
            evaluate(Dataset([[0.0]], [0]), refs, labels, Metric.identity(1), k=k)

    def test_numpy_integer_k_accepted(self):
        refs, labels = [[1.0], [2.0], [3.0]], [0, 1, 1]
        assert knn_predict([0.0], refs, labels, Metric.identity(1), k=np.int64(3)) == 1
        rep = evaluate(Dataset([[0.0]], [1]), refs, labels, Metric.identity(1),
                       k=np.uint8(3), refs_label_names=[0, 1])
        assert rep.error_rate == 0.0 and rep.k == 3

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [0.0, np.nan], [0.0, np.inf]])
    def test_non_integer_labels(self, labels):
        refs = [[1.0], [2.0]]
        with pytest.raises(ValueError, match="integer"):
            knn_predict([0.0], refs, labels, Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="integer"):
            evaluate(Dataset([[0.0]], [0]), refs, labels, Metric.identity(1), k=1)

    def test_negative_labels(self):
        # the test label 7 is not among the names, so its target is -1: the
        # nearest reference, labelled -1, would score it as correct
        refs = [[1.0], [2.0]]
        with pytest.raises(ValueError, match="non-negative"):
            knn_predict([0.0], refs, [0, -1], Metric.identity(1), k=1)
        with pytest.raises(ValueError, match="non-negative"):
            evaluate(Dataset([[2.1]], [7]), refs, [0, -1], Metric.identity(1), k=1,
                     refs_label_names=[0, 1])

    def test_integral_float_labels_accepted(self):
        refs = [[1.0], [2.0]]
        assert knn_predict([2.1], refs, [0.0, 1.0], Metric.identity(1), k=1) == 1
        rep = evaluate(Dataset([[2.1]], [1]), refs, [0.0, 1.0], Metric.identity(1), k=1,
                       refs_label_names=[0, 1])
        assert rep.error_rate == 0.0

    def test_label_values_beyond_reference_count(self):
        # the vote compares labels, so its memory does not grow with their value
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


class TestOneRowVote:
    """``knn_predict``'s one-row ``_knn_label`` ranks as ``evaluate``'s block ``_knn_labels``."""

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_the_block_path_for_every_k(self, data):
        # integer-valued scores tie densely at every rank
        n = data.draw(st.integers(1, 12))
        scores = np.array(data.draw(st.lists(st.integers(-3, 3).map(float),
                                             min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1, 7, 2 ** 40]),
                                             min_size=n, max_size=n)), dtype=np.int64)
        for k in range(1, n + 1):
            got = evaluation._knn_label(scores.copy(), labels, k)
            assert type(got) is int
            assert got == evaluation._knn_labels(scores[None].copy(), labels, k)[0]

    @settings(max_examples=300)
    @given(st.data())
    def test_non_finite_picks_raise_in_both(self, data):
        n = data.draw(st.integers(1, 12))
        values = st.one_of(st.integers(-3, 3).map(float),
                           st.sampled_from([np.nan, np.inf, -np.inf]))
        scores = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1, 7, 2 ** 40]),
                                             min_size=n, max_size=n)), dtype=np.int64)
        # NaN and -inf are picked first; +inf once the finite scores run out
        first_bad = (1 if (np.isnan(scores) | (scores == -np.inf)).any()
                     else np.count_nonzero(np.isfinite(scores)) + 1)
        for k in range(1, n + 1):
            if k < first_bad:
                assert (evaluation._knn_label(scores.copy(), labels, k)
                        == evaluation._knn_labels(scores[None].copy(), labels, k)[0])
                continue
            with pytest.raises(ValueError, match="overflow"):
                evaluation._knn_label(scores.copy(), labels, k)
            with pytest.raises(ValueError, match="overflow"):
                evaluation._knn_labels(scores[None].copy(), labels, k)

    def test_knn_predict_makes_no_block_call(self, monkeypatch):
        rng = np.random.default_rng(22)
        refs, labels = rng.normal(size=(40, 3)), rng.integers(0, 3, size=40)
        M = Metric(random_psd(rng, 3))
        queries = rng.normal(size=(10, 3))
        want = [knn_predict(x, refs, labels, M, 5) for x in queries]
        blocks = spy_block_rows(monkeypatch)
        assert [knn_predict(x, refs, labels, M, 5) for x in queries] == want
        assert blocks == []
        evaluate(Dataset(queries, want), refs, labels, M, k=5)  # the spy sees a block
        assert blocks == [10]


def count_builds(monkeypatch):
    """The list that each ``_references`` call (a validated index build) appends to."""
    calls = []
    build = evaluation._references

    def spy(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(evaluation, "_references", spy)
    return calls


def assign_in_place(a, name, value):
    """Set ``a.<name>``, under numpy's deprecation of doing so; skip where numpy refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            setattr(a, name, value)
        except AttributeError:
            pytest.skip(f"numpy no longer assigns an array's {name} in place")


class TestReferenceIndex:
    """``evaluate`` and ``knn_predict`` build an immutable reference set's index once.

    Nothing else changes: every answer is the one a writeable copy gives.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reuse_answers_as_the_first_call_and_a_writeable_copy(self, data):
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(1, 3))
        grid = data.draw(st.booleans())
        # small integer coordinates give exact scores and dense ties
        coords = (st.integers(-2, 2).map(float) if grid
                  else st.floats(-10, 10, allow_nan=False, allow_subnormal=False))
        refs = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d)))
        queries = np.array(data.draw(st.lists(coords, min_size=3 * d, max_size=3 * d)))
        refs, queries = refs.reshape(n, d), queries.reshape(3, d)
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1, 7, 2 ** 40]),
                                             min_size=n, max_size=n)))
        diag = data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        M = Metric(np.diag(np.array(diag, dtype=float)))
        frozen_refs, frozen_labels = core.frozen(refs), core.frozen(labels)
        for k in range(1, n + 1):
            first = [knn_predict(x, frozen_refs, frozen_labels, M, k) for x in queries]
            assert [knn_predict(x, frozen_refs, frozen_labels, M, k) for x in queries] == first
            assert [knn_predict(x, refs.copy(), labels.copy(), M, k) for x in queries] == first
            if grid:
                assert first == [oracle_knn_euclidean(x, refs, labels, k, M.matrix)
                                 for x in queries]

    def test_immutable_refs_build_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        train = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 3, size=50))
        M = Metric(random_psd(rng, 3))
        builds = count_builds(monkeypatch)
        queries = rng.normal(size=(20, 3))
        got = [knn_predict(x, train.features, train.labels, M, 3) for x in queries]
        assert len(builds) == 1
        # a Metric over the same frozen matrix shares it; another matrix, or
        # mutable copies of the same values, build again
        knn_predict(queries[0], train.features, train.labels, Metric(M.matrix), 3)
        assert len(builds) == 1
        knn_predict(queries[0], train.features, train.labels, Metric(M.matrix.copy()), 3)
        assert len(builds) == 2
        assert [knn_predict(x, np.array(train.features), train.labels, M, 3)
                for x in queries] == got
        assert len(builds) == 22

    def test_evaluate_and_knn_predict_share_one_build(self, monkeypatch):
        rng = np.random.default_rng(15)
        train = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 3, size=60))
        test = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
        M = Metric(random_psd(rng, 4))
        builds = count_builds(monkeypatch)
        rates = {evaluate(test, train.features, train.labels, M, k=3).error_rate
                 for _ in range(3)}
        got = [knn_predict(x, train.features, train.labels, M, 3) for x in test.features]
        assert len(builds) == 1 and len(rates) == 1
        assert rates.pop() == np.count_nonzero(np.array(got) != test.labels) / test.n

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_evaluate_answers_as_a_writeable_copy_and_knn_predict(self, data):
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(1, 3))
        q = data.draw(st.integers(1, 6))
        grid = data.draw(st.booleans())
        # small integer coordinates give exact scores and dense ties
        coords = (st.integers(-2, 2).map(float) if grid
                  else st.floats(-10, 10, allow_nan=False, allow_subnormal=False))
        refs = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d)))
        rows = np.array(data.draw(st.lists(coords, min_size=q * d, max_size=q * d)))
        refs, rows = refs.reshape(n, d), rows.reshape(q, d)
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        test = Dataset(rows, data.draw(st.lists(st.integers(0, 3), min_size=q, max_size=q)))
        diag = data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        M = Metric(np.diag(np.array(diag, dtype=float)))
        frozen_refs, frozen_labels = core.frozen(refs), core.frozen(labels)
        for k in range(1, n + 1):
            rate = evaluate(test, frozen_refs, frozen_labels, M, k=k).error_rate
            assert evaluate(test, frozen_refs, frozen_labels, M, k=k).error_rate == rate
            assert evaluate(test, refs.copy(), labels.copy(), M, k=k).error_rate == rate
            want = [knn_predict(x, frozen_refs, frozen_labels, M, k) for x in rows]
            assert agrees_row_by_row(rows, want, frozen_refs, frozen_labels, M, k)

    @pytest.mark.parametrize("kind", ["writeable", "read-only-view", "bytearray"])
    def test_mutated_refs_give_the_mutated_evaluate_answer(self, kind):
        # the test row 1.0, labelled 0, is nearest reference 0 until it moves to 20.0
        base = np.array([[0.0], [10.0]])
        refs, labels = base, core.frozen([0, 1])
        if kind == "read-only-view":
            refs = base.view()
            refs.flags.writeable = False
        elif kind == "bytearray":
            buf = bytearray(base.tobytes())
            refs = np.frombuffer(buf).reshape(2, 1)
            refs.flags.writeable = False
        test, M = Dataset([[1.0]], [0]), Metric.identity(1)
        assert evaluate(test, refs, labels, M, k=1).error_rate == 0.0
        if kind == "bytearray":
            buf[:8] = np.float64(20.0).tobytes()
        else:
            base[0, 0] = 20.0
        assert evaluate(test, refs, labels, M, k=1).error_rate == 1.0

    def test_second_evaluate_allocates_no_second_rm(self):
        rng = np.random.default_rng(16)
        n_refs, d = 2000, 256
        train = Dataset(rng.normal(size=(n_refs, d)), rng.integers(0, 5, size=n_refs))
        test = Dataset(rng.normal(size=(50, d)), rng.integers(0, 5, size=50))
        M = Metric(random_psd(rng, d))
        first = evaluate(test, train.features, train.labels, M, k=3)
        tracemalloc.start()
        try:
            second = evaluate(test, train.features, train.labels, M, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert second.error_rate == first.error_rate
        assert peak < n_refs * d * 8

    @pytest.mark.parametrize("kind", ["writeable", "read-only-view", "bytearray", "labels"])
    def test_mutated_refs_give_the_mutated_answer(self, kind):
        # the query 1.0 is nearest reference 0 until it moves to 20.0
        base = np.array([[0.0], [10.0]])
        refs, labels = base, core.frozen([0, 1])
        if kind == "read-only-view":
            refs = base.view()
            refs.flags.writeable = False
        elif kind == "bytearray":
            buf = bytearray(base.tobytes())
            refs = np.frombuffer(buf).reshape(2, 1)
            refs.flags.writeable = False
        elif kind == "labels":
            refs, labels = core.frozen(base), np.array([0, 1])
        M = Metric.identity(1)
        assert knn_predict([1.0], refs, labels, M, 1) == 0
        if kind == "labels":
            labels[0] = 1
        elif kind == "bytearray":
            buf[:8] = np.float64(20.0).tobytes()
        else:
            base[0, 0] = 20.0
        assert knn_predict([1.0], refs, labels, M, 1) == 1

    def test_checks_hold_on_a_reused_index(self, monkeypatch):
        train = Dataset([[0.0], [1.0], [5.0]], [0, 0, 1])
        M = Metric.identity(1)
        builds = count_builds(monkeypatch)
        assert knn_predict([0.4], train.features, train.labels, M, 3) == 0
        for query, k, match in [([0.4], 4, r"k must be in \[1, 3\]"),
                                ([0.4], 0, "k must be in"),
                                ([0.4], 2.0, "k must be an integer"),
                                ([0.4], True, "k must be an integer"),
                                ([0.4, 0.1], 1, "query must have shape"),
                                ([[0.4]], 1, "query must have shape"),
                                ([np.nan], 1, "finite"),
                                ([np.inf], 1, "finite")]:
            with pytest.raises(ValueError, match=match):
                knn_predict(query, train.features, train.labels, M, k)
        assert knn_predict([4.0], train.features, train.labels, M, 1) == 1
        assert len(builds) == 1

    @pytest.mark.parametrize("query, match", [([np.nan, 0.0], "finite"),
                                              ([0.0, 0.0, 0.0], "query must have shape")])
    def test_malformed_query_raises_before_a_build(self, monkeypatch, query, match):
        refs, labels = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1])
        builds = count_builds(monkeypatch)
        with pytest.raises(ValueError, match=match):
            knn_predict(query, refs, labels, Metric.identity(2), 1)
        assert builds == []

    def test_evaluate_checks_the_test_width_before_a_build(self, monkeypatch):
        rng = np.random.default_rng(19)
        train = Dataset(rng.normal(size=(50, 3)), rng.integers(0, 3, size=50))
        test = Dataset(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        builds = count_builds(monkeypatch)
        gc.collect()  # so that no older entry drops during the count
        before = len(evaluation._INDEX)
        with pytest.raises(ValueError, match="test rows have 4 columns, the metric has dimension 3"):
            evaluate(test, train.features, train.labels, Metric(random_psd(rng, 3)))
        assert builds == [] and len(evaluation._INDEX) == before

    @pytest.mark.parametrize("identity", [False, True])
    def test_frozen_float32_refs_build_once(self, monkeypatch, identity):
        # an entry holds the float64 R M its build made, whatever the features' dtype
        rng = np.random.default_rng(20)
        refs = core.frozen(rng.normal(size=(30, 3)), np.float32)
        labels = core.frozen(rng.integers(0, 3, size=30))
        M = Metric.identity(3) if identity else Metric(random_psd(rng, 3))
        queries = rng.normal(size=(5, 3))
        builds = count_builds(monkeypatch)
        got = [knn_predict(x, refs, labels, M, 3) for x in queries]
        assert len(builds) == 1
        assert got == [knn_predict(x, refs.astype(np.float64), labels.copy(), M, 3)
                       for x in queries]

    def test_hit_skips_the_immutability_walk(self, monkeypatch):
        train = Dataset([[0.0], [1.0], [5.0]], [0, 0, 1])
        M = Metric.identity(1)
        knn_predict([0.4], train.features, train.labels, M, 1)
        walks = []
        is_frozen = core.is_frozen
        monkeypatch.setattr(core, "is_frozen", lambda a: walks.append(1) or is_frozen(a))
        assert knn_predict([4.0], train.features, train.labels, M, 1) == 1
        assert walks == []

    # numpy lets a frozen array's shape and dtype be assigned in place (and
    # its strides, with a warning): a hit must then answer as a fresh build
    def test_reshaped_refs_answer_as_a_fresh_build(self):
        refs = core.frozen(np.arange(8.0).reshape(4, 2))
        labels, M = core.frozen([0, 1, 0, 1]), Metric.identity(2)
        assert knn_predict([2.0, 3.0], refs, labels, M, 1) == 1
        assign_in_place(refs, "shape", (2, 4))
        with pytest.raises(ValueError, match="4 columns"):
            knn_predict([2.0, 3.0], np.array(refs), labels, M, 1)
        with pytest.raises(ValueError, match="4 columns"):
            knn_predict([2.0, 3.0], refs, labels, M, 1)

    def test_retyped_labels_answer_as_a_fresh_build(self):
        refs, M = core.frozen([[0.0], [1.0]]), Metric.identity(1)
        labels = core.frozen([0, 1], np.int64)
        assert knn_predict([0.1], refs, labels, M, 1) == 0
        assign_in_place(labels, "dtype", np.float64)
        with pytest.raises(ValueError, match="integers"):
            knn_predict([0.1], refs, np.array(labels), M, 1)
        with pytest.raises(ValueError, match="integers"):
            knn_predict([0.1], refs, labels, M, 1)

    def test_restrided_refs_answer_as_a_fresh_build(self):
        # the query 0 is reference 0 until the transposing strides make
        # the references [[0, 1], [0, 0]]
        refs = core.frozen([[0.0, 0.0], [1.0, 0.0]])
        labels, M = core.frozen([0, 1]), Metric.identity(2)
        assert knn_predict([0.0, 0.0], refs, labels, M, 1) == 0
        assign_in_place(refs, "strides", refs.strides[::-1])
        assert core.is_frozen(refs)
        assert knn_predict([0.0, 0.0], np.array(refs), labels, M, 1) == 1
        assert knn_predict([0.0, 0.0], refs, labels, M, 1) == 1

    def test_no_entry_outlives_its_references(self):
        rng = np.random.default_rng(14)
        gc.collect()  # so that no older entry drops during the count
        before = len(evaluation._INDEX)
        for _ in range(200):
            train = Dataset(rng.normal(size=(6, 2)), [0, 1, 0, 1, 2, 2])
            M = Metric(random_psd(rng, 2))
            knn_predict(rng.normal(size=2), train.features, train.labels, M, 2)
        # one live reference set under 200 metrics holds one entry, the live metric's
        for _ in range(200):
            M = Metric(random_psd(rng, 2))
            knn_predict(rng.normal(size=2), train.features, train.labels, M, 2)
        assert len(evaluation._INDEX) == before + 1
        del train, M
        gc.collect()
        assert len(evaluation._INDEX) == before

    def test_no_entry_holds_frozen_int64_labels(self):
        # labels already frozen int64 are the build's own labels: an entry
        # that stored them would keep its key alive
        rng = np.random.default_rng(17)
        train = Dataset(rng.normal(size=(6, 2)), [0, 1, 0, 1, 2, 2])
        M = Metric(random_psd(rng, 2))
        gc.collect()  # so that no older entry drops during the count
        before = len(evaluation._INDEX)
        for _ in range(200):
            labels = core.frozen(rng.integers(0, 3, size=6), np.int64)
            knn_predict(rng.normal(size=2), train.features, labels, M, 2)
            del labels
        gc.collect()
        assert len(evaluation._INDEX) == before

    def test_no_entry_holds_the_references_at_the_identity(self):
        # at an exact identity R M is R itself: an entry that stored it
        # would keep its key alive while the labels and the metric live
        rng = np.random.default_rng(18)
        M = Metric.identity(64)
        labels = core.frozen(rng.integers(0, 3, size=20), np.int64)
        gc.collect()  # so that no older entry drops during the count
        before = len(evaluation._INDEX)
        for _ in range(200):
            refs = core.frozen(rng.normal(size=(20, 64)))
            knn_predict(rng.normal(size=64), refs, labels, M, 2)
            del refs
        gc.collect()
        assert len(evaluation._INDEX) == before


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

    def test_infinite_sigma_raises(self):
        data = Dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            add_gaussian_noise(data, float("inf"), seed=0)

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
