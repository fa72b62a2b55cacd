"""k-nearest-neighbor evaluation under a learned metric.

Reference points can be the latent examples (small, fast to query) or the
original training data. Includes the Gaussian-noise harness used by the
robustness benchmarks.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Metric
# not called here: kept importable because perfbench/spans.py wraps this name
from .core import pairwise_mahalanobis_sq  # noqa: F401


@dataclass
class EvalReport:
    """Error rate and query timing of one evaluation pass."""

    error_rate: float
    k: int
    reference_mode: str
    n_test: int
    mean_query_time: float


# Score entries per ranked block of test rows: 2**18 float64 scores is 2 MiB.
BLOCK_SCORES = 2 ** 18


def _check_refs(refs_features, refs_labels, metric: Metric, k: int):
    """References and labels as arrays, validated against the metric and k."""
    refs_features = np.asarray(refs_features, dtype=np.float64)
    refs_labels = np.asarray(refs_labels, dtype=np.int64)
    if refs_features.ndim != 2 or refs_features.shape[0] == 0:
        raise ValueError("reference set must be a non-empty 2-D array")
    if refs_features.shape[1] != metric.dim:
        raise ValueError(f"references have {refs_features.shape[1]} columns, "
                         f"the metric has dimension {metric.dim}")
    if refs_labels.shape != (refs_features.shape[0],):
        raise ValueError(f"expected one label per reference ({refs_features.shape[0]}), "
                         f"got labels of shape {refs_labels.shape}")
    if refs_labels.min() < 0:
        raise ValueError("reference labels must be non-negative")
    if not 1 <= k <= refs_features.shape[0]:
        raise ValueError(f"k must be in [1, {refs_features.shape[0]}], got {k}")
    return refs_features, refs_labels


def _index(refs, metric: Metric):
    """R M and the reference quadratic forms r^T M r: what ranking needs of the refs."""
    RM = refs @ metric.matrix
    return RM, np.einsum("ij,ij->i", RM, refs)


def _knn_labels(X, index, labels, k: int) -> np.ndarray:
    """k-nearest-neighbor vote for each row of X against an ``_index``.

    Row x ranks reference r by r^T M r - 2 x^T M r, which differs from the
    squared distance by x^T M x alone. Equal scores go to the smaller
    reference index; a vote tie goes to the tied class whose nearest member
    ranks first.
    """
    RM, rq = index
    S = (-2.0 * X) @ RM.T  # scaling X by -2 is exact, and cheaper than scaling S
    S += rq
    rows = np.arange(S.shape[0])[:, None]
    part = np.argpartition(S, min(k, S.shape[1] - 1), axis=1)
    cand = part[:, :k]
    ps = S[rows, part[:, :k + 1]]
    cs = ps[:, :k]
    top = cand[rows, np.lexsort((cand, cs))]
    # argpartition splits a tie at the k-th score arbitrarily: where the
    # (k+1)-th score equals the k-th, re-rank the row stably
    tied = (ps[:, k:] == cs.max(axis=1, keepdims=True)).any(axis=1)
    for i in np.flatnonzero(tied):
        top[i] = np.argsort(S[i], kind="stable")[:k]
    L = labels[top]
    C = int(L.max()) + 1
    counts = np.bincount((rows * C + L).ravel(), minlength=S.shape[0] * C).reshape(-1, C)
    wins = counts[rows, L] == counts.max(axis=1, keepdims=True)
    return L[rows[:, 0], wins.argmax(axis=1)]


def knn_predict(query, refs_features, refs_labels, metric: Metric, k: int) -> int:
    """Label of ``query`` by k-nearest-neighbor vote among the references.

    Equal distances go to the smaller reference index; equal votes go to
    the tied class whose nearest member is closest.
    """
    refs_features, refs_labels = _check_refs(refs_features, refs_labels, metric, k)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (metric.dim,):
        raise ValueError(f"query must have shape ({metric.dim},), got {query.shape}")
    index = _index(refs_features, metric)
    return int(_knn_labels(query[None, :], index, refs_labels, k)[0])


def evaluate(test: Dataset, refs_features, refs_labels, metric: Metric,
             k: int = 3, reference_mode: str = "original",
             refs_label_names=None) -> EvalReport:
    """Error rate of kNN classification over a whole test set.

    The index (R M and the reference quadratic forms) is built once up
    front and is not timed. The test rows are then ranked in blocks of
    ``max(1, BLOCK_SCORES // n_refs)`` rows, one matrix product per block,
    with the same tie rules as ``knn_predict``; each query costs
    O(n_refs * d). ``mean_query_time`` is the timed block work divided by
    ``n_test``, so each row is charged its share of its block.

    By default ``refs_labels`` are assumed to live in the same internal
    0..C-1 space as ``test.labels``. Pass ``refs_label_names`` (the
    sorted original label values behind ``refs_labels``, e.g.
    ``train.label_names``) when test and references come from separately
    constructed datasets; test rows whose label does not occur among the
    references always count as errors.
    """
    refs_features, refs_labels = _check_refs(refs_features, refs_labels, metric, k)
    if test.n < 1:
        raise ValueError("test set is empty")
    if test.d != metric.dim:
        raise ValueError(f"test rows have {test.d} columns, "
                         f"the metric has dimension {metric.dim}")
    if refs_label_names is None:
        targets = test.labels
    else:
        names = np.asarray(refs_label_names)
        values = test.label_names[test.labels]
        pos = np.clip(np.searchsorted(names, values), 0, len(names) - 1)
        targets = np.where(names[pos] == values, pos, -1)
    index = _index(refs_features, metric)
    # vote over codes 0..C-1, C <= n_refs: a block's counts fit its scores' cap
    classes, codes = np.unique(refs_labels, return_inverse=True)
    block = max(1, BLOCK_SCORES // refs_features.shape[0])
    errors = 0
    total_time = 0.0
    for lo in range(0, test.n, block):
        t0 = time.perf_counter()
        pred = classes[_knn_labels(test.features[lo:lo + block], index, codes, k)]
        total_time += time.perf_counter() - t0
        errors += int(np.count_nonzero(pred != targets[lo:lo + block]))
    return EvalReport(
        error_rate=errors / test.n,
        k=k,
        reference_mode=reference_mode,
        n_test=test.n,
        mean_query_time=total_time / test.n,
    )


def add_gaussian_noise(data: Dataset, sigma: float, seed: int) -> Dataset:
    """Perturb every feature entry by an independent N(0, sigma^2) draw.

    No clamping: clipping would bias the noise mean and break the
    zero-mean latent-example assumption. Labels are unchanged.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noisy = data.features + rng.normal(0.0, sigma, size=data.features.shape)
    return Dataset(noisy, data.label_names[data.labels])
