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
    """References, vote codes and classes, validated against the metric and k.

    The vote is sized by the largest code: labels reaching the reference
    count are coded 0..C-1, with ``classes[code]`` the label; smaller ones
    are their own codes, ``classes`` None, and need no ``np.unique``.
    Non-finite references are refused by ``_index``, from the n_refs
    quadratic forms rather than an n_refs x d scan.
    """
    refs_features = np.asarray(refs_features, dtype=np.float64)
    refs_labels = np.asarray(refs_labels)
    if refs_labels.dtype.kind not in "iu":  # an integer dtype needs no scan
        values = refs_labels.astype(np.float64)
        if not (np.isfinite(values) & (values == np.trunc(values))).all():
            raise ValueError("reference labels must be integers")
    refs_labels = refs_labels.astype(np.int64, copy=False)
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
    classes = None
    # codes below n_refs keep a block's counts within its scores' cap
    if refs_labels.max() >= refs_labels.shape[0]:
        classes, refs_labels = np.unique(refs_labels, return_inverse=True)
    return refs_features, refs_labels, classes


def _index(refs, metric: Metric):
    """R M and the reference quadratic forms r^T M r: what ranking needs of the refs.

    A reference with a non-finite entry has a non-finite form (each of its
    terms is inf or NaN), so checking the n_refs forms refuses it, and a
    form that overflows, with ``ValueError``.
    """
    RM = refs @ metric.matrix
    rq = np.einsum("ij,ij->i", RM, refs)
    if not np.isfinite(rq).all():
        bad = int(np.flatnonzero(~np.isfinite(rq))[0])
        raise ValueError(f"reference {bad} has a non-finite entry or its "
                         "quadratic form r^T M r overflows")
    return RM, rq


def _knn_labels(X, index, labels, k: int) -> np.ndarray:
    """k-nearest-neighbor vote for each row of X against an ``_index``.

    Row x ranks reference r by r^T M r - 2 x^T M r, which differs from the
    squared distance by x^T M x alone. Selection is k passes over the
    scores, each taking every row's ``argmin`` and then setting it to inf:
    O(k * n_refs) per row. ``argmin`` returns the first of equal minima, so
    the picks come in ascending (score, reference index) order and equal
    scores go to the smaller reference index by construction. A vote tie
    goes to the tied class whose nearest member ranks first. Against a
    partial selection (``argpartition``, in-process, 500 and 10k
    references at d = 64) this was faster up to k = 10 and slower at
    k = 25, or from k = 15 against the 10k references.

    A non-finite picked score (NaN is picked first; +inf could pick a
    reference twice) raises ``ValueError``.
    """
    RM, rq = index
    S = (-2.0 * X) @ RM.T  # scaling X by -2 is exact, and cheaper than scaling S
    S += rq
    rows = np.arange(S.shape[0])
    top = np.empty((S.shape[0], k), dtype=np.intp)
    picked = np.empty((S.shape[0], k))
    for j in range(k):
        top[:, j] = i = S.argmin(axis=1)
        picked[:, j] = S[rows, i]
        S[rows, i] = np.inf
    if not np.isfinite(picked).all():
        raise ValueError("a query's scores against its nearest references overflow")
    L = labels[top]
    C = int(L.max()) + 1
    counts = np.bincount((rows[:, None] * C + L).ravel(),
                         minlength=S.shape[0] * C).reshape(-1, C)
    wins = counts[rows[:, None], L] == counts.max(axis=1, keepdims=True)
    return L[rows, wins.argmax(axis=1)]


def knn_predict(query, refs_features, refs_labels, metric: Metric, k: int) -> int:
    """Label of ``query`` by k-nearest-neighbor vote among the references.

    Equal distances go to the smaller reference index; equal votes go to
    the tied class whose nearest member is closest. A label with a
    non-integer value, a non-finite query or a non-finite reference raises
    ``ValueError``.
    """
    refs_features, codes, classes = _check_refs(refs_features, refs_labels, metric, k)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (metric.dim,):
        raise ValueError(f"query must have shape ({metric.dim},), got {query.shape}")
    if not np.isfinite(query).all():
        raise ValueError("query contains non-finite entries")
    code = _knn_labels(query[None, :], _index(refs_features, metric), codes, k)[0]
    return int(code if classes is None else classes[code])


def evaluate(test: Dataset, refs_features, refs_labels, metric: Metric,
             k: int = 3, reference_mode: str = "original",
             refs_label_names=None) -> EvalReport:
    """Error rate of kNN classification over a whole test set.

    The index (R M and the reference quadratic forms) is built once up
    front and is not timed. The test rows are then ranked in blocks of
    ``max(1, BLOCK_SCORES // n_refs)`` rows, one matrix product per block,
    and the k nearest of each row are picked by k ``argmin`` passes over
    the block's scores, with the same tie rules as ``knn_predict``; each
    query costs O(n_refs * (d + k)). A non-finite reference raises
    ``ValueError``, as in ``knn_predict``. ``mean_query_time`` is the
    timed block work divided by ``n_test``, so each row is charged its
    share of its block.

    By default ``refs_labels`` are assumed to live in the same internal
    0..C-1 space as ``test.labels``. Pass ``refs_label_names`` (the
    sorted original label values behind ``refs_labels``, e.g.
    ``train.label_names``) when test and references come from separately
    constructed datasets; test rows whose label does not occur among the
    references always count as errors.
    """
    refs_features, codes, classes = _check_refs(refs_features, refs_labels, metric, k)
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
    block = max(1, BLOCK_SCORES // refs_features.shape[0])
    errors = 0
    total_time = 0.0
    for lo in range(0, test.n, block):
        t0 = time.perf_counter()
        pred = _knn_labels(test.features[lo:lo + block], index, codes, k)
        if classes is not None:
            pred = classes[pred]
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
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    noisy = data.features + rng.normal(0.0, sigma, size=data.features.shape)
    return Dataset(noisy, data.label_names[data.labels])
