"""k-nearest-neighbor evaluation under a learned metric.

Reference points can be the latent examples (small, fast to query) or the
original training data. Includes the Gaussian-noise harness used by the
robustness benchmarks.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Metric, pairwise_mahalanobis_sq


@dataclass
class EvalReport:
    """Error rate and query timing of one evaluation pass."""

    error_rate: float
    k: int
    reference_mode: str
    n_test: int
    mean_query_time: float


def _vote(ordered_labels: np.ndarray, k: int):
    """Majority vote over the first k labels of a distance-sorted list.

    Vote ties go to the tied class whose first occurrence comes earliest
    (its nearest member is closest; distance ties were already broken
    toward the smaller reference index by a stable sort).
    """
    top = ordered_labels[:k]
    counts = np.bincount(top)
    best = counts.max()
    for lab in top:
        if counts[lab] == best:
            return int(lab)
    raise AssertionError("unreachable: some label attains the max count")


def knn_predict(query, refs_features, refs_labels, metric: Metric, k: int) -> int:
    """Label of ``query`` by k-nearest-neighbor vote among the references."""
    refs_features = np.asarray(refs_features, dtype=np.float64)
    refs_labels = np.asarray(refs_labels, dtype=np.int64)
    if refs_features.ndim != 2 or refs_features.shape[0] == 0:
        raise ValueError("reference set must be a non-empty 2-D array")
    if not 1 <= k <= refs_features.shape[0]:
        raise ValueError(f"k must be in [1, {refs_features.shape[0]}], got {k}")
    query = np.asarray(query, dtype=np.float64)
    d2 = pairwise_mahalanobis_sq(metric, query[None, :], refs_features)[0]
    order = np.argsort(d2, kind="stable")
    return _vote(refs_labels[order[:k]], k)


def evaluate(test: Dataset, refs_features, refs_labels, metric: Metric,
             k: int = 3, reference_mode: str = "original",
             refs_label_names=None) -> EvalReport:
    """Error rate of kNN classification over a whole test set.

    The reference projection (M @ refs^T and the reference quadratic
    forms) is computed once up front, like an index build; the timed
    per-query work is one matrix-vector product against the references
    plus the sort and vote.

    By default ``refs_labels`` are assumed to live in the same internal
    0..C-1 space as ``test.labels``. Pass ``refs_label_names`` (the
    sorted original label values behind ``refs_labels``, e.g.
    ``train.label_names``) when test and references come from separately
    constructed datasets; test rows whose label does not occur among the
    references always count as errors.
    """
    refs_features = np.asarray(refs_features, dtype=np.float64)
    refs_labels = np.asarray(refs_labels, dtype=np.int64)
    if test.n < 1:
        raise ValueError("test set is empty")
    if refs_features.ndim != 2 or refs_features.shape[0] == 0:
        raise ValueError("reference set must be a non-empty 2-D array")
    if not 1 <= k <= refs_features.shape[0]:
        raise ValueError(f"k must be in [1, {refs_features.shape[0]}], got {k}")
    if refs_label_names is None:
        targets = test.labels
    else:
        names = np.asarray(refs_label_names)
        values = test.label_names[test.labels]
        pos = np.clip(np.searchsorted(names, values), 0, len(names) - 1)
        targets = np.where(names[pos] == values, pos, -1)
    # index build (not counted as query time)
    proj = metric.matrix @ refs_features.T
    rq = np.einsum("ij,ji->i", refs_features, proj)
    errors = 0
    total_time = 0.0
    for i in range(test.n):
        x = test.features[i]
        t0 = time.perf_counter()
        # ranking only needs r^T M r - 2 x^T M r; the x-term is constant
        scores = rq - 2.0 * (x @ proj)
        order = np.argsort(scores, kind="stable")
        pred = _vote(refs_labels[order[:k]], k)
        total_time += time.perf_counter() - t0
        if pred != targets[i]:
            errors += 1
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
