"""k-nearest-neighbor evaluation under a learned metric.

Reference points can be the latent examples (small, fast to query) or the
original training data. Includes the Gaussian-noise harness used by the
robustness benchmarks.
"""

import math
import time
import weakref
from dataclasses import dataclass

import numpy as np

from . import core
from .core import Dataset, Metric, check_label_names, check_nonneg_finite
# not called here: kept importable because perfbench/spans.py wraps this name
from .core import pairwise_mahalanobis_sq  # noqa: F401


@dataclass
class EvalReport:
    """Error rate and query timing of one evaluation pass.

    Each test row's query time is its share of its block's timed work;
    ``mean_query_time`` averages those times and ``p50_query_time`` and
    ``p99_query_time`` are their percentiles. All rows of a block share
    one time, so the percentiles tell blocks apart, not rows.
    """

    error_rate: float
    k: int
    reference_mode: str
    n_test: int
    mean_query_time: float
    p50_query_time: float
    p99_query_time: float


# Score entries per ranked block of test rows: 2**18 float64 scores (2 MiB)
# for every 64 columns of d begun, but never fewer than MIN_BLOCK_ROWS rows,
# because each block's product repacks the whole n_refs x d reference
# panel: against 10k x 64 references, 26-row blocks ran the GEMM at about
# half its speed at 128 rows and 512-row blocks 30-45% slower, while against
# 3200 x 784 references one 800-row block took 92-96 us per query and
# 128-row blocks 112 (in process, one BLAS thread). So a block's scores take
# at most max(2 MiB x ceil(d / 64), MIN_BLOCK_ROWS x n_refs x 8 bytes):
# 10 MB against 10k x 64 references, 26 MiB at d = 784.
BLOCK_SCORES = 2 ** 18
MIN_BLOCK_ROWS = 128


def _check_k(k, n_refs: int) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n_refs:
        raise ValueError(f"k must be in [1, {n_refs}], got {k}")


def _references(refs_features, refs_labels, metric: Metric, k: int):
    """New arrays -2 R M (-2 R at an exact identity), r^T M r and int64 labels.

    The rows are stored doubled and negated so that a query x scores the
    references as rq + (-2 R M) x with no scaled copy of x; scaling by -2
    is exact, so the scores are those of rq - 2 (R M) x bit for bit.

    Labels must be integer-valued, one per reference, and non-negative:
    ``evaluate`` marks a test row whose label the references lack with
    target -1, so a reference labelled -1 would score that row as correct.
    ``k`` must be an integer in [1, n_refs] (a numpy integer will do, a
    bool will not). A reference with a non-finite entry has a non-finite
    form (each of its terms is inf or NaN), so checking the n_refs forms
    refuses it, and a form that overflows, without an n_refs x d scan. A
    reference whose row of R M holds an entry beyond DBL_MAX / 2 cannot be
    doubled, and the doubling itself reports that overflow, so it costs no
    scan either. Each fault raises ``ValueError``. None of the three
    returned arrays is an argument.
    """
    refs_features = np.asarray(refs_features, dtype=np.float64)
    refs_labels = np.asarray(refs_labels)
    if refs_labels.dtype.kind not in "iu":  # an integer dtype needs no scan
        values = refs_labels.astype(np.float64)
        if not (np.isfinite(values) & (values == np.trunc(values))).all():
            raise ValueError("reference labels must be integers")
    refs_labels = refs_labels.astype(np.int64)
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
    _check_k(k, refs_features.shape[0])
    # the copy costs O(n_refs * d), the product it skips O(n_refs * d^2)
    RM = refs_features.copy() if core.is_identity(metric.matrix) else refs_features @ metric.matrix
    rq = np.einsum("ij,ij->i", RM, refs_features)
    if not np.isfinite(rq).all():
        bad = int(np.flatnonzero(~np.isfinite(rq))[0])
        raise ValueError(f"reference {bad} has a non-finite entry or its "
                         "quadratic form r^T M r overflows")
    try:
        with np.errstate(over="raise"):
            RM *= -2.0
    except FloatingPointError:
        bad = int(np.flatnonzero(np.isinf(RM).any(axis=1))[0])
        raise ValueError(f"reference {bad} has an entry of R M beyond DBL_MAX / 2, "
                         "which overflows when doubled") from None
    return RM, rq, refs_labels


# The kNN index of each live immutable reference set, keyed by the ids of
# its features, labels and metric matrix: weak references to the three,
# their layouts (shape, strides, dtype), then the index ``_references``
# built, -2 R M, the forms rq and the int64 labels, (d + 2) x 8 bytes per
# reference. The build makes every array of an index, so an entry holds no
# key array, and the death of a key array drops it. Reuse rests on
# immutability, not on comparing values, which would cost a pass over the
# references and a held copy. A frozen array's buffer, type and ``.base``
# chain cannot change, but numpy lets its shape and dtype be assigned in
# place (and, with a warning, its strides), so a hit also requires the
# recorded layouts. An entry only spares work: a call scores alike with or
# without one.
_INDEX = {}


def _layout(a):
    return a.shape, a.strides, a.dtype


def _knn_index(refs_features, refs_labels, metric: Metric, k: int):
    """-2 R M, the forms r^T M r and the labels, for ``evaluate`` and ``knn_predict``.

    Built by ``_references`` on every call, except for immutable references
    (features of any dtype, labels and ``metric.matrix`` all
    :func:`core.frozen`): their first call, from either function, builds
    them, and later calls check ``k`` and get that build's arrays. A hit
    is the call's own three arrays under their recorded layouts, found by
    id before any :func:`core.is_frozen` walk; a miss checks immutability
    before it inserts.
    """
    key_arrays = (refs_features, refs_labels, metric.matrix)
    key = tuple(map(id, key_arrays))
    entry = _INDEX.get(key)
    if entry is not None:
        refs, layouts, index = entry
        # ``ref() is a`` first: only then is ``a`` known to be an ndarray
        if all(ref() is a and _layout(a) == layout
               for ref, layout, a in zip(refs, layouts, key_arrays)):
            _check_k(k, refs_features.shape[0])
            return index
    index = _references(refs_features, refs_labels, metric, k)
    if all(map(core.is_frozen, key_arrays)):
        def drop(_, key=key):
            _INDEX.pop(key, None)

        _INDEX[key] = (tuple(weakref.ref(a, drop) for a in key_arrays),
                       tuple(map(_layout, key_arrays)), index)
    return index


def _knn_labels(S, labels, k: int) -> np.ndarray:
    """k-nearest-neighbor vote for each row of the scores S, which it overwrites.

    The block path of ``evaluate``; ``knn_predict`` ranks its one row with
    :func:`_knn_label`, under the same tie rules.

    Row i of S scores reference r by r^T M r - 2 x_i^T M r, which differs
    from their squared distance by x_i^T M x_i alone. Selection is k passes
    over the scores, each taking every row's ``argmin`` and then setting it
    to inf: O(k * n_refs) per row. ``argmin`` returns the first of equal
    minima, so the picks come in ascending (score, reference index) order
    and equal scores go to the smaller reference index by construction.
    Against a partial selection (``argpartition``, in-process, 500 and 10k
    references at d = 64) this was faster up to k = 10 and slower at
    k = 25, or from k = 15 against the 10k references.

    The vote compares each row's k picked labels with one another, one
    column per pass: O(k) memory and O(k^2) time per row, under the
    selection's, whatever the label values. A vote tie goes to the tied
    label whose nearest member ranks first.

    A non-finite picked score (NaN is picked first; +inf could pick a
    reference twice) raises ``ValueError``.
    """
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
    votes = np.zeros(L.shape, dtype=np.intp)  # votes[:, a]: picks labelled L[:, a]
    for j in range(k):
        votes += L == L[:, j:j + 1]
    return L[rows, (votes == votes.max(axis=1, keepdims=True)).argmax(axis=1)]


def _knn_label(scores, labels, k: int) -> int:
    """k-nearest-neighbor vote of one query's score row, which it overwrites.

    The one-row form of :func:`_knn_labels`, with its tie rules: k passes
    of ``argmin``, each setting its pick to inf, so equal scores go to the
    smaller reference index, and a vote over the k picked labels in which
    a tie goes to the tied label picked first. A non-finite pick raises the
    same ``ValueError``. Its few scalar steps per pick replace the block
    path's array bookkeeping, which cost a one-row call several times its
    score pass.
    """
    picks = []
    for _ in range(k):
        i = scores.argmin()
        if not math.isfinite(scores[i]):
            raise ValueError("a query's scores against its nearest references overflow")
        picks.append(i)
        scores[i] = np.inf
    votes = {}
    for label in labels[picks].tolist():
        votes[label] = votes.get(label, 0) + 1
    # dicts keep insertion order, so max keeps the first label picked
    return max(votes, key=votes.__getitem__)


def knn_predict(query, refs_features, refs_labels, metric: Metric, k: int) -> int:
    """Label of ``query`` by k-nearest-neighbor vote among the references.

    Equal distances go to the smaller reference index; equal votes go to
    the tied label whose nearest member is closest. ``ValueError`` is
    raised for a label with a negative or non-integer value, a non-integer
    ``k``, a non-finite query, and a reference that is non-finite, whose
    quadratic form overflows, or whose row of R M holds an entry beyond
    DBL_MAX / 2 (the index stores the row doubled). The query is checked
    first, so a malformed one costs no index build.

    The query x scores the references as rq + (-2 R M) x: one O(n_refs *
    d) pass, ranked by :func:`_knn_label`. -2 R M and the forms rq, with
    every reference check, cost O(n_refs * d^2). They are built on every
    call, except for immutable references: features, labels and
    ``metric.matrix`` all :func:`core.frozen`, of any dtype, as
    ``Dataset``, ``LatentModel``, ``Metric`` and ``load_model`` hold them.
    For those the first call, or an ``evaluate`` pass, builds them for
    every later call while the three arrays live, and later calls check
    only ``k`` and the query.

    This scores one row with a matrix-vector product, and ``evaluate`` a
    block of rows with a matrix product. The two round their sums
    differently, so a near-tie between two references can rank
    differently in the two.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (metric.dim,):
        raise ValueError(f"query must have shape ({metric.dim},), got {query.shape}")
    if not np.isfinite(query).all():
        raise ValueError("query contains non-finite entries")
    RM, rq, labels = _knn_index(refs_features, refs_labels, metric, k)
    scores = RM @ query
    scores += rq
    return _knn_label(scores, labels, k)


def evaluate(test: Dataset, refs_features, refs_labels, metric: Metric,
             k: int = 3, reference_mode: str = "original",
             refs_label_names=None) -> EvalReport:
    """Error rate of kNN classification over a whole test set.

    The kNN index (-2 R M, the reference quadratic forms and the labels) is
    taken after the test rows' width is checked, and is not timed. It is
    built on every call, except for immutable references, whose index
    ``knn_predict`` shares: the first ``evaluate`` pass or ``knn_predict``
    call builds it, and later ones reuse it while the references and the
    metric matrix live (see ``knn_predict``). The test rows are then ranked
    in blocks of ``max(MIN_BLOCK_ROWS, BLOCK_SCORES * ceil(d / 64) //
    n_refs)`` rows, one matrix product X (-2 R M)^T + rq per block with no
    scaled copy of the rows X, and the k nearest of each row are picked by
    k ``argmin`` passes over the block's scores (:func:`_knn_labels`), with
    the same tie rules as ``knn_predict``; each query costs O(n_refs *
    (d + k)). A block's matrix product rounds its sums differently from
    ``knn_predict``'s matrix-vector product, so a near-tie between two
    references can rank differently in the two. Blocks grow with d and
    have a row floor because each product repacks the whole n_refs x d
    reference panel, which a short block cannot amortise; a block's scores
    take at most max(2 MiB x ceil(d / 64), MIN_BLOCK_ROWS x n_refs x 8
    bytes), 10 MB against 10k x 64 references. A reference that
    ``knn_predict`` refuses, or a non-integer ``k``, raises
    ``ValueError``. Each row's query time is its share of its block's
    timed work; the report gives their mean, p50 and p99.

    By default ``refs_labels`` are assumed to live in the same internal
    0..C-1 space as ``test.labels``. Pass ``refs_label_names`` (the
    sorted original label values behind ``refs_labels``, e.g.
    ``train.label_names``) when test and references come from separately
    constructed datasets; test rows whose label does not occur among the
    references always count as errors. Names that are not 1-D, finite
    and strictly increasing, or fewer than the largest reference label
    + 1, raise ``ValueError``.
    """
    if test.d != metric.dim:
        raise ValueError(f"test rows have {test.d} columns, "
                         f"the metric has dimension {metric.dim}")
    RM, rq, labels = _knn_index(refs_features, refs_labels, metric, k)
    if refs_label_names is None:
        targets = test.labels
    else:
        names = check_label_names(refs_label_names, int(labels.max()) + 1,
                                 "refs_label_names")
        values = test.label_names[test.labels]
        pos = np.clip(np.searchsorted(names, values), 0, len(names) - 1)
        targets = np.where(names[pos] == values, pos, -1)
    block = max(MIN_BLOCK_ROWS, BLOCK_SCORES * math.ceil(test.d / 64) // len(labels))
    errors = 0
    block_times = []
    for lo in range(0, test.n, block):
        t0 = time.perf_counter()
        S = test.features[lo:lo + block] @ RM.T
        S += rq
        pred = _knn_labels(S, labels, k)
        # freed before the next block's scores exist: a second live block
        # cost page faults and 13-20% of a pass against 10k references
        del S
        block_times.append(time.perf_counter() - t0)
        errors += int(np.count_nonzero(pred != targets[lo:lo + block]))
    sizes = np.minimum(block, test.n - np.arange(0, test.n, block))
    p50, p99 = np.percentile(np.repeat(np.array(block_times) / sizes, sizes), [50, 99])
    return EvalReport(
        error_rate=errors / test.n,
        k=k,
        reference_mode=reference_mode,
        n_test=test.n,
        mean_query_time=sum(block_times) / test.n,
        p50_query_time=float(p50),
        p99_query_time=float(p99),
    )


def add_gaussian_noise(data: Dataset, sigma: float, seed: int) -> Dataset:
    """Perturb every feature entry by an independent N(0, sigma^2) draw.

    No clamping: clipping would bias the noise mean and break the
    zero-mean latent-example assumption. Labels are unchanged.
    """
    check_nonneg_finite(sigma, "sigma")
    rng = np.random.default_rng(seed)
    noisy = data.features + rng.normal(0.0, sigma, size=data.features.shape)
    return Dataset(noisy, data.label_names[data.labels])
