"""Core types, the pairwise squared Mahalanobis kernel and the triplet hinge.

Everything downstream (latent estimation, metric SGD, kNN evaluation)
works in terms of the types defined here. All distance computations are
double precision; there is no single-precision fast path.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Squared distances above this threshold are treated as rounding noise and
# clamped to zero; anything more negative signals a genuinely indefinite
# matrix and is propagated untouched (legal mid-optimization).
NEG_CLAMP = -1e-9

# Symmetry tolerance for metric matrices (absolute, per entry).
SYMMETRY_TOL = 1e-9

# Rows of a distance matrix that pairwise_mahalanobis_sq finishes at a time:
# the quadratic forms and the clamp of a 64 x m slab stay in cache and need
# no m x m temporary (64 rows measured best of 16-256 at m = 500-2000, d = 64).
PAIRWISE_ROWS = 64

class Dataset:
    """Labeled feature vectors: an (n, d) matrix plus one label per row.

    Labels are re-indexed to 0..C-1 internally; the original label values
    are kept in ``label_names`` for reporting (``label_names[labels[i]]``
    recovers the input label of row i).
    """

    def __init__(self, features, labels):
        features = np.array(features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"features must be non-empty, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite entries")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per row: "
                f"{labels.shape} vs {features.shape[0]} rows"
            )
        self.features = features
        self.label_names, self.labels = np.unique(labels, return_inverse=True)
        self.labels = self.labels.astype(np.int64)
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def class_indices(self, r: int) -> np.ndarray:
        """Row indices of class ``r`` (internal label)."""
        return np.nonzero(self.labels == r)[0]

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d}, classes={self.n_classes})"


def check_label_names(names, n_codes: int, what: str = "label_names") -> np.ndarray:
    """``names`` as an array, refused unless it can name codes 0..n_codes-1.

    The names must be 1-D, numbers or strings (as ``Dataset.label_names``
    holds), finite, strictly increasing and at least ``n_codes`` long;
    otherwise ``ValueError`` names ``what``.
    """
    names = np.asarray(names)
    if names.ndim != 1 or names.dtype.kind not in "biufUS":
        raise ValueError(f"{what} must be a 1-D array of numbers or strings, "
                         f"got {names.dtype} of shape {names.shape}")
    if names.dtype.kind == "f" and not np.isfinite(names).all() \
            or (names[1:] <= names[:-1]).any():
        raise ValueError(f"{what} must be finite and strictly increasing, got {names}")
    if names.size < n_codes:
        raise ValueError(f"{what} has {names.size} entries, but a label code "
                         f"is {n_codes - 1}")
    return names


class Metric:
    """A symmetric d x d matrix defining a squared Mahalanobis distance.

    The matrix may be indefinite mid-optimization (one-projection
    paradigm); a finalized metric has min eigenvalue >= -1e-9.
    """

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"metric matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("metric matrix contains non-finite entries")
        # max |M - M^T| over 64-row panels: the same value without the d x d
        # strided temporaries (at d = 784, ~2 ms against ~7 ms)
        asym = max(np.abs(matrix[i:i + 64] - matrix[:, i:i + 64].T).max()
                   for i in range(0, matrix.shape[0], 64))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"metric matrix is asymmetric (max |M - M^T| = {asym:g})")
        self.matrix = matrix
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, d: int) -> "Metric":
        return cls(np.eye(d))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def __repr__(self):
        return f"Metric(dim={self.dim})"


def is_identity(matrix: np.ndarray) -> bool:
    """True when ``matrix`` is exactly the d x d identity: unit diagonal, d nonzeros.

    Read from the value, so a caller needs no flag: X @ I equals X bit for
    bit, and callers use this to skip that product.
    """
    return (matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]
            and bool((matrix.diagonal() == 1.0).all())
            and np.count_nonzero(matrix) == matrix.shape[0])


@dataclass
class TrainConfig:
    """Hyperparameters for the alternating trainer.

    tau             percent ratio of latent to original examples (0 < tau <= 100)
    gamma           proximal weight anchoring latents to the previous outer
                    iterate (>= 0)
    lam             strong-convexity weight of the metric subproblem (> 0)
    delta           Frobenius-norm bound on the metric (> 0)
    outer_iters     alternations of the latent and metric stages (K)
    inner_iters     SGD steps per metric stage (S, even: the suffix average
                    covers the last S/2 iterates)
    latent_em_iters assignment/update sweeps per latent stage
    rng_seed        seed of every random draw of a run (integer >= 0)
    active_set_cap  maximum number of retained violated triplets
    """

    tau: float = 10.0
    gamma: float = 1.0
    lam: float = 10.0
    delta: float = 100.0
    outer_iters: int = 10
    inner_iters: int = 10_000
    latent_em_iters: int = 10
    rng_seed: int = 0
    active_set_cap: int = 200_000

    def __post_init__(self):
        for name in ("tau", "gamma", "lam", "delta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # comparisons written so that NaN fails them
        if not 0.0 < self.tau <= 100.0:
            raise ValueError(f"tau must be in (0, 100], got {self.tau}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        for name in ("outer_iters", "inner_iters", "latent_em_iters", "active_set_cap",
                     "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.outer_iters < 0:
            raise ValueError(f"outer_iters must be >= 0, got {self.outer_iters}")
        if self.inner_iters < 0 or self.inner_iters % 2 != 0:
            raise ValueError(f"inner_iters must be even and >= 0, got {self.inner_iters}")
        if self.latent_em_iters < 1:
            raise ValueError(f"latent_em_iters must be >= 1, got {self.latent_em_iters}")
        if self.active_set_cap < 1:
            raise ValueError(f"active_set_cap must be >= 1, got {self.active_set_cap}")


def pairwise_mahalanobis_sq(metric: Metric, A, B=None) -> np.ndarray:
    """All squared Mahalanobis distances between rows of A and rows of B.

    Uses the expansion a^T M a + b^T M b - 2 a^T M b (M symmetric): one
    product into the result, which then takes the quadratic forms and the
    clamp in place, ``PAIRWISE_ROWS`` rows at a time, with no temporary
    as large as the result. Tiny negative results (rounding noise above
    NEG_CLAMP) are clamped to zero; larger negatives are returned as-is
    since they signal an indefinite M, which is legal mid-optimization.
    """
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != metric.dim or B.shape[1] != metric.dim:
        raise ValueError(
            f"expected 2-D arrays with {metric.dim} columns, got {A.shape} and {B.shape}"
        )
    AM = A @ metric.matrix
    qa = np.einsum("ij,ij->i", AM, A)
    qb = qa if B is A else np.einsum("ij,ij->i", B @ metric.matrix, B)
    out = AM @ B.T
    forms = np.empty((min(PAIRWISE_ROWS, out.shape[0]), out.shape[1]))
    for lo in range(0, out.shape[0], PAIRWISE_ROWS):
        rows = out[lo:lo + PAIRWISE_ROWS]
        # -2 P is exact, and -2 P + (qa + qb) rounds as (qa + qb) - 2 P
        rows *= -2.0
        np.add(qa[lo:lo + PAIRWISE_ROWS, None], qb[None, :], out=forms[:rows.shape[0]])
        rows += forms[:rows.shape[0]]
        np.copyto(rows, 0.0, where=(rows > NEG_CLAMP) & (rows < 0.0))
    return out


class HingeBlock(NamedTuple):
    """One class's slice of the latent-triplet hinge, rows sorted for search.

    same         (m_r,) latent indices of the class; row i is anchor same[i]
    diff         (n,) latent indices of every other class, ascending
    b_sorted     (m_r, n) E[o, diff], each row sorted ascending; None when
                 the block was built with its ``order``
    thresholds   (m_r, m_r - 1) t_p = (1 + margin(o)) + E[o, p] for each
                 anchor's same-class partners p != o, in the order of
                 :func:`partner_columns`
    below        (m_r, m_r - 1) number of b in the row strictly below t_p,
                 i.e. the count of q with a positive loss hinge t_p - E[o, q].
                 This is the one definition of a violated triplet: the loss
                 sums these hinges and the active set keeps these triplets.
    order        (m_r, n) columns of ``diff`` that sort each row of E[o, diff]
                 ascending (``np.argsort``); None unless asked for
    """

    same: np.ndarray
    diff: np.ndarray
    b_sorted: np.ndarray
    thresholds: np.ndarray
    below: np.ndarray
    order: np.ndarray = None


def partner_columns(m_r: int) -> np.ndarray:
    """(m_r, m_r - 1) local partner index of each anchor: all j != i, ascending."""
    j = np.arange(m_r - 1)
    return j[None, :] + (j[None, :] >= np.arange(m_r)[:, None])


def count_below(rows: np.ndarray, keys: np.ndarray, order=None) -> np.ndarray:
    """(k, j) count of entries of row k strictly below keys[k, j].

    Equal to ``np.searchsorted(row, key, side="left")`` on each row sorted
    ascending, for every key that is not NaN, by one exact binary search
    over all keys at once. ``rows`` is (k, n) with n >= 1; each row is read
    as sorted, or, given ``order`` (the per-row ``np.argsort``), in the
    order it gives. With h the largest power of two <= n, the first probe
    at h - 1 leaves a range of at most h - 1 entries, so the halving steps
    h/2, ..., 1 never probe past the row: 1 + log2(h) gathers of k*j
    entries.
    """
    k, n = rows.shape
    flat = rows.ravel()
    at = np.arange(0, k * n, n)[:, None]  # flat index of each row's first entry
    pick = None if order is None else (order + at).ravel()

    def probe(i):
        return flat[i if pick is None else pick[i]]

    half = 1 << (n.bit_length() - 1)
    # flat index of each key's last entry below it; row start - 1 while none
    start = at - 1
    last = start + (probe(at + (half - 1)) < keys) * (n - half + 1)
    step = half >> 1
    while step:
        last += step * (probe(last + step) < keys)
        step >>= 1
    return last - start


def hinge_blocks(E: np.ndarray, labels, margins, with_order: bool = False):
    """Yield a :class:`HingeBlock` per class, one class at a time.

    ``E`` is the pairwise latent distance matrix and ``labels`` the class
    of each latent, grouped into ascending contiguous runs as
    ``LatentModel.latent_labels`` holds them; other labels raise
    ``ValueError``. A class's rows are the slice E[lo:hi], so its block
    needs no gather beyond one copy of its other-class columns. Classes
    with fewer than two latents or no other class contribute no triplet
    and are skipped.

    Each anchor sorts its other-class distances once, and every
    same-class partner's hinge boundary comes from :func:`count_below`, so
    a block costs O(m_r m log m) time and O(m_r m) memory. With
    ``with_order`` the block is ranked by one ``np.argsort`` instead,
    which gives both the counts and the ``order`` that
    :func:`decode_ranks` reads; ``b_sorted`` is then None.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels[1:] < labels[:-1]).any():
        raise ValueError("labels must be 1-D and grouped into ascending contiguous runs")
    m = labels.size
    cuts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), m]):
        m_r = hi - lo
        if m_r < 2 or m_r == m:
            continue
        rows = E[lo:hi]
        thresholds = (1.0 + margins[lo:hi])[:, None] + np.take_along_axis(
            rows[:, lo:hi], partner_columns(m_r), axis=1)
        b = np.concatenate((rows[:, :lo], rows[:, hi:]), axis=1)
        if with_order:
            order = np.argsort(b, axis=1)
            below = count_below(b, thresholds, order)
            b = None
        else:
            order = None
            b.sort(axis=1)
            below = count_below(b, thresholds)
        diff = np.concatenate((np.arange(lo), np.arange(hi, m)))
        yield HingeBlock(np.arange(lo, hi), diff, b, thresholds, below, order)


def decode_ranks(blk: HingeBlock, ranks):
    """Map violator ranks of one class block to (o, p, q) latent indices.

    ``blk`` comes from :func:`hinge_blocks` with ``with_order``, and
    ``ranks`` are ascending ints in [0, blk.below.sum()), enumerating the
    violators anchor by anchor, partner by partner (in the order of
    :func:`partner_columns`), and for each (o, p) by ascending E[o, q].
    Since the violators of (o, p) are the first below[o, p] entries of
    the sorted row, rank j within (o, p) is the row's j-th smallest
    distance, read off ``blk.order``: the same argsort that counted the
    violators. Which of several tied distances comes first is up to
    ``np.argsort``; the set of violators, and so the uniformity of a
    sample of ranks, does not depend on it.
    """
    counts = blk.below.ravel()
    ends = np.cumsum(counts)
    pair = np.searchsorted(ends, ranks, side="right")
    j = ranks - (ends[pair] - counts[pair])
    i, pp = np.divmod(pair, blk.same.size - 1)
    p = blk.same[partner_columns(blk.same.size)[i, pp]]
    q = blk.diff[blk.order[i, j]]
    return blk.same[i], p, q


def full_loss_all(metric: Metric, latent_model) -> float:
    """Hinge loss over the full triplet universe, without materializing it.

    Its reference is ``tests/conftest.oracle_full_loss``, a loop over every
    (o, p, q); the two agree up to summation order.
    For anchor o and partner p with threshold t_p and k_p other-class
    distances below it, the hinges sum to k_p t_p - (sum of the k_p
    smallest), read off prefix sums of the sorted row: O(m^2 log m) time
    over one class block at a time (see :func:`hinge_blocks`).
    """
    E = pairwise_mahalanobis_sq(metric, latent_model.latents)
    if not np.isfinite(E).all():
        return float("nan")
    total = 0.0
    for blk in hinge_blocks(E, latent_model.latent_labels, latent_model.cluster_margins):
        prefix = np.zeros((blk.b_sorted.shape[0], blk.b_sorted.shape[1] + 1))
        np.cumsum(blk.b_sorted, axis=1, out=prefix[:, 1:])
        below_sum = np.take_along_axis(prefix, blk.below, axis=1)
        total += float(np.sum(blk.below * blk.thresholds - below_sum))
    return total
