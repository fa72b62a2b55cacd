"""Core types, the pairwise squared Mahalanobis kernel and the triplet hinge.

Everything downstream (latent estimation, metric SGD, kNN evaluation)
works in terms of the types defined here. All distance computations are
double precision; there is no single-precision fast path.
"""

import numbers
import operator
from dataclasses import dataclass

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
        if matrix.shape[0] == 0:
            raise ValueError("metric matrix must have dimension >= 1, got 0 x 0")
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
        """The d x d identity, built without the finiteness and symmetry scans."""
        matrix = np.eye(d)
        if d == 0:
            raise ValueError("metric matrix must have dimension >= 1, got 0 x 0")
        return cls._unchecked(matrix)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "Metric":
        """A Metric holding ``matrix`` itself, which the caller knows is valid.

        ``matrix`` must be a C-contiguous float64 d x d array (d >= 1) that
        is finite and exactly symmetric; it is made read-only, not copied.
        """
        metric = cls.__new__(cls)
        metric.matrix = matrix
        metric.matrix.flags.writeable = False
        return metric

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


def check_int_fields(obj, **lows) -> None:
    """Make each field of ``obj`` named in ``lows`` an int >= its bound, or raise ValueError."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        # a Python int: narrow numpy integers overflow, and would reach the JSON sidecar
        value = operator.index(value)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        setattr(obj, name, value)


def check_nonneg_finite(value, name: str):
    """``value`` if it is a real number, finite and >= 0, else ValueError naming ``name``."""
    # written so that NaN fails it
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0 <= value < np.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
    return value


@dataclass
class TrainConfig:
    """Hyperparameters for the alternating trainer; the CLI's defaults.

    tau             percent ratio of latent to original examples (0 < tau <= 100)
    gamma           proximal weight anchoring latents to the previous outer
                    iterate (finite, >= 0)
    lam             strong-convexity weight of the metric subproblem (> 0)
    delta           Frobenius-norm bound on the metric (> 0)
    outer_iters     alternations of the latent and metric stages (K, integer >= 0)
    inner_iters     SGD steps per metric stage (S, even integer >= 0: the suffix
                    average covers the last S/2 iterates)
    latent_em_iters assignment/update sweeps per latent stage (integer >= 1)
    rng_seed        seed of every random draw of a run (integer >= 0)
    active_set_cap  maximum number of retained violated triplets (integer >= 1)
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
        for name in ("tau", "lam", "delta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # comparisons written so that NaN fails them
        if not 0.0 < self.tau <= 100.0:
            raise ValueError(f"tau must be in (0, 100], got {self.tau}")
        check_nonneg_finite(self.gamma, "gamma")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        check_int_fields(self, outer_iters=0, inner_iters=0, latent_em_iters=1,
                         active_set_cap=1, rng_seed=0)
        if self.inner_iters % 2 != 0:
            raise ValueError(f"inner_iters must be even, got {self.inner_iters}")


def pairwise_mahalanobis_sq(metric: Metric, A) -> np.ndarray:
    """All squared Mahalanobis distances between rows of A.

    Uses the expansion a^T M a + b^T M b - 2 a^T M b (M symmetric): A M
    (a copy of A when M is exactly the identity, :func:`is_identity`), one
    product into the result, which then takes the quadratic forms and the
    clamp in place, ``PAIRWISE_ROWS`` rows at a time, with no temporary
    as large as the result. Tiny negative results (rounding noise above
    NEG_CLAMP) are clamped to zero; larger negatives are returned as-is
    since they signal an indefinite M, which is legal mid-optimization.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != metric.dim:
        raise ValueError(f"expected a 2-D array with {metric.dim} columns, got {A.shape}")
    # at an exact identity A M is A; a copy, since numpy computes A @ A.T by
    # SYRK, whose rounding differs from the GEMM of a general M
    AM = A.copy() if is_identity(metric.matrix) else A @ metric.matrix
    qa = np.einsum("ij,ij->i", AM, A)
    out = AM @ A.T
    forms = np.empty((min(PAIRWISE_ROWS, out.shape[0]), out.shape[1]))
    for lo in range(0, out.shape[0], PAIRWISE_ROWS):
        rows = out[lo:lo + PAIRWISE_ROWS]
        # -2 P is exact, and -2 P + (qa_i + qa_j) rounds as (qa_i + qa_j) - 2 P
        rows *= -2.0
        np.add(qa[lo:lo + PAIRWISE_ROWS, None], qa[None, :], out=forms[:rows.shape[0]])
        rows += forms[:rows.shape[0]]
        np.copyto(rows, 0.0, where=(rows > NEG_CLAMP) & (rows < 0.0))
    return out


def count_below(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(k, j) count of entries of row k strictly below keys[k, j].

    Equal to ``np.searchsorted(row, key, side="left")`` on each row of
    ``rows`` (k, n), sorted ascending with n >= 1, for every key that is
    not NaN, by one exact binary search over all keys at once. With h the
    largest power of two <= n, the first probe at h - 1 leaves a range of
    at most h - 1 entries, so the halving steps h/2, ..., 1 never probe
    past the row: 1 + log2(h) gathers of k*j entries.
    """
    k, n = rows.shape
    flat = rows.ravel()
    at = np.arange(0, k * n, n)[:, None]  # flat index of each row's first entry
    half = 1 << (n.bit_length() - 1)
    # flat index of each key's last entry below it; row start - 1 while none
    start = at - 1
    last = start + (flat[at + (half - 1)] < keys) * (n - half + 1)
    step = half >> 1
    while step:
        last += step * (flat[last + step] < keys)
        step >>= 1
    return last - start


def other_class_columns(E: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """E[lo:hi, q] for every q outside lo:hi, ascending: a class's other-class distances."""
    return np.concatenate((E[lo:hi, :lo], E[lo:hi, hi:]), axis=1)


def class_bounds(counts, m: int) -> list:
    """Rows lo:hi of each class that forms triplets, of m latents in all.

    ``counts`` holds each class's latent count, rows grouped in label order
    as in ``LatentModel.per_class_counts``. A class with fewer than two
    latents or no other class forms no triplet and is left out.
    """
    ends = np.cumsum(counts).tolist()
    return [(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends) if 2 <= hi - lo < m]


def hinge_block(E: np.ndarray, lo: int, hi: int, margins):
    """One class's slice of the latent-triplet hinge, rows sorted for search.

    Returns ``(b_sorted, thresholds, below)`` of the class whose latents are
    rows lo:hi of the pairwise latent distance matrix ``E``: row i is anchor
    o = lo + i, and every index outside lo:hi is another class's latent.

    b_sorted     (m_r, m - m_r) :func:`other_class_columns` of E, each row
                 sorted ascending
    thresholds   (m_r, m_r - 1) t_p = (1 + margin(o)) + E[o, p] for each
                 anchor's same-class partners p != o, ascending: partner
                 slot pp of anchor i is latent lo + pp + (pp >= i)
    below        (m_r, m_r - 1) number of b in the row strictly below t_p,
                 i.e. the count of q with a positive loss hinge t_p - E[o, q].
                 This is the one definition of a violated triplet: the loss
                 sums these hinges and the active set keeps these triplets.

    One sort per anchor and :func:`count_below` over its partners: a block
    costs O(m_r m log m) time and O(m_r m) memory.
    """
    m_r = hi - lo
    # the off-diagonal entries of the class's rows, row by row
    partners = E[lo:hi, lo:hi][~np.eye(m_r, dtype=bool)].reshape(m_r, m_r - 1)
    thresholds = (1.0 + margins[lo:hi])[:, None] + partners
    b = other_class_columns(E, lo, hi)
    b.sort(axis=1)
    return b, thresholds, count_below(b, thresholds)


def decode_ranks(lo: int, hi: int, below: np.ndarray, order: np.ndarray, ranks):
    """Map violator ranks of the class block lo:hi to (o, p, q) latent indices.

    ``below`` is the block's count from :func:`hinge_block`, ``order`` the
    ``np.argsort`` of its :func:`other_class_columns` rows, and ``ranks``
    ascending ints in [0, below.sum()) that enumerate the violators anchor
    by anchor, partner by partner (ascending), and for each (o, p) by
    ascending E[o, q]: rank j within (o, p) is the row's j-th smallest
    distance, read off ``order``. ``np.argsort`` orders tied distances;
    the set of violators, and so a sample's uniformity, does not depend on it.
    """
    counts = below.ravel()
    ends = np.cumsum(counts)
    pair = np.searchsorted(ends, ranks, side="right")
    j = ranks - (ends[pair] - counts[pair])
    i, pp = np.divmod(pair, hi - lo - 1)
    # column c of the other-class columns is latent c below lo, c + (hi - lo) above
    c = order[i, j]
    return lo + i, lo + pp + (pp >= i), c + (c >= lo) * (hi - lo)


def full_loss_all(metric: Metric, latent_model) -> float:
    """Hinge loss over the full triplet universe, without materializing it.

    Its reference is ``tests/conftest.oracle_full_loss``, a loop over every
    (o, p, q); the two agree up to summation order.
    For anchor o and partner p with threshold t_p and k_p other-class
    distances below it, the hinges sum to k_p t_p - (sum of the k_p
    smallest), read off prefix sums of the sorted row: O(m^2 log m) time
    over one :func:`hinge_block` at a time, holding E plus one block.
    """
    E = pairwise_mahalanobis_sq(metric, latent_model.latents)
    if not np.isfinite(E).all():
        return float("nan")
    total = 0.0
    for lo, hi in class_bounds(latent_model.per_class_counts, latent_model.m):
        total += _hinge_sum(*hinge_block(E, lo, hi, latent_model.cluster_margins))
    return total


def _hinge_sum(b_sorted, thresholds, below) -> float:
    """Sum of one block's positive hinges, read off prefix sums of its sorted rows."""
    prefix = np.zeros((b_sorted.shape[0], b_sorted.shape[1] + 1))
    np.cumsum(b_sorted, axis=1, out=prefix[:, 1:])
    below_sum = np.take_along_axis(prefix, below, axis=1)
    return float(np.sum(below * thresholds - below_sum))
