"""Per-class latent example estimation.

Each class is clustered independently by a metric-weighted k-means with a
proximal term that anchors the cluster centers to their previous outer
iterate: alternating sweeps of nearest-latent assignment and a closed-form
center update, followed by per-cluster margin computation (the empirical
mean squared distance of members to their latent example).

Cost, for n rows of dimension d, m latents and m_r latents per class: a
latent stage makes one n*d^2 product (X M, skipped when M is exactly the
identity) plus O(sweeps * (n*m_r*d + m*d^2)). Init makes no d x d
product: farthest-point picks take one GEMV per pick, and its assignment
runs under the identity on X directly. Init and every sweep end in the
same assignment step, whose margins come from its distances.
"""

from typing import NamedTuple

import numpy as np

from . import core
from .core import Dataset, Metric, TrainConfig

# Assignment ties: squared distances within this absolute tolerance of the
# row's minimum go to the smaller latent index.
TIE_TOLERANCE = 1e-12


class LatentModel:
    """Latent examples for every class, plus memberships and margins.

    latents          (m, d) latent example matrix, rows grouped by class
    membership       (n,) index of the latent each original example is
                     assigned to (always one of its own class)
    cluster_margins  (m,) empirical mean squared distance of members to
                     their latent; 0 for empty clusters
    per_class_counts (C,) number of latents per class: class r owns the
                     rows after those of classes 0..r-1
    latent_labels    (m,) class of each latent row, derived from
                     ``per_class_counts``
    """

    def __init__(self, latents, membership, cluster_margins, per_class_counts):
        self.latents = np.array(latents, dtype=np.float64, order="C")
        self.membership = np.array(membership, dtype=np.int64)
        self.cluster_margins = np.array(cluster_margins, dtype=np.float64)
        self.per_class_counts = np.array(per_class_counts, dtype=np.int64)
        m = self.latents.shape[0]
        if self.cluster_margins.shape != (m,):
            raise ValueError("cluster_margins must have one entry per latent")
        if self.per_class_counts.sum() != m:
            raise ValueError("per_class_counts must sum to the number of latents")
        if (self.per_class_counts < 1).any():
            raise ValueError("every class must own at least one latent")
        if (self.cluster_margins < 0).any():
            raise ValueError("cluster margins must be nonnegative")
        if self.membership.min(initial=0) < 0 or self.membership.max(initial=-1) >= m:
            raise IndexError("membership index out of range")
        self.latent_labels = np.repeat(np.arange(self.per_class_counts.size),
                                       self.per_class_counts)
        for arr in (self.latents, self.latent_labels, self.membership,
                    self.cluster_margins, self.per_class_counts):
            arr.flags.writeable = False
        # (data, M) of the _ClassBlocks this membership was assigned from on
        # these latents, set by _assign; None when made elsewhere
        self._assigned_under = None

    @property
    def m(self) -> int:
        return self.latents.shape[0]

    @property
    def d(self) -> int:
        return self.latents.shape[1]

    def replace(self, **kwargs) -> "LatentModel":
        """Copy with some fields swapped out."""
        fields = dict(
            latents=self.latents, membership=self.membership,
            cluster_margins=self.cluster_margins, per_class_counts=self.per_class_counts,
        )
        fields.update(kwargs)
        return LatentModel(**fields)

    def __repr__(self):
        return f"LatentModel(m={self.m}, d={self.d})"


def latents_per_class(n_r: int, tau: float) -> int:
    """Number of latents for a class of size n_r at ratio tau percent.

    Half-up rounding, floored at one latent per class.
    """
    return max(1, int(np.floor(tau / 100.0 * n_r + 0.5)))


def _farthest_point_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point selection under Euclidean distance.

    The first point is drawn from ``rng``; every further point maximizes
    the distance to the points already chosen (ties to the smaller index).
    Distances take the expanded form |x|^2 + |x_j|^2 - 2 x.x_j from row
    norms computed once, so each pick costs one GEMV, O(n*d).
    """
    n = X.shape[0]
    rn = np.einsum("ij,ij->i", X, X)

    def sq_dists(j):
        return (rn + rn[j]) - 2.0 * (X @ X[j])

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = sq_dists(chosen[0])
    for i in range(1, k):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        np.minimum(d2, sq_dists(nxt), out=d2)
    return chosen


def _rows(A: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A[idx] for ascending ``idx``, as a view when the rows are one contiguous run.

    Data sorted by class, as ``generate_synthetic`` writes it, then needs no
    n x d copy per stage.
    """
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return A[idx[0]:idx[-1] + 1]
    return A[idx]


class _ClassBlocks(NamedTuple):
    """A latent stage's per-class view of the data under one metric.

    data    the Dataset
    M       the metric matrix, None for exactly the identity
    rows    per class r: its row indices idx, X_r = X[idx], X_r M (X_r itself
            when M is None) and the row forms x^T M x
    """

    data: Dataset
    M: np.ndarray
    rows: list


def _class_blocks(data: Dataset, M) -> _ClassBlocks:
    """Each class's rows of X and X M, and their forms x^T M x, made once per stage.

    ``M`` None stands for the identity: X serves as X M. Otherwise this is
    the one n*d^2 product, made once for all rows: per-class products of
    n_r x d by d x d ran up to ten times slower under two OpenBLAS threads.
    """
    XM = data.features if M is None else data.features @ M
    qx = np.einsum("ij,ij->i", XM, data.features)
    rows = []
    for r in range(data.n_classes):
        idx = data.class_indices(r)
        X_r = _rows(data.features, idx)
        rows.append((idx, X_r, X_r if M is None else _rows(XM, idx), qx[idx]))
    return _ClassBlocks(data, M, rows)


def _assigned_from(model: LatentModel, blocks: _ClassBlocks) -> bool:
    """True when ``model`` is what ``_assign(model, blocks)`` returns.

    That holds when :func:`_assign` made it on these latents from the same
    data under an equal metric matrix; arrays in both are read-only, so
    the equal inputs give the same assignment bit for bit.
    """
    if model._assigned_under is None:
        return False
    data, M = model._assigned_under
    return data is blocks.data and (M is blocks.M or M is not None and blocks.M is not None
                                    and np.array_equal(M, blocks.M))


def _assign(model: LatentModel, blocks: _ClassBlocks) -> LatentModel:
    """``model`` with each row moved to its nearest own-class latent under ``blocks.M``.

    Ties within ``TIE_TOLERANCE`` go to the smaller latent index. Margins
    are the per-cluster means of the members' clamped D^2: equal to
    :func:`compute_margins` up to rounding, without its n x d pass. The
    result remembers the data and metric of ``blocks`` for
    :func:`_assigned_from`. Costs O(n*m_r*d + m*d^2): Z M is formed once
    for all m latents.
    """
    Z = model.latents
    M = blocks.M
    qz = np.einsum("ij,ij->i", Z if M is None else Z @ M, Z)
    n = blocks.data.n
    membership = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    lo = 0
    for r, (idx, _, XM_r, qx_r) in enumerate(blocks.rows):
        hi = lo + model.per_class_counts[r]
        # (-2 Z) is exact, and P + (qx + qz) rounds as (qx + qz) - 2 P
        d2 = XM_r @ (-2.0 * Z[lo:hi]).T
        d2 += qx_r[:, None] + qz[None, lo:hi]
        best = d2.min(axis=1)
        # first index within TIE_TOLERANCE of the minimum
        local = (d2 <= best[:, None] + TIE_TOLERANCE).argmax(axis=1)
        membership[idx] = lo + local
        dist[idx] = d2[np.arange(idx.size), local]
        lo = hi
    np.maximum(dist, 0.0, out=dist)
    out = model.replace(membership=membership,
                        cluster_margins=_cluster_means(membership, dist, model.m))
    out._assigned_under = (blocks.data, blocks.M)
    return out


def _cluster_means(membership: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """Per-cluster mean of ``vals`` over members; 0 for an empty cluster."""
    counts = np.bincount(membership, minlength=m).astype(np.float64)
    sums = np.bincount(membership, weights=vals, minlength=m)
    return np.divide(sums, counts, out=np.zeros(m), where=counts > 0)


def _metric_or_none(metric: Metric):
    """``metric.matrix``, or None when it is exactly I: then X I is X, bit for bit."""
    M = metric.matrix
    return None if core.is_identity(M) else M


def update_latents(blocks: _ClassBlocks, model: LatentModel, z_prev: np.ndarray,
                   gamma: float) -> LatentModel:
    """Closed-form latent update with memberships held fixed.

    Each latent moves to (sum of members + gamma * previous-outer-iterate
    row) / (member count + gamma). ``z_prev`` is the anchor from the
    previous outer iteration, not the previous sweep. An empty cluster
    with gamma = 0 keeps its anchor row.

    ``blocks`` is the stage's :func:`_class_blocks`, and every row's
    latent must be of the row's own class, as :func:`_assign` makes it:
    then class r's members are the rows the blocks hold for class r. Member
    sums take one m_r x n_r one-hot product per class, a fixed summation
    order for a fixed input: O(n*m_r*d) in all, with no n x d gather.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    z_prev = np.asarray(z_prev, dtype=np.float64)
    if z_prev.shape != model.latents.shape:
        raise ValueError(f"z_prev shape {z_prev.shape} != latents shape {model.latents.shape}")
    m = model.m
    counts = np.bincount(model.membership, minlength=m).astype(np.float64)
    sums = np.zeros((m, model.d))
    lo = 0
    for (idx, X_r, _, _), m_r in zip(blocks.rows, model.per_class_counts):
        onehot = np.arange(lo, lo + m_r)[:, None] == model.membership[idx]
        sums[lo:lo + m_r] = onehot.astype(np.float64) @ X_r
        lo += m_r
    denom = counts + gamma
    z_new = np.where((denom > 0)[:, None],
                     (sums + gamma * z_prev) / np.where(denom > 0, denom, 1.0)[:, None],
                     z_prev)
    return model.replace(latents=z_new)


def compute_margins(data: Dataset, model: LatentModel, metric: Metric) -> LatentModel:
    """Per-cluster empirical mean of D^2(x_i, z_o) over members; 0 if empty.

    The reference form: one (X - Z[membership]) M product, O(n*d^2), or
    O(n*d) when M is exactly the identity.
    """
    diffs = data.features - model.latents[model.membership]
    M = _metric_or_none(metric)
    vals = np.einsum("ij,ij->i", diffs if M is None else diffs @ M, diffs)
    np.maximum(vals, 0.0, out=vals)
    return model.replace(cluster_margins=_cluster_means(model.membership, vals, model.m))


def init_latents(data: Dataset, tau: float, seed: int) -> LatentModel:
    """Seed latent examples by within-class farthest-point selection.

    Each class r gets max(1, round(tau/100 * n_r)) latents chosen greedily
    under Euclidean distance from its rows in the identity-metric
    :func:`_class_blocks`; membership and margins then come from one
    :func:`_assign` on the same blocks, the step that ends every sweep of
    a latent stage. No d x d product: O(n*m_r*d) in all.
    """
    if not 0.0 < tau <= 100.0:
        raise ValueError(f"tau must be in (0, 100], got {tau}")
    rng = np.random.default_rng(seed)
    blocks = _class_blocks(data, None)
    counts = [latents_per_class(idx.size, tau) for idx, *_ in blocks.rows]
    latents = np.concatenate([X_r[_farthest_point_indices(X_r, m_r, rng)]
                              for (_, X_r, _, _), m_r in zip(blocks.rows, counts)])
    model = LatentModel(latents=latents, membership=np.zeros(data.n, dtype=np.int64),
                        cluster_margins=np.zeros(latents.shape[0]), per_class_counts=counts)
    return _assign(model, blocks)


def run_latent_stage(data: Dataset, prev: LatentModel, metric: Metric,
                     cfg: TrainConfig) -> LatentModel:
    """One latent stage: EM sweeps from the previous outer iterate.

    ``prev`` is assigned under ``metric``; then each of the
    ``cfg.latent_em_iters`` sweeps is a closed-form :func:`update_latents`,
    anchored at ``prev.latents``, followed by one :func:`_assign`, the step
    that ends :func:`init_latents` too: the margins match the final
    latents. A model or metric whose class count or dimension is not the
    data's raises ``ValueError``.

    The per-class rows, and X M, are made once for the stage. A ``prev``
    that :func:`_assign` made on this data under an equal metric, as
    :func:`init_latents` makes stage 1's, is its own first assignment, bit
    for bit. Cost: one n*d^2 product, X M, none when M is exactly the
    identity; then O(sweeps * (n*m_r*d + m*d^2)).
    """
    for what, got, want in (("latent model's class count", prev.per_class_counts.size,
                             data.n_classes), ("latent model's dimension", prev.d, data.d),
                            ("metric's dimension", metric.dim, data.d)):
        if got != want:
            raise ValueError(f"the {what} is {got}, but the data's is {want}")
    blocks = _class_blocks(data, _metric_or_none(metric))
    model = prev if _assigned_from(prev, blocks) else _assign(prev, blocks)
    for _ in range(cfg.latent_em_iters):
        model = _assign(update_latents(blocks, model, prev.latents, cfg.gamma), blocks)
    return model
