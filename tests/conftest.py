"""Shared fixtures, independent oracles and naive references.

The oracles here are deliberately naive (explicit loops, no shared code
with the library) so they stay independent of the paths they check. The
references are the textbook forms of the metric-stage pieces (one
triplet's subgradient, the Frobenius-ball rescale, the suffix average)
and of the latent-stage objective, against which the library's fused
kernels are checked. ``assign_membership`` is a helper, not an oracle:
it runs the library's own assignment.
"""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import settings

from mapml import Dataset, LatentModel, latent

# One profile for every property test: examples derived from the test
# function (reproducible runs) and no per-example deadline.
settings.register_profile("mapml", deadline=None, derandomize=True)
settings.load_profile("mapml")


# ---------------------------------------------------------------- oracles

def oracle_mahalanobis(M, a, b):
    """Squared Mahalanobis distance by explicit double loop."""
    M = np.asarray(M, dtype=np.float64)
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    total = 0.0
    for i in range(len(diff)):
        for j in range(len(diff)):
            total += diff[i] * M[i, j] * diff[j]
    return total


def oracle_valid_triplets(labels):
    """All (o, p, q) with label(p)=label(o), p != o, label(q) != label(o)."""
    labels = np.asarray(labels)
    out = []
    for o in range(len(labels)):
        for p in range(len(labels)):
            if p == o or labels[p] != labels[o]:
                continue
            for q in range(len(labels)):
                if labels[q] == labels[o]:
                    continue
                out.append((o, p, q))
    return out


def oracle_full_loss(M, latents, labels, margins, triplets=None):
    """Sum of hinges over the triplets (default: the full universe)."""
    if triplets is None:
        triplets = oracle_valid_triplets(labels)
    total = 0.0
    for (o, p, q) in triplets:
        dp = oracle_mahalanobis(M, latents[o], latents[p])
        dq = oracle_mahalanobis(M, latents[o], latents[q])
        arg = 1.0 + margins[o] - (dq - dp)
        if arg > 0:
            total += arg
    return total


def oracle_active_triplets(M, latents, labels, margins):
    """Margin-violating triplets in ascending enumeration order."""
    out = []
    for (o, p, q) in oracle_valid_triplets(labels):
        dp = oracle_mahalanobis(M, latents[o], latents[p])
        dq = oracle_mahalanobis(M, latents[o], latents[q])
        if 1.0 + margins[o] - (dq - dp) > 0:
            out.append((o, p, q))
    return out


def oracle_knn_euclidean(query, refs, labels, k, M=None):
    """kNN with the documented tie rules, by explicit sort: Euclidean, or
    under metric matrix ``M`` when given."""
    if M is None:
        M = np.eye(len(query))
    d2 = [oracle_mahalanobis(M, query, r) for r in refs]
    order = sorted(range(len(refs)), key=lambda i: (d2[i], i))
    top = [labels[i] for i in order[:k]]
    counts = {}
    for lab in top:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    for lab in top:
        if counts[lab] == best:
            return lab
    raise AssertionError("unreachable")


def oracle_farthest_points(X, first, k):
    """Greedy farthest-point picks by explicit loops, from a given first pick.

    Each further pick maximizes the squared distance to the nearest point
    already chosen, ties to the smaller index. Also returns the smallest
    lead of a pick's distance over the runner-up's, so a caller can tell
    a near-tied instance.
    """
    rows = [[float(v) for v in row] for row in np.asarray(X)]

    def sq(a, b):
        return sum((u - v) ** 2 for u, v in zip(a, b))

    chosen = [int(first)]
    lead = np.inf
    while len(chosen) < k:
        dist = [min(sq(x, rows[c]) for c in chosen) for x in rows]
        order = sorted(range(len(rows)), key=lambda i: (-dist[i], i))
        chosen.append(order[0])
        if len(order) > 1:
            lead = min(lead, dist[order[0]] - dist[order[1]])
    return chosen, lead


def oracle_latent_update(X, membership, z_prev, gamma):
    """Proximal centroids by explicit loops.

    Row o is (sum of members + gamma * z_prev[o]) / (member count + gamma);
    an empty cluster with gamma = 0 keeps z_prev[o].
    """
    z_prev = np.asarray(z_prev, dtype=np.float64)
    out = z_prev.copy()
    for o in range(z_prev.shape[0]):
        members = [i for i in range(len(membership)) if membership[i] == o]
        if not members and gamma == 0:
            continue
        for t in range(z_prev.shape[1]):
            total = gamma * z_prev[o, t]
            for i in members:
                total += float(X[i][t])
            out[o, t] = total / (len(members) + gamma)
    return out


def oracle_psd_clamp(M):
    """Nearest PSD matrix by a full eigendecomposition of the symmetric part."""
    M = np.asarray(M, dtype=np.float64)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.maximum(w, 0.0)) @ V.T


# ---------------------------------------------------------------- references

def hinge_subgradient(metric, metric_prev, triplet, model, lam):
    """Subgradient of one triplet's term of the stage objective at ``metric``.

    Always contains the proximal part lam * (M - M_prev); the rank-2 hinge
    part (z_o - z_p)(z_o - z_p)^T - (z_o - z_q)(z_o - z_q)^T is added only
    when the hinge argument is positive under the *current* metric (the
    margin stays frozen under ``metric_prev``).
    """
    o, p, q = (int(v) for v in triplet)
    z = model.latents
    u = z[o] - z[p]
    v = z[o] - z[q]
    M = metric.matrix
    arg = (1.0 + model.cluster_margins[o]) - (float(v @ M @ v) - float(u @ M @ u))
    g = lam * (metric.matrix - metric_prev.matrix)
    if arg > 0.0:
        g = g + np.outer(u, u) - np.outer(v, v)
    return g


def frobenius_project(M, delta):
    """Scale M back onto the Frobenius ball of radius delta if outside."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    M = np.asarray(M, dtype=np.float64)
    norm = np.linalg.norm(M)
    if norm <= delta:
        return M
    return M * (delta / norm)


def alpha_suffix_average(iterates, S):
    """Mean of the iterates with (1-based) index in (S/2, S]."""
    if S % 2 != 0:
        raise ValueError(f"S must be even, got {S}")
    mats = list(iterates)
    if len(mats) != S:
        raise ValueError(f"expected {S} iterates, got {len(mats)}")
    half = S // 2
    acc = np.zeros_like(np.asarray(mats[0], dtype=np.float64))
    for M in mats[half:]:
        acc += np.asarray(M, dtype=np.float64)
    return acc * (2.0 / S)


def surrogate_objective(data, model, metric, z_prev, gamma, class_r=None):
    """Assignment cost plus proximal anchor term.

    This is the quantity each latent-stage sweep must not increase:
    sum_i D^2(x_i, z_{membership(i)}) + gamma * sum_o D^2(z_o, z_prev_o),
    either over all classes (default) or restricted to ``class_r``.
    """
    if class_r is None:
        rows = slice(None)
        lat = slice(None)
    else:
        rows = data.labels == class_r
        lat = model.latent_labels == class_r
    diffs = data.features[rows] - model.latents[model.membership[rows]]
    cost = float(np.einsum("ij,ij->i", diffs @ metric.matrix, diffs).sum())
    zdiff = model.latents[lat] - np.asarray(z_prev, dtype=np.float64)[lat]
    cost += gamma * float(np.einsum("ij,ij->i", zdiff @ metric.matrix, zdiff).sum())
    return cost


def assign_membership(data, model, metric):
    """``model`` with each example moved to its nearest same-class latent under ``metric``.

    One assignment sweep of the library (``latent._assign``): ties within
    ``latent.TIE_TOLERANCE`` go to the smaller latent index, and margins
    are carried over unchanged. ``_metric_or_none`` is looked up on the
    module at call time, so a test that patches it reaches this helper too.
    """
    M = latent._metric_or_none(metric)
    membership, _ = latent._assign(model, latent._class_blocks(data, M))
    return model.replace(membership=membership)


# ---------------------------------------------------------------- builders

class MatmulCounter(np.ndarray):
    """An array that counts the ``np.matmul`` calls it takes part in.

    Every result is a plain ndarray, so only products with this very
    matrix are counted, not products with arrays made from it.
    """

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            MatmulCounter.matmuls += 1
        plain = tuple(np.asarray(x) if isinstance(x, MatmulCounter) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def random_psd(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T) / d


def random_symmetric(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * 0.5 * (A + A.T)


def make_latent_model(latents, class_sizes, membership=None, margins=None):
    """LatentModel with rows grouped by class; margins default to zero."""
    latents = np.asarray(latents, dtype=np.float64)
    counts = np.asarray(class_sizes, dtype=np.int64)
    labels = np.repeat(np.arange(counts.size), counts)
    m = latents.shape[0]
    return LatentModel(
        latents=latents,
        latent_labels=labels,
        membership=np.zeros(1, dtype=np.int64) if membership is None else membership,
        cluster_margins=np.zeros(m) if margins is None else np.asarray(margins, float),
        per_class_counts=counts,
    )


def make_blobs(rng, n_per_class, centers, sigma):
    """Isotropic Gaussian blob dataset, one blob per class."""
    centers = np.asarray(centers, dtype=np.float64)
    feats, labs = [], []
    for r, c in enumerate(centers):
        feats.append(c + rng.normal(0.0, sigma, size=(n_per_class, centers.shape[1])))
        labs.append(np.full(n_per_class, r))
    return Dataset(np.concatenate(feats), np.concatenate(labs))


def random_instance(rng, n_lo=20, n_hi=60, d_lo=2, d_hi=6, c_lo=2, c_hi=4,
                    spread=3.0, sigma_lo=0.2, sigma_hi=0.5):
    """Random separated-blob classification instance."""
    d = int(rng.integers(d_lo, d_hi + 1))
    c = int(rng.integers(c_lo, c_hi + 1))
    n = int(rng.integers(n_lo, n_hi + 1))
    centers = rng.normal(0.0, spread, size=(c, d))
    sigma = float(rng.uniform(sigma_lo, sigma_hi))
    return make_blobs(rng, n // c + 1, centers, sigma)


# ---------------------------------------------------------------- fixtures

def _mnist_paths():
    candidates = [os.environ.get("MAPML_DATA_DIR"),
                  os.path.join(os.path.dirname(__file__), "data")]
    names = [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
         "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
         "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
    ]
    for base in candidates:
        if not base:
            continue
        for group in names:
            paths = [os.path.join(base, name) for name in group]
            if all(os.path.exists(p) for p in paths):
                return paths
    return None


@pytest.fixture(scope="session")
def mnist_subset():
    """Seeded 10k-train / 2k-test MNIST subset, or a skip when absent.

    Place the standard IDX files (optionally gzipped) under tests/data or
    $MAPML_DATA_DIR to enable the MNIST-dependent suites.
    """
    paths = _mnist_paths()
    if paths is None:
        pytest.skip("MNIST IDX files not available (tests/data or $MAPML_DATA_DIR); "
                    "no network route exists in this environment to fetch them")
    from mapml import load_idx

    train = load_idx(paths[0], paths[1])
    test = load_idx(paths[2], paths[3])
    rng = np.random.default_rng(20240001)
    tr = rng.permutation(train.n)[:10_000]
    te = rng.permutation(test.n)[:2_000]
    train_sub = Dataset(train.features[tr], train.label_names[train.labels[tr]])
    test_sub = Dataset(test.features[te], test.label_names[test.labels[te]])
    return train_sub, test_sub


def _load_surrogate():
    """``perfbench/surrogate.py``, loaded by path: the one desk generator."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "surrogate.py")
    spec = importlib.util.spec_from_file_location("perfbench_surrogate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# MNIST-scale surrogate (10k/2k, latent clusters in 16 signal dimensions
# plus 48 noise dimensions), shared with the benchmark
build_desk_surrogate = _load_surrogate().build_desk_surrogate


@pytest.fixture(scope="session")
def desk_surrogate():
    return build_desk_surrogate()
