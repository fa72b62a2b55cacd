"""Metric stage: active-triplet SGD on the proximal hinge upper bound.

One stage solves, over the Frobenius ball of radius delta,

    lam/2 ||M - M_prev||_F^2
      + sum_t [1 + margin(o_t) - (D^2_M(z_o, z_q) - D^2_M(z_o, z_p))]_+

by strongly-convex SGD over the set of triplets that violate their margin
under M_prev, with step 1/(lam * s), a Frobenius-ball check every step,
suffix averaging of the last half of the iterates, and a single PSD
projection at the end. Margins are frozen under M_prev for the whole
stage; intermediate iterates may be indefinite.

The SGD kernel never forms an iterate: it holds M_s = a*W + b*M_prev,
so the shrink, the pull toward M_prev and the ball rescale of each step
are scalar updates, and it applies the rank-2 hinge updates of every
``SGD_BLOCK`` steps to W as one GEMM. M_prev enters a step only as b
times the triplet's gap E[o, q] - E[o, p] under it, read off one product
of the points with M_prev per stage. Every update is built from
differences of the m latents, so W lives in their span, of dimension
r = min(d, m - 1); when r is small enough against d for the stage's
length to repay O(d^2*r) flops to enter and leave the basis, the kernel
runs in an orthonormal basis of that span. A stage of S steps costs
O(S*(B*D + d)) scalar work plus O(S*D^2) flops in GEMMs of width 2B,
with D = r in the basis and d otherwise.

The terminal projection first tries to certify that the average is
already positive definite and returns it unchanged if so; only an
average that fails the certificate pays for an eigendecomposition. At
the identity anchor in the difference basis the average is
Q C Q^T + c I, certified by one r x r Cholesky factorization (about
0.1 ms at d = 784, r = 99); otherwise by one d x d factorization
(O(d^3/3), about 13 ms at d = 784).
"""

import math
import time

import numpy as np

from . import core
from .core import Metric, TrainConfig, pairwise_mahalanobis_sq
from .latent import LatentModel

# Steps per block of :func:`proximal_hinge_sgd`: a block gathers its 2B
# difference vectors once and applies its rank-2 updates as one GEMM.
SGD_BLOCK = 64

# A block ends early once ball clips shrink the scale a of W below this.
# Updates enter W divided by a, so a tiny a would cost W its precision.
SCALE_FLOOR = 1e-6


def _sample_without_replacement(total: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted uniform sample of ``size`` distinct ints from range(total)."""
    if size >= total:
        return np.arange(total, dtype=np.int64)
    if total <= 4 * size:
        return np.sort(rng.permutation(total)[:size].astype(np.int64))
    # sparse regime: rejection sampling converges in a couple of rounds
    picked = np.empty(0, dtype=np.int64)
    while picked.size < size:
        need = size - picked.size
        draw = rng.integers(0, total, size=int(need * 1.2) + 16)
        # sorted union: the same array as np.union1d, whose hash-based unique
        # (numpy 2.4) took ~30x longer on a 240k-draw round
        picked = np.sort(np.concatenate([picked, draw]))
        picked = picked[np.concatenate([[True], picked[1:] != picked[:-1]])]
    # drop a uniform choice of the surplus to stay unbiased
    if picked.size > size:
        drop = rng.permutation(picked.size)[: picked.size - size]
        picked = np.delete(picked, np.sort(drop))
    return picked


def build_active_set(model: LatentModel, metric_prev: Metric, cap: int, seed: int) -> np.ndarray:
    """Enumerate margin-violating triplets under ``metric_prev``.

    Returns an (T, 3) int64 array of (anchor, same-class, other-class)
    latent indices: the (o, p, q) with label(p) = label(o), p != o,
    label(q) != label(o) whose loss hinge is strictly positive, in
    ascending (o, p, q) order. These are exactly the triplets that
    :func:`core.full_loss_all` sums, counted per (o, p) by
    ``HingeBlock.below``. If more than ``cap`` violate, a uniform
    subsample without replacement (driven by ``seed``) is retained, still
    in ascending order. An empty result is legal.

    Each class block is counted over its sorted rows and kept only as its
    ``below``; after sampling, a block that holds a retained rank is
    re-formed from E and ranked by one ``np.argsort`` for
    :func:`core.decode_ranks`. Time is O(m^2 log m + retained); memory is
    E plus one block plus the sample.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    E = pairwise_mahalanobis_sq(metric_prev, model.latents)
    # keep what decode_ranks reads: the sorted rows of every block would
    # hold a second E
    blocks = [blk._replace(b_sorted=None, thresholds=None) for blk in
              core.hinge_blocks(E, model.per_class_counts, model.cluster_margins)]
    total = sum(int(blk.below.sum()) for blk in blocks)
    if total == 0:
        return np.empty((0, 3), dtype=np.int64)
    # every rank when total <= cap, else a sorted uniform sample of cap ranks
    ranks = _sample_without_replacement(total, cap, np.random.default_rng(seed))
    m = model.m
    keys = []
    base = 0
    for blk in blocks:
        size = int(blk.below.sum())
        lo, hi = np.searchsorted(ranks, [base, base + size])
        if hi > lo:
            # the block's rows re-formed from E; their argsort is gone before
            # the next block's is made
            o, p, q = core.decode_ranks(blk, np.argsort(core.other_class_columns(
                E, blk.lo, blk.hi), axis=1), ranks[lo:hi] - base)
            keys.append((o * m + p) * m + q)
        base += size
    # one int64 key per row sorts the rows into ascending (o, p, q)
    o, pq = np.divmod(np.sort(np.concatenate(keys)), m * m)
    return np.column_stack([o, *np.divmod(pq, m)])


def psd_project(M: np.ndarray, span=None) -> Metric:
    """Nearest PSD matrix: symmetrize, clamp negative eigenvalues to zero.

    The symmetrized input S is certified first: if the Cholesky
    factorization of S - tau*I succeeds, with tau = d * eps * ||S||_F,
    then lambda_min(S) >= 0 up to Cholesky's backward error, S is its own
    nearest PSD matrix, and S is returned bit for bit. Otherwise (and for
    non-finite input) the eigenvalues of S are clamped at zero through a
    full ``eigh``. At d=784 on one BLAS thread the d x d certificate costs
    about 0.013 s against 0.11-0.15 s for ``eigh``, and an input that
    fails it pays at most that one factorization on top of ``eigh``.

    ``span``, which :func:`proximal_hinge_sgd` returns at the identity
    anchor in its difference basis, is a pair (C, c): M was formed as
    Q C Q^T + c I, with Q d x r orthonormal and r < d. Its eigenvalues
    are c + eig(sym C) on the span of Q and c off it, so S is first
    certified by one r x r Cholesky of sym C + (c - shift) I, with
    c > shift (:func:`_span_shift`): about 0.1 ms at d = 784, r = 99. An
    average it does not certify goes on as above.
    """
    M = np.asarray(M, dtype=np.float64)
    sym = 0.5 * (M + M.T)
    d = sym.shape[0]
    tau = d * np.finfo(np.float64).eps * np.linalg.norm(sym)
    if math.isfinite(tau):
        # then S is finite, and it is exactly symmetric: it needs no check
        if span is not None:
            C, c = span
            shift = _span_shift(C, d, tau)
            if c > shift and _factors(0.5 * (C + C.T), c - shift):
                return Metric._unchecked(sym)
        if _factors(sym.copy(), -tau):
            return Metric._unchecked(sym)
    w, V = np.linalg.eigh(sym)
    np.maximum(w, 0.0, out=w)
    out = (V * w) @ V.T
    return Metric(0.5 * (out + out.T))


def _span_shift(C: np.ndarray, d: int, tau: float) -> float:
    """Shift of :func:`psd_project`'s r x r certificate of Q C Q^T + c I at dimension d.

    tau, the d x d certificate's shift, plus the rounding of the
    expansion: the two GEMMs of Q C Q^T (inner dimension r, and
    ||Q||_F^2 = r) move its eigenvalues by at most 2 r^2 eps ||C||_F, and
    Q's columns, orthonormal to d r eps (Householder QR), move the span's
    eigenvalues by at most d r eps ||C||_F more.
    """
    r = C.shape[0]
    return tau + (2 * r + d) * r * np.finfo(np.float64).eps * np.linalg.norm(C)


def _factors(A: np.ndarray, diag: float) -> bool:
    """True when the Cholesky factorization of A + diag * I succeeds; A is overwritten."""
    A.flat[::A.shape[0] + 1] += diag
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _difference_basis(points: np.ndarray, S: int):
    """Orthonormal d x r basis of span{x_i - x_0} of the n rows (r = n - 1), or None.

    Every difference of two rows lies in this span, so every rank-2
    update u u^T - v v^T of :func:`proximal_hinge_sgd` is Q (.) Q^T.
    One reduced QR; rank-deficient rows only leave spare basis vectors.

    None when the basis would not repay itself over S steps. Entering and
    leaving it (one QR, ``points @ Q`` and ``Q R Q^T``) takes about as long
    as d r (2d + 3r) flops of GEMM; one step of the blocked loop about as
    long as 7.5 d^2 of them in d-space and 11 r^2 in the basis (fitted at
    d = 784, S = 128 to 2000, one BLAS thread). So no r above about
    0.83 d is reduced, whatever S, and the largest r taken grows with S:
    at d = 784, 0.34 d at S = 128, 0.60 d at 500 and 0.75 d at 2000. At
    the first two edges the paths measured within 10% of each other; at
    the third the basis was still 21% faster, so long calls err toward
    d-space.
    """
    n, d = points.shape
    r = n - 1
    if d * r * (2 * d + 3 * r) + 11 * S * r * r >= 7.5 * S * d * d:
        return None
    return np.linalg.qr((points[1:] - points[0]).T)[0]


def proximal_hinge_sgd(points: np.ndarray, step_triplets: np.ndarray,
                       margins: np.ndarray, M_prev: np.ndarray,
                       lam: float, delta: float):
    """Projected SGD on the proximal hinge objective.

    Returns ``(average, active_steps, ball_clips, span)``: the suffix
    average, the number of steps whose hinge was active, the number of
    steps the Frobenius ball rescaled, and the average's factors for
    :func:`psd_project` (below), or None.

    Visits ``step_triplets`` rows (o, p, q into ``points``) in order, one
    per step s = 1..S, with step size 1/(lam*s), a Frobenius-ball check
    after every update, and the mean of the last S/2 iterates as output
    (not yet PSD-projected). The metric stage and the random-triplet
    baseline share this loop; only the triplet stream and margins differ.

    No iterate is ever formed. Each is held as M_s = a*W + b*M_prev, so
    the (1 - 1/s) shrink, the 1/s pull toward M_prev and the ball rescale
    are scalar updates of (a, b), and ||M_s||_F^2 follows from ||W||^2,
    <W, M_prev> and ||M_prev||^2. Under M_prev a step's hinge reads one
    scalar, its gap (z_q - z_p)^T M_prev (z_q + z_p - 2 z_o), taken from
    Z M_prev (formed once; Z itself when M_prev is exactly the identity,
    :func:`core.is_identity`), and <W, M_prev> gains k times the gap of
    each update k (v v^T - u u^T). Steps run in blocks of ``SGD_BLOCK``:
    the block's 2B difference vectors X are gathered once, one GEMM gives
    their forms under W, and the Gram matrix X X^T corrects every step's
    forms for the block's earlier rank-2 updates, so each hinge test is
    against the current iterate. At the end of a block its updates enter
    W as one rank-2B GEMM, the suffix sum takes its share lazily, and a is
    folded into W and into <W, M_prev>. W is zero in the first block, so
    that block makes no X W product.

    Every update is built from differences of the n points, so W stays in
    their span. When n - 1 < d and the call is long enough to repay the
    change of basis (:func:`_difference_basis`), the loop runs in an
    orthonormal basis Q (d x r, r = n - 1) of span{x_i - x_0} from one
    reduced QR: X is gathered from ``points @ Q``, W, the suffix sum and
    the work buffer are r x r, and the output is
    (2/S) (Q R Q^T + b_sum M_prev). At the identity anchor b_sum goes onto
    the diagonal, and ``span`` is ((2/S) R, (2/S) b_sum), so that
    :func:`psd_project` certifies the average in r x r; elsewhere ``span``
    is None. With D = r in the basis and d otherwise, a call costs
    O(S*(B*D + d)) scalar work plus O(S*D^2) flops in GEMMs of width 2B,
    plus O(d^2*r) to enter and leave the basis and one O(n*d^2) product
    with M_prev (none at the identity). It differs from the per-step loop in
    rounding only; the test suite holds it to 1e-9 relative.

    Raises ``ValueError`` unless S is even and positive (the suffix
    average covers the last S/2 iterates), lam > 0 and delta > 0.
    """
    S = step_triplets.shape[0]
    if S <= 0 or S % 2 != 0:
        raise ValueError(f"S must be even and > 0, got {S}")
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    Q = _difference_basis(points, S)
    Y = points if Q is None else points @ Q
    identity = core.is_identity(M_prev)
    # the only product with M_prev: each step reads it as one gap
    ZM = points if identity else points @ M_prev
    D = Y.shape[1]
    W = np.zeros((D, D))
    R = np.zeros((D, D))        # sum of a_s W_s over the suffix iterates
    buf = np.empty((D, D))
    a = b = 1.0
    w_norm2 = wp_dot = 0.0      # ||W||^2 and <W, M_prev> of the current W
    p_norm2 = float(np.dot(M_prev.ravel(), M_prev.ravel()))
    b_sum = 0.0                 # sum of b_s over the suffix iterates
    half = S // 2
    delta2 = delta * delta
    active_steps = ball_clips = 0
    done = 0
    while done < S:
        o, p, q = step_triplets[done:done + SGD_BLOCK].T
        n = o.shape[0]
        # rows 2j and 2j + 1 are step j's u = z_o - z_p and v = z_o - z_q
        X = np.empty((2 * n, D))
        np.subtract(Y[o], Y[p], out=X[0::2])
        np.subtract(Y[o], Y[q], out=X[1::2])
        form_w = np.einsum("ij,ij->i", X @ W, X).tolist() if done else [0.0] * (2 * n)
        # E[o, q] - E[o, p] under M_prev: (z_q - z_p)^T M_prev (z_q + z_p - 2 z_o)
        gap = np.einsum("ij,ij->i", ZM[q] - ZM[p],
                        points[q] + points[p] - 2.0 * points[o]).tolist()
        gram2 = np.square(X @ X.T)
        # ||v v^T - u u^T||_F^2 of each step
        rank2_norm2 = (gram2.diagonal()[0::2] + gram2.diagonal()[1::2]
                       - 2.0 * gram2.diagonal(1)[0::2]).tolist()
        hinge0 = (1.0 + margins[o]).tolist()
        g = np.zeros(2 * n)     # this block's updates: W += X^T diag(g) X
        weight = np.zeros(n)    # a of each suffix iterate, 0 before the suffix
        for j in range(n):
            s = done + j + 1
            # forms under W plus the block's earlier updates
            cu, cv = (gram2[2 * j:2 * j + 2] @ g).tolist()
            wu = form_w[2 * j] + cu
            wv = form_w[2 * j + 1] + cv
            active = hinge0[j] - (a * (wv - wu) + b * gap[j]) > 0.0
            inv_s = 1.0 / s
            # step 1's shrink drops M_0 = M_prev whole, and W is still zero
            a = a * (1.0 - inv_s) if s > 1 else 1.0
            b = b * (1.0 - inv_s) + inv_s
            if active:
                active_steps += 1
                k = inv_s / (lam * a)
                g[2 * j] = -k
                g[2 * j + 1] = k
                w_norm2 += 2.0 * k * (wv - wu) + k * k * rank2_norm2[j]
                wp_dot += k * gap[j]
            norm2 = a * a * w_norm2 + 2.0 * a * b * wp_dot + b * b * p_norm2
            if norm2 > delta2:
                ball_clips += 1
                r = delta / math.sqrt(norm2)
                a *= r
                b *= r
                norm2 *= r * r
            if s > half:
                weight[j] = a
                b_sum += b
            if a < SCALE_FLOOR:
                n = j + 1
                break
        X = X[:2 * n]
        g = g[:2 * n]
        # suffix sum over the block: sum_j a_j W_j = A W + sum_i tail_i Delta_i,
        # with W the flushed part and tail_i the sum of a_j over j >= i
        tail = np.cumsum(weight[n - 1::-1])[::-1]
        if tail[0] > 0.0:
            np.multiply(W, tail[0], out=buf)
            R += buf
            np.matmul((X * (g * np.repeat(tail, 2))[:, None]).T, X, out=buf)
            R += buf
        np.matmul((X * g[:, None]).T, X, out=buf)
        W += buf
        W *= a
        wp_dot *= a
        a = 1.0
        w_norm2 = float(np.dot(W.ravel(), W.ravel()))
        done += n
    span = None
    if Q is not None:
        if identity:
            # the average is Q C Q^T + c I, which psd_project certifies in r x r
            span = (R * (2.0 / S), b_sum * (2.0 / S))
        R = Q @ R @ Q.T
    if identity:
        R.flat[::R.shape[0] + 1] += b_sum
    else:
        R += M_prev * b_sum
    R *= 2.0 / S
    return R, active_steps, ball_clips, span


def run_metric_stage(model: LatentModel, metric_prev: Metric, cfg: TrainConfig,
                     seed: int):
    """One metric stage: active-set SGD, suffix average, terminal PSD projection.

    Samples uniformly with replacement from the active set built under
    ``metric_prev``. If the active set is empty (or the step budget is
    zero) the previous metric is PSD-projected and returned unchanged.
    Returns ``(metric, counts)``; ``counts`` holds ``active_set_size``,
    ``active_set_seconds`` (build time) and the SGD's ``active_steps`` and
    ``ball_clips``, both 0 when SGD does not run.
    ``seed`` drives the active-set sample and the SGD draws; identical
    seeds give bitwise-identical outputs.
    """
    s_build, s_sgd = np.random.SeedSequence(seed).spawn(2)
    t0 = time.perf_counter()
    triplets = build_active_set(model, metric_prev, cfg.active_set_cap,
                                int(s_build.generate_state(1)[0]))
    counts = {"active_set_size": len(triplets),
              "active_set_seconds": time.perf_counter() - t0,
              "active_steps": 0, "ball_clips": 0}
    S = cfg.inner_iters
    if len(triplets) == 0 or S == 0:
        return psd_project(metric_prev.matrix), counts
    rng = np.random.default_rng(s_sgd)
    picks = rng.integers(0, len(triplets), size=S)
    avg, counts["active_steps"], counts["ball_clips"], span = proximal_hinge_sgd(
        model.latents, triplets[picks], model.cluster_margins,
        metric_prev.matrix, cfg.lam, cfg.delta)
    return psd_project(avg, span), counts
