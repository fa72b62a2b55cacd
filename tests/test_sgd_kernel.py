"""The blocked SGD kernel against a naive loop over the checked pieces.

``proximal_hinge_sgd`` never forms an iterate: it keeps M = a*W + b*M_prev
and applies each block's rank-2 updates as one GEMM. The oracle here runs
the textbook loop, one step at a time, from the references in
``conftest``: one triplet's subgradient, the Frobenius-ball rescale and
the suffix average over stored iterates. The two differ in rounding only,
so they must agree to 1e-9 relative.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Metric, core, metric
from mapml.metric import SGD_BLOCK, proximal_hinge_sgd

from conftest import (MatmulCounter, alpha_suffix_average, frobenius_project,
                      hinge_subgradient, make_latent_model, random_psd)

RTOL = 1e-9


def oracle_sgd(points, triplets, margins, M_prev, lam, delta):
    """Per-step projected SGD with stored iterates and an explicit suffix mean."""
    model = make_latent_model(points, [len(points)], margins=margins)
    prev = Metric(M_prev)
    M = prev.matrix.copy()
    iterates = []
    for s, t in enumerate(triplets, start=1):
        g = hinge_subgradient(Metric(M), prev, t, model, lam)
        M = frobenius_project(M - g / (lam * s), delta)
        iterates.append(M)
    return alpha_suffix_average(iterates, len(triplets))


def assert_matches_oracle(points, triplets, margins, M_prev, lam, delta):
    """The kernel's ``(average, active_steps, ball_clips)``, checked against the oracle."""
    out = proximal_hinge_sgd(points, triplets, margins, M_prev, lam, delta)
    want = oracle_sgd(points, triplets, margins, M_prev, lam, delta)
    rel = np.linalg.norm(out[0] - want) / np.linalg.norm(want)
    assert rel <= RTOL, rel
    return out[:3]


def instance(seed, n, d, S, margin_lo=0.0, margin_hi=0.5, prev_norm=1.0):
    """Gaussian points, triplets of distinct rows, PSD M_prev of the given norm."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    triplets = np.array([rng.choice(n, 3, replace=False) for _ in range(S)])
    margins = rng.uniform(margin_lo, margin_hi, size=n)
    Mp = random_psd(rng, d)
    return points, triplets, margins, Mp * (prev_norm / np.linalg.norm(Mp))


class TestBlockedSgd:
    def test_no_clipping(self):
        pts, trip, marg, Mp = instance(0, n=50, d=10, S=300)
        _, active_steps, ball_clips = assert_matches_oracle(pts, trip, marg, Mp,
                                                            lam=1.0, delta=100.0)
        assert ball_clips == 0
        assert active_steps > 0

    def test_clipping_on_some_steps(self):
        pts, trip, marg, Mp = instance(1, n=50, d=10, S=300)
        _, _, ball_clips = assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=3.0)
        assert 0 < ball_clips < 300 // 4

    def test_clipping_on_every_step(self):
        # the ball is so small that each update leaves it, and the clips
        # shrink the scale of W by orders of magnitude within one block
        pts, trip, marg, Mp = instance(2, n=40, d=100, S=200, margin_lo=100.0,
                                       margin_hi=110.0, prev_norm=0.025)
        avg, active_steps, ball_clips = assert_matches_oracle(pts, trip, marg, Mp,
                                                              lam=0.1, delta=0.05)
        assert active_steps == ball_clips == 200
        assert np.abs(avg - avg.T).max() <= core.SYMMETRY_TOL

    @pytest.mark.parametrize("S", [2, 40, SGD_BLOCK, 2 * SGD_BLOCK + 22])
    def test_step_counts_around_the_block(self, S):
        pts, trip, marg, Mp = instance(3 + S, n=12, d=6, S=S)
        assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=10.0)

    def test_inactive_heavy_stream(self):
        # four far-apart clusters (row i in cluster i % 4); q comes from
        # another cluster than o on nine steps in ten, whose hinges are inactive
        pts, _, marg, Mp = instance(4, n=40, d=8, S=0)
        rng = np.random.default_rng(4)
        pts += 10.0 * rng.normal(size=(4, 8))[np.arange(40) % 4]
        o = rng.integers(0, 40, size=300)
        p = (o + 4 * rng.integers(1, 10, size=300)) % 40
        q = (o + rng.integers(1, 4, size=300)) % 40
        q[::10] = (o[::10] + 4 * rng.integers(1, 10, size=30)) % 40
        _, active_steps, _ = assert_matches_oracle(pts, np.column_stack([o, p, q]), marg, Mp,
                                                   lam=1.0, delta=10.0)
        assert 0 < active_steps <= 30

    def test_baseline_shaped_input(self):
        # the random-triplet baseline: many rows, few steps, zero margins,
        # anchored at the identity
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(2000, 30))
        trip = rng.integers(0, 2000, size=(200, 3))
        assert_matches_oracle(pts, trip, np.zeros(2000), np.eye(30), lam=10.0, delta=10.0)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), d=st.integers(1, 12),
           half=st.integers(1, 100), lam=st.floats(0.1, 10.0),
           delta=st.floats(0.05, 20.0), prev_norm=st.floats(0.01, 2.0))
    def test_matches_oracle_property(self, seed, n, d, half, lam, delta, prev_norm):
        pts, trip, marg, Mp = instance(seed, n, d, 2 * half,
                                       prev_norm=min(prev_norm, delta))
        assert_matches_oracle(pts, trip, marg, Mp, lam, delta)


class TestIdentityAnchor:
    """With M_prev = I the kernel skips X M_prev; X I is X, so nothing else moves."""

    @pytest.mark.parametrize("d, delta", [(30, 100.0), (30, 3.0), (200, 100.0), (200, 2.0)])
    def test_bitwise_equals_generic_path(self, d, delta):
        pts, trip, marg, _ = instance(60 + d, n=60, d=d, S=2 * SGD_BLOCK + 22)
        pts /= np.sqrt(d)
        args = (pts, trip, marg, np.eye(d), 1.0, delta)
        fast = proximal_hinge_sgd(*args)
        with mock.patch.object(core, "is_identity", lambda matrix: False):
            generic = proximal_hinge_sgd(*args)
        np.testing.assert_array_equal(fast[0], generic[0])
        assert fast[1:3] == generic[1:3]
        assert fast[1] > 0


class TestAnchorProducts:
    """M_prev enters a call through one product with the points, whatever S is."""

    @pytest.mark.parametrize("n, d, anchor, products", [
        (50, 10, "general", 1),     # d-space, five blocks
        (20, 40, "general", 1),     # the difference basis
        (50, 10, "identity", 0),
    ])
    def test_one_product_with_the_anchor_per_call(self, n, d, anchor, products):
        pts, trip, marg, Mp = instance(80, n=n, d=d, S=300)
        if anchor == "identity":
            Mp = np.eye(d)
        want = proximal_hinge_sgd(pts, trip, marg, Mp, 1.0, 3.0)
        MatmulCounter.matmuls = 0
        got = proximal_hinge_sgd(pts, trip, marg, Mp.view(MatmulCounter), 1.0, 3.0)
        assert MatmulCounter.matmuls == products
        np.testing.assert_array_equal(np.asarray(got[0]), want[0])
        assert got[1:] == want[1:]


class TestDifferenceSpan:
    """With n - 1 small against d the kernel runs in a basis of span{x_i - x_0}."""

    @staticmethod
    def reduced(points, S):
        return metric._difference_basis(points, S) is not None

    def test_general_anchor(self):
        pts, trip, marg, Mp = instance(70, n=20, d=40, S=2 * SGD_BLOCK + 22)
        assert self.reduced(pts, len(trip))
        _, active_steps, _ = assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=100.0)
        assert active_steps > 0

    def test_general_anchor_with_clipping(self):
        pts, trip, marg, Mp = instance(71, n=20, d=40, S=2 * SGD_BLOCK + 22)
        _, _, ball_clips = assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=1.5)
        assert ball_clips > 0

    @pytest.mark.parametrize("kind", ["duplicate", "collinear"])
    def test_rank_deficient_points(self, kind):
        # 8 independent rows, the other 22 repeat them or lie on lines between them
        pts, trip, marg, Mp = instance(72, n=30, d=60, S=2 * SGD_BLOCK)
        rng = np.random.default_rng(72)
        a = rng.integers(0, 8, size=22)
        if kind == "duplicate":
            pts[8:] = pts[a]
        else:
            b = (a + rng.integers(1, 8, size=22)) % 8
            t = rng.uniform(-1.0, 2.0, size=(22, 1))
            pts[8:] = pts[a] + t * (pts[b] - pts[a])
        assert np.linalg.matrix_rank(pts[1:] - pts[0]) == 7
        assert self.reduced(pts, len(trip))
        assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=100.0)

    @pytest.mark.parametrize("n, reduced", [(13, True), (14, False)])
    def test_boundary(self, n, reduced):
        # at d = 16 and 150 steps the basis pays up to r = 12
        pts, trip, marg, Mp = instance(73 + n, n=n, d=16, S=2 * SGD_BLOCK + 22)
        assert self.reduced(pts, len(trip)) == reduced
        assert_matches_oracle(pts, trip, marg, Mp, lam=1.0, delta=10.0)

    @pytest.mark.parametrize("n, d, S, reduced", [
        (100, 784, 500, True),      # wide-train's shape
        (300, 784, 500, True),
        (500, 784, 500, False),     # r near d: the basis costs more than it saves
        (393, 784, 128, False),     # r = d/2 pays only in longer calls
        (393, 784, 2000, True),
        (65, 64, 10**9, False),     # r >= d: never, however long the call
        (2, 1, 10**9, False),
    ])
    def test_choice_of_path(self, n, d, S, reduced):
        pts = np.random.default_rng(76).normal(size=(n, d))
        assert self.reduced(pts, S) == reduced

    @pytest.mark.parametrize("anchor", ["identity", "general"])
    def test_equals_full_path_on_wide_input(self, anchor):
        # m = 100 latents at d = 320; the full path is the kernel with no basis
        pts, trip, marg, Mp = instance(74, n=100, d=320, S=4 * SGD_BLOCK + 12)
        pts /= np.sqrt(320)
        if anchor == "identity":
            Mp = np.eye(320)
        args = (pts, trip, marg, Mp, 1.0, 5.0)
        reduced = proximal_hinge_sgd(*args)
        with mock.patch.object(metric, "_difference_basis", lambda points, S: None):
            full = proximal_hinge_sgd(*args)
        rel = np.linalg.norm(reduced[0] - full[0]) / np.linalg.norm(full[0])
        assert rel <= 1e-12, rel
        assert reduced[1:3] == full[1:3]
        assert full[1] > 0


class TestArguments:
    """Bad step counts and weights raise instead of returning a wrong average."""

    def three_points(self, S):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
        return points, np.tile([0, 1, 2], (S, 1)), np.zeros(3), np.eye(2)

    @pytest.mark.parametrize("S", [0, 1, 3, 2 * SGD_BLOCK + 1])
    def test_odd_or_zero_steps_raise(self, S):
        pts, trip, marg, Mp = self.three_points(S)
        with pytest.raises(ValueError, match="S must be even and > 0"):
            proximal_hinge_sgd(pts, trip, marg, Mp, lam=1.0, delta=10.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_non_positive_lam_raises(self, lam):
        pts, trip, marg, Mp = self.three_points(4)
        with pytest.raises(ValueError, match="lam must be > 0"):
            proximal_hinge_sgd(pts, trip, marg, Mp, lam=lam, delta=10.0)

    @pytest.mark.parametrize("delta", [0.0, -2.0])
    def test_non_positive_delta_raises(self, delta):
        pts, trip, marg, Mp = self.three_points(4)
        with pytest.raises(ValueError, match="delta must be > 0"):
            proximal_hinge_sgd(pts, trip, marg, Mp, lam=1.0, delta=delta)
