from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Metric, TrainConfig, metric
from mapml.metric import build_active_set, psd_project, run_metric_stage

from conftest import (alpha_suffix_average, frobenius_project, hinge_subgradient,
                      make_latent_model, oracle_active_triplets, oracle_full_loss,
                      oracle_psd_clamp, random_psd, random_symmetric)


def stage_value(metric, metric_prev, triplets, model, lam):
    """Stage objective over an active set, hinges by the conftest oracle."""
    diff = metric.matrix - metric_prev.matrix
    return 0.5 * lam * float(np.sum(diff * diff)) + oracle_full_loss(
        metric.matrix, model.latents, model.latent_labels,
        model.cluster_margins, [tuple(t) for t in triplets])


def random_triplet_instance(rng, d=3, margin_gap=0.3):
    """Random latent model + triplet whose hinge argument avoids the kink.

    Finite differences are only valid away from the hinge kink, so draw
    until the argument is at least ``margin_gap`` away from zero.
    """
    while True:
        z = rng.normal(size=(4, d))
        margins = rng.uniform(0.0, 1.0, size=4)
        model = make_latent_model(z, [2, 2], margins=margins)
        M = Metric(random_symmetric(rng, d))
        Mp = Metric(random_symmetric(rng, d))
        t = (0, 1, int(rng.integers(2, 4)))
        u = z[t[0]] - z[t[1]]
        v = z[t[0]] - z[t[2]]
        arg = 1.0 + margins[t[0]] - (v @ M.matrix @ v - u @ M.matrix @ u)
        if abs(arg) > margin_gap:
            return model, M, Mp, t, arg


def fd_gradient(fun, M, step=1e-5):
    """Central finite differences of a matrix->scalar function, entrywise."""
    d = M.shape[0]
    g = np.zeros_like(M)
    for i in range(d):
        for j in range(d):
            up = M.copy()
            dn = M.copy()
            up[i, j] += step
            dn[i, j] -= step
            g[i, j] = (fun(up) - fun(dn)) / (2 * step)
    return g


def triplet_term(M_arr, Mp_arr, z, t, margin, lam):
    """Single-triplet stage objective: proximal part + one hinge."""
    diff = M_arr - Mp_arr
    val = 0.5 * lam * float(np.sum(diff * diff))
    u = z[t[0]] - z[t[1]]
    v = z[t[0]] - z[t[2]]
    arg = 1.0 + margin - (v @ M_arr @ v - u @ M_arr @ u)
    return val + max(arg, 0.0)


class TestBuildActiveSet:
    def test_separated_classes_empty(self):
        model = make_latent_model([[0.0], [2.0], [100.0]], [2, 1])
        triplets = build_active_set(model, Metric.identity(1), cap=100, seed=0)
        assert len(triplets) == 0

    def test_exact_violation_list(self):
        model = make_latent_model([[0.0], [1.0], [1.5]], [2, 1])
        triplets = build_active_set(model, Metric.identity(1), cap=100, seed=0)
        assert [tuple(r) for r in triplets] == [(1, 0, 2)]
        expected = oracle_active_triplets(np.eye(1), model.latents,
                                          model.latent_labels, model.cluster_margins)
        assert [tuple(r) for r in triplets] == expected

    def test_cap_subsample(self):
        # five violations, cap one: exactly one survives, from the oracle set
        model = make_latent_model([[0.0], [0.1], [0.2], [0.3]], [3, 1])
        oracle = oracle_active_triplets(np.eye(1), model.latents,
                                        model.latent_labels, model.cluster_margins)
        assert len(oracle) > 1
        triplets = build_active_set(model, Metric.identity(1), cap=1, seed=7)
        assert len(triplets) == 1
        assert tuple(triplets[0]) in oracle

    def test_cap_draw_varies_with_seed(self):
        model = make_latent_model([[0.0], [0.1], [0.2], [0.3]], [3, 1])
        picks = {tuple(build_active_set(model, Metric.identity(1), cap=1,
                                        seed=s)[0]) for s in range(30)}
        assert len(picks) > 1

    def test_matches_oracle_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            c = int(rng.integers(2, min(m, 3) + 1))
            counts = np.full(c, m // c)
            counts[: m % c] += 1
            z = rng.normal(size=(m, d))
            margins = rng.uniform(0, 1.5, size=m)
            model = make_latent_model(z, counts, margins=margins)
            M = Metric(random_symmetric(rng, d))
            triplets = build_active_set(model, M, cap=10_000, seed=0)
            expected = oracle_active_triplets(M.matrix, z, model.latent_labels, margins)
            assert [tuple(r) for r in triplets] == expected

    def test_subsample_deterministic_and_ordered(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(12, 2)) * 0.1
        model = make_latent_model(z, [6, 6])
        a = build_active_set(model, Metric.identity(2), cap=20, seed=3)
        b = build_active_set(model, Metric.identity(2), cap=20, seed=3)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 20
        # enumeration order preserved under subsampling
        keys = [tuple(r) for r in a]
        assert keys == sorted(keys)


class TestHingeSubgradient:
    def test_inactive_at_anchor_is_zero(self):
        model = make_latent_model([[0.0], [1.0], [5.0]], [2, 1])
        M = Metric.identity(1)
        g = hinge_subgradient(M, M, (0, 1, 2), model, lam=2.0)
        np.testing.assert_array_equal(g, np.zeros((1, 1)))

    def test_inactive_proximal_only(self):
        model = make_latent_model([[0.0], [1.0], [5.0]], [2, 1])
        M = Metric(np.array([[2.0]]))
        Mp = Metric.identity(1)
        g = hinge_subgradient(M, Mp, (0, 1, 2), model, lam=3.0)
        np.testing.assert_allclose(g, 3.0 * (M.matrix - Mp.matrix))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            model, M, Mp, t, arg = random_triplet_instance(rng, d=d)
            lam = float(rng.uniform(0.2, 3.0))
            got = hinge_subgradient(M, Mp, t, model, lam)
            fun = lambda A: triplet_term(A, Mp.matrix, model.latents, t,
                                         model.cluster_margins[t[0]], lam)
            want = fd_gradient(fun, M.matrix.copy())
            denom = max(np.linalg.norm(want), 1e-8)
            assert np.linalg.norm(got - want) / denom <= 1e-4

    def test_output_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            model, M, Mp, t, _ = random_triplet_instance(rng)
            g = hinge_subgradient(M, Mp, t, model, lam=1.0)
            np.testing.assert_allclose(g, g.T, atol=1e-12)


class TestFrobeniusProject:
    def test_inside_ball_unchanged(self):
        M = np.diag([0.5, 0.5])
        np.testing.assert_array_equal(frobenius_project(M, delta=2.0), M)

    def test_scales_to_boundary(self):
        M = 2.0 * np.eye(2)
        # ||2 I||_F = 2 sqrt(2), independent norm oracle
        assert np.sqrt(np.sum(M * M)) == pytest.approx(2 * np.sqrt(2))
        got = frobenius_project(M, delta=2.0)
        np.testing.assert_allclose(got, np.sqrt(2.0) * np.eye(2), rtol=1e-12)

    def test_zero_matrix_fixed(self):
        Z = np.zeros((3, 3))
        np.testing.assert_array_equal(frobenius_project(Z, delta=1.0), Z)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            M = rng.normal(size=(3, 3)) * 10
            once = frobenius_project(M, delta=1.5)
            twice = frobenius_project(once, delta=1.5)
            np.testing.assert_allclose(twice, once, atol=1e-10)
            assert np.linalg.norm(once) <= 1.5 * (1 + 1e-12)


class TestPsdProject:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(16)
        M = random_psd(rng, 4)
        got = psd_project(M)
        np.testing.assert_allclose(got.matrix, M, atol=1e-10)

    def test_diagonal_clamp(self):
        got = psd_project(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_offdiagonal_example(self):
        # eigenpairs of [[0,1],[1,0]]: (1, (1,1)/sqrt2), (-1, (1,-1)/sqrt2);
        # clamping the negative one leaves 0.5 * ones
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, V = np.linalg.eigh(M)
        expected = (V * np.maximum(w, 0.0)) @ V.T
        np.testing.assert_allclose(expected, 0.5 * np.ones((2, 2)), atol=1e-12)
        got = psd_project(M)
        np.testing.assert_allclose(got.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            M = random_symmetric(rng, 4, scale=5.0)
            once = psd_project(M)
            assert once.min_eigenvalue() >= -1e-9
            twice = psd_project(once.matrix)
            np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-10)

    def test_symmetrizes_first(self):
        M = np.array([[1.0, 0.4], [0.0, 1.0]])
        got = psd_project(M)
        np.testing.assert_allclose(got.matrix, psd_project(0.5 * (M + M.T)).matrix,
                                   atol=1e-12)


def spectrum_instance(rng, d, eigenvalues):
    """V diag(w) V^T for a random orthogonal V, plus an antisymmetric part."""
    V, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = rng.normal(size=(d, d))
    return (V * eigenvalues) @ V.T + 1e-3 * (A - A.T)


class TestPsdProjectPaths:
    """A certified positive definite input is returned as is; others go to eigh."""

    @pytest.mark.parametrize("d", [1, 6, 50])
    def test_pd_input_returned_bitwise(self, d):
        # an eigh round trip is off by ~7e-15 at d=6, so this pins the certified path
        rng = np.random.default_rng(40 + d)
        for _ in range(5):
            M = random_psd(rng, d) + 0.05 * np.eye(d) + 1e-3 * rng.normal(size=(d, d))
            np.testing.assert_array_equal(psd_project(M).matrix, 0.5 * (M + M.T))

    @pytest.mark.parametrize("kind", ["indefinite", "singular", "barely_negative"])
    @pytest.mark.parametrize("d", [2, 6, 30])
    def test_matches_eigh_clamp(self, kind, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            w = rng.uniform(0.1, 2.0, size=d)
            if kind == "indefinite":
                w[: (d + 1) // 2] *= -1.0
            elif kind == "singular":
                w[: d // 2 + 1] = 0.0
            else:
                w[0] = -1e-13 * np.linalg.norm(w)
            M = spectrum_instance(rng, d, w)
            got = psd_project(M)
            np.testing.assert_allclose(got.matrix, oracle_psd_clamp(M), rtol=0, atol=1e-10)
            assert got.min_eigenvalue() >= -1e-9

    @pytest.mark.parametrize("a, b, c", [
        (1.3915619037691382, 1.4844634964591994, 1.5835672608966855),
        (1.4399938570064368, 0.9413825554634352, 0.6154200668419284),
        (1.2780283141191189, 1.3469967352690717, 1.4196870169313214),
    ])
    def test_exactly_indefinite_input_is_not_certified(self, a, b, c):
        # det < 0 in exact arithmetic, yet an unshifted Cholesky accepts it
        M = np.array([[a, b], [b, c]])
        assert Fraction(a) * Fraction(c) < Fraction(b) ** 2
        np.linalg.cholesky(M)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            psd_project(M)
        assert eigh.call_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        M = np.eye(3)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="metric matrix contains non-finite entries"):
            psd_project(M)


class FactorLog:
    """Stand-in for ``np.linalg.cholesky`` and ``eigh`` that records (kind, size, ok)."""

    def __init__(self):
        self.calls = []
        self.cholesky, self.eigh = np.linalg.cholesky, np.linalg.eigh

    def _logged(self, kind, fn, a):
        try:
            out = fn(a)
        except np.linalg.LinAlgError:
            self.calls.append((kind, a.shape[0], False))
            raise
        self.calls.append((kind, a.shape[0], True))
        return out

    def __enter__(self):
        self.patches = [
            mock.patch.object(np.linalg, "cholesky",
                              lambda a: self._logged("cholesky", self.cholesky, a)),
            mock.patch.object(np.linalg, "eigh", lambda a: self._logged("eigh", self.eigh, a))]
        for p in self.patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self.patches:
            p.stop()


class TestPsdProjectInSpan:
    """The average Q C Q^T + c I is certified by one r x r Cholesky, or goes on as before."""

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), r_share=st.floats(0.0, 1.0),
           b_exp=st.floats(-17.0, 1.0), gap=st.floats(-1.0, 1.0),
           gap_exp=st.integers(-17, 0), S=st.integers(1, 5000).map(lambda h: 2 * h))
    def test_certificate_against_eigvalsh(self, seed, d, r_share, b_exp, gap, gap_exp, S):
        # M is formed as the SGD kernel forms its average at the identity
        # anchor: (Q R Q^T + b I) * (2/S), with the pair ((2/S) R, (2/S) b).
        # lambda_min is (2/S) min(b, b + gap * 10^gap_exp), swept across zero
        rng = np.random.default_rng(seed)
        r = min(int(r_share * d), d - 1)
        Q = np.linalg.qr(rng.normal(size=(d, r)))[0]
        V = np.linalg.qr(rng.normal(size=(r, r)))[0]
        b = 10.0 ** b_exp
        w = -b + gap * 10.0 ** gap_exp + rng.uniform(0.0, 3.0, size=r)
        if r:
            w[0] = -b + gap * 10.0 ** gap_exp
        R = (V * w) @ V.T
        scale = 2.0 / S
        M = Q @ R @ Q.T
        M.flat[::d + 1] += b
        M *= scale
        C, c = R * scale, b * scale
        with FactorLog() as log:
            got = psd_project(M, (C, c)).matrix
        plain = psd_project(M).matrix
        sym = 0.5 * (M + M.T)
        tau = d * np.finfo(np.float64).eps * np.linalg.norm(sym)
        bound = metric._span_shift(C, d, tau)
        accepted = log.calls[:1] == [("cholesky", r, True)]
        exact_min = scale * np.append(b + w, b).min()
        if accepted:
            assert got.tobytes() == sym.tobytes()
            assert np.linalg.eigvalsh(got)[0] >= -bound
            assert len(log.calls) == 1
        else:
            assert got.tobytes() == plain.tobytes()
        if exact_min < -1e3 * bound:
            assert not accepted
            assert ("eigh", d, True) in log.calls
        if exact_min > 1e3 * bound:
            assert accepted

    def test_identity_anchored_stage_factors_nothing_larger_than_r(self):
        # m = 30 latents at d = 300: the SGD runs in the 29-dimensional
        # span of their differences, and so does the terminal certificate
        rng = np.random.default_rng(41)
        model = make_latent_model(rng.normal(size=(30, 300)) / np.sqrt(300), [10, 10, 10],
                                  margins=rng.uniform(0.0, 1.0, size=30))
        cfg = TrainConfig(inner_iters=200, lam=10.0, delta=100.0)
        assert metric._difference_basis(model.latents, cfg.inner_iters) is not None
        with FactorLog() as log:
            got, counts = run_metric_stage(model, Metric.identity(300), cfg, seed=cfg.rng_seed)
        assert counts["active_set_size"] > 0 and counts["active_steps"] > 0
        assert log.calls == [("cholesky", 29, True)]
        assert got.min_eigenvalue() > 0.0


class TestAlphaSuffixAverage:
    def test_constant_sequence(self):
        mats = [np.full((2, 2), 3.0)] * 6
        np.testing.assert_allclose(alpha_suffix_average(mats, 6), mats[0])

    def test_scalar_example(self):
        mats = [np.array([[v]]) for v in (1.0, 2.0, 3.0, 4.0)]
        assert alpha_suffix_average(mats, 4)[0, 0] == pytest.approx(3.5)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(18)
        mats = [rng.normal(size=(3, 3)) for _ in range(20)]
        got = alpha_suffix_average(mats, 20)
        want = sum(mats[10:]) / 10.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_odd_s_raises(self):
        with pytest.raises(ValueError):
            alpha_suffix_average([np.eye(1)] * 3, 3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            alpha_suffix_average([np.eye(1)] * 4, 6)


class TestRunMetricStage:
    def make_violating_instance(self, rng, d=2, m_per=2):
        z = rng.normal(size=(2 * m_per, d)) * 0.4
        model = make_latent_model(z, [m_per, m_per],
                                  margins=rng.uniform(0, 0.5, size=2 * m_per))
        return model

    def test_empty_active_set_returns_projected_prev(self):
        model = make_latent_model([[0.0], [2.0], [100.0]], [2, 1])
        Mp = Metric(np.array([[1.5]]))
        cfg = TrainConfig(inner_iters=100, lam=1.0, delta=10.0)
        got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        np.testing.assert_allclose(got.matrix, psd_project(Mp.matrix).matrix, atol=1e-12)

    def test_empty_active_set_returns_pd_prev_bitwise(self):
        # an eigh round trip would round M_prev; the certified path returns it as is
        rng = np.random.default_rng(27)
        model = make_latent_model([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [100.0, 0.0, 0.0]],
                                  [2, 1])
        Mp = Metric(random_psd(rng, 3) + 0.5 * np.eye(3))
        cfg = TrainConfig(inner_iters=100, lam=1.0, delta=10.0)
        assert len(build_active_set(model, Mp, cap=cfg.active_set_cap, seed=0)) == 0
        got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        np.testing.assert_array_equal(got.matrix, Mp.matrix)

    def test_single_triplet_descends(self):
        # exactly one violated triplet: anchor 0 sees the other class at
        # squared distance 1 vs same-class distance 1, anchor 1 is satisfied
        z = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        model = make_latent_model(z, [2, 1])
        Mp = Metric.identity(2)
        triplets = build_active_set(model, Mp, cap=10, seed=0)
        assert [tuple(r) for r in triplets] == [(0, 1, 2)]
        cfg = TrainConfig(inner_iters=1000, lam=1.0, delta=10.0, rng_seed=3)
        got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        before = stage_value(Mp, Mp, triplets, model, cfg.lam)
        after = stage_value(got, Mp, triplets, model, cfg.lam)
        assert after <= before

    def test_objective_decreases_on_random_instances(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            model = self.make_violating_instance(rng)
            Mp = Metric.identity(2)
            cfg = TrainConfig(inner_iters=2000, lam=1.0, delta=10.0, rng_seed=seed)
            triplets = build_active_set(model, Mp, cap=cfg.active_set_cap, seed=0)
            if len(triplets) == 0:
                continue
            got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
            before = stage_value(Mp, Mp, triplets, model, cfg.lam)
            after = stage_value(got, Mp, triplets, model, cfg.lam)
            assert after <= before + 1e-8

    def test_output_contracts(self):
        rng = np.random.default_rng(21)
        for seed in range(10):
            model = self.make_violating_instance(rng, d=3)
            Mp = Metric.identity(3)
            cfg = TrainConfig(inner_iters=500, lam=0.5, delta=2.0, rng_seed=seed)
            got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
            assert np.linalg.norm(got.matrix) <= cfg.delta + 1e-9
            assert got.min_eigenvalue() >= -1e-9

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(22)
        model = self.make_violating_instance(rng)
        Mp = Metric.identity(2)
        cfg = TrainConfig(inner_iters=800, lam=1.0, delta=5.0, rng_seed=9)
        a, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        b, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_stats_reported(self):
        rng = np.random.default_rng(24)
        model = self.make_violating_instance(rng)
        cfg = TrainConfig(inner_iters=100, lam=1.0, delta=5.0)
        _, counts = run_metric_stage(model, Metric.identity(2), cfg, seed=cfg.rng_seed)
        assert counts["active_set_size"] >= 0
        assert counts["active_set_seconds"] >= 0.0
        assert 0 < counts["active_steps"] <= cfg.inner_iters
        assert 0 <= counts["ball_clips"] <= cfg.inner_iters
        # without SGD the counts still carry every key
        cfg = TrainConfig(inner_iters=0)
        _, counts = run_metric_stage(model, Metric.identity(2), cfg, seed=cfg.rng_seed)
        assert counts["active_set_size"] > 0
        assert counts["active_steps"] == counts["ball_clips"] == 0

    def test_zero_steps_returns_projected_prev(self):
        rng = np.random.default_rng(25)
        model = self.make_violating_instance(rng)
        Mp = Metric.identity(2)
        cfg = TrainConfig(inner_iters=0)
        got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        np.testing.assert_allclose(got.matrix, Mp.matrix, atol=1e-12)

    def replay_stage(self, model, Mp, cfg):
        # the stage with stored iterates, averaged by alpha_suffix_average
        _, s_sgd = np.random.SeedSequence(cfg.rng_seed).spawn(2)
        triplets = build_active_set(model, Mp, cap=cfg.active_set_cap, seed=0)
        picks = np.random.default_rng(s_sgd).integers(0, len(triplets), size=cfg.inner_iters)
        z = model.latents
        M = Mp.matrix.copy()
        iterates = []
        for s in range(1, cfg.inner_iters + 1):
            o, p, q = triplets[picks[s - 1]]
            u, v = z[o] - z[p], z[o] - z[q]
            arg = (1.0 + model.cluster_margins[o]) - (v @ M @ v - u @ M @ u)
            M = (1 - 1 / s) * M + (1 / s) * Mp.matrix
            if arg > 0:
                M = M - (np.outer(u, u) - np.outer(v, v)) / (cfg.lam * s)
            M = frobenius_project(M, cfg.delta)
            iterates.append(M.copy())
        return psd_project(alpha_suffix_average(iterates, cfg.inner_iters))

    def test_debug_checks_pass(self):
        # the instance the former per-step debug assertions ran on: a small
        # ball that clips many steps. The output keeps what they asserted
        # (inside the ball, symmetric) and equals the explicit replay.
        model = self.make_violating_instance(np.random.default_rng(23))
        Mp = Metric.identity(2)
        cfg = TrainConfig(inner_iters=400, lam=1.0, delta=1.0, rng_seed=1)
        got, counts = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        assert counts["ball_clips"] > 0
        assert np.linalg.norm(got.matrix) <= cfg.delta * (1 + 1e-12)
        np.testing.assert_array_equal(got.matrix, got.matrix.T)
        want = self.replay_stage(model, Mp, cfg)
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    def test_equals_explicit_suffix_average(self):
        # replay the stage with stored iterates; the running-sum path must
        # agree with alpha_suffix_average over them
        model = self.make_violating_instance(np.random.default_rng(26))
        Mp = Metric.identity(2)
        cfg = TrainConfig(inner_iters=200, lam=1.0, delta=5.0, rng_seed=17)
        got, _ = run_metric_stage(model, Mp, cfg, seed=cfg.rng_seed)
        want = self.replay_stage(model, Mp, cfg)
        np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)
