from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from mapml import Dataset, Metric, TrainConfig, init_latents, latent, run_latent_stage
from mapml.latent import LatentModel, compute_margins, latents_per_class, update_latents
from mapml.metric import run_metric_stage

from conftest import (assign_membership, make_blobs, make_latent_model,
                      oracle_farthest_points, oracle_latent_update, random_instance,
                      random_psd, surrogate_objective)


def numerical_latent_minimizer(X, membership, M, z_prev, gamma):
    """Minimize the fixed-membership clustering objective by L-BFGS.

    Independent oracle for the closed-form update: the objective is
    sum_i D2_M(x_i, z_{f(i)}) + gamma * sum_o D2_M(z_o, z_prev_o) over z.
    """
    m, d = z_prev.shape

    def fun(flat):
        z = flat.reshape(m, d)
        diffs = X - z[membership]
        val = np.einsum("ij,jk,ik->", diffs, M, diffs)
        zd = z - z_prev
        val += gamma * np.einsum("ij,jk,ik->", zd, M, zd)
        return val

    def grad(flat):
        z = flat.reshape(m, d)
        g = np.zeros_like(z)
        diffs = X - z[membership]
        np.add.at(g, membership, -2.0 * diffs @ M)
        g += 2.0 * gamma * (z - z_prev) @ M
        return g.ravel()

    x0 = z_prev.ravel() + 0.01
    res = minimize(fun, x0, jac=grad, method="L-BFGS-B",
                   options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 2000})
    return res.x.reshape(m, d)


class TestLatentModel:
    @pytest.mark.parametrize("counts", [[1], [2, 1], [1, 3, 2]])
    def test_labels_derive_from_counts(self, counts):
        # the triplet scans slice each class's rows by per_class_counts alone
        m = sum(counts)
        model = LatentModel(latents=np.zeros((m, 2)), membership=np.zeros(1, dtype=np.int64),
                            cluster_margins=np.zeros(m), per_class_counts=counts)
        want = np.repeat(np.arange(len(counts)), counts)
        for got in (model.latent_labels, model.replace(latents=np.ones((m, 2))).latent_labels):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable


class TestLatentsPerClass:
    def test_examples(self):
        assert latents_per_class(10, 10.0) == 1
        assert latents_per_class(100, 10.0) == 10
        assert latents_per_class(10, 100.0) == 10
        assert latents_per_class(3, 1.0) == 1  # floor of one per class

    def test_half_up_rounding(self):
        assert latents_per_class(15, 10.0) == 2
        assert latents_per_class(14, 10.0) == 1


class TestInitLatents:
    def test_single_latent_class(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(10, 2)), np.zeros(10))
        model = init_latents(data, 10.0, seed=1)
        assert model.m == 1
        assert (model.membership == 0).all()
        # the latent is one of the class points
        assert any(np.array_equal(model.latents[0], x) for x in data.features)

    def test_tau_100_degenerate(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(8, 2)), [0, 0, 0, 0, 1, 1, 1, 1])
        model = init_latents(data, 100.0, seed=2)
        assert model.m == data.n
        np.testing.assert_allclose(model.cluster_margins, 0.0, atol=1e-15)

    def test_farthest_point_spans_blobs(self):
        # one class made of two well-separated blobs: the two seeds must
        # land in different blobs (brute-force blob assignment check)
        rng = np.random.default_rng(2)
        lo = rng.normal(0.0, 0.3, size=(10, 2))
        hi = rng.normal(9.0, 0.3, size=(10, 2))
        data = Dataset(np.concatenate([lo, hi]), np.zeros(20))
        model = init_latents(data, 10.0, seed=3)
        assert model.m == 2
        blob = [int(np.sum((z - 9.0) ** 2) < np.sum(z ** 2)) for z in model.latents]
        assert sorted(blob) == [0, 1]

    def test_never_calls_compute_margins(self, monkeypatch):
        # init takes its margins from its own assignment's distances
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
        reference = latent.compute_margins

        def refuse(*args):
            raise AssertionError("init_latents called compute_margins")

        monkeypatch.setattr(latent, "compute_margins", refuse)
        model = init_latents(data, 20.0, seed=6)
        want = reference(data, model, Metric.identity(3)).cluster_margins
        np.testing.assert_allclose(model.cluster_margins, want, rtol=1e-12, atol=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30))
        a = init_latents(data, 20.0, seed=5)
        b = init_latents(data, 20.0, seed=5)
        np.testing.assert_array_equal(a.latents, b.latents)
        np.testing.assert_array_equal(a.membership, b.membership)


class TestAssignMembership:
    def test_single_candidate(self):
        data = Dataset([[0.0], [5.0], [9.0]], [0, 0, 0])
        model = make_latent_model([[4.0]], [1],
                                  membership=np.zeros(3, dtype=np.int64))
        got = assign_membership(data, model, Metric.identity(1))
        assert (got.membership == 0).all()

    def test_nearest_wins(self):
        data = Dataset([[3.0]], [0])
        model = make_latent_model([[0.0], [10.0]], [2],
                                  membership=np.zeros(1, dtype=np.int64))
        got = assign_membership(data, model, Metric.identity(1))
        assert got.membership[0] == 0

    def test_tie_goes_to_smaller_index(self):
        data = Dataset([[3.5]], [0])
        model = make_latent_model([[2.0], [5.0]], [2],
                                  membership=np.zeros(1, dtype=np.int64))
        got = assign_membership(data, model, Metric.identity(1))
        assert got.membership[0] == 0

    def test_label_purity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = make_blobs(rng, 10, rng.normal(size=(3, 2)), 1.0)
            model = init_latents(data, 30.0, seed=int(rng.integers(1000)))
            M = Metric(random_psd(rng, 2))
            got = assign_membership(data, model, M)
            assert np.array_equal(got.latent_labels[got.membership], data.labels)

    def test_metric_changes_assignment(self):
        # anisotropic metric flips the nearest latent
        data = Dataset([[2.0, 0.0]], [0])
        model = make_latent_model([[0.0, 0.0], [3.0, 2.0]], [2],
                                  membership=np.zeros(1, dtype=np.int64))
        euclid = assign_membership(data, model, Metric.identity(2))
        assert euclid.membership[0] == 0
        M = Metric(np.diag([4.0, 0.01]))
        skewed = assign_membership(data, model, M)
        assert skewed.membership[0] == 1


class TestUpdateLatents:
    def test_plain_centroid(self):
        data = Dataset([[0.0, 0.0], [2.0, 0.0]], [0, 0])
        model = make_latent_model([[5.0, 5.0]], [1],
                                  membership=np.zeros(2, dtype=np.int64))
        got = update_latents(latent._class_blocks(data, None), model, model.latents, gamma=0.0)
        np.testing.assert_allclose(got.latents[0], [1.0, 0.0])

    def test_proximal_pull(self):
        data = Dataset([[0.0, 0.0], [2.0, 0.0]], [0, 0])
        model = make_latent_model([[4.0, 0.0]], [1],
                                  membership=np.zeros(2, dtype=np.int64))
        z_prev = np.array([[4.0, 0.0]])
        got = update_latents(latent._class_blocks(data, None), model, z_prev, gamma=2.0)
        np.testing.assert_allclose(got.latents[0], [2.5, 0.0])
        # numerical minimizer of the proximal objective agrees
        oracle = numerical_latent_minimizer(
            data.features, model.membership, np.eye(2), z_prev, 2.0)
        np.testing.assert_allclose(got.latents, oracle, atol=1e-6)

    def test_empty_cluster_keeps_anchor(self):
        data = Dataset([[1.0]], [0])
        model = make_latent_model([[0.0], [7.0]], [2],
                                  membership=np.zeros(1, dtype=np.int64))
        z_prev = np.array([[0.0], [7.0]])
        for gamma in (0.0, 3.0):
            got = update_latents(latent._class_blocks(data, None), model, z_prev, gamma=gamma)
            assert got.latents[1, 0] == 7.0

    def test_negative_gamma_raises(self):
        data = Dataset([[1.0]], [0])
        model = make_latent_model([[0.0]], [1],
                                  membership=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            update_latents(latent._class_blocks(data, None), model, model.latents, gamma=-0.5)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            membership = rng.integers(0, m, size=n)
            z_prev = rng.normal(size=(m, d))
            gamma = float(rng.uniform(0.1, 3.0))
            M = random_psd(rng, d) + 0.5 * np.eye(d)
            data = Dataset(X, np.zeros(n))
            model = make_latent_model(z_prev.copy(), [m], membership=membership)
            got = update_latents(latent._class_blocks(data, None), model, z_prev, gamma=gamma)
            oracle = numerical_latent_minimizer(X, membership, M, z_prev, gamma)
            np.testing.assert_allclose(got.latents, oracle, atol=1e-6)


class TestComputeMargins:
    def test_zero_when_members_at_latent(self):
        data = Dataset([[2.0], [2.0]], [0, 0])
        model = make_latent_model([[2.0]], [1],
                                  membership=np.zeros(2, dtype=np.int64))
        got = compute_margins(data, model, Metric.identity(1))
        assert got.cluster_margins[0] == 0.0

    def test_mean_of_distances(self):
        data = Dataset([[1.0, 0.0], [-1.0, 0.0]], [0, 0])
        model = make_latent_model([[0.0, 0.0]], [1],
                                  membership=np.zeros(2, dtype=np.int64))
        got = compute_margins(data, model, Metric.identity(2))
        assert got.cluster_margins[0] == pytest.approx(1.0)

    def test_empty_cluster_zero(self):
        data = Dataset([[1.0]], [0])
        model = make_latent_model([[1.0], [9.0]], [2],
                                  membership=np.zeros(1, dtype=np.int64))
        got = compute_margins(data, model, Metric.identity(1))
        assert got.cluster_margins[1] == 0.0


class TestRunLatentStage:
    def test_single_latent_reaches_centroid(self):
        rng = np.random.default_rng(6)
        data = make_blobs(rng, 15, [[0.0, 0.0], [6.0, 6.0]], 0.5)
        cfg = TrainConfig(tau=1.0, gamma=0.0, latent_em_iters=5)
        prev = init_latents(data, cfg.tau, seed=0)
        got = run_latent_stage(data, prev, Metric.identity(2), cfg)
        for r in range(2):
            centroid = data.features[data.labels == r].mean(axis=0)
            np.testing.assert_allclose(got.latents[r], centroid, atol=1e-12)

    def test_huge_gamma_freezes_latents(self):
        rng = np.random.default_rng(7)
        data = make_blobs(rng, 10, [[0.0, 0.0], [4.0, 4.0]], 0.5)
        cfg = TrainConfig(tau=20.0, gamma=1e9, latent_em_iters=3)
        prev = init_latents(data, cfg.tau, seed=1)
        got = run_latent_stage(data, prev, Metric.identity(2), cfg)
        np.testing.assert_allclose(got.latents, prev.latents, rtol=1e-6)

    def test_refuses_model_or_metric_that_does_not_fit_the_data(self):
        rng = np.random.default_rng(5)
        three = make_blobs(rng, 10, [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], 0.5)
        two = Dataset(three.features[:20], three.labels[:20])
        wide = Dataset(rng.normal(size=(30, 3)), three.labels)
        cfg = TrainConfig(tau=20.0, latent_em_iters=2)
        model = init_latents(three, cfg.tau, seed=1)
        cases = [(two, model, Metric.identity(2), "latent model's class count is 3, "
                                                  "but the data's is 2"),
                 (wide, model, Metric.identity(3), "latent model's dimension is 2, "
                                                   "but the data's is 3"),
                 (three, model, Metric.identity(3), "metric's dimension is 3, "
                                                    "but the data's is 2")]
        for data, prev, metric, message in cases:
            with pytest.raises(ValueError, match=message):
                run_latent_stage(data, prev, metric, cfg)

    def test_surrogate_objective_non_increasing(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(30, 3)),
                       np.r_[np.zeros(15), np.ones(15)])
        M = Metric(random_psd(rng, 3) + 0.2 * np.eye(3))
        cfg = TrainConfig(tau=14.0, gamma=0.7, latent_em_iters=1)
        prev = init_latents(data, cfg.tau, seed=2)
        assert prev.m == 4
        anchor = prev.latents.copy()
        # replay the sweeps through the public ops, scoring each half-step
        model = prev
        blocks = latent._class_blocks(data, None)
        values = [surrogate_objective(data, assign_membership(data, model, M),
                                      M, anchor, cfg.gamma)]
        for _ in range(8):
            model = assign_membership(data, model, M)
            model = update_latents(blocks, model, anchor, cfg.gamma)
            values.append(surrogate_objective(data, model, M, anchor, cfg.gamma))
            reassigned = assign_membership(data, model, M)
            values.append(surrogate_objective(data, reassigned, M, anchor, cfg.gamma))
        for prev_v, next_v in zip(values, values[1:]):
            assert next_v <= prev_v * (1 + 1e-10) + 1e-12
        # per-class restriction is also monotone across whole sweeps
        for r in range(2):
            per = [surrogate_objective(data, m_, M, anchor, cfg.gamma, class_r=r)
                   for m_ in (assign_membership(data, prev, M), model)]
            assert per[1] <= per[0] * (1 + 1e-10) + 1e-12

    def test_stage_matches_manual_sweeps(self):
        rng = np.random.default_rng(9)
        data = make_blobs(rng, 12, [[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]], 0.8)
        M = Metric(random_psd(rng, 3) + 0.2 * np.eye(3))
        cfg = TrainConfig(tau=25.0, gamma=0.5, latent_em_iters=4)
        prev = init_latents(data, cfg.tau, seed=3)
        got = run_latent_stage(data, prev, M, cfg)
        model = prev
        blocks = latent._class_blocks(data, None)
        for _ in range(cfg.latent_em_iters):
            model = assign_membership(data, model, M)
            model = update_latents(blocks, model, prev.latents, cfg.gamma)
        model = assign_membership(data, model, M)
        model = compute_margins(data, model, M)
        np.testing.assert_array_equal(got.latents, model.latents)
        np.testing.assert_array_equal(got.membership, model.membership)
        # the stage's margins come from the expanded-form assignment
        # distances, compute_margins' from the differences: equal to rounding
        np.testing.assert_allclose(got.cluster_margins, model.cluster_margins,
                                   rtol=1e-9, atol=1e-12)

    def test_convex_hull_containment_gamma_zero(self):
        # with gamma=0 each latent is its members' centroid, hence inside
        # their convex hull; verify by nonnegative barycentric reconstruction
        rng = np.random.default_rng(10)
        data = make_blobs(rng, 12, [[0.0, 0.0], [5.0, 5.0]], 1.0)
        cfg = TrainConfig(tau=20.0, gamma=0.0, latent_em_iters=6)
        prev = init_latents(data, cfg.tau, seed=4)
        got = run_latent_stage(data, prev, Metric.identity(2), cfg)
        for o in range(got.m):
            members = data.features[got.membership == o]
            if members.shape[0] == 0:
                continue
            A_eq = np.vstack([members.T, np.ones(members.shape[0])])
            b_eq = np.r_[got.latents[o], 1.0]
            res = linprog(np.zeros(members.shape[0]), A_eq=A_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            assert res.success, f"latent {o} outside its members' convex hull"


def stage_instance(seed, tau, gamma, sweeps):
    """Blob data, a farthest-point init and a random positive definite metric."""
    rng = np.random.default_rng(seed)
    data = random_instance(rng)
    cfg = TrainConfig(tau=tau, gamma=gamma, latent_em_iters=sweeps)
    prev = init_latents(data, tau, seed=int(rng.integers(1000)))
    M = Metric(random_psd(rng, data.d) + 0.1 * np.eye(data.d))
    return data, cfg, prev, M


seeds = st.integers(0, 2**32 - 1)
taus = st.sampled_from([5.0, 20.0, 50.0, 100.0])
gammas = st.sampled_from([0.0, 0.5, 1e9]) | st.floats(0.01, 10.0)


class TestLatentKernelProperties:
    """The latent kernels against naive oracles and the reference forms."""

    @settings(max_examples=100)
    @given(seed=seeds, n=st.integers(1, 25), d=st.integers(1, 5), data=st.data())
    def test_farthest_points_match_greedy_oracle(self, seed, n, d, data):
        X = np.random.default_rng(seed).normal(0.0, 3.0, size=(n, d))
        k = data.draw(st.integers(1, n))
        first = int(np.random.default_rng(seed).integers(n))
        want, lead = oracle_farthest_points(X, first, k)
        # tie-free: every pick leads its runner-up by far more than rounding
        assume(lead > 1e-8 * (1.0 + np.einsum("ij,ij->i", X, X).max()))
        got = latent._farthest_point_indices(X, k, np.random.default_rng(seed))
        assert got.tolist() == want

    @settings(max_examples=60)
    @given(seed=seeds, tau=taus, gamma=gammas, sweeps=st.integers(1, 4))
    def test_stage_margins_match_compute_margins(self, seed, tau, gamma, sweeps):
        data, cfg, prev, M = stage_instance(seed, tau, gamma, sweeps)
        got = run_latent_stage(data, prev, M, cfg)
        ref = compute_margins(data, assign_membership(data, got, M), M)
        np.testing.assert_array_equal(got.membership, ref.membership)
        np.testing.assert_allclose(got.cluster_margins, ref.cluster_margins,
                                   rtol=1e-9, atol=1e-10)

    @settings(max_examples=100)
    @given(seed=seeds, n=st.integers(1, 30), d=st.integers(1, 4),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3), gamma=gammas)
    def test_update_matches_naive_mean(self, seed, n, d, sizes, gamma):
        rng = np.random.default_rng(seed)
        m = sum(sizes)
        # members of at most half of each class's latents: empty clusters
        # are common
        chosen = [lo + rng.choice(s, size=max(1, s // 2), replace=False)
                  for lo, s in zip(np.cumsum([0, *sizes[:-1]]), sizes)]
        pool = np.concatenate(chosen)
        # one row of each class first: every class of a Dataset has rows
        membership = np.r_[[c[0] for c in chosen], pool[rng.integers(0, pool.size, size=n)]]
        X = rng.normal(size=(membership.size, d))
        z_prev = rng.normal(size=(m, d))
        model = make_latent_model(rng.normal(size=(m, d)), sizes, membership=membership)
        # each row's class is its latent's, as the latent stage assigns it
        data = Dataset(X, model.latent_labels[membership])
        got = update_latents(latent._class_blocks(data, None), model, z_prev, gamma)
        want = oracle_latent_update(X, membership, z_prev, gamma)
        np.testing.assert_allclose(got.latents, want, rtol=1e-12, atol=1e-14)

    @settings(max_examples=40)
    @given(seed=seeds, tau=taus, gamma=gammas, sweeps=st.integers(1, 3))
    def test_identity_path_bitwise_equals_generic(self, seed, tau, gamma, sweeps):
        data, cfg, prev, _ = stage_instance(seed, tau, gamma, sweeps)
        identity = Metric.identity(data.d)

        def outputs():
            stage = run_latent_stage(data, prev, identity, cfg)
            assigned = assign_membership(data, prev, identity)
            return [stage.latents, stage.membership, stage.cluster_margins,
                    assigned.membership,
                    compute_margins(data, assigned, identity).cluster_margins,
                    init_latents(data, tau, seed=seed % 1000).cluster_margins]

        fast = outputs()
        with mock.patch.object(latent, "_metric_or_none", lambda metric: metric.matrix):
            generic = outputs()
        for a, b in zip(fast, generic):
            np.testing.assert_array_equal(a, b)

    def test_stage_never_calls_compute_margins(self, monkeypatch):
        data, cfg, prev, M = stage_instance(3, 20.0, 0.5, 3)

        def refuse(*args):
            raise AssertionError("run_latent_stage called compute_margins")

        monkeypatch.setattr(latent, "compute_margins", refuse)
        for metric in (M, Metric.identity(data.d)):
            got = run_latent_stage(data, prev, metric, cfg)
            assert got.m == prev.m


def shuffled_blobs(seed, centers, sigma):
    """Blob data with its rows shuffled, so class rows are gathered, not sliced."""
    rng = np.random.default_rng(seed)
    data = make_blobs(rng, 25, centers, sigma)
    perm = rng.permutation(data.n)
    return Dataset(data.features[perm], data.labels[perm])


def replay_stage(data, prev, metric, cfg):
    """``run_latent_stage`` replayed with every sweep's assignment made afresh."""
    blocks = latent._class_blocks(data, latent._metric_or_none(metric))
    model = prev.replace()  # a copy that forgets how prev's membership was made
    for _ in range(cfg.latent_em_iters):
        model = update_latents(blocks, latent._assign(model, blocks), prev.latents, cfg.gamma)
    return latent._assign(model, blocks)


def assert_same_bytes(got, want):
    for name in ("latents", "latent_labels", "membership", "cluster_margins",
                 "per_class_counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def count_assignments(monkeypatch):
    calls = []
    real = latent._assign

    def spy(model, blocks):
        calls.append(blocks.M)
        return real(model, blocks)

    monkeypatch.setattr(latent, "_assign", spy)
    return calls


class TestStageReusesAssignment:
    """A stage takes an incoming membership made on its latents under its metric."""

    @pytest.mark.parametrize("seed", range(3))
    def test_stage_one_after_init(self, seed, monkeypatch):
        data = shuffled_blobs(seed, [[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 2.0, 2.0]], 0.9)
        cfg = TrainConfig(tau=20.0, gamma=0.5, latent_em_iters=3)
        prev = init_latents(data, cfg.tau, seed=seed)
        identity = Metric.identity(data.d)
        want = replay_stage(data, prev, identity, cfg)
        calls = count_assignments(monkeypatch)
        got = run_latent_stage(data, prev, identity, cfg)
        # sweeps 2 and 3 and the final step assign; sweep 1 takes init's
        assert len(calls) == cfg.latent_em_iters
        assert_same_bytes(got, want)

    def test_equal_metric_after_empty_active_set(self, monkeypatch):
        rng = np.random.default_rng(11)
        data = shuffled_blobs(11, [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]], 0.5)
        cfg = TrainConfig(tau=20.0, gamma=0.5, latent_em_iters=3, inner_iters=100)
        M = Metric(random_psd(rng, 2) + 0.5 * np.eye(2))
        model = run_latent_stage(data, init_latents(data, cfg.tau, seed=1), M, cfg)
        metric, counts = run_metric_stage(model, M, cfg, seed=cfg.rng_seed)
        assert counts["active_set_size"] == 0
        # the stage returns a new Metric holding the same matrix
        assert metric.matrix is not M.matrix
        np.testing.assert_array_equal(metric.matrix, M.matrix)
        want = replay_stage(data, model, metric, cfg)
        calls = count_assignments(monkeypatch)
        got = run_latent_stage(data, model, metric, cfg)
        assert len(calls) == cfg.latent_em_iters
        assert_same_bytes(got, want)
        # another metric, or another Dataset object, assigns in every sweep
        for args in ((data, model, Metric(2.0 * M.matrix), cfg),
                     (Dataset(data.features, data.labels), model, metric, cfg)):
            calls.clear()
            again = run_latent_stage(*args)
            assert len(calls) == cfg.latent_em_iters + 1
        assert_same_bytes(again, got)
