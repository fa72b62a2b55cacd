import time
from unittest import mock

import numpy as np
import pytest

from mapml import Dataset, Metric, SyntheticSpec, TrainConfig, core, driver, evaluate, \
    generate_synthetic, init_latents, run_latent_stage, train_mapml, \
    train_random_triplet_baseline
from mapml import metric as metric_module
from mapml.core import full_loss_all
from mapml.latent import compute_margins
from mapml.metric import run_metric_stage

from conftest import assign_membership, make_blobs, random_instance


def trace_non_increasing(trace, rtol=1e-6):
    return all(b <= a + rtol * abs(a) for a, b in zip(trace, trace[1:]))


class TestTrainMapml:
    def test_k0_returns_identity_and_init(self):
        rng = np.random.default_rng(0)
        data = make_blobs(rng, 10, [[0.0, 0.0], [4.0, 4.0]], 0.5)
        cfg = TrainConfig(tau=20.0, outer_iters=0, rng_seed=5)
        res = train_mapml(data, cfg)
        np.testing.assert_allclose(res.metric.matrix, np.eye(2), atol=1e-12)
        assert res.loss_trace.shape == (1,)
        assert res.history == []

    def test_separable_blobs_beat_euclidean(self):
        rng = np.random.default_rng(1)
        centers = [[0.0, 0.0], [2.6, 0.5]]
        train = make_blobs(rng, 30, centers, 0.9)
        test = make_blobs(rng, 25, centers, 0.9)
        cfg = TrainConfig(tau=10.0, outer_iters=5, inner_iters=2000,
                          lam=10.0, delta=10.0, gamma=0.5, rng_seed=7)
        res = train_mapml(train, cfg)
        assert trace_non_increasing(res.loss_trace)
        learned = evaluate(test, train.features, train.labels, res.metric, k=3)
        euclid = evaluate(test, train.features, train.labels,
                          Metric.identity(2), k=3)
        assert learned.error_rate <= euclid.error_rate

    def test_point_classes_reach_zero_loss(self):
        # every class collapsed to one point, separation > 1: margins are 0
        # and all latent distances exceed the unit margin, so loss is 0
        feats = np.array([[0.0, 0.0]] * 6 + [[2.0, 0.0]] * 6)
        labels = np.array([0] * 6 + [1] * 6)
        data = Dataset(feats, labels)
        cfg = TrainConfig(tau=34.0, outer_iters=2, inner_iters=100, rng_seed=0)
        res = train_mapml(data, cfg)
        assert res.latent_model.per_class_counts.tolist() == [2, 2]
        np.testing.assert_allclose(res.loss_trace, 0.0, atol=1e-12)

    def test_monotone_on_random_instances(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            data = random_instance(rng)
            cfg = TrainConfig(tau=15.0, outer_iters=6, inner_iters=1000,
                              lam=1.0, delta=10.0, rng_seed=seed)
            res = train_mapml(data, cfg)
            assert trace_non_increasing(res.loss_trace), res.loss_trace
            assert res.metric.min_eigenvalue() >= -1e-9  # finalized

    def test_half_inequalities_hold_in_debug(self):
        # replay the run stage by stage: the latent stage does not raise the
        # loss under the old metric (from the previous model's margins
        # re-taken under it), and the metric stage does not raise it under
        # the new model's margins
        rng = np.random.default_rng(3)
        data = random_instance(rng)
        cfg = TrainConfig(tau=15.0, outer_iters=5, inner_iters=1000, rng_seed=1)
        seeds = driver._seed_streams(cfg.rng_seed, 1 + cfg.outer_iters)
        metric = Metric.identity(data.d)
        model = init_latents(data, cfg.tau, seeds[0])
        losses = [full_loss_all(metric, model)]
        for k in range(1, cfg.outer_iters + 1):
            before = full_loss_all(metric, compute_margins(
                data, assign_membership(data, model, metric), metric))
            model = run_latent_stage(data, model, metric, cfg)
            mid = full_loss_all(metric, model)
            metric, _ = run_metric_stage(model, metric, cfg, seed=seeds[k])
            losses.append(full_loss_all(metric, model))
            rtol = driver.MONOTONE_RTOL
            assert mid <= before + rtol * abs(before), k
            assert losses[k] <= mid + rtol * abs(mid), k
            assert losses[k] <= losses[k - 1] + rtol * abs(losses[k - 1]), k
        assert np.asarray(losses).tobytes() == train_mapml(data, cfg).loss_trace.tobytes()

    def test_loss_trace_margins_use_previous_metric(self):
        # the recorded loss must equal full_loss_all under the new metric
        # with the latent model's stage-exit margins (computed under the
        # previous metric)
        rng = np.random.default_rng(4)
        data = random_instance(rng)
        cfg = TrainConfig(tau=15.0, outer_iters=3, inner_iters=500, rng_seed=2)
        res = train_mapml(data, cfg)
        assert res.loss_trace[-1] == pytest.approx(
            full_loss_all(res.metric, res.latent_model), rel=1e-12, abs=1e-12)

    def test_reproducible_bitwise(self):
        rng = np.random.default_rng(5)
        data = random_instance(rng)
        cfg = TrainConfig(tau=20.0, outer_iters=4, inner_iters=600, rng_seed=11)
        a = train_mapml(data, cfg)
        b = train_mapml(data, cfg)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
        np.testing.assert_array_equal(a.metric.matrix, b.metric.matrix)
        np.testing.assert_array_equal(a.latent_model.latents, b.latent_model.latents)

    def test_log_sink_records(self):
        rng = np.random.default_rng(6)
        data = random_instance(rng)
        cfg = TrainConfig(tau=15.0, outer_iters=4, inner_iters=200, rng_seed=3)
        records = []
        res = train_mapml(data, cfg, log_sink=records.append)
        # the sink sees the very dicts of the history, in order
        assert len(records) == len(res.history)
        assert all(r is h for r, h in zip(records, res.history))
        assert [r["k"] for r in res.history] == [1, 2, 3, 4]
        assert [r["loss"] for r in res.history] == res.loss_trace[1:].tolist()
        for r in res.history:
            assert set(r) == {"k", "loss", "active_set_size", "latent_seconds",
                              "metric_seconds", "loss_seconds", "active_set_seconds",
                              "active_steps", "ball_clips"}
            if r["active_set_size"] == 0:
                assert r["active_steps"] == r["ball_clips"] == 0

    def test_history_counts_sgd_steps(self):
        # overlapping classes keep the active set non-empty, so SGD runs
        rng = np.random.default_rng(13)
        data = make_blobs(rng, 15, [[0.0, 0.0], [0.5, 0.5]], 0.8)
        cfg = TrainConfig(tau=20.0, outer_iters=2, inner_iters=200, delta=1.0, rng_seed=3)
        res = train_mapml(data, cfg)
        assert len(res.history) == 2
        for r in res.history:
            assert r["active_set_size"] > 0
            assert 0 < r["active_steps"] <= cfg.inner_iters
            assert 0 <= r["ball_clips"] <= cfg.inner_iters

    def test_non_finite_loss_raises(self):
        feats = np.array([[0.0, 0.0]] * 4 + [[1e200, 1e200]] * 4)
        data = Dataset(feats, [0] * 4 + [1] * 4)
        cfg = TrainConfig(tau=50.0, outer_iters=1, inner_iters=100)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                train_mapml(data, cfg)

    def test_history_times_recorded(self):
        rng = np.random.default_rng(7)
        data = random_instance(rng)
        cfg = TrainConfig(tau=15.0, outer_iters=3, inner_iters=200, rng_seed=4)
        res = train_mapml(data, cfg)
        assert len(res.history) == 3
        for r in res.history:
            assert r["latent_seconds"] >= 0
            assert r["metric_seconds"] >= r["active_set_seconds"] >= 0
            assert r["loss_seconds"] > 0


class TestFewLatentsWideData:
    """m - 1 < d: both metric stages run the SGD in the span of the latent differences."""

    def train(self):
        data, _ = generate_synthetic(SyntheticSpec(
            n_classes=3, latents_per_class=4, dim=60, noise_sigma=0.3,
            samples_per_latent=25, seed=3))
        cfg = TrainConfig(tau=4.0, outer_iters=2, inner_iters=600, lam=1.0,
                          delta=20.0, rng_seed=1)
        return train_mapml(data, cfg)

    def test_equals_full_path(self):
        difference_basis = metric_module._difference_basis
        bases = []

        def spy(points, S):
            bases.append(difference_basis(points, S))
            return bases[-1]

        with mock.patch.object(metric_module, "_difference_basis", spy):
            reduced = self.train()
        assert reduced.latent_model.m == 12
        assert [Q.shape for Q in bases] == [(60, 11)] * 2
        assert all(r["active_steps"] > 0 for r in reduced.history)
        with mock.patch.object(metric_module, "_difference_basis", lambda points, S: None):
            full = self.train()
        np.testing.assert_allclose(reduced.loss_trace, full.loss_trace, rtol=1e-12, atol=0)
        rel = (np.linalg.norm(reduced.metric.matrix - full.metric.matrix)
               / np.linalg.norm(full.metric.matrix))
        assert rel <= 1e-12, rel

    def test_bitwise_reproducible(self):
        first, second = self.train(), self.train()
        np.testing.assert_array_equal(first.loss_trace, second.loss_trace)
        np.testing.assert_array_equal(first.metric.matrix, second.metric.matrix)
        np.testing.assert_array_equal(first.latent_model.latents, second.latent_model.latents)


class TestIdentityShortcuts:
    # d = 300, m = 30 runs the SGD in the difference basis; d = 16, m = 100 in d-space
    @pytest.mark.parametrize("n_classes, latents_per_class, dim", [(3, 10, 300), (4, 25, 16)])
    def test_train_equals_a_run_without_them(self, n_classes, latents_per_class, dim):
        """Every shortcut taken at an exact identity (core's distance matrix,
        latent's sweeps, the SGD kernel and its r x r certificate) reads
        ``core.is_identity``; switched off there, a run gives equal outputs."""
        data, _ = generate_synthetic(SyntheticSpec(
            n_classes=n_classes, latents_per_class=latents_per_class, dim=dim,
            noise_sigma=0.5, samples_per_latent=10, seed=5))
        cfg = TrainConfig(tau=10.0, outer_iters=2, inner_iters=400, lam=1.0, delta=20.0,
                          rng_seed=1)
        fast = train_mapml(data, cfg)
        with mock.patch.object(core, "is_identity", lambda matrix: False):
            slow = train_mapml(data, cfg)
        assert fast.latent_model.m == n_classes * latents_per_class
        for name in ("latents", "membership", "cluster_margins"):
            np.testing.assert_array_equal(getattr(fast.latent_model, name),
                                          getattr(slow.latent_model, name))
        np.testing.assert_array_equal(fast.metric.matrix, slow.metric.matrix)
        np.testing.assert_array_equal(fast.loss_trace, slow.loss_trace)


class TestRandomTripletBaseline:
    def test_zero_steps_identity(self):
        rng = np.random.default_rng(8)
        data = make_blobs(rng, 5, [[0.0], [3.0]], 0.3)
        cfg = TrainConfig(inner_iters=0)
        res = train_random_triplet_baseline(data, cfg)
        np.testing.assert_array_equal(res.metric.matrix, np.eye(1))
        assert res.loss_trace.size == 0
        assert [(r["active_steps"], r["ball_clips"]) for r in res.history] == [(0, 0)]

    def test_one_record(self):
        # no latent objective: loss is None and loss_trace stays empty; the
        # record's metric_seconds is the training time
        rng = np.random.default_rng(14)
        data = make_blobs(rng, 8, [[0.0, 0.0], [1.0, 1.0]], 0.8)
        cfg = TrainConfig(inner_iters=200, rng_seed=1)
        t0 = time.perf_counter()
        res = train_random_triplet_baseline(data, cfg)
        elapsed = time.perf_counter() - t0
        [r] = res.history
        assert r["k"] == 1 and r["loss"] is None
        assert 0 < r["metric_seconds"] <= elapsed
        assert r["latent_seconds"] == r["active_set_seconds"] == r["loss_seconds"] == 0.0
        assert 0 < r["active_steps"] <= cfg.inner_iters
        assert res.loss_trace.size == 0

    def test_trivial_latent_model(self):
        rng = np.random.default_rng(9)
        data = make_blobs(rng, 6, [[0.0, 1.0], [3.0, -1.0]], 0.4)
        cfg = TrainConfig(inner_iters=50)
        res = train_random_triplet_baseline(data, cfg)
        lm = res.latent_model
        assert lm.m == data.n
        np.testing.assert_allclose(lm.cluster_margins, 0.0)
        # each point is its own latent
        np.testing.assert_array_equal(lm.latents[lm.membership], data.features)
        np.testing.assert_array_equal(lm.latent_labels[lm.membership], data.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        data = make_blobs(rng, 8, [[0.0, 0.0], [2.0, 2.0]], 0.6)
        cfg = TrainConfig(inner_iters=400, rng_seed=13)
        a = train_random_triplet_baseline(data, cfg)
        b = train_random_triplet_baseline(data, cfg)
        np.testing.assert_array_equal(a.metric.matrix, b.metric.matrix)

    def test_small_class_rejected(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        cfg = TrainConfig(inner_iters=10)
        with pytest.raises(ValueError, match="fewer than 2"):
            train_random_triplet_baseline(data, cfg)

    def test_one_class_rejected(self):
        data = Dataset([[0.0], [1.0], [2.0]], [4, 4, 4])
        cfg = TrainConfig(inner_iters=10)
        with pytest.raises(ValueError, match="at least 2 classes, got 1"):
            train_random_triplet_baseline(data, cfg)

    def test_output_contracts(self):
        rng = np.random.default_rng(11)
        data = make_blobs(rng, 10, [[0.0, 0.0], [1.0, 1.0]], 0.8)
        cfg = TrainConfig(inner_iters=500, delta=3.0, rng_seed=2)
        res = train_random_triplet_baseline(data, cfg)
        assert np.linalg.norm(res.metric.matrix) <= cfg.delta + 1e-9
        assert res.metric.min_eigenvalue() >= -1e-9


class TestInitConsistency:
    def test_initial_loss_matches_init_latents(self):
        # loss_trace[0] is the universe loss of the freshly initialized model
        rng = np.random.default_rng(12)
        data = random_instance(rng)
        cfg = TrainConfig(tau=20.0, outer_iters=0, rng_seed=21)
        res = train_mapml(data, cfg)
        seeds = np.random.SeedSequence(cfg.rng_seed).spawn(1)
        model = init_latents(data, cfg.tau, int(seeds[0].generate_state(1)[0]))
        assert res.loss_trace[0] == pytest.approx(
            full_loss_all(Metric.identity(data.d), model), rel=1e-12)
