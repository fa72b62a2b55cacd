"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The desk-scale criteria run against a seeded MNIST subset when the IDX
files are available (tests/data or $MAPML_DATA_DIR) and always against a
same-scale synthetic surrogate with the identical protocol, so the full
pipeline is exercised either way. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import contextlib
import csv
import logging
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import mapml.cli
from mapml import (Dataset, Metric, SyntheticSpec, TrainConfig, evaluate,
                   generate_synthetic, latent, metric, train_mapml,
                   train_random_triplet_baseline)
from mapml.core import full_loss_all
from mapml.metric import build_active_set, proximal_hinge_sgd, psd_project

from conftest import (build_desk_surrogate, make_latent_model,
                      oracle_active_triplets, oracle_full_loss,
                      random_instance, random_psd, random_symmetric)
from test_latent import numerical_latent_minimizer
from test_metric import fd_gradient, triplet_term


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:>2} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:>2} {name}: PASS")


def non_increasing(trace, rtol=1e-6):
    return all(b <= a + rtol * abs(a) for a, b in zip(trace, trace[1:]))


def desk_config(seed, outer_iters=10, inner_iters=4000):
    return TrainConfig(tau=10.0, gamma=1.0, lam=10.0, delta=30.0,
                       outer_iters=outer_iters, inner_iters=inner_iters,
                       latent_em_iters=5, rng_seed=seed)


def mnist_config(seed, outer_iters=10, inner_iters=2000):
    # delta must admit the identity start (||I_784||_F = 28)
    return TrainConfig(tau=10.0, gamma=1.0, lam=10.0, delta=100.0,
                       outer_iters=outer_iters, inner_iters=inner_iters,
                       latent_em_iters=5, rng_seed=seed)


@pytest.fixture(autouse=True)
def _quiet_driver_warnings(caplog):
    caplog.set_level(logging.ERROR, logger="mapml.driver")
    yield


class TestCriterion1Monotonicity:
    def test_random_instances(self):
        with criterion(1, "loss trace non-increasing (50 random instances)"):
            t0 = time.time()
            for seed in range(50):
                rng = np.random.default_rng(1000 + seed)
                data = random_instance(rng, n_lo=60, n_hi=200, d_lo=2, d_hi=10,
                                       c_lo=2, c_hi=5)
                cfg = TrainConfig(tau=10.0, outer_iters=10, inner_iters=2000,
                                  lam=10.0, delta=10.0, gamma=1.0, rng_seed=seed)
                res = train_mapml(data, cfg)
                assert non_increasing(res.loss_trace), \
                    f"seed {seed}: {res.loss_trace}"
            assert time.time() - t0 <= 300.0

    def test_desk_scale_surrogate(self, desk_surrogate):
        with criterion(1, "loss trace non-increasing (10k desk surrogate)"):
            train, _ = desk_surrogate
            t0 = time.time()
            res = train_mapml(train, desk_config(seed=0))
            assert non_increasing(res.loss_trace), res.loss_trace
            assert time.time() - t0 <= 300.0

    def test_mnist_subset(self, mnist_subset):
        with criterion(1, "loss trace non-increasing (10k MNIST subset)"):
            train, _ = mnist_subset
            t0 = time.time()
            res = train_mapml(train, mnist_config(seed=0))
            assert non_increasing(res.loss_trace), res.loss_trace
            assert time.time() - t0 <= 300.0


class TestCriterion2LatentOptimality:
    def test_closed_form_matches_numerical_minimizer(self):
        with criterion(2, "closed-form latent update optimal (100 instances)"):
            rng = np.random.default_rng(2)
            for _ in range(100):
                n = int(rng.integers(4, 25))
                d = int(rng.integers(1, 5))
                m = int(rng.integers(1, 5))
                X = rng.normal(size=(n, d))
                membership = rng.integers(0, m, size=n)
                z_prev = rng.normal(size=(m, d))
                gamma = float(rng.uniform(0.05, 4.0))
                A = rng.normal(size=(d, d))
                M = A @ A.T / d + 0.3 * np.eye(d)
                data = Dataset(X, np.zeros(n))
                model = make_latent_model(z_prev.copy(), [m], membership=membership)
                got = latent.update_latents(latent._class_blocks(data, None), model,
                                            z_prev, gamma=gamma)
                want = numerical_latent_minimizer(X, membership, M, z_prev, gamma)
                assert np.abs(got.latents - want).max() <= 1e-6


def hinge_arg(M, z, t, margin):
    u = z[t[0]] - z[t[1]]
    v = z[t[0]] - z[t[2]]
    return 1.0 + margin - (v @ M @ v - u @ M @ u)


def two_step_instance(rng, d, margin_gap=0.3):
    """Four latents in two classes, margins, M_prev, lam and two SGD steps.

    Step 1's triplet, anchored at latent 0, is active under M_prev, so the
    first iterate is M_1 = M_prev - (u u^T - v v^T) / lam. Step 2's,
    anchored at latent 1, is another triplet: repeating step 1's would make
    the subgradient at M_1 exactly zero. Finite differences are valid only
    away from the hinge kink, so both hinge arguments (step 2's under M_1)
    are drawn at least ``margin_gap`` from zero. Returns the two triplets,
    M_1 and step 2's argument with the rest.
    """
    while True:
        z = rng.normal(size=(4, d))
        margins = rng.uniform(0.0, 1.0, size=4)
        Mp = random_symmetric(rng, d)
        lam = float(rng.uniform(0.2, 3.0))
        steps = np.array([(0, 1, rng.integers(2, 4)), (1, 0, rng.integers(2, 4))])
        u = z[0] - z[1]
        v = z[0] - z[steps[0, 2]]
        M1 = Mp - (np.outer(u, u) - np.outer(v, v)) / lam
        arg = hinge_arg(M1, z, steps[1], margins[1])
        if hinge_arg(Mp, z, steps[0], margins[0]) > margin_gap and abs(arg) > margin_gap:
            return z, margins, Mp, lam, steps, M1, arg


class TestCriterion3GradientCorrectness:
    def test_subgradient_matches_finite_differences(self):
        # The kernel's step 2 is M_2 = M_1 - g / (2 lam), and with S = 2 its
        # output is M_2 alone, so g = 2 lam (M_1 - output) is the subgradient
        # it applied at M_1: the proximal part plus step 2's hinge if active.
        with criterion(3, "SGD kernel's subgradient matches finite differences"):
            rng = np.random.default_rng(3)
            for _ in range(100):
                d = int(rng.integers(2, 5))
                z, margins, Mp, lam, steps, M1, arg = two_step_instance(rng, d)
                out, active_steps, ball_clips, _ = proximal_hinge_sgd(
                    z, steps, margins, Mp, lam, delta=1e6)
                assert ball_clips == 0
                assert active_steps == 1 + (arg > 0)
                got = 2.0 * lam * (M1 - out)
                fun = lambda A: triplet_term(A, Mp, z, steps[1], margins[1], lam)
                want = fd_gradient(fun, M1.copy(), step=1e-5)
                rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-8)
                assert rel <= 1e-4


class TestCriterion4BruteForceEquivalence:
    def test_loss_and_active_set_match_oracles(self):
        with criterion(4, "loss and active set match exhaustive oracles (500 cases)"):
            rng = np.random.default_rng(4)
            for _ in range(500):
                m = int(rng.integers(2, 9))
                d = int(rng.integers(1, 4))
                c = int(rng.integers(2, min(m, 3) + 1))
                counts = np.full(c, m // c)
                counts[: m % c] += 1
                z = rng.normal(size=(m, d))
                margins = rng.uniform(0, 1.5, size=m)
                model = make_latent_model(z, counts, margins=margins)
                metric = Metric(random_symmetric(rng, d))
                want_loss = oracle_full_loss(metric.matrix, z,
                                             model.latent_labels, margins)
                got_loss = full_loss_all(metric, model)
                assert got_loss == pytest.approx(want_loss, rel=1e-9, abs=1e-9)
                triplets = build_active_set(model, metric, cap=100_000, seed=0)
                want_active = oracle_active_triplets(metric.matrix, z,
                                                     model.latent_labels, margins)
                assert [tuple(r) for r in triplets] == want_active


class TestCriterion5ProjectionContracts:
    def test_frobenius_and_psd_contracts(self):
        # the norm bound on the SGD kernel's output, which the ball clips,
        # in d-space and in the basis of the latent differences; PSD and
        # idempotence on the terminal projection
        with criterion(5, "projection contracts (norm bound, PSD, idempotent)"):
            rng = np.random.default_rng(5)
            clipped = clipped_in_basis = 0
            for _ in range(200):
                d = int(rng.integers(1, 9))
                n = int(rng.integers(2, 13))
                S = 2 * int(rng.integers(1, 41))
                points = rng.normal(size=(n, d))
                steps = rng.integers(0, n, size=(S, 3))
                margins = rng.uniform(0.0, 2.0, size=n)
                delta = float(rng.uniform(0.2, 5.0))
                lam = float(rng.uniform(0.05, 2.0))
                out, _, ball_clips, _ = proximal_hinge_sgd(points, steps, margins,
                                                           random_psd(rng, d), lam, delta)
                assert np.linalg.norm(out) <= delta * (1 + 1e-12)
                if ball_clips:
                    clipped += 1
                    clipped_in_basis += metric._difference_basis(points, S) is not None
                sym = random_symmetric(rng, d, scale=5.0)
                proj = psd_project(sym)
                assert proj.min_eigenvalue() >= -1e-9
                twice = psd_project(proj.matrix)
                assert np.abs(twice.matrix - proj.matrix).max() <= 1e-10
            # the bound is checked where the ball acts, on both paths
            assert clipped >= 100 and clipped_in_basis >= 20, (clipped, clipped_in_basis)


class TestCriterion6GenerativeRecovery:
    def test_latents_recovered_and_knn_accurate(self):
        with criterion(6, "generative-model recovery (latents within 0.05, err <= 1%)"):
            t0 = time.time()
            # well-separated true latents: classes in opposite corners,
            # within-class latents spread along distinct axes
            rng = np.random.default_rng(6)
            base = np.array([
                [0.15, 0.2, 0.2, 0.2, 0.2],
                [0.5, 0.15, 0.3, 0.2, 0.25],
                [0.25, 0.5, 0.2, 0.45, 0.2],
                [0.8, 0.85, 0.8, 0.75, 0.8],
                [0.5, 0.8, 0.7, 0.85, 0.75],
                [0.8, 0.5, 0.75, 0.7, 0.85],
            ])
            spec = SyntheticSpec(n_classes=2, latents_per_class=3, dim=5,
                                 noise_sigma=0.05, samples_per_latent=100,
                                 seed=60, true_latents=base)
            train, truth = generate_synthetic(spec)
            test_spec = SyntheticSpec(n_classes=2, latents_per_class=3, dim=5,
                                      noise_sigma=0.05, samples_per_latent=40,
                                      seed=61, true_latents=base)
            test, _ = generate_synthetic(test_spec)
            cfg = TrainConfig(tau=1.0, gamma=0.5, lam=10.0, delta=20.0,
                              outer_iters=5, inner_iters=2000,
                              latent_em_iters=10, rng_seed=3)
            res = train_mapml(train, cfg)
            lm = res.latent_model
            assert lm.m == 6
            # optimal matching within each class
            for r in range(2):
                got = lm.latents[lm.latent_labels == r]
                want = truth.latents[truth.latent_labels == r]
                cost = np.linalg.norm(got[:, None] - want[None], axis=2)
                rows, cols = linear_sum_assignment(cost)
                assert np.abs(got[rows] - want[cols]).max() <= 0.05
            report = evaluate(test, lm.latents, lm.latent_labels, res.metric, k=3)
            assert report.error_rate <= 0.01
            assert time.time() - t0 <= 60.0


def _efficacy_trial(train, test, cfg):
    res = train_mapml(train, cfg)
    lat = evaluate(test, res.latent_model.latents, res.latent_model.latent_labels,
                   res.metric, k=3, reference_mode="latent",
                   refs_label_names=train.label_names)
    orig = evaluate(test, train.features, train.labels, res.metric, k=3,
                    refs_label_names=train.label_names)
    return lat.error_rate, orig.error_rate


def _efficacy_suite(train, test, make_cfg, n_trials=5):
    euclid = evaluate(test, train.features, train.labels,
                      Metric.identity(train.d), k=3,
                      refs_label_names=train.label_names).error_rate
    seeds = [int(s) for s in np.random.SeedSequence(99).generate_state(n_trials)]
    lat_errs, orig_errs = [], []
    for seed in seeds:
        lat, orig = _efficacy_trial(train, test, make_cfg(seed))
        lat_errs.append(lat)
        orig_errs.append(orig)
    return euclid, float(np.mean(lat_errs)), float(np.mean(orig_errs))


class TestCriterion7DeskScaleEfficacy:
    def test_desk_scale_surrogate(self, desk_surrogate):
        with criterion(7, "desk-scale efficacy vs Euclidean (surrogate, 5 trials)"):
            t0 = time.time()
            train, test = desk_surrogate
            euclid, lat, orig = _efficacy_suite(
                train, test, lambda s: desk_config(s, outer_iters=10))
            print(f"\n  euclid={euclid:.4f} mapml_latent={lat:.4f} "
                  f"mapml_original={orig:.4f}")
            assert lat < euclid
            assert orig < euclid
            assert time.time() - t0 <= 900.0

    def test_mnist_subset(self, mnist_subset):
        with criterion(7, "desk-scale efficacy vs Euclidean (MNIST, 5 trials)"):
            t0 = time.time()
            train, test = mnist_subset
            euclid, lat, orig = _efficacy_suite(
                train, test, lambda s: mnist_config(s, outer_iters=5))
            print(f"\n  euclid={euclid:.4f} mapml_latent={lat:.4f} "
                  f"mapml_original={orig:.4f}")
            assert lat < euclid
            assert orig < euclid
            assert time.time() - t0 <= 900.0


def _noise_trend(train, test, make_cfg, sigmas, n_trials=5):
    from mapml import add_gaussian_noise

    seeds = [int(s) for s in np.random.SeedSequence(88).generate_state(n_trials)]
    out = {}
    for sigma in sigmas:
        mapml_errs, base_errs = [], []
        for seed in seeds:
            noisy = add_gaussian_noise(train, sigma, seed=seed + 1)
            cfg = make_cfg(seed)
            res = train_mapml(noisy, cfg)
            mapml_errs.append(evaluate(
                test, res.latent_model.latents, res.latent_model.latent_labels,
                res.metric, k=3, refs_label_names=noisy.label_names).error_rate)
            base = train_random_triplet_baseline(noisy, cfg)
            base_errs.append(evaluate(
                test, noisy.features, noisy.labels, base.metric, k=3,
                refs_label_names=noisy.label_names).error_rate)
        out[sigma] = (float(np.mean(mapml_errs)), float(np.mean(base_errs)))
    return out


class TestCriterion8NoiseRobustness:
    SIGMAS = (50.0 / 255.0, 250.0 / 255.0)

    def _assert_trend(self, results):
        lo, hi = self.SIGMAS
        mapml_lo, base_lo = results[lo]
        mapml_hi, base_hi = results[hi]
        print(f"\n  sigma={lo:.3f}: mapml={mapml_lo:.4f} baseline={base_lo:.4f}"
              f"\n  sigma={hi:.3f}: mapml={mapml_hi:.4f} baseline={base_hi:.4f}")
        assert mapml_hi < base_hi
        assert (mapml_hi - mapml_lo) < (base_hi - base_lo)

    def test_desk_scale_surrogate(self, desk_surrogate):
        with criterion(8, "noise robustness trend (surrogate, 5 trials)"):
            train, test = desk_surrogate
            results = _noise_trend(train, test,
                                   lambda s: desk_config(s, outer_iters=5),
                                   self.SIGMAS)
            self._assert_trend(results)

    def test_mnist_subset(self, mnist_subset):
        with criterion(8, "noise robustness trend (MNIST, 5 trials)"):
            train, test = mnist_subset
            results = _noise_trend(train, test,
                                   lambda s: mnist_config(s, outer_iters=5),
                                   self.SIGMAS)
            self._assert_trend(results)


@pytest.fixture(scope="module")
def surrogate_csv(tmp_path_factory):
    train, _ = build_desk_surrogate()
    path = tmp_path_factory.mktemp("bench") / "train.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"f{j}" for j in range(train.d)] + ["label"])
        original = train.label_names[train.labels]
        for i in range(train.n):
            w.writerow([repr(float(v)) for v in train.features[i]]
                       + [int(original[i])])
    return str(path)


class TestCriterion9ComplexityScaling:
    def test_bench_logs_show_subquadratic_latent_and_cubic_active(
            self, surrogate_csv, tmp_path, capsys):
        # each tau's stage times are the median of three bench runs, so one
        # run slowed by other load on the machine does not decide a ratio
        with criterion(9, "stage-cost scaling over an m-doubling tau sweep"):
            runs = []
            for i in range(3):
                out_csv = str(tmp_path / f"scaling{i}.csv")
                rc = mapml.cli.main([
                    "bench", "--data", surrogate_csv, "--methods", "mapml",
                    "--trials", "1", "--outer-iters", "2", "--inner-iters", "1000",
                    "--lambda", "10", "--delta", "30", "--latent-em-iters", "5",
                    "--tau-sweep", "2.5,5,10", "--seed", "0",
                    "--csv-out", out_csv,
                ])
                capsys.readouterr()
                assert rc == 0
                with open(out_csv, newline="") as f:
                    rows = list(csv.DictReader(f))
                assert [r["tau"] for r in rows] == ["2.5", "5", "10"]
                runs.append(rows)

            def medians(key):
                return [float(np.median([float(rows[t][key]) for rows in runs]))
                        for t in range(3)]

            latent = medians("latent_stage_seconds")
            active = medians("active_set_seconds")
            print(f"\n  latent stage s: {latent}\n  active build s: {active}")
            for a, b in zip(latent, latent[1:]):
                assert b <= 2.5 * a, f"latent stage scaling {b / a:.2f}x > 2.5x"
            for a, b in zip(active, active[1:]):
                assert b <= 9.0 * a, f"active set scaling {b / a:.2f}x > 9x"


class TestCriterion10QueryTimeRatio:
    def _ratio(self, train, test, cfg):
        res = train_mapml(train, cfg)
        assert res.latent_model.m == pytest.approx(0.05 * train.n, rel=0.02)
        lat = evaluate(test, res.latent_model.latents,
                       res.latent_model.latent_labels, res.metric, k=3,
                       refs_label_names=train.label_names)
        orig = evaluate(test, train.features, train.labels, res.metric, k=3,
                        refs_label_names=train.label_names)
        return lat.mean_query_time / orig.mean_query_time

    def test_desk_scale_surrogate(self, desk_surrogate):
        with criterion(10, "latent-reference query time <= 0.2x original"):
            train, test = desk_surrogate
            cfg = desk_config(seed=0, outer_iters=1, inner_iters=1000)
            cfg.tau = 5.0
            ratio = self._ratio(train, test, cfg)
            print(f"\n  query-time ratio: {ratio:.4f}")
            assert ratio <= 0.2

    def test_mnist_subset(self, mnist_subset):
        with criterion(10, "latent-reference query time <= 0.2x original (MNIST)"):
            train, test = mnist_subset
            cfg = mnist_config(seed=0, outer_iters=1, inner_iters=1000)
            cfg.tau = 5.0
            ratio = self._ratio(train, test, cfg)
            print(f"\n  query-time ratio: {ratio:.4f}")
            assert ratio <= 0.2


class TestCriterion11Determinism:
    def test_train_and_bench_reproducible(self, tmp_path, capsys):
        with criterion(11, "train/bench bitwise reproducible under a fixed seed"):
            data_csv = str(tmp_path / "data.csv")
            mapml.cli.main(["synth", "--classes", "3", "--latents-per-class", "2",
                            "--dim", "4", "--sigma", "0.1",
                            "--samples-per-latent", "40", "--seed", "11",
                            "--out", data_csv])
            a, b = str(tmp_path / "a.mapml"), str(tmp_path / "b.mapml")
            argv = ["train", "--data", data_csv, "--outer-iters", "3",
                    "--inner-iters", "600", "--seed", "21"]
            assert mapml.cli.main(argv + ["--out", a]) == 0
            assert mapml.cli.main(argv + ["--out", b]) == 0
            assert open(a, "rb").read() == open(b, "rb").read()
            assert open(a + ".loss.csv").read() == open(b + ".loss.csv").read()

            bench_a, bench_b = str(tmp_path / "ba.csv"), str(tmp_path / "bb.csv")
            argv = ["bench", "--data", data_csv, "--methods",
                    "euclid,mapml,mapml-o,random-triplet", "--trials", "3",
                    "--outer-iters", "2", "--inner-iters", "400", "--seed", "7"]
            assert mapml.cli.main(argv + ["--csv-out", bench_a]) == 0
            assert mapml.cli.main(argv + ["--csv-out", bench_b]) == 0
            capsys.readouterr()
            with open(bench_a, newline="") as f:
                ra = list(csv.reader(f))
            with open(bench_b, newline="") as f:
                rb = list(csv.reader(f))
            # all result columns identical; wall-clock timing columns are
            # measurements, not results, and are excluded
            for x, y in zip(ra, rb):
                assert x[:5] == y[:5]
