"""Property tests of the sort-based hinge kernel against the naive oracles.

Two instance families are drawn. Integer-valued latents, metrics and
margins keep every distance and hinge exact in floating point, so they
exercise tied distances, hinges exactly at the threshold and indefinite
metrics (negative distances) with no rounding ambiguity against the
oracles. Gaussian instances are drawn from a numpy generator seeded by
hypothesis, as in the acceptance suite.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapml import Metric, TrainConfig, core, init_latents
from mapml.core import full_loss_all
from mapml.metric import build_active_set, run_metric_stage

from conftest import (make_latent_model, oracle_active_triplets,
                      oracle_full_loss, random_symmetric)

KERNEL = settings(max_examples=150)


def class_counts(m, c):
    counts = np.full(c, m // c)
    counts[: m % c] += 1
    return counts


@st.composite
def integer_instances(draw):
    """Small-integer latents, symmetric integer metric, integer margins."""
    m = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    c = draw(st.integers(2, min(m, 3)))
    coords = st.integers(-2, 2).map(float)
    z = np.array(draw(st.lists(coords, min_size=m * d, max_size=m * d))).reshape(m, d)
    upper = draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d))
    A = np.array(upper, dtype=np.float64).reshape(d, d)
    M = np.triu(A) + np.triu(A, 1).T
    margins = np.array(draw(st.lists(st.integers(0, 3).map(float),
                                     min_size=m, max_size=m)))
    return make_latent_model(z, class_counts(m, c), margins=margins), Metric(M)


@st.composite
def gaussian_instances(draw):
    """Gaussian latents, indefinite symmetric metric, uniform margins."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 9))
    d = draw(st.integers(1, 3))
    c = draw(st.integers(2, min(m, 3)))
    z = rng.normal(size=(m, d))
    margins = rng.uniform(0, 1.5, size=m)
    model = make_latent_model(z, class_counts(m, c), margins=margins)
    return model, Metric(random_symmetric(rng, d))


instances = st.one_of(integer_instances(), gaussian_instances())


def oracle_list(model, metric):
    return oracle_active_triplets(metric.matrix, model.latents, model.latent_labels,
                                  model.cluster_margins)


def block_indices(blk, m):
    """(same, diff, partner) latent indices of a block: its class, the rest, and
    each anchor's partners in the order of ``core.partner_columns``."""
    same = np.arange(blk.lo, blk.hi)
    diff = np.r_[0:blk.lo, blk.hi:m]
    return same, diff, same[core.partner_columns(same.size)]


def kernel_pair_counts(model, metric):
    """{(o, p): HingeBlock.below} from the kernel, for every same-class pair."""
    E = core.pairwise_mahalanobis_sq(metric, model.latents)
    out = {}
    for blk in core.hinge_blocks(E, model.per_class_counts, model.cluster_margins):
        same, _, partner = block_indices(blk, model.m)
        for i, o in enumerate(same):
            for j, p in enumerate(partner[i]):
                out[(int(o), int(p))] = int(blk.below[i, j])
    return out


class TestHingeKernel:
    @KERNEL
    @given(instances)
    def test_violator_counts_match_oracle(self, inst):
        # HingeBlock.below is the one violation count
        model, metric = inst
        want = Counter((o, p) for o, p, _ in oracle_list(model, metric))
        got = kernel_pair_counts(model, metric)
        assert {k: v for k, v in got.items() if v} == dict(want)

    @KERNEL
    @given(integer_instances())
    def test_loss_boundary_matches_oracle_when_exact(self, inst):
        # in exact arithmetic a positive loss hinge is a violation
        model, metric = inst
        want = Counter((o, p) for o, p, _ in oracle_list(model, metric))
        got = kernel_pair_counts(model, metric)
        assert {k: v for k, v in got.items() if v} == dict(want)

    @KERNEL
    @given(st.integers(0, 2**32 - 1))
    def test_below_counts_exact_at_rounding_boundary(self, seed):
        # other-class distances within a few ulps of E[o, p] + 1 + margin(o):
        # each count is the number of q below the loss threshold, and a q is
        # counted exactly when its loss hinge t_p - E[o, q] is positive
        rng = np.random.default_rng(seed)
        s, n = int(rng.integers(2, 5)), int(rng.integers(1, 8))
        m = s + n
        margins = rng.choice([0.1, 0.2, 0.7, 1.3], size=m)
        E = rng.choice([0.1, 0.3, 0.7, 2.9], size=(m, m))
        for o in range(s):
            for q in range(s, m):
                p = (o + int(rng.integers(1, s))) % s
                edge = E[o, p] + (1.0 + margins[o])
                E[o, q] = edge + int(rng.integers(-3, 4)) * np.spacing(edge)
        for blk in core.hinge_blocks(E, [s, n], margins):
            same, diff, partner = block_indices(blk, m)
            for i, o in enumerate(same):
                row = E[o, diff]
                ranked = np.sort(row)
                for j, p in enumerate(partner[i]):
                    t = (1.0 + margins[o]) + E[o, p]
                    k = blk.below[i, j]
                    assert k == np.sum(row < t)
                    assert np.all(t - ranked[:k] > 0)
                    assert np.all(t - ranked[k:] <= 0)

    @KERNEL
    @given(instances)
    def test_full_loss_all_matches_oracle(self, inst):
        model, metric = inst
        want = oracle_full_loss(metric.matrix, model.latents, model.latent_labels,
                                model.cluster_margins)
        got = full_loss_all(metric, model)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @KERNEL
    @given(instances)
    def test_decode_ranks_enumerates_violators_by_distance(self, inst):
        # all ranks of a block: each (o, p) in partner order, then its
        # violators by ascending E[o, q], each violator exactly once
        model, metric = inst
        E = core.pairwise_mahalanobis_sq(metric, model.latents)
        want = Counter(oracle_list(model, metric))
        got = []
        for blk in core.hinge_blocks(E, model.per_class_counts, model.cluster_margins):
            counts = blk.below
            rows = core.other_class_columns(E, blk.lo, blk.hi)
            o, p, q = core.decode_ranks(blk, np.argsort(rows, axis=1), np.arange(counts.sum()))
            same, _, partner = block_indices(blk, model.m)
            pairs = [(a, b) for a, row in zip(same, partner) for b in row]
            assert list(zip(o, p)) == [pr for pr, c in zip(pairs, counts.ravel())
                                       for _ in range(c)]
            for a, b in set(zip(o, p)):
                sel = (o == a) & (p == b)
                assert np.all(np.diff(E[a, q[sel]]) >= 0)
            got += [(int(a), int(b), int(c)) for a, b, c in zip(o, p, q)]
        assert Counter(got) == want

    @KERNEL
    @given(instances)
    def test_under_cap_equals_oracle_list(self, inst):
        model, metric = inst
        want = oracle_list(model, metric)
        triplets = build_active_set(model, metric, cap=max(1, len(want)), seed=0)
        assert [tuple(r) for r in triplets] == want
        assert triplets.dtype == np.int64

    @KERNEL
    @given(instances, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_over_cap_sample(self, inst, seed, frac):
        model, metric = inst
        want = oracle_list(model, metric)
        if len(want) < 2:
            return
        cap = 1 + int(frac * (len(want) - 2))
        rows = [tuple(r) for r in build_active_set(model, metric, cap, seed)]
        assert len(rows) == cap
        assert len(set(rows)) == cap
        assert rows == sorted(rows)
        assert set(rows) <= set(want)


@pytest.mark.parametrize("cap", [2, 6])
def test_over_cap_draw_is_uniform(cap):
    # 18 violators; cap 2 takes the rejection-sampling branch, cap 6 the
    # permutation branch of the rank sampler
    model = make_latent_model([[0.0], [0.1], [0.2], [0.3], [0.25], [5.0]], [4, 2])
    want = oracle_list(model, Metric.identity(1))
    assert len(want) == 18
    n_seeds = 3000
    hits = Counter()
    for seed in range(n_seeds):
        triplets = build_active_set(model, Metric.identity(1), cap=cap, seed=seed)
        hits.update(tuple(r) for r in triplets)
    assert set(hits) == set(want)
    p = cap / len(want)
    expected = n_seeds * p
    sd = np.sqrt(n_seeds * p * (1 - p))
    worst = max(abs(hits[t] - expected) for t in want)
    assert worst < 4.5 * sd, f"max deviation {worst:.0f} vs sd {sd:.1f}"


def test_active_set_is_the_loss_support_at_rounding_boundary():
    # over the stored distances, 1.1 + E[0, 1] - E[0, 2] is 4.4e-16, under
    # one ulp of t_p = 1.1 + E[0, 1], and t_p rounds to E[0, 2]: the loss
    # counts (0, 1, 2) as satisfied, so the active set must be empty and
    # the metric stage must leave the metric as it is
    model = make_latent_model([[0.0], [2.8519366573195195], [-3.0386744967769803]],
                              [2, 1], margins=[0.1, 0.0, 0.0])
    identity = Metric.identity(1)
    assert full_loss_all(identity, model) == 0.0
    assert build_active_set(model, identity, cap=10, seed=0).shape == (0, 3)
    cfg = TrainConfig(inner_iters=100)
    got, counts = run_metric_stage(model, identity, cfg, seed=cfg.rng_seed)
    assert counts["active_set_size"] == 0
    np.testing.assert_array_equal(got.matrix, identity.matrix)


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_triplet_scans_hold_little_beyond_the_distance_matrix(desk_surrogate):
    # at m = 3000 each scan holds E (69 MiB) plus one class block at a time
    # and the sample; an E-sized intermediate kept across blocks breaks 1.5 E
    train, _ = desk_surrogate
    model = init_latents(train, 30.0, seed=0)
    assert model.m == 3000
    identity = Metric.identity(train.d)
    bound = 1.5 * model.m * model.m * 8
    active = traced_peak(lambda: build_active_set(model, identity, cap=200_000, seed=0))
    loss = traced_peak(lambda: full_loss_all(identity, model))
    assert active <= bound, f"build_active_set peak {active / 2**20:.1f} MiB"
    assert loss <= bound, f"full_loss_all peak {loss / 2**20:.1f} MiB"
    # the loss scan keeps no block once it is summed: E plus one block
    assert loss <= 1.3 * model.m * model.m * 8, f"full_loss_all peak {loss / 2**20:.1f} MiB"
