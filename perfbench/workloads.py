"""The mapml benchmark's workloads, their correctness gate and their metrics.

A workload builds its inputs from the benchmark seed (the library only
sees the generated arrays) and repeats rounds until the time budget is
spent. A round is set-up, one ``train_mapml`` call with a save/load round
trip of the model (knn-query trains in set-up instead), and the round's
queries: ``evaluate`` passes against the latents and against the
original training rows, then a block of per-query ``knn_predict`` calls
against both.

Every operation is checked. An operation is one train call, one
``evaluate`` pass or one ``knn_predict`` call; it fails if it raises or
fails a check. Query answers are checked against a batched kNN written
here (:func:`knn_labels`), which also scores the model's error rates on a
large held-out sample drawn from the same distribution as the test set.

Every timed interval is kept, with readings of a speed gauge taken next
to it (:mod:`gauge`); the end-to-end times are scaled by those readings.

The library is always called through its module attributes
(``driver.train_mapml``, ``evaluation.evaluate``, ...) so that the timing
wrappers of a traced run see every call.
"""

import hashlib
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import mapml.data_io as data_io
import mapml.driver as driver
import mapml.evaluation as evaluation
from mapml import Dataset, TrainConfig
from mapml.core import SYMMETRY_TOL
from mapml.data_io import SyntheticSpec
from mapml.latent import latents_per_class

import spec
from gauge import REFERENCE_S, Gauge
from spans import PAIRWISE, Tracer
from surrogate import DESK_SEED, build_desk_surrogate, desk_geometry, desk_samples

K = 3
MIN_ROUNDS = 2
# Every round starts with set-up, repeated until SETUP_BUDGET_S have
# passed; setup_s is the median over the run.
SETUP_BUDGET_S = 0.25
# Each round makes one ``evaluate`` pass against the originals, and passes
# against the latents until EVAL_LATENT_BUDGET_S have passed.
EVAL_LATENT_BUDGET_S = 0.3

MIN_EIGENVALUE = -1e-9
# The checker and the library sum distances in different orders, so a
# near-tie at the k-th neighbour can flip a vote. A sweep may disagree on
# this share of its queries (rounded down) before its mismatches fail.
TIE_SLACK = 0.001
# The training instances are fixed, as in the acceptance suite; the
# benchmark seed draws the rows that are queried and scored.
WIDE_SEED = 777
TRAIN_SEED = 0

MODES = ("latent", "original")
# knn_predict calls between two readings of the speed gauge
GAUGE_EVERY = 50


@dataclass
class Inputs:
    train: Dataset
    test: Dataset
    cfg: TrainConfig
    # Held-out sample that scores error rates; drawn chunk by chunk when
    # scoring, so it never sits in memory whole and is never passed to the
    # library. The leading ``holdout_original`` chunks are also scored
    # against the original references.
    holdout: Callable  # chunk index -> Dataset
    holdout_chunks: int
    holdout_original: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for data in (self.train, self.test):
            h.update(data.features.tobytes())
            h.update(data.labels.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable  # (seed, smoke) -> Inputs
    train_in_setup: bool  # knn-query trains once per set-up and times queries
    round_queries: int  # knn_predict calls against the latents per round
    round_original: int  # knn_predict calls against the originals per round


def _seeds(seed: int, count: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _desk_inputs(seed, smoke, tau, outer_iters, inner_iters, n_test):
    """The acceptance suite's desk-surrogate training set; seed-drawn queries."""
    s_test, s_hold = _seeds(seed, 2)
    n_train, chunk, chunks, chunks_orig = ((1_000, 1_000, 2, 1) if smoke
                                           else (10_000, 10_000, 6, 2))
    n_test = 200 if smoke else n_test
    train, _ = build_desk_surrogate(n_train=n_train, n_test=2_000)
    lat, lab = desk_geometry(np.random.default_rng(DESK_SEED))
    test = Dataset(*desk_samples(np.random.default_rng(s_test), lat, lab, n_test))
    hold_seeds = _seeds(s_hold, chunks)

    def holdout(i):
        return Dataset(*desk_samples(np.random.default_rng(hold_seeds[i]), lat, lab, chunk))

    cfg = TrainConfig(tau=tau, gamma=1.0, lam=10.0, delta=30.0,
                      outer_iters=outer_iters,
                      inner_iters=200 if smoke else inner_iters,
                      latent_em_iters=5, rng_seed=TRAIN_SEED,
                      active_set_cap=2_000 if smoke else 200_000)
    return Inputs(train, test, cfg, holdout, chunks, chunks_orig)


def desk_train_inputs(seed, smoke=False):
    """The acceptance suite's desk_config, cut to one outer iteration."""
    return _desk_inputs(seed, smoke, tau=10.0, outer_iters=1, inner_iters=4000,
                        n_test=1_000)


def knn_query_inputs(seed, smoke=False):
    """The criterion-10 shape: tau 5, one outer iteration of 1000 steps."""
    return _desk_inputs(seed, smoke, tau=5.0, outer_iters=1, inner_iters=1000,
                        n_test=2_000)


def wide_train_inputs(seed, smoke=False):
    """MNIST shape: 10 classes x 10 latents at d=784, sigma 1.0.

    Training uses 32 samples per latent drawn with seed 777; the seed
    draws 8 test samples per latent (an 80/20 split per latent) and the
    held-out sample, around the same true latents.
    """
    s_test, s_hold = _seeds(seed, 2)
    dim = 128 if smoke else 784
    spec_args = dict(n_classes=10, latents_per_class=10, dim=dim, noise_sigma=1.0)
    train, truth = data_io.generate_synthetic(SyntheticSpec(
        samples_per_latent=8 if smoke else 32, seed=WIDE_SEED, **spec_args))

    def draw(samples_per_latent, s):
        return data_io.generate_synthetic(SyntheticSpec(
            samples_per_latent=samples_per_latent, seed=s, true_latents=truth.latents,
            **spec_args))[0]

    test = draw(2 if smoke else 8, s_test)
    chunks = 2 if smoke else 10
    hold_seeds = _seeds(s_hold, chunks)
    cfg = TrainConfig(tau=3.0, gamma=1.0, lam=10.0, delta=100.0,
                      outer_iters=1, inner_iters=100 if smoke else 500,
                      latent_em_iters=5, rng_seed=TRAIN_SEED)
    return Inputs(train, test, cfg, lambda i: draw(5 if smoke else 20, hold_seeds[i]),
                  chunks, chunks)


WORKLOADS = {
    "desk-train": Workload(desk_train_inputs, False, 300, 150),
    # a knn_predict call against wide-train's 3200 x 784 originals costs ~60 ms
    "wide-train": Workload(wide_train_inputs, False, 400, 25),
    "knn-query": Workload(knn_query_inputs, True, 300, 300),
}


# ----------------------------------------------------------------- checker

def _vote(top: np.ndarray) -> np.ndarray:
    """Row-wise majority vote; ties go to the tied label seen first."""
    counts = (top[:, :, None] == top[:, None, :]).sum(axis=2)
    first = np.argmax(counts == counts.max(axis=1, keepdims=True), axis=1)
    return top[np.arange(top.shape[0]), first]


def knn_labels(matrix, refs, ref_labels, X, k=K, batch=128) -> np.ndarray:
    """k-NN labels of the rows of X, batched, with ``evaluate``'s tie rules.

    Ranks by r^T M r - 2 x^T M r like ``evaluate``; equal scores go to the
    smaller reference index, equal votes to the earliest neighbour.
    """
    proj = matrix @ refs.T
    rq = np.einsum("ij,ji->i", refs, proj)
    out = np.empty(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], batch):
        S = rq[None, :] - 2.0 * (X[lo:lo + batch] @ proj)
        cand = np.argpartition(S, k - 1, axis=1)[:, :k]
        cs = np.take_along_axis(S, cand, axis=1)
        top = np.take_along_axis(cand, np.lexsort((cand, cs)), axis=1)
        kth = cs.max(axis=1)
        for i in np.nonzero((S <= kth[:, None]).sum(axis=1) > k)[0]:
            top[i] = np.argsort(S[i], kind="stable")[:k]
        out[lo:lo + batch] = _vote(ref_labels[top])
    return out


@dataclass
class Ledger:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems, ops=1, failed=None):
        self.attempted += ops
        if problems:
            self.failed += ops if failed is None else failed
            self.problems.extend(problems)


def train_problems(res, inputs: Inputs) -> list:
    """What is wrong with one train_mapml result, if anything."""
    cfg = inputs.cfg
    out = []
    loss = np.asarray(res.loss_trace)
    if loss.shape != (cfg.outer_iters + 1,) or not np.isfinite(loss).all():
        out.append(f"loss trace malformed: {loss}")
    rtol = driver.MONOTONE_RTOL
    for k in range(1, loss.size):
        if loss[k] > loss[k - 1] + rtol * abs(loss[k - 1]):
            out.append(f"loss rose at outer iteration {k}: {loss[k - 1]!r} -> {loss[k]!r}")
    M = res.metric.matrix
    if np.abs(M - M.T).max() > SYMMETRY_TOL:
        out.append("final metric is not symmetric")
    if res.metric.min_eigenvalue() < MIN_EIGENVALUE:
        out.append(f"final metric has eigenvalue {res.metric.min_eigenvalue()!r}")
    counts = np.bincount(inputs.train.labels)
    want = sum(latents_per_class(int(c), cfg.tau) for c in counts)
    if res.latent_model.m != want:
        out.append(f"m = {res.latent_model.m}, latents_per_class sums to {want}")
    return out


def _bitwise_equal(a, b) -> bool:
    """Same loss trace, metric and latents, bit for bit."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.loss_trace, b.loss_trace), (a.metric.matrix, b.metric.matrix),
                            (a.latent_model.latents, b.latent_model.latents)))


# ----------------------------------------------------------------- running

@dataclass
class Samples:
    """Timed operations as (start, end) perf_counter intervals."""

    setup: list = field(default_factory=list)
    train: list = field(default_factory=list)
    evaluate: dict = field(default_factory=lambda: {m: [] for m in MODES})
    query: dict = field(default_factory=lambda: {m: [] for m in MODES})
    mismatches: dict = field(default_factory=lambda: {m: 0 for m in MODES})
    error_rates: dict = field(default_factory=lambda: {m: [] for m in MODES})


class Pipeline:
    """One workload's inputs, model and measurements within a process."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, tracer: Tracer,
                 ledger: Ledger, workdir: str):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.ledger = ledger
        self.workdir = workdir
        self.samples = Samples()
        self.gauge = Gauge()
        self.inputs = None
        self.result = None  # last train_mapml result
        self.train_span = -1  # span id of the last train call
        self.model = None  # model as read back from disk
        self.expected = None  # checker's test-set labels per reference mode

    def refs(self, mode):
        if mode == "latent":
            return self.model.latents, self.model.latent_labels
        return self.inputs.train.features, self.inputs.train.labels

    def setup(self, budget_s=0.0):
        """Set up once, and again until ``budget_s`` has passed."""
        start = time.perf_counter()
        while True:
            self.gauge.read()
            t0 = time.perf_counter()
            with self.tracer.span("bench.setup"):
                inputs = self.workload.make_inputs(self.seed, self.smoke)
                if self.workload.train_in_setup:
                    self._train(inputs)
            self.samples.setup.append((t0, time.perf_counter()))
            self.gauge.read()
            if self.inputs is not None and inputs.digest() != self.inputs.digest():
                self.ledger.record(["set-up built different inputs from one seed"], ops=0,
                                   failed=1)
            self.inputs = inputs
            if time.perf_counter() - start >= budget_s:
                return

    def train(self):
        self.gauge.read()
        self._train(self.inputs)
        self.gauge.read()

    def _train(self, inputs):
        """One train call, checked, with a save/load round trip of its model."""
        with self.tracer.span("driver.train_mapml") as span:
            res = driver.train_mapml(inputs.train, inputs.cfg)
        self.samples.train.append((span.start, span.end))
        problems = train_problems(res, inputs)
        if self.result is not None and not _bitwise_equal(res, self.result):
            problems.append("repeated train calls on one input differ")
        path = os.path.join(self.workdir, "model.mapml")
        data_io.save_model(path, res)
        model = data_io.load_model(path)
        if not (np.array_equal(model.metric.matrix, res.metric.matrix)
                and np.array_equal(model.latents, res.latent_model.latents)
                and np.array_equal(model.latent_labels, res.latent_model.latent_labels)):
            problems.append("model read back differs from the model written")
        self.ledger.record(problems)
        self.result, self.train_span, self.model = res, span.id, model

    def query_round(self, r):
        """Round ``r``'s queries.

        ``evaluate`` passes (see EVAL_LATENT_BUDGET_S), then the round's
        block of test rows through ``knn_predict``: a latent query for
        every row and an original query for every few rows, interleaved so
        that both sample the same stretch of time.
        """
        test = self.inputs.test
        metric = self.model.metric
        if self.expected is None:
            self.expected = {m: knn_labels(metric.matrix, *self.refs(m), test.features)
                             for m in MODES}
        start = time.perf_counter()
        self._evaluate("latent")
        while time.perf_counter() - start < EVAL_LATENT_BUDGET_S:
            self._evaluate("latent")
        self._evaluate("original")
        w = self.workload
        every = max(1, w.round_queries // w.round_original)
        refs = {m: self.refs(m) for m in MODES}
        query = self.samples.query
        wrong = self.samples.mismatches
        with self.tracer.span("bench.knn_block"):
            for j in range(w.round_queries):
                if j % GAUGE_EVERY == 0:
                    self.gauge.read()
                i = (r * w.round_queries + j) % test.n
                x = test.features[i]
                for mode in MODES if j % every == 0 else MODES[:1]:
                    t0 = time.perf_counter()
                    pred = evaluation.knn_predict(x, *refs[mode], metric, K)
                    query[mode].append((t0, time.perf_counter()))
                    wrong[mode] += int(pred != self.expected[mode][i])
            self.gauge.read()

    def _evaluate(self, mode):
        test = self.inputs.test
        self.gauge.read()
        t0 = time.perf_counter()
        rep = evaluation.evaluate(test, *self.refs(mode), self.model.metric, k=K,
                                  reference_mode=mode)
        self.samples.evaluate[mode].append((t0, time.perf_counter()))
        self.gauge.read()
        want = np.count_nonzero(self.expected[mode] != test.labels)
        rates = self.samples.error_rates[mode]
        problems = []
        if not np.isfinite(rep.error_rate):
            problems.append(f"evaluate ({mode}) error rate is {rep.error_rate}")
        elif abs(round(rep.error_rate * test.n) - want) > TIE_SLACK * test.n:
            problems.append(f"evaluate ({mode}) error rate {rep.error_rate} against "
                            f"{want / test.n} from the checker")
        if rates and rep.error_rate != rates[0]:
            problems.append(f"repeated evaluate ({mode}) passes disagree")
        rates.append(rep.error_rate)
        self.ledger.record(problems)

    def finish(self):
        """Count the knn_predict calls, failing them if too many disagree."""
        for mode in MODES:
            n = len(self.samples.query[mode])
            wrong = self.samples.mismatches[mode]
            self.ledger.record([f"knn_predict ({mode}) disagrees with the checker on "
                                f"{wrong} of {n} queries"] if wrong > TIE_SLACK * n else [],
                               ops=n, failed=wrong)

    def error_pct(self, mode) -> float:
        """Test error (%) of the model on the held-out sample."""
        inputs = self.inputs
        chunks = inputs.holdout_chunks if mode == "latent" else inputs.holdout_original
        refs, labels = self.refs(mode)
        wrong = rows = 0
        for i in range(chunks):
            hold = inputs.holdout(i)
            pred = knn_labels(self.model.metric.matrix, refs, labels, hold.features)
            wrong += int(np.count_nonzero(pred != hold.labels))
            rows += hold.n
        return 100.0 * wrong / rows


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seconds(intervals) -> np.ndarray:
    return np.array([end - start for start, end in intervals])


def timings(p: Pipeline, seconds: Callable) -> dict:
    """The run's timed metrics, with ``seconds`` turning intervals into seconds."""
    s = p.samples
    values = {"setup_s": float(np.median(seconds(s.setup))),
              "train_s": float(np.mean(seconds(s.train)))}
    for mode in MODES:
        lat = seconds(s.query[mode]) * 1e6
        values[f"query_{mode}_mean_us"] = float(lat.mean())
        values[f"query_{mode}_p90_us"] = float(np.percentile(lat, 90))
    test_rows = p.inputs.test.n
    for mode in MODES:
        # rows over seconds, pooled over the run's evaluate passes
        passes = seconds(s.evaluate[mode])
        values[f"eval_{mode}_qps"] = float(test_rows * passes.size / passes.sum())
    return values


def end_to_end(p: Pipeline) -> dict:
    """End-to-end metrics; every time is scaled to the gauge's reference speed."""
    values = timings(p, p.gauge.scaled)
    values.update({
        "final_loss": float(p.result.loss_trace[-1]),
        "error_latent_pct": p.error_pct("latent"),
        "error_original_pct": p.error_pct("original"),
        "peak_rss_mb": _peak_rss_mb(),
    })
    return values


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(t: Tracer, train_span: int, untraced_train_s: float,
              latent_refs: int) -> dict:
    """Per-layer metrics from a traced run's spans.

    ``latent_refs`` (the number of latents) tells the ``knn_predict``
    calls against the latents from those against the originals.
    """
    spans = t.spans
    own = t.self_times()
    train_ids = t.subtree(train_span)

    def self_s(name, ids=range(len(spans))):
        return sum(own[i] for i in ids if spans[i].name == name)

    def under(name, parent, ids=range(len(spans))):
        return [i for i in ids if spans[i].name == name
                and spans[i].parent >= 0 and spans[spans[i].parent].name == parent]

    builds = [spans[i] for i in train_ids if spans[i].name == "metric.build_active_set"]
    scanned = sum(b.counts["scanned"] for b in builds)
    retained = sum(b.counts["retained"] for b in builds)
    steps = sum(spans[i].counts["steps"] for i in train_ids
                if spans[i].name == "metric.proximal_hinge_sgd")
    sgd_s = self_s("metric.proximal_hinge_sgd", train_ids)
    train_s = spans[train_span].duration
    v = {
        "metric.active_set_s": self_s("metric.build_active_set", train_ids),
        "metric.triplets_scanned": scanned,
        "metric.active_set_retained": retained,
        "metric.active_set_retained_ratio": retained / scanned if scanned else 0.0,
        "metric.active_set_capped_builds": sum(b.counts["capped"] for b in builds),
        "core.loss_s": self_s("core.full_loss_all", train_ids),
        "core.loss_calls": sum(1 for i in train_ids if spans[i].name == "core.full_loss_all"),
        "metric.sgd_s": sgd_s,
        "metric.sgd_steps": steps,
        "metric.sgd_us_per_step": sgd_s / steps * 1e6 if steps else 0.0,
        "latent.init_s": self_s("latent.init_latents", train_ids),
        "latent.assign_s": self_s("latent.run_latent_stage", train_ids),
        "latent.update_s": self_s("latent.update_latents", train_ids),
        "latent.margins_s": self_s("latent.compute_margins", train_ids),
        "metric.psd_s": self_s("metric.psd_project", train_ids),
        "metric.stage_self_s": self_s("metric.run_metric_stage", train_ids),
        "core.pairwise_s.active_set": sum(
            own[i] for i in under(PAIRWISE, "metric.build_active_set", train_ids)),
        "core.pairwise_s.loss": sum(
            own[i] for i in under(PAIRWISE, "core.full_loss_all", train_ids)),
        "core.pairwise_s.knn_predict": sum(
            own[i] for i in under(PAIRWISE, "evaluation.knn_predict")),
    }
    for mode in MODES:
        evals = [s for s in spans if s.name == "evaluation.evaluate" and s.counts["mode"] == mode]
        v[f"evaluation.mean_query_us.{mode}"] = _median(
            [s.counts["mean_query_s"] for s in evals]) * 1e6
        v[f"evaluation.index_build_s.{mode}"] = _median(
            [s.duration - s.counts["query_s"] for s in evals])
        v[f"evaluation.knn_predict_s.{mode}"] = sum(
            own[i] for i in range(len(spans)) if spans[i].name == "evaluation.knn_predict"
            and (spans[i].counts["refs"] == latent_refs) == (mode == "latent"))
    v["driver.self_s"] = self_s("driver.train_mapml", train_ids)
    v["data_io.synth_s"] = self_s("data_io.generate_synthetic")
    v["data_io.model_io_s"] = self_s("data_io.save_model") + self_s("data_io.load_model")
    v["trace.train_s"] = train_s
    v["trace.overhead_pct"] = (train_s / untraced_train_s - 1.0) * 100.0
    return v


def _measure(p: Pipeline, seconds: float):
    """Run rounds until ``seconds`` have passed, at least MIN_ROUNDS.

    A round is set-up, a train call (unless the workload trains in
    set-up) and the round's queries; spreading set-ups and train calls
    over the run lets their statistics average over changes in machine
    speed.
    """
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        p.setup(SETUP_BUDGET_S)
        if not p.workload.train_in_setup:
            p.train()
        p.query_round(r)
        r += 1
    p.finish()


def _measure_traced(plain: Pipeline, traced: Pipeline):
    """One round each, step by step: every untraced step, then its traced twin.

    Each train call sits next to its traced twin, so that the machine's
    speed, which can hold for tens of seconds, is mostly the same for both. The first
    train call of a process runs cold (its large arrays fault in fresh
    pages), so an untraced warm-up round of set-up and training goes first.
    """
    plain.setup()
    if not plain.workload.train_in_setup:
        plain.train()
    steps = [lambda p: p.setup()]
    if not plain.workload.train_in_setup:
        steps.append(Pipeline.train)
    steps += [lambda p: p.query_round(0), Pipeline.finish]
    for step in steps:
        step(plain)
        with traced.tracer.installed():
            step(traced)


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        out_dir: str, ledger: Ledger):
    """Run one workload, recording operations in ``ledger``.

    Returns (metrics, notes, tracer or None).
    """
    workload = WORKLOADS[workload_name]
    run_id = f"{workload_name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        plain = Pipeline(workload, seed, smoke, Tracer(run_id + "-untraced"), ledger, workdir)
        if not trace:
            _measure(plain, seconds)
            return end_to_end(plain), _notes(plain), None
        tracer = Tracer(run_id)
        traced = Pipeline(workload, seed, smoke, tracer, ledger, workdir)
        _measure_traced(plain, traced)
        if not _bitwise_equal(traced.result, plain.result):
            ledger.record(["traced run's loss trace, metric or latents differ from the "
                           "untraced run's"], ops=0, failed=1)
        # a time budget sets the number of passes; each run checks its passes agree
        if ({m: r[0] for m, r in traced.samples.error_rates.items()}
                != {m: r[0] for m, r in plain.samples.error_rates.items()}):
            ledger.record(["traced evaluate error rates differ from the untraced ones"],
                          ops=0, failed=1)
        values = per_layer(tracer, traced.train_span, _seconds(plain.samples.train)[-1],
                           traced.model.latents.shape[0])
        parts = sum(values[name] for name in spec.TRAIN_PARTITION)
        if abs(parts - values["trace.train_s"]) > 1e-6 * values["trace.train_s"]:
            ledger.record([f"training self times add up to {parts!r} s, not the traced "
                           f"train_s {values['trace.train_s']!r} s"], ops=0, failed=1)
        return values, _notes(traced), tracer


def _notes(p: Pipeline) -> dict:
    s = p.samples
    return {
        "samples": {"setup": len(s.setup), "train": len(s.train),
                    "evaluate": {m: len(s.evaluate[m]) for m in MODES},
                    "knn_predict": {m: len(s.query[m]) for m in MODES}},
        "checker_mismatches": dict(s.mismatches),
        "query_p50_p99_us": {m: (np.percentile(p.gauge.scaled(s.query[m]), [50, 99])
                                 * 1e6).tolist() for m in MODES},
        "m": p.result.latent_model.m,
        "loss_trace": [float(x) for x in p.result.loss_trace],
        "gauge": {"reference_s": REFERENCE_S, "median_s": statistics.median(p.gauge.readings),
                  "readings": len(p.gauge.readings)},
        # the timed metrics unscaled, as the wall clock read them
        "unscaled": timings(p, _seconds),
        "intervals": {"setup": s.setup, "train": s.train, "evaluate": s.evaluate,
                      "query": s.query},
        "gauge_readings": list(zip(p.gauge.times, p.gauge.readings)),
    }
