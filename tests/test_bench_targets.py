"""The benchmark tracer's wrap list names attributes that exist and are called.

``perfbench/spans.py`` swaps each ``(module, attr)`` in ``TARGETS`` for a
timing wrapper, so renaming or deleting one of those library names breaks
``perfbench/run.py --trace 1``; these tests make it break the suite too.
A wrapped name that the library stops calling through its module would
leave its span reading zero, so the metric stage's calls are counted. The
counter hooks read the wrapped calls' arguments and results, so a traced
run checks that they still read what the library reports.
"""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

from mapml import Metric, TrainConfig, driver, evaluation, metric

from conftest import make_blobs, make_latent_model

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_spans().TARGETS,
                         ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_target_resolves(target):
    module, attr = target[:2]
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


def test_metric_stage_calls_sgd_and_projection_once_through_module(monkeypatch):
    calls = Counter()
    for name in ("proximal_hinge_sgd", "psd_project"):
        def spy(*args, _name=name, _fn=getattr(metric, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(metric, name, spy)
    model = make_latent_model(np.random.default_rng(0).normal(size=(4, 2)) * 0.4, [2, 2])
    cfg = TrainConfig(inner_iters=100, lam=1.0, delta=5.0)
    _, counts = metric.run_metric_stage(model, Metric.identity(2), cfg, seed=cfg.rng_seed)
    assert counts["active_set_size"] > 0
    assert calls == {"proximal_hinge_sgd": 1, "psd_project": 1}


def test_traced_counts_match_the_run():
    rng = np.random.default_rng(1)
    data = make_blobs(rng, 30, [[0.0, 0.0], [1.0, 0.5]], 0.6)
    cfg = TrainConfig(tau=20.0, outer_iters=1, inner_iters=100, rng_seed=1)
    tracer = load_spans().Tracer("test")
    with tracer.installed():
        result = driver.train_mapml(data, cfg)
        latents = result.latent_model.latents
        labels = result.latent_model.latent_labels
        report = evaluation.evaluate(data, latents, labels, result.metric, k=1,
                                     reference_mode="latent")
        evaluation.knn_predict(data.features[0], latents, labels, result.metric, k=1)

    def counts(name):
        return [s.counts for s in tracer.spans if s.name == name]

    builds = counts("metric.build_active_set")
    assert len(builds) == 1
    assert builds[0]["retained"] == result.history[0]["active_set_size"] > 0
    assert builds[0]["capped"] == 0
    model = result.latent_model
    assert builds[0]["scanned"] == sum(int(c) * (int(c) - 1) * (model.m - int(c))
                                       for c in model.per_class_counts)
    assert counts("metric.proximal_hinge_sgd") == [{"steps": cfg.inner_iters}]
    assert counts("evaluation.evaluate") == [{
        "mode": "latent", "mean_query_s": report.mean_query_time,
        "query_s": report.mean_query_time * data.n}]
    assert counts("evaluation.knn_predict") == [{"refs": model.m}]


def test_traced_run_records_the_claimed_layers():
    # the per-layer figures of a traced run rest on these spans: one
    # update_latents per sweep, called through the module, and the distance
    # matrix of every active-set build and every monitored loss
    spans_module = load_spans()
    rng = np.random.default_rng(2)
    data = make_blobs(rng, 40, [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.5]], 0.6)
    cfg = TrainConfig(tau=20.0, outer_iters=2, inner_iters=100, latent_em_iters=3,
                      rng_seed=1)
    tracer = spans_module.Tracer("test")
    with tracer.installed():
        result = driver.train_mapml(data, cfg)
    assert len(result.history) == cfg.outer_iters
    spans = tracer.spans
    updates = [s for s in spans if s.name == "latent.update_latents"]
    assert len(updates) == cfg.outer_iters * cfg.latent_em_iters
    assert all(s.duration > 0 and spans[s.parent].name == "latent.run_latent_stage"
               for s in updates)
    under = Counter(spans[s.parent].name for s in spans
                    if s.name == spans_module.PAIRWISE and s.duration > 0)
    assert under["metric.build_active_set"] == cfg.outer_iters
    # the loss after init and after each outer iteration
    assert under["core.full_loss_all"] == cfg.outer_iters + 1
