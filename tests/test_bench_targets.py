"""The benchmark tracer's wrap list names attributes that exist and are called.

``perfbench/spans.py`` swaps each ``(module, attr)`` in ``TARGETS`` for a
timing wrapper, so renaming or deleting one of those library names breaks
``perfbench/run.py --trace 1``; these tests make it break the suite too.
A wrapped name that the library stops calling through its module would
leave its span reading zero, so the metric stage's calls are counted.
"""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

from mapml import Metric, TrainConfig, metric

from conftest import make_latent_model

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t[0].__name__}.{t[1]}")
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
    _, counts = metric.run_metric_stage(model, Metric.identity(2), cfg)
    assert counts["active_set_size"] > 0
    assert calls == {"proximal_hinge_sgd": 1, "psd_project": 1}
