"""In-memory spans around calls into the mapml layers.

A :class:`Tracer` swaps module attributes of the library for timing
wrappers (it never edits the library's source) and records one
:class:`Span` per call: name, start, end, parent span and run id, plus
counters taken from the call's arguments and result. Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON at the end of a run.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested on one thread, so the self times of a
root span and all its descendants add up to the root's duration.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps

import mapml.core
import mapml.data_io
import mapml.driver
import mapml.evaluation
import mapml.latent
import mapml.metric

PAIRWISE = "core.pairwise_mahalanobis_sq"


def _active_set_counts(args, result):
    model, cap = args[0], args[2]
    counts = model.per_class_counts
    # every (o, p, q) with label(p) = label(o) != label(q), p != o
    scanned = int((counts * (counts - 1) * (model.m - counts)).sum())
    return {"scanned": scanned, "retained": len(result),
            "capped": int(len(result) >= cap)}


def _sgd_counts(args, result):
    return {"steps": int(args[1].shape[0])}


def _knn_counts(args, result):
    return {"refs": len(args[1])}


def _eval_counts(args, result):
    return {"mode": result.reference_mode, "mean_query_s": result.mean_query_time,
            "query_s": result.mean_query_time * result.n_test}


# (module, attribute, span name, counter hook). The same function bound in
# several modules is wrapped in each, so every call site is covered.
TARGETS = (
    (mapml.driver, "init_latents", "latent.init_latents", None),
    (mapml.driver, "run_latent_stage", "latent.run_latent_stage", None),
    (mapml.driver, "run_metric_stage", "metric.run_metric_stage", None),
    (mapml.driver, "full_loss_all", "core.full_loss_all", None),
    (mapml.latent, "update_latents", "latent.update_latents", None),
    (mapml.latent, "compute_margins", "latent.compute_margins", None),
    (mapml.metric, "build_active_set", "metric.build_active_set", _active_set_counts),
    (mapml.metric, "proximal_hinge_sgd", "metric.proximal_hinge_sgd", _sgd_counts),
    (mapml.metric, "psd_project", "metric.psd_project", None),
    (mapml.core, "pairwise_mahalanobis_sq", PAIRWISE, None),
    (mapml.metric, "pairwise_mahalanobis_sq", PAIRWISE, None),
    (mapml.evaluation, "pairwise_mahalanobis_sq", PAIRWISE, None),
    (mapml.evaluation, "evaluate", "evaluation.evaluate", _eval_counts),
    (mapml.evaluation, "knn_predict", "evaluation.knn_predict", _knn_counts),
    (mapml.data_io, "generate_synthetic", "data_io.generate_synthetic", None),
    (mapml.data_io, "save_model", "data_io.save_model", None),
    (mapml.data_io, "load_model", "data_io.load_model", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; while :meth:`installed`, the library is instrumented."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record a span around the body; yields the :class:`Span`."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        rec = Span(sid, name, 0.0, 0.0, parent, self.run_id)
        self.spans.append(rec)
        self._stack.append(sid)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if hook is not None:
                    rec.counts.update(hook(args, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its timing wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, hook in TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list:
        """Self time of every span, indexed by span id."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def subtree(self, root: int) -> list:
        """Ids of ``root`` and all its descendants (children follow parents)."""
        inside = {root}
        for s in self.spans[root + 1:]:
            if s.parent in inside:
                inside.add(s.id)
        return sorted(inside)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)
            f.write("\n")
