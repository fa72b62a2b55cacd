"""Alternating trainer: latent stage, metric stage, loss monitoring.

The monitored loss after outer iteration k is the hinge loss over the
full latent-triplet universe with margins computed under the previous
metric (the objective the two stages actually optimized). The loss
sequence is expected to be non-increasing; violations beyond tolerance
are logged, not fatal, since SGD only approximately minimizes the stage
upper bound.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Metric, TrainConfig, full_loss_all
from .latent import LatentModel, init_latents, run_latent_stage
from .metric import proximal_hinge_sgd, psd_project, run_metric_stage

logger = logging.getLogger(__name__)

# Relative slack allowed before a loss increase is reported.
MONOTONE_RTOL = 1e-6


@dataclass
class TrainResult:
    """Everything a training run produces.

    loss_trace has outer_iters + 1 entries (after init, then after each
    iteration). history is the record of the run, one dict per outer
    iteration with keys
      k                   the outer iteration, 1-based
      loss                the monitored loss after it (loss_trace[k])
      latent_seconds      wall time of the latent stage
      metric_seconds      wall time of the metric stage
      loss_seconds        wall time of the monitored-loss scan after it
      active_set_size     violating triplets retained for SGD
      active_set_seconds  part of metric_seconds spent building that set
      active_steps        SGD steps whose hinge was active
      ball_clips          SGD steps the Frobenius ball rescaled
    The baseline trainer has no latent objective to monitor: it leaves
    loss_trace empty and records one entry whose loss is None, whose
    metric_seconds is its training time, and whose latent, loss and
    active-set keys are 0. label_names[c] is the training label value of
    latent label code c (the data's label_names).
    """

    metric: Metric
    latent_model: LatentModel
    loss_trace: np.ndarray
    history: list
    config: TrainConfig = None
    label_names: np.ndarray = None


def _seed_streams(seed: int, count: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def train_mapml(data: Dataset, cfg: TrainConfig, log_sink=None) -> TrainResult:
    """Alternate the latent and metric stages for cfg.outer_iters rounds.

    ``log_sink``, when given, is called with each entry of the result's
    ``history`` (see :class:`TrainResult`) as soon as its iteration ends.
    """
    seeds = _seed_streams(cfg.rng_seed, 1 + cfg.outer_iters)
    metric = Metric.identity(data.d)
    model = init_latents(data, cfg.tau, seeds[0])
    losses = [full_loss_all(metric, model)]
    if not np.isfinite(losses[0]):
        raise FloatingPointError("non-finite loss after initialization")
    history = []
    for k in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        model = run_latent_stage(data, model, metric, cfg)
        t_latent = time.perf_counter() - t0

        t0 = time.perf_counter()
        new_metric, counts = run_metric_stage(model, metric, cfg, seed=seeds[k])
        t_metric = time.perf_counter() - t0

        t0 = time.perf_counter()
        loss_k = full_loss_all(new_metric, model)
        t_loss = time.perf_counter() - t0
        if not np.isfinite(loss_k):
            raise FloatingPointError(f"non-finite loss at outer iteration {k}")
        if loss_k > losses[-1] + MONOTONE_RTOL * abs(losses[-1]):
            logger.warning("loss increased at outer iteration %d: %.12g -> %.12g",
                           k, losses[-1], loss_k)
        metric = new_metric
        losses.append(loss_k)
        history.append({"k": k, "loss": loss_k, "latent_seconds": t_latent,
                        "metric_seconds": t_metric, "loss_seconds": t_loss, **counts})
        if log_sink is not None:
            log_sink(history[-1])
    return TrainResult(metric=metric, latent_model=model, loss_trace=np.asarray(losses),
                       history=history, config=cfg, label_names=data.label_names)


def _trivial_latent_model(data: Dataset) -> LatentModel:
    """Each original example as its own latent, margins zero."""
    counts = np.bincount(data.labels, minlength=data.n_classes)
    order = np.argsort(data.labels, kind="stable")
    rank = np.empty(data.n, dtype=np.int64)
    rank[order] = np.arange(data.n)
    return LatentModel(
        latents=data.features[order],
        membership=rank,
        cluster_margins=np.zeros(data.n),
        per_class_counts=counts,
    )


def train_random_triplet_baseline(data: Dataset, cfg: TrainConfig) -> TrainResult:
    """Random-triplet SGD baseline over the original examples.

    Samples cfg.inner_iters triplets (x_i, x_j, x_k) with
    y_i = y_j != y_k uniformly from the data, runs the same proximal
    hinge SGD as the metric stage with a fixed margin of 1 anchored at the
    identity, and PSD-projects once at the end. With zero steps the
    identity metric is returned. The returned latent model is the trivial
    identity assignment. Data with fewer than 2 classes, or a class of
    fewer than 2 examples, has no triplet and raises ``ValueError``.
    """
    S = cfg.inner_iters
    if data.n_classes < 2:
        raise ValueError(f"random-triplet baseline needs at least 2 classes, "
                         f"got {data.n_classes}")
    counts = np.bincount(data.labels, minlength=data.n_classes)
    if (counts < 2).any():
        bad = int(np.argmin(counts))
        raise ValueError(f"class {data.label_names[bad]!r} has fewer than 2 examples")
    t0 = time.perf_counter()
    model = _trivial_latent_model(data)
    active_steps = ball_clips = 0
    if S == 0:
        metric = Metric.identity(data.d)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        y = data.labels
        class_rows = [data.class_indices(r) for r in range(data.n_classes)]
        other_rows = [np.nonzero(y != r)[0] for r in range(data.n_classes)]
        triplets = np.empty((S, 3), dtype=np.int64)
        for s in range(S):
            i = int(rng.integers(data.n))
            r = int(y[i])
            rows = class_rows[r]
            j = i
            while j == i:
                j = int(rows[rng.integers(rows.size)])
            k = int(other_rows[r][rng.integers(other_rows[r].size)])
            triplets[s] = (i, j, k)
        avg, active_steps, ball_clips, span = proximal_hinge_sgd(
            data.features, triplets, np.zeros(data.n), np.eye(data.d), cfg.lam, cfg.delta)
        metric = psd_project(avg, span)
    record = {"k": 1, "loss": None, "latent_seconds": 0.0,
              "metric_seconds": time.perf_counter() - t0, "loss_seconds": 0.0,
              "active_set_size": 0, "active_set_seconds": 0.0,
              "active_steps": active_steps, "ball_clips": ball_clips}
    return TrainResult(metric=metric, latent_model=model, loss_trace=np.empty(0),
                       history=[record], config=cfg, label_names=data.label_names)
