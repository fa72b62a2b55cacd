"""What the mapml benchmark measures: workloads, metrics, bounds, predictions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``). Its schema admits
no free text beyond each workload's ``why``, so the layer-to-end-to-end
predictions live in ``PER_LAYER`` here and are printed by
``run.py --describe``.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = (
    ("desk-train",
     "10k x 64 desk surrogate, m=1000, one outer iteration, active set over the 200k cap: "
     "O(m^3) triplet scans (active set, loss) dominate train_s, SGD does not"),
    ("wide-train",
     "d=784 generate_synthetic set, m=100, one outer iteration of 500 SGD steps, active set "
     "under the cap: SGD at d=784 dominates train_s; triplet-scan changes should not move it"),
    ("knn-query",
     "tau-5 desk model (m~500) trained in set-up, then timed evaluate and per-query "
     "knn_predict against 500 latents and 10k originals: the kNN query path"),
)

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. The
# 2-vCPU virtual machine they were set on changed speed by up to ~1.5x, for
# seconds or tens of seconds at a time. Every time is therefore scaled by a
# speed gauge read next to it (gauge.py), which cut the run-to-run spread
# of train_s and of the mean latencies by up to two thirds. The timings
# still get the largest bound allowed; set-up must have the largest. The
# query metrics are mean and p90 (p50 and p99 spread more), train_s is a
# mean and the throughputs are pooled.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("final_loss", "loss", "lower", 0.1),
    ("error_latent_pct", "%", "lower", 0.25),
    ("error_original_pct", "%", "lower", 0.1),
    ("query_latent_mean_us", "us", "lower", 0.25),
    ("query_latent_p90_us", "us", "lower", 0.25),
    ("query_original_mean_us", "us", "lower", 0.25),
    ("query_original_p90_us", "us", "lower", 0.25),
    ("eval_latent_qps", "1/s", "higher", 0.25),
    ("eval_original_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# (name, unit, better, prediction: which end-to-end metric it should move).
# Every "_s" time is a self time: the span minus its traced children.
PER_LAYER = (
    ("metric.active_set_s", "s", "lower",
     "train_s on desk-train, not on wide-train"),
    ("metric.triplets_scanned", "count", "lower",
     "train_s on desk-train, not on wide-train"),
    ("metric.active_set_retained", "count", "lower",
     "train_s on desk-train, not on wide-train"),
    ("metric.active_set_retained_ratio", "ratio", "higher",
     "train_s on desk-train, not on wide-train"),
    ("metric.active_set_capped_builds", "count", "lower",
     "train_s on desk-train, not on wide-train"),
    ("core.loss_s", "s", "lower", "train_s on desk-train"),
    ("core.loss_calls", "count", "lower", "train_s on desk-train"),
    ("metric.sgd_s", "s", "lower",
     "train_s on wide-train much more than on desk-train"),
    ("metric.sgd_steps", "count", "lower",
     "train_s on wide-train much more than on desk-train"),
    ("metric.sgd_us_per_step", "us", "lower",
     "train_s on wide-train much more than on desk-train"),
    ("latent.init_s", "s", "lower", "train_s on both training workloads"),
    ("latent.assign_s", "s", "lower",
     "train_s on both training workloads (self time of run_latent_stage)"),
    ("latent.update_s", "s", "lower", "train_s on both training workloads"),
    ("latent.margins_s", "s", "lower", "train_s on both training workloads"),
    ("metric.psd_s", "s", "lower", "train_s on wide-train (eigh is d^3)"),
    ("metric.stage_self_s", "s", "lower", "train_s on wide-train"),
    ("core.pairwise_s.active_set", "s", "lower",
     "train_s on desk-train: distances against scans inside the active set"),
    ("core.pairwise_s.loss", "s", "lower",
     "train_s on desk-train: distances against scans inside the loss"),
    ("core.pairwise_s.knn_predict", "s", "lower",
     "query_*_us on knn-query: distances against ranking inside knn_predict"),
    ("evaluation.mean_query_us.latent", "us", "lower",
     "eval_latent_qps on knn-query"),
    ("evaluation.mean_query_us.original", "us", "lower",
     "eval_original_qps on knn-query"),
    ("evaluation.index_build_s.latent", "s", "lower",
     "eval_latent_qps on knn-query"),
    ("evaluation.index_build_s.original", "s", "lower",
     "eval_original_qps on knn-query"),
    ("evaluation.knn_predict_s.latent", "s", "lower",
     "query_latent_mean_us and _p90_us on knn-query"),
    ("evaluation.knn_predict_s.original", "s", "lower",
     "query_original_mean_us and _p90_us on knn-query"),
    ("driver.self_s", "s", "lower",
     "train_s everywhere; time charged to no stage"),
    ("data_io.synth_s", "s", "lower", "setup_s on wide-train"),
    ("data_io.model_io_s", "s", "lower", "setup_s on knn-query"),
    ("trace.train_s", "s", "lower",
     "the traced train_s that the training self times above add up to"),
    ("trace.overhead_pct", "%", "lower",
     "none: traced train_s against untraced train_s"),
)

# The self times that partition one traced train_mapml call.
TRAIN_PARTITION = (
    "driver.self_s", "latent.init_s", "latent.assign_s", "latent.update_s",
    "latent.margins_s", "metric.active_set_s", "metric.sgd_s", "metric.psd_s",
    "metric.stage_self_s", "core.loss_s", "core.pairwise_s.active_set",
    "core.pairwise_s.loss",
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
