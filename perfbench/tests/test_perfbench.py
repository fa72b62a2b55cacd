"""Tests of the benchmark itself: generator, checker, tracer, spec and runs.

    python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import mapml  # noqa: E402
import spec  # noqa: E402
import surrogate  # noqa: E402
import workloads  # noqa: E402
from gauge import REFERENCE_S, Gauge  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def suite_conftest():
    """The acceptance suite's conftest, imported read-only under another name."""
    loader = importlib.util.spec_from_file_location(
        "acceptance_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_desk_generator_is_bitwise_the_acceptance_suites(suite_conftest):
    ours = surrogate.build_desk_surrogate()
    theirs = suite_conftest.build_desk_surrogate()
    for a, b in zip(ours, theirs):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert np.array_equal(a.label_names, b.label_names)


def test_checker_knn_matches_library_and_oracle(suite_conftest):
    rng = np.random.default_rng(5)
    refs = rng.integers(0, 3, size=(40, 3)).astype(float)  # many exact ties
    labels = rng.integers(0, 4, size=40)
    X = rng.integers(0, 3, size=(60, 3)).astype(float)
    identity = mapml.Metric.identity(3)
    got = workloads.knn_labels(identity.matrix, refs, labels, X, batch=7)
    for x, g in zip(X, got):
        assert g == suite_conftest.oracle_knn_euclidean(x, refs, labels, 3)
        assert g == mapml.knn_predict(x, refs, labels, identity, 3)


def test_gauge_scales_times_to_the_reference_speed():
    gauge = Gauge()
    assert gauge.read() > 0 and len(gauge.times) == len(gauge.readings) == 1
    gauge.times = [0.0, 10.0, 20.0]
    gauge.readings = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # readings within the window count; with none, the nearest one does
    got = gauge.scaled([(0.2, 0.5), (9.8, 10.0), (14.0, 14.5)])
    assert got == pytest.approx([0.3, 0.1, 0.25])


def _small_run():
    data, _ = mapml.generate_synthetic(mapml.SyntheticSpec(
        n_classes=3, latents_per_class=3, dim=6, noise_sigma=0.2, samples_per_latent=30,
        seed=4))
    cfg = mapml.TrainConfig(tau=10.0, outer_iters=2, inner_iters=200, rng_seed=1,
                            active_set_cap=300)
    return data, cfg


def test_traced_run_adds_up_and_matches_untraced():
    data, cfg = _small_run()
    plain = mapml.driver.train_mapml(data, cfg)
    originals = [getattr(mod, attr) for mod, attr, _, _ in TARGETS]
    tracer = Tracer("test")
    with tracer.installed():
        with tracer.span("driver.train_mapml") as root:
            traced = mapml.driver.train_mapml(data, cfg)
        mapml.evaluation.evaluate(data, traced.latent_model.latents,
                                  traced.latent_model.latent_labels, traced.metric,
                                  reference_mode="latent")
    assert [getattr(mod, attr) for mod, attr, _, _ in TARGETS] == originals
    assert traced.loss_trace.tobytes() == plain.loss_trace.tobytes()
    assert traced.metric.matrix.tobytes() == plain.metric.matrix.tobytes()

    values = workloads.per_layer(tracer, root.id, root.duration, traced.latent_model.m)
    parts = sum(values[name] for name in spec.TRAIN_PARTITION)
    assert parts == pytest.approx(root.duration, rel=1e-9)
    assert values["core.loss_calls"] == cfg.outer_iters + 1
    assert values["metric.sgd_steps"] == cfg.outer_iters * cfg.inner_iters
    assert values["metric.active_set_capped_builds"] == cfg.outer_iters
    assert values["metric.active_set_retained"] == cfg.outer_iters * cfg.active_set_cap
    names = {s.name for s in tracer.spans}
    assert {"latent.init_latents", "metric.build_active_set", "core.pairwise_mahalanobis_sq",
            "evaluation.evaluate"} <= names
    assert all(s.parent < s.id and s.run == "test" for s in tracer.spans)


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        committed = json.load(f)
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for w in committed["workloads"]:
        assert name.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
        seen.add(w["name"])
    for m in committed["end_to_end"] + committed["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in (
            "higher", "lower")
        assert m["name"] not in seen
        seen.add(m["name"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in committed["end_to_end"])}]
    assert set(workloads.WORKLOADS) == {w["name"] for w in committed["workloads"]}
    assert set(spec.TRAIN_PARTITION) <= {m["name"] for m in committed["per_layer"]}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", [name for name, _ in spec.WORKLOADS])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                 "--smoke"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert {n: u for n, u, *_ in wanted} == {n: m["unit"] for n, m in
                                              result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "desk-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
