"""Persisting and reloading trained models.

Models are written as a small binary payload (metric, latent examples,
latent labels) plus a human-readable JSON sidecar carrying the config and
loss trace. The binary round trip is bit-exact, which keeps regression
comparisons trivial.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from mapml import (SyntheticSpec, TrainConfig, evaluate, generate_synthetic,
                   load_model, save_model, train_mapml)

true_latents = np.array([
    [0.2, 0.2, 0.2, 0.2, 0.2],
    [0.4, 0.1, 0.3, 0.2, 0.3],
    [0.2, 0.4, 0.2, 0.4, 0.2],
    [0.8, 0.8, 0.8, 0.8, 0.8],
    [0.6, 0.9, 0.7, 0.8, 0.7],
    [0.8, 0.6, 0.9, 0.7, 0.9],
])
data, truth = generate_synthetic(SyntheticSpec(
    n_classes=2, latents_per_class=3, dim=5, noise_sigma=0.05,
    samples_per_latent=80, seed=5, true_latents=true_latents))
cfg = TrainConfig(tau=2.5, outer_iters=4, inner_iters=1500, rng_seed=1)
result = train_mapml(data, cfg)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.mapml"
    save_model(path, result)
    print(f"wrote {path} ({path.stat().st_size} bytes) and sidecar {path}.meta")

    loaded = load_model(path)
    assert np.array_equal(loaded.metric.matrix, result.metric.matrix)
    assert np.array_equal(loaded.latents, result.latent_model.latents)
    print("binary round trip is bit-exact")

    meta = json.loads(Path(str(path) + ".meta").read_text())
    print("\nsidecar contents:")
    print("  config echo:", {k: meta["config"][k] for k in ("tau", "lam", "delta")})
    print("  loss trace:", [round(v, 2) for v in meta["loss_trace"]])

report = evaluate(data, loaded.latents, loaded.latent_labels, loaded.metric, k=3)
print(f"\n3-NN with the reloaded model: error={report.error_rate:.3f} "
      f"over {report.n_test} points")
print("\nthe CLI writes the same format: mapml train --data d.csv --out model.mapml")
