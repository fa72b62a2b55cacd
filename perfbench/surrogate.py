"""Benchmark-owned copy of the 10k x 64 desk-surrogate generator.

:func:`build_desk_surrogate` draws the class geometry (per-class centres
and latent examples) and then the samples from one generator stream,
exactly as the acceptance suite's generator of the same name does; with
equal arguments both return bitwise-equal datasets. :func:`desk_geometry`
and :func:`desk_samples` are its two halves, so further rows from the same
distribution can be drawn from another stream.
"""

import numpy as np

from mapml import Dataset

DESK_SEED = 777


def desk_geometry(rng, n_classes=10, latents_per_class=12, d_signal=16):
    """Per-class latent examples in the signal subspace and their labels."""
    centers = rng.normal(0.0, 0.45, size=(n_classes, d_signal))
    lat = centers[:, None, :] + rng.normal(0.0, 0.25,
                                           size=(n_classes, latents_per_class, d_signal))
    return lat.reshape(-1, d_signal), np.repeat(np.arange(n_classes), latents_per_class)


def desk_samples(rng, lat, lab, n, d_noise=48):
    """``n`` rows: a latent plus signal noise, then pure-noise dimensions."""
    pick = rng.integers(0, lat.shape[0], size=n)
    sig = lat[pick] + rng.normal(0.0, 0.15, size=(n, lat.shape[1]))
    noise = 0.5 + rng.normal(0.0, 0.7, size=(n, d_noise))
    return np.concatenate([sig, noise], axis=1), lab[pick]


def build_desk_surrogate(n_train=10_000, n_test=2_000, d_signal=16, d_noise=48,
                         n_classes=10, latents_per_class=12, seed=DESK_SEED):
    """(train, test) Datasets of the desk surrogate.

    Classes live in the first ``d_signal`` dimensions as clusters around
    per-class latent examples; the remaining ``d_noise`` dimensions carry
    uninformative noise, so Euclidean kNN suffers while a learned metric
    can recover the signal subspace.
    """
    rng = np.random.default_rng(seed)
    lat, lab = desk_geometry(rng, n_classes, latents_per_class, d_signal)
    X, y = desk_samples(rng, lat, lab, n_train + n_test, d_noise)
    return Dataset(X[:n_train], y[:n_train]), Dataset(X[n_train:], y[n_train:])
