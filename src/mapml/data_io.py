"""Dataset ingestion, synthetic data with known latents, model persistence.

IDX is the de-facto MNIST layout (big-endian headers, raw uint8 payload,
optionally gzip-wrapped). CSV carries precomputed feature vectors. Model
files are a little-endian binary payload plus a human-readable JSON
sidecar.
"""

import gzip
import json
import numbers
import operator
import re
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .core import Dataset, Metric, TrainConfig, check_label_names
from .latent import TIE_TOLERANCE, LatentModel, compute_margins

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MODEL_MAGIC = b"MAPMLBIN"
MODEL_FORMAT_VERSION = 1


def _open_binary(path):
    """Open a file for reading, transparently unwrapping gzip (by magic bytes)."""
    import io

    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip data ({exc})") from exc
    return io.BytesIO(raw)


def _read_exact(f, n: int, what: str) -> bytes:
    """The next ``n`` bytes of seekable ``f``; a header size past the end allocates nothing."""
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if n > left:
        raise ValueError(f"{what} truncated: unexpected end of payload, "
                         f"expected {n} bytes, got {left}")
    return f.read(n)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    Image layout (big-endian): u32 magic 0x00000803, u32 count, u32 rows,
    u32 cols, then count*rows*cols uint8 pixels row-major. Label layout:
    u32 magic 0x00000801, u32 count, then count uint8 labels. Pixels are
    scaled into [0, 1].
    """
    with _open_binary(images_path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "images header"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(
                f"images magic mismatch: expected {IDX_IMAGES_MAGIC:#010x}, got {magic:#010x}")
        payload = _read_exact(f, count * rows * cols, "images payload")
    with _open_binary(labels_path) as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "labels header"))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(
                f"labels magic mismatch: expected {IDX_LABELS_MAGIC:#010x}, got {magic:#010x}")
        label_payload = _read_exact(f, label_count, "labels payload")
    if label_count != count:
        raise ValueError(f"count mismatch: {count} images but {label_count} labels")
    features = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols) / 255.0
    labels = np.frombuffer(label_payload, dtype=np.uint8)
    return Dataset(features, labels)


def load_csv(path, label_column="label") -> Dataset:
    """Load a rectangular numeric CSV into a Dataset.

    ``label_column`` is a header name or a 0-based column index; a string
    that names no header column but reads as an integer (such as "2" or
    "-1") is an index. A header row is auto-detected when the first row
    fails numeric parsing; a named label column requires one. All cells
    must be numeric; ragged rows, non-numeric cells and non-finite labels
    are hard errors naming the (1-based) row.
    """
    import csv as _csv

    with open(path, newline="", encoding="utf-8") as f:
        rows = [row for row in _csv.reader(f) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def parse_row(row, rownum):
        try:
            return [float(cell) for cell in row]
        except ValueError:
            bad = next(c for c in row if not _is_float(c))
            raise ValueError(f"{path}: non-numeric value {bad!r} at row {rownum}") from None

    header = None
    start = 0
    if not all(_is_float(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        start = 1
        if len(rows) == 1:
            raise ValueError(f"{path}: header but no data rows")

    width = len(rows[start])
    if isinstance(label_column, str) and (label_column in (header or ())
                                          or not re.fullmatch(r"-?[0-9]+", label_column)):
        if header is None:
            raise ValueError(f"{path}: label column {label_column!r} needs a header row")
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not -width <= label_idx < width:
            raise ValueError(f"{path}: label column index {label_idx} out of range")
        label_idx %= width

    data = np.empty((len(rows) - start, width))
    for i in range(start, len(rows)):
        if len(rows[i]) != width:
            raise ValueError(
                f"{path}: ragged row {i + 1}: expected {width} cells, got {len(rows[i])}")
        data[i - start] = parse_row(rows[i], i + 1)
    labels = data[:, label_idx]
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        row = int(bad[0]) + start
        raise ValueError(f"{path}: non-finite label {rows[row][label_idx]!r} "
                         f"at row {row + 1}")
    features = np.delete(data, label_idx, axis=1)
    if features.shape[1] == 0:
        raise ValueError(f"{path}: no feature columns besides the label")
    return Dataset(features, labels)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


@dataclass
class SyntheticSpec:
    """Parameters of the latent generative model simulator."""

    n_classes: int = 2
    latents_per_class: int = 3
    dim: int = 5
    noise_sigma: float = 0.05
    samples_per_latent: int = 100
    seed: int = 0
    true_latents: np.ndarray = None

    def __post_init__(self):
        for name in ("n_classes", "latents_per_class", "dim", "samples_per_latent", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a Python int: products of narrow numpy integers overflow
            setattr(self, name, operator.index(value))
        if self.n_classes < 1 or self.latents_per_class < 1 or self.dim < 1 \
                or self.samples_per_latent < 1:
            raise ValueError("all synthetic counts must be >= 1")
        sigma = self.noise_sigma
        # written so that NaN fails it
        if not isinstance(sigma, numbers.Real) or isinstance(sigma, bool) \
                or not 0 <= sigma < np.inf:
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {sigma!r}")


def generate_synthetic(spec: SyntheticSpec):
    """Draw a dataset from the latent generative model.

    True latents are uniform in [0, 1]^dim unless given explicitly; each
    observation is its latent plus isotropic N(0, sigma^2) noise. Returns
    the dataset and the ground-truth latent model (memberships exact,
    margins computed under the identity metric).
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.n_classes * spec.latents_per_class
    if spec.true_latents is not None:
        latents = np.asarray(spec.true_latents, dtype=np.float64)
        if latents.shape != (m, spec.dim):
            raise ValueError(f"true_latents must have shape {(m, spec.dim)}, got {latents.shape}")
    else:
        latents = rng.uniform(size=(m, spec.dim))
    membership = np.repeat(np.arange(m, dtype=np.int64), spec.samples_per_latent)
    noise = rng.normal(0.0, spec.noise_sigma, size=(m * spec.samples_per_latent, spec.dim))
    truth = LatentModel(
        latents=latents,
        membership=membership,
        cluster_margins=np.zeros(m),
        per_class_counts=np.full(spec.n_classes, spec.latents_per_class, dtype=np.int64),
    )
    data = Dataset(latents[membership] + noise, truth.latent_labels[membership])
    truth = compute_margins(data, truth, Metric.identity(spec.dim))
    return data, truth


@dataclass
class ModelFile:
    """A trained model as loaded from disk.

    ``label_names[c]`` is the training label value of latent label code c,
    when the sidecar carries it.
    """

    format_version: int
    metric: Metric
    latents: np.ndarray
    latent_labels: np.ndarray
    config: TrainConfig = None
    loss_trace: np.ndarray = None
    label_names: np.ndarray = None


def save_model(path, result) -> None:
    """Write a trained model: binary payload plus a JSON metadata sidecar.

    Payload layout, all little-endian: 8-byte magic "MAPMLBIN", u32
    format version, u32 d, u32 m, d*d f64 metric entries row-major, m*d
    f64 latent entries row-major, m u32 latent labels. The sidecar (same
    path with ".meta" appended) echoes the config and loss trace, and
    carries the training label values behind the latent label codes when
    they are numeric.
    """
    metric = result.metric
    latents = np.ascontiguousarray(result.latent_model.latents, dtype=np.float64)
    labels = np.ascontiguousarray(result.latent_model.latent_labels, dtype="<u4")
    d = metric.dim
    m = latents.shape[0]
    names = result.label_names
    if names is not None and np.asarray(names).dtype.kind not in "iuf":
        names = None  # the sidecar stores numeric label values only
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<III", MODEL_FORMAT_VERSION, d, m))
        f.write(np.ascontiguousarray(metric.matrix, dtype="<f8").tobytes())
        f.write(latents.astype("<f8").tobytes())
        f.write(labels.tobytes())
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": d,
        "m": m,
        "config": asdict(result.config) if result.config is not None else None,
        "loss_trace": [float(v) for v in np.asarray(result.loss_trace).ravel()],
        "label_names": None if names is None else np.asarray(names).tolist(),
    }
    with open(str(path) + ".meta", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


def load_model(path) -> ModelFile:
    """Read a model written by :func:`save_model`; bit-exact round trip.

    Raises ``ValueError`` for a bad header (a format version below 1 or
    above the supported one, a dimension or latent count of 0), a short
    payload, bytes after the payload, a non-finite metric entry or latent,
    and a sidecar that is not a JSON object of known fields, whose
    ``format_version``, ``dim`` or ``m`` disagrees with the header, whose
    ``loss_trace`` is not a list of finite numbers, or whose
    ``label_names`` are not finite numbers in strictly increasing order,
    one at least per latent label code. A missing sidecar is tolerated. A config ``tie_tolerance`` key, which
    older sidecars carry, is accepted only at ``latent.TIE_TOLERANCE``.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, 8, "model header")
        if magic != MODEL_MAGIC:
            raise ValueError(f"model magic mismatch: expected {MODEL_MAGIC!r}, got {magic!r}")
        version, d, m = struct.unpack("<III", _read_exact(f, 12, "model header"))
        if version < 1:
            raise ValueError(f"model format version {version} is invalid; versions start at 1")
        if version > MODEL_FORMAT_VERSION:
            raise ValueError(
                f"model format version {version} is newer than supported "
                f"version {MODEL_FORMAT_VERSION}")
        if d == 0 or m == 0:
            raise ValueError(f"model header has dim {d} and {m} latents; "
                             f"a model has at least one of each")
        payload = _read_exact(f, d * d * 8 + m * d * 8 + m * 4, "model payload")
        extra = len(f.read())
        if extra:
            raise ValueError(f"{extra} trailing byte(s) after the model payload")
    off = 0
    matrix = np.frombuffer(payload, dtype="<f8", count=d * d, offset=off).reshape(d, d)
    off += d * d * 8
    latents = np.frombuffer(payload, dtype="<f8", count=m * d, offset=off).reshape(m, d)
    if not np.isfinite(latents).all():
        raise ValueError("model latents contain non-finite entries")
    off += m * d * 8
    labels = np.frombuffer(payload, dtype="<u4", count=m, offset=off).astype(np.int64)

    config = None
    loss_trace = None
    label_names = None
    sidecar = str(path) + ".meta"
    try:
        with open(sidecar, "r", encoding="utf-8") as f:
            meta = json.load(f)
        if not isinstance(meta, dict):
            raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
        for key, value in (("format_version", version), ("dim", d), ("m", m)):
            if key in meta and (type(meta[key]) is not int or meta[key] != value):
                raise ValueError(
                    f"{key} is {meta[key]!r} but the model header says {value}")
        if meta.get("config") is not None:
            fields = meta["config"]
            # older sidecars carry the tie tolerance, now a constant
            if isinstance(fields, dict) and "tie_tolerance" in fields:
                fields = dict(fields)
                legacy = fields.pop("tie_tolerance")
                if legacy != TIE_TOLERANCE:
                    raise ValueError(
                        f"tie_tolerance is {legacy!r}, but models use {TIE_TOLERANCE}")
            config = TrainConfig(**fields)
        if meta.get("loss_trace") is not None:
            trace = meta["loss_trace"]
            if (not isinstance(trace, list) or any(type(v) not in (int, float) for v in trace)
                    or not np.isfinite(trace).all()):
                raise ValueError(f"loss_trace must be a list of finite numbers, got {trace!r}")
            loss_trace = np.asarray(trace, dtype=np.float64)
        names = meta.get("label_names")
        if names is not None:
            if not isinstance(names, list) or any(type(v) not in (int, float) for v in names):
                raise ValueError(f"label_names must be a list of numbers, got {names!r}")
            label_names = check_label_names(names, labels.max(initial=-1) + 1)
    except FileNotFoundError:
        pass
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model sidecar {sidecar}: {exc}") from None
    return ModelFile(
        format_version=version,
        metric=Metric(matrix.copy()),
        latents=latents.copy(),
        latent_labels=labels,
        config=config,
        loss_trace=loss_trace,
        label_names=label_names,
    )
