"""Dataset ingestion, synthetic data with known latents, model persistence.

IDX is the de-facto MNIST layout (big-endian headers, raw uint8 payload,
optionally gzip-wrapped). CSV carries precomputed feature vectors. Model
files are a little-endian binary payload plus a human-readable JSON
sidecar. A binary file is read once; each header and payload is a slice
of what was read, bounds checked first, and the payload must end the file.
"""

import gzip
import json
import math
import re
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .core import Dataset, Metric, TrainConfig, check_int_fields, check_label_names, \
    check_nonneg_finite, frozen
from .latent import TIE_TOLERANCE, LatentModel, compute_margins

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MODEL_MAGIC = b"MAPMLBIN"
MODEL_FORMAT_VERSION = 1


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``, gzip unwrapped (recognised by its magic bytes)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: corrupt gzip data ({exc})") from exc
    return raw


def _take(raw: bytes, off: int, n: int, what: str, last: bool = False) -> memoryview:
    """``raw[off:off + n]``, a view checked before use; a ``last`` section must end ``raw``."""
    left = len(raw) - off
    if n > left:
        raise ValueError(f"{what} truncated: unexpected end of payload, "
                         f"expected {n} bytes, got {left}")
    if last and left > n:
        raise ValueError(f"{left - n} trailing byte(s) after the {what}")
    return memoryview(raw)[off:off + n]


def _idx_section(path, magic: int, n_dims: int, what: str):
    """``(dims, payload)`` of an IDX file: u32 magic, ``n_dims`` u32 sizes, prod(sizes) bytes.

    Big-endian; any other magic, a short section or bytes after the payload raise.
    """
    raw = _read_bytes(path)
    head = 4 + 4 * n_dims
    got, *dims = struct.unpack(f">{1 + n_dims}I", _take(raw, 0, head, f"{what} header"))
    if got != magic:
        raise ValueError(f"{what} magic mismatch: expected {magic:#010x}, got {got:#010x}")
    return dims, _take(raw, head, math.prod(dims), f"{what} payload", last=True)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    Image layout (big-endian): u32 magic 0x00000803, u32 count, u32 rows,
    u32 cols, then count*rows*cols uint8 pixels row-major. Label layout:
    u32 magic 0x00000801, u32 count, then count uint8 labels. Each file,
    gzipped or not, ends with its payload. Pixels are scaled into [0, 1].
    """
    (count, rows, cols), payload = _idx_section(images_path, IDX_IMAGES_MAGIC, 3, "images")
    (label_count,), label_payload = _idx_section(labels_path, IDX_LABELS_MAGIC, 1, "labels")
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
    are hard errors naming the (1-based) row. A UTF-8 byte-order mark is skipped.
    """
    import csv as _csv

    with open(path, newline="", encoding="utf-8-sig") as f:
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
    """Parameters of the latent generative model simulator; the CLI's defaults.

    Counts are integers >= 1, ``seed`` is >= 0, ``noise_sigma`` finite and >= 0.
    """

    n_classes: int = 2
    latents_per_class: int = 3
    dim: int = 5
    noise_sigma: float = 0.05
    samples_per_latent: int = 100
    seed: int = 0
    true_latents: np.ndarray = None

    def __post_init__(self):
        check_int_fields(self, n_classes=1, latents_per_class=1, dim=1,
                         samples_per_latent=1, seed=0)
        check_nonneg_finite(self.noise_sigma, "noise_sigma")


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
    and a sidecar that is not a JSON object, that has a key save_model does
    not write, whose ``format_version``, ``dim`` or ``m`` disagrees with the
    header, whose ``loss_trace`` is not a list of finite numbers, or whose
    ``label_names`` are not finite numbers in strictly increasing order, one
    at least per latent label code. A missing sidecar is tolerated. A config
    ``tie_tolerance`` key, which older sidecars carry, is accepted only at
    ``latent.TIE_TOLERANCE``.

    The file is read once, header then payload. The metric matrix, the
    latents and the labels are :func:`frozen`; the first two are views of the payload.
    """
    with open(path, "rb") as f:
        header, payload = f.read(20), f.read()
    magic = bytes(_take(header, 0, 8, "model header"))
    if magic != MODEL_MAGIC:
        raise ValueError(f"model magic mismatch: expected {MODEL_MAGIC!r}, got {magic!r}")
    version, d, m = struct.unpack("<III", _take(header, 8, 12, "model header"))
    if version < 1:
        raise ValueError(f"model format version {version} is invalid; versions start at 1")
    if version > MODEL_FORMAT_VERSION:
        raise ValueError(f"model format version {version} is newer than supported "
                         f"version {MODEL_FORMAT_VERSION}")
    if d == 0 or m == 0:
        raise ValueError(f"model header has dim {d} and {m} latents; "
                         f"a model has at least one of each")
    _take(payload, 0, (d + m) * d * 8 + m * 4, "model payload", last=True)
    # views of the payload's own bytes: frozen, and aligned (offset 20 of one read is not)
    matrix = np.frombuffer(payload, dtype="<f8", count=d * d).reshape(d, d)
    latents = np.frombuffer(payload, dtype="<f8", count=m * d, offset=d * d * 8).reshape(m, d)
    if not np.isfinite(latents).all():
        raise ValueError("model latents contain non-finite entries")
    labels = frozen(np.frombuffer(payload, dtype="<u4", offset=len(payload) - 4 * m), np.int64)

    config = None
    loss_trace = None
    label_names = None
    sidecar = str(path) + ".meta"
    try:
        with open(sidecar, "r", encoding="utf-8") as f:
            meta = json.load(f)
        if not isinstance(meta, dict):
            raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
        unknown = meta.keys() - {"format_version", "dim", "m", "config", "loss_trace",
                                 "label_names"}
        if unknown:
            raise ValueError(f"unknown field(s) {sorted(unknown)}")
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
        metric=Metric(matrix),
        latents=frozen(latents, np.float64),
        latent_labels=labels,
        config=config,
        loss_trace=loss_trace,
        label_names=label_names,
    )
