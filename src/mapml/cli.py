"""Command-line surface: train, eval, synth, bench, noise-sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command is
deterministic given --seed (wall-clock timing columns aside). Relative
data paths that do not exist are also tried under $MAPML_DATA_DIR.
"""

import argparse
import csv
import dataclasses
import os
import sys
import time

import numpy as np

from .core import Dataset, Metric, TrainConfig, check_nonneg_finite
from .data_io import SyntheticSpec, generate_synthetic, load_csv, load_idx, \
    load_model, save_model
from .driver import train_mapml, train_random_triplet_baseline
from .evaluation import add_gaussian_noise, evaluate

KNOWN_METHODS = ("euclid", "mapml", "mapml-o", "random-triplet")

# flag and help of each config field the CLI sets; bench and noise-sweep
# seed each trial from --seed
TRAIN_FLAGS = {
    "tau": ("--tau", "latent/original ratio in percent"),
    "gamma": ("--gamma", "proximal weight of the latent stage"),
    "lam": ("--lambda", "strong-convexity weight of the metric stage"),
    "delta": ("--delta", "Frobenius-norm bound on the metric"),
    "outer_iters": ("--outer-iters", "alternations K"),
    "inner_iters": ("--inner-iters", "SGD steps S per metric stage"),
    "latent_em_iters": ("--latent-em-iters", "assignment/update sweeps per latent stage"),
    "active_set_cap": ("--active-set-cap", "max retained violated triplets"),
    "rng_seed": ("--seed", "seed of every random draw"),
}
SYNTH_FLAGS = {
    "n_classes": ("--classes", "number of classes"),
    "latents_per_class": ("--latents-per-class", "true latents per class"),
    "dim": ("--dim", "feature dimension"),
    "noise_sigma": ("--sigma", "standard deviation of the noise"),
    "samples_per_latent": ("--samples-per-latent", "examples drawn per latent"),
    "seed": ("--seed", "seed of every random draw"),
}


def resolve_path(path):
    """Return ``path``, falling back to $MAPML_DATA_DIR/path if that exists."""
    if path is None or os.path.exists(path):
        return path
    base = os.environ.get("MAPML_DATA_DIR")
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_dataset(args, prefix="") -> Dataset:
    """Load from --<prefix>data CSV or --<prefix>idx-images/--<prefix>idx-labels."""
    get = lambda name: getattr(args, (prefix + name).replace("-", "_"), None)
    images = get("idx-images")
    if images is not None:
        labels = get("idx-labels")
        if labels is None:
            raise ValueError(f"IDX input needs both --{prefix}idx-images "
                             f"and --{prefix}idx-labels")
        return load_idx(resolve_path(images), resolve_path(labels))
    return load_csv(resolve_path(get("data")), args.label_column)


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(**{name: getattr(args, name) for name in TRAIN_FLAGS})


def _trial_seeds(base_seed: int, trials: int) -> list:
    """Distinct per-trial seeds derived deterministically from the base."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(trials)]


def _add_field_flags(p, config_type, flags):
    """One flag per field of ``config_type`` in ``flags``, with the field's type and default."""
    fields = {field.name: field for field in dataclasses.fields(config_type)}
    for name, (flag, text) in flags.items():
        p.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                       type=fields[name].type, default=fields[name].default,
                       help=text + " (default %(default)s)")


def _add_data_flags(p):
    p.add_argument("--data", help="training data CSV")
    p.add_argument("--label-column", default="label",
                   help="label column name or index for CSV input (default 'label')")
    p.add_argument("--idx-images", help="IDX image file (alternative to --data)")
    p.add_argument("--idx-labels", help="IDX label file")


def _require_data(args, parser):
    if args.data is None and args.idx_images is None:
        parser.error("a dataset is required (--data or --idx-images/--idx-labels)")


def _check_out_path(path, flag):
    """Refuse an output ``path`` whose directory is missing or that is a directory.

    Commands call this before they load data or train, so a bad path costs
    no run. ``path`` None (an optional output not asked for) passes.
    """
    if path is None:
        return
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"{flag} {path!r} is a directory")


def cmd_train(args, parser) -> int:
    _require_data(args, parser)
    _check_out_path(args.out, "--out")
    data = _load_dataset(args)
    cfg = _config_from_args(args)
    def sink(rec):
        print("k={k} loss={loss:.6f} active={active_set_size} "
              "latent_s={latent_seconds:.3f} metric_s={metric_seconds:.3f} "
              "loss_s={loss_seconds:.3f}".format(**rec))
    t0 = time.perf_counter()
    if args.baseline == "random-triplet":
        result = train_random_triplet_baseline(data, cfg)
    else:
        result = train_mapml(data, cfg, log_sink=sink)
    elapsed = time.perf_counter() - t0
    save_model(args.out, result)
    trace_path = args.out + ".loss.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["k", "loss"])
        for k, loss in enumerate(result.loss_trace):
            w.writerow([k, repr(float(loss))])
    print(f"trained in {elapsed:.2f}s: n={data.n} d={data.d} "
          f"m={result.latent_model.m} -> {args.out}")
    return 0


def _score(refs, metric, latents, label_names, train, test, k):
    """kNN report of ``test`` under ``metric``: the one ``evaluate`` call.

    refs "latent" ranks ``latents`` (a LatentModel or ModelFile), "original"
    the examples of ``train``; ``label_names`` name either set's label codes.
    """
    if refs == "latent":
        refs_x, refs_y = latents.latents, latents.latent_labels
    else:
        refs_x, refs_y = train.features, train.labels
    return evaluate(test, refs_x, refs_y, metric, k=k, reference_mode=refs,
                    refs_label_names=label_names)


def _require_positive(args, parser, *flags):
    for flag in flags:
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def cmd_eval(args, parser) -> int:
    _require_positive(args, parser, "k")
    if args.test_data is None and args.test_idx_images is None:
        parser.error("a test set is required (--test or --test-idx-images)")
    model = load_model(resolve_path(args.model))
    test = _load_dataset(args, "test-")
    # latent label codes are named by the model; example codes by the data
    names = model.label_names if args.refs == "latent" else None
    train = None
    if names is None:
        if args.data is None and args.idx_images is None:
            if args.refs == "original":
                parser.error("--refs original requires the training data (--data)")
            raise ValueError("the model stores no label_names: pass its training "
                             "data (--data) to name the latent labels")
        train = _load_dataset(args)
        names = train.label_names
    report = _score(args.refs, model.metric, model, names, train, test, args.k)
    print(f"error_rate={report.error_rate:.6f} k={report.k} refs={report.reference_mode} "
          f"n_test={report.n_test} mean_query_s={report.mean_query_time:.6f} "
          f"p50_query_s={report.p50_query_time:.6f} p99_query_s={report.p99_query_time:.6f}")
    return 0


def cmd_synth(args, parser) -> int:
    _check_out_path(args.out, "--out")
    data, _ = generate_synthetic(
        SyntheticSpec(**{name: getattr(args, name) for name in SYNTH_FLAGS}))
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([f"f{j}" for j in range(data.d)] + ["label"])
        original = data.label_names[data.labels]
        for i in range(data.n):
            w.writerow([repr(float(v)) for v in data.features[i]]
                       + [repr(float(original[i]))])
    print(f"wrote {data.n} x {data.d} examples ({data.n_classes} classes) to {args.out}")
    return 0


def _run_trial(methods, cfg, train_data, test, k, euclid=None) -> list:
    """(error %, history, train seconds) of each method, trained on ``train_data``.

    Each distinct trainer runs once: mapml-o scores mapml's result over the
    original examples, and euclid trains nothing. ``euclid``, when given,
    is euclid's result on these inputs, which does not depend on ``cfg``:
    bench scores it once per run.
    """
    trained = {"euclid": (Metric.identity(train_data.d), None, [], 0.0)}
    out = []
    for method in methods:
        if method == "euclid" and euclid is not None:
            out.append(euclid)
            continue
        trainer = "mapml" if method == "mapml-o" else method
        if trainer not in trained:
            train = train_mapml if trainer == "mapml" else train_random_triplet_baseline
            t0 = time.perf_counter()
            res = train(train_data, cfg)
            trained[trainer] = (res.metric, res.latent_model, res.history,
                                time.perf_counter() - t0)
        metric, latents, history, seconds = trained[trainer]
        report = _score("latent" if method == "mapml" else "original", metric, latents,
                        train_data.label_names, train_data, test, k)
        out.append((report.error_rate * 100.0, history, seconds))
    return out


def _sweep_inputs(args, parser):
    """Validated (methods, train data, test data, trial seeds) of bench and noise-sweep."""
    _require_data(args, parser)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods names no method")
    for m in methods:
        if m not in KNOWN_METHODS:
            parser.error(f"unknown method {m!r} (choose from {', '.join(KNOWN_METHODS)})")
    _require_positive(args, parser, "trials", "k")
    _check_out_path(args.csv_out, "--csv-out")
    train_data = _load_dataset(args)
    test = _load_dataset(args, "test-") if args.test_data else train_data
    return methods, train_data, test, _trial_seeds(args.rng_seed, args.trials)


def _write_table(header, rows, csv_out):
    """Print the rows as an aligned table and, if asked, write them as CSV."""
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if csv_out:
        with open(csv_out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {csv_out}")


def cmd_bench(args, parser) -> int:
    methods, train_data, test, seeds = _sweep_inputs(args, parser)
    taus = [float(t) for t in args.tau_sweep.split(",")] if args.tau_sweep else [args.tau]
    # every swept config is checked before the first training run
    configs = [dataclasses.replace(_config_from_args(args), tau=tau) for tau in taus]
    # the identity metric over the same references and test set: one score
    euclid = _run_trial(["euclid"], configs[0], train_data, test, args.k)[0] \
        if "euclid" in methods else None

    header = ["method", "tau", "trials", "mean_error_pct", "std_error_pct",
              "train_seconds", "latent_stage_seconds", "active_set_seconds",
              "metric_stage_seconds"]
    rows = []
    for base in configs:
        trials = [_run_trial(methods, dataclasses.replace(base, rng_seed=seed),
                             train_data, test, args.k, euclid) for seed in seeds]
        for i, method in enumerate(methods):
            errs, histories, seconds = zip(*(trial[i] for trial in trials))
            stages = [np.mean([sum(rec[key] for rec in h) for h in histories])
                      for key in ("latent_seconds", "active_set_seconds", "metric_seconds")]
            rows.append([method, f"{base.tau:g}", len(seeds),
                         f"{np.mean(errs):.4f}", f"{np.std(errs):.4f}",
                         f"{np.mean(seconds):.4f}"] + [f"{t:.4f}" for t in stages])
    _write_table(header, rows, args.csv_out)
    return 0


def _parse_sigma(token: str) -> float:
    num, slash, den = token.partition("/")
    if slash and float(den) == 0.0:
        raise ValueError(f"sigma {token!r} divides by zero")
    return check_nonneg_finite(float(num) / float(den) if slash else float(num), "sigma")


def cmd_noise_sweep(args, parser) -> int:
    methods, train_data, test, seeds = _sweep_inputs(args, parser)
    # every sigma and the config are checked before the first training run
    sigmas = [_parse_sigma(t) for t in args.sigmas.split(",")]
    base = _config_from_args(args)

    header = ["sigma", "method", "trials", "mean_error_pct", "std_error_pct"]
    rows = []
    for sigma in sigmas:
        trials = [_run_trial(methods, dataclasses.replace(base, rng_seed=seed),
                             add_gaussian_noise(train_data, sigma, seed=seed + 1), test,
                             args.k) for seed in seeds]
        for i, method in enumerate(methods):
            errs = [trial[i][0] for trial in trials]
            rows.append([f"{sigma:.6f}", method, len(seeds),
                         f"{np.mean(errs):.4f}", f"{np.std(errs):.4f}"])
    _write_table(header, rows, args.csv_out)
    return 0


def _add_sweep_flags(p, methods):
    """The flags bench and noise-sweep share."""
    _add_data_flags(p)
    _add_field_flags(p, TrainConfig, TRAIN_FLAGS)
    p.add_argument("--test", dest="test_data", help="test CSV (defaults to the training data)")
    p.add_argument("--methods", default=methods,
                   help="comma list of: " + ", ".join(KNOWN_METHODS))
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--csv-out", help="also write the table as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapml",
        description="Margin-preserving Mahalanobis metric learning with latent examples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a metric and latent examples")
    _add_data_flags(p)
    _add_field_flags(p, TrainConfig, TRAIN_FLAGS)
    p.add_argument("--baseline", choices=["none", "random-triplet"], default="none",
                   help="train the random-triplet baseline instead")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="kNN error rate of a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", dest="test_data", help="test data CSV")
    p.add_argument("--test-idx-images")
    p.add_argument("--test-idx-labels")
    _add_data_flags(p)
    p.add_argument("--refs", choices=["latent", "original"], default="latent")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data with known latents")
    _add_field_flags(p, SyntheticSpec, SYNTH_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="compare methods over seeded trials")
    _add_sweep_flags(p, "euclid,mapml,mapml-o")
    p.add_argument("--tau-sweep", help="comma list of tau values (overrides --tau)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("noise-sweep", help="robustness to training noise")
    _add_sweep_flags(p, "mapml,random-triplet")
    p.add_argument("--sigmas", default="50/255,100/255,150/255,200/255,250/255",
                   help="comma list; fractions like 50/255 are accepted")
    p.set_defaults(func=cmd_noise_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError, IndexError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
