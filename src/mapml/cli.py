"""Command-line surface: train, eval, synth, bench, noise-sweep.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command is
deterministic given --seed (wall-clock timing columns aside). Relative
data paths that do not exist are also tried under $MAPML_DATA_DIR.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from .core import Dataset, Metric, TrainConfig
from .data_io import SyntheticSpec, generate_synthetic, load_csv, load_idx, \
    load_model, save_model
from .driver import train_mapml, train_random_triplet_baseline
from .evaluation import add_gaussian_noise, evaluate

KNOWN_METHODS = ("euclid", "mapml", "mapml-o", "random-triplet")


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
            raise ValueError("IDX input needs both --idx-images and --idx-labels")
        return load_idx(resolve_path(images), resolve_path(labels))
    data = get("data")
    if data is None:
        raise ValueError("no dataset given")
    return load_csv(resolve_path(data), args.label_column)


def _config_from_args(args, seed=None) -> TrainConfig:
    return TrainConfig(
        tau=args.tau,
        gamma=args.gamma,
        lam=args.lam,
        delta=args.delta,
        outer_iters=args.outer_iters,
        inner_iters=args.inner_iters,
        latent_em_iters=args.latent_em_iters,
        rng_seed=args.seed if seed is None else seed,
        active_set_cap=args.active_set_cap,
    )


def _trial_seeds(base_seed: int, trials: int) -> list:
    """Distinct per-trial seeds derived deterministically from the base."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(trials)]


def _add_train_flags(p):
    p.add_argument("--tau", type=float, default=10.0,
                   help="latent/original ratio in percent (default 10)")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="proximal weight of the latent stage (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0,
                   help="strong-convexity weight of the metric stage (default 10)")
    p.add_argument("--delta", type=float, default=100.0,
                   help="Frobenius-norm bound on the metric (default 100)")
    p.add_argument("--outer-iters", type=int, default=10,
                   help="alternations K (default 10)")
    p.add_argument("--inner-iters", type=int, default=10_000,
                   help="SGD steps S per metric stage (default 10000)")
    p.add_argument("--latent-em-iters", type=int, default=10,
                   help="assignment/update sweeps per latent stage (default 10)")
    p.add_argument("--active-set-cap", type=int, default=200_000,
                   help="max retained violated triplets (default 200000)")


def _add_data_flags(p):
    p.add_argument("--data", help="training data CSV")
    p.add_argument("--label-column", default="label",
                   help="label column name or index for CSV input (default 'label')")
    p.add_argument("--idx-images", help="IDX image file (alternative to --data)")
    p.add_argument("--idx-labels", help="IDX label file")


def _require_data(args, parser):
    if args.data is None and args.idx_images is None:
        parser.error("a dataset is required (--data or --idx-images/--idx-labels)")


def cmd_train(args, parser) -> int:
    _require_data(args, parser)
    data = _load_dataset(args)
    cfg = _config_from_args(args)
    def sink(rec):
        print("k={k} loss={loss:.6f} active={active_set_size} "
              "latent_s={latent_seconds:.3f} metric_s={metric_seconds:.3f}".format(**rec))
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


def cmd_eval(args, parser) -> int:
    if args.test is None and args.test_idx_images is None:
        parser.error("a test set is required (--test or --test-idx-images)")
    model = load_model(resolve_path(args.model))
    test = _load_dataset(args, prefix="test-") if args.test_idx_images \
        else load_csv(resolve_path(args.test), args.label_column)
    if args.refs == "latent":
        refs_x, refs_y = model.latents, model.latent_labels
        names = None
        if args.data or args.idx_images:
            names = _load_dataset(args).label_names
        report = evaluate(test, refs_x, refs_y, model.metric, k=args.k,
                          reference_mode="latent", refs_label_names=names)
    else:
        if args.data is None and args.idx_images is None:
            parser.error("--refs original requires the training data (--data)")
        train = _load_dataset(args)
        report = evaluate(test, train.features, train.labels, model.metric,
                          k=args.k, reference_mode="original",
                          refs_label_names=train.label_names)
    print(f"error_rate={report.error_rate:.6f} k={report.k} refs={report.reference_mode} "
          f"n_test={report.n_test} mean_query_s={report.mean_query_time:.6f}")
    return 0


def cmd_synth(args, parser) -> int:
    spec = SyntheticSpec(
        n_classes=args.classes,
        latents_per_class=args.latents_per_class,
        dim=args.dim,
        noise_sigma=args.sigma,
        samples_per_latent=args.samples_per_latent,
        seed=args.seed,
    )
    data, _ = generate_synthetic(spec)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([f"f{j}" for j in range(data.d)] + ["label"])
        original = data.label_names[data.labels]
        for i in range(data.n):
            w.writerow([repr(float(v)) for v in data.features[i]]
                       + [repr(float(original[i]))])
    print(f"wrote {data.n} x {data.d} examples ({data.n_classes} classes) to {args.out}")
    return 0


def _train_method(method, train_data, cfg, log_sink=None):
    """Train one method; None for euclid. mapml and mapml-o train alike."""
    if method == "euclid":
        return None
    if method == "random-triplet":
        return train_random_triplet_baseline(train_data, cfg)
    return train_mapml(train_data, cfg, log_sink=log_sink)


def _error_pct(method, res, train_data, test, k) -> float:
    """Test-set kNN error in percent of one method's trained result."""
    if method == "euclid":
        metric = Metric.identity(train_data.d)
        refs_x, refs_y = train_data.features, train_data.labels
    elif method == "mapml":
        metric = res.metric
        refs_x, refs_y = res.latent_model.latents, res.latent_model.latent_labels
    else:
        metric, refs_x, refs_y = res.metric, train_data.features, train_data.labels
    report = evaluate(test, refs_x, refs_y, metric, k=k,
                      reference_mode="latent" if method == "mapml" else "original",
                      refs_label_names=train_data.label_names)
    return report.error_rate * 100.0


def _sweep_inputs(args, parser):
    """Validated (methods, train data, test data, trial seeds) of bench and noise-sweep."""
    _require_data(args, parser)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods names no method")
    for m in methods:
        if m not in KNOWN_METHODS:
            parser.error(f"unknown method {m!r} (choose from {', '.join(KNOWN_METHODS)})")
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    train_data = _load_dataset(args)
    test = load_csv(resolve_path(args.test), args.label_column) if args.test \
        else train_data
    return methods, train_data, test, _trial_seeds(args.seed, args.trials)


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

    header = ["method", "tau", "trials", "mean_error_pct", "std_error_pct",
              "train_seconds", "latent_stage_seconds", "active_set_seconds",
              "metric_stage_seconds"]
    rows = []
    for tau in taus:
        # one training run per (trial, trainer); mapml and mapml-o share it
        cache = {}
        for method in methods:
            errs, t_train, t_latent, t_active, t_metric = [], [], [], [], []
            for trial, seed in enumerate(seeds):
                key = ("mapml" if method == "mapml-o" else method, trial)
                if key not in cache:
                    cfg = _config_from_args(args, seed=seed)
                    cfg.tau = tau
                    active = []  # active-set build seconds per outer iteration
                    t0 = time.perf_counter()
                    res = _train_method(method, train_data, cfg,
                                        lambda rec: active.append(rec["active_set_seconds"]))
                    cache[key] = (res, time.perf_counter() - t0, sum(active))
                res, seconds, active_seconds = cache[key]
                errs.append(_error_pct(method, res, train_data, test, args.k))
                t_train.append(seconds)
                if res is not None and res.wall_times.size:
                    t_latent.append(float(res.wall_times[:, 0].sum()))
                    t_metric.append(float(res.wall_times[:, 1].sum()))
                else:
                    t_latent.append(0.0)
                    t_metric.append(0.0)
                t_active.append(active_seconds)
            rows.append([
                method, f"{tau:g}", len(seeds),
                f"{np.mean(errs):.4f}", f"{np.std(errs):.4f}",
                f"{np.mean(t_train):.4f}", f"{np.mean(t_latent):.4f}",
                f"{np.mean(t_active):.4f}", f"{np.mean(t_metric):.4f}",
            ])
    _write_table(header, rows, args.csv_out)
    return 0


def _parse_sigma(token: str) -> float:
    if "/" in token:
        num, den = token.split("/", 1)
        if float(den) == 0.0:
            raise ValueError(f"sigma {token!r} divides by zero")
        return float(num) / float(den)
    return float(token)


def cmd_noise_sweep(args, parser) -> int:
    methods, train_data, test, seeds = _sweep_inputs(args, parser)
    sigmas = [_parse_sigma(t) for t in args.sigmas.split(",")]

    header = ["sigma", "method", "trials", "mean_error_pct", "std_error_pct"]
    rows = []
    for sigma in sigmas:
        errs = [[] for _ in methods]
        for seed in seeds:
            noisy = add_gaussian_noise(train_data, sigma, seed=seed + 1)
            trained = {}  # mapml and mapml-o share one training run
            for i, method in enumerate(methods):
                trainer = "mapml" if method == "mapml-o" else method
                if trainer not in trained:
                    trained[trainer] = _train_method(method, noisy,
                                                     _config_from_args(args, seed=seed))
                errs[i].append(_error_pct(method, trained[trainer], noisy, test, args.k))
        for method, e in zip(methods, errs):
            rows.append([f"{sigma:.6f}", method, len(seeds),
                         f"{np.mean(e):.4f}", f"{np.std(e):.4f}"])
    _write_table(header, rows, args.csv_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapml",
        description="Margin-preserving Mahalanobis metric learning with latent examples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a metric and latent examples")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", choices=["none", "random-triplet"], default="none",
                   help="train the random-triplet baseline instead")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="kNN error rate of a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", help="test data CSV")
    p.add_argument("--test-idx-images")
    p.add_argument("--test-idx-labels")
    _add_data_flags(p)
    p.add_argument("--refs", choices=["latent", "original"], default="latent")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data with known latents")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--latents-per-class", type=int, default=3)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--samples-per-latent", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="compare methods over seeded trials")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--test", help="held-out test CSV (defaults to the training data)")
    p.add_argument("--methods", default="euclid,mapml,mapml-o",
                   help="comma list of: " + ", ".join(KNOWN_METHODS))
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau-sweep", help="comma list of tau values (overrides --tau)")
    p.add_argument("--csv-out", help="also write the table as CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("noise-sweep", help="robustness to training noise")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--test", help="clean test CSV (defaults to the training data)")
    p.add_argument("--sigmas", default="50/255,100/255,150/255,200/255,250/255",
                   help="comma list; fractions like 50/255 are accepted")
    p.add_argument("--methods", default="mapml,random-triplet")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-out")
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
