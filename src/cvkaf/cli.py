"""Command-line harness for the benchmark experiments.

Subcommands: ``preprocess`` (FFT feature cache), ``train`` (one model, one
seed), ``evaluate`` (accuracy of a saved model on a split), ``compare``
(grid search + multi-seed accuracy table across model variants),
``gradcheck`` (finite-difference verification), ``curves`` (merge trace
CSVs into a plot-ready convergence dataset).

Every option can also come from a ``key = value`` config file passed with
``--config``; explicit command-line flags win. Each training run writes a
directory containing the resolved config snapshot, the serialized model,
the trace CSV, and a machine-readable summary; wall-clock timestamps are
confined to the sidecar ``run.log``, keeping the other artifacts
byte-reproducible under a fixed seed.

Exit codes: 0 success, 2 parameter errors, 3 data errors, 4 numeric errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import optim
from .errors import (
    CacheError,
    CvkafError,
    DataFormatError,
    NumericError,
    ParameterError,
)
from .gradcheck import GRADCHECK_VARIANTS, gradcheck_variant
from .kernels import build_dictionary
from .network import MODEL_VARIANTS, TrainObjective, build_model, load_model, save_model

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_DIR_ENV = "CVKAF_DATA_DIR"


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split("..")
        return float(lo), float(hi)
    except ValueError as exc:
        raise ParameterError(f"expected a range like -2..2, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t != "")
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` UTF-8 config file ('#' starts a comment)."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill argparse values from the config file where flags were omitted."""
    if not getattr(args, "config", None):
        return
    file_values = read_config_file(args.config)
    unknown = set(file_values) - set(vars(args))
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for key, text in file_values.items():
        if getattr(args, key) is None:
            setattr(args, key, text)


def _resolved(args: argparse.Namespace, key: str, default, parse):
    value = getattr(args, key, None)
    if value is None:
        return default
    try:
        if isinstance(value, str) and parse is not str:
            return parse(value)
        return parse(value) if parse in (int, float) else value
    except ValueError as exc:
        raise ParameterError(f"cannot read {key} = {value!r}") from exc


class RunLog:
    """Sidecar log; the only artifact that carries timestamps."""

    def __init__(self, path):
        self.path = Path(path)
        self.t0 = time.time()
        self.path.write_text("", encoding="utf-8")

    def write(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{stamp} (+{time.time() - self.t0:8.1f}s) {message}\n")


def _write_config_snapshot(path, values: dict) -> None:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    _apply_config_file(args)
    dataset = _resolved(args, "dataset", "mnist", str)
    k = _resolved(args, "k_coeffs", 100, int)
    seed = _resolved(args, "seed", 0, int)
    data_dir = _resolved(args, "data_dir", None, str)
    out = _resolved(args, "out", f"{dataset}.cvkc", str)
    split_counts = _resolved(args, "split_counts", None, _parse_ints)
    split = _resolved(args, "split", (0.8, 0.1, 0.1), _parse_floats)
    if k < 1:
        raise ParameterError(f"k_coeffs must be positive, got {k}")

    raw = data_mod.load_named_dataset(dataset, data_dir or _default_data_dir())
    ds = data_mod.build_complex_dataset(
        raw, k=k, split=split, seed=seed, split_counts=split_counts
    )
    data_mod.cache_dataset(ds, out)
    print(f"dataset:  {dataset} ({raw.count} images, {raw.class_count} classes)")
    print(f"splits:   train={ds.idx_train.size} val={ds.idx_val.size} test={ds.idx_test.size}")
    print(f"features: {ds.feature_dim} complex coefficients per image")
    head = ", ".join(str(i) for i in ds.selected_indices[:10])
    print(f"selected: [{head}{', ...' if ds.feature_dim > 10 else ''}]")
    print(f"cache:    {out}")
    return EXIT_OK


def _default_data_dir() -> str:
    import os

    return os.environ.get(DATA_DIR_ENV, "data")


def _train_one(ds, cache_path, model_name, seed, c, args, out_dir: Path):
    """Shared train-and-save routine for ``train`` and ``compare``.

    ``ds`` is the dataset loaded from ``cache_path``; the path is recorded
    in the run's log and config snapshot.
    """
    dict_points = _resolved(args, "dict_points", 8, int)
    dict_range = _resolved(args, "dict_range", (-2.0, 2.0), _parse_range)
    hidden = _resolved(args, "hidden", (100, 100, 100), _parse_ints)
    config = optim.TrainConfig(
        batch_size=_resolved(args, "batch_size", 40, int),
        patience=_resolved(args, "patience", 1000, int),
        eval_every=_resolved(args, "eval_every", 50, int),
        max_iterations=_resolved(args, "max_iterations", 20000, int),
        lr=_resolved(args, "lr", 0.01, float),
        seed=seed,
    )
    dictionary = build_dictionary(dict_points, dict_range)
    model = build_model(
        model_name, ds.feature_dim, ds.class_count, seed,
        hidden_widths=hidden, dictionary=dictionary,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    log = RunLog(out_dir / "run.log")
    log.write(f"training {model_name} seed={seed} C={c} on {cache_path}")
    trace = optim.train(
        model, ds.train_xy(), ds.val_xy(), config, TrainObjective("cross_entropy", c)
    )
    log.write(
        f"stopped after {trace.total_iterations} iterations "
        f"({trace.stop_reason}), best val acc {trace.best_val_accuracy:.4f} "
        f"at iteration {trace.best_iteration}"
    )
    val_acc = trace.best_val_accuracy  # train left the model at this checkpoint
    test_acc = optim.evaluate(model, *ds.test_xy())
    log.write(f"final checkpoint: val {val_acc:.4f}, test {test_acc:.4f}")

    save_model(out_dir / "model.cvkm", model)
    optim.write_trace_csv(trace, out_dir / "trace.csv")
    snapshot = {
        "cache": str(cache_path), "model": model_name, "seed": seed, "c": c,
        "batch_size": config.batch_size, "patience": config.patience,
        "eval_every": config.eval_every, "max_iterations": config.max_iterations,
        "lr": config.lr, "dict_points": dict_points,
        "dict_range": f"{dict_range[0]}..{dict_range[1]}",
        "hidden": ",".join(str(h) for h in hidden),
    }
    _write_config_snapshot(out_dir / "config.txt", snapshot)
    summary = {
        "model": model_name, "seed": seed, "c": c,
        "best_iteration": trace.best_iteration,
        "total_iterations": trace.total_iterations,
        "stop_reason": trace.stop_reason,
        "val_accuracy": val_acc, "test_accuracy": test_acc,
    }
    _write_json(out_dir / "summary.json", summary)
    return model, trace, summary


def cmd_train(args) -> int:
    _apply_config_file(args)
    cache = _resolved(args, "cache", None, str)
    if cache is None:
        raise ParameterError("--cache is required (run 'cvkaf preprocess' first)")
    model_name = _resolved(args, "model", "wlkaf_case1", str)
    seed = _resolved(args, "seed", 0, int)
    c = _resolved(args, "c", 0.0, float)
    out_dir = Path(_resolved(args, "out", f"run_{model_name}_seed{seed}", str))
    ds = data_mod.load_cached(cache)
    _, trace, summary = _train_one(ds, cache, model_name, seed, c, args, out_dir)
    print(f"model:      {model_name} (seed {seed}, C {c})")
    print(f"iterations: {summary['total_iterations']} ({summary['stop_reason']})")
    print(f"val acc:    {summary['val_accuracy']:.4f}")
    print(f"test acc:   {summary['test_accuracy']:.4f}")
    print(f"artifacts:  {out_dir}/model.cvkm, trace.csv, summary.json")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _apply_config_file(args)
    model_file = _resolved(args, "model_file", None, str)
    cache = _resolved(args, "cache", None, str)
    split = _resolved(args, "split", "test", str)
    if model_file is None or cache is None:
        raise ParameterError("--model-file and --cache are required")
    if split not in ("train", "val", "test"):
        raise ParameterError(f"split must be train, val or test, got {split!r}")
    model = load_model(model_file)
    ds = data_mod.load_cached(cache)
    x, y = getattr(ds, f"{split}_xy")()
    acc = optim.evaluate(model, x, y)
    print(f"{split} accuracy: {acc:.6f} ({int(round(acc * y.size))}/{y.size})")
    return EXIT_OK


def cmd_compare(args) -> int:
    _apply_config_file(args)
    cache = _resolved(args, "cache", None, str)
    if cache is None:
        raise ParameterError("--cache is required (run 'cvkaf preprocess' first)")
    models = _resolved(args, "models", MODEL_VARIANTS, lambda t: tuple(t.split(",")))
    seeds = _resolved(args, "seeds", (0, 1, 2, 3, 4), _parse_ints)
    c_grid = _resolved(args, "c_grid", (0.0, 1e-5, 1e-4, 1e-3), _parse_floats)
    if not seeds or not c_grid:
        raise ParameterError("--seeds and --c-grid each need at least one value")
    if min(c_grid) < 0:
        raise ParameterError(f"--c-grid entries must be nonnegative, got {c_grid}")
    out_dir = Path(_resolved(args, "out", "comparison", str))
    ds = data_mod.load_cached(cache)  # one load serves every run
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict] = {}
    for model_name in models:
        try:
            results[model_name] = _compare_one_model(
                ds, cache, model_name, seeds, c_grid, args, out_dir
            )
        except CvkafError as exc:
            results[model_name] = {"error": f"{type(exc).__name__}: {exc}"}

    report = _render_comparison(results, seeds)
    print(report)
    (out_dir / "comparison.txt").write_text(report + "\n", encoding="utf-8")
    _write_json(out_dir / "comparison.json", {"seeds": list(seeds), "models": results})
    print(f"\nreport written to {out_dir}/comparison.txt and comparison.json")
    return EXIT_OK


def _compare_one_model(ds, cache, model_name, seeds, c_grid, args, out_dir: Path) -> dict:
    """Grid-search C on the first seed, then rerun the remaining seeds at it."""
    accuracies: list[float] = []
    grid_accs: dict[str, float] = {}
    best_c, best_acc = None, -1.0
    for c in sorted(c_grid):  # ties go to the smaller C
        run_dir = out_dir / "runs" / model_name / f"seed{seeds[0]}_C{c:g}"
        _, _, summary = _train_one(ds, cache, model_name, seeds[0], c, args, run_dir)
        grid_accs[f"{c:g}"] = summary["val_accuracy"]
        if summary["val_accuracy"] > best_acc:
            best_acc = summary["val_accuracy"]
            best_c = c
            accuracies = [summary["test_accuracy"]]
    for seed in seeds[1:]:
        run_dir = out_dir / "runs" / model_name / f"seed{seed}_C{best_c:g}"
        _, _, summary = _train_one(ds, cache, model_name, seed, best_c, args, run_dir)
        accuracies.append(summary["test_accuracy"])
    mean = statistics.fmean(accuracies)
    std = statistics.stdev(accuracies) if len(accuracies) >= 2 else None
    return {
        "best_c": best_c,
        "val_accuracy_per_c": grid_accs,
        "test_accuracies": accuracies,
        "mean": mean,
        "std": std,
        "seed_count": len(accuracies),
    }


def _render_comparison(results: dict[str, dict], seeds) -> str:
    ok = {m: r for m, r in results.items() if "error" not in r}
    best_mean = max((r["mean"] for r in ok.values()), default=None)
    lines = [
        f"{'Model':<22} {'Test accuracy':<20} {'Best C':<10} Seeds",
        "-" * 62,
    ]
    for model_name, r in results.items():
        if "error" in r:
            lines.append(f"{model_name:<22} FAILED: {r['error']}")
            continue
        acc = f"{100 * r['mean']:.2f}"
        if r["std"] is not None:
            acc += f" +/- {100 * r['std']:.2f}"
        marker = " *" if best_mean is not None and r["mean"] == best_mean else ""
        lines.append(
            f"{model_name:<22} {acc + marker:<20} {r['best_c']:<10g} {r['seed_count']}"
        )
    lines.append("-" * 62)
    lines.append("* best mean accuracy")
    return "\n".join(lines)


def cmd_gradcheck(args) -> int:
    _apply_config_file(args)
    which = _resolved(args, "model", "all", str)
    n_seeds = _resolved(args, "seeds", 20, int)
    tolerance = _resolved(args, "tolerance", 1e-5, float)
    variants = GRADCHECK_VARIANTS if which == "all" else (which,)
    for v in variants:
        if v not in GRADCHECK_VARIANTS:
            raise ParameterError(
                f"unknown gradcheck variant {v!r}; choose from {GRADCHECK_VARIANTS}"
            )
    if n_seeds < 1:
        raise ParameterError(f"--seeds must be at least 1, got {n_seeds}")
    failures = []
    for variant in variants:
        report = gradcheck_variant(variant, 0, tolerance=tolerance)
        for seed in range(1, n_seeds):
            report.fold(gradcheck_variant(variant, seed, tolerance=tolerance))
        print("\n".join(report.lines()))
        if not report.passed:
            bad = [g for g, e in report.worst_by_group.items() if e > tolerance]
            failures.append(f"{variant} ({', '.join(bad)}: {report.worst:.2e})")
    if failures:
        raise NumericError(f"gradient check failed for {'; '.join(failures)}")
    print(f"all {len(variants)} variants within {tolerance:g} relative tolerance")
    return EXIT_OK


def cmd_curves(args) -> int:
    _apply_config_file(args)
    out = Path(_resolved(args, "out", "curves.csv", str))
    groups: dict[str, list[optim.TrainTrace]] = {}
    for spec in args.traces:
        label, _, path = spec.rpartition("=")
        path = Path(path)
        if not label:
            label = _trace_label(path)
        groups.setdefault(label, []).append(optim.read_trace_csv(path))

    steps = {t.eval_every for traces in groups.values() for t in traces}
    if len(steps) > 1:
        raise DataFormatError(
            f"traces disagree on the evaluation interval: {sorted(steps)}; "
            "curves requires a common eval_every"
        )
    all_iters = sorted({r.iteration for traces in groups.values() for t in traces
                        for r in t.records})
    labels = sorted(groups)
    header = ["iteration"]
    for label in labels:
        header += [f"{label}_mean_loss", f"{label}_std_loss"]
    rows = [",".join(header)]
    for it in all_iters:
        row = [str(it)]
        for label in labels:
            losses = [
                r.train_loss for t in groups[label] for r in t.records if r.iteration == it
            ]
            if losses:
                mean = statistics.fmean(losses)
                std = statistics.stdev(losses) if len(losses) >= 2 else 0.0
                row += [repr(mean), repr(std)]
            else:
                row += ["", ""]
        rows.append(",".join(row))
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    n_traces = sum(len(v) for v in groups.values())
    print(f"merged {n_traces} traces into {out} ({len(labels)} models, "
          f"{len(all_iters)} iteration points)")
    return EXIT_OK


def _trace_label(path: Path) -> str:
    summary = path.parent / "summary.json"
    if summary.exists():
        try:
            return json.loads(summary.read_text())["model"]
        except (json.JSONDecodeError, KeyError):
            pass
    return path.parent.name or path.stem


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def add_training_flags(p) -> None:
    """The training flags ``train`` and ``compare`` share; ``_train_one``
    holds their defaults."""
    p.add_argument("--lr")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--patience")
    p.add_argument("--eval-every", dest="eval_every")
    p.add_argument("--max-iterations", dest="max_iterations")
    p.add_argument("--dict-points", dest="dict_points")
    p.add_argument("--dict-range", dest="dict_range")
    p.add_argument("--hidden", help="hidden widths, e.g. 100,100,100")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvkaf",
        description="Complex-valued KAF networks: preprocessing, training, comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file; flags win")

    p = sub.add_parser("preprocess", help="build the FFT feature cache for a dataset")
    add_common(p)
    p.add_argument("--dataset", help="mnist | fashion_mnist | emnist_digits | latin_ocr | digits")
    p.add_argument("--k-coeffs", dest="k_coeffs", help="coefficients to keep (default 100)")
    p.add_argument("--seed")
    p.add_argument("--data-dir", dest="data_dir",
                   help=f"IDX file root (default ${DATA_DIR_ENV} or ./data)")
    p.add_argument("--split", help="train,val,test fractions (default 0.8,0.1,0.1)")
    p.add_argument("--split-counts", dest="split_counts",
                   help="absolute train,val,test sizes (overrides --split)")
    p.add_argument("--out", help="cache file path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one model variant for one seed")
    add_common(p)
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--model", help="|".join(MODEL_VARIANTS))
    p.add_argument("--seed")
    p.add_argument("--c", help="regularization weight (default 0)")
    add_training_flags(p)
    p.add_argument("--out", help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="accuracy of a saved model on a split")
    add_common(p)
    p.add_argument("--model-file", dest="model_file")
    p.add_argument("--cache")
    p.add_argument("--split", help="train | val | test (default test)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="grid search + multi-seed comparison table")
    add_common(p)
    p.add_argument("--cache")
    p.add_argument("--models", help="comma-separated variants (default all four)")
    p.add_argument("--seeds", help="comma-separated seeds (default 0,1,2,3,4)")
    p.add_argument("--c-grid", dest="c_grid", help="default 0,1e-5,1e-4,1e-3")
    add_training_flags(p)
    p.add_argument("--out", help="output directory (default ./comparison)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of all backward rules")
    add_common(p)
    p.add_argument("--model", help="activation variant or 'all'")
    p.add_argument("--seeds", help="number of random seeds (default 20)")
    p.add_argument("--tolerance", help="relative tolerance (default 1e-5)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("curves", help="merge trace CSVs into a convergence dataset")
    add_common(p)
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="trace.csv paths, optionally label=path")
    p.add_argument("--out", help="output CSV (default curves.csv)")
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (DataFormatError, CacheError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
