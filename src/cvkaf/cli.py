"""Command-line harness for the benchmark experiments.

Subcommands: ``preprocess`` (FFT feature cache), ``train`` (one model, one
seed), ``evaluate`` (accuracy of a saved model on a split), ``compare``
(grid search + multi-seed accuracy table across model variants),
``gradcheck`` (finite-difference verification), ``curves`` (merge trace
CSVs into a plot-ready convergence dataset).

Each option is declared once, in :func:`build_parser`, with its type and
its default (the library's, where the library owns it); ``cvkaf <command>
--help`` prints every default. A ``key = value`` config file passed with
``--config`` is applied once, in :func:`main`, as the chosen command's
defaults, so explicit flags win; an unreadable file, or a value in it
that its option rejects, is a parameter error naming the file. Each
training run writes a directory containing the resolved config snapshot,
the serialized model, the trace CSV, and a machine-readable summary;
wall-clock timestamps are confined to the sidecar ``run.log``, keeping the
other artifacts byte-reproducible under a fixed seed.

Exit codes: 0 success, 2 parameter errors, 3 data errors (an unreadable
cache, model or trace file included, and a model evaluated on a cache of
another feature width), 4 numeric errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from . import data as data_mod
from . import optim
from .activations import ACTIVATION_VARIANTS
from .errors import (
    CacheError,
    CvkafError,
    DataFormatError,
    NumericError,
    ParameterError,
)
from .gradcheck import DEFAULT_TOLERANCE, gradcheck_variant
from .kernels import DEFAULT_AXIS_RANGE, DEFAULT_POINTS_PER_AXIS, build_dictionary
from .network import (MODEL_NAMES, MODEL_VARIANTS, NetworkConfig, TrainObjective, build_model,
                      load_model, save_model)
from .optim import TrainConfig

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_DIR_ENV = "CVKAF_DATA_DIR"


# The option types raise ArgumentTypeError, which argparse reports with the
# option's name, whether the value came from a flag or a config line.
def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split("..")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a range like -2..2, got {text!r}") from exc


def _list_parser(kind, noun):
    """The option type reading a comma-separated list of ``kind``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(t) for t in text.split(",") if t != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
    return parse


_parse_floats = _list_parser(float, "numbers")
_parse_ints = _list_parser(int, "integers")


def _range_text(r) -> str:
    """A range as ``--dict-range`` spells it."""
    return f"{r[0]}..{r[1]}"


def _list_text(values) -> str:
    """A tuple as a comma-separated flag spells it."""
    return ",".join(str(v) for v in values)


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` UTF-8 config file ('#' starts a comment)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(command: argparse.ArgumentParser, path) -> None:
    """Make the config file's values the defaults of ``command``'s options;
    argparse reads each string with the option's type unless a flag is given."""
    file_values = read_config_file(path)
    options = {a.dest for a in command._actions if a.option_strings} - {"help"}
    unknown = set(file_values) - options
    if unknown:
        raise ParameterError(f"config file {path}: unknown config keys: {sorted(unknown)}")
    command.set_defaults(**file_values)


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
    if args.k_coeffs < 1:
        raise ParameterError(f"k_coeffs must be positive, got {args.k_coeffs}")
    out = args.out or f"{args.dataset}.cvkc"

    raw = data_mod.load_named_dataset(args.dataset, args.data_dir)
    ds = data_mod.build_complex_dataset(
        raw, k=args.k_coeffs, split=args.split, seed=args.seed, split_counts=args.split_counts
    )
    data_mod.cache_dataset(ds, out)
    print(f"dataset:  {args.dataset} ({raw.count} images, {raw.class_count} classes)")
    print(f"splits:   train={ds.idx_train.size} val={ds.idx_val.size} test={ds.idx_test.size}")
    print(f"features: {ds.feature_dim} complex coefficients per image")
    head = ", ".join(str(i) for i in ds.selected_indices[:10])
    print(f"selected: [{head}{', ...' if ds.feature_dim > 10 else ''}]")
    print(f"cache:    {out}")
    return EXIT_OK


def _train_one(ds, model_name, seed, c, args, out_dir: Path):
    """Shared train-and-save routine for ``train`` and ``compare``.

    ``ds`` is the dataset loaded from ``args.cache``; the path is recorded
    in the run's log and config snapshot.
    """
    config = TrainConfig(
        batch_size=args.batch_size, patience=args.patience, eval_every=args.eval_every,
        max_iterations=args.max_iterations, lr=args.lr, seed=seed,
    )
    dictionary = build_dictionary(args.dict_points, args.dict_range)
    model = build_model(
        model_name, ds.feature_dim, ds.class_count, seed,
        hidden_widths=args.hidden, dictionary=dictionary,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    log = RunLog(out_dir / "run.log")
    log.write(f"training {model_name} seed={seed} C={c} on {args.cache}")
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
        "cache": args.cache, "model": model_name, "seed": seed, "c": c,
        "batch_size": config.batch_size, "patience": config.patience,
        "eval_every": config.eval_every, "max_iterations": config.max_iterations,
        "lr": config.lr, "dict_points": args.dict_points,
        "dict_range": _range_text(args.dict_range), "hidden": _list_text(args.hidden),
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
    if args.cache is None:
        raise ParameterError("--cache is required (run 'cvkaf preprocess' first)")
    out_dir = Path(args.out or f"run_{args.model}_seed{args.seed}")
    ds = data_mod.load_cached(args.cache)
    _, trace, summary = _train_one(ds, args.model, args.seed, args.c, args, out_dir)
    print(f"model:      {args.model} (seed {args.seed}, C {args.c})")
    print(f"iterations: {summary['total_iterations']} ({summary['stop_reason']})")
    print(f"val acc:    {summary['val_accuracy']:.4f}")
    print(f"test acc:   {summary['test_accuracy']:.4f}")
    print(f"artifacts:  {out_dir}/model.cvkm, trace.csv, summary.json")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.model_file is None or args.cache is None:
        raise ParameterError("--model-file and --cache are required")
    if args.split not in ("train", "val", "test"):
        raise ParameterError(f"split must be train, val or test, got {args.split!r}")
    model = load_model(args.model_file)
    ds = data_mod.load_cached(args.cache)
    if ds.feature_dim != model.config.input_dim:
        raise CacheError(f"{args.cache} has {ds.feature_dim} features per row, but "
                         f"{args.model_file} takes {model.config.input_dim}")
    x, y = getattr(ds, f"{args.split}_xy")()
    acc = optim.evaluate(model, x, y)
    print(f"{args.split} accuracy: {acc:.6f} ({int(round(acc * y.size))}/{y.size})")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.cache is None:
        raise ParameterError("--cache is required (run 'cvkaf preprocess' first)")
    seeds, c_grid = args.seeds, args.c_grid
    if not seeds or not c_grid:
        raise ParameterError("--seeds and --c-grid each need at least one value")
    if min(c_grid) < 0:
        raise ParameterError(f"--c-grid entries must be nonnegative, got {c_grid}")
    out_dir = Path(args.out)
    ds = data_mod.load_cached(args.cache)  # one load serves every run
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict] = {}
    for model_name in args.models:
        try:
            results[model_name] = _compare_one_model(ds, model_name, args, out_dir)
        except CvkafError as exc:
            results[model_name] = {"error": f"{type(exc).__name__}: {exc}"}

    report = _render_comparison(results, seeds)
    print(report)
    (out_dir / "comparison.txt").write_text(report + "\n", encoding="utf-8")
    _write_json(out_dir / "comparison.json", {"seeds": list(seeds), "models": results})
    print(f"\nreport written to {out_dir}/comparison.txt and comparison.json")
    return EXIT_OK


def _compare_one_model(ds, model_name, args, out_dir: Path) -> dict:
    """Grid-search C on the first seed, then rerun the remaining seeds at it."""
    seeds = args.seeds
    accuracies: list[float] = []
    grid_accs: dict[str, float] = {}
    best_c, best_acc = None, -1.0
    for c in sorted(args.c_grid):  # ties go to the smaller C
        run_dir = out_dir / "runs" / model_name / f"seed{seeds[0]}_C{c:g}"
        _, _, summary = _train_one(ds, model_name, seeds[0], c, args, run_dir)
        grid_accs[f"{c:g}"] = summary["val_accuracy"]
        if summary["val_accuracy"] > best_acc:
            best_acc = summary["val_accuracy"]
            best_c = c
            accuracies = [summary["test_accuracy"]]
    for seed in seeds[1:]:
        run_dir = out_dir / "runs" / model_name / f"seed{seed}_C{best_c:g}"
        _, _, summary = _train_one(ds, model_name, seed, best_c, args, run_dir)
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
    n_seeds, tolerance = args.seeds, args.tolerance
    # an unknown name fails in the first check, where the network is built
    variants = tuple(ACTIVATION_VARIANTS) if args.model == "all" else (args.model,)
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
    out = Path(args.out)
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
            return json.loads(summary.read_text(encoding="utf-8"))["model"]
        except (ValueError, KeyError, TypeError):  # not UTF-8 JSON, or not an object
            pass
    return path.parent.name or path.stem


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parameter errors (exit 2)."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Ends each option's help with its declared default, if it has one."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def add_training_flags(p) -> None:
    """The training flags ``train`` and ``compare`` share, with the library's defaults."""
    p.add_argument("--lr", type=float, default=TrainConfig.lr, help="Adagrad learning rate")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size, help="batch size")
    p.add_argument("--patience", type=int, default=TrainConfig.patience,
                   help="iterations without a validation gain before stopping")
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every,
                   help="validation interval")
    p.add_argument("--max-iterations", type=int, default=TrainConfig.max_iterations,
                   help="iteration budget")
    p.add_argument("--dict-points", type=int, default=DEFAULT_POINTS_PER_AXIS,
                   help="dictionary points per axis")
    p.add_argument("--dict-range", type=_parse_range, default=_range_text(DEFAULT_AXIS_RANGE),
                   help="dictionary axis range")
    p.add_argument("--hidden", type=_parse_ints, default=_list_text(NetworkConfig.hidden_widths),
                   help="hidden widths")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvkaf",
        description="Complex-valued KAF networks: preprocessing, training, comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.add_argument("--config", help="key = value config file; flags win")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("preprocess", cmd_preprocess, "build the FFT feature cache for a dataset")
    p.add_argument("--dataset", default="mnist", help=" | ".join(data_mod.DATASET_NAMES))
    p.add_argument("--k-coeffs", type=int, default=data_mod.DEFAULT_K, help="coefficients to keep")
    p.add_argument("--seed", type=int, default=0, help="split permutation seed")
    p.add_argument("--data-dir", default=os.environ.get(DATA_DIR_ENV, "data"),
                   help=f"IDX file root, from ${DATA_DIR_ENV} when set")
    p.add_argument("--split", type=_parse_floats, default=_list_text(data_mod.DEFAULT_SPLIT),
                   help="train,val,test fractions")
    p.add_argument("--split-counts", type=_parse_ints,
                   help="absolute train,val,test sizes (overrides --split)")
    p.add_argument("--out", help="cache file path; <dataset>.cvkc if omitted")

    p = command("train", cmd_train, "train one model variant for one seed")
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--model", default="wlkaf_case1", help=" | ".join(MODEL_NAMES))
    p.add_argument("--seed", type=int, default=0, help="initialization and batch seed")
    p.add_argument("--c", type=float, default=TrainObjective.reg_weight, help="regularizer weight")
    add_training_flags(p)
    p.add_argument("--out", help="run directory; run_<model>_seed<seed> if omitted")

    p = command("evaluate", cmd_evaluate, "accuracy of a saved model on a split")
    p.add_argument("--model-file", help="model from 'train'")
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--split", default="test", help="train | val | test")

    p = command("compare", cmd_compare, "grid search + multi-seed comparison table")
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--models", type=lambda t: tuple(t.split(",")),
                   default=_list_text(MODEL_VARIANTS),
                   help="comma-separated model names, any that train accepts")
    p.add_argument("--seeds", type=_parse_ints, default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--c-grid", type=_parse_floats, default="0,1e-5,1e-4,1e-3",
                   help="regularization weights to search")
    add_training_flags(p)
    p.add_argument("--out", default="comparison", help="output directory")

    p = command("gradcheck", cmd_gradcheck, "finite-difference check of all backward rules")
    p.add_argument("--model", default="all", help=" | ".join(("all", *ACTIVATION_VARIANTS)))
    p.add_argument("--seeds", type=int, default=20, help="number of random seeds")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="relative tolerance")

    p = command("curves", cmd_curves, "merge trace CSVs into a convergence dataset")
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="trace.csv paths, optionally label=path")
    p.add_argument("--out", default="curves.csv", help="output CSV")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # parse again with the file's values as the command's defaults
            _apply_config_file(args.parser, args.config)
            try:
                args = parser.parse_args(argv)
            except ParameterError as exc:  # flags parsed once already: a file value failed
                raise ParameterError(f"config file {args.config}: {exc}") from exc
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
