"""Command-line harness for the benchmark experiments.

Subcommands: ``preprocess`` (FFT feature cache), ``train`` (one model, one
seed), ``evaluate`` (accuracy of a saved model on a split), ``compare`` (a
(C, lr) search + multi-seed accuracy table across models), ``gradcheck``
(finite differences of every model ``train`` accepts, over the usable CPUs),
``report`` (the accuracy table and convergence CSV of a ``compare``
directory, from its ``config.txt``, which holds the cache's absolute path,
and the run directories it names; ``compare`` ends by calling it).

Each option is declared once, in :func:`build_parser`, with its default (the
library's, where the library owns it) and its type, which applies the
library's rule to one value; ``cvkaf <command> --help`` prints every default.
A ``key = value`` config file given with ``--config`` (a comment is a whole
line starting with '#') becomes the command's defaults in :func:`parse_command`
once the flags alone parse, so flags win; the command's one check of its
settings together, which reads no file, runs there too. So a settings error
exits 2 before any file is read or written, naming the config file if a value
from it, or that check, failed. Each training run writes a directory (config
snapshot, model, trace CSV, summary, timestamped ``run.log``), byte-reproducible
under a fixed seed except ``run.log`` and the trace's ``elapsed_seconds`` column.

Exit codes: 0 success, 2 parameter errors (only the batch and split sizes are
checked against the data, once read), 3 data errors (an unreadable cache or
one with an empty split, an unreadable model, run summary or trace file, a
``config.txt`` that ``compare --config`` refuses, an unwritable output, and a
model evaluated on a cache of another feature width), 4 numeric errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import statistics
import sys
import textwrap
import time
from pathlib import Path

from . import data as data_mod
from . import optim
from .activations import activation_named
from .errors import (
    CvkafError,
    DataFormatError,
    NumericError,
    ParameterError,
    check_int,
    check_number,
    describe,
)
from .gradcheck import ALL_MODELS, DEFAULT_TOLERANCE, gradcheck_variant
from .kernels import DEFAULT_AXIS_RANGE, DEFAULT_POINTS_PER_AXIS
from .network import (MODEL_VARIANTS, NetworkConfig, TrainObjective, bandwidth_split,
                      build_model, effective_parameter_count, load_model, parameter_count,
                      pre_activation_statistics, save_model)
from .optim import TrainConfig
from .pool import deal, usable_cpus

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


def _option_type(read, rule):
    """The option type applying the library rule ``rule`` to the text as ``read``
    reads it, or to the text itself if ``read`` cannot; the rule's ParameterError
    becomes argparse's type error."""
    def parse(text: str):
        try:
            value = read(text)
        except ValueError:
            value = text  # for the rule to refuse
        try:
            return rule(value)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _int_option(name, minimum, read=int):
    """The option type of an integer setting, or a list of them, checked as the library does."""
    rule = functools.partial(check_int, name, minimum=minimum)
    return _option_type(read, rule if read is int else lambda values: tuple(map(rule, values)))


_parse_lr = _option_type(float, lambda value: check_number("lr", value))
_parse_c = _option_type(float, lambda value: check_number("c", value, zero_ok=True))


def _model_option(*extra):
    """The type and help of a ``--model`` option taking ``extra`` names and every
    name ``train`` takes; an unknown name's message lists what the help lists."""
    names = (*extra, *ALL_MODELS)
    listed = " | ".join((*names, "wlkaf_case2:w1:w2..., case 2 at mixing weights "
                         "strictly between 0 and 1"))

    def rule(name):
        kind, _, weights = name.partition(":")
        if kind == "wlkaf_case2" and weights:  # case 2 at weights, by activation_named's rule
            activation_named(name)  # words their errors
        elif name not in names:
            raise ParameterError(f"unknown model {name!r}; choose from {listed}")
        return name
    return _option_type(str, rule), listed


_parse_model, _MODEL_HELP = _model_option()


def _list_parser(kind, noun):
    """The option type reading a comma-separated list of ``kind``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(t) for t in text.split(",") if t != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
    return parse


_parse_ints = _list_parser(int, "integers")
_parse_seed = _int_option("seed", 0)


def _range_text(r) -> str:
    """A range as ``--dict-range`` spells it."""
    return f"{r[0]}..{r[1]}"


def _list_text(values) -> str:
    """A tuple as a comma-separated flag spells it."""
    return ",".join(str(v) for v in values)


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` UTF-8 config file; a line starting with '#' (after blanks)
    is a comment, and a key given twice, in either spelling, is a parameter error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in entries:
            raise ParameterError(f"{path}: lines {entries[key][0]} and {lineno} both give {key!r}")
        entries[key] = lineno, value.strip()
    return {key: value for key, (_, value) in entries.items()}


def _apply_config_file(command: argparse.ArgumentParser, path) -> None:
    """Make the config file's values the defaults of ``command``'s options but ``--config``;
    argparse reads each string with the option's type unless a flag is given."""
    file_values = read_config_file(path)
    options = {a.dest for a in command._actions if a.option_strings} - {"help", "config"}
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
    out = args.out or f"{args.dataset}.cvkc"

    raw = data_mod.load_named_dataset(args.dataset, args.data_dir)
    ds = data_mod.build_complex_dataset(
        raw, k=args.k_coeffs, seed=args.seed, split_counts=args.split_counts
    )
    data_mod.cache_dataset(ds, out)
    print(f"dataset:  {args.dataset} ({raw.count} images, {raw.class_count} classes)")
    print("splits:   train={} val={} test={}".format(*ds.split_sizes))
    print(f"features: {ds.feature_dim} complex coefficients per image")
    head = ", ".join(str(i) for i in ds.selected_indices[:10])
    print(f"selected: [{head}{', ...' if ds.feature_dim > 10 else ''}]")
    print(f"cache:    {out}")
    return EXIT_OK


def _require(args, *flags) -> None:
    """Refuse ``args`` unless each of ``flags`` was given, by a flag or a config line."""
    missing = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        raise ParameterError(f"the following arguments are required: {', '.join(missing)}")


def _check_runs(args) -> None:
    """The settings check ``train`` and ``compare`` share: ``args.settings`` is the training
    config, whose seed and lr each run sets, and the dictionary, once the network flags
    pass together (each passed its option type alone; the cache gives the other sizes)."""
    _require(args, "--cache")
    config = TrainConfig(batch_size=args.batch_size, patience=args.patience,
                         eval_every=args.eval_every, max_iterations=args.max_iterations)
    args.settings = config, NetworkConfig(1, args.hidden, 1, dict_points=args.dict_points,
                                          dict_range=args.dict_range).dictionary


def _check_compare(args) -> None:
    """``compare``'s settings check: no list is empty or repeats a model, a seed or the
    :func:`_cell_name` of one of ``args.cells``, the sorted (C, lr) cells, C outer."""
    if not args.models or not args.seeds or not args.c_grid or not args.lr:
        raise ParameterError("--models, --seeds, --c-grid and --lr each need at least one value")
    args.cells = [(c, lr) for c in sorted(args.c_grid) for lr in sorted(args.lr)]
    for flag, values in (("--models", args.models), ("--seeds", args.seeds),
                         ("--c-grid x --lr", [_cell_name(*cell) for cell in args.cells])):
        if len(set(values)) != len(values):
            raise ParameterError(f"{flag} names an entry twice: {_list_text(values)}")
    _check_runs(args)


def _shared_settings(args) -> dict:
    """The cache's absolute path and the training flags but ``lr``, as config.txt spells them."""
    return {"cache": os.path.abspath(args.cache), "batch_size": args.batch_size,
            "patience": args.patience, "eval_every": args.eval_every,
            "max_iterations": args.max_iterations, "dict_points": args.dict_points,
            "dict_range": _range_text(args.dict_range), "hidden": _list_text(args.hidden)}


def _train_one(ds, model_name, seed, c, lr, args, out_dir: Path):
    """Shared train-and-save routine for ``train`` and ``compare``; returns
    the run's summary, as written to ``summary.json``.

    ``ds`` is the dataset loaded from ``args.cache``, whose path is recorded
    in the run's log and config snapshot; ``args.settings`` holds the training
    config and the dictionary (:func:`_check_runs`). A run that diverges still
    writes its artifacts, from the best checkpoint, and then raises its
    :class:`NumericError`.
    """
    config, dictionary = args.settings
    config = dataclasses.replace(config, seed=seed, lr=lr)
    model = build_model(model_name, ds.feature_dim, ds.class_count, seed,
                        hidden_widths=args.hidden, dictionary=dictionary)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = RunLog(out_dir / "run.log")
    log.write(f"training {model_name} seed={seed} C={c} lr={lr} on {args.cache}")
    error = None
    try:
        trace = optim.train(model, ds.train_xy(), ds.val_xy(), config,
                            TrainObjective("cross_entropy", c))
    except NumericError as exc:
        trace, error = exc.trace, exc
        log.write(f"numeric error at iteration {trace.total_iterations}: {exc}")
    log.write(f"stopped after {trace.total_iterations} iterations ({trace.stop_reason}), "
              f"best val acc {trace.best_val_accuracy:.4f} at iteration {trace.best_iteration}")
    val_acc = trace.best_val_accuracy  # train left the model at this checkpoint
    test_acc = optim.evaluate(model, *ds.test_xy())
    log.write(f"final checkpoint: val {val_acc:.4f}, test {test_acc:.4f}")

    save_model(out_dir / "model.cvkm", model)
    optim.write_trace_csv(trace, out_dir / "trace.csv")
    run = {"model": model_name, "seed": seed, "c": c, "lr": lr}
    _write_config_snapshot(out_dir / "config.txt", {**_shared_settings(args), **run})
    summary = {**run, "best_iteration": trace.best_iteration,
               "total_iterations": trace.total_iterations, "stop_reason": trace.stop_reason,
               "val_accuracy": val_acc, "test_accuracy": test_acc,
               "parameter_count": parameter_count(model),
               "effective_parameter_count": effective_parameter_count(model),
               "bandwidth_split": bandwidth_split(model),
               **pre_activation_statistics(model, ds.val_xy()[0])}
    if error is not None:
        summary["error"] = describe(error)
    _write_json(out_dir / "summary.json", summary)
    if error is not None:
        raise error
    return summary


def cmd_train(args) -> int:
    out_dir = Path(args.out or f"run_{args.model}_seed{args.seed}")
    ds = data_mod.load_cached(args.cache)
    optim.check_batch_size(args.settings[0], ds.split_sizes[0])
    summary = _train_one(ds, args.model, args.seed, args.c, args.lr, args, out_dir)
    print(f"model:      {args.model} (seed {args.seed}, C {args.c})")
    print(f"iterations: {summary['total_iterations']} ({summary['stop_reason']})")
    print(f"val acc:    {summary['val_accuracy']:.4f}")
    print(f"test acc:   {summary['test_accuracy']:.4f}")
    print(f"artifacts:  {out_dir}/model.cvkm, trace.csv, summary.json")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model_file)
    ds = data_mod.load_cached(args.cache)
    if ds.feature_dim != model.config.input_dim:
        raise DataFormatError(f"{args.cache} has {ds.feature_dim} features per row, but "
                              f"{args.model_file} takes {model.config.input_dim}")
    if ds.class_count != model.config.class_count:
        raise DataFormatError(f"{args.cache} has {ds.class_count} classes, but "
                              f"{args.model_file} scores {model.config.class_count}")
    x, y = getattr(ds, f"{args.split}_xy")()
    acc = optim.evaluate(model, x, y, processes=usable_cpus())
    print(f"{args.split} accuracy: {acc:.6f} ({int(round(acc * y.size))}/{y.size})")
    return EXIT_OK


def cmd_compare(args) -> int:
    models, seeds, cells = args.models, args.seeds, args.cells
    out_dir = Path(args.out)
    ds = data_mod.load_cached(args.cache)  # one load serves every run
    optim.check_batch_size(args.settings[0], ds.split_sizes[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_config_snapshot(out_dir / "config.txt", {
        **_shared_settings(args), "models": _list_text(models), "seeds": _list_text(seeds),
        "c_grid": _list_text(sorted(args.c_grid)), "lr": _list_text(sorted(args.lr))})

    # every (C, lr) cell on the first seed, then the other seeds at each model's best cell;
    # the runs of a stage are independent, so they spread over the usable CPUs
    attempt = functools.partial(_attempt, ds, args, out_dir)
    deal(attempt, [(m, seeds[0], *cell) for m in models for cell in cells],
         usable_cpus(), "compare")
    best = {m: _best_cell(out_dir, m, seeds[0], cells)[0] for m in models}
    deal(attempt, [(m, seed, *best[m]) for m in models if best[m] is not None
                   for seed in seeds[1:]], usable_cpus(), "compare")
    write_report(out_dir)
    return EXIT_OK


def _attempt(ds, args, out_dir: Path, run) -> None:
    """One ``compare`` run. A run that fails before it writes ``summary.json``
    gets one holding its model, seed, C, lr and error, for :func:`write_report`."""
    model_name, seed, c, lr = run
    run_dir = _run_dir(out_dir, model_name, seed, c, lr)
    (run_dir / "summary.json").unlink(missing_ok=True)  # an earlier compare's must not stand in
    try:
        _train_one(ds, model_name, seed, c, lr, args, run_dir)
    except CvkafError as exc:
        if not (run_dir / "summary.json").exists():
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_json(run_dir / "summary.json", {"model": model_name, "seed": seed, "c": c,
                                                   "lr": lr, "error": describe(exc)})


def _cell_name(c: float, lr: float) -> str:
    """A (C, lr) cell as its run directory and its ``comparison.json`` key spell it."""
    return f"C{c:g}_lr{lr:g}"


def _run_dir(out_dir: Path, model_name: str, seed: int, c: float, lr: float) -> Path:
    return out_dir / "runs" / model_name / f"seed{seed}_{_cell_name(c, lr)}"


def _read_summary(run_dir: Path) -> dict:
    """A run's ``summary.json``: its ``error``, or else its accuracies."""
    path = run_dir / "summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        for key in ("error",) if "error" in summary else ("val_accuracy", "test_accuracy"):
            if not isinstance(summary[key], str if key == "error" else float):
                raise TypeError(f"{key} is {summary[key]!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path} is not a usable run summary: {describe(exc)}") from exc
    return summary


def _best_cell(out_dir: Path, model_name: str, seed: int, cells):
    """``model_name``'s (C, lr) cell and {cell: summary} of its runs at ``seed`` over
    ``cells``: the cell of the best validation accuracy, ties to the smaller C, then to
    the smaller lr, or None if a run failed."""
    grid = {cell: _read_summary(_run_dir(out_dir, model_name, seed, *cell)) for cell in cells}
    if any("error" in summary for summary in grid.values()):
        return None, grid
    return max(cells, key=lambda cell: (grid[cell]["val_accuracy"], -cell[0], -cell[1])), grid


def write_report(out_dir: Path) -> None:
    """Summarise the ``compare`` directory ``out_dir`` from the run directories its
    ``config.txt`` names, into ``comparison.txt``, ``comparison.json`` and
    ``convergence.csv``, the same bytes on every call. A model's row is its runs at
    its :func:`_best_cell` over every seed, or its grid if a grid run failed; a row
    with a failed run shows the first failure, in the order of training, and has
    no convergence columns. ``config.txt`` reads as ``compare --config`` replays it."""
    try:
        args = parse_command(["compare", f"--config={out_dir / 'config.txt'}"])
    except ParameterError as exc:  # each of its config file errors names the file
        raise DataFormatError(str(exc)) from exc
    models, seeds, cells = args.models, args.seeds, args.cells
    results, traces = {}, {}
    for m in models:
        best, grid = _best_cell(out_dir, m, seeds[0], cells)
        runs = [(s, *best) for s in seeds] if best else [(seeds[0], *cell) for cell in cells]
        row = [_read_summary(_run_dir(out_dir, m, *run)) for run in runs]
        error = next((summary["error"] for summary in row if "error" in summary), None)
        if error is not None:
            results[m] = {"error": error}
            continue
        accuracies = [summary["test_accuracy"] for summary in row]
        results[m] = {"best_c": best[0], "best_lr": best[1], "test_accuracies": accuracies,
                      "val_accuracy_per_cell": {_cell_name(*cell): grid[cell]["val_accuracy"]
                                                for cell in cells},
                      "mean": statistics.fmean(accuracies), "seed_count": len(accuracies),
                      "std": statistics.stdev(accuracies) if len(accuracies) >= 2 else None}
        traces[m] = [optim.read_trace_csv(_run_dir(out_dir, m, *run) / "trace.csv")
                     for run in runs]

    table = _render_comparison(results)
    (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    _write_json(out_dir / "comparison.json", {"seeds": list(seeds), "models": results})
    (out_dir / "convergence.csv").write_text(_convergence_csv(traces), encoding="utf-8")
    print(table)
    print(f"\nreport written to {out_dir}/comparison.txt, comparison.json and convergence.csv")


def _render_comparison(results: dict[str, dict]) -> str:
    lines = [f"{'Model':<22} {'Test accuracy':<20} {'Best C':<10} {'Best lr':<10} Seeds",
             "-" * 73]
    for model_name, r in results.items():
        if "error" in r:
            lines.append(f"{model_name:<22} FAILED: {r['error']}")
            continue
        acc = f"{100 * r['mean']:.2f}"
        if r["std"] is not None:
            acc += f" +/- {100 * r['std']:.2f}"
        lines.append(f"{model_name:<22} {acc:<20} {r['best_c']:<10g} {r['best_lr']:<10g} "
                     f"{r['seed_count']}")
    lines.append("-" * 73)
    return "\n".join(lines)


def _convergence_csv(traces: dict[str, list]) -> str:
    """Per iteration, the mean and std of each label's training losses."""
    labels = sorted(traces)
    rows = [",".join(["iteration", *(f"{label}_{stat}_loss" for label in labels
                                     for stat in ("mean", "std"))])]
    for it in sorted({r.iteration for ts in traces.values() for t in ts for r in t.records}):
        row = [str(it)]
        for label in labels:
            losses = [r.train_loss for t in traces[label] for r in t.records if r.iteration == it]
            std = statistics.stdev(losses) if len(losses) >= 2 else 0.0
            row += [repr(statistics.fmean(losses)), repr(std)] if losses else ["", ""]
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"


def cmd_report(args) -> int:
    write_report(Path(args.dir))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    def check(variant):  # its errors and the CPU seconds they took, in the process that ran it
        start = time.process_time()
        return gradcheck_variant(variant, range(n_seeds)), time.process_time() - start

    n_seeds, variants = args.seeds, ALL_MODELS if args.model == "all" else (args.model,)
    failures = []
    for variant, (errors, cpu) in zip(variants, deal(check, variants, usable_cpus(), "gradcheck")):
        worst = max(errors.values())
        bad = sorted(group for group, err in errors.items() if err > DEFAULT_TOLERANCE)
        status = "FAIL" if bad else "PASS"
        print(f"[{status}] {variant:<20} worst={worst:.3e} over {n_seeds} seeds, {cpu:.1f} s CPU")
        for group, err in sorted(errors.items()):
            mark = "  <-- exceeds tolerance" if group in bad else ""
            print(f"    {group:<18} {err:.3e}{mark}")
        if bad:
            failures.append(f"{variant} ({', '.join(bad)}: {worst:.2e})")
    if failures:
        raise NumericError(f"gradient check failed for {'; '.join(failures)}")
    print(f"all {len(variants)} models within {DEFAULT_TOLERANCE:g} relative tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parameter errors (exit 2);
    an option is known only by its full name, never by a prefix of it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # no option name starts with a digit or ".": "-3..3", "-1e-4" and "-1,0" are values
        return None if re.match(r"-[\d.]", arg_string) else super()._parse_optional(arg_string)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Ends each option's help with its declared default, if it has one."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)

    def _split_lines(self, text, width):
        # a default wider than the column, such as the --models list, stays one token
        return textwrap.wrap(" ".join(text.split()), width, break_long_words=False)


def add_training_flags(p) -> None:
    """The training flags ``train`` and ``compare`` share, with the library's defaults."""
    p.add_argument("--batch-size", type=_int_option("batch_size", 1),
                   default=TrainConfig.batch_size, help="batch size")
    p.add_argument("--patience", type=_int_option("patience", 0), default=TrainConfig.patience,
                   help="iterations without a validation gain before stopping")
    p.add_argument("--eval-every", type=_int_option("eval_every", 1),
                   default=TrainConfig.eval_every, help="validation interval")
    p.add_argument("--max-iterations", type=_int_option("max_iterations", 1),
                   default=TrainConfig.max_iterations, help="iteration budget")
    p.add_argument("--dict-points", type=_int_option("dict_points", 2),
                   default=DEFAULT_POINTS_PER_AXIS, help="dictionary points per axis")
    p.add_argument("--dict-range", type=_parse_range, default=_range_text(DEFAULT_AXIS_RANGE),
                   help="dictionary axis range")
    p.add_argument("--hidden", type=_int_option("hidden_widths entry", 1, _parse_ints),
                   default=_list_text(NetworkConfig.hidden_widths), help="hidden widths")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvkaf",
        description="Complex-valued KAF networks: preprocessing, training, comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, check=lambda args: None, config=True):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        if config:
            p.add_argument("--config", help="key = value config file; flags win")
        p.set_defaults(func=func, check=check, parser=p, config=None)
        return p

    p = command("preprocess", cmd_preprocess, "build the FFT feature cache for a dataset")
    p.add_argument("--dataset", type=_option_type(str, data_mod.check_dataset_name),
                   default="mnist", help=" | ".join(data_mod.DATASETS))
    p.add_argument("--k-coeffs", type=_int_option("k_coeffs", 1), default=data_mod.DEFAULT_K,
                   help="coefficients to keep")
    p.add_argument("--seed", type=_parse_seed, default=0, help="split permutation seed")
    p.add_argument("--data-dir", default=os.environ.get(DATA_DIR_ENV, "data"),
                   help=f"IDX file root, from ${DATA_DIR_ENV} when set")
    p.add_argument("--split-counts", type=_option_type(_parse_ints, data_mod.check_split_counts),
                   help="absolute train,val,test sizes; 80/10/10 of the images if omitted")
    p.add_argument("--out", help="cache file path; <dataset>.cvkc if omitted")

    p = command("train", cmd_train, "train one model variant for one seed",
                _check_runs)
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--model", type=_parse_model, default="wlkaf_case1", help=_MODEL_HELP)
    p.add_argument("--seed", type=_parse_seed, default=0, help="initialization and batch seed")
    p.add_argument("--c", type=_parse_c, default=TrainObjective.reg_weight,
                   help="regularizer weight")
    p.add_argument("--lr", type=_parse_lr, default=TrainConfig.lr, help="Adagrad learning rate")
    add_training_flags(p)
    p.add_argument("--out", help="run directory; run_<model>_seed<seed> if omitted")

    p = command("evaluate", cmd_evaluate, "accuracy of a saved model on a split",
                lambda args: _require(args, "--model-file", "--cache"))
    p.add_argument("--model-file", help="model from 'train'")
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--split", default="test", choices=("train", "val", "test"),
                   help="train | val | test")

    p = command("compare", cmd_compare, "(C, lr) grid search + multi-seed comparison table",
                _check_compare)
    p.add_argument("--cache", help="feature cache from 'preprocess'")
    p.add_argument("--models", type=_list_parser(_parse_model, "model names"),
                   default=_list_text(MODEL_VARIANTS),
                   help="comma-separated names train accepts, e.g. real_nn,wlkaf_case2:0.7:0.2")
    p.add_argument("--seeds", type=_int_option("seed", 0, _parse_ints), default="0,1,2,3,4",
                   help="comma-separated seeds")
    p.add_argument("--c-grid", type=_list_parser(_parse_c, "non-negative numbers"),
                   default="0,1e-5,1e-4,1e-3", help="regularization weights to search")
    p.add_argument("--lr", type=_list_parser(_parse_lr, "positive numbers"),
                   default=str(TrainConfig.lr), help="Adagrad learning rates to search")
    add_training_flags(p)
    p.add_argument("--out", default="comparison", help="output directory")

    p = command("gradcheck", cmd_gradcheck, "finite-difference check of every model's gradients")
    parse, listed = _model_option("all")
    p.add_argument("--model", type=parse, default="all", help=listed)
    p.add_argument("--seeds", type=_int_option("seeds", 1), default=20, help="number of seeds")

    p = command("report", cmd_report,
                "rewrite the comparison table and convergence CSV of a compare directory",
                config=False)  # its one input is DIR
    p.add_argument("dir", metavar="DIR", help="output directory of 'compare'")

    return parser


def parse_command(argv=None) -> argparse.Namespace:
    """The command line ``argv``, with its ``--config`` file's values as the chosen
    command's defaults, so that flags win, once the command's check of its settings,
    which reads no file, has passed and left its results on the namespace."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(args.parser, args.config)
    try:
        if args.config:  # parse again with the file's values as the command's defaults
            args = parser.parse_args(argv)
        args.check(args)
    except ParameterError as exc:
        if args.config:  # the flags alone parsed, so a file value or the check failed
            raise ParameterError(f"config file {args.config}: {exc}") from exc
        raise
    return args


def main(argv=None) -> int:
    try:
        args = parse_command(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (DataFormatError, OSError) as exc:  # OSError: an unwritable path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
