"""The three benchmark workloads and the pass that runs one of them.

A workload has three parts. ``generate`` makes the inputs from the seed and
runs before the measured process starts. ``setup`` is the program's work
before the first timed step (IDX decode, preprocess, cache and model load,
model build); it is timed and repeated. ``timed`` is the user-facing call
whose wall time is ``run_s``. After the wrappers are removed, ``check``
verifies the outputs and returns a fingerprint of everything that must not
depend on timing, so a traced and an untraced pass can be compared.

The amount of timed work is fixed from ``--seconds`` through per-unit costs
measured on a 2-core Xeon at 1 BLAS thread, so runs on the same machine do
the same work and take about ``--seconds``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from cvkaf import cli, data, network, optim
from cvkaf.kernels import build_dictionary
from cvkaf.network import TrainObjective

import inputs
from harness import VARIANTS, StepClock, Tracer, now

DATASET = "latin_ocr"  # the named dataset that accepts any IDX pair
DICT_RANGE = (-2.0, 2.0)
COMPARE_MODELS = ("real_nn", *VARIANTS)
COMPARE_C_GRID = (0.0, 1e-4)
COMPARE_SEEDS = (0, 1)


@dataclass(frozen=True)
class Shape:
    """Problem sizes; the defaults are the paper's shape."""

    k: int = 100
    hidden: tuple[int, ...] = (100, 100, 100)
    dict_points: int = 8
    batch_size: int = 40
    eval_every: int = 50
    train_split: tuple[int, int, int] = (10000, 2000, 2000)  # the paper's MNIST subset
    eval_split: tuple[int, int, int] = (2000, 512, 10240)  # 10 full 1024-row chunks
    compare_split: tuple[int, int, int] = (4000, 500, 1000)
    compare_eval_every: int = 25
    pretrain_iterations: int = 150
    # reference cost of one unit of timed work, in seconds
    train_iteration_s: float = 0.015
    eval_round_s: float = 3.8
    compare_iteration_s: float = 0.2


class OperationFailed(Exception):
    """A program call failed: it raised or exited with a nonzero code."""


def cli_main(argv: list[str]) -> str:
    """Run a ``cvkaf`` command in-process; return its stdout or raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"cvkaf {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass
class Pass:
    """One execution of a workload: set-up, timed part, operation counts."""

    work: Path
    out: Path
    seed: int
    seconds: float
    shape: Shape
    tracer: Tracer | None = None
    clock: StepClock = field(default_factory=StepClock)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    run_s: float = math.nan
    repeat_s: list[float] = field(default_factory=list)  # per repetition, if repeated
    accuracy: float = math.nan
    result: object = None  # what the timed part returned, for ``check``

    def op(self, fn, *args):
        """Count one operation; record a failure instead of raising."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, none may stop the run
            self.failed += 1
            self.problems.append("".join(traceback.format_exception_only(exc)).strip())
            return None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def _units(seconds: float, unit_s: float, block: int = 1) -> int:
    """Whole blocks of work expected to take about ``seconds``."""
    return block * max(1, round(seconds / (block * unit_s)))


def _features(work: Path, seed: int, k: int, split) -> data.ComplexDataset:
    raw = data.load_named_dataset(DATASET, work / "data")
    return data.build_complex_dataset(raw, k=k, seed=seed, split_counts=split)


def _build(variant: str, ds: data.ComplexDataset, seed: int, shape: Shape):
    return network.build_model(variant, ds.feature_dim, ds.class_count, seed,
                               hidden_widths=shape.hidden,
                               dictionary=build_dictionary(shape.dict_points, DICT_RANGE))


def _masked_trace(path: Path) -> str:
    """A trace CSV without its wall-clock column."""
    rows = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(row.rsplit(",", 1)[0] for row in rows)


def _check_trace(p: Pass, trace: optim.TrainTrace, where: str, iterations: int) -> None:
    if not all(math.isfinite(r.train_loss) for r in trace.records):
        p.problems.append(f"{where}: non-finite training loss")
    if trace.total_iterations != iterations:
        p.problems.append(f"{where}: {trace.total_iterations} iterations, expected {iterations}")


class TrainCase1:
    """One ``optim.train`` of ``wlkaf_case1`` at the paper's shape."""

    name = "train-case1"
    step_span = "network.loss_and_grads"
    floor = 0.5

    def generate(self, work: Path, seed: int, shape: Shape) -> None:
        images, labels = inputs.glyphs(sum(shape.train_split), seed)
        inputs.write_idx_pair(work / "data" / DATASET, images, labels)

    def setup(self, p: Pass):
        cache = p.out / "features.cvkc"
        data.cache_dataset(_features(p.work, p.seed, p.shape.k, p.shape.train_split), cache)
        ds = data.load_cached(cache)
        return ds, _build("wlkaf_case1", ds, p.seed, p.shape)

    def iterations(self, p: Pass) -> int:
        return _units(p.seconds, p.shape.train_iteration_s, p.shape.eval_every)

    def timed(self, p: Pass, state) -> None:
        ds, model = state
        n = self.iterations(p)
        # patience beyond the run: every run does exactly n iterations
        config = optim.TrainConfig(batch_size=p.shape.batch_size, patience=n + 1,
                                   eval_every=p.shape.eval_every, max_iterations=n,
                                   seed=p.seed)
        objective = TrainObjective("cross_entropy", 1e-4)
        p.result = p.op(optim.train, model, ds.train_xy(), ds.val_xy(), config, objective)

    def check(self, p: Pass, state) -> str:
        ds, model = state
        trace = p.result
        if trace is None:
            return ""
        optim.write_trace_csv(trace, p.out / "trace.csv")
        _check_trace(p, trace, self.name, self.iterations(p))
        if trace.stop_reason != "max_iterations":
            p.problems.append(f"training stopped early ({trace.stop_reason})")
        if optim.evaluate(model, *ds.val_xy()) != trace.best_val_accuracy:
            p.problems.append("the model is not left at its best-validation checkpoint")
        p.accuracy = trace.best_val_accuracy
        return _masked_trace(p.out / "trace.csv")


class EvaluateVariants:
    """``cvkaf evaluate`` of three saved KAF models on a 10240-row split."""

    name = "evaluate-variants"
    step_span = "network.predict"
    floor = 0.4

    def generate(self, work: Path, seed: int, shape: Shape) -> None:
        images, labels = inputs.glyphs(sum(shape.eval_split), seed)
        inputs.write_idx_pair(work / "data" / DATASET, images, labels)
        ds = _features(work, seed, shape.k, shape.eval_split)
        n = shape.pretrain_iterations
        config = optim.TrainConfig(batch_size=shape.batch_size, patience=n + 1,
                                   eval_every=n, max_iterations=n, seed=seed)
        expected = {}
        (work / "models").mkdir(exist_ok=True)
        for variant in VARIANTS:
            model = _build(variant, ds, seed, shape)
            optim.train(model, ds.train_xy(), ds.val_xy(), config, TrainObjective())
            network.save_model(work / "models" / f"{variant}.cvkm", model)
            expected[variant] = optim.evaluate(model, *ds.test_xy())
        (work / "expected.json").write_text(json.dumps(expected), encoding="utf-8")

    def setup(self, p: Pass):
        cache = p.out / "features.cvkc"
        data.cache_dataset(_features(p.work, p.seed, p.shape.k, p.shape.eval_split), cache)
        data.load_cached(cache)
        for variant in VARIANTS:
            network.load_model(p.work / "models" / f"{variant}.cvkm")
        return cache

    def rounds(self, p: Pass) -> int:
        return _units(p.seconds, p.shape.eval_round_s)

    def timed(self, p: Pass, cache) -> None:
        p.result = accuracies = {v: [] for v in VARIANTS}
        for _ in range(self.rounds(p)):
            t0 = now()
            for variant in VARIANTS:
                argv = ["evaluate", "--model-file", str(p.work / "models" / f"{variant}.cvkm"),
                        "--cache", str(cache), "--split", "test"]
                with p.span("cli.evaluate"):
                    if p.op(cli_main, argv) is not None:
                        accuracies[variant].append(p.clock.evals[-1][-1])
            p.repeat_s.append(now() - t0)

    def check(self, p: Pass, cache) -> str:
        expected = json.loads((p.work / "expected.json").read_text(encoding="utf-8"))
        for variant, accs in p.result.items():
            if any(a != expected[variant] for a in accs):
                p.problems.append(f"{variant}: evaluate gave {accs}, "
                                  f"the saved model scored {expected[variant]}")
        done = [accs[0] for accs in p.result.values() if accs]
        if done:
            p.accuracy = sum(done) / len(done)
        return json.dumps(p.result, sort_keys=True)


class CompareSweep:
    """``cvkaf preprocess`` of gzip IDX files, then ``cvkaf compare``."""

    name = "compare-sweep"
    step_span = "network.loss_and_grads"
    floor = 0.3

    def generate(self, work: Path, seed: int, shape: Shape) -> None:
        images, labels = inputs.glyphs(sum(shape.compare_split), seed)
        inputs.write_idx_pair(work / "data" / DATASET, images, labels)

    def setup(self, p: Pass):
        cache = p.out / "features.cvkc"
        cli_main(["preprocess", "--dataset", DATASET, "--data-dir", str(p.work / "data"),
                  "--k-coeffs", str(p.shape.k), "--seed", str(p.seed),
                  "--split-counts", ",".join(map(str, p.shape.compare_split)),
                  "--out", str(cache)])
        return cache

    def iterations(self, p: Pass) -> int:
        return _units(p.seconds, p.shape.compare_iteration_s, p.shape.compare_eval_every)

    def runs(self) -> int:
        return len(COMPARE_MODELS) * (len(COMPARE_C_GRID) + len(COMPARE_SEEDS) - 1)

    def timed(self, p: Pass, cache) -> None:
        out = p.out / "comparison"
        shutil.rmtree(out, ignore_errors=True)
        n = self.iterations(p)
        argv = ["compare", "--cache", str(cache), "--out", str(out),
                "--models", ",".join(COMPARE_MODELS),
                "--seeds", ",".join(map(str, COMPARE_SEEDS)),
                "--c-grid", ",".join(map(str, COMPARE_C_GRID)),
                "--max-iterations", str(n), "--patience", str(n + 1),
                "--eval-every", str(p.shape.compare_eval_every),
                "--batch-size", str(p.shape.batch_size),
                "--hidden", ",".join(map(str, p.shape.hidden)),
                "--dict-points", str(p.shape.dict_points)]
        with p.span("cli.compare"):
            try:
                cli_main(argv)
                p.result = True
            except Exception as exc:  # counted from the run directories in check
                p.problems.append("".join(traceback.format_exception_only(exc)).strip())
                p.result = False

    def check(self, p: Pass, cache) -> str:
        # the operations are the training runs: a model that reports an
        # error, or a command that fails, fails each run it had planned
        out = p.out / "comparison"
        planned = self.runs()
        p.attempted += planned
        if not p.result:
            p.failed += planned
            return ""
        report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        models = report["models"]
        if sorted(models) != sorted(COMPARE_MODELS):
            p.problems.append(f"comparison covers {sorted(models)}")
        done = 0
        fingerprint = [json.dumps(report, sort_keys=True)]
        for model_name, result in models.items():
            if "error" in result:
                p.problems.append(f"{model_name}: {result['error']}")
                continue
            runs_dir = out / "runs" / model_name
            for run in sorted(runs_dir.iterdir()) if runs_dir.is_dir() else []:
                names = {f.name for f in run.iterdir()}
                missing = {"config.txt", "model.cvkm", "trace.csv", "summary.json",
                           "run.log"} - names
                if missing:
                    p.problems.append(f"{run.name}: missing {sorted(missing)}")
                    continue
                done += 1
                trace = optim.read_trace_csv(run / "trace.csv")
                _check_trace(p, trace, f"{model_name}/{run.name}", self.iterations(p))
                fingerprint.append(_masked_trace(run / "trace.csv"))
        p.failed += planned - done
        ok = [r["mean"] for r in models.values() if "error" not in r]
        if ok:
            p.accuracy = sum(ok) / len(ok)
        return "\n".join(fingerprint)


WORKLOADS = {w.name: w for w in (TrainCase1(), EvaluateVariants(), CompareSweep())}
