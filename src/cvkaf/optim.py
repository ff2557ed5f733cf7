"""Adagrad over complex parameters and mini-batch training with early stopping.

Each complex parameter is treated as two real components with independent
squared-gradient accumulators; the per-component update is

    w -= lr * g / (sqrt(acc) + eps)

which keeps the effective step bounded by ``lr`` once a nonzero gradient
has been accumulated. Training samples mini-batches without replacement
from a seeded generator, evaluates validation accuracy on a fixed cadence,
and returns the parameters of the best-validation checkpoint (early
stopping on strict improvement).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .cnum import components
from .errors import DataFormatError, NumericError, ParameterError, check_int, check_number
from .network import TrainObjective
from .pool import deal

__all__ = [
    "Adagrad",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "check_batch_size",
    "train",
    "evaluate",
    "write_trace_csv",
    "read_trace_csv",
]

TRACE_COLUMNS = ("iteration", "train_loss", "val_accuracy", "elapsed_seconds")

_EVAL_CHUNK = 1024  # rows per predict call in evaluate


class Adagrad:
    """Component-wise Adagrad over a name->array parameter dict."""

    epsilon = 1e-8  # added to sqrt(acc), so a zero accumulator divides safely

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = check_number("lr", lr)
        self.acc = {name: np.zeros_like(components(arr)) for name, arr in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Accumulate squared gradients and update parameters in place.

        A non-finite gradient aborts the step before any state is touched.
        """
        for name, g in grads.items():
            if not np.all(np.isfinite(components(g))):
                raise NumericError(f"non-finite gradient for {name!r}; step aborted")
        for name, arr in params.items():
            acc = self.acc[name]
            w, g = components(arr), components(grads[name])
            acc += g**2
            w -= self.lr * (g / (np.sqrt(acc) + self.epsilon))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 40
    patience: int = 1000
    eval_every: int = 50
    max_iterations: int = 20000
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("batch_size", 1), ("patience", 0), ("eval_every", 1),
                              ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "lr", check_number("lr", self.lr))


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    train_loss: float
    val_accuracy: float
    elapsed_seconds: float


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    best_iteration: int = 0
    best_val_accuracy: float = float("nan")
    total_iterations: int = 0
    stop_reason: str = ""


def check_batch_size(config: TrainConfig, rows: int) -> None:
    """Refuse a batch larger than the ``rows`` of the training split."""
    if config.batch_size > rows:
        raise ParameterError(f"batch_size {config.batch_size} exceeds training set size {rows}")


def _check_rows(x, labels) -> None:
    if len(x) != len(labels):
        raise ParameterError(f"a batch of {len(x)} rows has {len(labels)} labels")


def evaluate(model, x: np.ndarray, labels: np.ndarray, processes: int = 1) -> float:
    """Fraction of samples whose argmax class probability hits the label.

    Ties resolve to the lowest class index (argmax semantics); ``x`` needs one label per row.
    The row chunks are dealt over ``processes`` processes (:func:`pool.deal`); the
    accuracy is a sum of integer hit counts, so it is the same for any count.
    """
    labels = np.asarray(labels)
    _check_rows(x, labels)
    if labels.shape[0] == 0:
        raise ParameterError("cannot evaluate an empty split")

    def hits(lo):
        return int(np.sum(model.predict(x[lo:lo + _EVAL_CHUNK]) == labels[lo:lo + _EVAL_CHUNK]))

    chunks = range(0, labels.shape[0], _EVAL_CHUNK)
    return sum(deal(hits, chunks, processes, "evaluate")) / labels.shape[0]


def train(
    model,
    train_xy: tuple[np.ndarray, np.ndarray],
    val_xy: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    objective: TrainObjective,
) -> TrainTrace:
    """Mini-batch Adagrad with early stopping on validation accuracy.

    The model is left holding the parameters of the best-validation
    checkpoint, not the last iterate. A :class:`NumericError` during the
    iterations leaves it there too and is raised again with the trace so
    far as its ``trace``: ``stop_reason`` ``"numeric_error"``, and
    ``total_iterations`` the iteration that failed.
    """
    x_train, y_train = train_xy
    x_val, y_val = val_xy
    _check_rows(x_train, y_train)  # evaluate checks the validation rows
    n = x_train.shape[0]
    if n == 0 or x_val.shape[0] == 0:
        raise ParameterError("train and validation splits must be nonempty")
    check_batch_size(config, n)
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    opt = Adagrad(params, lr=config.lr)
    trace = TrainTrace()
    best = model.snapshot()
    best_acc = evaluate(model, x_val, y_val)
    best_it = 0
    t0 = time.perf_counter()
    stop_reason = "max_iterations"
    it = 0
    try:
        for it in range(1, config.max_iterations + 1):
            idx = rng.choice(n, size=config.batch_size, replace=False)
            loss, grads = model.loss_and_grads(x_train[idx], y_train[idx], objective)
            opt.step(params, grads)
            model.bump_version()
            if it % config.eval_every == 0:
                acc = evaluate(model, x_val, y_val)
                trace.records.append(
                    TraceRecord(it, loss, acc, time.perf_counter() - t0)
                )
                if acc > best_acc:
                    best_acc, best_it = acc, it
                    best = model.snapshot()
                if it - best_it >= config.patience:
                    stop_reason = "patience"
                    break
    except NumericError as exc:
        stop_reason = "numeric_error"
        exc.trace = trace
        raise
    finally:
        trace.best_iteration = best_it
        trace.best_val_accuracy = best_acc
        trace.total_iterations = it
        trace.stop_reason = stop_reason
        model.set_parameters(best)
    return trace


def write_trace_csv(trace: TrainTrace, path) -> None:
    """Write the mandated four-column CSV.

    All columns except elapsed_seconds are deterministic under a fixed
    seed; elapsed_seconds is wall-clock and is the one timestamp-like field
    determinism comparisons are expected to mask.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow([r.iteration, repr(float(r.train_loss)),
                             repr(float(r.val_accuracy)), f"{r.elapsed_seconds:.6f}"])


def read_trace_csv(path) -> TrainTrace:
    """Read a trace that :func:`write_trace_csv` wrote; an unreadable file, a
    wrong header or a bad row is a :class:`DataFormatError` naming file and line.

    The trace read back holds its records and the last recorded iteration
    as ``total_iterations``. ``best_iteration`` and
    ``best_val_accuracy`` stay unset (0 and NaN): ``train`` scores iteration
    0 without recording it, so the rows cannot tell which checkpoint was best.
    """
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise DataFormatError(f"{path}:1: not a trace CSV (header {header})")
            for row in reader:
                try:
                    it, loss, acc, elapsed = row
                    records.append(TraceRecord(int(it), float(loss), float(acc), float(elapsed)))
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}:{reader.line_num}: bad trace row {row}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read trace {path}: {exc}") from exc
    return TrainTrace(records=records, total_iterations=records[-1].iteration if records else 0)

