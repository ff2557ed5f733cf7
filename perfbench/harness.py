"""Wrappers around the program's public calls: a step clock and a span tracer.

Both install through one :class:`Patcher`, which replaces an attribute where
the program looks the name up (a module global or a class attribute) and
puts the original back afterwards, checking that it is really restored.

The :class:`StepClock` is on in every pass. It takes one timestamp per
training step, per validation/evaluation call and per prediction chunk,
which is all the end-to-end step metrics need. The :class:`Tracer` records
a span (name, start, end, parent, step index) around every call into a
``cvkaf`` module; it runs only in the traced pass and its spans give the
per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from cvkaf import activations, cli, container, data, network, optim

now = time.perf_counter

_KAF_CLASSES = (activations.KafActivation, activations.WlKafCase1Activation,
                activations.WlKafCase2Activation)
_NETWORK_CLASSES = (network.ComplexNetwork, network.RealBaselineNetwork)
VARIANTS = ("kaf_independent", "wlkaf_case1", "wlkaf_case2")


def model_variant(model) -> str:
    if isinstance(model, network.RealBaselineNetwork):
        return "real_nn"
    return model.config.activation


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> None:
        """Replace ``owner.name`` (a module global or a class's own attribute)
        by ``make_wrapper(current_value)``."""
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")


@contextmanager
def installed(*instruments):
    """Install instruments in order; always restore every wrapper on exit."""
    patcher = Patcher()
    try:
        for instrument in instruments:
            instrument.install(patcher)
        yield
    finally:
        patcher.restore()


class StepClock:
    """Timestamps at step, evaluation and prediction boundaries."""

    def __init__(self):
        self.steps: list[tuple[str, float]] = []  # (variant, start) per loss_and_grads
        self.trains: list[tuple[float, float]] = []
        self.evals: list[tuple[str, float, float, int, float]] = []  # variant, start, end, rows, acc
        self.chunks: list[tuple[str, float, float]] = []  # (variant, start, end) per predict

    def install(self, patcher: Patcher) -> None:
        steps, trains, evals, chunks = self.steps, self.trains, self.evals, self.chunks

        def step_wrapper(fn):
            def wrapper(model, *args, **kwargs):
                steps.append((model_variant(model), now()))
                return fn(model, *args, **kwargs)
            return wrapper

        def chunk_wrapper(fn):
            def wrapper(model, *args, **kwargs):
                t0 = now()
                out = fn(model, *args, **kwargs)
                chunks.append((model_variant(model), t0, now()))
                return out
            return wrapper

        def train_wrapper(fn):
            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    trains.append((t0, now()))
            return wrapper

        def eval_wrapper(fn):
            def wrapper(model, x, labels, *args, **kwargs):
                t0 = now()
                acc = fn(model, x, labels, *args, **kwargs)
                evals.append((model_variant(model), t0, now(), len(labels), acc))
                return acc
            return wrapper

        for cls in _NETWORK_CLASSES:
            patcher.wrap(cls, "loss_and_grads", step_wrapper)
            patcher.wrap(cls, "predict", chunk_wrapper)
        patcher.wrap(optim, "train", train_wrapper)
        patcher.wrap(optim, "evaluate", eval_wrapper)

    def iteration_times(self) -> dict[str, list[float]]:
        """Seconds per training iteration by variant, validation excluded.

        An iteration runs from one ``loss_and_grads`` call to the next (or
        to the end of ``train``); evaluation time inside it is subtracted.
        """
        out: dict[str, list[float]] = {}
        for a, b in self.trains:
            inside = [s for s in self.steps if a <= s[1] <= b]
            bounds = [t for _, t in inside] + [b]
            for (variant, t0), t1 in zip(inside, bounds[1:]):
                busy = sum(e1 - e0 for _, e0, e1, _, _ in self.evals if t0 <= e0 < t1)
                out.setdefault(variant, []).append(t1 - t0 - busy)
        return out

    def chunk_times(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for variant, t0, t1 in self.chunks:
            out.setdefault(variant, []).append(t1 - t0)
        return out

    def eval_sample_times(self) -> dict[str, list[float]]:
        """Seconds per scored sample in each evaluation call, by variant."""
        out: dict[str, list[float]] = {}
        for variant, t0, t1, rows, _ in self.evals:
            out.setdefault(variant, []).append((t1 - t0) / rows)
        return out


def across_variants(values_by_variant: dict[str, list[float]], q: float = 50) -> float:
    """Mean over variants of each variant's ``q``-th percentile.

    Host noise on this class of machine comes in bursts that slow single
    calls by up to 40%, so every per-call figure is a percentile over many
    calls. Averaging per-variant percentiles keeps a workload that mixes
    variants from jumping between them, as a pooled median would at the
    boundary between two variants' groups.
    """
    return statistics.fmean(float(np.percentile(v, q)) for v in values_by_variant.values())


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "variant", "in_eval", "amount")

    def __init__(self, name, start, parent, step, variant, in_eval):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.step, self.variant, self.in_eval, self.amount = step, variant, in_eval, 0


class Tracer:
    """In-memory spans around every call into a ``cvkaf`` layer.

    ``step_span`` names the span that opens a step: ``network.loss_and_grads``
    for training workloads, ``network.predict`` for evaluation. Every span
    from a step's start until the next evaluation or training boundary
    carries that step's index.
    """

    def __init__(self, step_span: str):
        self.step_span = step_span
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._step: int | None = None
        self._steps = 0
        self._eval_depth = 0

    def _open(self, name: str, variant: str | None) -> Span:
        if name == self.step_span:
            self._step = self._steps
            self._steps += 1
        elif name in ("optim.evaluate", "optim.train"):
            self._step = None
        if name == "optim.evaluate":
            self._eval_depth += 1
        span = Span(name, now(), self._stack[-1] if self._stack else -1,
                    self._step, variant, self._eval_depth > 0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = now()
        self._stack.pop()
        if span.name in ("optim.evaluate", "optim.train"):
            self._step = None
        if span.name == "optim.evaluate":
            self._eval_depth -= 1

    @contextmanager
    def span(self, name: str):
        s = self._open(name, None)
        try:
            yield s
        finally:
            self._close(s)

    def _wrapper(self, name: str, variant_of=None, amount_of=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                s = self._open(name, variant_of(args[0]) if variant_of else None)
                try:
                    out = fn(*args, **kwargs)
                    if amount_of:
                        s.amount = amount_of(args, out)
                    return out
                finally:
                    self._close(s)
            return wrapper
        return make

    def install(self, patcher: Patcher) -> None:
        w = self._wrapper
        patcher.wrap(data, "load_idx", w("data.load_idx"))
        patcher.wrap(data, "build_complex_dataset",
                     w("data.build_complex_dataset", amount_of=lambda a, _: a[0].count))
        patcher.wrap(data, "rank_and_select", w("data.rank_and_select"))
        patcher.wrap(data, "cache_dataset", w("data.cache_dataset"))
        patcher.wrap(data, "load_cached", w("data.load_cached"))
        patcher.wrap(container, "write_container",
                     w("container.write", amount_of=lambda a, _: os.path.getsize(a[0])))
        patcher.wrap(container, "read_container",
                     w("container.read", amount_of=lambda a, _: os.path.getsize(a[0])))
        by_name = lambda act: act.name  # noqa: E731
        for cls in _KAF_CLASSES:
            patcher.wrap(cls, "init_params", w("activations.init_params", by_name))
            patcher.wrap(cls, "forward", w("activations.forward", by_name))
            patcher.wrap(cls, "backward", w("activations.backward", by_name))
        # network binds the affine helpers and cli the model helpers by name
        patcher.wrap(network, "complex_affine", w("cnum.complex_affine"))
        patcher.wrap(network, "backward_affine", w("cnum.backward_affine"))
        for module in (network, cli):
            patcher.wrap(module, "build_model", w("network.build_model"))
            patcher.wrap(module, "save_model", w("network.save_model"))
            patcher.wrap(module, "load_model", w("network.load_model"))
        for cls in _NETWORK_CLASSES:
            patcher.wrap(cls, "forward", w("network.forward", model_variant))
            patcher.wrap(cls, "loss_and_grads", w("network.loss_and_grads", model_variant))
            patcher.wrap(cls, "predict", w("network.predict", model_variant))
        patcher.wrap(network.ComplexNetwork, "backward", w("network.backward", model_variant))
        patcher.wrap(optim.Adagrad, "step", w("optim.adagrad"))
        patcher.wrap(optim, "train", w("optim.train"))
        patcher.wrap(optim, "evaluate",
                     w("optim.evaluate", amount_of=lambda a, _: len(a[2])))
        patcher.wrap(optim, "write_trace_csv", w("optim.write_trace_csv"))

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent, step."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,step,variant\n")
            for i, s in enumerate(self.spans):
                step = "" if s.step is None else s.step
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{step},"
                         f"{s.variant or ''}\n")

    def layer_metrics(self, timed_s: float) -> dict[str, float]:
        """Per-layer figures over the traced pass (one set-up plus the timed part).

        ``*_per_step`` divides a layer's time inside steps by the number of
        step spans; ``own`` time is a span's duration minus its children's.
        A layer that does no work in a workload reads 0.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start

        def select(name, in_step=False, variant=None):
            return [i for i, s in enumerate(spans) if s.name == name
                    and (s.step is not None or not in_step)
                    and (variant is None or s.variant == variant)]

        def seconds(name, own=False, in_step=False, variant=None):
            return sum((spans[i].end - spans[i].start - (children[i] if own else 0.0)
                        for i in select(name, in_step, variant)), 0.0)

        def amount(name):
            return sum(s.amount for s in spans if s.name == name)

        def ratio(a, b):
            return a / b if b else 0.0

        steps = len(select(self.step_span))

        def ms_per_step(name, own=False):
            return ratio(1000.0 * seconds(name, own, in_step=True), steps)

        def calls_per_step(*names):
            return ratio(sum(len(select(n, in_step=True)) for n in names), steps)

        m: dict[str, float] = {}
        for layer in ("load_idx", "build_complex_dataset", "rank_and_select",
                      "cache_dataset", "load_cached"):
            m[f"data.{layer}_s"] = seconds(f"data.{layer}")
        m["data.images_per_s"] = ratio(amount("data.build_complex_dataset"),
                                       m["data.build_complex_dataset_s"])
        m["data.load_cached_calls"] = len(select("data.load_cached"))
        m["container.write_s"] = seconds("container.write")
        m["container.read_s"] = seconds("container.read")
        m["container.bytes_written"] = amount("container.write")
        m["container.bytes_read"] = amount("container.read")
        m["activations.init_params_s"] = seconds("activations.init_params")
        m["network.build_model_s"] = seconds("network.build_model")
        m["activations.forward_ms_per_step"] = ms_per_step("activations.forward")
        m["activations.backward_ms_per_step"] = ms_per_step("activations.backward")
        m["activations.calls_per_step"] = calls_per_step("activations.forward",
                                                         "activations.backward")
        eval_forward = sum(s.end - s.start for s in spans
                           if s.name == "activations.forward" and s.in_eval)
        m["activations.forward_ms_per_1k_eval"] = ratio(1e6 * eval_forward,
                                                        amount("optim.evaluate"))
        for variant in VARIANTS:
            n = len(select(self.step_span, variant=variant))
            for phase in ("forward", "backward"):
                m[f"activations.{variant}.{phase}_ms_per_step"] = ratio(
                    1000.0 * seconds(f"activations.{phase}", in_step=True, variant=variant), n)
        m["cnum.complex_affine_ms_per_step"] = ms_per_step("cnum.complex_affine")
        m["cnum.backward_affine_ms_per_step"] = ms_per_step("cnum.backward_affine")
        m["cnum.affine_calls_per_step"] = calls_per_step("cnum.complex_affine",
                                                         "cnum.backward_affine")
        m["network.forward_self_ms_per_step"] = ms_per_step("network.forward", own=True)
        m["network.backward_self_ms_per_step"] = ms_per_step("network.backward", own=True)
        m["network.loss_reg_self_ms_per_step"] = ms_per_step("network.loss_and_grads", own=True)
        m["network.save_model_s"] = seconds("network.save_model")
        m["network.load_model_s"] = seconds("network.load_model")
        m["optim.adagrad_ms_per_step"] = ms_per_step("optim.adagrad")
        # train spans lie outside steps: batch sampling, snapshots, bookkeeping
        m["optim.train_self_ms_per_step"] = ratio(1000.0 * seconds("optim.train", own=True), steps)
        m["optim.evaluate_s"] = seconds("optim.evaluate")
        m["optim.eval_share"] = m["optim.evaluate_s"] / timed_s
        m["optim.write_trace_csv_s"] = seconds("optim.write_trace_csv")
        m["cli.compare_self_s"] = seconds("cli.compare", own=True)
        m["cli.runs"] = len(select("optim.train"))
        return m
