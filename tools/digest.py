"""Five sha256 digests: one over everything a model computes, to check that
a refactor is bit-identical, one over the model files it saves, one over
the feature pipeline's datasets and their cache files, one over the
reports of a small ``compare``, and one over the numeric gradients.

Run from the repository root as::

    PYTHONPATH=src python tools/digest.py

and compare the printed digests between two source trees (point
``PYTHONPATH`` at the other tree's ``src``). The script imports ``cvkaf``
before numpy, so it runs with the package's one BLAS thread unless the
environment sets the thread variables. The lines do not depend on the
BLAS thread count: with OpenBLAS 0.3.31 and numpy 2.4.6 on a 2-core host,
each line was equal under ``OPENBLAS_NUM_THREADS=1`` and ``=2`` (with
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set alike). The identity fit of
alpha, once the one step whose bits changed with the thread count, makes no
BLAS or LAPACK call.

On one seeded small problem the first line, the computation digest,
covers, for ``real_nn``, every activation variant, case 2 at Q = 2 and
case 1 with the alphas that ``gradcheck.draw_alphas`` draws: the initial
parameters; the trace records of a short ``optim.train`` (without the
wall-clock ``elapsed_seconds``); the trained parameters;
``predict_proba``, ``predict``, ``objective`` and the ``loss_and_grads``
value and gradients; and the config and the arrays of the model that
``save_model`` wrote, read back by ``load_model``. The second line is the
digest of the saved files' bytes, so a change to the model-file header
alone moves only the second line. The script also checks that loading a
saved file and saving it again gives the same bytes, and exits 1 if not.

The third line, the data-path digest, covers every field of the
``ComplexDataset`` that ``build_complex_dataset`` makes from 700 seeded
random 28x28 uint8 images, and the bytes ``cache_dataset`` writes for it, at
two split layouts whose row counts do not fill a whole number of FFT chunks.

The fourth line, the report digest, covers the three files that ``cvkaf
report`` writes (``comparison.txt``, ``comparison.json`` and
``convergence.csv``) for an in-process ``cvkaf compare`` of two models,
seeds 0 and 1 and the C grid {0, 1e-3} at hidden width 8, a 4x4 grid and 30
iterations, on the built-in glyphs at 8 FFT coefficients. A change to the
table, its best-C rule or the convergence columns moves this line alone,
unless it also changes what a run computes.

The fifth line, the numeric-gradient digest, covers what
``gradcheck.gradcheck_variant`` returns for seeds 0, 1 and 2 for every
registry variant and ``wlkaf_case2:0.7:0.2``, and
``cnum.finite_diff_cogradient`` of one function at a seeded real and a
seeded complex array. It is the fingerprint that batched finite differences
(ROADMAP.md, item 12) must keep, or move knowingly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import cvkaf  # noqa: F401  before numpy, so its one-BLAS-thread default applies here too
import numpy as np

from cvkaf import cli, data, optim
from cvkaf.activations import ACTIVATION_VARIANTS
from cvkaf.cnum import finite_diff_cogradient
from cvkaf.gradcheck import draw_alphas, gradcheck_variant
from cvkaf.network import (
    ComplexNetwork,
    NetworkConfig,
    TrainObjective,
    build_model,
    load_model,
    save_model,
)

INPUT_DIM, HIDDEN, CLASSES, ROWS = 12, (16, 10), 4, 160
OBJECTIVE = TrainObjective("cross_entropy", 1e-3)
TRAIN = optim.TrainConfig(batch_size=16, patience=1000, eval_every=5, max_iterations=40,
                          lr=0.05, seed=3)
IMAGES, SIDE, K = 700, 28, 100
SPLITS = ((0, (500, 100, 60)), (1, (333, 77, 90)))  # (seed, split counts)
COMPARE = ["--models", "kaf_real_gaussian,wlkaf_case1", "--seeds", "0,1", "--c-grid", "0,1e-3",
           "--hidden", "8", "--dict-points", "4", "--eval-every", "10", "--max-iterations", "30"]
REPORTS = ("comparison.txt", "comparison.json", "convergence.csv")
GRADCHECKED = (*ACTIVATION_VARIANTS, "wlkaf_case2:0.7:0.2")


def models():
    """(label, fresh model) for every case the digest covers."""
    yield "real_nn", build_model("real_nn", INPUT_DIM, CLASSES, seed=1, hidden_widths=HIDDEN)
    cases = [(name, name) for name in ACTIVATION_VARIANTS]
    cases += [("wlkaf_case2_q2", "wlkaf_case2:0.3:0.6"), ("wlkaf_case1_random", "wlkaf_case1")]
    for label, name in cases:
        model = ComplexNetwork(NetworkConfig(INPUT_DIM, HIDDEN, CLASSES, activation=name,
                                             seed=1, dict_points=4))
        if label.endswith("_random"):
            draw_alphas(model, np.random.default_rng(2))
        yield label, model


def feed(h, *values) -> None:
    """Add each value to ``h``: arrays with their dtype and shape, dicts in order."""
    for v in values:
        if isinstance(v, dict):
            for name, arr in v.items():
                h.update(name.encode())
                feed(h, arr)
        elif isinstance(v, (bytes, str)):
            h.update(v if isinstance(v, bytes) else v.encode())
        else:
            arr = np.ascontiguousarray(v)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())


def data_digest(tmp) -> str:
    """The sha256 of each layout's dataset fields and cache file bytes."""
    rng = np.random.default_rng(0)
    raw = data.RawImageSet(images=rng.integers(0, 256, size=(IMAGES, SIDE, SIDE), dtype=np.uint8),
                           labels=rng.integers(0, 10, size=IMAGES), class_count=10)
    h = hashlib.sha256()
    for seed, counts in SPLITS:
        ds = data.build_complex_dataset(raw, k=K, seed=seed, split_counts=counts)
        for f in dataclasses.fields(ds):
            value = getattr(ds, f.name)
            feed(h, f.name, value if isinstance(value, np.ndarray) else repr(value))
        path = Path(tmp, f"seed{seed}.cvkc")
        data.cache_dataset(ds, path)
        feed(h, path.read_bytes())
    return h.hexdigest()


def report_digest(tmp) -> str | None:
    """The sha256 of the reports of a small glyph ``compare``; None if a command failed."""
    cache, out = Path(tmp, "glyphs.cvkc"), Path(tmp, "comparison")
    with contextlib.redirect_stdout(io.StringIO()):  # the commands' own output
        codes = [cli.main(["preprocess", "--dataset", "glyphs", "--k-coeffs", "8",
                           "--out", str(cache)]),
                 cli.main(["compare", "--cache", str(cache), "--out", str(out), *COMPARE])]
    if codes != [0, 0]:
        return None
    h = hashlib.sha256()
    for name in REPORTS:
        feed(h, name, (out / name).read_bytes())
    return h.hexdigest()


def gradient_digest() -> str:
    """The sha256 of each gradient check's worst errors and of two central-difference arrays."""
    h = hashlib.sha256()
    for name in GRADCHECKED:
        feed(h, name, repr(sorted(gradcheck_variant(name, range(3)).items())))
    rng = np.random.default_rng(4)
    for w in (rng.normal(size=(3, 4)), rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))):
        feed(h, finite_diff_cogradient(lambda v: float(np.sum((np.sin(v) * v * v).real)), w))
    return h.hexdigest()


def main() -> int:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(ROWS, INPUT_DIM)) + 1j * rng.normal(size=(ROWS, INPUT_DIM))
    y = rng.integers(0, CLASSES, size=ROWS)
    train, val = (x[:120], y[:120]), (x[120:], y[120:])
    h, files = hashlib.sha256(), hashlib.sha256()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for label, model in models():
            feed(h, label, model.parameters())
            trace = optim.train(model, train, val, TRAIN, OBJECTIVE)
            for r in trace.records:
                feed(h, repr((r.iteration, r.train_loss, r.val_accuracy)))
            feed(h, repr((trace.best_iteration, trace.best_val_accuracy,
                          trace.total_iterations, trace.stop_reason)))
            feed(h, model.parameters(), model.predict_proba(x), model.predict(x),
                 repr(model.objective(x, y, OBJECTIVE)))
            value, grads = model.loss_and_grads(x, y, OBJECTIVE)
            feed(h, repr(value), grads)
            first, second = Path(tmp, f"{label}.cvkm"), Path(tmp, f"{label}.again.cvkm")
            save_model(first, model)
            restored = load_model(first)
            save_model(second, restored)
            feed(h, json.dumps(dataclasses.asdict(restored.config), sort_keys=True),
                 restored.parameters())
            feed(files, first.read_bytes())
            if first.read_bytes() != second.read_bytes():
                print(f"{label}: load then save changed the model file", file=sys.stderr)
                ok = False
        print(h.hexdigest())
        print(files.hexdigest())
        print(data_digest(tmp))
        report = report_digest(tmp)
        print(report or "the report digest's preprocess or compare failed")
        print(gradient_digest())
    return 0 if ok and report else 1


if __name__ == "__main__":
    sys.exit(main())
