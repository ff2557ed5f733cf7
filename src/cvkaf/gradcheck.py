"""The one finite-difference check of the analytic cogradients.

:func:`gradcheck_variant` builds one tiny network per seed of a model that
``cvkaf train`` accepts, moves it to a generic point with :func:`draw_alphas`
(each model starts each neuron's alpha at one fitted identity, and each bias
at zero, where a dead ReLU unit parks the next pre-activation on its kink),
compares every analytic parameter cogradient with central differences of
the regularized objective, and returns each parameter group's worst
normalized error over the seeds: ``cvkaf gradcheck``, which acceptance
criterion 4 runs, compares it with :data:`DEFAULT_TOLERANCE`, 1e-5. The
normalized error is |analytic - numeric| divided by max(|numeric|, 1e-3),
so the threshold of 1e-5 relative also admits absolute errors up to 1e-8
where the true gradient vanishes; a NaN error, from a non-finite analytic
gradient, counts as infinite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .activations import ACTIVATION_VARIANTS
from .cnum import finite_diff_cogradient
from .kernels import build_dictionary
from .network import TrainObjective, build_model

__all__ = ["ALL_MODELS", "DEFAULT_TOLERANCE", "draw_alphas", "gradcheck_variant"]

ALL_MODELS = ("real_nn", *ACTIVATION_VARIANTS)  # what ``cvkaf gradcheck --model all`` checks
DEFAULT_TOLERANCE = 1e-5
_ABS_FLOOR = 1e-3  # denominator floor: 1e-8 absolute at the 1e-5 threshold


def draw_alphas(model, rng: np.random.Generator, groups=("alpha",)) -> None:
    """Overwrite each parameter of ``groups``, in layer order, with draws of std 0.3."""
    for name, arr in model.parameters().items():
        if name.split(".", 1)[1] in groups:
            s = 0.3 / np.sqrt(2.0) if np.iscomplexobj(arr) else 0.3  # per part
            draw = rng.normal(0.0, s, arr.shape)
            arr[...] = draw + 1j * rng.normal(0.0, s, arr.shape) if np.iscomplexobj(arr) else draw
    model.bump_version()


def gradcheck_variant(variant: str, seeds: Iterable[int]) -> dict[str, float]:
    """The worst normalized error of each parameter group (``W``, ``alpha``,
    ..., over every layer) over ``seeds`` of the model ``variant``. Each seed builds
    3 inputs, hidden widths (4, 4), 2 classes and a 4x4 dictionary at that seed,
    then draws 3 rows, their labels, the alphas and the biases from a ``seed + 1``
    generator; C is 1e-3, and :func:`~cvkaf.cnum.finite_diff_cogradient` steps 1e-6."""
    input_dim, classes, batch = 3, 2, 3
    objective = TrainObjective("cross_entropy", 1e-3)
    worst: dict[str, float] = {}
    for seed in seeds:
        model = build_model(variant, input_dim, classes, seed, (4, 4), build_dictionary(4))
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, input_dim)) + 1j * rng.normal(size=(batch, input_dim))
        y = rng.integers(0, classes, size=batch)
        draw_alphas(model, rng, ("alpha", "b"))

        _, grads = model.loss_and_grads(x, y, objective)
        for name, arr in model.parameters().items():
            original = arr.copy()

            def f(values, _arr=arr):
                _arr[...] = values
                return model.objective(x, y, objective)

            numeric = finite_diff_cogradient(f, original)
            arr[...] = original
            err = float(np.max(
                np.abs(grads[name] - numeric) / np.maximum(np.abs(numeric), _ABS_FLOOR)
            ))
            group = name.split(".", 1)[1]
            worst[group] = max(worst.get(group, 0.0), math.inf if math.isnan(err) else err)
    return worst
