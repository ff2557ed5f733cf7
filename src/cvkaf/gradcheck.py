"""The one finite-difference check of the analytic cogradients.

:func:`gradcheck_variant` builds one tiny network per seed with a hidden
activation that :func:`~cvkaf.activations.activation_named` accepts,
moves it to a generic point with :func:`draw_alphas` (every model starts
each neuron's alpha at the same fitted identity), compares every analytic
parameter cogradient with central differences of the regularized
objective, and returns each parameter group's worst normalized error over
the seeds: ``cvkaf gradcheck`` and acceptance criterion 4 both compare it
with :data:`DEFAULT_TOLERANCE`, 1e-5. The normalized error is
|analytic - numeric| divided by max(|numeric|, 1e-3), so the threshold of
1e-5 relative also admits absolute errors up to 1e-8 where the true
gradient vanishes; a NaN error, from a non-finite analytic gradient,
counts as infinite.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .cnum import finite_diff_cogradient
from .network import ComplexNetwork, NetworkConfig, TrainObjective

__all__ = ["DEFAULT_TOLERANCE", "draw_alphas", "gradcheck_variant"]

DEFAULT_TOLERANCE = 1e-5
_ABS_FLOOR = 1e-3  # denominator floor: 1e-8 absolute at the 1e-5 threshold


def draw_alphas(model, rng: np.random.Generator) -> None:
    """Overwrite every layer's ``alpha``, in layer order, with complex draws of std 0.3."""
    s = 0.3 / np.sqrt(2.0)  # per part
    for name, arr in model.parameters().items():
        if name.endswith(".alpha"):
            arr[...] = rng.normal(0.0, s, arr.shape) + 1j * rng.normal(0.0, s, arr.shape)
    model.bump_version()


def gradcheck_variant(variant: str, seeds: Iterable[int]) -> dict[str, float]:
    """The worst normalized error of each parameter group (``W``, ``alpha``,
    ..., over every layer) over ``seeds``. Each seed builds 3 inputs, hidden
    widths (4, 4), 2 classes and a 4x4 dictionary at that seed, then draws 3
    rows, their labels and the alphas from a ``seed + 1`` generator; C is
    1e-3, and :func:`~cvkaf.cnum.finite_diff_cogradient` steps 1e-6."""
    input_dim, classes, batch = 3, 2, 3
    objective = TrainObjective("cross_entropy", 1e-3)
    worst: dict[str, float] = {}
    for seed in seeds:
        model = ComplexNetwork(NetworkConfig(input_dim, (4, 4), classes, activation=variant,
                                             seed=seed, dict_points=4))
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, input_dim)) + 1j * rng.normal(size=(batch, input_dim))
        y = rng.integers(0, classes, size=batch)
        draw_alphas(model, rng)

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
