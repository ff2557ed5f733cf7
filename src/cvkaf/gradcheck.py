"""Finite-difference verification harness for full networks.

Builds a tiny randomly configured network of one activation variant (a
name that :func:`~cvkaf.activations.activation_named` accepts), compares every
analytic parameter cogradient against central differences of the
regularized objective, and reports the worst normalized error per
parameter group. The normalized error is |analytic - numeric| divided by
max(|numeric|, 1e-3), so the pass threshold of 1e-5 relative also admits
absolute errors up to 1e-8 where the true gradient vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnum import finite_diff_cogradient
from .network import ComplexNetwork, NetworkConfig, TrainObjective

__all__ = ["GradcheckReport", "gradcheck_variant"]

DEFAULT_TOLERANCE = 1e-5
_ABS_FLOOR = 1e-3  # denominator floor: 1e-8 absolute at the 1e-5 threshold


@dataclass
class GradcheckReport:
    """Worst normalized error per parameter group of one variant, over
    ``seeds`` seeds."""

    variant: str
    seeds: int = 1
    worst_by_group: dict[str, float] = field(default_factory=dict)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def worst(self) -> float:
        return max(self.worst_by_group.values())

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def note(self, group: str, err: float) -> None:
        """Keep ``err`` if it is the worst seen for ``group``."""
        self.worst_by_group[group] = max(self.worst_by_group.get(group, 0.0), err)

    def fold(self, other: "GradcheckReport") -> None:
        """Add the report of another seed of the same variant."""
        self.seeds += other.seeds
        for group, err in other.worst_by_group.items():
            self.note(group, err)

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"[{status}] {self.variant:<20} worst={self.worst:.3e} over {self.seeds} seeds"]
        for group, err in sorted(self.worst_by_group.items()):
            mark = "" if err <= self.tolerance else "  <-- exceeds tolerance"
            out.append(f"    {group:<18} {err:.3e}{mark}")
        return out


def gradcheck_variant(variant: str, seed: int,
                      tolerance: float = DEFAULT_TOLERANCE) -> GradcheckReport:
    """Compare analytic and numeric cogradients on a tiny random network:
    3 inputs, hidden widths (4, 4), 2 classes, a 4x4 dictionary, random
    alphas, 3 rows, C = 1e-3, and
    :func:`~cvkaf.cnum.finite_diff_cogradient` at its step of 1e-6."""
    input_dim, classes, batch = 3, 2, 3
    model = ComplexNetwork(NetworkConfig(input_dim, (4, 4), classes, activation=variant,
                                         seed=seed, alpha_init="random", dict_points=4))
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(batch, input_dim)) + 1j * rng.normal(size=(batch, input_dim))
    y = rng.integers(0, classes, size=batch)
    objective = TrainObjective("cross_entropy", 1e-3)

    _, grads = model.loss_and_grads(x, y, objective)
    report = GradcheckReport(variant, tolerance=tolerance)
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
        report.note(name.split(".", 1)[1], err)
    return report
