"""The fixed dictionary: a square grid of sample points in the complex plane.

Every kernel activation in :mod:`cvkaf.activations` expands over this
grid; its row-major point order (imaginary axis outer, real axis inner) is
what lets each layer evaluate its Gaussian kernels as separable per-axis
factors, and what serialized models rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _is_a

__all__ = ["Dictionary", "build_dictionary"]

DEFAULT_POINTS_PER_AXIS = 8
DEFAULT_AXIS_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class Dictionary:
    """Fixed grid of complex sample points.

    ``points`` enumerates the Cartesian product of ``points_per_axis``
    equispaced values on each axis in row-major order: the imaginary axis
    varies in the outer loop, the real axis in the inner loop, both
    ascending. Serialized models rely on this ordering. :func:`build_dictionary`
    makes every one, with the ``spacing`` of neighbouring values on an axis.
    """

    points: np.ndarray
    points_per_axis: int
    axis_range: tuple[float, float]
    spacing: float

    @property
    def size(self) -> int:
        return self.points.shape[0]


def build_dictionary(points_per_axis: int = DEFAULT_POINTS_PER_AXIS,
                     axis_range: tuple[float, float] = DEFAULT_AXIS_RANGE) -> Dictionary:
    """Sample a ``m x m`` grid over ``axis_range`` on both axes.

    The point count must be an integer and the range two real numbers, as
    given: nothing else is coerced to them. The range must be finite, and so
    must its span and the rule-of-thumb bandwidth ``1/(2*spacing^2)``:
    otherwise the points or the bandwidths that start from them are not
    finite.
    """
    ends = tuple(axis_range)
    if not _is_a(points_per_axis, numbers.Integral):
        raise ParameterError(f"points_per_axis must be an integer, got {points_per_axis!r}")
    if len(ends) != 2 or not all(_is_a(e, numbers.Real) for e in ends):
        raise ParameterError(f"axis_range must be two real numbers, got {axis_range!r}")
    m, (lo, hi) = int(points_per_axis), map(float, ends)
    if m < 2:
        raise ParameterError(f"points_per_axis must be >= 2, got {points_per_axis}")
    if not lo < hi:
        raise ParameterError(f"axis_range must satisfy lo < hi, got ({lo}, {hi})")
    spacing = (hi - lo) / (m - 1)  # infinite if lo, hi or the span is
    square = spacing * spacing
    if not (square > 0.0 and 0.0 < 1.0 / (2.0 * square) < math.inf):
        raise ParameterError(f"axis_range ({lo}, {hi}) gives grid spacing {spacing}, whose "
                             f"bandwidth 1/(2*spacing^2) is not finite and positive")
    axis = np.linspace(lo, hi, m)
    re, im = np.meshgrid(axis, axis, indexing="xy")  # imaginary outer, real inner
    points = (re + 1j * im).reshape(-1).astype(np.complex128)
    return Dictionary(points=points, points_per_axis=m, axis_range=(lo, hi), spacing=spacing)
