"""Complex linear algebra and the gradient convention used everywhere else.

Gradients of a real objective J with respect to a complex parameter w are
carried as ``dJ/dRe(w) + 1j * dJ/dIm(w)`` (twice the conjugate Wirtinger
derivative). Under this convention the plain descent update
``w -= lr * grad`` is correct without a conjugation step, and the analytic
rules can be checked directly against :func:`finite_diff_cogradient`.

All arrays are double precision; complex data is ``complex128``. Data
comes in batches only: the affine rules take (rows, features) inputs, and a
single sample is a one-row batch. The affine rules keep their operands'
dtype: float64 operands give float64 results, so the real baseline's
layers run through the same rules as the complex network's.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError, NumericError

__all__ = [
    "complex_affine",
    "backward_affine",
    "hermitian_norm_sq",
    "finite_diff_cogradient",
]


def complex_affine(W: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y = x @ W.T + b`` for a (B, K) batch ``x``; the result is (B, M)."""
    W, x, b = np.asarray(W), np.asarray(x), np.asarray(b)
    if W.ndim != 2 or b.ndim != 1 or x.ndim != 2:
        raise DimensionError(
            f"expected W (M,K), b (M,), x (B,K); got {W.shape}, {b.shape}, {x.shape}"
        )
    if b.shape[0] != W.shape[0] or x.shape[1] != W.shape[1]:
        raise DimensionError(
            f"shapes do not conform: W {W.shape}, x {x.shape}, b {b.shape}"
        )
    return x @ W.T + b


def backward_affine(
    cograd_y: np.ndarray, W: np.ndarray | None, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Backward rule for :func:`complex_affine`.

    Given the cogradient of the output, returns ``(cograd_W, cograd_x,
    cograd_b)``. The affine map is holomorphic in each operand, so each
    cogradient is the output cogradient times the conjugated partial:

        cograd_x = cograd_y @ conj(W)
        cograd_W = cograd_y^T @ conj(x)   (summed over the batch)
        cograd_b = sum_b cograd_y

    ``W=None`` skips ``cograd_x``, returning None: a network's first layer
    needs none. ``.conj()`` of a real array is the array itself, not a copy.
    """
    g, x = np.asarray(cograd_y), np.asarray(x)
    if (g.ndim != 2 or x.ndim != 2 or g.shape[0] != x.shape[0]
            or W is not None and np.shape(W) != (g.shape[1], x.shape[1])):
        raise DimensionError(
            f"shapes do not conform: cograd_y {g.shape}, W {np.shape(W)}, x {x.shape}"
        )
    g_x = None if W is None else g @ np.asarray(W).conj()
    return g.T @ x.conj(), g_x, g.sum(axis=0)


def hermitian_norm_sq(w: np.ndarray) -> float:
    """Return ``sum_i |w_i|^2`` as a real scalar.

    One pass over the float64 parts. ``einsum`` runs numpy's own loop, not
    BLAS, so the sum does not depend on the BLAS thread count.
    """
    w = np.asarray(w)
    dtype = np.complex128 if np.iscomplexobj(w) else np.float64
    parts = np.ascontiguousarray(w, dtype=dtype).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", parts, parts))


def finite_diff_cogradient(
    f: Callable[[np.ndarray], float], w: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference cogradient of a real scalar function.

    ``f`` sees a float64 or complex128 copy of ``w``, whatever ``w``'s dtype,
    whose float64 values (a complex entry's real part, then its imaginary
    part) are perturbed in turn; the result has the copy's dtype. This is the
    reference oracle for every analytic backward rule in the package; it
    must stay independent of them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = np.array(w, dtype=np.complex128 if np.iscomplexobj(w) else np.float64, order="C")
    values = w.reshape(-1).view(np.float64)  # a complex entry is its (re, im) pair
    out = np.zeros(values.shape)

    def _eval() -> float:
        val = f(w)
        if not np.isfinite(val):
            raise NumericError(f"objective returned non-finite value {val!r}")
        return float(val)

    for k in range(values.size):
        orig = values[k]
        values[k] = orig + eps
        fp = _eval()
        values[k] = orig - eps
        fm = _eval()
        values[k] = orig
        out[k] = (fp - fm) / (2 * eps)
    return out.view(w.dtype).reshape(w.shape)
