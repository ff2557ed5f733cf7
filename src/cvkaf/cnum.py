"""Complex linear algebra and the gradient convention used everywhere else.

Gradients of a real objective J with respect to a complex parameter w are
carried as ``dJ/dRe(w) + 1j * dJ/dIm(w)`` (twice the conjugate Wirtinger
derivative). Under this convention the plain descent update
``w -= lr * grad`` is correct without a conjugation step, and the analytic
rules can be checked directly against :func:`finite_diff_cogradient`.

All arrays are double precision; complex data is ``complex128``. Data
comes in batches only: the affine rules take (rows, features) inputs, and a
single sample is a one-row batch.
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
    W = np.asarray(W, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
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
    cograd_y: np.ndarray, W: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward rule for :func:`complex_affine`.

    Given the cogradient of the output, returns ``(cograd_W, cograd_x,
    cograd_b)``. The affine map is holomorphic in each operand, so each
    cogradient is the output cogradient times the conjugated partial:

        cograd_x = cograd_y @ conj(W)
        cograd_W = cograd_y^T @ conj(x)   (summed over the batch)
        cograd_b = sum_b cograd_y
    """
    W = np.asarray(W, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    g = np.asarray(cograd_y, dtype=np.complex128)
    m, k = W.shape
    if g.ndim != 2 or x.ndim != 2 or g.shape != (x.shape[0], m) or x.shape[1] != k:
        raise DimensionError(
            f"shapes do not conform: cograd_y {g.shape}, W {W.shape}, x {x.shape}"
        )
    return g.T @ np.conj(x), g @ np.conj(W), g.sum(axis=0)


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

    Real and imaginary parts of every entry are perturbed independently.
    For real-valued ``w`` the result is a real array of plain central
    differences. This is the reference oracle for every analytic backward
    rule in the package; it must stay independent of them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = np.array(w)
    is_complex = np.iscomplexobj(w)
    out = np.zeros(w.shape, dtype=np.complex128 if is_complex else np.float64)
    flat_w = w.reshape(-1)
    flat_out = out.reshape(-1)

    def _eval(v: np.ndarray) -> float:
        val = f(v.reshape(w.shape))
        if not np.isfinite(val):
            raise NumericError(f"objective returned non-finite value {val!r}")
        return float(val)

    for i in range(flat_w.size):
        orig = flat_w[i]
        flat_w[i] = orig + eps
        fp = _eval(flat_w)
        flat_w[i] = orig - eps
        fm = _eval(flat_w)
        flat_w[i] = orig
        d_re = (fp - fm) / (2 * eps)
        if is_complex:
            flat_w[i] = orig + 1j * eps
            fp = _eval(flat_w)
            flat_w[i] = orig - 1j * eps
            fm = _eval(flat_w)
            flat_w[i] = orig
            flat_out[i] = d_re + 1j * (fp - fm) / (2 * eps)
        else:
            flat_out[i] = d_re
    return out
