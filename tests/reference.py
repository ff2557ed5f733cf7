"""Dense reference forms of the kernels and kernel activations.

Three scalar kernels are provided: a fully complex Gaussian
``exp(-g*(z - conj(d))^2)``, an "independent" kernel assembled from four
real Gaussian evaluations on the component pairs, and a real Gaussian of
the complex distance ``exp(-g*|z - d|^2)``. On top of these sit the
matrix-valued (block) view of a complex kernel, the kernel/pseudo-kernel
pair recovered from arbitrary blocks, the two widely linear cases
(separate bandwidths for the real and imaginary responses, case 1, and a
sum of real kernels with an imaginary pseudo-kernel mixed by fixed
weights, case 2), and the dense expansions ``kaf_forward`` and
``wlkaf_forward_case*`` built from them.

Every function broadcasts over numpy arrays; ``gamma`` may be a scalar or
an array broadcastable against the inputs. Each form evaluates one kernel
value per (input, atom) pair, independently of the separable term engine
in :mod:`cvkaf.activations`: these are the oracles the tests and the
acceptance gate check the package against, and no command runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from cvkaf.errors import NumericError, ParameterError
from cvkaf.kernels import Dictionary

# Largest |real part| of a complex-Gaussian exponent before we refuse to
# exponentiate; exp(709) is the float64 overflow edge.
_EXP_LIMIT = 700.0


def sq_distance(z, d) -> np.ndarray:
    """``|z - d|^2`` as ``re^2 + im^2``.

    Single source of truth for all real-Gaussian paths: the widely linear
    case-1 pair degenerates to the standard kernel bit-for-bit only if both
    compute the squared distance with the exact same operations.
    """
    diff = np.asarray(z, dtype=np.complex128) - np.asarray(d, dtype=np.complex128)
    re, im = diff.real, diff.imag
    return re * re + im * im


def gaussian_complex(z, d, gamma):
    """Complex Gaussian ``exp(-gamma * (z - conj(d))^2)``.

    The exponent is a genuine complex square, so the value is unbounded;
    evaluation refuses to overflow silently and raises instead.
    """
    z = np.asarray(z, dtype=np.complex128)
    d = np.asarray(d, dtype=np.complex128)
    _check_gamma(gamma)
    w = z - np.conj(d)
    # the complex square and exponential are spelled out in real arithmetic:
    # numpy's SIMD complex-multiply loops use FMA and round differently
    # between scalar and array evaluation, which would break the vectorized
    # kernel matrix's bit-identity with the scalar loop
    g = np.asarray(gamma)
    re = -g * (w.real * w.real - w.imag * w.imag)
    im = -g * (2.0 * (w.real * w.imag))
    if np.any(np.abs(re) > _EXP_LIMIT):
        raise NumericError(
            "complex Gaussian exponent exceeds the safe range "
            f"(max |Re| = {float(np.max(np.abs(re))):.3g} > {_EXP_LIMIT:g})"
        )
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im))


def gaussian_real_of_complex(z, d, gamma):
    """Real Gaussian of the complex distance: ``exp(-gamma * |z - d|^2)``."""
    _check_gamma(gamma)
    return np.exp(-np.asarray(gamma) * sq_distance(z, d))


def independent_kernel(z, d, gamma):
    """Complex kernel from four real Gaussians on the component pairs:

        k(z,d) = kR(Re z, Re d) + kR(Im z, Im d)
               + i*(kR(Re z, Im d) - kR(Im z, Re d))

    with ``kR(a,b) = exp(-gamma*(a-b)^2)``.
    """
    z = np.asarray(z, dtype=np.complex128)
    d = np.asarray(d, dtype=np.complex128)
    _check_gamma(gamma)
    g = np.asarray(gamma)

    def k_r(a, b):
        return np.exp(-g * (a - b) ** 2)

    return (
        k_r(z.real, d.real)
        + k_r(z.imag, d.imag)
        + 1j * (k_r(z.real, d.imag) - k_r(z.imag, d.real))
    )


KERNELS: dict[str, Callable] = {
    "complex_gaussian": gaussian_complex,
    "independent": independent_kernel,
    "real_gaussian": gaussian_real_of_complex,
}


def kernel_matrix(z_batch, dictionary: Dictionary, kernel, gamma) -> np.ndarray:
    """Evaluate ``kernel(z_b, d_j)`` for every batch element and atom.

    ``kernel`` is one of the scalar kernels above or a name from
    :data:`KERNELS`. Returns a (B, D) array equal to the elementwise
    scalar evaluation loop.
    """
    if isinstance(kernel, str):
        kernel = KERNELS[kernel]
    z = np.asarray(z_batch, dtype=np.complex128)
    return kernel(z[..., None], dictionary.points, gamma)


@dataclass(frozen=True)
class KernelBlockSet:
    """The four real length-D responses of a matrix-valued kernel."""

    k_rr: np.ndarray
    k_ri: np.ndarray
    k_ir: np.ndarray
    k_ii: np.ndarray

    def __post_init__(self):
        blocks = (self.k_rr, self.k_ri, self.k_ir, self.k_ii)
        lengths = {np.asarray(b).shape for b in blocks}
        if len(lengths) != 1:
            raise ParameterError(f"block shapes differ: {sorted(lengths)}")
        for name, b in zip(("k_rr", "k_ri", "k_ir", "k_ii"), blocks):
            if not np.all(np.isfinite(b)):
                raise NumericError(f"non-finite entries in {name}")


def blocks_from_complex_kernel(kernel, z, dictionary: Dictionary, gamma) -> KernelBlockSet:
    """Block decomposition imposed by a single complex kernel.

    A plain transposed expansion ``k^T alpha`` can only realize blocks with
    ``k_rr = k_ii = Re(k)`` and ``k_ri = -k_ir = -Im(k)``; this returns
    exactly those.
    """
    k = np.asarray(kernel_matrix(np.atleast_1d(z), dictionary, kernel, gamma)[0],
                   dtype=np.complex128)
    return KernelBlockSet(
        k_rr=k.real.copy(), k_ri=-k.imag, k_ir=k.imag.copy(), k_ii=k.real.copy()
    )


def vector_model_eval(blocks: KernelBlockSet, alpha: np.ndarray) -> complex:
    """Direct evaluation of the two-output matrix-valued model.

    Stacks the real and imaginary outputs as

        [g_r; g_i] = [[k_rr^T, k_ri^T], [k_ir^T, k_ii^T]] @ [a_r; a_i]

    and returns ``g_r + i*g_i``. This is the independent oracle for the
    widely linear identities and stays a plain block matrix product.
    """
    a = np.asarray(alpha, dtype=np.complex128)
    g_r = blocks.k_rr @ a.real + blocks.k_ri @ a.imag
    g_i = blocks.k_ir @ a.real + blocks.k_ii @ a.imag
    return complex(g_r + 1j * g_i)


def wl_from_blocks(blocks: KernelBlockSet) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and pseudo-kernel reproducing an arbitrary block set:

        k  = 0.5*[k_rr + k_ii + i*(k_ir - k_ri)]
        kt = 0.5*[k_rr - k_ii + i*(k_ir + k_ri)]

    Evaluating ``k^T a + kt^T conj(a)`` then matches
    :func:`vector_model_eval` identically.
    """
    k = 0.5 * (blocks.k_rr + blocks.k_ii + 1j * (blocks.k_ir - blocks.k_ri))
    k_tilde = 0.5 * (blocks.k_rr - blocks.k_ii + 1j * (blocks.k_ir + blocks.k_ri))
    return k, k_tilde


def case1_pair(z, dictionary: Dictionary, gamma_rr, gamma_ii) -> tuple[np.ndarray, np.ndarray]:
    """Widely linear pair under independent real/imaginary responses.

    The diagonal blocks are real Gaussians with separate bandwidths and the
    off-diagonal blocks vanish, leaving

        k  = 0.5*(k_rr + k_ii),   kt = 0.5*(k_rr - k_ii)

    both real-valued. Equal bandwidths give ``kt = 0`` and ``k = k_rr``
    exactly (no rounding: ``0.5*(x + x) == x`` in IEEE arithmetic).
    """
    _check_gamma(gamma_rr)
    _check_gamma(gamma_ii)
    zs = np.asarray(z, dtype=np.complex128)
    sq = sq_distance(zs[..., None], dictionary.points)
    k_rr = np.exp(-np.asarray(gamma_rr) * sq)
    k_ii = np.exp(-np.asarray(gamma_ii) * sq)
    return 0.5 * (k_rr + k_ii), 0.5 * (k_rr - k_ii)


def case2_pair(
    z,
    dictionary: Dictionary,
    gammas: Sequence[float],
    gamma_tildes: Sequence[float],
    omegas: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Widely linear pair from separable kernels with mixing weights:

        k  = sum_q exp(-g_q*|z-d|^2)              (real)
        kt = 2i * sum_q w_q * exp(-gt_q*|z-d|^2)  (purely imaginary)

    Each of the Q components has its own bandwidth for the kernel and the
    pseudo-kernel; each mixing weight must lie strictly inside (0, 1).
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    gamma_tildes = np.atleast_1d(np.asarray(gamma_tildes, dtype=np.float64))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    if not (gammas.shape == gamma_tildes.shape == omegas.shape):
        raise ParameterError("gammas, gamma_tildes and omegas must have equal length")
    if np.any(omegas <= 0.0) or np.any(omegas >= 1.0):
        raise ParameterError(f"mixing weights must lie in (0, 1), got {omegas}")
    _check_gamma(gammas)
    _check_gamma(gamma_tildes)
    zs = np.asarray(z, dtype=np.complex128)
    sq = sq_distance(zs[..., None], dictionary.points)  # (..., D)
    k = np.sum(np.exp(-gammas[:, None] * sq[..., None, :]), axis=-2)
    kt_real = np.sum(
        omegas[:, None] * np.exp(-gamma_tildes[:, None] * sq[..., None, :]), axis=-2
    )
    return k, 2j * kt_real


def _check_gamma(gamma) -> None:
    if np.any(np.asarray(gamma) <= 0):
        raise ParameterError(f"kernel bandwidth must be positive, got {gamma}")


def kaf_forward(z, alpha, dictionary: Dictionary, kernel, gamma):
    """Kernel expansion ``g(z) = k(z)^T alpha`` (plain transpose, no conjugation)."""
    k = kernel_matrix(z, dictionary, kernel, gamma)
    return k @ np.asarray(alpha, dtype=np.complex128)


def wlkaf_forward_case1(z, alpha, dictionary: Dictionary, gamma_rr, gamma_ii):
    """Widely linear expansion with the case-1 kernel/pseudo-kernel pair."""
    k, kt = case1_pair(z, dictionary, gamma_rr, gamma_ii)
    alpha = np.asarray(alpha, dtype=np.complex128)
    return k @ alpha + kt @ np.conj(alpha)


def wlkaf_forward_case2(z, alpha, dictionary: Dictionary, gammas, gamma_tildes, omegas):
    """Widely linear expansion with the case-2 kernel/pseudo-kernel pair."""
    k, kt = case2_pair(z, dictionary, gammas, gamma_tildes, omegas)
    alpha = np.asarray(alpha, dtype=np.complex128)
    return k @ alpha + kt @ np.conj(alpha)
