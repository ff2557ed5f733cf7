"""Complex-valued neural networks with trainable kernel activation functions.

The package implements fully complex feedforward networks whose hidden
nonlinearities are kernel expansions over a fixed dictionary in the complex
plane, including the widely linear extension with a pseudo-kernel term, a
CR-calculus backward pass for every building block, an Adagrad trainer with
early stopping, and an FFT-based complexification pipeline for image
classification benchmarks.

Importing the package sets two process defaults, since its kernels run in the
importing process. It gives the process one BLAS thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``: ``compare`` and ``evaluate`` run one process per usable
CPU, and BLAS threads on top of that oversubscribe the CPUs. A BLAS library
reads these variables once, when numpy first loads it, so they only take
effect if ``cvkaf`` is imported before numpy. Importing ``cvkaf`` after numpy with
none of the three set issues a ``RuntimeWarning``. Under glibc, it also fixes
the malloc policy with ``mallopt(3)``: blocks of ``MMAP_THRESHOLD`` (4 MiB) or
more are mapped and go back to the system when freed, and the heap is trimmed
only past ``TRIM_THRESHOLD`` (64 MiB) free at its top. This changes no
arithmetic; under any other C library nothing is set.
"""

import ctypes
import os
import sys
import warnings

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    warnings.warn("numpy was imported before cvkaf, so BLAS may run a thread per CPU in each "
                  f"process; import cvkaf first or set {', '.join(_BLAS_THREADS)}",
                  RuntimeWarning, stacklevel=2)
for _name in _BLAS_THREADS:
    os.environ.setdefault(_name, "1")

# glibc's defaults move both thresholds as blocks are freed: a fresh process
# maps and faults in every 256-400 KiB KAF temporary anew (10,944 minor faults
# per 1024-row paper-shape case-1 predict, 1,741 per training step), and a
# long-lived one keeps a fragmented heap (perfbench train-case1 peaked at 107
# MB). Fixed, every temporary at the shapes served (at most 1.6 MiB) is reused
# from the heap, and images, features and caches go back to the system.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h> parameter numbers


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or not this name
        return False


if _glibc():
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    _mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)

__version__ = "0.1.0"

from .kernels import Dictionary, build_dictionary  # noqa: E402,F401
