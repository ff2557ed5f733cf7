"""Complex-valued neural networks with trainable kernel activation functions.

The package implements fully complex feedforward networks whose hidden
nonlinearities are kernel expansions over a fixed dictionary in the complex
plane, including the widely linear extension with a pseudo-kernel term, a
CR-calculus backward pass for every building block, an Adagrad trainer with
early stopping, and an FFT-based complexification pipeline for image
classification benchmarks.

Importing the package gives the process one BLAS thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``: ``compare`` and ``evaluate`` run one process per usable
CPU, and BLAS threads on top of that oversubscribe the CPUs. A BLAS library
reads these variables once, when numpy first loads it, so they only take
effect if ``cvkaf`` is imported before numpy. Importing ``cvkaf`` after numpy with
none of the three set issues a ``RuntimeWarning``.
"""

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

__version__ = "0.1.0"

from .kernels import Dictionary, build_dictionary  # noqa: E402,F401
