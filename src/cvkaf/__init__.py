"""Complex-valued neural networks with trainable kernel activation functions.

The package implements fully complex feedforward networks whose hidden
nonlinearities are kernel expansions over a fixed dictionary in the complex
plane, including the widely linear extension with a pseudo-kernel term, a
CR-calculus backward pass for every building block, an Adagrad trainer with
early stopping, and an FFT-based complexification pipeline for image
classification benchmarks.

Importing the package gives the process one BLAS thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``: ``compare`` trains one run per usable CPU, and BLAS
threads on top of that oversubscribe the CPUs. A BLAS library reads these
variables once, when numpy first loads it, so they only take effect if
``cvkaf`` is imported before numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"

from .kernels import Dictionary, build_dictionary  # noqa: E402,F401
