"""Property-based checks of the kernel algebra, the softmax and the alpha rank.

Hypothesis draws sizes, bandwidths and seeds; the arrays come from numpy
generators seeded with the drawn seed. Every test is derandomized and
bounded, so the module is deterministic and runs in a few seconds. It is
skipped where Hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cvkaf import activations as act  # noqa: E402
from cvkaf.kernels import build_dictionary  # noqa: E402
from cvkaf.network import complex_softmax, softmax_from_squared_magnitudes  # noqa: E402

from conftest import random_complex  # noqa: E402
from reference import KernelBlockSet, vector_model_eval, wl_from_blocks  # noqa: E402

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)
log_bandwidth_offsets = st.floats(-1.0, 1.0)  # from the rule of thumb, in log space


@BOUNDED
@given(seed=seeds, m=st.integers(2, 8), width=st.integers(1, 5), offset=log_bandwidth_offsets)
def test_case1_at_equal_bandwidths_is_the_real_gaussian_kaf(seed, m, width, offset):
    rng = np.random.default_rng(seed)
    dictionary = build_dictionary(m)
    lg = np.log(act.gamma_rule_of_thumb(dictionary)) + offset + 0.3 * rng.normal(size=width)
    alpha = random_complex(rng, (width, dictionary.size))
    z = random_complex(rng, (7, width), scale=1.5)
    case1, _ = act.WlKafCase1Activation().forward(
        z, {"alpha": alpha, "log_gamma_rr": lg, "log_gamma_ii": lg}, dictionary)
    standard, _ = act.KafActivation("real_gaussian").forward(
        z, {"alpha": alpha, "log_gamma": lg}, dictionary)
    assert np.max(np.abs(case1 - standard)) <= 1e-14


@BOUNDED
@given(seed=seeds, d=st.integers(1, 64), scale=st.floats(1e-3, 4.0))
def test_widely_linear_form_is_the_block_model(seed, d, scale):
    rng = np.random.default_rng(seed)
    blocks = KernelBlockSet(*(scale * rng.normal(size=d) for _ in range(4)))
    alpha = random_complex(rng, d)
    k, kt = wl_from_blocks(blocks)
    wl = k @ alpha + kt @ np.conj(alpha)
    assert abs(wl - vector_model_eval(blocks, alpha)) <= 1e-12


@BOUNDED
@given(seed=seeds, classes=st.integers(1, 12), theta=st.floats(-np.pi, np.pi),
       shift=st.floats(-50.0, 50.0))
def test_complex_softmax_ignores_a_global_phase_and_a_shift(seed, classes, theta, shift):
    h = random_complex(np.random.default_rng(seed), (5, classes), scale=1.5)
    p = complex_softmax(h)
    np.testing.assert_allclose(complex_softmax(h * np.exp(1j * theta)), p, rtol=0, atol=1e-12)
    shifted = softmax_from_squared_magnitudes(np.abs(h) ** 2 + shift)
    np.testing.assert_allclose(shifted, p, rtol=0, atol=1e-12)


@BOUNDED
@given(m=st.integers(2, 8), offset=log_bandwidth_offsets)
def test_independent_kernel_alpha_rank_is_2m(m, offset):
    dictionary = build_dictionary(m)
    lg = np.log(act.gamma_rule_of_thumb(dictionary)) + offset
    design = act.alpha_design(act.KafActivation("independent"), dictionary,
                              {"log_gamma": lg}, dictionary.points)
    assert np.linalg.matrix_rank(design) == 2 * m
