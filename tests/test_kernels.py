"""Kernel evaluations, block decompositions, and widely linear identities."""

import numpy as np
import pytest

from cvkaf.errors import NumericError, ParameterError
from cvkaf.kernels import build_dictionary

from conftest import random_complex
from reference import (
    KernelBlockSet,
    blocks_from_complex_kernel,
    case1_pair,
    case2_pair,
    gaussian_complex,
    gaussian_real_of_complex,
    independent_kernel,
    kernel_matrix,
    vector_model_eval,
    wl_from_blocks,
)


class TestBuildDictionary:
    def test_four_by_four_grid(self):
        d = build_dictionary(4, (-2.0, 2.0))
        assert d.size == 16
        for corner in (-2 - 2j, -2 + 2j, 2 - 2j, 2 + 2j):
            assert corner in d.points

    def test_corner_only_grid(self):
        d = build_dictionary(2, (-1.0, 1.0))
        np.testing.assert_array_equal(d.points, [-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])

    def test_eight_point_axis(self):
        d = build_dictionary(8, (-2.0, 2.0))
        assert d.size == 64
        assert d.spacing == pytest.approx(4.0 / 7.0)

    def test_ordering_imaginary_outer_real_inner(self):
        d = build_dictionary(3, (-1.0, 1.0))
        # first row: imaginary part -1, real part ascending
        np.testing.assert_allclose(d.points[:3], [-1 - 1j, -1j, 1 - 1j])
        np.testing.assert_allclose(d.points[3:6], [-1 + 0j, 0j, 1 + 0j])

    def test_rejects_small_axis(self):
        with pytest.raises(ParameterError):
            build_dictionary(1, (-2.0, 2.0))
        with pytest.raises(ParameterError):
            build_dictionary(4, (2.0, -2.0))

    @pytest.mark.parametrize("points, axis_range", [
        (4.9, (-2.0, 2.0)), ("4", (-2.0, 2.0)), (True, (-2.0, 2.0)),
        (4, ("-2", "2")), (4, (-2.0, 2.0j)), (4, (False, True)), (4, (-2.0, 0.0, 2.0))])
    def test_refuses_a_grid_that_is_not_numbers(self, points, axis_range):
        with pytest.raises(ParameterError, match="must be (an integer|two real numbers)"):
            build_dictionary(points, axis_range)

    def test_takes_numpy_and_integer_numbers_as_they_are(self):
        d = build_dictionary(np.int64(3), (-1, np.float32(1.0)))
        assert d.points_per_axis == 3 and d.axis_range == (-1.0, 1.0)


class TestGaussianComplex:
    def test_reflected_diagonal_is_one(self, rng):
        for _ in range(20):
            d = complex(rng.normal(), rng.normal())
            np.testing.assert_allclose(gaussian_complex(np.conj(d), d, 2.7), 1.0)

    def test_scalar_values(self):
        np.testing.assert_allclose(gaussian_complex(1j, 0.0, 1.0), np.e, rtol=1e-12)
        np.testing.assert_allclose(gaussian_complex(1.0, 0.0, 1.0), np.exp(-1), rtol=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(NumericError):
            gaussian_complex(30j, 0.0, 1.0)  # exponent +900

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            gaussian_complex(1.0, 0.0, 0.0)


class TestGaussianRealOfComplex:
    def test_zero_distance(self):
        assert gaussian_real_of_complex(1 + 1j, 1 + 1j, 3.0) == 1.0

    def test_scalar_value(self):
        np.testing.assert_allclose(
            gaussian_real_of_complex(1 + 1j, 0.0, 1.0), np.exp(-2), rtol=1e-12
        )

    def test_symmetry(self, rng):
        z = random_complex(rng, 100)
        d = random_complex(rng, 100)
        np.testing.assert_array_equal(
            gaussian_real_of_complex(z, d, 0.7), gaussian_real_of_complex(d, z, 0.7)
        )

    def test_bounded(self, rng):
        v = gaussian_real_of_complex(random_complex(rng, 500, 3), random_complex(rng, 500, 3), 1.3)
        assert np.all(v > 0) and np.all(v <= 1)


class TestIndependentKernel:
    def test_equal_arguments(self, rng):
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            np.testing.assert_allclose(independent_kernel(z, z, 1.1), 2.0 + 0j)

    def test_scalar_value(self):
        np.testing.assert_allclose(
            independent_kernel(1.0, 1j, 1.0), 2 * np.exp(-1), rtol=1e-12
        )

    def test_hermitian(self, rng):
        z = random_complex(rng, 100)
        d = random_complex(rng, 100)
        np.testing.assert_allclose(
            independent_kernel(z, d, 0.9),
            np.conj(independent_kernel(d, z, 0.9)),
            rtol=1e-14,
        )

    def test_bounds(self, rng):
        v = independent_kernel(random_complex(rng, 1000, 3), random_complex(rng, 1000, 3), 1.0)
        assert np.all(v.real > 0) and np.all(v.real <= 2)
        assert np.all(np.abs(v.imag) < 1)


class TestKernelMatrix:
    def test_single_element_reduces_to_vector(self, dict4, rng):
        z = random_complex(rng, 1)
        m = kernel_matrix(z, dict4, "real_gaussian", 1.0)
        v = gaussian_real_of_complex(z[0], dict4.points, 1.0)
        np.testing.assert_array_equal(m[0], v)

    def test_unit_row_at_dictionary_point(self, dict4):
        m = kernel_matrix(np.array([dict4.points[5]]), dict4, "real_gaussian", 1.7)
        assert m[0, 5] == 1.0
        assert np.all(m[0, np.arange(16) != 5] < 1.0)

    @pytest.mark.parametrize("kernel", ["real_gaussian", "independent", "complex_gaussian"])
    def test_bit_identical_to_scalar_loop(self, kernel, dict4, rng):
        from reference import KERNELS

        z = random_complex(rng, 7)
        m = kernel_matrix(z, dict4, kernel, 0.8)
        for b in range(7):
            for j in range(dict4.size):
                expected = KERNELS[kernel](z[b], dict4.points[j], 0.8)
                assert m[b, j] == expected


class TestBlocksFromComplexKernel:
    def test_real_kernel_has_zero_off_diagonals(self, dict4):
        blocks = blocks_from_complex_kernel("real_gaussian", 0.3 + 0.2j, dict4, 1.0)
        assert not blocks.k_ri.any() and not blocks.k_ir.any()

    def test_unit_imaginary_value(self, dict4):
        # synthetic kernel returning i at every point
        blocks = blocks_from_complex_kernel(
            lambda z, d, g: np.full(np.broadcast(z, d).shape, 1j), 0.0, dict4, 1.0
        )
        assert np.all(blocks.k_rr == 0) and np.all(blocks.k_ii == 0)
        assert np.all(blocks.k_ir == 1) and np.all(blocks.k_ri == -1)

    def test_block_eval_reproduces_transposed_expansion(self, dict4, rng):
        z = complex(rng.normal(), rng.normal())
        k = independent_kernel(z, dict4.points, 1.0)
        blocks = blocks_from_complex_kernel("independent", z, dict4, 1.0)
        for _ in range(50):
            alpha = random_complex(rng, dict4.size)
            np.testing.assert_allclose(
                vector_model_eval(blocks, alpha), k @ alpha, rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("kernel", ["real_gaussian", "independent"])
    def test_structural_constraints(self, kernel, dict4, rng):
        for _ in range(25):
            z = complex(rng.normal(), rng.normal())
            blocks = blocks_from_complex_kernel(kernel, z, dict4, 1.0)
            np.testing.assert_array_equal(blocks.k_rr, blocks.k_ii)
            np.testing.assert_array_equal(blocks.k_ri, -blocks.k_ir)

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(ParameterError):
            KernelBlockSet(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(2))
        with pytest.raises(NumericError):
            KernelBlockSet(np.zeros(2), np.array([np.inf, 0.0]), np.zeros(2), np.zeros(2))


class TestWlFromBlocks:
    def test_standard_compatible_blocks(self):
        blocks = KernelBlockSet(np.ones(1), np.zeros(1), np.zeros(1), np.ones(1))
        k, kt = wl_from_blocks(blocks)
        np.testing.assert_array_equal(k, [1.0])
        np.testing.assert_array_equal(kt, [0.0])

    def test_direct_substitution(self):
        blocks = KernelBlockSet(np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1))
        k, kt = wl_from_blocks(blocks)
        np.testing.assert_array_equal(k, [0.5])
        np.testing.assert_array_equal(kt, [0.5])

    def test_roundtrip_against_block_model(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 12))
            blocks = KernelBlockSet(*[rng.normal(size=d) for _ in range(4)])
            k, kt = wl_from_blocks(blocks)
            alpha = random_complex(rng, d)
            wl = k @ alpha + kt @ np.conj(alpha)
            direct = vector_model_eval(blocks, alpha)
            assert abs(wl - direct) <= 1e-12


class TestCase1Pair:
    def test_equal_bandwidths_degenerate_exactly(self, dict4, rng):
        z = random_complex(rng, 9)
        k, kt = case1_pair(z, dict4, 1.3, 1.3)
        assert not kt.any()
        np.testing.assert_array_equal(
            k, gaussian_real_of_complex(z[:, None], dict4.points, 1.3)
        )

    def test_dictionary_point_values(self, dict4):
        j = 6
        k, kt = case1_pair(dict4.points[j], dict4, 0.9, 2.1)
        assert k[j] == 1.0 and kt[j] == 0.0

    def test_scalar_example(self):
        d2 = build_dictionary(2, (-1.0, 1.0))
        k, kt = case1_pair(2 + 1j, d2, 1.0, 2.0)  # |z - (1+i)|^2 = 1 at atom 3
        np.testing.assert_allclose(k[3], 0.5 * (np.exp(-1) + np.exp(-2)), rtol=1e-12)
        np.testing.assert_allclose(kt[3], 0.5 * (np.exp(-1) - np.exp(-2)), rtol=1e-12)

    def test_outputs_purely_real(self, dict4, rng):
        k, kt = case1_pair(random_complex(rng, 20), dict4, 0.7, 1.9)
        assert not np.iscomplexobj(k) and not np.iscomplexobj(kt)


class TestCase2Pair:
    def test_default_mixing_values_at_dictionary_point(self, dict8):
        j = 10
        k, kt = case2_pair(dict8.points[j], dict8, [1.0], [1.0], [0.3])
        assert k[j] == 1.0
        assert kt[j] == 0.6j

    def test_vanishing_mixing_weight(self, dict4, rng):
        z = random_complex(rng, 5)
        _, kt = case2_pair(z, dict4, [1.0], [1.0], [1e-9])
        assert np.max(np.abs(kt)) <= 2e-9

    def test_two_equal_components_double(self, dict4, rng):
        z = random_complex(rng, 4)
        k1, kt1 = case2_pair(z, dict4, [1.1], [0.8], [0.25])
        k2, kt2 = case2_pair(z, dict4, [1.1, 1.1], [0.8, 0.8], [0.25, 0.2])
        np.testing.assert_allclose(k2, 2 * k1, rtol=1e-14)
        ktilde_base = kt1 / 0.25  # 2i * kernel values
        np.testing.assert_allclose(kt2, (0.25 + 0.2) * ktilde_base, rtol=1e-14)

    def test_pseudo_kernel_purely_imaginary(self, dict4, rng):
        k, kt = case2_pair(random_complex(rng, 6), dict4, [1.0, 2.0], [0.5, 1.5], [0.3, 0.6])
        assert not np.iscomplexobj(k)
        assert not kt.real.any()

    def test_rejects_invalid_mixing(self, dict4):
        for omega in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                case2_pair(0j, dict4, [1.0], [1.0], [omega])

    def test_rejects_mismatched_lengths(self, dict4):
        with pytest.raises(ParameterError):
            case2_pair(0j, dict4, [1.0, 2.0], [1.0], [0.3])
