"""Complex affine algebra, the gradient convention, and the FD oracle."""

import math

import numpy as np
import pytest

from cvkaf.cnum import (
    backward_affine,
    complex_affine,
    finite_diff_cogradient,
    hermitian_norm_sq,
)
from cvkaf.errors import DimensionError, NumericError

from conftest import random_complex


class TestComplexAffine:
    def test_identity(self):
        y = complex_affine(np.eye(2), np.array([[1 + 1j, 2.0]]), np.zeros(2))
        np.testing.assert_array_equal(y, [[1 + 1j, 2.0]])

    def test_multiplication_by_i(self):
        y = complex_affine(np.array([[1j]]), np.array([[1.0]]), np.array([0.0]))
        np.testing.assert_array_equal(y, [[1j]])

    def test_hand_checked_value(self):
        # 1 + (1+i)*i + 2*(1-i) = 2 - i
        y = complex_affine(
            np.array([[1 + 1j, 2.0]]), np.array([[1j, 1 - 1j]]), np.array([1.0])
        )
        np.testing.assert_allclose(y, [[2 - 1j]], rtol=0, atol=1e-15)

    def test_batched_matches_per_row(self, rng):
        w = random_complex(rng, (4, 3))
        b = random_complex(rng, 4)
        x = random_complex(rng, (5, 3))
        batched = complex_affine(w, x, b)
        rows = np.concatenate([complex_affine(w, x[i:i + 1], b) for i in range(5)])
        # a 5-row and a 1-row product may round the accumulation differently
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            complex_affine(np.eye(2), np.zeros((1, 3), dtype=complex), np.zeros(2))
        with pytest.raises(DimensionError):
            complex_affine(np.eye(2), np.zeros((1, 2), dtype=complex), np.zeros(3))
        with pytest.raises(DimensionError):  # one sample is a one-row batch
            complex_affine(np.eye(2), np.zeros(2, dtype=complex), np.zeros(2))

    def test_linearity(self, rng):
        # f(a*x1 + b*x2) = a*f(x1) + b*f(x2) - (a+b-1)*bias
        w = random_complex(rng, (3, 3))
        bias = random_complex(rng, 3)
        x1, x2 = random_complex(rng, (1, 3)), random_complex(rng, (1, 3))
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        lhs = complex_affine(w, a * x1 + b * x2, bias)
        rhs = (
            a * complex_affine(w, x1, bias)
            + b * complex_affine(w, x2, bias)
            - (a + b - 1) * bias
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestBackwardAffine:
    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):  # one sample is a one-row batch
            backward_affine(np.zeros(2, dtype=complex), np.eye(2), np.zeros(2, dtype=complex))
        with pytest.raises(DimensionError):  # rows of cograd_y and x differ
            backward_affine(np.zeros((3, 2), dtype=complex), np.eye(2),
                            np.zeros((2, 2), dtype=complex))

    def test_float64_operands_stay_float64(self, rng):
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=3)
        g = rng.normal(size=(5, 3))
        y = complex_affine(w, x, b)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, x @ w.T + b)
        expected = (g.T @ x, g @ w, g.sum(0))
        for got, want in zip(backward_affine(g, w, x), expected):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        # without W the input cogradient is skipped, not computed
        g_w, g_x, g_b = backward_affine(g, None, x)
        assert g_x is None
        np.testing.assert_array_equal(g_w, expected[0])
        np.testing.assert_array_equal(g_b, expected[2])

    def test_zero_cotangent(self, rng):
        w = random_complex(rng, (2, 3))
        x = random_complex(rng, (1, 3))
        gw, gx, gb = backward_affine(np.zeros((1, 2), dtype=complex), w, x)
        assert not gw.any() and not gx.any() and not gb.any()

    def test_abs_square_cograd_x(self):
        # J = |y|^2 with W=[[1]], b=[0], x=[1+i] -> cograd_x = 2(1+i)
        w = np.array([[1.0 + 0j]])
        x = np.array([[1 + 1j]])
        y = complex_affine(w, x, np.zeros(1))
        gy = 2 * y  # cogradient of sum(|y|^2)
        _, gx, _ = backward_affine(gy, w, x)
        np.testing.assert_allclose(gx, [[2 * (1 + 1j)]], rtol=1e-15)

    def test_real_projection_cograd_w_matches_fd(self):
        # J = Re(y) with W=[[i]], x=[1], b=[0]
        x = np.array([[1.0 + 0j]])
        w0 = np.array([[1j]])

        def objective(w):
            return float(complex_affine(w, x, np.zeros(1))[0, 0].real)

        gw, _, _ = backward_affine(np.array([[1.0 + 0j]]), w0, x)
        fd = finite_diff_cogradient(objective, w0)
        np.testing.assert_allclose(gw, fd, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w = random_complex(rng, (3, 4))
        x = random_complex(rng, (2, 4))
        b = random_complex(rng, 3)
        c = random_complex(rng, (2, 3))  # fixed linear functional coefficients

        def objective_of(arrs):
            w_, x_, b_ = arrs
            y = complex_affine(w_, x_, b_)
            return float(np.sum((np.conj(c) * y).real) + 0.5 * np.sum(np.abs(y) ** 2))

        y = complex_affine(w, x, b)
        gy = c + y  # cogradient of the objective wrt y
        gw, gx, gb = backward_affine(gy, w, x)
        for idx, (arr, analytic) in enumerate([(w, gw), (x, gx), (b, gb)]):
            def f(v, idx=idx):
                arrs = [w, x, b]
                arrs[idx] = v
                return objective_of(arrs)

            fd = finite_diff_cogradient(f, arr)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


class TestHermitianNormSq:
    def test_zero_vector(self):
        assert hermitian_norm_sq(np.zeros(2, dtype=complex)) == 0.0

    def test_unit_modulus(self):
        assert hermitian_norm_sq(np.array([1j])) == 1.0

    def test_direct_value(self):
        assert hermitian_norm_sq(np.array([1 + 1j, 2.0])) == 6.0

    def test_nonnegative_and_real(self, rng):
        for _ in range(50):
            w = random_complex(rng, rng.integers(1, 8))
            v = hermitian_norm_sq(w)
            assert isinstance(v, float) and v >= 0.0
        assert hermitian_norm_sq(np.zeros(5, dtype=complex)) == 0.0

    def test_real_array_accepted(self):
        assert hermitian_norm_sq(np.array([3.0, 4.0])) == 25.0

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.int32])
    def test_matches_exact_sum_at_the_paper_shape(self, dtype, rng):
        w = random_complex(rng, (100, 100), scale=30.0)
        if not np.issubdtype(dtype, np.complexfloating):
            w = w.real
        w = w.astype(dtype).T  # not C-contiguous
        parts = np.concatenate([w.real.ravel(), np.imag(w).ravel()])
        exact = math.fsum(float(v) ** 2 for v in parts)
        assert hermitian_norm_sq(w) == pytest.approx(exact, rel=1e-12, abs=0)


class TestFiniteDiffCogradient:
    # At 1-2j, f = 5 and its rounding over the 2*eps step leaves an error of 1.2e-9,
    # so that point is checked at 1e-8; at 1+0j the error is 2e-12.
    @pytest.mark.parametrize("w, expected, atol", [
        (np.array([1.0 + 0j]), [2.0 + 0j], 1e-9),
        (np.array([1.0 - 2.0j], dtype=np.complex128), [2.0 - 4.0j], 1e-8),
        (np.array([1.0 - 2.0j], dtype=np.complex64), [2.0 - 4.0j], 1e-8),
    ], ids=["complex128-at-1", "complex128-at-1-2j", "complex64-at-1-2j"])
    def test_norm_square_derivative(self, w, expected, atol):
        fd = finite_diff_cogradient(lambda v: float(np.sum(np.abs(v) ** 2)), w)
        assert fd.dtype == np.complex128
        np.testing.assert_allclose(fd, expected, rtol=0, atol=atol)

    def test_constant_function(self, rng):
        w = random_complex(rng, 4)
        fd = finite_diff_cogradient(lambda _: 3.25, w)
        np.testing.assert_array_equal(fd, np.zeros(4, dtype=complex))

    def test_real_projection(self, rng):
        w = random_complex(rng, 3)
        fd = finite_diff_cogradient(lambda v: float(v[0].real), w)
        np.testing.assert_allclose(fd[0], 1.0 + 0j, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fd[1:], 0, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_real_parameter_array(self, dtype):
        fd = finite_diff_cogradient(lambda v: float(np.sum(v**2)), np.array([1, -2], dtype=dtype))
        assert fd.dtype == np.float64
        np.testing.assert_allclose(fd, [2.0, -4.0], rtol=0, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.int32, np.float32, np.complex64])
    def test_differences_a_double_precision_copy(self, dtype, rng):
        """``w`` of another dtype gives the differences of its float64 or complex128
        copy, bit for bit, and ``f`` sees that copy."""
        w = (rng.normal(size=(3, 2)) * 4).astype(dtype)
        double = w.astype(np.complex128 if np.iscomplexobj(w) else np.float64)
        seen = set()

        def f(v):
            seen.add(v.dtype)
            return float(np.sum(np.abs(v) ** 3 + np.sin(v).real))

        fd = finite_diff_cogradient(f, w)
        assert fd.dtype == double.dtype and seen == {double.dtype}
        np.testing.assert_array_equal(fd, finite_diff_cogradient(f, double))

    def test_fortran_order_input(self, rng):
        coef = rng.normal(size=(2, 3))
        w = np.asfortranarray(rng.normal(size=(2, 3)))
        fd = finite_diff_cogradient(lambda v: float(np.sum(coef * v)), w)
        np.testing.assert_allclose(fd, coef, rtol=0, atol=1e-8)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_cogradient(lambda v: 0.0, np.zeros(1), eps=0.0)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NumericError):
            finite_diff_cogradient(lambda v: float("nan"), np.ones(1))
