"""Activation functions: forward forms, parameter fits, backward passes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvkaf import activations as act
from cvkaf import network
from cvkaf.cnum import finite_diff_cogradient
from cvkaf.errors import ParameterError
from cvkaf.kernels import build_dictionary

from conftest import random_complex
from reference import (
    KernelBlockSet,
    case2_pair,
    gaussian_real_of_complex,
    kaf_forward,
    kernel_matrix,
    vector_model_eval,
    wlkaf_forward_case1,
    wlkaf_forward_case2,
)


def _split(z):
    return act.SplitActivation().forward(np.asarray(z, dtype=complex), {}, None)[0]


def _phase_amplitude(z):
    return act.PhaseAmplitudeActivation().forward(np.asarray(z, dtype=complex), {}, None)[0]


def _random_start(layer, width, dictionary, rng):
    """``layer``'s parameters with any alpha drawn at complex std 0.3 from ``rng``."""
    params = layer.init_params(width, dictionary)
    if "alpha" in params:
        params["alpha"] = random_complex(rng, params["alpha"].shape, scale=0.3 / np.sqrt(2.0))
    return params


class TestSplitActivation:
    def test_tanh_at_origin(self):
        assert _split(0j) == 0

    def test_saturation(self):
        v = _split(10 + 10j)
        np.testing.assert_allclose(v, 1 + 1j, atol=1e-8)


class TestPhaseAmplitude:
    def test_origin(self):
        assert _phase_amplitude(0j) == 0

    def test_positive_real_axis(self):
        np.testing.assert_allclose(_phase_amplitude(1.5 + 0j), np.tanh(1.5))

    def test_imaginary_input(self):
        np.testing.assert_allclose(_phase_amplitude(2j), np.tanh(2) * 1j, rtol=1e-12)

    def test_preserves_phase(self, rng):
        z = random_complex(rng, 50)
        out = _phase_amplitude(z)
        np.testing.assert_allclose(np.angle(out), np.angle(z), rtol=1e-10)
        np.testing.assert_allclose(np.abs(out), np.tanh(np.abs(z)), rtol=1e-10)


class TestKafForward:
    def test_zero_coefficients(self, dict4, rng):
        z = random_complex(rng, 5)
        out = kaf_forward(z, np.zeros(16, dtype=complex), dict4, "real_gaussian", 1.0)
        np.testing.assert_array_equal(out, np.zeros(5, dtype=complex))

    def test_one_hot_selects_single_atom(self, dict4, rng):
        alpha = np.zeros(16, dtype=complex)
        alpha[7] = 1.0
        z = complex(rng.normal(), rng.normal())
        out = kaf_forward(z, alpha, dict4, "independent", 1.2)
        from reference import independent_kernel

        np.testing.assert_allclose(out, independent_kernel(z, dict4.points[7], 1.2))

    @pytest.mark.parametrize("kernel", ["real_gaussian", "independent"])
    def test_matches_scalar_loop(self, kernel, dict4, rng):
        from reference import KERNELS

        alpha = random_complex(rng, 16)
        z = complex(rng.normal(), rng.normal())
        expected = sum(
            alpha[j] * KERNELS[kernel](z, dict4.points[j], 0.9) for j in range(16)
        )
        np.testing.assert_allclose(
            kaf_forward(z, alpha, dict4, kernel, 0.9), expected, rtol=1e-12
        )


def _blocks_from_pair(k, kt):
    """Invert the kernel/pseudo-kernel map back to the four blocks."""
    k = np.asarray(k, dtype=complex)
    kt = np.asarray(kt, dtype=complex)
    return KernelBlockSet(
        k_rr=(k + kt).real,
        k_ii=(k - kt).real,
        k_ir=(k + kt).imag,
        k_ri=(kt - k).imag,
    )


class TestWlKafForward:
    def test_case1_equal_bandwidths_degenerates_bitwise(self, dict4, rng):
        alpha = random_complex(rng, 16)
        z = random_complex(rng, 64)
        wl = wlkaf_forward_case1(z, alpha, dict4, 1.4, 1.4)
        std = kaf_forward(z, alpha, dict4, "real_gaussian", 1.4)
        np.testing.assert_array_equal(wl, std)

    def test_case1_real_alpha_gives_real_output(self, dict4, rng):
        alpha = rng.normal(size=16).astype(complex)
        z = random_complex(rng, 10)
        out = wlkaf_forward_case1(z, alpha, dict4, 0.8, 2.2)
        np.testing.assert_allclose(out.imag, 0.0, atol=1e-15)

    def test_case2_matches_block_model_oracle(self, dict4, rng):
        gammas, gamma_tildes, omegas = [1.1, 0.6], [0.9, 1.7], [0.3, 0.55]
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            alpha = random_complex(rng, 16)
            out = wlkaf_forward_case2(z, alpha, dict4, gammas, gamma_tildes, omegas)
            k, kt = case2_pair(z, dict4, gammas, gamma_tildes, omegas)
            direct = vector_model_eval(_blocks_from_pair(k, kt), alpha)
            np.testing.assert_allclose(out, direct, atol=1e-12)

    def test_case1_matches_block_model_oracle(self, dict4, rng):
        from reference import case1_pair

        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            alpha = random_complex(rng, 16)
            out = wlkaf_forward_case1(z, alpha, dict4, 0.7, 1.9)
            k, kt = case1_pair(z, dict4, 0.7, 1.9)
            direct = vector_model_eval(_blocks_from_pair(k, kt), alpha)
            np.testing.assert_allclose(out, direct, atol=1e-12)


class TestGammaRuleOfThumb:
    def test_unit_spacing(self):
        d = build_dictionary(3, (-1.0, 1.0))  # spacing 1
        assert act.gamma_rule_of_thumb(d) == 0.5

    def test_benchmark_grid(self, dict8):
        assert act.gamma_rule_of_thumb(dict8) == pytest.approx(49.0 / 32.0)

    def test_coarse_grid(self, dict4):
        assert act.gamma_rule_of_thumb(dict4) == pytest.approx(9.0 / 32.0)


class TestInitAlpha:
    @staticmethod
    def _solve(layer, dictionary, bandwidths, target):
        """The alpha whose layer output equals ``target`` on the grid, from the
        square design of :func:`alpha_design`."""
        design = act.alpha_design(layer, dictionary, bandwidths, dictionary.points)
        sol = np.linalg.solve(design, np.concatenate([target.real, target.imag]))
        return sol[:dictionary.size] + 1j * sol[dictionary.size:]

    def test_exact_interpolation_recovers_unit_vector(self, dict4):
        g = act.gamma_rule_of_thumb(dict4)
        target = gaussian_real_of_complex(dict4.points, dict4.points[5], g)
        alpha = self._solve(act.KafActivation("real_gaussian"), dict4,
                            {"log_gamma": np.log(g)}, target)
        expected = np.zeros(16, dtype=complex)
        expected[5] = 1.0
        np.testing.assert_allclose(alpha, expected, atol=1e-8)

    def test_identity_fit_is_near_linear(self, dict4):
        g = act.gamma_rule_of_thumb(dict4)
        layer = act.KafActivation("real_gaussian")
        alpha = act.fit_alpha(layer, dict4, {"log_gamma": np.log(g)})
        fitted = kaf_forward(dict4.points, alpha, dict4, "real_gaussian", g)
        assert np.max(np.abs(fitted - dict4.points)) < 0.05

    def test_case2_block_fit_is_near_linear(self, dict4):
        g = act.gamma_rule_of_thumb(dict4)
        layer = act.WlKafCase2Activation((0.3,))
        bandwidths = {"log_gamma": np.log([g]), "log_gamma_tilde": np.log([g])}
        alpha = act.fit_alpha(layer, dict4, bandwidths)
        fitted = wlkaf_forward_case2(dict4.points, alpha, dict4, [g], [g], [0.3])
        assert np.max(np.abs(fitted - dict4.points)) < 0.05

    def test_identity_fit_ignores_the_blas_thread_count(self):
        """Every KAF variant's identity fit at 7, 8 and 10 points has the same
        bytes under 1 and 2 BLAS threads."""
        if (os.cpu_count() or 1) < 2:
            pytest.skip("fewer than 2 CPUs: a second BLAS thread has no core of its own, so "
                        "1 and 2 threads cannot be told apart")
        script = (
            "import hashlib\n"
            "from cvkaf.activations import ACTIVATION_VARIANTS, _KafBase\n"
            "from cvkaf.kernels import build_dictionary\n"
            "for m in (7, 8, 10):\n"
            "    for name, layer in ACTIVATION_VARIANTS.items():\n"
            "        if isinstance(layer, _KafBase):\n"
            "            alpha = layer.init_params(1, build_dictionary(m))['alpha']\n"
            "            print(m, name, hashlib.sha256(alpha.tobytes()).hexdigest())\n"
        )
        src = str(Path(act.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        assert len(outputs[0]) == 12
        assert outputs[0] == outputs[1]

    def test_case1_equal_bandwidths_fit_is_the_standard_fit(self, dict8):
        lg = np.log(act.gamma_rule_of_thumb(dict8))
        standard = act.fit_alpha(act.KafActivation("real_gaussian"), dict8, {"log_gamma": lg})
        case1 = act.fit_alpha(act.WlKafCase1Activation(), dict8,
                              {"log_gamma_rr": lg, "log_gamma_ii": lg})
        np.testing.assert_array_equal(case1, standard)

    def test_case1_distinct_bandwidths_recovers_unit_alpha(self, dict4):
        gamma_rr, gamma_ii = 0.7, 1.9
        expected = np.zeros(16, dtype=complex)
        expected[6] = 1.0 - 1.0j
        target = wlkaf_forward_case1(dict4.points, expected, dict4, gamma_rr, gamma_ii)
        alpha = self._solve(act.WlKafCase1Activation(), dict4,
                            {"log_gamma_rr": np.log(gamma_rr), "log_gamma_ii": np.log(gamma_ii)},
                            target)
        np.testing.assert_allclose(alpha, expected, atol=1e-8)


class TestIndependentIdentityFit:
    """Pins a known weakness, not a goal: the independent kernel cannot
    represent the identity on the grid, so its identity fit is rounding noise."""

    def test_identity_target_is_orthogonal_to_the_grid_gram_matrix(self, dict8):
        g = act.gamma_rule_of_thumb(dict8)
        k = kernel_matrix(dict8.points, dict8, "independent", g)
        assert np.linalg.matrix_rank(k) == dict8.points_per_axis
        assert np.max(np.abs(k.conj().T @ dict8.points)) < 1e-12
        params = act.KafActivation("independent").init_params(4, dict8)
        assert np.max(np.abs(params["alpha"])) < 1e-8


class TestIndependentClosedForm:
    """The independent-kernel KAF is ``h(Re z) - i*h(Im z)``, with ``h(x) =
    sum_k w_k exp(-gamma (x - a_k)^2)`` over the m axis points a_k and ``w =
    (c(Re alpha) - r(Im alpha)) + i*(r(Re alpha) + c(Im alpha))``, where c and
    r are the column and row sums of the (m, m) alpha grid (rows along the
    imaginary axis): its 2m^2 real alpha reach the output only through the 2m
    real values of w."""

    @staticmethod
    def _case(dictionary, rng):
        """The layer, random alpha, per-neuron bandwidths and 300 inputs, with
        w, gamma and the per-axis Gaussians e(x) of the closed form."""
        layer = act.ACTIVATION_VARIANTS["kaf_independent"]
        width, m = 5, dictionary.points_per_axis
        params = _random_start(layer, width, dictionary, rng)
        params["log_gamma"] = params["log_gamma"] + rng.normal(0.0, 0.5, width)
        z = random_complex(rng, (300, width), scale=1.5)

        grid = params["alpha"].reshape(width, m, m)
        col, row = (lambda a: a.sum(axis=1)), (lambda a: a.sum(axis=2))
        w = (col(grid.real) - row(grid.imag)) + 1j * (row(grid.real) + col(grid.imag))
        axis = np.linspace(*dictionary.axis_range, m)
        gamma = np.exp(params["log_gamma"])

        def e(x):  # (rows, width) -> (rows, width, m)
            return np.exp(-gamma[:, None] * (x[..., None] - axis) ** 2)

        return layer, params, z, w, gamma, axis, e

    def test_layer_and_dense_reference_equal_the_closed_form(self, dict8, rng):
        layer, params, z, w, gamma, _, e = self._case(dict8, rng)

        def h(x):  # (rows, width) -> (rows, width)
            return np.einsum("hk,bhk->bh", w, e(x))

        closed = h(z.real) - 1j * h(z.imag)
        out = layer.forward(z, params, dict8)[0]
        dense = np.stack([kaf_forward(z[:, j], params["alpha"][j], dict8, "independent", gamma[j])
                          for j in range(z.shape[1])], axis=1)
        assert np.max(np.abs(closed)) > 1.0
        assert np.max(np.abs(out - closed)) <= 1e-13
        assert np.max(np.abs(dense - closed)) <= 1e-13

    def test_backward_is_the_closed_forms_adjoint(self, dict8, rng):
        """The alpha cogradient is ``G_w[j] - i*G_w[i]`` at grid entry (i, j),
        with ``G_w = sum_b g_b (e(Re z) + i*e(Im z))`` the cogradient of w, and
        the input cogradient is the chain rule through ``h``."""
        layer, params, z, w, gamma, axis, e = self._case(dict8, rng)
        g = random_complex(rng, z.shape)
        _, cache = layer.forward(z, params, dict8)
        g_z, grads = layer.backward(g, cache, params)

        g_w = np.einsum("bh,bhk->hk", g, e(z.real) + 1j * e(z.imag))
        g_alpha = (g_w[:, None, :] - 1j * g_w[:, :, None]).reshape(w.shape[0], -1)

        def dh(x):  # h'(x), (rows, width)
            return np.einsum("hk,bhk->bh", w, -2.0 * gamma[:, None] * (x[..., None] - axis) * e(x))

        # out = h(x) - i*h(y): dJ/dx = Re(conj(g) h'(x)), dJ/dy = Re(conj(g) (-i) h'(y))
        expected_z = (np.conj(g) * dh(z.real)).real + 1j * (np.conj(g) * -1j * dh(z.imag)).real
        assert np.max(np.abs(g_alpha)) > 1.0 and np.max(np.abs(expected_z)) > 1.0
        assert np.max(np.abs(grads["alpha"] - g_alpha)) <= 1e-13
        assert np.max(np.abs(g_z - expected_z)) <= 1e-13


class TestParameterCounts:
    def test_wl_variants_match_standard_alpha_count(self, dict8):
        width = 6
        standard = act.KafActivation("independent").init_params(width, dict8)
        case1 = act.WlKafCase1Activation().init_params(width, dict8)
        case2 = act.WlKafCase2Activation().init_params(width, dict8)
        assert standard["alpha"].size == case1["alpha"].size == case2["alpha"].size

    def test_case2_validates_mixing_weights(self):
        with pytest.raises(ParameterError):
            act.WlKafCase2Activation(omegas=(1.5,))
        with pytest.raises(ParameterError):
            act.WlKafCase2Activation(omegas=())


def _rank_cases(lg):
    """Each KAF layer with one neuron's log-bandwidths, all at ``lg`` except
    case 1's unequal pair."""
    return {
        "kaf_real_gaussian": (act.KafActivation("real_gaussian"), {"log_gamma": lg}),
        "kaf_independent": (act.KafActivation("independent"), {"log_gamma": lg}),
        "case1_equal": (act.WlKafCase1Activation(), {"log_gamma_rr": lg, "log_gamma_ii": lg}),
        "case1_unequal": (act.WlKafCase1Activation(),
                          {"log_gamma_rr": lg - 0.5, "log_gamma_ii": lg + 0.5}),
        "case2": (act.WlKafCase2Activation(),
                  {"log_gamma": np.full(1, lg), "log_gamma_tilde": np.full(1, lg)}),
    }


class TestEffectiveAlphaRank:
    """Pins how many of a neuron's 2m^2 real alpha directions reach its output,
    on the grid and off it: every layer but the independent kernel uses all
    of them, and the independent kernel, whose terms each sum one grid axis
    out, uses 2m."""

    @pytest.mark.parametrize("case", list(_rank_cases(0.0)))
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_rank_on_the_grid_and_on_random_points(self, case, m):
        dictionary = build_dictionary(m)
        lg = np.log(act.gamma_rule_of_thumb(dictionary))
        layer, bandwidths = _rank_cases(lg)[case]
        rank = 2 * m if case == "kaf_independent" else 2 * m * m
        rng = np.random.default_rng(20)
        points = rng.uniform(-2.5, 2.5, 2000) + 1j * rng.uniform(-2.5, 2.5, 2000)
        # row blocks of 500 points bound the forward's temporaries; the rows
        # of the stacked blocks span what the whole matrix spans
        off_grid = np.concatenate([act.alpha_design(layer, dictionary, bandwidths, block)
                                   for block in np.split(points, 4)])
        on_grid = act.alpha_design(layer, dictionary, bandwidths, dictionary.points)
        assert on_grid.shape == (2 * m * m, 2 * m * m)
        assert np.linalg.matrix_rank(on_grid) == rank
        assert np.linalg.matrix_rank(off_grid) == rank


LAYERS = {
    **act.ACTIVATION_VARIANTS,
    "wlkaf_case2_q2": act.WlKafCase2Activation((0.7, 0.2)),
}


class TestLayersAgainstDenseOracles:
    """Each layer equals its dense kernel expansion, neuron by neuron."""

    @pytest.mark.parametrize("variant", ["kaf_real_gaussian", "kaf_independent",
                                         "wlkaf_case1", "wlkaf_case2", "wlkaf_case2_q2"])
    def test_forward(self, variant, dict8, rng):
        layer = LAYERS[variant]
        width = 6
        params = _random_start(layer, width, dict8, rng)
        for name in params:
            if name.startswith("log_gamma"):
                params[name] = params[name] + rng.normal(0.0, 0.5, params[name].shape)
        gamma = {name: np.exp(v) for name, v in params.items() if name.startswith("log_gamma")}
        every = np.concatenate([v.ravel() for v in gamma.values()])
        assert len(np.unique(every)) == every.size  # per neuron, gamma_rr != gamma_ii, ...
        z = random_complex(rng, (30, width), scale=1.2)
        out, _ = layer.forward(z, params, dict8)
        for h in range(width):
            zh, alpha = z[:, h], params["alpha"][h]
            if isinstance(layer, act.KafActivation):
                dense = kaf_forward(zh, alpha, dict8, layer.kernel, gamma["log_gamma"][h])
            elif isinstance(layer, act.WlKafCase1Activation):
                dense = wlkaf_forward_case1(zh, alpha, dict8, gamma["log_gamma_rr"][h],
                                            gamma["log_gamma_ii"][h])
            else:
                dense = wlkaf_forward_case2(zh, alpha, dict8, gamma["log_gamma"][h],
                                            gamma["log_gamma_tilde"][h], layer.omegas)
            np.testing.assert_allclose(out[:, h], dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", list(LAYERS))
class TestLayerBackwardAgainstFiniteDifferences:
    """Every layer cogradient (input and parameters) matches the FD oracle."""

    def test_gradients(self, variant, rng):
        dictionary = build_dictionary(3, (-2.0, 2.0))
        layer = LAYERS[variant]
        params = _random_start(layer, 2, dictionary, rng)
        z = random_complex(rng, (3, 2), scale=0.9)
        r1 = rng.normal(size=(3, 2))
        r2 = rng.normal(size=(3, 2))

        def objective(out):
            return float(np.sum(r1 * out.real + r2 * out.imag)
                         + 0.5 * np.sum(np.abs(out) ** 2))

        out, cache = layer.forward(z, params, dictionary)
        g_out = r1 + 1j * r2 + out
        gz, grads = layer.backward(g_out, cache, params)

        fd_z = finite_diff_cogradient(
            lambda v: objective(layer.forward(v, params, dictionary)[0]), z
        )
        np.testing.assert_allclose(gz, fd_z, rtol=1e-5, atol=1e-8)
        assert set(grads) == set(params)
        for name, arr in params.items():
            def f(v, name=name):
                trial = dict(params)
                trial[name] = v
                return objective(layer.forward(z, trial, dictionary)[0])

            fd = finite_diff_cogradient(f, arr)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-4, atol=1e-7)

    def test_zero_cotangent_gives_zero_gradients(self, variant, rng):
        dictionary = build_dictionary(3, (-2.0, 2.0))
        layer = LAYERS[variant]
        params = layer.init_params(2, dictionary)
        z = random_complex(rng, (4, 2))
        out, cache = layer.forward(z, params, dictionary)
        gz, grads = layer.backward(np.zeros_like(out), cache, params)
        assert not gz.any()
        for g in grads.values():
            assert not g.any()


KAF_LAYERS = ["kaf_independent", "kaf_real_gaussian", "wlkaf_case1", "wlkaf_case2",
              "wlkaf_case2:0.7:0.2"]


def _reachable_arrays(obj):
    """Every array in ``obj``'s dicts, lists and tuples, and each one's bases."""
    found, stack = {}, [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, np.ndarray) and id(x) not in found:
            found[id(x)] = x
            stack.append(x.base)
    return found.values()


class TestLeanForwardCache:
    """A forward cache owns what it holds; a KAF cache keeps one (width, m,
    batch) array per factor, the Gaussian, and its own copy of the input."""

    @pytest.mark.parametrize("variant", KAF_LAYERS)
    def test_one_activation_sized_array_per_factor(self, variant, dict4, rng):
        layer = act.activation_named(variant)
        params = _random_start(layer, 3, dict4, rng)
        _, cache = layer.forward(random_complex(rng, (5, 3)), params, dict4)
        big = [a for a in _reachable_arrays(cache) if a.shape == (3, 4, 5)]
        assert len(big) == len(layer._plan[0])

    # every registry variant, case 2 at Q = 2 and the real baseline's ReLU
    @pytest.mark.parametrize("variant", [*act.ACTIVATION_VARIANTS, "wlkaf_case2:0.7:0.2", "relu"])
    @pytest.mark.parametrize("shape", [(1, 3), (4, 1), (7, 5)])
    def test_input_overwritten_before_backward_leaves_cogradients(self, variant, shape,
                                                                  dict4, rng):
        layer = network._RELU if variant == "relu" else act.activation_named(variant)
        params = _random_start(layer, shape[1], dict4, rng)

        def draw():  # the ReLU reads real values
            z = random_complex(rng, shape)
            return z.real.copy() if variant == "relu" else z

        z, g_out = draw(), draw()
        _, cache = layer.forward(z.copy(), params, dict4)
        untouched = layer.backward(g_out, cache, params)
        overwritten = z.copy()
        _, cache = layer.forward(overwritten, params, dict4)
        overwritten[...] = draw()
        gz, grads = layer.backward(g_out, cache, params)
        assert gz.tobytes() == untouched[0].tobytes()
        assert set(grads) == set(untouched[1])
        for name, g in grads.items():
            assert g.tobytes() == untouched[1][name].tobytes(), name


class TestBoundedKernelFiniteness:
    @pytest.mark.parametrize(
        "variant", ["kaf_real_gaussian", "kaf_independent", "wlkaf_case1", "wlkaf_case2"]
    )
    def test_finite_outputs_on_wild_inputs(self, variant, dict4, rng):
        layer = act.ACTIVATION_VARIANTS[variant]
        params = _random_start(layer, 3, dict4, rng)
        z = random_complex(rng, (8, 3), scale=50.0)
        out, _ = layer.forward(z, params, dict4)
        assert np.all(np.isfinite(out.view(np.float64)))

    def test_spec_roundtrip(self):
        # a descriptor's saved form is its name
        for layer in [*act.ACTIVATION_VARIANTS.values(), LAYERS["wlkaf_case2_q2"]]:
            rebuilt = act.activation_named(layer.name)
            assert rebuilt == layer


class TestRegistry:
    def test_each_descriptor_is_keyed_by_its_name(self):
        assert list(act.ACTIVATION_VARIANTS) == [
            "split_tanh", "phase_amplitude", "kaf_independent", "kaf_real_gaussian",
            "wlkaf_case1", "wlkaf_case2",
        ]
        for name, layer in act.ACTIVATION_VARIANTS.items():
            assert layer.name == name
            assert act.activation_named(name) is layer

    def test_kaf_classes_own_their_passes(self):
        # per-class instrumentation wraps these attributes one class at a time
        for cls in (act.KafActivation, act.WlKafCase1Activation, act.WlKafCase2Activation):
            for name in ("init_params", "forward", "backward"):
                assert vars(cls)[name] is vars(act._KafBase)[name], (cls, name)

    @pytest.mark.parametrize("name", ["wlkaf_case2:0.7:0.2", "wlkaf_case2:0.3:0.6",
                                      "wlkaf_case2:0.1:0.2:0.3", "wlkaf_case2:1e-05"])
    def test_case2_at_other_weights_prints_its_name_back(self, name):
        layer = act.activation_named(name)
        assert isinstance(layer, act.WlKafCase2Activation) and layer.name == name
        assert len(layer.omegas) == len(name.split(":")) - 1
        assert act.WlKafCase2Activation(layer.omegas) == layer

    @pytest.mark.parametrize("name, message", [
        ("wlkaf_case2:0.3", "write 'wlkaf_case2'"),
        ("wlkaf_case2:0.70", "write 'wlkaf_case2:0.7'"),
        ("wlkaf_case2:.5:0.2", "write 'wlkaf_case2:0.5:0.2'"),
        ("wlkaf_case2:1.5", r"in \(0, 1\)"),
        ("wlkaf_case2:0", r"in \(0, 1\)"),
        ("wlkaf_case2:x", r"in \(0, 1\)"),
        ("wlkaf_case2:", r"wlkaf_case2:w1:w2\.\.\."),
        ("kaf_independent:0.5", r"wlkaf_case2:w1:w2\.\.\."),
        ("real_nn", "unknown activation variant"),
    ])
    def test_other_spellings_name_the_canonical_one_or_the_range(self, name, message):
        with pytest.raises(ParameterError, match=message):
            act.activation_named(name)
