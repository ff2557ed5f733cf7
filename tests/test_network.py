"""Network assembly, softmax over squared magnitudes, the cross-entropy rule, serialization."""

import re
import tracemalloc

import numpy as np
import pytest

from cvkaf import activations as act
from cvkaf import network
from cvkaf.activations import ACTIVATION_VARIANTS, WlKafCase2Activation
from cvkaf.cnum import complex_affine
from cvkaf.errors import (
    DataFormatError,
    NumericError,
    ParameterError,
    StateError,
)
from cvkaf.gradcheck import ALL_MODELS
from cvkaf.kernels import build_dictionary
from cvkaf.container import read_container, write_container
from cvkaf.data import build_complex_dataset, cache_dataset, glyphs, load_cached
from cvkaf.network import (
    _MODEL_MAGIC,
    _MODEL_VERSION,
    _PREDICT_BLOCK_ELEMENTS,
    ComplexNetwork,
    NetworkConfig,
    RealBaselineNetwork,
    TrainObjective,
    bandwidth_split,
    build_model,
    complex_softmax,
    effective_parameter_count,
    load_model,
    outside_grid_share,
    parameter_count,
    regularize,
    save_model,
    softmax_cross_entropy,
    softmax_from_squared_magnitudes,
)
from cvkaf.optim import TrainConfig

from conftest import random_complex
from test_data import synthetic_raw


class TestComplexSoftmax:
    def test_equal_magnitudes_give_uniform(self):
        h = np.array([1.0, 1j, -1.0, -1j])
        np.testing.assert_allclose(complex_softmax(h), 0.25, rtol=1e-15)

    def test_single_class(self):
        np.testing.assert_array_equal(complex_softmax(np.array([3 + 4j])), [1.0])

    def test_two_class_value(self):
        p = complex_softmax(np.array([1.0 + 0j, 0.0]))
        np.testing.assert_allclose(p, [np.e / (np.e + 1), 1 / (np.e + 1)], rtol=1e-14)

    def test_normalization_and_range(self, rng):
        # scale keeps squared-magnitude gaps inside the float64 exp range;
        # beyond ~745 the losing classes underflow to an exact 0 probability
        h = random_complex(rng, (200, 7), scale=1.5)
        p = complex_softmax(h)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0) and np.all(p < 1)

    def test_phase_invariance(self, rng):
        h = random_complex(rng, (50, 5))
        theta = rng.uniform(0, 2 * np.pi, size=(50, 5))
        np.testing.assert_allclose(
            complex_softmax(h), complex_softmax(h * np.exp(1j * theta)), atol=1e-12
        )

    def test_stabilization_shift_invariance(self, rng):
        # subtracting the max is a no-op on the output: feeding the already
        # shifted squared magnitudes back in reproduces the result bitwise
        s = rng.normal(size=(20, 6)) * 10
        p1 = softmax_from_squared_magnitudes(s)
        p2 = softmax_from_squared_magnitudes(s - s.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(p1, p2)
        # exactly representable integer shifts are also exact
        s_int = rng.integers(-8, 8, size=(20, 6)).astype(np.float64)
        p3 = softmax_from_squared_magnitudes(s_int)
        p4 = softmax_from_squared_magnitudes(s_int + 16.0)
        np.testing.assert_array_equal(p3, p4)

    def test_no_overflow_on_large_magnitudes(self):
        p = complex_softmax(np.array([100.0 + 0j, 30.0]))
        assert np.all(np.isfinite(p)) and p[0] > 0.999999


class TestCrossEntropy:
    def test_cross_entropy_uniform(self):
        loss, _ = softmax_cross_entropy(np.zeros((2, 10)), [3, 7])
        assert loss == pytest.approx(np.log(10))

    def test_cross_entropy_certain(self):
        assert softmax_cross_entropy(np.array([[0.0, -1e3]]), [0])[0] == 0.0

    def test_certain_miss_is_clamped(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, -1e3]]), [1])
        assert loss == -np.log(1e-12)

    def test_cross_entropy_two_class_value(self):
        loss, _ = softmax_cross_entropy(np.array([[1.0, 0.0]]), [0])
        assert loss == pytest.approx(np.log(1 + np.exp(-1)), rel=1e-12)

    def test_gradient_is_p_minus_onehot(self, rng):
        scores = rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 1, 2])
        _, g = softmax_cross_entropy(scores, labels)
        expected = softmax_from_squared_magnitudes(scores)
        expected[np.arange(5), labels] -= 1.0
        np.testing.assert_array_equal(g, expected)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_cross_entropy_invalid_label(self, label):
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.zeros((1, 2)), [label])

    def test_objective_accepts_only_cross_entropy(self):
        with pytest.raises(ParameterError):
            TrainObjective("squared_error", 0.0)


class TestNetworkForward:
    def test_identity_network(self):
        cfg = NetworkConfig(input_dim=2, hidden_widths=(), class_count=2,
                            activation="split_tanh", seed=0)
        net = ComplexNetwork(cfg)
        net.parameters()["layer0.W"][...] = np.eye(2)
        net.parameters()["layer0.b"][...] = 0
        net.bump_version()
        x = np.array([[1 + 1j, 2 - 1j]])
        logits, _ = net.forward(x)
        np.testing.assert_array_equal(logits, x)

    def test_zero_weights_emit_biases(self, rng):
        cfg = NetworkConfig(input_dim=3, hidden_widths=(4,), class_count=2,
                            activation="split_tanh", seed=0)
        net = ComplexNetwork(cfg)
        for name, arr in net.parameters().items():
            arr[...] = 0
        bias = random_complex(rng, 2)
        net.parameters()["layer1.b"][...] = bias
        net.bump_version()
        logits, _ = net.forward(random_complex(rng, (5, 3)))
        np.testing.assert_array_equal(logits, np.tile(bias, (5, 1)))

    def test_two_layer_composition_oracle(self, rng):
        d = build_dictionary(3)
        cfg = NetworkConfig(input_dim=3, hidden_widths=(4,), class_count=2,
                            activation="kaf_real_gaussian", seed=7, dict_points=3)
        net = ComplexNetwork(cfg)
        x = random_complex(rng, (6, 3))
        logits, _ = net.forward(x)
        p = net.parameters()
        pre = complex_affine(p["layer0.W"], x, p["layer0.b"])
        hidden, _ = net.activation.forward(
            pre, {"alpha": p["layer0.alpha"], "log_gamma": p["layer0.log_gamma"]}, d
        )
        expected = complex_affine(p["layer1.W"], hidden, p["layer1.b"])
        np.testing.assert_array_equal(logits, expected)

    def test_input_dimension_checked(self):
        net = ComplexNetwork(NetworkConfig(3, (4,), 2, activation="split_tanh"))
        with pytest.raises(ParameterError, match=r"\(rows, 3\) batch"):
            net.forward(np.zeros((2, 5), dtype=complex))

    def test_deterministic_construction(self):
        cfg = NetworkConfig(4, (5, 5), 3, activation="wlkaf_case1", seed=11, dict_points=4)
        a = ComplexNetwork(cfg).parameters()
        b = ComplexNetwork(cfg).parameters()
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    @pytest.mark.parametrize("variant", ["split_tanh", "wlkaf_case2:0.7:0.2", "real_nn"])
    def test_the_dictionary_is_the_configs(self, variant):
        grid = build_dictionary(5, (-1.0, 3.0))
        net = build_model(variant, 3, 2, seed=0, hidden_widths=(4,), dictionary=grid)
        assert (net.config.dict_points, net.config.dict_range) == (5, (-1.0, 3.0))
        if variant == "real_nn":
            assert net.dictionary is None
        else:
            assert net.dictionary.points.tobytes() == grid.points.tobytes()
            assert net.dictionary.axis_range == grid.axis_range


class TestBlockedPredict:
    @pytest.mark.parametrize("variant", ["kaf_independent", "wlkaf_case1", "wlkaf_case2"])
    def test_matches_one_unblocked_forward(self, variant, rng, dict8):
        net = build_model(variant, input_dim=5, class_count=4, seed=2,
                          hidden_widths=(30, 100), dictionary=dict8)
        block = max(1, _PREDICT_BLOCK_ELEMENTS // (100 * dict8.points_per_axis))
        assert block == 64  # the paper's width 100 and 8x8 dictionary
        x = random_complex(rng, (1031, 5))
        for n in (0, 1, block - 1, block, block + 1, 1031):
            expected = complex_softmax(net.forward(x[:n])[0])
            p = net.predict_proba(x[:n])
            assert p.shape == (n, 4)
            np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(net.predict(x[:n]), np.argmax(expected, axis=-1))
        with pytest.raises(ParameterError, match=r"\(rows, 5\) batch"):  # one sample is x[:1]
            net.predict_proba(x[0])

    # 51200 elements at width 100: (rows, 100, 8) KAF temporaries, (rows, 100) otherwise
    BLOCK_ROWS = {"real_nn": 512, "split_tanh": 512, "phase_amplitude": 512,
                  "kaf_independent": 64, "kaf_real_gaussian": 64, "wlkaf_case1": 64,
                  "wlkaf_case2": 64}

    def test_block_rows_pinned_for_every_variant(self):
        assert set(self.BLOCK_ROWS) == {"real_nn", *ACTIVATION_VARIANTS}
        for variant, rows in self.BLOCK_ROWS.items():
            net = build_model(variant, 5, 3, seed=0, hidden_widths=(100,))
            assert net._predict_block_rows() == rows, variant


class TestObjectiveAndBackward:
    def test_regularizer_only_value_and_gradient(self):
        # class_count=1 makes the data loss identically zero
        cfg = NetworkConfig(input_dim=1, hidden_widths=(), class_count=1,
                            activation="split_tanh", seed=0)
        net = ComplexNetwork(cfg)
        net.parameters()["layer0.W"][...] = np.array([[1 + 1j]])
        net.parameters()["layer0.b"][...] = 0
        net.bump_version()
        obj = TrainObjective("cross_entropy", 1.0)
        x = np.array([[1.0 + 0j]])
        assert net.objective(x, [0], obj) == pytest.approx(2.0)
        _, grads = net.loss_and_grads(x, [0], obj)
        np.testing.assert_allclose(grads["layer0.W"], [[2 * (1 + 1j)]], rtol=1e-15)

    @pytest.mark.parametrize("variant", ALL_MODELS)
    def test_full_network_gradient_matches_fd(self, variant):
        from cvkaf.gradcheck import DEFAULT_TOLERANCE, gradcheck_variant

        errors = gradcheck_variant(variant, [3])
        assert all(err <= DEFAULT_TOLERANCE for err in errors.values()), errors

    def test_gradcheck_keeps_each_groups_worst_over_the_seeds(self):
        from cvkaf.gradcheck import gradcheck_variant

        per_seed = [gradcheck_variant("kaf_real_gaussian", [seed]) for seed in (0, 1)]
        both = gradcheck_variant("kaf_real_gaussian", (0, 1))
        assert sorted(both) == ["W", "alpha", "b", "log_gamma"]
        assert both == {group: max(errors[group] for errors in per_seed) for group in both}
        assert per_seed[0] != per_seed[1]

    @pytest.mark.parametrize("variant, drawn, count", [
        ("kaf_real_gaussian", lambda v: v.shape[-1] == 16, 10),  # (width, 16) alphas, 2 layers
        ("real_nn", lambda v: v.ndim == 1, 15),  # real_nn's only vectors: 3 layers' biases
    ])
    def test_gradcheck_draws_at_std_0_3(self, variant, drawn, count, monkeypatch):
        from cvkaf import gradcheck

        values_drawn, fd = [], gradcheck.finite_diff_cogradient

        def recording(f, values):
            if drawn(values):
                values_drawn.append(values.copy())
            return fd(f, values)

        monkeypatch.setattr(gradcheck, "finite_diff_cogradient", recording)
        gradcheck.gradcheck_variant(variant, range(5))
        assert len(values_drawn) == count  # over the 5 seeds
        std = np.sqrt(np.mean(np.abs(np.concatenate(values_drawn)) ** 2))
        assert 0.25 < std < 0.35

    def test_descent_step_decreases_objective(self, rng):
        cfg = NetworkConfig(3, (4, 4), 2, activation="wlkaf_case1", seed=5, dict_points=4)
        net = ComplexNetwork(cfg)
        x = random_complex(rng, (8, 3))
        y = rng.integers(0, 2, size=8)
        obj = TrainObjective("cross_entropy", 1e-4)
        before, grads = net.loss_and_grads(x, y, obj)
        for name, arr in net.parameters().items():
            arr -= 1e-3 * grads[name]
        net.bump_version()
        assert net.objective(x, y, obj) < before

    @pytest.mark.parametrize("name", ["wlkaf_case1", "real_nn"])
    def test_backward_skips_the_network_input_cogradient(self, name, rng, monkeypatch):
        net = _network(name)
        weights = []
        affine = network.backward_affine
        monkeypatch.setattr(network, "backward_affine",
                            lambda g, w, x: weights.append(w) or affine(g, w, x))
        x = random_complex(rng, (6, 5))
        net.loss_and_grads(x, rng.integers(0, 4, size=6), TrainObjective())
        # layers run last to first; only the first layer's product is skipped
        assert [w is None for w in weights] == [False, False, True]

    def test_stale_cache_rejected(self, rng):
        net = ComplexNetwork(NetworkConfig(2, (3,), 2, activation="split_tanh", seed=0))
        x = random_complex(rng, (2, 2))
        logits, cache = net.forward(x)
        net.parameters()["layer0.W"][...] *= 1.5
        net.bump_version()
        with pytest.raises(StateError):
            net.backward(np.zeros_like(logits), cache)


_NAMES = {"case2_q2": "wlkaf_case2:0.3:0.6"}  # test labels that are not model names


def _network(name):
    """A small network of one ACTIVATION_VARIANTS entry, case 2 at Q = 2 or real_nn."""
    if name == "real_nn":
        return build_model("real_nn", 5, 4, seed=2, hidden_widths=(30, 20))
    cfg = NetworkConfig(5, (30, 20), 4, activation=_NAMES.get(name, name), seed=2)
    return ComplexNetwork(cfg)


class TestBatchInput:
    @pytest.mark.parametrize("name", [*ACTIVATION_VARIANTS, "real_nn"])
    def test_only_a_batch_of_the_input_width_is_accepted(self, name, rng):
        net = _network(name)  # input_dim 5
        obj = TrainObjective()
        calls = [
            lambda x, y: net.forward(x),
            lambda x, y: net.forward(x, cache=False),
            lambda x, y: net.predict(x),
            lambda x, y: net.predict_proba(x),
            lambda x, y: net.objective(x, y, obj),
            lambda x, y: net.loss_and_grads(x, y, obj),
        ]
        bad = [random_complex(rng, 5), random_complex(rng, (3, 4)),
               random_complex(rng, (3, 6)), np.complex128(1j), random_complex(rng, (1, 3, 5))]
        for call in calls:
            for x in bad:
                with pytest.raises(ParameterError, match=r"\(rows, 5\) batch"):
                    call(x, [0, 1, 2])
            call(random_complex(rng, (1, 5)), [2])  # one sample is a one-row batch


class TestForwardWithoutCache:
    @pytest.mark.parametrize("name", [*ACTIVATION_VARIANTS, "case2_q2", "real_nn"])
    def test_prediction_and_objective_equal_the_cached_forward(self, name, rng):
        net = _network(name)
        rows = net._predict_block_rows()
        x = random_complex(rng, (rows + 7, 5))
        y = rng.integers(0, 4, size=x.shape[0])
        expected = np.concatenate([
            softmax_from_squared_magnitudes(net._scores(net.forward(x[lo:lo + rows])[0]))
            for lo in (0, rows)])
        np.testing.assert_array_equal(net.predict_proba(x), expected)
        np.testing.assert_array_equal(net.predict(x), np.argmax(expected, axis=-1))
        obj = TrainObjective("cross_entropy", 1e-3)
        value = (softmax_cross_entropy(net._scores(net.forward(x)[0]), y)[0]
                 + regularize(net.parameters(), obj.reg_weight))
        assert net.objective(x, y, obj) == value == net.loss_and_grads(x, y, obj)[0]

    @pytest.mark.parametrize("name", ["split_tanh", "phase_amplitude", "kaf_independent",
                                      "wlkaf_case1", "case2_q2", "real_nn"])
    def test_no_cache_is_returned_and_backward_refuses_none(self, name, rng):
        net = _network(name)
        x = random_complex(rng, (6, 5))
        logits, cache = net.forward(x, cache=False)
        assert cache is None
        np.testing.assert_array_equal(logits, net.forward(x)[0])
        with pytest.raises(StateError):
            net.backward(np.zeros_like(logits), None)
        if name != "real_nn":
            z = random_complex(rng, (6, 30))
            params = net._layers[0][2]
            out, acache = net.activation.forward(z, params, net.dictionary, cache=False)
            assert acache is None
            np.testing.assert_array_equal(out, net.activation.forward(z, params, net.dictionary)[0])

    @pytest.mark.parametrize("variant", ["kaf_independent", "wlkaf_case1", "wlkaf_case2"])
    def test_prediction_keeps_no_per_layer_cache(self, variant, rng):
        net = build_model(variant, input_dim=10, class_count=10, seed=0)  # width 100, 8x8
        x = random_complex(rng, (1024, 10))
        block = x[:net._predict_block_rows()]

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cached = peak(lambda: net.forward(block))
        assert peak(lambda: net.predict_proba(x)) <= cached / 2


class TestIdentityFitPerBuild:
    @pytest.mark.parametrize("name", ["kaf_independent", "wlkaf_case1", "wlkaf_case2",
                                      "case2_q2"])
    def test_one_fit_per_build_equals_a_fit_per_layer(self, name, monkeypatch):
        calls = []
        fit = act.fit_alpha
        monkeypatch.setattr(act, "fit_alpha", lambda *a, **k: calls.append(1) or fit(*a, **k))
        net = _network(name)
        assert len(calls) == 1
        for i, width in enumerate(net.config.hidden_widths):
            own = net.activation.init_params(width, net.dictionary)
            for pname, arr in own.items():
                shared = net.parameters()[f"layer{i}.{pname}"]
                assert shared.dtype == arr.dtype and shared.shape == arr.shape
                assert shared.tobytes() == arr.tobytes()


class TestRegularizer:
    @pytest.mark.parametrize("weight", [-1e-3, np.inf, np.nan])
    def test_weight_outside_zero_to_infinity_rejected(self, weight):
        with pytest.raises(ParameterError, match="reg_weight must be a finite non-negative "
                                                 f"number, got {weight!r}"):
            TrainObjective("cross_entropy", weight)

    @pytest.mark.parametrize("variant", ["real_nn", "wlkaf_case2"])
    def test_one_rule_for_value_and_gradient(self, variant, rng):
        net = build_model(variant, 5, 3, seed=4, hidden_widths=(6, 6),
                          dictionary=build_dictionary(4))
        x = random_complex(rng, (7, 5))
        y = rng.integers(0, 3, size=7)
        c = 3e-3
        loss0, grads0 = net.loss_and_grads(x, y, TrainObjective("cross_entropy", 0.0))
        loss, grads = net.loss_and_grads(x, y, TrainObjective("cross_entropy", c))
        params = net.parameters()
        penalty = c * sum(np.vdot(w, w).real for w in params.values())
        assert loss - loss0 == pytest.approx(penalty, rel=1e-12)
        assert net.objective(x, y, TrainObjective("cross_entropy", c)) == loss
        for name, w in params.items():
            # bit for bit the data gradient plus 2c * w
            assert (grads[name] == grads0[name] + 2.0 * c * w).all()

    def test_adds_in_place_and_skips_zero_weight(self, rng):
        params = {"a": random_complex(rng, (3, 4)), "b": rng.normal(size=5)}
        grads = {name: np.ones_like(w) for name, w in params.items()}
        held = dict(grads)
        assert regularize(params, 0.0, grads) == 0.0
        assert all((g == 1).all() for g in grads.values())
        value = regularize(params, 0.5, grads)
        assert value == pytest.approx(0.5 * sum(np.vdot(w, w).real for w in params.values()),
                                      rel=1e-12)
        for name, w in params.items():
            assert grads[name] is held[name]
            assert (grads[name] == 1 + 2.0 * 0.5 * w).all()


class TestRealBaseline:
    def test_zero_network_is_uniform(self):
        cfg = NetworkConfig(3, (4,), 5, activation="real_nn", seed=0)
        net = RealBaselineNetwork(cfg)
        for arr in net.parameters().values():
            arr[...] = 0
        p = net.predict_proba(np.zeros((2, 3), dtype=complex))
        np.testing.assert_allclose(p, 0.2, rtol=1e-15)

    def test_input_split_doubles_features(self):
        cfg = NetworkConfig(100, (4,), 2, activation="real_nn", seed=0)
        net = RealBaselineNetwork(cfg)
        x = random_complex(np.random.default_rng(0), (7, 100))
        features = net.forward(x)[1]["layers"][0]["x"]
        np.testing.assert_array_equal(features, np.hstack([x.real, x.imag]))
        assert net.parameters()["layer0.W"].shape == (4, 200)

    def test_single_layer_matches_hand_computation(self, rng):
        cfg = NetworkConfig(2, (), 2, activation="real_nn", seed=1)
        net = RealBaselineNetwork(cfg)
        x = random_complex(rng, (3, 2))
        logits, _ = net.forward(x)
        xr = np.hstack([x.real, x.imag])
        expected = xr @ net.parameters()["layer0.W"].T + net.parameters()["layer0.b"]
        np.testing.assert_array_equal(logits, expected)

    @pytest.mark.parametrize("label", [-1, 3])
    @pytest.mark.parametrize("method", ["loss_and_grads", "objective"])
    def test_out_of_range_labels_raise_index_error(self, method, label, rng):
        net = build_model("real_nn", 4, 3, seed=0, hidden_widths=(5,))
        x = random_complex(rng, (2, 4))
        with pytest.raises(IndexError):
            getattr(net, method)(x, [0, label], TrainObjective("cross_entropy", 0.0))

    def test_nan_weight_objective_names_the_parameter(self, rng):
        net = build_model("real_nn", 4, 3, seed=0, hidden_widths=(5,))
        net.parameters()["layer1.W"][0, 2] = np.nan
        net.bump_version()
        with pytest.raises(NumericError, match=r"\['layer1\.W'\]"):
            net.objective(random_complex(rng, (2, 4)), [0, 1], TrainObjective())

    def test_shares_the_complex_network_training_surface(self):
        # each class owns forward/backward/loss_and_grads/predict, as
        # per-class wrappers need, but the layer chain, the loss and the
        # prediction rule are the same function objects
        for cls in (ComplexNetwork, RealBaselineNetwork):
            assert {"forward", "backward", "loss_and_grads", "predict"} <= set(vars(cls))
        for name in ("forward", "backward", "loss_and_grads", "predict", "objective",
                     "predict_proba"):
            assert getattr(ComplexNetwork, name) is getattr(RealBaselineNetwork, name)

    @pytest.mark.parametrize("name", ["kaf_independent", "split_identity", "wlkaf_case2:0.7:0.2"])
    def test_any_other_name_is_parameter_error(self, name):
        with pytest.raises(ParameterError, match="real baseline is named 'real_nn'"):
            RealBaselineNetwork(NetworkConfig(3, (4,), 5, activation=name))

    def test_blocked_predict_matches_one_forward(self, rng):
        net = build_model("real_nn", 5, 4, seed=2, hidden_widths=(30, 100))
        assert net._predict_block_rows() == 512
        x = random_complex(rng, (1031, 5))
        for n in (0, 1, 512, 513, 1031):
            expected = softmax_from_squared_magnitudes(net.forward(x[:n])[0])
            p = net.predict_proba(x[:n])
            assert p.shape == (n, 4)
            np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(net.predict(x[:n]), np.argmax(expected, axis=-1))


class TestConfigChecks:
    """The grid is checked for every name, through the checks that building it runs."""

    @pytest.mark.parametrize("name", ["real_nn", *ACTIVATION_VARIANTS, "wlkaf_case2:0.7:0.2"])
    @pytest.mark.parametrize("entry, value, message", [
        ("dict_points", 1, "points_per_axis must be an integer >= 2, got 1"),
        ("dict_range", (2.0, -2.0), r"axis_range must satisfy lo < hi, got \(2.0, -2.0\)"),
        ("dict_points", 4.9, "points_per_axis must be an integer >= 2, got 4.9"),
        ("dict_range", ("-2", "2"), r"axis_range must be two real numbers, got \('-2', '2'\)"),
    ])
    def test_every_name_checks_the_grid(self, name, entry, value, message):
        with pytest.raises(ParameterError, match=message):
            NetworkConfig(3, (4,), 5, activation=name, **{entry: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "abc", "3", True, None, np.float64(2.0)])
    def test_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match=f"seed must be a non-negative integer, got "
                                                 f"{re.escape(repr(seed))}"):
            NetworkConfig(3, (4,), 5, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**40])
    def test_takes_a_non_negative_integer_seed(self, seed):
        assert NetworkConfig(3, (4,), 5, seed=seed).seed == seed

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("seeded", [
        lambda seed: TrainConfig(seed=seed),
        lambda seed: build_complex_dataset(synthetic_raw(20, classes=2), k=4, seed=seed,
                                           split_counts=(10, 5, 5)),
        lambda seed: glyphs(10, seed),
    ], ids=["TrainConfig", "build_complex_dataset", "glyphs"])
    def test_the_other_generator_seeders_check_the_seed(self, seeded, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            seeded(seed)

    @pytest.mark.parametrize("sizes", [(3.0, (4,), 5), (3, (4, 4.5), 5), (3, (4,), True),
                                       ("3", (4,), 5)])
    def test_refuses_sizes_that_are_not_integers(self, sizes):
        input_dim, widths, class_count = sizes
        name, bad = next((name, v) for name, v in (("input_dim", input_dim),
                                                   *(("hidden_widths entry", w) for w in widths),
                                                   ("class_count", class_count))
                         if type(v) is not int)
        with pytest.raises(ParameterError,
                           match=f"{name} must be a positive integer, got {re.escape(repr(bad))}"):
            NetworkConfig(*sizes)

    @pytest.mark.parametrize("entry, value", [
        ("dict_points", 1), ("dict_range", [2.0, -2.0]),
        ("dict_points", 4.9), ("dict_points", "4"), ("dict_range", ["-2", "2"]),
        ("seed", "abc"), ("seed", 1.5), ("seed", -1),
    ])
    @pytest.mark.parametrize("name", ["real_nn", "split_tanh"])
    def test_a_file_with_an_unusable_grid_or_start_is_data_error(self, name, entry, value,
                                                                  tmp_path):
        path = tmp_path / "model.cvkm"
        save_model(path, build_model(name, 3, 5, seed=0, hidden_widths=(4,)))
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        meta["config"][entry] = value
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        with pytest.raises(DataFormatError) as caught:
            load_model(path)
        assert f"{path} does not hold a usable model" in str(caught.value)
        assert isinstance(caught.value.__cause__, ParameterError)


def test_each_network_class_holds_the_chain_methods_as_its_own():
    """perfbench's per-class wrappers replace a class's own attribute."""
    for cls in (ComplexNetwork, RealBaselineNetwork):
        for name in ("forward", "backward", "predict", "loss_and_grads"):
            assert vars(cls)[name] is vars(network._Network)[name], (cls, name)


class TestSerialization:
    @pytest.mark.parametrize("variant", ["real_nn", "kaf_independent", "wlkaf_case2"])
    def test_roundtrip_exact(self, variant, tmp_path, rng):
        model = build_model(variant, input_dim=4, class_count=3, seed=9,
                            hidden_widths=(5, 5), dictionary=build_dictionary(4))
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        restored = load_model(path)
        assert type(restored) is type(model)
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(restored.parameters()[name], arr)
        x = random_complex(rng, (3, 4))
        np.testing.assert_array_equal(restored.predict_proba(x), model.predict_proba(x))

    @pytest.mark.parametrize("make", [
        lambda i: build_model("real_nn", 3, 2, i(3), hidden_widths=(i(4),)),
        lambda i: ComplexNetwork(NetworkConfig(i(3), (i(4),), i(2), activation="wlkaf_case1",
                                               seed=i(1), dict_points=i(4))),
    ], ids=["real_nn", "wlkaf_case1"])
    def test_numpy_integers_save_as_plain_ints(self, make, tmp_path):
        """The config holds Python ints, so the header's JSON takes numpy's."""
        plain, numpy_ints = tmp_path / "int.cvkm", tmp_path / "int64.cvkm"
        save_model(plain, make(int))
        save_model(numpy_ints, make(np.int64))
        assert numpy_ints.read_bytes() == plain.read_bytes()
        assert load_model(numpy_ints).config == make(int).config

    def test_activation_settings_survive_the_round_trip(self, tmp_path, rng):
        activation = WlKafCase2Activation((0.7, 0.2))
        cfg = NetworkConfig(input_dim=4, hidden_widths=(5,), class_count=3,
                            activation="wlkaf_case2:0.7:0.2", seed=3, dict_points=4)
        model = ComplexNetwork(cfg)
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        restored = load_model(path)
        assert restored.activation == activation
        x = random_complex(rng, (3, 4))
        np.testing.assert_array_equal(restored.predict_proba(x), model.predict_proba(x))

    @pytest.mark.parametrize("doctor, message", [
        ("narrower", "shape mismatch for layer1.alpha"),  # one dictionary point short
        ("missing", "parameter name sets differ"),
        ("renamed", "parameter name sets differ"),
    ], ids=["narrower", "missing", "renamed"])
    def test_parameters_that_do_not_fit_the_config_are_rejected(self, doctor, message, tmp_path):
        model = build_model("wlkaf_case2", input_dim=4, class_count=3, seed=2,
                            hidden_widths=(5, 5), dictionary=build_dictionary(4))
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        alpha = arrays.pop("layer1.alpha")
        if doctor == "narrower":
            arrays["layer1.alpha"] = alpha[:, :-1]
        elif doctor == "renamed":
            arrays["layer1.alpha_"] = alpha
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path} does not hold a usable model: ParameterError: {message}")) as caught:
            load_model(path)
        assert type(caught.value.__cause__) is ParameterError

    @pytest.mark.parametrize("name, rewrite", [
        ("layer0.W", lambda arr: (64 * arr.real).astype(np.int8)),
        ("layer0.log_gamma_rr", lambda arr: arr + 0.5j),
    ])
    def test_parameters_of_another_dtype_are_rejected(self, name, rewrite, tmp_path):
        model = build_model("wlkaf_case1", input_dim=4, class_count=3, seed=2,
                            hidden_widths=(5,), dictionary=build_dictionary(4))
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        arrays[name] = rewrite(arrays[name])
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path} does not hold a usable model: ParameterError: dtype mismatch for "
                f"{name}: expected {model.parameters()[name].dtype}, got {arrays[name].dtype}")):
            load_model(path)

    def test_real_nn_config_names_its_variant(self):
        model = build_model("real_nn", 4, 3, seed=0, hidden_widths=(5,))
        assert model.config.activation == "real_nn"

    @pytest.mark.parametrize("variant", ["real_nn", "wlkaf_case2"])
    def test_load_draws_and_fits_nothing(self, variant, tmp_path, monkeypatch):
        model = build_model(variant, 4, 3, seed=2, hidden_widths=(5, 5),
                            dictionary=build_dictionary(4))
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: made.append((a, default_rng(*a))) or made[-1][1])
        monkeypatch.setattr(act, "fit_alpha", lambda *a, **k: pytest.fail("fit_alpha ran"))
        restored = load_model(path)
        for args, generator in made:
            assert generator.bit_generator.state == default_rng(*args).bit_generator.state
        for name, arr in model.parameters().items():
            assert restored.parameters()[name].tobytes() == arr.tobytes()

    def test_identical_models_identical_bytes(self, tmp_path):
        d = build_dictionary(4)
        a = build_model("wlkaf_case1", 3, 2, seed=4, hidden_widths=(4,), dictionary=d)
        b = build_model("wlkaf_case1", 3, 2, seed=4, hidden_widths=(4,), dictionary=d)
        save_model(tmp_path / "a.cvkm", a)
        save_model(tmp_path / "b.cvkm", b)
        assert (tmp_path / "a.cvkm").read_bytes() == (tmp_path / "b.cvkm").read_bytes()

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "model.cvkm"
        model = build_model("real_nn", 2, 2, seed=0, hidden_widths=(3,))
        save_model(path, model)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="is not a CVKM container"):
            load_model(path)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            build_model("no_such_variant", 2, 2, seed=0)


class TestModelHeader:
    @pytest.mark.parametrize("name", [*ACTIVATION_VARIANTS, "case2_q2", "real_nn"])
    def test_v3_header_is_the_config_and_rewrites_byte_identically(self, name, tmp_path):
        model = _network(name)
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        assert _MODEL_VERSION == 3
        meta, _ = read_container(path, _MODEL_MAGIC, 3)
        assert meta == {"config": {
            "input_dim": 5, "hidden_widths": [30, 20], "class_count": 4,
            "activation": _NAMES.get(name, name), "seed": 2, "dict_points": 8, "dict_range": [-2.0, 2.0]}}
        save_model(tmp_path / "again.cvkm", load_model(path))
        assert (tmp_path / "again.cvkm").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", [*ACTIVATION_VARIANTS, "case2_q2", "real_nn"])
    def test_load_restores_type_config_parameters_and_predictions(self, name, tmp_path, rng):
        model = _network(name)
        path = tmp_path / "model.cvkm"
        save_model(path, model)
        restored = load_model(path)
        assert type(restored) is type(model) and restored.config == model.config
        assert restored.parameters().keys() == model.parameters().keys()
        for pname, arr in model.parameters().items():
            assert restored.parameters()[pname].tobytes() == arr.tobytes()
        x = random_complex(rng, (9, 5))
        assert restored.predict_proba(x).tobytes() == model.predict_proba(x).tobytes()

    @pytest.mark.parametrize("doctor", [
        lambda meta: meta["config"].update(ridge=1e-4),
        lambda meta: meta.update(kind="complex"),
        lambda meta: meta.update(activation={"variant": "wlkaf_case2", "q": 2,
                                             "omegas": [0.3, 0.6]}),
        lambda meta: meta.update(dictionary={"points_per_axis": 8, "axis_range": [-2.0, 2.0]}),
    ], ids=["ridge", "kind", "activation", "dictionary"])
    def test_a_header_with_an_entry_besides_the_config_is_data_error(self, doctor, tmp_path):
        # the entries format version 1 wrote: the config is the one copy now
        path = tmp_path / "model.cvkm"
        save_model(path, _network("case2_q2"))
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        doctor(meta)
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match="does not hold a usable model") as caught:
            load_model(path)
        assert isinstance(caught.value.__cause__, ValueError)

    @pytest.mark.parametrize("activation", ["split_identity", "kaf", "kaf_independent:0.5",
                                            "wlkaf_case2:", ""],
                             ids=["split_identity", "kaf_without_kernel", "extra_field",
                                  "no_weights", "empty"])
    def test_a_name_no_variant_takes_is_data_error(self, activation, tmp_path):
        path = tmp_path / "model.cvkm"
        save_model(path, _network("kaf_independent"))
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        meta["config"]["activation"] = activation
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match="unknown activation variant") as caught:
            load_model(path)
        assert f"{path} does not hold a usable model" in str(caught.value)
        assert isinstance(caught.value.__cause__, ParameterError)

    @pytest.mark.parametrize("kind, version, expected", [
        *(("model", v, 3) for v in (0, 2, 4)), *(("cache", v, 2) for v in (0, 1, 3))])
    def test_models_and_caches_of_another_version_ask_for_a_rebuild(self, kind, version,
                                                                    expected, tmp_path):
        path = tmp_path / f"file.{kind}"
        if kind == "model":
            save_model(path, _network("wlkaf_case1"))
            load = load_model
        else:
            cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
            load = load_cached
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")  # format version field
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as caught:
            load(path)
        assert str(caught.value) == \
            f"{path} has format version {version}, expected {expected}; rebuild the file"

    def test_unknown_activation_name_is_parameter_error(self):
        with pytest.raises(ParameterError, match="unknown activation variant"):
            ComplexNetwork(NetworkConfig(2, (3,), 2, activation="split_identity"))

    def test_the_baselines_name_is_not_a_complex_network(self):
        with pytest.raises(ParameterError, match="'real_nn' is the real baseline, not a "
                                                 "ComplexNetwork"):
            ComplexNetwork(NetworkConfig(2, (3,), 2, activation="real_nn"))


class TestRunFigures:
    """The figures a run's summary.json records from its kept model."""

    @pytest.mark.parametrize("variant, count", [
        # W0 4x6 + b0 4, W1 2x4 + b1 2, all real
        ("real_nn", 24 + 4 + 8 + 2),
        # complex W0 4x3, b0 4, alpha 4x4 (2x2 grid), W1 2x4, b1 2, two parts each,
        # plus one real log bandwidth per hidden neuron
        ("kaf_real_gaussian", 2 * (12 + 4 + 16 + 8 + 2) + 4),
        ("wlkaf_case1", 2 * (12 + 4 + 16 + 8 + 2) + 2 * 4),  # gamma_rr and gamma_ii
    ])
    def test_parameter_count_is_a_hand_count(self, variant, count):
        model = build_model(variant, 3, 2, seed=0, hidden_widths=(4,),
                            dictionary=build_dictionary(2))
        assert parameter_count(model) == count

    @pytest.mark.parametrize("variant, count", [
        ("real_nn", 41310), ("kaf_real_gaussian", 101320), ("kaf_independent", 101320),
        ("wlkaf_case1", 101620), ("wlkaf_case2", 101620)])
    def test_paper_shape_counts(self, variant, count):
        assert parameter_count(build_model(variant, 100, 10, 0)) == count

    @pytest.mark.parametrize("variant, count", [
        ("real_nn", 24 + 4 + 8 + 2),
        ("split_tanh", 2 * (12 + 4 + 8 + 2)),
        ("phase_amplitude", 2 * (12 + 4 + 8 + 2)),
        # complex W0 4x3, b0 4, alpha 4x16 (4x4 grid), W1 2x4, b1 2, plus the bandwidths;
        # kaf_independent's alpha reaches the output in 8 of 32 directions per neuron
        ("kaf_independent", 2 * (12 + 4 + 64 + 8 + 2) + 4 - 4 * 24),
        ("kaf_real_gaussian", 2 * (12 + 4 + 64 + 8 + 2) + 4),
        ("wlkaf_case1", 2 * (12 + 4 + 64 + 8 + 2) + 2 * 4),
        ("wlkaf_case2", 2 * (12 + 4 + 64 + 8 + 2) + 2 * 4),  # gamma and gamma_tilde
    ])
    def test_effective_parameter_count_is_a_hand_count(self, variant, count):
        model = build_model(variant, 3, 2, seed=0, hidden_widths=(4,),
                            dictionary=build_dictionary(4))
        assert effective_parameter_count(model) == count

    def test_paper_shape_kaf_independent_loses_112_per_hidden_neuron(self):
        model = build_model("kaf_independent", 100, 10, 0)
        assert effective_parameter_count(model) == 101320 - 300 * 112 == 67720

    def test_bandwidth_split_is_case1s_per_layer_median_and_max(self):
        model = build_model("wlkaf_case1", 3, 2, seed=0, hidden_widths=(3, 4),
                            dictionary=build_dictionary(2))
        params = model.parameters()
        params["layer0.log_gamma_rr"][...] = [0.5, 1.0, -2.0]
        params["layer0.log_gamma_ii"][...] = [0.0, 0.0, 0.0]
        params["layer1.log_gamma_rr"][...] = [1.0, 1.0, 1.0, 1.0]
        params["layer1.log_gamma_ii"][...] = [1.0, 1.25, 0.0, 4.0]
        assert bandwidth_split(model) == [{"median": 1.0, "max": 2.0},
                                          {"median": 0.625, "max": 3.0}]

    @pytest.mark.parametrize("variant", ["real_nn", "kaf_real_gaussian", "wlkaf_case2"])
    def test_bandwidth_split_is_none_for_other_models(self, variant):
        assert bandwidth_split(build_model(variant, 3, 2, seed=0, hidden_widths=(4,))) is None

    @pytest.mark.parametrize("variant", ["kaf_independent", "wlkaf_case1"])
    def test_outside_grid_share_is_a_hand_count(self, variant):
        model = build_model(variant, 1, 2, seed=0, hidden_widths=(2,),
                            dictionary=build_dictionary(4))  # axes [-2, 2]
        params = model.parameters()
        params["layer0.W"][...] = [[1], [1j]]
        params["layer0.b"][...] = [0, 0.5]
        # pre-activations (x, 0.5 + ix): 0 and 2 lie inside, a part at 2 is on the grid;
        # 2.5 and -1+3j have both outside, 1-2j only the second (2.5+1j), 0.5j neither
        x = np.array([[0], [2], [2.5], [-1 + 3j], [1 - 2j], [0.5j]])
        assert outside_grid_share(model, x) == [5 / 12]
        # three prediction blocks of 6400 rows give the same share
        assert model._predict_block_rows() == 6400
        assert outside_grid_share(model, np.tile(x, (2200, 1))) == [5 / 12]

    def test_outside_grid_share_reads_each_layer_after_the_activation(self, rng):
        grid = build_dictionary(4)
        model = build_model("wlkaf_case1", 3, 2, seed=1, hidden_widths=(5, 6), dictionary=grid)
        # layer 1's pre-activations are the logits of a network cut after its affine map
        head = build_model("wlkaf_case1", 3, 6, seed=1, hidden_widths=(5,), dictionary=grid)
        head.set_parameters({name: arr for name, arr in model.parameters().items()
                             if name in head.parameters()})
        x = 3 * random_complex(rng, (200, 3))
        params = model.parameters()
        pre = [complex_affine(params["layer0.W"], x, params["layer0.b"]), head.forward(x)[0]]
        expected = [float(np.mean((np.abs(z.real) > 2) | (np.abs(z.imag) > 2))) for z in pre]
        assert 0 < min(expected) and max(expected) < 1
        assert outside_grid_share(model, x) == expected

    @pytest.mark.parametrize("variant", ["real_nn", "split_tanh", "phase_amplitude"])
    def test_outside_grid_share_is_none_for_models_without_a_grid(self, variant):
        model = build_model(variant, 3, 2, seed=0, hidden_widths=(4,))
        assert outside_grid_share(model, np.zeros((5, 3), complex)) is None
