"""Adagrad and the training loop with early stopping."""

import math
import re

import numpy as np
import pytest

from cvkaf import optim
from cvkaf.errors import DataFormatError, NumericError, ParameterError
from cvkaf.kernels import build_dictionary
from cvkaf.network import NetworkConfig, ComplexNetwork, TrainObjective, build_model
from cvkaf.optim import (
    Adagrad,
    TraceRecord,
    TrainConfig,
    TrainTrace,
    evaluate,
    read_trace_csv,
    train,
    write_trace_csv,
)

from conftest import random_complex


def toy_separable(n=120, seed=0):
    """Two complex features; class decides the sign of the real parts."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    sign = np.where(labels == 0, 1.0, -1.0)
    x = (
        sign[:, None] * (1.0 + 0.15 * rng.normal(size=(n, 2)))
        + 1j * (sign[:, None] * 0.8 + 0.15 * rng.normal(size=(n, 2)))
    )
    return x.astype(np.complex128), labels


def tiny_model(seed=0, variant="wlkaf_case1"):
    return build_model(variant, input_dim=2, class_count=2, seed=seed,
                       hidden_widths=(6,), dictionary=build_dictionary(4))


class TestTrainConfig:
    @pytest.mark.parametrize("name, value", [("batch_size", 2.5), ("batch_size", True),
                                             ("batch_size", "3"), ("lr", -1.0), ("lr", math.nan)])
    def test_refuses_a_count_or_rate_outside_its_rule(self, name, value):
        with pytest.raises(ParameterError,
                           match=f"{name} must be a .*, got {re.escape(repr(value))}"):
            TrainConfig(**{name: value})


class TestAdagrad:
    @pytest.mark.parametrize("lr", [0.0, -0.01, np.inf, np.nan])
    def test_lr_outside_zero_to_infinity_rejected(self, lr):
        with pytest.raises(ParameterError,
                           match=f"lr must be a finite positive number, got {lr!r}"):
            Adagrad({"w": np.zeros(2)}, lr=lr)

    def test_zero_gradient_is_a_no_op(self):
        params = {"w": np.array([1 + 2j, -0.5 + 0j]), "g": np.array([0.25])}
        opt = Adagrad(params, lr=0.05)
        before = {k: v.copy() for k, v in params.items()}
        opt.step(params, {"w": np.zeros(2, dtype=complex), "g": np.zeros(1)})
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])
            assert not opt.acc[k].any()

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        opt = Adagrad(params, lr=0.01)
        opt.step(params, {"w": np.array([3.0])})
        np.testing.assert_allclose(params["w"], [-0.01 * 3.0 / (3.0 + 1e-8)], rtol=1e-12)

    def test_repeated_steps_shrink(self):
        params = {"w": np.array([0.0])}
        opt = Adagrad(params, lr=0.01)
        opt.step(params, {"w": np.array([2.0])})
        first = abs(params["w"][0])
        w_after_first = params["w"][0]
        opt.step(params, {"w": np.array([2.0])})
        second = abs(params["w"][0] - w_after_first)
        assert second < first

    def test_accumulators_monotone(self, rng):
        params = {"w": (rng.normal(size=3) + 1j * rng.normal(size=3))}
        opt = Adagrad(params, lr=0.01)
        prev = opt.acc["w"].copy()
        for _ in range(10):
            g = rng.normal(size=3) + 1j * rng.normal(size=3)
            opt.step(params, {"w": g})
            assert np.all(opt.acc["w"] >= prev)
            prev = opt.acc["w"].copy()

    def test_complex_components_update_independently(self):
        params = {"w": np.array([1.0 + 1.0j])}
        opt = Adagrad(params, lr=0.1)
        opt.step(params, {"w": np.array([2.0 + 0.0j])})  # only the real part moves
        assert params["w"][0].imag == 1.0
        assert params["w"][0].real < 1.0

    def test_effective_step_bounded_by_lr(self, rng):
        params = {"w": np.zeros(5)}
        opt = Adagrad(params, lr=0.01)
        for _ in range(20):
            before = params["w"].copy()
            opt.step(params, {"w": rng.normal(size=5) * 10})
            assert np.max(np.abs(params["w"] - before)) <= 0.01 + 1e-12

    def test_non_finite_gradient_aborts_without_mutation(self):
        params = {"w": np.array([1.0]), "v": np.array([2.0 + 0j])}
        opt = Adagrad(params, lr=0.01)
        with pytest.raises(NumericError):
            opt.step(params, {"w": np.array([np.nan]), "v": np.zeros(1, dtype=complex)})
        np.testing.assert_array_equal(params["w"], [1.0])
        assert not opt.acc["w"].any()

    @pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_non_finite_complex_gradient_aborts_without_mutation(self, bad):
        params = {"w": np.array([1.0]), "v": np.array([2.0 + 0j])}
        opt = Adagrad(params, lr=0.01)
        with pytest.raises(NumericError, match="non-finite gradient for 'v'; step aborted"):
            opt.step(params, {"w": np.zeros(1), "v": np.array([bad])})
        np.testing.assert_array_equal(params["v"], [2.0 + 0j])
        assert not opt.acc["w"].any() and not opt.acc["v"].any()

    def test_matches_separate_real_and_imaginary_updates(self, rng):
        def reference_step(params, acc, grads, lr, eps):
            for name, arr in params.items():
                g = grads[name]
                if np.iscomplexobj(arr):
                    acc[name][..., 0] += g.real**2
                    acc[name][..., 1] += g.imag**2
                    arr -= lr * (
                        g.real / (np.sqrt(acc[name][..., 0]) + eps)
                        + 1j * (g.imag / (np.sqrt(acc[name][..., 1]) + eps))
                    )
                else:
                    acc[name] += g**2
                    arr -= lr * g / (np.sqrt(acc[name]) + eps)

        params = {
            "layer0.W": rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)),
            "layer0.b": rng.normal(size=5) + 1j * rng.normal(size=5),
            "layer0.log_gamma_rr": rng.normal(size=5),
            "layer0.log_gamma": rng.normal(size=(5, 2)),
        }
        opt = Adagrad(params, lr=0.03)
        shapes = {name: a.shape for name, a in opt.acc.items()}
        for _ in range(20):
            grads = {name: (random_complex(rng, a.shape) if np.iscomplexobj(a)
                            else rng.normal(size=a.shape)) for name, a in params.items()}
            grads["layer0.W"] = np.asfortranarray(grads["layer0.W"])  # any memory layout
            for name in ("layer0.log_gamma_rr", "layer0.log_gamma"):
                # a step does not depend on the weights; from zero the new
                # weight is exactly minus the step, so the ulp bound is on it
                params[name][...] = 0.0
            ref = {name: a.copy() for name, a in params.items()}
            ref_acc = {name: a.copy() for name, a in opt.acc.items()}
            reference_step(ref, ref_acc, grads, opt.lr, opt.epsilon)
            opt.step(params, grads)
            for name, arr in params.items():
                np.testing.assert_array_equal(opt.acc[name], ref_acc[name])
                if np.iscomplexobj(arr):
                    np.testing.assert_array_equal(arr, ref[name])
                else:
                    np.testing.assert_array_max_ulp(arr, ref[name], maxulp=1)
        assert {name: a.shape for name, a in opt.acc.items()} == shapes


class TestCase1WithTiedBandwidths:
    def test_trains_step_for_step_like_the_real_gaussian_kaf(self):
        """Case 1 built at the real-Gaussian KAF's seed (so W, b and alpha are drawn
        alike), whose gamma_rr and gamma_ii take one shared Adagrad step (each gets
        the sum of their two gradients), trains like the KAF: the only difference
        between them is the bandwidth split d. C is 0, since the regulariser would
        count the tied bandwidth twice."""
        x, labels = toy_separable(n=60, seed=3)
        dictionary = build_dictionary(4)
        models = {v: build_model(v, input_dim=2, class_count=2, seed=7, hidden_widths=(5, 4),
                                 dictionary=dictionary)
                  for v in ("kaf_real_gaussian", "wlkaf_case1")}
        params = {v: model.parameters() for v, model in models.items()}
        start = {name: a.copy() for name, a in params["kaf_real_gaussian"].items()}
        opts = {v: Adagrad(p, lr=0.05) for v, p in params.items()}
        losses = {v: [] for v in models}
        rng = np.random.default_rng(0)
        for _ in range(300):
            idx = rng.choice(60, size=10, replace=False)
            for v, model in models.items():
                loss, grads = model.loss_and_grads(x[idx], labels[idx], TrainObjective())
                for rr in [name for name in grads if name.endswith(".log_gamma_rr")]:
                    ii = rr.replace("_rr", "_ii")
                    grads[rr] = grads[ii] = grads[rr] + grads[ii]
                opts[v].step(params[v], grads)
                model.bump_version()
                losses[v].append(loss)
        np.testing.assert_allclose(losses["wlkaf_case1"], losses["kaf_real_gaussian"],
                                   rtol=0, atol=1e-12)
        assert losses["kaf_real_gaussian"][-1] < 0.5 * losses["kaf_real_gaussian"][0]
        case1 = params["wlkaf_case1"]
        for name, kaf in params["kaf_real_gaussian"].items():
            assert not np.array_equal(kaf, start[name]), name  # every group trained
            if name.endswith(".log_gamma"):
                np.testing.assert_array_equal(case1[name + "_rr"], case1[name + "_ii"])
                name += "_rr"
            np.testing.assert_allclose(case1[name], kaf, rtol=0, atol=1e-12, err_msg=name)


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = toy_separable(160)
        model = tiny_model(seed=1)
        config = TrainConfig(batch_size=20, patience=200, eval_every=25,
                             max_iterations=800, seed=3)
        trace = train(model, (x[:120], y[:120]), (x[120:], y[120:]),
                      config, TrainObjective("cross_entropy", 0.0))
        assert trace.best_val_accuracy == 1.0
        assert evaluate(model, x[120:], y[120:]) == 1.0

    def test_determinism_bitwise(self):
        x, y = toy_separable(100)
        config = TrainConfig(batch_size=10, patience=100, eval_every=20,
                             max_iterations=120, seed=9)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=2)
            trace = train(model, (x[:80], y[:80]), (x[80:], y[80:]),
                          config, TrainObjective("cross_entropy", 1e-4))
            runs.append((model.snapshot(), trace))
        params_a, trace_a = runs[0]
        params_b, trace_b = runs[1]
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name])
        assert [
            (r.iteration, r.train_loss, r.val_accuracy) for r in trace_a.records
        ] == [(r.iteration, r.train_loss, r.val_accuracy) for r in trace_b.records]

    def test_patience_bound_on_total_iterations(self):
        x, y = toy_separable(60)
        model = tiny_model(seed=4)
        config = TrainConfig(batch_size=10, patience=60, eval_every=20,
                             max_iterations=5000, seed=5)
        trace = train(model, (x[:40], y[:40]), (x[40:], y[40:]),
                      config, TrainObjective("cross_entropy", 0.0))
        assert trace.total_iterations <= trace.best_iteration + config.patience + config.eval_every

    def test_degenerate_patience_stops_at_first_window(self, monkeypatch):
        x, y = toy_separable(60)
        model = tiny_model(seed=4)
        # lr cannot be zero, so freeze progress by evaluating on a constant
        # metric: no strict improvement ever happens
        monkeypatch.setattr(optim, "evaluate", lambda m, xv, yv: 0.5)
        config = TrainConfig(batch_size=10, patience=10, eval_every=50,
                             max_iterations=5000, seed=5)
        trace = train(model, (x[:40], y[:40]), (x[40:], y[40:]),
                      config, TrainObjective("cross_entropy", 0.0))
        assert trace.total_iterations == 50
        assert trace.stop_reason == "patience"

    def test_returns_argmax_checkpoint_not_last(self, monkeypatch):
        x, y = toy_separable(60)
        model = tiny_model(seed=6)
        snapshots = []
        schedule = [0.1, 0.4, 0.9, 0.3, 0.2, 0.1, 0.05]

        def synthetic_metric(m, xv, yv):
            snapshots.append(m.snapshot())
            return schedule[len(snapshots) - 1]

        monkeypatch.setattr(optim, "evaluate", synthetic_metric)
        config = TrainConfig(batch_size=10, patience=100, eval_every=25,
                             max_iterations=150, seed=7)
        trace = train(model, (x[:40], y[:40]), (x[40:], y[40:]),
                      config, TrainObjective("cross_entropy", 0.0))
        # snapshots[0] is the iteration-0 baseline; the 0.9 peak is the
        # second in-training eval, snapshots[2], at iteration 50
        assert trace.best_iteration == 50
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, snapshots[2][name])

    def test_numeric_error_leaves_the_best_checkpoint_and_the_trace(self, monkeypatch):
        x, y = toy_separable(60)
        model = tiny_model(seed=6)
        snapshots = []
        schedule = [0.1, 0.9, 0.3]

        def synthetic_metric(m, xv, yv):
            snapshots.append(m.snapshot())
            return schedule[len(snapshots) - 1]

        step, calls = Adagrad.step, []

        def failing_step(opt, params, grads):
            calls.append(None)
            if len(calls) == 60:
                raise NumericError("non-finite gradient")
            step(opt, params, grads)

        monkeypatch.setattr(optim, "evaluate", synthetic_metric)
        monkeypatch.setattr(Adagrad, "step", failing_step)
        config = TrainConfig(batch_size=10, patience=100, eval_every=25,
                             max_iterations=150, seed=7)
        with pytest.raises(NumericError) as caught:
            train(model, (x[:40], y[:40]), (x[40:], y[40:]),
                  config, TrainObjective("cross_entropy", 0.0))
        trace = caught.value.trace
        assert trace.stop_reason == "numeric_error" and trace.total_iterations == 60
        assert [r.iteration for r in trace.records] == [25, 50]
        assert trace.best_iteration == 25 and trace.best_val_accuracy == 0.9
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, snapshots[1][name])

    def test_batch_larger_than_train_set_rejected(self):
        x, y = toy_separable(30)
        model = tiny_model()
        config = TrainConfig(batch_size=40, max_iterations=10)
        with pytest.raises(ParameterError):
            train(model, (x[:20], y[:20]), (x[20:], y[20:]),
                  config, TrainObjective())


    @pytest.mark.parametrize("split", ["train", "val"])
    def test_label_count_other_than_row_count_rejected(self, split):
        x, y = toy_separable(40)
        model = tiny_model()
        before = model.snapshot()
        data = {"train": (x[:30], y[:30]), "val": (x[30:], y[30:])}
        xs, ys = data[split]
        data[split] = (xs[:-1], ys)
        with pytest.raises(ParameterError, match="rows has"):
            train(model, data["train"], data["val"], TrainConfig(batch_size=5, max_iterations=5),
                  TrainObjective())
        for name, arr in model.parameters().items():
            assert arr.tobytes() == before[name].tobytes()


class TestEvaluate:
    def test_label_count_other_than_row_count_rejected(self):
        x, y = toy_separable(4)
        model = tiny_model()
        for rows, labels in ((x[:1], y), (x, y[:3]), (x[:0], y)):
            with pytest.raises(ParameterError, match="rows has"):
                evaluate(model, rows, labels)

    def test_perfect_classifier(self):
        x, y = toy_separable(80)
        model = tiny_model(seed=1)
        config = TrainConfig(batch_size=10, patience=300, eval_every=25,
                             max_iterations=600, seed=3)
        train(model, (x[:60], y[:60]), (x[60:], y[60:]), config, TrainObjective())
        if evaluate(model, x[60:], y[60:]) == 1.0:
            assert evaluate(model, x[60:], y[60:]) == 1.0
        else:
            pytest.skip("toy training did not converge; covered elsewhere")

    def test_chance_level_for_uniform_labels(self):
        cfg = NetworkConfig(4, (3,), 10, activation="split_tanh", seed=0)
        model = ComplexNetwork(cfg)
        for arr in model.parameters().values():
            arr[...] = 0  # uniform probabilities, argmax ties -> class 0
        model.bump_version()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
        y = rng.integers(0, 10, size=500)
        acc = evaluate(model, x, y)
        assert acc == np.mean(y == 0)
        assert 0.05 < acc < 0.16

    def test_singleton_split(self):
        x, y = toy_separable(10)
        model = tiny_model()
        assert evaluate(model, x[:1], y[:1]) in (0.0, 1.0)

    def test_empty_split_rejected(self):
        model = tiny_model()
        with pytest.raises(ParameterError):
            evaluate(model, np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=int))


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        x, y = toy_separable(60)
        model = tiny_model(seed=8)
        config = TrainConfig(batch_size=10, patience=60, eval_every=20,
                             max_iterations=80, seed=8)
        trace = train(model, (x[:40], y[:40]), (x[40:], y[40:]),
                      config, TrainObjective())
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert [(r.iteration, r.train_loss, r.val_accuracy) for r in loaded.records] == [
            (r.iteration, r.train_loss, r.val_accuracy) for r in trace.records
        ]
        assert loaded.total_iterations == trace.records[-1].iteration

    def test_read_back_trace_claims_no_best_checkpoint(self, tmp_path):
        # iteration 0 was best, and train never records iteration 0
        written = TrainTrace(records=[TraceRecord(10, 0.9, 0.36, 0.1),
                                      TraceRecord(20, 0.8, 0.30, 0.2)],
                             best_iteration=0, best_val_accuracy=0.36, total_iterations=20,
                             stop_reason="max_iterations")
        path = tmp_path / "trace.csv"
        write_trace_csv(written, path)
        loaded = read_trace_csv(path)
        assert loaded.records == written.records
        assert loaded.total_iterations == 20
        assert loaded.best_iteration == 0 and math.isnan(loaded.best_val_accuracy)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "not_a_trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            read_trace_csv(path)
