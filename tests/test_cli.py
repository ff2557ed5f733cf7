"""CLI surface: subcommands, exit codes, config files, artifact layout."""

import json
import re

import numpy as np
import pytest

from cvkaf import cli, data
from cvkaf.activations import ACTIVATION_VARIANTS, _KafBase
from cvkaf.cli import build_parser, main
from cvkaf.container import read_container, write_container
from cvkaf.data import build_complex_dataset, cache_dataset, load_cached
from cvkaf.errors import NumericError
from cvkaf.kernels import build_dictionary
from cvkaf.network import (
    _MODEL_MAGIC,
    _MODEL_VERSION,
    NetworkConfig,
    build_model,
    load_model,
    save_model,
)
from cvkaf.optim import TrainConfig, evaluate, read_trace_csv

from test_data import synthetic_raw, write_idx_images, write_idx_labels
from test_network import v1_header


def drop_elapsed(csv_text: str) -> str:
    """Strip the wall-clock column (the designated timestamp carve-out)."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


@pytest.fixture
def tiny_cache(tmp_path):
    ds = build_complex_dataset(synthetic_raw(n=120, classes=3), k=6,
                               split=(0.6, 0.2, 0.2), seed=0)
    path = tmp_path / "tiny.cvkc"
    cache_dataset(ds, path)
    return path


def _version_1_layout(meta, arrays):
    """Turn a cache's fields into format version 1's: a header entry ``k``
    and one index array per split in place of the split sizes."""
    bounds = np.cumsum([0, *meta.pop("split_sizes")])
    meta["k"] = arrays["features"].shape[1]
    for name, lo, hi in zip(("idx_train", "idx_val", "idx_test"), bounds, bounds[1:]):
        arrays[name] = np.arange(lo, hi)


TRACE_HEADER = "iteration,train_loss,val_accuracy,elapsed_seconds"

TRAIN_FLAGS = [
    "--hidden", "8", "--dict-points", "3", "--batch-size", "10",
    "--eval-every", "20", "--patience", "40", "--max-iterations", "60",
]


class TestPreprocess:
    def test_digits_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "digits.cvkc"
        rc = main(["preprocess", "--dataset", "digits", "--k-coeffs", "12",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "selected:" in captured and "1797 images" in captured

    def test_rerun_is_idempotent(self, tmp_path):
        out = tmp_path / "digits.cvkc"
        argv = ["preprocess", "--dataset", "digits", "--k-coeffs", "8",
                "--out", str(out), "--seed", "2"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_zero_k_is_parameter_error(self, tmp_path):
        rc = main(["preprocess", "--dataset", "digits", "--k-coeffs", "0",
                   "--out", str(tmp_path / "x.cvkc")])
        assert rc == 2

    def test_missing_data_is_data_error(self, tmp_path):
        rc = main(["preprocess", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--out", str(tmp_path / "x.cvkc")])
        assert rc == 3


class TestTrain:
    def test_writes_all_artifacts(self, tiny_cache, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1",
                   "--seed", "0", "--out", str(run_dir), *TRAIN_FLAGS])
        assert rc == 0
        for name in ("model.cvkm", "trace.csv", "summary.json", "config.txt", "run.log"):
            assert (run_dir / name).exists(), name
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["model"] == "wlkaf_case1"
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        assert "test acc" in capsys.readouterr().out

    def test_deterministic_reruns(self, tiny_cache, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            rc = main(["train", "--cache", str(tiny_cache), "--model", "kaf_independent",
                       "--seed", "3", "--out", str(d), *TRAIN_FLAGS])
            assert rc == 0
        assert (dirs[0] / "model.cvkm").read_bytes() == (dirs[1] / "model.cvkm").read_bytes()
        assert drop_elapsed((dirs[0] / "trace.csv").read_text()) == \
            drop_elapsed((dirs[1] / "trace.csv").read_text())
        assert (dirs[0] / "summary.json").read_text() == (dirs[1] / "summary.json").read_text()
        assert (dirs[0] / "config.txt").read_text() == (dirs[1] / "config.txt").read_text()

    def test_summary_val_accuracy_is_the_saved_models(self, tiny_cache, tmp_path):
        run_dir = tmp_path / "run"
        rc = main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case2",
                   "--seed", "4", "--out", str(run_dir), *TRAIN_FLAGS])
        assert rc == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        model = load_model(run_dir / "model.cvkm")
        assert summary["val_accuracy"] == evaluate(model, *load_cached(tiny_cache).val_xy())

    def test_complex_gaussian_model_is_parameter_error(self, tiny_cache, tmp_path):
        rc = main(["train", "--cache", str(tiny_cache), "--model", "kaf_complex_gaussian",
                   "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert rc == 2

    def test_missing_cache_flag(self):
        assert main(["train", "--model", "wlkaf_case1"]) == 2

    def test_range_below_zero_is_a_value(self, tiny_cache, tmp_path):
        run_dir = tmp_path / "run"
        rc = main(["train", "--cache", str(tiny_cache), "--out", str(run_dir), *TRAIN_FLAGS,
                   "--dict-range", "-3..3"])
        assert rc == 0
        assert "dict_range = -3.0..3.0" in (run_dir / "config.txt").read_text().splitlines()

    def test_unreadable_batch_size_is_parameter_error(self, tiny_cache, tmp_path, capsys):
        argv = ["train", "--cache", str(tiny_cache), "--out", str(tmp_path / "run"),
                *TRAIN_FLAGS]
        argv[argv.index("--batch-size") + 1] = "x"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--batch-size" in err and "'x'" in err

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
                                             ("--c", "nan"), ("--c", "inf"), ("--c", "-1"),
                                             ("--c", "-1e-4")])
    def test_non_finite_or_out_of_range_rate_is_parameter_error(self, flag, value, tiny_cache,
                                                                tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = ["train", "--cache", str(tiny_cache), "--out", str(run_dir), *TRAIN_FLAGS,
                flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite" in err and f"got '{value}'" in err
        assert not run_dir.exists()

    def test_unreadable_cache_is_data_error(self, tmp_path):
        bogus = tmp_path / "bogus.cvkc"
        bogus.write_bytes(b"not a cache")
        rc = main(["train", "--cache", str(bogus), "--out", str(tmp_path / "r")])
        assert rc == 3


class TestEvaluate:
    def test_prints_accuracy(self, tiny_cache, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["train", "--cache", str(tiny_cache), "--model", "real_nn",
              "--seed", "1", "--out", str(run_dir), *TRAIN_FLAGS])
        capsys.readouterr()
        rc = main(["evaluate", "--model-file", str(run_dir / "model.cvkm"),
                   "--cache", str(tiny_cache), "--split", "val"])
        assert rc == 0
        assert "val accuracy:" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        {"variant": "no_such_variant"},
        {"variant": "kaf"},
        {"variant": "wlkaf_case2", "q": 2, "omegas": [0.3]},
    ])
    def test_unusable_activation_spec_is_data_error(self, spec, tiny_cache, tmp_path):
        # only a version-1 header carries an activation spec
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        model = build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                            hidden_widths=(8,), dictionary=build_dictionary(3))
        meta = v1_header(model)
        meta["activation"] = spec
        write_container(path, _MODEL_MAGIC, 1, meta, model.parameters())
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3

    @pytest.mark.parametrize("doctor", [
        lambda meta, arrays: meta.pop("config"),
        lambda meta, arrays: meta["config"].pop("seed"),
        lambda meta, arrays: meta["config"].pop("dict_range"),
        lambda meta, arrays: meta["config"].update(input_dim=0),
        lambda meta, arrays: meta["config"].update(alpha_init="bogus"),
        lambda meta, arrays: arrays.update({"layer0.alpha": arrays["layer0.alpha"][:, :-1]}),
        lambda meta, arrays: arrays.pop("layer0.b"),
    ], ids=["no_config", "no_seed", "no_axis_range", "input_dim_0", "unknown_alpha_init",
            "narrow_alpha", "missing_array"])
    def test_malformed_model_file_is_data_error(self, doctor, tiny_cache, tmp_path, capsys):
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                                     hidden_widths=(8,), dictionary=build_dictionary(3)))
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        doctor(meta, arrays)
        write_container(path, _MODEL_MAGIC, _MODEL_VERSION, meta, arrays)
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3
        assert f"data error: {path} does not hold a usable model" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["real_nn", "wlkaf_case1"])
    def test_model_of_another_width_is_data_error(self, variant, tiny_cache, tmp_path, capsys):
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model(variant, ds.feature_dim - 2, ds.class_count, seed=0,
                                     hidden_widths=(8,), dictionary=build_dictionary(3)))
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3
        err = capsys.readouterr().err
        assert (f"data error: {tiny_cache} has {ds.feature_dim} features per row, "
                f"but {path} takes {ds.feature_dim - 2}") in err

    def test_model_of_another_class_count_is_data_error(self, tiny_cache, tmp_path, capsys):
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model("real_nn", ds.feature_dim, ds.class_count + 4, seed=0,
                                     hidden_widths=(8,)))
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3
        err = capsys.readouterr().err
        assert (f"data error: {tiny_cache} has {ds.class_count} classes, "
                f"but {path} scores {ds.class_count + 4}") in err

    def test_bad_split_name(self, tiny_cache, tmp_path):
        rc = main(["evaluate", "--model-file", str(tmp_path / "nope.cvkm"),
                   "--cache", str(tiny_cache), "--split", "holdout"])
        assert rc == 2

    @pytest.mark.parametrize("doctor, version", [
        (_version_1_layout, 1),
        (lambda meta, arrays: meta.pop("seed"), 2),
        (lambda meta, arrays: arrays.update(idx_train=np.arange(3)), 2),
        (lambda meta, arrays: meta.update(split_sizes=[71, 24.0, 25]), 2),
        (lambda meta, arrays: meta.update(split_sizes=[97, -1, 24]), 2),
        (lambda meta, arrays: meta.update(split_sizes=[72, 24, 25]), 2),
        (lambda meta, arrays: meta.update(class_count="3"), 2),
        (lambda meta, arrays: arrays.update(labels=arrays["labels"] + 0.5), 2),
        (lambda meta, arrays: arrays.update(features=arrays["features"].real.copy()), 2),
    ], ids=["version_1", "missing_field", "extra_field", "size_not_integer",
            "negative_size", "sizes_not_summing", "class_count_not_integer", "labels_float",
            "features_real"])
    def test_malformed_cache_is_data_error(self, doctor, version, tiny_cache, tmp_path,
                                           capsys):
        ds = load_cached(tiny_cache)
        assert ds.split_sizes == (72, 24, 24)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                                     hidden_widths=(8,), dictionary=build_dictionary(3)))
        meta, arrays = read_container(tiny_cache, data._CACHE_MAGIC, data._CACHE_VERSION)
        doctor(meta, arrays)
        write_container(tiny_cache, data._CACHE_MAGIC, version, meta, arrays)
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tiny_cache} ") and "rebuild" in err
        assert "Traceback" not in err


class TestCompare:
    def test_table_covers_all_variants_including_failures(
        self, tiny_cache, tmp_path, capsys, monkeypatch
    ):
        train_one = cli._train_one

        def diverging_case2(ds, model_name, *rest):
            if model_name == "wlkaf_case2":
                raise NumericError("non-finite loss")
            return train_one(ds, model_name, *rest)

        monkeypatch.setattr(cli, "_train_one", diverging_case2)
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache),
                   "--models", "real_nn,wlkaf_case1,wlkaf_case2",
                   "--seeds", "0,1", "--c-grid", "0", "--out", str(out_dir),
                   *TRAIN_FLAGS])
        assert rc == 0
        table = capsys.readouterr().out
        assert "real_nn" in table and "wlkaf_case1" in table
        assert "wlkaf_case2            FAILED: NumericError: non-finite loss" in table
        record = json.loads((out_dir / "comparison.json").read_text())
        assert set(record["models"]) == {"real_nn", "wlkaf_case1", "wlkaf_case2"}
        assert "error" in record["models"]["wlkaf_case2"]
        assert record["models"]["wlkaf_case1"]["seed_count"] == 2
        assert record["models"]["wlkaf_case1"]["std"] is not None

    @pytest.mark.parametrize("grid, bad", [("0,nan", "nan"), ("0,inf", "inf"),
                                           ("-1e-4,0", "-1e-4"), ("-1,0", "-1")])
    def test_non_finite_or_negative_c_is_parameter_error(self, grid, bad, tiny_cache,
                                                          tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache), "--models", "real_nn",
                   "--seeds", "0", "--c-grid", grid, "--out", str(out_dir), *TRAIN_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert "argument --c-grid: expected a finite non-negative number" in err
        assert f"got '{bad}'" in err
        assert not out_dir.exists()

    def test_grid_search_records_each_c(self, tiny_cache, tmp_path):
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache), "--models", "real_nn",
                   "--seeds", "0", "--c-grid", "0,1e-4", "--out", str(out_dir),
                   *TRAIN_FLAGS])
        assert rc == 0
        record = json.loads((out_dir / "comparison.json").read_text())
        per_c = record["models"]["real_nn"]["val_accuracy_per_c"]
        assert set(per_c) == {"0", "0.0001"}

    def test_reads_the_cache_once(self, tiny_cache, tmp_path, monkeypatch):
        loads = []
        real_load = data.load_cached

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(data, "load_cached", counting_load)
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache), "--models", "real_nn,kaf_independent",
                   "--seeds", "0,1", "--c-grid", "0,1e-4", "--out", str(out_dir),
                   *TRAIN_FLAGS])
        assert rc == 0
        assert loads == [str(tiny_cache)]
        run_dirs = sorted((out_dir / "runs").glob("*/*"))
        assert len(run_dirs) == 6
        for run_dir in run_dirs:
            assert f"cache = {tiny_cache}" in (run_dir / "config.txt").read_text().splitlines()

    def test_unreadable_cache_is_data_error(self, tmp_path):
        bogus = tmp_path / "bogus.cvkc"
        bogus.write_bytes(b"not a cache")
        rc = main(["compare", "--cache", str(bogus), "--models", "real_nn",
                   "--seeds", "0", "--c-grid", "0", "--out", str(tmp_path / "cmp")])
        assert rc == 3


    def test_absurd_regularization_loses_to_zero(self, tiny_cache, tmp_path):
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache), "--models", "wlkaf_case1",
                   "--seeds", "0", "--c-grid", "1e6,0", "--out", str(out_dir),
                   *TRAIN_FLAGS])
        assert rc == 0
        record = json.loads((out_dir / "comparison.json").read_text())
        assert record["models"]["wlkaf_case1"]["best_c"] == 0.0

    @pytest.mark.parametrize("flag, value", [("--c-grid", ""), ("--seeds", ""),
                                             ("--c-grid", "0,-1e-4"),
                                             ("--models", "real_nn,wlkaf_cas1"),
                                             ("--models", "real_nn,"), ("--models", ""),
                                             ("--models", "real_nn,real_nn"),
                                             ("--seeds", "0,0"), ("--c-grid", "0,1e-4,0.0")])
    def test_unusable_list_is_parameter_error(self, flag, value, tiny_cache, tmp_path):
        argv = ["compare", "--cache", str(tiny_cache), "--models", "real_nn",
                "--seeds", "0", "--c-grid", "0", "--out", str(tmp_path / "cmp"),
                *TRAIN_FLAGS]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert not (tmp_path / "cmp").exists()  # rejected before any run


CASE2 = "wlkaf_case2:0.7:0.2"

# names that are not the canonical spelling or out of range, with what the
# error must name
UNUSABLE_NAMES = [
    ("wlkaf_case2:0.3", "write 'wlkaf_case2'"),
    ("wlkaf_case2:0.70", "write 'wlkaf_case2:0.7'"),
    ("kaf_independent:0.5", "wlkaf_case2:w1:w2... with each mixing weight in (0, 1)"),
    ("wlkaf_case2:1.5", "each in (0, 1), got (1.5,)"),
]


class TestCase2ByName:
    """Case 2 at other mixing weights through every command, by name alone."""

    def test_train_then_evaluate(self, tiny_cache, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--cache", str(tiny_cache), "--model", CASE2, "--seed", "1",
                     "--out", str(run_dir), *TRAIN_FLAGS]) == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["model"] == CASE2
        assert f"model = {CASE2}" in (run_dir / "config.txt").read_text().splitlines()
        model = load_model(run_dir / "model.cvkm")
        assert model.config.activation == CASE2
        assert model.activation.omegas == (0.7, 0.2)
        assert model.parameters()["layer0.log_gamma"].shape == (8, 2)  # Q = 2
        capsys.readouterr()
        assert main(["evaluate", "--model-file", str(run_dir / "model.cvkm"),
                     "--cache", str(tiny_cache)]) == 0
        assert f"test accuracy: {summary['test_accuracy']:.6f}" in capsys.readouterr().out

    def test_compare(self, tiny_cache, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--cache", str(tiny_cache), "--models", f"real_nn,{CASE2}",
                     "--seeds", "0", "--c-grid", "0", "--out", str(out_dir),
                     *TRAIN_FLAGS]) == 0
        record = json.loads((out_dir / "comparison.json").read_text())
        assert list(record["models"]) == ["real_nn", CASE2]
        assert "error" not in record["models"][CASE2]
        assert CASE2 in capsys.readouterr().out
        model = load_model(out_dir / "runs" / CASE2 / "seed0_C0" / "model.cvkm")
        assert model.activation.omegas == (0.7, 0.2)

    def test_gradcheck(self, capsys):
        assert main(["gradcheck", "--model", CASE2, "--seeds", "1"]) == 0
        assert f"[PASS] {CASE2}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "compare", "gradcheck"])
    @pytest.mark.parametrize("name, message", UNUSABLE_NAMES)
    def test_other_spellings_exit_2_before_any_run(self, command, name, message, tiny_cache,
                                                   tmp_path, capsys):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--model", name, "--cache", str(tiny_cache), "--out", str(out),
                      *TRAIN_FLAGS],
            "compare": ["compare", "--models", f"real_nn,{name}", "--seeds", "0",
                        "--c-grid", "0", "--cache", str(tiny_cache), "--out", str(out),
                        *TRAIN_FLAGS],
            "gradcheck": ["gradcheck", "--model", name, "--seeds", "1"],
        }[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_quickly_on_one_variant(self, capsys):
        rc = main(["gradcheck", "--model", "split_tanh", "--seeds", "2"])
        assert rc == 0
        assert "[PASS] split_tanh" in capsys.readouterr().out

    def test_report_lists_every_parameter_group(self, capsys):
        rc = main(["gradcheck", "--model", "wlkaf_case1", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for group in ("W", "b", "alpha", "log_gamma_rr", "log_gamma_ii"):
            assert f"    {group} " in out, group

    @staticmethod
    def _scale_case1_alpha_gradient(monkeypatch, factor):
        from cvkaf.activations import WlKafCase1Activation

        true_backward = WlKafCase1Activation.backward

        def corrupted(self, g_out, cache, params, dictionary):
            gz, grads = true_backward(self, g_out, cache, params, dictionary)
            grads["alpha"] = grads["alpha"] * factor
            return gz, grads

        monkeypatch.setattr(WlKafCase1Activation, "backward", corrupted)

    def test_corrupted_backward_fails_loudly(self, capsys, monkeypatch):
        self._scale_case1_alpha_gradient(monkeypatch, 1.01)
        rc = main(["gradcheck", "--model", "wlkaf_case1", "--seeds", "1"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "[FAIL] wlkaf_case1" in out and "alpha" in out

    def test_non_finite_gradient_fails_loudly(self, capsys, monkeypatch):
        self._scale_case1_alpha_gradient(monkeypatch, np.nan)
        rc = main(["gradcheck", "--model", "wlkaf_case1", "--seeds", "2"])
        assert rc == 4
        captured = capsys.readouterr()
        assert "[FAIL] wlkaf_case1          worst=inf over 2 seeds" in captured.out
        assert "    alpha              inf  <-- exceeds tolerance" in captured.out
        assert "gradient check failed for wlkaf_case1 (alpha: inf)" in captured.err

    def test_all_checks_exactly_the_registry(self, capsys):
        assert main(["gradcheck", "--model", "all", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^\[PASS\] (\S+)", out, re.M) == [
            "split_tanh", "phase_amplitude", "kaf_independent", "kaf_real_gaussian",
            "wlkaf_case1", "wlkaf_case2",
        ]
        assert "all 6 variants within" in out

    def test_unknown_variant(self, capsys):
        assert main(["gradcheck", "--model", "bogus"]) == 2
        assert "unknown activation variant 'bogus'" in capsys.readouterr().err

    def test_zero_seeds_is_parameter_error(self):
        assert main(["gradcheck", "--model", "split_tanh", "--seeds", "0"]) == 2

    def test_unreadable_seed_count_is_parameter_error(self, capsys):
        assert main(["gradcheck", "--model", "split_tanh", "--seeds", "abc"]) == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and "'abc'" in err

    def test_tolerance_is_applied_to_each_group(self, capsys):
        assert main(["gradcheck", "--model", "wlkaf_case1", "--seeds", "1",
                     "--tolerance", "5e-8"]) == 4
        captured = capsys.readouterr()
        marked = re.findall(r"^    (\S+) +\S+  <-- exceeds tolerance$", captured.out, re.M)
        listed = re.findall(r"^    (\S+) +(\S+)", captured.out, re.M)
        assert marked == [group for group, err in listed if float(err) > 5e-8] != []
        assert captured.out.startswith("[FAIL] wlkaf_case1 ")
        assert f"gradient check failed for wlkaf_case1 ({', '.join(marked)}: " in captured.err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "abc", ""])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tolerance_must_be_finite_and_positive(self, value, source, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "gradcheck_variant",
                            lambda *a: pytest.fail("the check ran"))
        argv = ["gradcheck", "--model", "split_tanh", "--seeds", "1"]
        if source == "flag":
            argv.append(f"--tolerance={value}")
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"tolerance = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --tolerance: expected a finite positive number, got " in err
        assert repr(value) in err
        assert (f"config file {tmp_path / 'exp.cfg'}: " in err) == (source == "config")


class TestCurves:
    def _train_trace(self, tiny_cache, tmp_path, seed, name):
        run_dir = tmp_path / name
        main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1",
              "--seed", str(seed), "--out", str(run_dir), *TRAIN_FLAGS])
        return run_dir / "trace.csv"

    def test_single_trace_mean_equals_trace(self, tiny_cache, tmp_path, capsys):
        trace_path = self._train_trace(tiny_cache, tmp_path, 0, "a")
        out = tmp_path / "curves.csv"
        rc = main(["curves", f"wl={trace_path}", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,wl_mean_loss,wl_std_loss"
        trace = read_trace_csv(trace_path)
        for line, rec in zip(lines[1:], trace.records):
            it, mean, std = line.split(",")
            assert int(it) == rec.iteration
            assert float(mean) == rec.train_loss
            assert float(std) == 0.0

    def test_duplicate_traces_zero_std(self, tiny_cache, tmp_path):
        trace_path = self._train_trace(tiny_cache, tmp_path, 1, "b")
        out = tmp_path / "curves.csv"
        rc = main(["curves", f"m={trace_path}", f"m={trace_path}", "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_inconsistent_eval_interval_is_alignment_error(
        self, tiny_cache, tmp_path
    ):
        a = self._train_trace(tiny_cache, tmp_path, 0, "c")
        run_dir = tmp_path / "d"
        main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1",
              "--seed", "0", "--out", str(run_dir), "--hidden", "8",
              "--dict-points", "3", "--batch-size", "10", "--eval-every", "30",
              "--patience", "60", "--max-iterations", "60"])
        rc = main(["curves", f"m={a}", f"m={run_dir / 'trace.csv'}",
                   "--out", str(tmp_path / "curves.csv")])
        assert rc == 3

    def test_labels_from_summary(self, tiny_cache, tmp_path):
        trace_path = self._train_trace(tiny_cache, tmp_path, 2, "e")
        out = tmp_path / "curves.csv"
        rc = main(["curves", str(trace_path), "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == \
            "iteration,wlkaf_case1_mean_loss,wlkaf_case1_std_loss"

    @pytest.mark.parametrize("summary", [b"[]", b"{\"model\"", b"\xff"],
                             ids=["not_an_object", "not_json", "not_utf8"])
    def test_unusable_summary_falls_back_to_the_directory_name(self, summary, tmp_path):
        run_dir = tmp_path / "run7"
        run_dir.mkdir()
        (run_dir / "trace.csv").write_text(f"{TRACE_HEADER}\n50,0.5,0.9,0.1\n")
        (run_dir / "summary.json").write_bytes(summary)
        out = tmp_path / "curves.csv"
        assert main(["curves", str(run_dir / "trace.csv"), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "iteration,run7_mean_loss,run7_std_loss"

    @pytest.mark.parametrize("text, line", [
        (None, ""),
        (f"{TRACE_HEADER}\n50,0.5,0.9\n", ":2:"),
        (f"{TRACE_HEADER}\n50,0.5,0.9,0.1\n100,x,0.8,0.2\n", ":3:"),
        ("iteration,loss\n50,0.5\n", ":1:"),
    ], ids=["missing_file", "short_row", "non_numeric", "wrong_header"])
    def test_unusable_trace_is_data_error(self, text, line, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "curves.csv"
        assert main(["curves", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{path}{line}" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train", "compare", "curves"])
def test_output_under_a_regular_file_is_data_error(command, idx_dir, tiny_cache, tmp_path,
                                                   capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    out = plain / "out"
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{TRACE_HEADER}\n50,0.5,0.9,0.1\n")
    argv = {
        "preprocess": ["--dataset", "latin_ocr", "--data-dir", str(idx_dir), "--k-coeffs", "4"],
        "train": ["--cache", str(tiny_cache), "--model", "real_nn", *TRAIN_FLAGS],
        "compare": ["--cache", str(tiny_cache), "--models", "real_nn", "--seeds", "0",
                    "--c-grid", "0", *TRAIN_FLAGS],
        "curves": [str(trace)],
    }[command]
    assert main([command, *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "dataset = digits\n"
            "k-coeffs = 9\n"
            "seed = 5\n"
            f"out = {tmp_path / 'from_config.cvkc'}\n"
        )
        rc = main(["preprocess", "--config", str(cfg), "--k-coeffs", "7"])
        assert rc == 0
        assert (tmp_path / "from_config.cvkc").exists()
        assert "features: 7 complex" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_training_flags_come_from_the_config_and_flags_win(self, command, tiny_cache,
                                                               tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lr = 0.02\nbatch-size = 10\npatience = 40\neval-every = 20\n"
                       "max-iterations = 60\ndict-points = 3\ndict-range = -1.5..1.5\n"
                       "hidden = 8\n")
        out = tmp_path / "out"
        common = ["--config", str(cfg), "--cache", str(tiny_cache), "--out", str(out),
                  "--max-iterations", "40"]
        if command == "train":
            argv = ["train", "--model", "wlkaf_case1", *common]
        else:
            argv = ["compare", "--models", "wlkaf_case1", "--seeds", "0", "--c-grid", "0",
                    *common]
        assert main(argv) == 0
        run_dir = out if command == "train" else out / "runs" / "wlkaf_case1" / "seed0_C0"
        snapshot = (run_dir / "config.txt").read_text().splitlines()
        for line in ("lr = 0.02", "batch_size = 10", "patience = 40", "eval_every = 20",
                     "max_iterations = 40", "dict_points = 3", "dict_range = -1.5..1.5",
                     "hidden = 8"):
            assert line in snapshot, line

    @pytest.mark.parametrize("first, second", [("seeds = 0,1", "seeds = 2"),
                                               ("batch-size = 10", "batch_size = 20")])
    def test_a_key_given_twice_is_parameter_error(self, first, second, tiny_cache, tmp_path,
                                                  capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# experiment\n{first}\nlr = 0.02\n{second}\n")
        out = tmp_path / "cmp"
        argv = ["compare", "--config", str(cfg), "--cache", str(tiny_cache), "--models",
                "real_nn", "--out", str(out), *TRAIN_FLAGS]
        assert main(argv) == 2
        key = first.split(" ")[0].replace("-", "_")
        assert f"{cfg}: lines 2 and 4 both give '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_value_is_parameter_error(self, tiny_cache, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("batch_size = x\n")
        argv = ["train", "--config", str(cfg), "--cache", str(tiny_cache),
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--batch-size" in err and "'x'" in err

    @pytest.mark.parametrize("command, line", [("train", "lr = nan"), ("train", "c = inf"),
                                               ("compare", "lr = inf"),
                                               ("compare", "c-grid = 0,nan")])
    def test_non_finite_config_value_is_parameter_error(self, command, line, tiny_cache,
                                                        tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--cache", str(tiny_cache), "--out", str(out)]
        if command == "compare":
            argv += ["--models", "real_nn", "--seeds", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        flag = "--" + line.split(" ")[0]
        assert f"config file {cfg}: " in err and f"argument {flag}: expected a finite" in err
        assert not out.exists()

    def test_bad_config_value_names_the_file(self, tiny_cache, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("batch_size = x\n")
        argv = ["train", "--config", str(cfg), "--cache", str(tiny_cache),
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert f"parameter error: config file {cfg}: " in capsys.readouterr().err

    def test_missing_config_file_is_parameter_error(self, tiny_cache, tmp_path, capsys):
        cfg = tmp_path / "nonexistent.cfg"
        assert main(["train", "--config", str(cfg), "--cache", str(tiny_cache)]) == 2
        assert f"cannot read config file {cfg}" in capsys.readouterr().err

    def test_non_utf8_config_file_is_parameter_error(self, tiny_cache, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("lr = 0.01 # été\n".encode("latin-1"))
        assert main(["train", "--config", str(cfg), "--cache", str(tiny_cache)]) == 2
        assert f"cannot read config file {cfg}" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(["preprocess", "--config", str(cfg)]) == 2
        assert (f"parameter error: config file {cfg}: unknown config keys: ['no_such_key']"
                in capsys.readouterr().err)

    def test_preprocess_config_supplies_defaults_and_flags_win(self, idx_dir, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = latin_ocr\n"
            f"data-dir = {idx_dir}\n"
            "k-coeffs = 9\n"
            "split = 0.5,0.25,0.25\n"
            "seed = 5\n"
            f"out = {tmp_path / 'from_config.cvkc'}\n"
        )
        assert main(["preprocess", "--config", str(cfg), "--k-coeffs", "7"]) == 0
        out = capsys.readouterr().out
        assert "features: 7 complex" in out and "train=20 val=10 test=10" in out
        ds = load_cached(tmp_path / "from_config.cvkc")
        assert ds.seed == 5 and ds.feature_dim == 7

    def test_data_dir_precedence_is_flag_then_config_then_environment(
        self, idx_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CVKAF_DATA_DIR", str(idx_dir))
        argv = ["preprocess", "--dataset", "latin_ocr", "--k-coeffs", "4",
                "--out", str(tmp_path / "x.cvkc")]
        assert main(argv) == 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'empty'}\n")
        assert main([*argv, "--config", str(cfg)]) == 3
        assert main([*argv, "--config", str(cfg), "--data-dir", str(idx_dir)]) == 0

    @pytest.mark.parametrize("key, value, message", [
        ("dict-range", "abc", "expected a range like -2..2, got 'abc'"),
        ("seeds", "0,x", "expected comma-separated integers, got '0,x'"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unreadable_list_keeps_its_message(self, key, value, message, source,
                                               tiny_cache, tmp_path, capsys):
        argv = ["compare", "--cache", str(tiny_cache), "--out", str(tmp_path / "cmp")]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--{key}" in err and message in err

    def test_config_defaults_end_with_the_call(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("batch-size = 10\nhidden = 8\n")
        assert main(["train", "--config", str(cfg), "--cache", str(tmp_path / "none")]) == 3
        assert printed_defaults("train", capsys)["--batch-size"] == str(TrainConfig.batch_size)


@pytest.fixture
def idx_dir(tmp_path):
    """A data directory holding a synthetic ``latin_ocr`` IDX pair of 40 images."""
    raw = synthetic_raw(n=40)
    (tmp_path / "idx" / "latin_ocr").mkdir(parents=True)
    write_idx_images(tmp_path / "idx" / "latin_ocr" / "train-images-idx3-ubyte", raw.images)
    write_idx_labels(tmp_path / "idx" / "latin_ocr" / "train-labels-idx1-ubyte", raw.labels)
    return tmp_path / "idx"


def printed_defaults(command: str, capsys) -> dict[str, str]:
    """Each option's default as ``cvkaf <command> --help`` prints it."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    return dict(re.findall(r"(--[\w-]+) [A-Z_]+ (?:(?!--)[^(])*\(default: ([^)]*)\)", text))


TRAINING_DEFAULTS = {
    "--lr": str(TrainConfig.lr),
    "--batch-size": str(TrainConfig.batch_size),
    "--patience": str(TrainConfig.patience),
    "--eval-every": str(TrainConfig.eval_every),
    "--max-iterations": str(TrainConfig.max_iterations),
    "--dict-points": "8",
    "--dict-range": "-2.0..2.0",
    "--hidden": ",".join(str(w) for w in NetworkConfig.hidden_widths),
}


class TestParser:
    def test_help_prints_every_default(self, capsys, monkeypatch):
        monkeypatch.delenv("CVKAF_DATA_DIR", raising=False)
        assert printed_defaults("preprocess", capsys) == {
            "--dataset": "mnist", "--k-coeffs": "100", "--seed": "0", "--data-dir": "data",
            "--split": "0.8,0.1,0.1",
        }
        assert printed_defaults("train", capsys) == {
            "--model": "wlkaf_case1", "--seed": "0", "--c": "0.0", **TRAINING_DEFAULTS,
        }
        assert printed_defaults("compare", capsys) == {
            "--models": "real_nn,kaf_independent,kaf_real_gaussian,wlkaf_case1,wlkaf_case2",
            "--seeds": "0,1,2,3,4", "--c-grid": "0,1e-5,1e-4,1e-3", "--out": "comparison",
            **TRAINING_DEFAULTS,
        }
        assert printed_defaults("gradcheck", capsys) == {
            "--model": "all", "--seeds": "20", "--tolerance": "1e-05",
        }

    def test_help_lists_every_accepted_name(self, capsys):
        def listed(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            return re.search(r"--(?:model|dataset) [A-Z]+ (.*?) \(default", text)[1].split(" | ")

        models = ["real_nn", "split_tanh", "phase_amplitude", "kaf_real_gaussian",
                  "kaf_independent", "wlkaf_case1", "wlkaf_case2"]
        case2 = "wlkaf_case2:w1:w2..., case 2 at mixing weights strictly between 0 and 1"
        assert sorted(listed("train")) == sorted([*models, case2])
        for name in [*models, "wlkaf_case2:0.7:0.2"]:  # each one builds
            build_model(name, 2, 2, seed=0, hidden_widths=(2,), dictionary=build_dictionary(2))
        assert sorted(listed("gradcheck")) == sorted(["all", *models[1:], case2])
        assert sorted(listed("preprocess")) == sorted([*data.DATASET_FILES, "digits"])

    def test_compare_sweeps_the_baseline_and_every_kernel_family_layer(self):
        kernel_family = [name for name, layer in ACTIVATION_VARIANTS.items()
                         if isinstance(layer, _KafBase)]
        assert build_parser().parse_args(["compare"]).models == ("real_nn", *kernel_family)

    def test_training_defaults_are_the_papers_protocol(self):
        assert TRAINING_DEFAULTS == {
            "--lr": "0.01", "--batch-size": "40", "--patience": "1000", "--eval-every": "50",
            "--max-iterations": "20000", "--dict-points": "8", "--dict-range": "-2.0..2.0",
            "--hidden": "100,100,100",
        }

    @pytest.mark.parametrize("argv", [["train", "--no-such-flag"], ["frobnicate"], []])
    def test_usage_error_is_parameter_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("parameter error: cvkaf")
