"""CLI surface: subcommands, exit codes, config files, artifact layout."""

import json
import multiprocessing
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvkaf import cli, data, optim
from cvkaf.activations import ACTIVATION_VARIANTS, _KafBase
from cvkaf.cli import build_parser, main
from cvkaf.container import read_container, write_container
from cvkaf.data import build_complex_dataset, cache_dataset, load_cached
from cvkaf.errors import DataFormatError, NumericError, ParameterError, StateError
from cvkaf.gradcheck import ALL_MODELS
from cvkaf.kernels import build_dictionary
from cvkaf.network import (
    _MODEL_MAGIC,
    _MODEL_VERSION,
    ComplexNetwork,
    NetworkConfig,
    TrainObjective,
    bandwidth_split,
    build_model,
    effective_parameter_count,
    load_model,
    outside_grid_share,
    parameter_count,
    save_model,
)
from cvkaf.optim import TrainConfig, evaluate, read_trace_csv

from test_data import synthetic_raw, write_idx_images, write_idx_labels


def drop_elapsed(csv_text: str) -> str:
    """Strip the wall-clock column (the designated timestamp carve-out)."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


@pytest.fixture
def tiny_cache(tmp_path):
    ds = build_complex_dataset(synthetic_raw(n=120, classes=3), k=6,
                               split_counts=(72, 24, 24), seed=0)
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

# how every --model help text and unknown-model message spells case 2 at other weights
CASE2_FORM = "wlkaf_case2:w1:w2..., case 2 at mixing weights strictly between 0 and 1"


def unknown_model_message(name, *extra):
    """The message of an unknown model ``name``: ``extra`` names, then every name
    ``train`` takes, as the option's help lists them."""
    return f"unknown model {name!r}; choose from {' | '.join((*extra, *ALL_MODELS, CASE2_FORM))}"


@pytest.fixture(scope="module")
def two_lr_compare(tmp_path_factory):
    """A finished glyph ``compare`` of two models over two C values and two lrs, given
    unsorted: ``real_nn`` wins at C 1e-3 and lr 0.3, ``wlkaf_case1`` at C 0 and lr 0.03."""
    tmp = tmp_path_factory.mktemp("two_lr")
    cache, out = tmp / "glyphs.cvkc", tmp / "cmp"
    assert main(["preprocess", "--dataset", "glyphs", "--k-coeffs", "8", "--out", str(cache)]) == 0
    assert main(["compare", "--cache", str(cache), "--out", str(out),
                 "--models", "real_nn,wlkaf_case1", "--seeds", "0,1", "--c-grid", "0,1e-3",
                 "--lr", "0.3,0.03", "--hidden", "8", "--dict-points", "4",
                 "--eval-every", "10", "--max-iterations", "30"]) == 0
    return out


class TestPreprocess:
    def test_glyphs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "glyphs.cvkc"
        rc = main(["preprocess", "--dataset", "glyphs", "--k-coeffs", "12",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "selected:" in captured and "1800 images" in captured

    def test_rerun_is_idempotent(self, tmp_path):
        out = tmp_path / "glyphs.cvkc"
        argv = ["preprocess", "--dataset", "glyphs", "--k-coeffs", "8",
                "--out", str(out), "--seed", "2"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("flag, value", [("--k-coeffs", "0"), ("--seed", "-1"),
                                             ("--split-counts", "0,1,2")])
    def test_unusable_setting_is_parameter_error(self, flag, value, tmp_path, capsys):
        """Refused before the data is read: the data directory holds no IDX files."""
        out = tmp_path / "x.cvkc"
        assert main(["preprocess", "--dataset", "mnist", "--data-dir", str(tmp_path), flag, value,
                     "--out", str(out)]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_is_data_error(self, tmp_path):
        rc = main(["preprocess", "--dataset", "mnist", "--data-dir", str(tmp_path),
                   "--out", str(tmp_path / "x.cvkc")])
        assert rc == 3

    @pytest.mark.parametrize("from_file", [False, True])
    def test_unknown_dataset_exits_2_before_any_file(self, from_file, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(data, "load_named_dataset",
                            lambda *args: pytest.fail("a dataset was read"))
        out, config = tmp_path / "bogus.cvkc", tmp_path / "c.txt"
        config.write_text("dataset = bogus\n")
        given = ["--config", str(config)] if from_file else ["--dataset", "bogus"]
        assert main(["preprocess", *given, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "argument --dataset: unknown dataset 'bogus'; choose from " \
            "mnist | fashion_mnist | emnist_digits | latin_ocr | glyphs" in err
        assert (f"config file {config}: " in err) == from_file
        assert not out.exists()


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
        model = load_model(run_dir / "model.cvkm")  # the kept checkpoint
        assert summary["parameter_count"] == parameter_count(model)
        assert summary["effective_parameter_count"] == effective_parameter_count(model)
        assert summary["bandwidth_split"] == bandwidth_split(model)
        assert len(summary["bandwidth_split"]) == len(model.config.hidden_widths)
        ds = load_cached(tiny_cache)
        assert summary["outside_grid_share"] == outside_grid_share(model, ds.val_xy()[0])
        assert len(summary["outside_grid_share"]) == len(model.config.hidden_widths)
        assert "test acc" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["train --model", "compare --models"])
    def test_unknown_model_lists_every_name_train_takes(self, option, tiny_cache, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        # a colon alone does not make a case 2 spelling, nor does a listed name before it
        for name in ("bogus", "bogus:1", "real_nn:1", "split_tanh:1", "kaf_independent:0.5",
                     "wlkaf_case2:"):
            argv = [*option.split(), name, "--cache", str(tiny_cache), "--out", str(out)]
            assert main([*argv, *TRAIN_FLAGS]) == 2
            err = " ".join(capsys.readouterr().err.split())
            assert unknown_model_message(name) in err and "real_nn | split_tanh" in err
            assert not out.exists()

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
        assert f"argument {flag}: {flag[2:]} must be a finite" in err
        assert f"got {float(value)!r}" in err
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

    @pytest.mark.parametrize("doctor, version", [
        (lambda meta, arrays: meta.pop("config"), 3),
        (lambda meta, arrays: meta["config"].pop("seed"), 3),
        (lambda meta, arrays: meta["config"].update(seed="abc"), 3),
        (lambda meta, arrays: meta["config"].update(seed=1.5), 3),
        (lambda meta, arrays: meta["config"].pop("dict_range"), 3),
        (lambda meta, arrays: meta["config"].update(input_dim=0), 3),
        (lambda meta, arrays: meta["config"].update(alpha_init="identity"), 3),
        (lambda meta, arrays: arrays.update({"layer0.alpha": arrays["layer0.alpha"][:, :-1]}), 3),
        (lambda meta, arrays: arrays.pop("layer0.b"), 3),
        (lambda meta, arrays: meta["config"].update(activation="no_such_variant"), 3),
        (lambda meta, arrays: meta["config"].update(activation="wlkaf_case2:0.70"), 3),
        (lambda meta, arrays: meta["config"].update(activation="wlkaf_case2:1.5"), 3),
        (lambda meta, arrays: meta["config"].update(activation=5), 3),
        (lambda meta, arrays: arrays.update({"layer0.W": (64 * arrays["layer0.W"].real)
                                             .astype(np.int8)}), 3),
        (lambda meta, arrays: arrays.update({"layer0.log_gamma_rr":
                                             arrays["layer0.log_gamma_rr"] + 0.5j}), 3),
        (lambda meta, arrays: None, 2),
        (lambda meta, arrays: None, 4),
    ], ids=["no_config", "no_seed", "seed_text", "seed_not_integer", "no_axis_range", "input_dim_0", "alpha_init_entry",
            "narrow_alpha", "missing_array", "unknown_activation", "unprinted_weight",
            "weight_above_1", "activation_not_text", "int8_weights", "complex_bandwidth",
            "version_2", "version_4"])
    def test_malformed_model_file_is_data_error(self, doctor, version, tiny_cache, tmp_path,
                                                capsys):
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                                     hidden_widths=(8,), dictionary=build_dictionary(3)))
        meta, arrays = read_container(path, _MODEL_MAGIC, _MODEL_VERSION)
        doctor(meta, arrays)
        write_container(path, _MODEL_MAGIC, version, meta, arrays)
        rc = main(["evaluate", "--model-file", str(path), "--cache", str(tiny_cache)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path} " + (
            "does not hold a usable model" if version == _MODEL_VERSION
            else f"has format version {version}, expected 3; rebuild the file"))
        assert "Traceback" not in err

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
        assert "argument --c-grid: c must be a finite non-negative number" in err
        assert f"got {float(bad)!r}" in err
        assert not out_dir.exists()

    def test_grid_search_records_each_c(self, tiny_cache, tmp_path):
        out_dir = tmp_path / "cmp"
        rc = main(["compare", "--cache", str(tiny_cache), "--models", "real_nn",
                   "--seeds", "0", "--c-grid", "0,1e-4", "--out", str(out_dir),
                   *TRAIN_FLAGS])
        assert rc == 0
        record = json.loads((out_dir / "comparison.json").read_text())
        per_cell = record["models"]["real_nn"]["val_accuracy_per_cell"]
        assert set(per_cell) == {"C0_lr0.01", "C0.0001_lr0.01"}

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
                                             ("--models", ""), ("--models", ","),
                                             ("--models", "real_nn,real_nn"),
                                             ("--seeds", "0,0"), ("--c-grid", "0,1e-4,0.0"),
                                             ("--c-grid", "1e-4,1.000001e-4"), ("--lr", ""),
                                             ("--lr", "0.01,0.0100000001"), ("--lr", "0.01,0"),
                                             ("--lr", "0.01,nan"), ("--lr", "0.01,abc")])
    def test_unusable_list_is_parameter_error(self, flag, value, tiny_cache, tmp_path):
        argv = ["compare", "--cache", str(tiny_cache), "--models", "real_nn",
                "--seeds", "0", "--c-grid", "0", "--lr", "0.01", "--out", str(tmp_path / "cmp"),
                *TRAIN_FLAGS]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert not (tmp_path / "cmp").exists()  # rejected before any run

    def test_a_list_drops_empty_entries(self):
        """``--models real_nn,`` reads as ``real_nn``, the way ``--seeds 0,`` reads as ``0``."""
        args = cli.parse_command(["compare", "--cache", "c.cvkc", "--models", "real_nn,",
                                  "--seeds", "0,", "--c-grid", ",0", "--lr", "0.01,,"])
        assert (args.models, args.seeds, args.cells) == (("real_nn",), (0,), [(0.0, 0.01)])

    def test_each_model_trains_at_its_own_best_cell(self, two_lr_compare):
        out = two_lr_compare
        settings = (out / "config.txt").read_text().splitlines()
        assert "c_grid = 0.0,0.001" in settings and "lr = 0.03,0.3" in settings
        models = json.loads((out / "comparison.json").read_text())["models"]
        assert [(models[m]["best_c"], models[m]["best_lr"]) for m in ("real_nn", "wlkaf_case1")] \
            == [(1e-3, 0.3), (0.0, 0.03)]
        for m, row in models.items():
            per_cell = row["val_accuracy_per_cell"]
            assert set(per_cell) == {"C0_lr0.03", "C0_lr0.3", "C0.001_lr0.03", "C0.001_lr0.3"}
            cell = f"C{row['best_c']:g}_lr{row['best_lr']:g}"
            assert per_cell[cell] == max(per_cell.values())
            # stage 2 trained seed 1 at that cell alone, and the row is its two runs there
            assert [p.name for p in (out / "runs" / m).glob("seed1_*")] == [f"seed1_{cell}"]
            runs = [out / "runs" / m / f"seed{seed}_{cell}" for seed in (0, 1)]
            summaries = [json.loads((run / "summary.json").read_text()) for run in runs]
            assert [(s["c"], s["lr"]) for s in summaries] == [(row["best_c"], row["best_lr"])] * 2
            assert row["test_accuracies"] == [s["test_accuracy"] for s in summaries]
            assert f"lr = {row['best_lr']}" in (runs[1] / "config.txt").read_text().splitlines()
        table = (out / "comparison.txt").read_text()
        assert re.search(r"^real_nn +[\d.]+ \+/- [\d.]+ +0\.001 +0\.3 +2$", table, re.M)
        assert re.search(r"^wlkaf_case1 +[\d.]+ \+/- [\d.]+ +0 +0\.03 +2$", table, re.M)


class TestBlasThreadDefault:
    """Importing ``cvkaf`` sets each BLAS thread variable the environment leaves
    unset to 1, so ``compare``'s processes do not each start a BLAS thread per CPU."""

    NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def run(self, code: str, **given) -> subprocess.CompletedProcess:
        """``code`` run by a fresh interpreter whose environment sets only ``given``
        of the three variables."""
        env = {k: v for k, v in os.environ.items() if k not in self.NAMES}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        return subprocess.run([sys.executable, "-c", code], env={**env, **given}, check=True,
                              capture_output=True, text=True, timeout=60)

    def seen(self, **given) -> str:
        """The three variables as a fresh interpreter sees them after ``import cvkaf``."""
        code = f"import cvkaf, os; print(*(os.environ.get(n) for n in {self.NAMES!r}))"
        return self.run(code, **given).stdout.strip()

    def test_unset_variables_become_one(self):
        assert self.seen() == "1 1 1"

    def test_an_explicit_setting_wins(self):
        assert self.seen(OPENBLAS_NUM_THREADS="2") == "2 1 1"

    @pytest.mark.parametrize("code, given, warns", [
        ("import numpy, cvkaf", {}, True),
        ("import cvkaf, numpy", {}, False),
        ("import numpy, cvkaf", {"OPENBLAS_NUM_THREADS": "1"}, False),
    ])
    def test_importing_numpy_first_warns_unless_a_variable_is_set(self, code, given, warns):
        """numpy loads its BLAS library when imported, so an import of ``cvkaf``
        after it cannot pin the thread count any more, and says so."""
        err = self.run(code, **given).stderr
        assert ("RuntimeWarning" in err and all(n in err for n in self.NAMES)) is warns
        assert (err == "") is not warns


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
class TestMallocPolicy:
    """Importing ``cvkaf`` fixes glibc's mmap and trim thresholds, so a fresh process
    reuses each KAF temporary from the heap from the second call on instead of
    mapping and faulting it in again (about 10,900 and 1,700 faults without)."""

    CODE = """
import resource
import cvkaf
import numpy as np
from cvkaf.network import TrainObjective, build_model
from cvkaf.optim import Adagrad

model = build_model("wlkaf_case1", 100, 10, seed=0)  # width 100, 8x8 grid
rng = np.random.default_rng(0)
x = rng.standard_normal((1024, 100)) + 1j * rng.standard_normal((1024, 100))
labels = rng.integers(0, 10, 1024)
opt, objective = Adagrad(model.parameters(), 0.01), TrainObjective("cross_entropy", 1e-4)

def step():
    _, grads = model.loss_and_grads(x[:40], labels[:40], objective)
    opt.step(model.parameters(), grads)

def faults_of_second_call(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults_of_second_call(lambda: model.predict(x)), faults_of_second_call(step))
"""

    def test_a_second_predict_and_training_step_fault_no_pages_in(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", self.CODE], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        predict, step = map(int, run.stdout.split())
        assert predict < 100 and step < 100, (predict, step)


class TestCompareHelpers:
    """``compare`` deals each stage's runs over ``cli.usable_cpus()`` processes, run i
    to process i mod n with this process as process 0, and writes the same bytes
    whatever n is."""

    GRID = ["--models", "real_nn,wlkaf_case1", "--seeds", "0,1", "--c-grid", "0,1e-4"]

    @pytest.fixture
    def ran_in(self, tmp_path, monkeypatch):
        """Record the process each run trains in; the call returns and clears the record,
        {(model, seed, C): pid}."""
        log = tmp_path / "ran"
        log.mkdir()
        train_one = cli._train_one

        def recording(ds, model_name, seed, c, *rest):
            (log / f"{model_name} {seed} {c:g} {os.getpid()}").touch()
            return train_one(ds, model_name, seed, c, *rest)

        def record():
            ran = {}
            for path in log.iterdir():
                model_name, seed, c, pid = path.name.split(" ")
                ran[model_name, int(seed), c] = int(pid)
                path.unlink()
            return ran

        monkeypatch.setattr(cli, "_train_one", recording)
        return record

    @staticmethod
    def compare(monkeypatch, cpus, tiny_cache, out_dir, *flags):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        rc = main(["compare", "--cache", str(tiny_cache), "--out", str(out_dir), *flags,
                   *TRAIN_FLAGS])
        assert multiprocessing.active_children() == []
        return rc

    @staticmethod
    def outputs(out_dir) -> dict:
        """Every file under ``out_dir`` but the run logs, traces without wall time."""
        files = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "run.log":
                content = path.read_bytes()
                if path.name == "trace.csv":
                    content = drop_elapsed(content.decode())
                files[str(path.relative_to(out_dir))] = content
        return files

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_helpers_change_no_byte_and_keep_the_deal(self, cpus, ran_in, tiny_cache,
                                                        tmp_path, monkeypatch):
        assert self.compare(monkeypatch, 1, tiny_cache, tmp_path / "one", *self.GRID) == 0
        serial = ran_in()
        assert self.compare(monkeypatch, cpus, tiny_cache, tmp_path / "many", *self.GRID) == 0
        dealt = ran_in()
        one, many = self.outputs(tmp_path / "one"), self.outputs(tmp_path / "many")
        assert len(one) == 4 + 6 * 4  # config.txt, the three reports, four files per run
        assert one == many
        assert set(serial.values()) == {os.getpid()}
        # stage 1 is the C grid on seed 0, stage 2 the other seed at each best C
        record = json.loads((tmp_path / "many" / "comparison.json").read_text())["models"]
        stages = [[(m, 0, c) for m in ("real_nn", "wlkaf_case1") for c in ("0", "0.0001")],
                  [(m, 1, f"{record[m]['best_c']:g}") for m in ("real_nn", "wlkaf_case1")]]
        assert set(dealt) == set(serial) == {run for stage in stages for run in stage}
        for stage in stages:
            n = min(cpus, len(stage))
            pids = [dealt[run] for run in stage]
            assert pids[0::n] == [os.getpid()] * len(pids[0::n])
            helpers = [set(pids[k::n]) for k in range(1, n)]
            assert all(len(h) == 1 for h in helpers) and len(set.union(*helpers)) == n - 1
            assert os.getpid() not in set.union(*helpers)

    def test_a_model_records_its_first_failure_in_both_modes(self, tiny_cache, tmp_path,
                                                             monkeypatch):
        # with two processes, stage 1's runs alternate parent, helper; wlkaf_case1's
        # first failure (run 3) is the helper's and its second (run 4) the parent's,
        # and in stage 2 real_nn's seed 1 run is the parent's, its seed 2 run the helper's
        train_one = cli._train_one

        def failing(ds, model_name, seed, c, *rest):
            if (model_name == "wlkaf_case1" and c < 1e-3) or (model_name == "real_nn"
                                                              and seed > 0):
                raise NumericError(f"{model_name} seed {seed} C {c:g}")
            return train_one(ds, model_name, seed, c, *rest)

        monkeypatch.setattr(cli, "_train_one", failing)
        grid = ["--models", "real_nn,wlkaf_case1", "--seeds", "0,1,2",
                "--c-grid", "0,1e-4,1e-3"]
        records = []
        for cpus, name in ((1, "one"), (2, "many")):
            assert self.compare(monkeypatch, cpus, tiny_cache, tmp_path / name, *grid) == 0
            records.append((tmp_path / name / "comparison.json").read_bytes())
        assert records[0] == records[1]
        models = json.loads(records[0])["models"]
        assert models["wlkaf_case1"] == {"error": "NumericError: wlkaf_case1 seed 0 C 0"}
        assert models["real_nn"]["error"].startswith("NumericError: real_nn seed 1 C ")

    @pytest.mark.parametrize("where", ["parent", "helper"])
    def test_an_error_that_stops_compare_leaves_no_process(self, where, tiny_cache, tmp_path,
                                                           capsys, monkeypatch):
        train_one = cli._train_one
        failing_c = 0.0 if where == "parent" else 1e-4  # run 0 or run 1 of stage 1

        def unwritable(ds, model_name, seed, c, *rest):
            if c == failing_c:
                raise OSError(f"cannot write the {where}'s run")
            return train_one(ds, model_name, seed, c, *rest)

        monkeypatch.setattr(cli, "_train_one", unwritable)
        assert self.compare(monkeypatch, 2, tiny_cache, tmp_path / "cmp", *self.GRID) == 3
        assert f"data error: cannot write the {where}'s run" in capsys.readouterr().err
        assert not (tmp_path / "cmp" / "comparison.json").exists()

    @pytest.mark.parametrize("fault, error, message", [
        ("ctrl_c_in_parent", KeyboardInterrupt, None),
        ("helper_dies", RuntimeError,
         "compare helper 1 of 1 ended with exit code 7 before reporting"),
    ])
    def test_a_stage_cut_short_leaves_no_process(self, fault, error, message, tiny_cache,
                                                 tmp_path, monkeypatch):
        parent, train_one = os.getpid(), cli._train_one

        def cut_short(ds, *rest):
            if fault == "ctrl_c_in_parent" and os.getpid() == parent:
                raise KeyboardInterrupt
            if fault == "helper_dies" and os.getpid() != parent:
                os._exit(7)
            return train_one(ds, *rest)

        monkeypatch.setattr(cli, "_train_one", cut_short)
        with pytest.raises(error, match=message):
            self.compare(monkeypatch, 2, tiny_cache, tmp_path / "cmp", *self.GRID)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("grid, methods", [
        (["--models", "real_nn", "--seeds", "0", "--c-grid", "0"], ["fork", "spawn"]),
        (GRID, ["spawn", "forkserver"]),
    ], ids=["one_run", "no_fork"])
    def test_no_helper_starts(self, grid, methods, ran_in, tiny_cache, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda process: pytest.fail("a helper started"))
        assert self.compare(monkeypatch, 4, tiny_cache, tmp_path / "cmp", *grid) == 0
        assert set(ran_in().values()) == {os.getpid()}


class TestEvaluateHelpers:
    """``evaluate`` deals a split's row chunks over ``cli.usable_cpus()`` processes, chunk i
    to process i mod n with this process as process 0, and prints the same bytes whatever
    n is. With 5-row chunks, tiny_cache's 24-row test split has 5 chunks."""

    @pytest.fixture
    def model_file(self, tiny_cache, tmp_path, monkeypatch):
        monkeypatch.setattr(optim, "_EVAL_CHUNK", 5)
        ds = load_cached(tiny_cache)
        path = tmp_path / "model.cvkm"
        save_model(path, build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                                     hidden_widths=(8,), dictionary=build_dictionary(3)))
        return path

    @pytest.fixture
    def ran_in(self, tiny_cache, tmp_path, monkeypatch):
        """Record the process each chunk of the test split predicts in, and raise
        ``fault(chunk)`` if it is not None; the call returns and clears the record,
        {chunk: pid}."""
        log = tmp_path / "ran"
        log.mkdir()
        rows = load_cached(tiny_cache).test_xy()[0]
        predict = ComplexNetwork.predict
        self.fault = lambda chunk: None

        def recording(model, x):
            chunk = next(i for i, row in enumerate(rows) if np.array_equal(row, x[0])) // 5
            (log / f"{chunk} {os.getpid()}").touch()
            error = self.fault(chunk)
            if error is not None:
                raise error
            return predict(model, x)

        def record():
            ran = {}
            for path in log.iterdir():
                chunk, pid = map(int, path.name.split(" "))
                ran[chunk] = pid
                path.unlink()
            return ran

        monkeypatch.setattr(ComplexNetwork, "predict", recording)
        return record

    @staticmethod
    def evaluate(monkeypatch, cpus, model_file, tiny_cache, capsys):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        rc = main(["evaluate", "--model-file", str(model_file), "--cache", str(tiny_cache),
                   "--split", "test"])
        assert multiprocessing.active_children() == []
        return (rc, *capsys.readouterr())

    def test_helpers_change_no_byte_and_keep_the_deal(self, model_file, ran_in, tiny_cache,
                                                       capsys, monkeypatch):
        x, y = load_cached(tiny_cache).test_xy()
        hits = round(evaluate(load_model(model_file), x, y) * 24)
        printed = {}
        for cpus in (1, 2, 3):
            printed[cpus] = self.evaluate(monkeypatch, cpus, model_file, tiny_cache, capsys)
            pids = [pid for _, pid in sorted(ran_in().items())]
            assert len(pids) == 5
            n = min(cpus, 5)
            assert pids[0::n] == [os.getpid()] * len(pids[0::n])
            helpers = [set(pids[k::n]) for k in range(1, n)]
            assert all(len(h) == 1 for h in helpers)
            assert len(set().union(*helpers) - {os.getpid()}) == n - 1
        assert printed[1] == (0, f"test accuracy: {hits / 24:.6f} ({hits}/24)\n", "")
        assert printed[2] == printed[3] == printed[1]

    @pytest.mark.parametrize("chunk_rows, methods", [(24, ["fork", "spawn"]),
                                                     (5, ["spawn", "forkserver"])],
                             ids=["one_chunk", "no_fork"])
    def test_no_helper_starts(self, chunk_rows, methods, model_file, ran_in, tiny_cache, capsys,
                              monkeypatch):
        monkeypatch.setattr(optim, "_EVAL_CHUNK", chunk_rows)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda process: pytest.fail("a helper started"))
        assert self.evaluate(monkeypatch, 4, model_file, tiny_cache, capsys)[0] == 0
        assert set(ran_in().values()) == {os.getpid()}

    def test_an_error_in_a_helper_is_the_serial_runs_error(self, model_file, ran_in, tiny_cache,
                                                           capsys, monkeypatch):
        self.fault = lambda chunk: NumericError("chunk 1 went wrong") if chunk == 1 else None
        serial = self.evaluate(monkeypatch, 1, model_file, tiny_cache, capsys)
        ran_in()
        dealt = self.evaluate(monkeypatch, 2, model_file, tiny_cache, capsys)
        assert ran_in()[1] != os.getpid()
        assert dealt == serial == (4, "", "numeric error: chunk 1 went wrong\n")

    @pytest.mark.parametrize("fault, error, message", [
        ("ctrl_c_in_parent", KeyboardInterrupt, None),
        ("helper_dies", RuntimeError,
         "evaluate helper 1 of 1 ended with exit code 7 before reporting"),
    ])
    def test_an_evaluate_cut_short_leaves_no_process(self, fault, error, message, model_file,
                                                     ran_in, tiny_cache, capsys, monkeypatch):
        parent = os.getpid()

        def cut_short(chunk):
            if fault == "ctrl_c_in_parent" and os.getpid() == parent:
                return KeyboardInterrupt()
            if fault == "helper_dies" and os.getpid() != parent:
                os._exit(7)

        self.fault = cut_short
        with pytest.raises(error, match=message):
            self.evaluate(monkeypatch, 2, model_file, tiny_cache, capsys)
        assert multiprocessing.active_children() == []


class TestTrainingNeverForks:
    """Validation during training, ``train``'s test score and the runs of ``compare``
    evaluate in their own process: a fork per validation made training slower."""

    @pytest.fixture(autouse=True)
    def helpers_refused(self, monkeypatch):
        """5-row evaluation chunks, and a process that forks a helper fails, unless it
        is this one (``compare`` deals its runs)."""
        monkeypatch.setattr(optim, "_EVAL_CHUNK", 5)
        parent, start = os.getpid(), multiprocessing.process.BaseProcess.start

        def start_in_parent(process):
            if os.getpid() != parent:
                pytest.fail("a helper forked a helper")
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_in_parent)

    def test_train(self, tiny_cache, monkeypatch):
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda process: pytest.fail("a helper started"))
        ds = load_cached(tiny_cache)
        model = build_model("wlkaf_case1", ds.feature_dim, ds.class_count, seed=0,
                            hidden_widths=(8,), dictionary=build_dictionary(3))
        config = TrainConfig(batch_size=10, eval_every=20, patience=40, max_iterations=60)
        trace = optim.train(model, ds.train_xy(), ds.val_xy(), config, TrainObjective())
        assert trace.total_iterations == 60 and len(trace.records) == 3

    def test_train_command(self, tiny_cache, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda process: pytest.fail("a helper started"))
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        assert main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1",
                     "--out", str(tmp_path / "run"), *TRAIN_FLAGS]) == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_compare(self, cpus, tiny_cache, tmp_path, monkeypatch):
        if cpus == 1:
            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                                lambda process: pytest.fail("a helper started"))
        assert TestCompareHelpers.compare(monkeypatch, cpus, tiny_cache, tmp_path / "cmp",
                                          *TestCompareHelpers.GRID) == 0
        summary = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert not any("error" in row for row in summary["models"].values())


# every flag of the settings train and compare share, with a value its check refuses:
# a batch of 73 rows exceeds tiny_cache's 72 training rows, the last four ranges
# have a span or a bandwidth 1/(2*spacing^2) that is not finite, and a seed must
# be a non-negative integer (compare's --seeds is a list of them, and its --lr a list
# of rates)
UNUSABLE_SETTINGS = [("--lr", "0"), ("--lr", "nan"), ("--lr", "abc"),
                     ("--batch-size", "0"), ("--batch-size", "73"), ("--eval-every", "0"),
                     ("--max-iterations", "0"), ("--patience", "-1"), ("--hidden", "8,0"), ("--dict-points", "1"),
                     ("--dict-range", "1..-1"), ("--dict-range", "0..1e-320"),
                     ("--dict-range", "-1e308..1e308"), ("--dict-range", "0..1e-160"),
                     ("--dict-range", "-inf..inf"), ("--seed", "-1")]


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("flag, value", UNUSABLE_SETTINGS)
def test_unusable_setting_exits_2_before_any_output(command, flag, value, tiny_cache, tmp_path,
                                                    capsys):
    out = tmp_path / "out"
    argv = [command, "--cache", str(tiny_cache), "--out", str(out), *TRAIN_FLAGS]
    name = flag[2:].replace("-", "_")  # the setting as a config file spells it
    if command == "compare":
        argv += ["--models", "real_nn,wlkaf_case1", "--seeds", "0,1", "--c-grid", "0"]
        if flag == "--seed":
            flag, value = "--seeds", f"{value},2"
        elif flag == "--lr":
            value = f"0.01,{value}"
    assert main([*argv, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert name in err and "config file" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["compare", "--seed", "1"], ["train", "--max-it", "7"],
                                  ["gradcheck", "--tol", "1e-3"],
                                  ["preprocess", "--split", "0.8,0.1,0.1"]])
def test_option_prefix_exits_2_before_any_output(argv, tiny_cache, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[0] != "gradcheck":
        argv = [*argv, "--cache", str(tiny_cache), "--out", str(out), *TRAIN_FLAGS]
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def step_fails_at_7(monkeypatch):
    """Every training's seventh Adagrad step raises a NumericError."""
    step, calls = optim.Adagrad.step, []

    def failing_step(opt, params, grads):
        calls.append(None)
        if len(calls) == 7:
            raise NumericError("non-finite gradient for 'layer0.W'; step aborted")
        step(opt, params, grads)

    monkeypatch.setattr(optim.Adagrad, "step", failing_step)


class TestDivergedRun:
    """A run whose step fails at iteration 7 keeps what it had: the trace row of
    iteration 5 and the best checkpoint, which a clean 5-iteration run also saves."""

    FLAGS = ["--hidden", "8", "--dict-points", "3", "--batch-size", "10", "--eval-every", "5",
             "--patience", "100"]

    @pytest.fixture
    def clean_run(self, tiny_cache, tmp_path):
        run_dir = tmp_path / "clean"
        assert main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1", "--seed", "1",
                     *self.FLAGS, "--max-iterations", "5", "--out", str(run_dir)]) == 0
        return run_dir

    def test_train_writes_the_best_checkpoint_then_exits_4(self, clean_run, step_fails_at_7,
                                                           tiny_cache, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--cache", str(tiny_cache), "--model", "wlkaf_case1", "--seed", "1",
                     *self.FLAGS, "--max-iterations", "60", "--out", str(run_dir)]) == 4
        assert capsys.readouterr().err.startswith("numeric error: non-finite gradient")
        assert [r.iteration for r in read_trace_csv(run_dir / "trace.csv").records] == [5]
        assert drop_elapsed((run_dir / "trace.csv").read_text()) == \
            drop_elapsed((clean_run / "trace.csv").read_text())
        assert (run_dir / "model.cvkm").read_bytes() == (clean_run / "model.cvkm").read_bytes()
        best = load_model(clean_run / "model.cvkm").parameters()
        for name, arr in load_model(run_dir / "model.cvkm").parameters().items():
            assert np.array_equal(arr, best[name]), name
        summary = json.loads((run_dir / "summary.json").read_text())
        clean = json.loads((clean_run / "summary.json").read_text())
        assert clean["best_iteration"] == 5  # so the checkpoint is not the start
        assert set(summary) == {*clean, "error"}
        assert summary["stop_reason"] == "numeric_error" and summary["total_iterations"] == 7
        assert summary["error"].startswith("NumericError: non-finite gradient")
        for key in ("best_iteration", "val_accuracy", "test_accuracy"):
            assert summary[key] == clean[key], key
        assert "max_iterations = 60" in (run_dir / "config.txt").read_text().splitlines()

    def test_compare_records_the_error_and_keeps_the_run(self, step_fails_at_7, tiny_cache,
                                                         tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--cache", str(tiny_cache), *self.FLAGS,
                     "--models", "wlkaf_case1", "--seeds", "1", "--c-grid", "0",
                     "--max-iterations", "60", "--out", str(out_dir)]) == 0
        record = json.loads((out_dir / "comparison.json").read_text())
        assert record["models"]["wlkaf_case1"]["error"].startswith("NumericError: non-finite")
        run_dir = out_dir / "runs" / "wlkaf_case1" / "seed1_C0_lr0.01"
        assert json.loads((run_dir / "summary.json").read_text())["stop_reason"] == \
            "numeric_error"
        assert (run_dir / "model.cvkm").exists()


CASE2 = "wlkaf_case2:0.7:0.2"

# names that are not the canonical spelling or out of range, with what the
# error must name
UNUSABLE_NAMES = [
    ("wlkaf_case2:0.3", "write 'wlkaf_case2'"),
    ("wlkaf_case2:0.70", "write 'wlkaf_case2:0.7'"),
    ("kaf_independent:0.5", "unknown model 'kaf_independent:0.5'; choose from"),
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
        model = load_model(out_dir / "runs" / CASE2 / "seed0_C0_lr0.01" / "model.cvkm")
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

        def corrupted(self, g_out, cache, params):
            gz, grads = true_backward(self, g_out, cache, params)
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
        assert re.findall(r"^\[PASS\] (\S+)", out, re.M) == list(ALL_MODELS) == [
            "real_nn", "split_tanh", "phase_amplitude", "kaf_independent", "kaf_real_gaussian",
            "wlkaf_case1", "wlkaf_case2",
        ]
        assert "all 7 models within" in out

    def test_unknown_variant(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradcheck_variant", lambda *args: pytest.fail("a check ran"))
        for name in ("bogus", "bogus:1", "all:2", "real_nn:1", "split_tanh:1", "wlkaf_case2:"):
            assert main(["gradcheck", "--model", name]) == 2
            err = " ".join(capsys.readouterr().err.split())
            assert unknown_model_message(name, "all") in err
            assert "all | real_nn | split_tanh" in err

    def test_zero_seeds_is_parameter_error(self):
        assert main(["gradcheck", "--model", "split_tanh", "--seeds", "0"]) == 2

    def test_unreadable_seed_count_is_parameter_error(self, capsys):
        assert main(["gradcheck", "--model", "split_tanh", "--seeds", "abc"]) == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and "'abc'" in err

    def test_tolerance_is_applied_to_each_group(self, capsys, monkeypatch):
        # at seed 0 the groups' errors lie between 2e-8 and 2e-7: this threshold splits them
        monkeypatch.setattr(cli, "DEFAULT_TOLERANCE", 7.5e-8)
        assert main(["gradcheck", "--model", "wlkaf_case1", "--seeds", "1"]) == 4
        captured = capsys.readouterr()
        marked = re.findall(r"^    (\S+) +\S+  <-- exceeds tolerance$", captured.out, re.M)
        listed = re.findall(r"^    (\S+) +(\S+)", captured.out, re.M)
        assert marked == [group for group, err in listed if float(err) > 7.5e-8] != []
        assert len(marked) < len(listed)
        assert captured.out.startswith("[FAIL] wlkaf_case1 ")
        assert f"gradient check failed for wlkaf_case1 ({', '.join(marked)}: " in captured.err


class TestReport:
    """``report`` rewrites a ``compare`` directory's three reports from its files alone."""

    REPORTS = ("comparison.txt", "comparison.json", "convergence.csv")

    @pytest.fixture
    def compared(self, tiny_cache, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--cache", str(tiny_cache), "--out", str(out_dir),
                     "--models", "real_nn,wlkaf_case1", "--seeds", "0,1", "--c-grid", "0,1e-4",
                     *TRAIN_FLAGS]) == 0
        capsys.readouterr()
        return out_dir

    def reports(self, out_dir) -> dict:
        return {name: (out_dir / name).read_bytes() for name in self.REPORTS}

    @staticmethod
    def row_run(out_dir, model_name, seed) -> Path:
        """The run directory of ``model_name``'s table row at ``seed``."""
        best = json.loads((out_dir / "comparison.json").read_text())["models"][model_name]
        cell = f"C{best['best_c']:g}_lr{best['best_lr']:g}"
        return out_dir / "runs" / model_name / f"seed{seed}_{cell}"

    def test_compare_writes_its_settings_first(self, compared):
        settings = (compared / "config.txt").read_text().splitlines()
        for line in ("models = real_nn,wlkaf_case1", "seeds = 0,1", "c_grid = 0.0,0.0001",
                     "lr = 0.01", "hidden = 8", "max_iterations = 60"):
            assert line in settings, line

    def test_has_no_config_option(self, tmp_path, capsys):
        for command in ("preprocess", "train", "evaluate", "compare", "gradcheck", "report"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert ("--config" in capsys.readouterr().out) == (command != "report")
        cfg = tmp_path / "report.cfg"
        cfg.write_text(f"dir = {tmp_path}\n")
        assert main(["report", "--config", str(cfg), str(tmp_path)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_rerun_gives_the_bytes_compare_wrote(self, compared, capsys):
        written = self.reports(compared)
        assert main(["report", str(compared)]) == 0
        assert self.reports(compared) == written
        for name in self.REPORTS:
            (compared / name).unlink()
        assert main(["report", str(compared)]) == 0
        assert self.reports(compared) == written
        assert capsys.readouterr().out.startswith(written["comparison.txt"].decode())
        assert b"*" not in written["comparison.txt"]

    def test_rerun_on_a_two_lr_directory_gives_the_same_bytes(self, two_lr_compare, tmp_path):
        out = tmp_path / "cmp"
        shutil.copytree(two_lr_compare, out)
        written = self.reports(out)
        for name in self.REPORTS:
            (out / name).unlink()
        assert main(["report", str(out)]) == 0
        assert self.reports(out) == written

    @pytest.mark.parametrize("accuracies, best", [((0.5, 0.5, 0.5, 0.5), (0.0, 0.01)),
                                                  ((0.4, 0.5, 0.5, 0.5), (0.0, 0.1)),
                                                  ((0.4, 0.4, 0.5, 0.5), (1e-4, 0.01))])
    def test_a_validation_tie_goes_to_the_smaller_c_then_the_smaller_lr(
            self, accuracies, best, tiny_cache, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--cache", str(tiny_cache), "--out", str(out_dir),
                     "--models", "real_nn", "--seeds", "0", "--c-grid", "0,1e-4",
                     "--lr", "0.01,0.1", *TRAIN_FLAGS]) == 0
        cells = ["C0_lr0.01", "C0_lr0.1", "C0.0001_lr0.01", "C0.0001_lr0.1"]
        for cell, accuracy in zip(cells, accuracies):
            path = out_dir / "runs" / "real_nn" / f"seed0_{cell}" / "summary.json"
            path.write_text(json.dumps({**json.loads(path.read_text()),
                                        "val_accuracy": accuracy}))
        assert main(["report", str(out_dir)]) == 0
        row = json.loads((out_dir / "comparison.json").read_text())["models"]["real_nn"]
        assert (row["best_c"], row["best_lr"]) == best
        assert row["val_accuracy_per_cell"] == dict(zip(cells, accuracies))
        run = out_dir / "runs" / "real_nn" / f"seed0_C{best[0]:g}_lr{best[1]:g}"
        assert row["test_accuracies"] == [json.loads((run / "summary.json").read_text())
                                          ["test_accuracy"]]

    def test_a_directory_from_before_the_lr_grid_is_data_error(self, compared, capsys):
        # compare wrote each run to seed<s>_C<c:g> while lr was one shared value, and
        # its config.txt held the same "lr = 0.01" line, which now reads as a grid of one
        assert "lr = 0.01" in (compared / "config.txt").read_text().splitlines()
        for run in sorted((compared / "runs").glob("*/*")):
            run.rename(run.with_name(run.name.removesuffix("_lr0.01")))
        for name in self.REPORTS:
            (compared / name).unlink()
        assert main(["report", str(compared)]) == 3
        missing = compared / "runs" / "real_nn" / "seed0_C0_lr0.01" / "summary.json"
        assert capsys.readouterr().err.startswith(
            f"data error: {missing} is not a usable run summary: FileNotFoundError")
        assert not any((compared / name).exists() for name in self.REPORTS)

    def test_convergence_is_each_rows_mean_and_std(self, compared):
        lines = (compared / "convergence.csv").read_text().splitlines()
        assert lines[0] == ("iteration,real_nn_mean_loss,real_nn_std_loss,"
                            "wlkaf_case1_mean_loss,wlkaf_case1_std_loss")
        traces = [read_trace_csv(self.row_run(compared, "wlkaf_case1", seed) / "trace.csv")
                  for seed in (0, 1)]
        assert len(lines) == 1 + len(traces[0].records) == 1 + len(traces[1].records)
        for line, *records in zip(lines[1:], traces[0].records, traces[1].records):
            it, *cells = line.split(",")
            losses = [r.train_loss for r in records]
            assert int(it) == records[0].iteration == records[1].iteration
            assert float(cells[2]) == statistics.fmean(losses)
            assert float(cells[3]) == statistics.stdev(losses)

    def test_ignores_run_directories_the_config_does_not_name(self, compared):
        written = self.reports(compared)
        winner = {"model": "real_nn", "seed": 0, "c": 0.5, "val_accuracy": 1.0,
                  "test_accuracy": 1.0, "best_iteration": 20, "total_iterations": 60,
                  "stop_reason": "max_iterations"}
        for stray in ("real_nn/seed0_C0.5_lr0.01", "real_nn/seed0_C0_lr0.5",
                      "real_nn/seed7_C0_lr0.01", "kaf_independent/seed0_C0_lr0.01"):
            shutil.copytree(compared / "runs" / "real_nn" / "seed0_C0_lr0.01",
                            compared / "runs" / stray)
            (compared / "runs" / stray / "summary.json").write_text(json.dumps(winner))
        assert main(["report", str(compared)]) == 0
        assert self.reports(compared) == written

    @pytest.mark.parametrize("failure", ["diverged", "before_summary"])
    def test_a_failed_run_renders_from_disk_alone(self, failure, tiny_cache, tmp_path, capsys,
                                                  monkeypatch, request):
        out_dir = tmp_path / "cmp"
        argv = ["compare", "--cache", str(tiny_cache), *TestDivergedRun.FLAGS,
                "--models", "wlkaf_case1", "--seeds", "1", "--c-grid", "0",
                "--max-iterations", "60", "--out", str(out_dir)]
        if failure == "diverged":
            request.getfixturevalue("step_fails_at_7")
            error = "NumericError: non-finite gradient for 'layer0.W'; step aborted"
        else:
            assert main(argv) == 0  # whose summary.json must not stand in for the failed run's
            error = "NumericError: no run"
            train_one = cli._train_one

            def failing(ds, model_name, *rest):
                if model_name == "wlkaf_case1":
                    raise NumericError("no run")
                return train_one(ds, model_name, *rest)

            monkeypatch.setattr(cli, "_train_one", failing)
        assert main(argv) == 0
        written = self.reports(out_dir)
        monkeypatch.undo()
        for name in self.REPORTS:
            (out_dir / name).unlink()
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 0
        assert self.reports(out_dir) == written
        assert f"wlkaf_case1            FAILED: {error}\n" in capsys.readouterr().out
        summary = json.loads((out_dir / "runs" / "wlkaf_case1" / "seed1_C0_lr0.01" /
                              "summary.json").read_text())
        assert summary["error"] == error
        if failure == "before_summary":
            assert summary == {"model": "wlkaf_case1", "seed": 1, "c": 0.0, "lr": 0.01,
                               "error": error}
        assert written["convergence.csv"] == b"iteration\n"  # a failed model has no columns

    @pytest.mark.parametrize("key, line", [
        ("lr", "lr = 0.01,0.0100000001"), ("c_grid", "c_grid = 0,0.0"),
        ("models", "models = real_nn,real_nn"), ("seeds", "seeds = 0,0"),
        (None, "no_such_key = 1"), ("batch_size", "batch_size = abc"),
        ("batch_size", "batch_size = 0"), ("hidden", "hidden = 4,0"),
        ("dict_points", "dict_points = 1"), ("patience", "patience = -1"),
        ("seeds", "seeds = -1"),
    ], ids=["lr_spelled_twice", "c_spelled_twice", "model_twice", "seed_twice",
            "unknown_key", "unreadable_value", "batch_size_zero", "hidden_width_zero",
            "one_dict_point", "negative_patience", "negative_seed"])
    def test_unusable_config_is_data_error(self, key, line, compared, tmp_path, capsys):
        """``report`` refuses, with exit 3, each ``config.txt`` that ``compare --config``
        refuses with exit 2."""
        path = compared / "config.txt"
        kept = [s for s in path.read_text().splitlines() if s.split(" = ")[0] != key]
        path.write_text("\n".join([*kept, line]) + "\n")
        for name in self.REPORTS:
            (compared / name).unlink()
        assert main(["report", str(compared)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: config file {path}: ")
        assert err.count(str(path)) == 1 and "ParameterError" not in err
        assert not any((compared / name).exists() for name in self.REPORTS)
        again = tmp_path / "again"
        assert main(["compare", "--config", str(path), "--out", str(again)]) == 2
        assert capsys.readouterr().err.startswith(f"parameter error: config file {path}: ")
        assert not again.exists()

    def test_missing_config_is_data_error(self, compared, capsys):
        (compared / "config.txt").unlink()
        assert main(["report", str(compared)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(compared / "config.txt") in err

    @pytest.mark.parametrize("summary", [b"[]", b'{"model"', b"\xff", b'{"val_accuracy": 0.5}',
                                         b'{"val_accuracy": 0.5, "test_accuracy": "0.5"}',
                                         b'{"val_accuracy": 0.5, "test_accuracy": true}',
                                         b'{"error": 5}'],
                             ids=["not_an_object", "not_json", "not_utf8", "no_test_accuracy",
                                  "accuracy_text", "accuracy_bool", "error_not_text"])
    def test_unusable_summary_is_data_error(self, summary, compared, capsys):
        path = compared / "runs" / "real_nn" / "seed0_C0_lr0.01" / "summary.json"
        path.write_bytes(summary)
        for name in self.REPORTS:
            (compared / name).unlink()
        assert main(["report", str(compared)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path} is not a usable run summary")
        assert not any((compared / name).exists() for name in self.REPORTS)

    @pytest.mark.parametrize("text, line", [
        (None, ""),
        (f"{TRACE_HEADER}\n50,0.5,0.9\n", ":2:"),
        (f"{TRACE_HEADER}\n50,0.5,0.9,0.1\n100,x,0.8,0.2\n", ":3:"),
        ("iteration,loss\n50,0.5\n", ":1:"),
    ], ids=["missing_file", "short_row", "non_numeric", "wrong_header"])
    def test_unusable_trace_is_data_error(self, text, line, compared, capsys):
        path = self.row_run(compared, "wlkaf_case1", 1) / "trace.csv"
        path.unlink()
        if text is not None:
            path.write_text(text)
        for name in self.REPORTS:
            (compared / name).unlink()
        assert main(["report", str(compared)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{path}{line}" in err
        assert not any((compared / name).exists() for name in self.REPORTS)


@pytest.mark.parametrize("command", ["preprocess", "train", "compare", "report"])
def test_output_under_a_regular_file_is_data_error(command, idx_dir, tiny_cache, tmp_path,
                                                   capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    out = plain / "out"
    argv = {
        "preprocess": ["--dataset", "latin_ocr", "--data-dir", str(idx_dir), "--k-coeffs", "4"],
        "train": ["--cache", str(tiny_cache), "--model", "real_nn", *TRAIN_FLAGS],
        "compare": ["--cache", str(tiny_cache), "--models", "real_nn", "--seeds", "0",
                    "--c-grid", "0", *TRAIN_FLAGS],
    }.get(command)
    assert main([command, str(out)] if argv is None else [command, *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err


@pytest.mark.parametrize("error, code, prefix", [
    (ParameterError, 2, "parameter error: "), (DataFormatError, 3, "data error: "),
    (OSError, 3, "data error: "), (NumericError, 4, "numeric error: "),
], ids=["parameter", "data", "os", "numeric"])
def test_each_error_class_has_its_exit_code(error, code, prefix, tmp_path, monkeypatch,
                                            capsys):
    def failing(out_dir):
        raise error("no report")

    monkeypatch.setattr(cli, "write_report", failing)
    assert main(["report", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}no report\n"


def test_a_stale_forward_cache_is_a_traceback(tmp_path, monkeypatch):
    """A StateError is a program bug, so no exit code hides it."""
    def failing(out_dir):
        raise StateError("forward cache is stale")

    monkeypatch.setattr(cli, "write_report", failing)
    with pytest.raises(StateError):
        main(["report", str(tmp_path)])


@pytest.mark.parametrize("sizes", [(96, 0, 24), (96, 24, 0)], ids=["no_val", "no_test"])
@pytest.mark.parametrize("command", ["train", "compare", "evaluate"])
def test_a_cache_with_an_empty_split_exits_3_before_any_output(command, sizes, tiny_cache,
                                                               tmp_path, capsys):
    meta, arrays = read_container(tiny_cache, data._CACHE_MAGIC, data._CACHE_VERSION)
    meta["split_sizes"] = list(sizes)
    write_container(tiny_cache, data._CACHE_MAGIC, data._CACHE_VERSION, meta, arrays)
    out, model_file = tmp_path / "out", tmp_path / "model.cvkm"
    save_model(model_file, build_model("real_nn", 6, 3, seed=0, hidden_widths=(4,)))
    argv = {"train": ["--model", "real_nn", "--out", str(out), *TRAIN_FLAGS],
            "compare": ["--models", "real_nn", "--seeds", "0", "--c-grid", "0",
                        "--out", str(out), *TRAIN_FLAGS],
            "evaluate": ["--model-file", str(model_file)]}[command]
    assert main([command, "--cache", str(tiny_cache), *argv]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: {tiny_cache} does not hold a usable feature cache: "
                   "split_sizes entry must be a positive integer, got 0; rebuild the cache\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.cvkm", "tiny.cvkc"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment defaults\n"
            "dataset = glyphs\n"
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
        run_dir = out if command == "train" else out / "runs" / "wlkaf_case1" / "seed0_C0_lr0.02"
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

    def test_every_config_txt_replays(self, two_lr_compare, tmp_path):
        """``compare``'s ``config.txt`` holds its lr list and gives the same reports; a
        run's holds its one lr and, through ``train``, gives the same model."""
        other = tmp_path / "other"
        assert main(["compare", "--config", str(two_lr_compare / "config.txt"),
                     "--out", str(other)]) == 0
        for name in TestReport.REPORTS:
            assert (other / name).read_bytes() == (two_lr_compare / name).read_bytes(), name
        run = two_lr_compare / "runs" / "real_nn" / "seed1_C0.001_lr0.3"
        assert main(["train", "--config", str(run / "config.txt"),
                     "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "model.cvkm").read_bytes() == (run / "model.cvkm").read_bytes()

    def test_a_cache_path_holding_a_hash_replays(self, tiny_cache, tmp_path):
        """Only a whole line is a comment, so ``cache = .../a#b/tiny.cvkc`` reads whole."""
        (tmp_path / "a#b").mkdir()
        cache = tiny_cache.rename(tmp_path / "a#b" / tiny_cache.name)
        cmp = tmp_path / "cmp"
        assert main(["compare", "--cache", str(cache), "--out", str(cmp), "--models", "real_nn",
                     "--seeds", "0,1", "--c-grid", "0", *TRAIN_FLAGS]) == 0
        assert f"cache = {cache}" in (cmp / "config.txt").read_text().splitlines()
        assert main(["compare", "--config", str(cmp / "config.txt"),
                     "--out", str(tmp_path / "again")]) == 0
        for name in TestReport.REPORTS:
            assert (tmp_path / "again" / name).read_bytes() == (cmp / name).read_bytes(), name
        run = cmp / "runs" / "real_nn" / "seed1_C0_lr0.01"
        assert main(["train", "--config", str(run / "config.txt"),
                     "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "model.cvkm").read_bytes() == (run / "model.cvkm").read_bytes()

    def test_a_relative_cache_replays_from_another_directory(self, tiny_cache, tmp_path,
                                                              monkeypatch):
        """Every ``config.txt`` records the cache as an absolute path."""
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--cache", tiny_cache.name, "--out", "cmp", "--models",
                     "real_nn", "--seeds", "0,1", "--c-grid", "0", *TRAIN_FLAGS]) == 0
        line = f"cache = {Path.cwd() / tiny_cache.name}"
        for config in (Path("cmp/config.txt"), *Path("cmp/runs").glob("*/*/config.txt")):
            assert line in config.read_text().splitlines(), config
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert main(["compare", "--config", "../cmp/config.txt", "--out", "again"]) == 0
        for name in TestReport.REPORTS:
            assert Path("again", name).read_bytes() == Path("../cmp", name).read_bytes(), name

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
        flag, value = "--" + line.split(" ")[0], line.split(",")[-1].split(" ")[-1]
        name = "c" if flag == "--c-grid" else flag[2:]
        assert f"config file {cfg}: " in err and f"argument {flag}: {name} must be a finite" in err
        assert f"got {float(value)!r}" in err
        assert not out.exists()

    def test_bad_config_value_names_the_file(self, tiny_cache, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("batch_size = x\n")
        argv = ["train", "--config", str(cfg), "--cache", str(tiny_cache),
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert f"parameter error: config file {cfg}: " in capsys.readouterr().err
        # a bad flag beside a good file is the flag's error alone
        cfg.write_text("lr = 0.02\n")
        assert main([*argv, "--batch-size", "0"]) == 2
        err = capsys.readouterr().err
        assert "argument --batch-size: batch_size must be" in err and "config file" not in err
        assert not (tmp_path / "run").exists()

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
            "split-counts = 20,10,10\n"
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
            "--model": "all", "--seeds": "20",
        }

    def test_help_lists_every_accepted_name(self, capsys):
        def listed(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            return re.search(r"--(?:model|dataset) [A-Z]+ (.*?) \(default", text)[1].split(" | ")

        models = ["real_nn", "split_tanh", "phase_amplitude", "kaf_real_gaussian",
                  "kaf_independent", "wlkaf_case1", "wlkaf_case2"]
        assert sorted(listed("train")) == sorted([*models, CASE2_FORM])
        for name in [*models, "wlkaf_case2:0.7:0.2"]:  # each one builds
            build_model(name, 2, 2, seed=0, hidden_widths=(2,), dictionary=build_dictionary(2))
        assert sorted(listed("gradcheck")) == sorted(["all", *models, CASE2_FORM])
        assert listed("preprocess") == list(data.DATASETS)

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

    @pytest.mark.parametrize("argv", [["train", "--no-such-flag"], ["frobnicate"], [],
                                      ["gradcheck", "--tolerance", "1e-3"]])
    def test_usage_error_is_parameter_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("parameter error: cvkaf")
