"""IDX parsing, the FFT feature pipeline, splits, and the dataset cache."""

import dataclasses
import gzip
import importlib.util
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from cvkaf import data
from cvkaf.container import read_container, write_container
from cvkaf.data import (
    _CACHE_MAGIC,
    _CACHE_VERSION,
    RawImageSet,
    build_complex_dataset,
    cache_dataset,
    fft2,
    load_cached,
    load_idx,
    load_named_dataset,
    rank_and_select,
)
from cvkaf.cli import main
from cvkaf.errors import DataFormatError, ParameterError
from cvkaf.network import build_model, save_model

from test_acceptance import naive_dft2_reference


def write_idx_images(path, images: np.ndarray) -> None:
    """Minimal independent IDX writer used as the round-trip reference."""
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 2051, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 2049, labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


def reference_read_images(path) -> np.ndarray:
    """Second, deliberately separate IDX reader for cross-checking."""
    raw = open(path, "rb").read()
    magic, n, h, w = struct.unpack(">iiii", raw[:16])
    assert magic == 2051
    return np.frombuffer(raw[16:], dtype=np.uint8).reshape(n, h, w)


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(2, 3, 4)).astype(np.uint8)
    labels = np.array([3, 7], dtype=np.uint8)
    img_path = tmp_path / "imgs-idx3-ubyte"
    lbl_path = tmp_path / "lbls-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


class TestLoadIdx:
    def test_roundtrip_against_reference_reader(self, idx_pair):
        img_path, lbl_path, images, labels = idx_pair
        loaded = load_idx(img_path, lbl_path)
        np.testing.assert_array_equal(loaded.images, reference_read_images(img_path))
        np.testing.assert_array_equal(loaded.images, images)
        np.testing.assert_array_equal(loaded.labels, labels)
        assert loaded.class_count == 8

    def test_gzip_transparent(self, idx_pair, tmp_path):
        img_path, lbl_path, images, labels = idx_pair
        gz_img = tmp_path / "imgs.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        loaded = load_idx(gz_img, lbl_path)
        np.testing.assert_array_equal(loaded.images, images)

    def test_truncated_file_fails_closed(self, idx_pair, tmp_path):
        img_path, lbl_path, *_ = idx_pair
        clipped = tmp_path / "clipped"
        clipped.write_bytes(img_path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="offset"):
            load_idx(clipped, lbl_path)

    def test_bad_magic_reports_offset(self, idx_pair, tmp_path):
        img_path, lbl_path, *_ = idx_pair
        bad = tmp_path / "bad"
        raw = bytearray(img_path.read_bytes())
        raw[3] = 0xFF
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(bad, lbl_path)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        img_path, *_ = idx_pair
        lbl3 = tmp_path / "three-labels"
        write_idx_labels(lbl3, np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(DataFormatError, match="mismatch|labels"):
            load_idx(img_path, lbl3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            load_idx(tmp_path / "nope", tmp_path / "nope2")

    def test_images_are_writable_and_own_their_memory(self, idx_pair):
        loaded = load_idx(*idx_pair[:2])
        assert loaded.images.flags.writeable and loaded.images.flags.owndata

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_every_truncation_fails_closed(self, compress, idx_pair, tmp_path):
        img_path, lbl_path, *_ = idx_pair
        raw = img_path.read_bytes()
        if compress:
            raw = gzip.compress(raw, mtime=0)
        clipped = tmp_path / "clipped"
        for size in range(len(raw)):
            clipped.write_bytes(raw[:size])
            with pytest.raises(DataFormatError):
                load_idx(clipped, lbl_path)

    @pytest.mark.parametrize("where", ["plain", "gzip payload", "after gzip stream"])
    def test_appended_byte_fails_closed(self, where, idx_pair, tmp_path):
        img_path, lbl_path, *_ = idx_pair
        raw = img_path.read_bytes()
        longer = {
            "plain": raw + b"\0",
            "gzip payload": gzip.compress(raw + b"\0", mtime=0),
            # zero bytes after a gzip member are padding that gzip allows
            "after gzip stream": gzip.compress(raw, mtime=0) + b"\1",
        }[where]
        bad = tmp_path / "longer"
        bad.write_bytes(longer)
        with pytest.raises(DataFormatError):
            load_idx(bad, lbl_path)

    @pytest.mark.parametrize("dims", [(2**31 - 1,) * 3, (2, -1, 4)])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_impossible_dims_fail_closed(self, dims, compress, idx_pair, tmp_path):
        _, lbl_path, *_ = idx_pair
        raw = struct.pack(">iiii", 2051, *dims) + bytes(24)
        bad = tmp_path / "huge"
        bad.write_bytes(gzip.compress(raw, mtime=0) if compress else raw)
        with pytest.raises(DataFormatError, match="offset"):
            load_idx(bad, lbl_path)


def across_chunk_budgets(monkeypatch, pixels: int, partial: int, run) -> list:
    """``run()`` with ``_CHUNK_BYTES`` set to one image of ``pixels`` pixels, to
    ``partial`` images and to every row in one chunk, in turn."""
    results = []
    for budget in (1, partial * 8 * pixels, 1 << 40):
        monkeypatch.setattr(data, "_CHUNK_BYTES", budget)
        results.append(run())
    return results


class TestFft2:
    def test_constant_image(self):
        img = np.full((5, 6), 3.0)
        coeffs = fft2(img)
        assert coeffs[0, 0] == pytest.approx(3.0 * 30)
        rest = coeffs.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-9

    def test_impulse_at_origin(self):
        img = np.zeros((4, 4))
        img[0, 0] = 1.0
        np.testing.assert_allclose(fft2(img), np.ones((4, 4)), atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (3, 5), (4, 6), (5, 5)])
    def test_matches_naive_dft(self, shape, rng):
        img = rng.normal(size=shape)
        np.testing.assert_allclose(fft2(img), naive_dft2_reference(img), atol=1e-9)

    def test_parseval(self, rng):
        img = rng.normal(size=(8, 8)) * 7
        coeffs = fft2(img)
        pixel_energy = np.sum(img**2)
        coeff_energy = np.sum(np.abs(coeffs) ** 2) / img.size
        assert abs(pixel_energy - coeff_energy) / pixel_energy < 1e-6

    def test_chunk_budget_does_not_show(self, rng, monkeypatch):
        img = rng.normal(size=(7, 9))
        one, partial, whole = across_chunk_budgets(monkeypatch, img.size, 3,
                                                   lambda: fft2(img).tobytes())
        assert one == partial == whole


class TestRankAndSelect:
    def test_dc_ranks_first_for_nonnegative_images(self, rng):
        imgs = rng.integers(0, 256, size=(10, 6, 6)).astype(np.uint8)
        sel = rank_and_select(imgs, 5)
        assert sel[0] == 0  # DC term dominates for nonnegative pixels

    def test_full_selection_is_permutation(self, rng):
        imgs = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        sel = rank_and_select(imgs, 9)
        assert sorted(sel) == list(range(9))

    def test_matches_brute_force_on_tiny_images(self, rng):
        imgs = rng.integers(0, 9, size=(3, 2, 2)).astype(np.uint8)
        means = np.zeros(4)
        for img in imgs:
            means += np.abs(naive_dft2_reference(img)).reshape(4)
        means /= 3
        expected = sorted(range(4), key=lambda j: (-means[j], j))
        sel = rank_and_select(imgs, 4)
        np.testing.assert_array_equal(sel, expected)

    def test_matches_brute_force_on_odd_nonsquare_images(self, rng):
        imgs = rng.integers(0, 256, size=(7, 3, 5)).astype(np.uint8)
        means = np.mean([np.abs(naive_dft2_reference(img)).reshape(15) for img in imgs], axis=0)
        # conjugate pairs differ only by rounding in the oracle
        expected = sorted(range(15), key=lambda j: (-round(means[j], 6), j))
        np.testing.assert_array_equal(rank_and_select(imgs, 15), expected)

    @pytest.mark.parametrize("shape", [(7, 6), (6, 7), (8, 8)])
    def test_conjugate_pairs_are_adjacent_lower_index_first(self, shape, rng):
        h, w = shape
        imgs = rng.integers(0, 256, size=(50, h, w)).astype(np.uint8)
        means = np.mean([np.abs(np.fft.fft2(img)) for img in imgs], axis=0)
        sel = rank_and_select(imgs, h * w)
        position = np.argsort(sel)
        pairs = 0
        for u in range(h):
            for v in range(w):
                j, partner = u * w + v, ((-u) % h) * w + (-v) % w
                if partner <= j:
                    continue
                pairs += 1
                # every pair's magnitude stands apart from every other pair's
                assert np.sum(np.isclose(means, means[u, v], rtol=1e-9)) == 2
                assert position[partner] == position[j] + 1
        assert pairs > 0

    def test_tie_break_ascending_index(self):
        # symmetric image: many coefficients share the same magnitude
        imgs = np.ones((2, 2, 2), dtype=np.uint8)
        sel = rank_and_select(imgs, 4)
        np.testing.assert_array_equal(sel, [0, 1, 2, 3])

    def test_rows_rank_exactly_like_their_gathered_copy(self, rng, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_BYTES", 256 * 8 * 4 * 5)  # 256 images a chunk
        imgs = rng.integers(0, 256, size=(700, 4, 5)).astype(np.uint8)
        rows = rng.permutation(700)[:600]  # more than two chunks of 256
        np.testing.assert_array_equal(rank_and_select(imgs, 20, rows),
                                      rank_and_select(imgs[rows], 20))
        np.testing.assert_array_equal(rank_and_select(imgs, 20),
                                      rank_and_select(imgs, 20, np.arange(700)))

    def test_rejects_out_of_range_k(self, rng):
        imgs = rng.integers(0, 9, size=(2, 2, 2)).astype(np.uint8)
        with pytest.raises(ParameterError):
            rank_and_select(imgs, 5)
        with pytest.raises(ParameterError):
            rank_and_select(imgs, 0)


def synthetic_raw(n=100, h=6, w=6, classes=4, seed=5):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    images = (rng.integers(0, 200, size=(n, h, w)) + 20 * labels[:, None, None]).astype(np.uint8)
    return RawImageSet(images=images, labels=labels, class_count=classes)


class TestBuildComplexDataset:
    def test_fraction_split_sizes_and_disjointness(self):
        ds = build_complex_dataset(synthetic_raw(100), k=10, seed=0)
        assert ds.split_sizes == (80, 10, 10)
        assert np.unique(ds.source_indices).size == 100

    def test_count_split(self):
        ds = build_complex_dataset(synthetic_raw(100), k=6, split_counts=(50, 20, 10), seed=1)
        assert ds.split_sizes == (50, 20, 10)
        assert ds.features.shape == (80, 6)

    def test_deterministic_under_seed(self):
        a = build_complex_dataset(synthetic_raw(60), k=8, seed=3)
        b = build_complex_dataset(synthetic_raw(60), k=8, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.selected_indices, b.selected_indices)
        np.testing.assert_array_equal(a.source_indices, b.source_indices)

    def test_train_split_standardized(self):
        ds = build_complex_dataset(synthetic_raw(90), k=12, seed=2)
        x_train, _ = ds.train_xy()
        np.testing.assert_allclose(np.abs(x_train.mean(axis=0)), 0.0, atol=1e-9)
        power = np.mean(np.abs(x_train) ** 2, axis=0)
        np.testing.assert_allclose(power, 1.0, rtol=1e-9)

    def test_features_are_standardized_dft_coefficients(self):
        raw = synthetic_raw(n=60, h=5, w=7, seed=8)
        ds = build_complex_dataset(raw, k=20, split_counts=(40, 10, 10), seed=3)
        reference = np.array([naive_dft2_reference(raw.images[i]).ravel()[ds.selected_indices]
                              for i in ds.source_indices])
        restored = ds.features * ds.feature_std + ds.feature_mean
        worst = np.max(np.abs(restored - reference), axis=1)
        assert np.all(worst <= 1e-9 * np.max(np.abs(reference), axis=1))
        x_train, _ = ds.train_xy()
        np.testing.assert_allclose(x_train.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.mean(np.abs(x_train) ** 2, axis=0), 1.0, rtol=1e-12)

    def test_selection_ignores_non_training_images(self):
        raw = synthetic_raw(80)
        ds = build_complex_dataset(raw, k=9, seed=4)
        train_src = set(ds.source_indices[: ds.split_sizes[0]].tolist())
        scrambled = raw.images.copy()
        for i in range(80):
            if i not in train_src:
                scrambled[i] = scrambled[i][::-1, ::-1]  # deterministic scramble
        raw2 = RawImageSet(images=scrambled, labels=raw.labels, class_count=raw.class_count)
        ds2 = build_complex_dataset(raw2, k=9, seed=4)
        np.testing.assert_array_equal(ds.selected_indices, ds2.selected_indices)

    def test_chunk_budget_does_not_show(self, monkeypatch):
        raw = synthetic_raw(n=100, h=6, w=5, seed=9)

        def build():
            ds = build_complex_dataset(raw, k=15, split_counts=(50, 20, 10), seed=6)
            return [a.tobytes() for a in (ds.features, ds.selected_indices,
                                          ds.feature_mean, ds.feature_std)]

        # 3 images a chunk leave a partial last chunk of the 50 training and 80 used rows
        one, partial, whole = across_chunk_budgets(monkeypatch, 6 * 5, 3, build)
        assert one == partial == whole

    def test_zero_images_guarded(self):
        raw = RawImageSet(
            images=np.zeros((40, 4, 4), dtype=np.uint8),
            labels=np.zeros(40, dtype=np.int64),
            class_count=1,
        )
        ds = build_complex_dataset(raw, k=4, seed=0)
        assert np.all(np.isfinite(ds.features.view(np.float64)))
        assert not ds.features.any()

    @pytest.mark.parametrize("setting, message", [
        ({"split_counts": (300.9, 50, 50)}, "split_counts entry must be a positive integer, "
                                            "got 300.9"),
        ({"k": 3.5}, "k must be a positive integer, got 3.5"),
    ], ids=["split_counts", "k"])
    def test_refuses_a_count_that_is_not_an_integer(self, setting, message):
        with pytest.raises(ParameterError, match=message):
            build_complex_dataset(synthetic_raw(400), seed=0, **setting)

    def test_empty_split_rejected(self):
        with pytest.raises(ParameterError, match="80/10/10 split of 9 images leaves a split"):
            build_complex_dataset(synthetic_raw(9), k=4, seed=0)
        with pytest.raises(ParameterError):
            build_complex_dataset(synthetic_raw(10), k=4, split_counts=(8, 2, 4), seed=0)


class TestSplitViews:
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "cached"])
    def test_splits_are_read_only_views_of_the_rows(self, loaded, tmp_path):
        ds = build_complex_dataset(synthetic_raw(50), k=7, seed=6)
        if loaded:
            cache_dataset(ds, tmp_path / "ds.cvkc")
            ds = load_cached(tmp_path / "ds.cvkc")
        bounds = np.cumsum((0, *ds.split_sizes))
        assert bounds[-1] == ds.features.shape[0]
        for lo, hi, (x, y) in zip(bounds, bounds[1:], (ds.train_xy(), ds.val_xy(), ds.test_xy())):
            np.testing.assert_array_equal(x, ds.features[lo:hi])
            np.testing.assert_array_equal(y, ds.labels[lo:hi])
            assert np.shares_memory(x, ds.features) and np.shares_memory(y, ds.labels)
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                y[0] = 0
        assert ds.features.flags.writeable and ds.labels.flags.writeable

    @pytest.mark.parametrize("label", [-1, 4])
    def test_labels_outside_the_classes_are_rejected(self, label, tmp_path):
        ds = build_complex_dataset(synthetic_raw(50, classes=4), k=7, seed=6)
        path = tmp_path / "ds.cvkc"
        cache_dataset(ds, path)
        meta, arrays = read_container(path, _CACHE_MAGIC, _CACHE_VERSION)
        arrays["labels"][-1] = label
        write_container(path, _CACHE_MAGIC, _CACHE_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match="labels"):
            load_cached(path)

    @pytest.mark.parametrize("doctored", [
        {"split_sizes": (40, 5, 4)},  # the last row in no split
        {"split_sizes": (40, 5, 6)},
        {"split_sizes": (46, -1, 5)},
        {"split_sizes": (40, 5.0, 5)},
        {"split_sizes": (45, 5)},
        {"class_count": 4.0},
    ], ids=["short", "long", "negative", "not_integer", "two_sizes", "class_count"])
    def test_header_values_that_break_the_layout_are_rejected(self, doctored, tmp_path):
        ds = build_complex_dataset(synthetic_raw(50, classes=4), k=7, seed=6)
        assert ds.split_sizes == (40, 5, 5)
        with pytest.raises(DataFormatError):
            dataclasses.replace(ds, **doctored)
        path = tmp_path / "ds.cvkc"
        cache_dataset(ds, path)
        meta, arrays = read_container(path, _CACHE_MAGIC, _CACHE_VERSION)
        meta.update(doctored)
        write_container(path, _CACHE_MAGIC, _CACHE_VERSION, meta, arrays)
        with pytest.raises(DataFormatError, match="rebuild"):
            load_cached(path)


class TestContainer:
    @pytest.mark.parametrize("value", [np.array(-2.5e-300), np.array(3.25 - 1e300j)],
                             ids=["float64", "complex128"])
    def test_zero_dim_arrays_round_trip(self, value, tmp_path):
        path = tmp_path / "scalar.cvkc"
        write_container(path, b"TEST", 1, {"note": "x"}, {"v": value, "w": value[None]})
        meta, arrays = read_container(path, b"TEST", 1)
        assert meta == {"note": "x"}
        for name, expected in (("v", value), ("w", value[None])):
            assert arrays[name].shape == expected.shape and arrays[name].dtype == expected.dtype
            assert arrays[name].tobytes() == expected.tobytes()


class TestCache:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = build_complex_dataset(synthetic_raw(50), k=7, seed=6)
        path = tmp_path / "ds.cvkc"
        cache_dataset(ds, path)
        loaded = load_cached(path)
        for field in dataclasses.fields(ds):
            value, expected = getattr(loaded, field.name), getattr(ds, field.name)
            if isinstance(expected, np.ndarray):
                assert value.dtype == expected.dtype and value.shape == expected.shape
                assert value.tobytes() == expected.tobytes()
            else:
                assert value == expected and type(value) is type(expected)

    def test_identical_builds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.cvkc", tmp_path / "b.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(50), k=7, seed=6), a)
        cache_dataset(build_complex_dataset(synthetic_raw(50), k=7, seed=6), b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_header_fails_closed(self, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="corrupted header"):
            load_cached(path)

    def test_every_truncation_fails_closed(self, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
        raw = path.read_bytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))} "):
                load_cached(path)

    def test_appended_byte_fails_closed(self, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataFormatError, match="trailing"):
            load_cached(path)

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    def test_every_corrupted_byte_loads_or_fails_closed(self, mask, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(20, h=4, w=4), k=2, seed=0), path)
        raw = path.read_bytes()
        failures = 0
        for offset in range(len(raw)):
            corrupt = bytearray(raw)
            corrupt[offset] ^= mask
            path.write_bytes(bytes(corrupt))
            try:
                load_cached(path)
            except DataFormatError as exc:
                assert str(exc).startswith(f"{path} ")
                failures += 1
        assert 0 < failures < len(raw)

    def test_loaded_arrays_are_writable_and_separate(self, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
        loaded = load_cached(path)
        arrays = [value for value in vars(loaded).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 6
        for i, arr in enumerate(arrays):
            assert arr.flags.writeable and arr.flags.c_contiguous
            for other in arrays[i + 1:]:
                assert not np.shares_memory(arr, other)

    @pytest.mark.parametrize("field, value", [("seed", "abc"), ("seed", -3), ("image_dims", "ab"),
                                              ("split_sizes", [40, 5, True])])
    def test_evaluate_refuses_a_header_value_outside_its_rule(self, field, value, tmp_path,
                                                              capsys):
        ds = build_complex_dataset(synthetic_raw(50), k=7, seed=6, split_counts=(40, 5, 1))
        path, model_file = tmp_path / "ds.cvkc", tmp_path / "m.cvkm"
        cache_dataset(ds, path)
        meta, arrays = read_container(path, _CACHE_MAGIC, _CACHE_VERSION)
        meta[field] = value
        write_container(path, _CACHE_MAGIC, _CACHE_VERSION, meta, arrays)
        save_model(model_file, build_model("real_nn", ds.feature_dim, ds.class_count, 0,
                                           hidden_widths=(4,)))
        assert main(["evaluate", "--model-file", str(model_file), "--cache", str(path)]) == 3
        assert field in capsys.readouterr().err

    def test_version_mismatch_prompts_rebuild(self, tmp_path):
        path = tmp_path / "ds.cvkc"
        cache_dataset(build_complex_dataset(synthetic_raw(30), k=4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # format version field
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_cached(path)


class TestNamedDatasets:
    def test_glyphs_builtin(self):
        raw = load_named_dataset("glyphs", data_dir="unused")
        assert raw.images.shape == (1800, 28, 28) and raw.images.dtype == np.uint8
        assert raw.labels.dtype == np.int64 and raw.class_count == 10
        assert np.bincount(raw.labels).tolist() == [180] * 10
        again = load_named_dataset("glyphs", data_dir="elsewhere")
        assert np.array_equal(again.images, raw.images)
        assert np.array_equal(again.labels, raw.labels)

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown dataset"):
            load_named_dataset("imagenet", data_dir=".")

    def test_unknown_name_lists_every_name(self):
        with pytest.raises(ParameterError) as info:
            load_named_dataset("imagenet", data_dir=".")
        assert str(info.value) == ("unknown dataset 'imagenet'; choose from "
                                   "mnist | fashion_mnist | emnist_digits | latin_ocr | glyphs")

    def test_missing_files_name_expectations(self, tmp_path):
        with pytest.raises(DataFormatError, match="train-images-idx3-ubyte"):
            load_named_dataset("mnist", data_dir=tmp_path)

    def test_idx_files_discovered(self, tmp_path, rng):
        base = tmp_path / "latin_ocr"
        base.mkdir()
        images = rng.integers(0, 255, size=(6, 5, 5)).astype(np.uint8)
        labels = np.arange(6, dtype=np.uint8) % 3
        write_idx_images(base / "train-images-idx3-ubyte", images)
        write_idx_labels(base / "train-labels-idx1-ubyte", labels)
        raw = load_named_dataset("latin_ocr", data_dir=tmp_path)
        assert raw.count == 6 and raw.class_count == 3


def _perfbench_inputs():
    """The benchmark's own copy of the glyph renderer, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGlyphs:
    """``data.glyphs`` and the benchmark's renderer are one generator, bit for bit."""

    # 1001 rows cross the renderer's 1000-row chunk
    @pytest.mark.parametrize("count, seed", [(300, 0), (1001, 7)])
    def test_equals_the_benchmark_copy(self, count, seed, tmp_path):
        bench = _perfbench_inputs()
        images, labels = data.glyphs(count, seed)
        expected = bench.glyphs(count, seed)
        assert np.array_equal(images, expected[0])
        assert np.array_equal(labels, expected[1])
        # the gzip IDX pair the benchmark writes is the same file from either copy
        ours = bench.write_idx_pair(tmp_path / "ours", images, labels)
        theirs = bench.write_idx_pair(tmp_path / "theirs", *expected)
        for a, b in zip(ours, theirs):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count", [-1, 2.5])
    def test_refuses_a_count_that_is_not_a_non_negative_integer(self, count):
        with pytest.raises(ParameterError,
                           match=f"count must be a non-negative integer, got {count}"):
            data.glyphs(count, 0)
