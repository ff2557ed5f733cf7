"""Dataset ingestion and the FFT complexification pipeline.

Images arrive as IDX files (optionally gzip-compressed). Each image is
mapped through an unnormalized 2-D DFT; coefficients are ranked by their
mean absolute value over the training split only, the top K are kept as
the complex feature vector, and features are standardized per coefficient
with constants fit on the training split. The resulting dataset, including
its split sizes and standardization constants, round-trips bit-exactly
through a versioned binary cache whose entries are the fields of
:class:`ComplexDataset`.

Images are real, so only the half spectrum (columns ``0..W//2``) is
computed, with the real-input FFT. Every other coefficient follows from
Hermitian symmetry, ``F[u, v] = conj(F[(-u) % H, (-v) % W])``, and both
members of a conjugate pair are read from the same half-spectrum entry.
Their mean magnitudes are therefore equal bit for bit, and the documented
tie rule (ascending flat index) orders every pair. Selected indices keep
their full-spectrum meaning, ``u * W + v``. The transform runs in chunks
whose float64 pixel buffer fits ``_CHUNK_BYTES`` (41 images at 28x28), so
its temporaries stay a few hundred KiB whatever the image or dataset size.

Each byte of the data path is held once. The IDX payload is decoded
straight into its final array, the ranking gathers the training images a
chunk at a time into one pixel buffer and one magnitude buffer, the
features are gathered from each chunk's spectrum straight into their
rows, and a :class:`ComplexDataset` keeps its rows in one block laid out
as train, then validation, then test. It stores the row
count of each split, which must sum to the rows of the block (checked on
construction, and a cache that breaks this is a :class:`CacheError`), so
the split accessors return read-only slices of that block, not copies.

One dataset is built in and needs no files: ``glyphs``, seeded
seven-segment digit images drawn by :func:`glyphs` with numpy alone.
"""

from __future__ import annotations

import dataclasses
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import CacheError, DataFormatError, ParameterError, check_seed, describe

__all__ = [
    "RawImageSet",
    "ComplexDataset",
    "load_idx",
    "fft2",
    "rank_and_select",
    "build_complex_dataset",
    "cache_dataset",
    "load_cached",
    "load_named_dataset",
    "glyphs",
    "DATASET_FILES",
    "DATASET_NAMES",
]

DEFAULT_K = 100  # complex coefficients kept per image

_IMAGE_MAGIC = 2051
_LABEL_MAGIC = 2049
_CACHE_MAGIC = b"CVKC"
_CACHE_VERSION = 2
_CHUNK_BYTES = 1 << 18  # float64 pixel bytes per FFT chunk: temporaries stay near cache size
_READ_BLOCK = 1 << 20  # bytes per IDX read: bounds gzip's temporary bytes object


@dataclass
class RawImageSet:
    images: np.ndarray  # (N, H, W) uint8
    labels: np.ndarray  # (N,) int64
    class_count: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )

    @property
    def count(self) -> int:
        return self.images.shape[0]


def _read_idx(path, expected_magic: int) -> np.ndarray:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            gzipped = fh.read(2) == b"\x1f\x8b"
            fh.seek(0)
            if not gzipped:
                return _decode_idx(path, fh, os.fstat(fh.fileno()).st_size, expected_magic)
            with gzip.GzipFile(fileobj=fh) as gz:
                return _decode_idx(path, gz, None, expected_magic)
    except FileNotFoundError as exc:
        raise DataFormatError(f"no such file: {path}") from exc
    except (OSError, EOFError, zlib.error) as exc:  # unreadable file or corrupt gzip stream
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc


def _decode_idx(path: Path, fh, size, expected_magic: int) -> np.ndarray:
    """Decode one IDX stream into a new array; ``size`` is the file length if known.

    The payload is read straight into its final array, so it is held once.
    """
    ndim = expected_magic % 256  # the low byte of an IDX magic number
    header_end = 4 + 4 * ndim
    head = fh.read(header_end)
    magic = struct.unpack(">i", head[:4])[0] if len(head) >= 4 else None
    if magic is not None and magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad magic {magic} at offset 0, expected {expected_magic}"
        )
    if len(head) < header_end:
        raise DataFormatError(f"{path}: truncated in the header (offset {len(head)})")
    dims = struct.unpack(f">{ndim}i", head[4:])
    if min(dims) < 0:
        raise DataFormatError(f"{path}: negative dimension in {dims} at offset 4")
    expected = math.prod(dims)  # Python integers: no wrap-around
    if size is not None and size - header_end != expected:
        raise DataFormatError(
            f"{path}: payload has {size - header_end} bytes at offset {header_end}, "
            f"expected {expected} for dims {dims}"
        )
    try:
        out = np.empty(dims, dtype=np.uint8)
    except (ValueError, MemoryError) as exc:
        raise DataFormatError(
            f"{path}: dims {dims} at offset 4 cannot be allocated: {exc}"
        ) from exc
    view = memoryview(out.reshape(-1))
    filled = 0
    while filled < expected:
        got = fh.readinto(view[filled:filled + _READ_BLOCK])
        if not got:
            raise DataFormatError(
                f"{path}: payload truncated at offset {header_end + filled}, "
                f"expected {expected} bytes for dims {dims}"
            )
        filled += got
    if fh.read(1):
        raise DataFormatError(
            f"{path}: trailing bytes after the payload at offset {header_end + expected}"
        )
    return out


def load_idx(images_path, labels_path) -> RawImageSet:
    """Decode an images/labels IDX pair (gzip handled transparently)."""
    images = _read_idx(images_path, _IMAGE_MAGIC)
    labels = _read_idx(labels_path, _LABEL_MAGIC).astype(np.int64)
    if images.ndim != 3:
        raise DataFormatError(f"{images_path}: expected 3 dimensions, got {images.ndim}")
    return RawImageSet(images=images, labels=labels,
                       class_count=int(labels.max()) + 1 if labels.size else 0)


def _half_spectra(images: np.ndarray, rows: np.ndarray):
    """DFT columns ``0..W//2`` of ``images[rows]``, one chunk at a time.

    Yields ``(lo, spectrum)``: the half spectra of rows ``lo:lo + n`` as an
    (n, H * (W//2 + 1)) array. A chunk holds as many images as fit
    ``_CHUNK_BYTES`` of float64 pixels, at least one. The pixel buffer is
    allocated once for all chunks; only ``rfft2``'s result is new per chunk.
    Freed and allocated again per chunk, a pixel buffer can make glibc
    return its pages to the system and fault them back in on every chunk,
    in a process that has not yet freed a larger block.
    """
    _, h, w = images.shape
    n = rows.shape[0]
    step = max(1, _CHUNK_BYTES // (8 * h * w))
    pixels = np.empty((min(step, n), h, w))
    for lo in range(0, n, step):
        chunk = pixels[:min(step, n - lo)]
        chunk[...] = images[rows[lo:lo + step]]
        yield lo, np.fft.rfft2(chunk).reshape(chunk.shape[0], -1)


def _hermitian_map(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each full-spectrum flat index is read from the half spectrum.

    Returns ``(index, conj)``, each of length ``h * w``: coefficient ``j``
    is entry ``index[j]`` of the flattened half spectrum, conjugated where
    ``conj[j]``. Of a conjugate pair ``(u, v)``, ``((-u) % h, (-v) % w)``,
    the member with the smaller (column, row) is read directly; it lies in
    columns ``0..w//2``, and the other member is its conjugate.
    """
    u, v = np.divmod(np.arange(h * w), w)
    pu, pv = (-u) % h, (-v) % w
    conj = (pv < v) | ((pv == v) & (pu < u))
    index = np.where(conj, pu, u) * (w // 2 + 1) + np.where(conj, pv, v)
    return index, conj


def _coefficients(spectrum: np.ndarray, index: np.ndarray, conj: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Full-spectrum coefficients ``index``/``conj`` of (n, H * (W//2 + 1)) half spectra.

    They are gathered into ``out`` (n, len(index)) when given, else into a
    new array. ``index`` is in range by construction, so the gather uses
    ``mode="clip"``, which writes ``out`` directly instead of through a copy.
    """
    out = np.take(spectrum, index, axis=1, out=out, mode="clip")
    return np.conjugate(out, out=out, where=conj)


def fft2(image: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2-D DFT; the DC term equals the pixel sum.

    The full spectrum is assembled from the half spectrum through the same
    index map the feature pipeline uses.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    _, spectrum = next(_half_spectra(img[None], np.array([0])))
    return _coefficients(spectrum, *_hermitian_map(h, w)).reshape(h, w)


def rank_and_select(images: np.ndarray, k: int, rows=None) -> np.ndarray:
    """Top-k flat coefficient indices by mean |DFT coefficient| over ``images[rows]``.

    ``rows`` selects the training images (all of ``images`` if omitted);
    they are gathered one chunk at a time, never as one copy. Ordering is
    strictly decreasing in the mean magnitude with ties broken by ascending
    flat index, so the selection is fully deterministic. Both members of a
    conjugate pair take the mean of one half-spectrum entry, so they tie
    exactly and the lower flat index comes first.
    """
    imgs = np.asarray(images)
    _, h, w = imgs.shape
    rows = np.arange(imgs.shape[0]) if rows is None else np.asarray(rows)
    n = rows.shape[0]
    if not 1 <= k <= h * w:
        raise ParameterError(f"k must lie in [1, {h * w}], got {k}")
    total = np.zeros(h * (w // 2 + 1), dtype=np.float64)
    mags = None  # row 0 carries the running total, rows 1.. a chunk's |F|
    for _, spectrum in _half_spectra(imgs, rows):
        if mags is None:
            mags = np.empty((spectrum.shape[0] + 1, total.shape[0]))
        block = mags[:spectrum.shape[0] + 1]
        block[0] = total
        np.abs(spectrum, out=block[1:])
        # a column sum adds its rows in order, so the total grows image by
        # image and does not depend on the chunk size
        block.sum(axis=0, out=total)
    index, _ = _hermitian_map(h, w)
    means = total[index] / n
    order = np.lexsort((np.arange(h * w), -means))
    return order[:k].astype(np.int64)


@dataclass
class ComplexDataset:
    """Complex features with split bookkeeping and scaling constants.

    ``features`` holds only the rows that belong to some split, laid out
    as the training rows, then the validation rows, then the test rows;
    ``split_sizes`` counts the rows of each, so ``train_xy``/``val_xy``/
    ``test_xy`` return slices of ``features`` and ``labels`` (views, marked
    read-only) instead of copies. ``source_indices`` maps each row back to
    its image in the original set. The fields are the cache format: each
    ndarray field is an array of the file, every other field a header entry.
    """

    features: np.ndarray  # (N_used, K) complex128, standardized
    labels: np.ndarray  # (N_used,) int64
    class_count: int
    selected_indices: np.ndarray  # (K,) int64 flat DFT indices
    split_sizes: tuple[int, int, int]  # train, validation and test rows
    feature_mean: np.ndarray  # (K,) complex128, fit on train
    feature_std: np.ndarray  # (K,) float64, fit on train
    image_dims: tuple[int, int]
    source_indices: np.ndarray
    seed: int

    # each array's dtype kind: complex, real floating or integer
    _KINDS = {"features": "c", "feature_mean": "c", "feature_std": "f",
              "labels": "iu", "selected_indices": "iu", "source_indices": "iu"}

    def __post_init__(self):
        wrong = [f"{name} {getattr(self, name).dtype}" for name, kind in self._KINDS.items()
                 if getattr(self, name).dtype.kind not in kind]
        if wrong:
            raise DataFormatError(f"arrays of the wrong dtype: {', '.join(wrong)}")
        # a header holds lists
        sizes = self.split_sizes = tuple(self.split_sizes)
        self.image_dims = tuple(self.image_dims)
        if len(sizes) != 3 or not all(isinstance(v, int) and v >= 0
                                      for v in (*sizes, self.class_count)):
            raise DataFormatError(f"need three split sizes and a class count, all non-negative "
                                  f"integers; got {sizes} and {self.class_count!r}")
        rows = sum(sizes)
        if self.features.ndim != 2 or self.features.shape[0] != rows \
                or self.labels.shape != (rows,):
            raise DataFormatError(
                f"features {self.features.shape} and labels {self.labels.shape} "
                f"do not hold the {rows} rows of the three splits"
            )
        if rows and not 0 <= self.labels.min() <= self.labels.max() < self.class_count:
            raise DataFormatError(f"labels fall outside [0, {self.class_count})")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def _xy(self, split: int):
        lo, hi = sum(self.split_sizes[:split]), sum(self.split_sizes[:split + 1])
        x, y = self.features[lo:hi], self.labels[lo:hi]
        x.flags.writeable = y.flags.writeable = False
        return x, y

    def train_xy(self):
        return self._xy(0)

    def val_xy(self):
        return self._xy(1)

    def test_xy(self):
        return self._xy(2)


# the fields a cache file holds as arrays, and those its header holds
_CACHE_ARRAYS = frozenset(f.name for f in dataclasses.fields(ComplexDataset)
                          if f.type == "np.ndarray")
_CACHE_HEADER = frozenset(f.name for f in dataclasses.fields(ComplexDataset)) - _CACHE_ARRAYS


def _split_sizes(n: int, split_counts) -> tuple[int, int, int]:
    """``split_counts`` checked against ``n`` images, or 80/10/10 of them (rounded down)."""
    if split_counts is None:
        counts = (int(n * 0.8), int(n * 0.1), int(n * 0.1))
        if any(c < 1 for c in counts):
            raise ParameterError(f"the 80/10/10 split of {n} images leaves a split empty")
        return counts
    counts = tuple(int(c) for c in split_counts)
    if len(counts) != 3 or any(c < 1 for c in counts):
        raise ParameterError(f"need three positive split counts, got {split_counts}")
    if sum(counts) > n:
        raise ParameterError(f"split counts {counts} exceed dataset size {n}")
    return counts


def build_complex_dataset(
    raw: RawImageSet,
    k: int = DEFAULT_K,
    seed: int = 0,
    split_counts=None,
) -> ComplexDataset:
    """FFT, rank on the training split, select top-k, standardize, split.

    ``split_counts`` gives the train, validation and test sizes; without it
    the splits take 80%, 10% and 10% of the images.

    The coefficient ranking and the standardization constants see training
    images only; validation and test reuse them unchanged.
    """
    seed = check_seed(seed)
    sizes = _split_sizes(raw.count, split_counts)
    n_train = sizes[0]
    src = np.random.default_rng(seed).permutation(raw.count)[:sum(sizes)]
    selected = rank_and_select(raw.images, k, src[:n_train])

    h, w = raw.images.shape[1], raw.images.shape[2]
    index, conj = _hermitian_map(h, w)
    index, conj = index[selected], conj[selected]
    features = np.empty((src.shape[0], k), dtype=np.complex128)
    for lo, spectrum in _half_spectra(raw.images, src):
        _coefficients(spectrum, index, conj, out=features[lo:lo + spectrum.shape[0]])

    train = features[:n_train]  # a view: the training rows come first
    mean = train.mean(axis=0)
    train -= mean
    parts = train.view(np.float64).reshape(n_train, k, 2)
    std = np.sqrt(np.einsum("ijc,ijc->j", parts, parts) / n_train)
    std = np.where(std < 1e-12, 1.0, std)
    features[n_train:] -= mean
    features /= std

    return ComplexDataset(
        features=features,
        labels=raw.labels[src].astype(np.int64, copy=False),
        class_count=raw.class_count,
        selected_indices=selected,
        split_sizes=sizes,
        feature_mean=mean,
        feature_std=std,
        image_dims=(h, w),
        source_indices=src.astype(np.int64),
        seed=seed,
    )


def cache_dataset(ds: ComplexDataset, path) -> None:
    """Write ``ds`` to a versioned cache file, one entry per dataclass field."""
    container.write_container(path, _CACHE_MAGIC, _CACHE_VERSION,
                              {name: getattr(ds, name) for name in _CACHE_HEADER},
                              {name: getattr(ds, name) for name in _CACHE_ARRAYS})


def load_cached(path) -> ComplexDataset:
    """The dataset :func:`cache_dataset` wrote, bit-exact; a file that does not
    hold exactly a valid dataset's fields is a :class:`CacheError` naming it."""
    meta, arrays = container.read_container(path, _CACHE_MAGIC, _CACHE_VERSION)
    try:
        if set(meta) != _CACHE_HEADER or set(arrays) != _CACHE_ARRAYS:
            raise DataFormatError(
                f"header entries {sorted(meta)} and arrays {sorted(arrays)}, expected "
                f"{sorted(_CACHE_HEADER)} and {sorted(_CACHE_ARRAYS)}"
            )
        return ComplexDataset(**meta, **arrays)
    except (TypeError, ValueError) as exc:  # DataFormatError is a ValueError
        raise CacheError(f"{path} does not hold a usable feature cache: {describe(exc)}; "
                         "rebuild the cache") from exc


# Conventional file names per dataset, resolved under <data_dir>/<dataset>/.
# Gzipped variants (same name + .gz) are found automatically. The latin_ocr
# corpus is not redistributable; the loader accepts any IDX pair placed
# under its directory.
DATASET_FILES: dict[str, tuple[str, str]] = {
    "mnist": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "fashion_mnist": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "emnist_digits": (
        "emnist-digits-train-images-idx3-ubyte",
        "emnist-digits-train-labels-idx1-ubyte",
    ),
    "latin_ocr": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
}
DATASET_NAMES = (*DATASET_FILES, "glyphs")  # every name load_named_dataset accepts

_GLYPHS_COUNT = 1800  # images in the built-in ``glyphs`` set
_GLYPHS_SEED = 0  # its generator seed


def _find_file(directory: Path, stem: str) -> Path | None:
    for candidate in (directory / stem, directory / (stem + ".gz")):
        if candidate.exists():
            return candidate
    return None


def load_named_dataset(name: str, data_dir) -> RawImageSet:
    """Load a benchmark dataset by name from a data directory.

    ``glyphs`` is the built-in desk-scale set, ``glyphs(1800, 0)``, and needs
    no files on disk; ``data_dir`` is not read for it.
    """
    if name == "glyphs":
        images, labels = glyphs(_GLYPHS_COUNT, _GLYPHS_SEED)
        return RawImageSet(images=images, labels=labels.astype(np.int64),
                           class_count=_GLYPH_CLASSES)
    if name not in DATASET_FILES:
        raise ParameterError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    base = Path(data_dir) / name
    img_stem, lbl_stem = DATASET_FILES[name]
    img = _find_file(base, img_stem)
    lbl = _find_file(base, lbl_stem)
    if img is None or lbl is None:
        raise DataFormatError(
            f"dataset {name!r} not found: expected {base / img_stem}[.gz] and "
            f"{base / lbl_stem}[.gz]"
        )
    return load_idx(img, lbl)


# -- the glyph renderer ------------------------------------------------------
#
# Each class is a seven-segment digit drawn as anti-aliased strokes on a
# 28x28 canvas. Every sample gets its own affine distortion, endpoint
# jitter, stroke width and intensity, pixel noise, and with some
# probability one segment dropped or one extra segment added. The dropped
# and added segments turn some samples into another class's shape, so no
# model reaches 100%. Only numpy is used, and a seed gives the same bytes.

_GLYPH_SIDE = 28
_GLYPH_CLASSES = 10

# Seven segments in unit-box coordinates (x right, y down), as
# (horizontal?, fixed coordinate, start, end): a top, b upper right,
# c lower right, d bottom, e lower left, f upper left, g middle.
_SEGMENTS = np.array([
    (1, 0.15, 0.25, 0.75),
    (0, 0.75, 0.15, 0.50),
    (0, 0.75, 0.50, 0.85),
    (1, 0.85, 0.25, 0.75),
    (0, 0.25, 0.50, 0.85),
    (0, 0.25, 0.15, 0.50),
    (1, 0.50, 0.25, 0.75),
])
_DIGITS = ["abcdef", "bc", "abged", "abgcd", "fgbc", "afgcd", "afgedc", "abc",
           "abcdefg", "abfgcd"]
_MASKS = np.array([[s in segs for s in "abcdefg"] for segs in _DIGITS])

_P_DROP = 0.15  # drop one of the class's segments
_P_EXTRA = 0.25  # add one segment the class does not have
_NOISE = 0.2  # pixel noise standard deviation, on a [0, 1] intensity scale
_GLYPH_CHUNK = 1000  # images rendered per call of _render_glyphs


def glyphs(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (28, 28) uint8 images and balanced uint8 labels from ``seed``."""
    rng = np.random.default_rng(check_seed(seed))
    labels = rng.permutation(np.arange(count) % _GLYPH_CLASSES)
    images = np.empty((count, _GLYPH_SIDE, _GLYPH_SIDE), dtype=np.uint8)
    for lo in range(0, count, _GLYPH_CHUNK):
        images[lo:lo + _GLYPH_CHUNK] = _render_glyphs(labels[lo:lo + _GLYPH_CHUNK], rng)
    return images, labels.astype(np.uint8)


def _render_glyphs(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    side = _GLYPH_SIDE
    n = labels.shape[0]
    mask = _MASKS[labels].copy()
    for i in np.flatnonzero(rng.random(n) < _P_DROP):
        mask[i, rng.choice(np.flatnonzero(mask[i]))] = False
    for i in np.flatnonzero(rng.random(n) < _P_EXTRA):
        off = np.flatnonzero(~mask[i])
        if off.size:
            mask[i, rng.choice(off)] = True

    # Map every pixel back into the unit box through the inverse of a
    # per-sample affine distortion; the strokes stay axis-aligned there.
    angle = rng.normal(0.0, 0.2, n)
    scale = rng.uniform(0.75, 1.1, (n, 2)) * (side - 4)
    shear = rng.normal(0.0, 0.15, n)
    cos, sin = np.cos(angle), np.sin(angle)
    lin = np.empty((n, 2, 2))
    lin[:, 0, 0] = scale[:, 0] * cos
    lin[:, 0, 1] = scale[:, 1] * (shear * cos - sin)
    lin[:, 1, 0] = scale[:, 0] * sin
    lin[:, 1, 1] = scale[:, 1] * (shear * sin + cos)
    shift = side / 2 + rng.uniform(-2.5, 2.5, (n, 2))
    det = lin[:, 0, 0] * lin[:, 1, 1] - lin[:, 0, 1] * lin[:, 1, 0]
    inv = np.stack([lin[:, 1, 1], -lin[:, 0, 1], -lin[:, 1, 0], lin[:, 0, 0]], axis=1)
    inv = (inv / det[:, None]).reshape(n, 2, 2)
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    rel = np.stack([xx.ravel(), yy.ravel()])[None] - shift[:, :, None]  # (n, 2, P)
    unit = (inv @ rel).astype(np.float32) + np.float32(0.5)
    u, v = unit[:, None, 0], unit[:, None, 1]  # (n, 1, P)

    seg = _SEGMENTS[None] + np.concatenate(
        [np.zeros((n, 7, 1)), rng.normal(0.0, 0.03, (n, 7, 3))], axis=2)
    seg = seg.astype(np.float32)[..., None]  # (n, 7, 4, 1)
    horiz = _SEGMENTS[:, 0] == 1
    d2 = np.empty((n, 7, side * side), dtype=np.float32)
    for rows, along, across in ((horiz, u, v), (~horiz, v, u)):
        s = seg[:, rows]
        outside = np.maximum(np.maximum(s[:, :, 2] - along, along - s[:, :, 3]), 0.0)
        d2[:, rows] = outside * outside + (across - s[:, :, 1]) ** 2
    d2 += np.where(mask, 0.0, np.inf).astype(np.float32)[:, :, None]
    width = (rng.uniform(0.9, 1.8, n) / (side - 4))[:, None]
    img = np.exp(-d2.min(axis=1) / (width * width)) * rng.uniform(0.6, 1.0, n)[:, None]
    img += rng.normal(0.0, _NOISE, img.shape)
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8).reshape(n, side, side)
