"""Seeded benchmark inputs: procedural glyph images written as gzip IDX pairs.

Each class is a seven-segment digit drawn as anti-aliased strokes on a
28x28 canvas. Every sample gets its own affine distortion, endpoint jitter,
stroke width and intensity, pixel noise, and with some probability one
segment dropped or one extra segment added. The dropped and added segments
turn some samples into another class's shape, so no model reaches 100%
and a change that breaks training still moves the accuracy.

Only numpy is needed; the same seed gives byte-identical files.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10

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

P_DROP = 0.15  # drop one of the class's segments
P_EXTRA = 0.25  # add one segment the class does not have
NOISE = 0.2  # pixel noise standard deviation, on a [0, 1] intensity scale
_CHUNK = 1000


def glyphs(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (28, 28) uint8 images and balanced labels from ``seed``."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(count) % CLASSES)
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    for lo in range(0, count, _CHUNK):
        images[lo:lo + _CHUNK] = _render(labels[lo:lo + _CHUNK], rng)
    return images, labels.astype(np.uint8)


def _render(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = labels.shape[0]
    mask = _MASKS[labels].copy()
    for i in np.flatnonzero(rng.random(n) < P_DROP):
        mask[i, rng.choice(np.flatnonzero(mask[i]))] = False
    for i in np.flatnonzero(rng.random(n) < P_EXTRA):
        off = np.flatnonzero(~mask[i])
        if off.size:
            mask[i, rng.choice(off)] = True

    # Map every pixel back into the unit box through the inverse of a
    # per-sample affine distortion; the strokes stay axis-aligned there.
    angle = rng.normal(0.0, 0.2, n)
    scale = rng.uniform(0.75, 1.1, (n, 2)) * (SIDE - 4)
    shear = rng.normal(0.0, 0.15, n)
    cos, sin = np.cos(angle), np.sin(angle)
    lin = np.empty((n, 2, 2))
    lin[:, 0, 0] = scale[:, 0] * cos
    lin[:, 0, 1] = scale[:, 1] * (shear * cos - sin)
    lin[:, 1, 0] = scale[:, 0] * sin
    lin[:, 1, 1] = scale[:, 1] * (shear * sin + cos)
    shift = SIDE / 2 + rng.uniform(-2.5, 2.5, (n, 2))
    det = lin[:, 0, 0] * lin[:, 1, 1] - lin[:, 0, 1] * lin[:, 1, 0]
    inv = np.stack([lin[:, 1, 1], -lin[:, 0, 1], -lin[:, 1, 0], lin[:, 0, 0]], axis=1)
    inv = (inv / det[:, None]).reshape(n, 2, 2)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE] + 0.5
    rel = np.stack([xx.ravel(), yy.ravel()])[None] - shift[:, :, None]  # (n, 2, P)
    unit = (inv @ rel).astype(np.float32) + np.float32(0.5)
    u, v = unit[:, None, 0], unit[:, None, 1]  # (n, 1, P)

    seg = _SEGMENTS[None] + np.concatenate(
        [np.zeros((n, 7, 1)), rng.normal(0.0, 0.03, (n, 7, 3))], axis=2)
    seg = seg.astype(np.float32)[..., None]  # (n, 7, 4, 1)
    horiz = _SEGMENTS[:, 0] == 1
    d2 = np.empty((n, 7, SIDE * SIDE), dtype=np.float32)
    for rows, along, across in ((horiz, u, v), (~horiz, v, u)):
        s = seg[:, rows]
        outside = np.maximum(np.maximum(s[:, :, 2] - along, along - s[:, :, 3]), 0.0)
        d2[:, rows] = outside * outside + (across - s[:, :, 1]) ** 2
    d2 += np.where(mask, 0.0, np.inf).astype(np.float32)[:, :, None]
    width = (rng.uniform(0.9, 1.8, n) / (SIDE - 4))[:, None]
    img = np.exp(-d2.min(axis=1) / (width * width)) * rng.uniform(0.6, 1.0, n)[:, None]
    img += rng.normal(0.0, NOISE, img.shape)
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8).reshape(n, SIDE, SIDE)


def write_idx_pair(directory, images: np.ndarray, labels: np.ndarray) -> tuple[Path, Path]:
    """Write gzip IDX files under the names the ``latin_ocr`` dataset expects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    img_path = directory / "train-images-idx3-ubyte.gz"
    lbl_path = directory / "train-labels-idx1-ubyte.gz"
    n, h, w = images.shape
    # mtime=0 keeps the gzip header free of timestamps
    with gzip.GzipFile(img_path, "wb", compresslevel=1, mtime=0) as fh:
        fh.write(struct.pack(">iiii", 2051, n, h, w) + images.tobytes())
    with gzip.GzipFile(lbl_path, "wb", compresslevel=1, mtime=0) as fh:
        fh.write(struct.pack(">ii", 2049, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path
