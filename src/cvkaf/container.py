"""Versioned binary container for models and dataset caches.

Layout: 4 magic bytes, uint32 little-endian format version, uint64
little-endian header length, a UTF-8 JSON header (sorted keys), then the
raw bytes of each array in the order listed under ``header["arrays"]``.
Arrays are stored C-contiguous in their native dtype, so a write/read
round trip is bit-exact. The header carries only JSON-serializable
metadata; anything numeric of consequence travels as an array.

A reader names the one format version it reads. A file it cannot read, a
file whose bytes do not match its header, and a file of any other version,
older or newer, are each a :class:`DataFormatError` naming the file; the
last asks for the file to be rebuilt, and no older layout is translated.

No timestamps are written anywhere: identical inputs produce identical
files byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_HEADER_FIXED = 16  # magic + version + header length


def write_container(path, magic: bytes, version: int, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        # ascontiguousarray turns a 0-d array into shape (1,): record the original
        shape = np.shape(arrays[name])
        entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(shape)})
        blobs.append(arr)
    header = dict(meta)
    header["arrays"] = entries
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(int(version).to_bytes(4, "little"))
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob.data)  # the array's own buffer: no bytes copy


def read_container(path, magic: bytes, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container of format ``version``; a file of any other version is a
    :class:`DataFormatError` asking for it to be rebuilt. Each array gets its own new buffer."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_from(path, fh, os.fstat(fh.fileno()).st_size, magic, version)
    except OSError as exc:
        raise DataFormatError(f"cannot read container {path}: {exc}") from exc


def _read_from(path: Path, fh, size: int, magic: bytes, version: int):
    fixed = fh.read(_HEADER_FIXED)
    if len(fixed) < _HEADER_FIXED or fixed[:4] != magic:
        raise DataFormatError(f"{path} is not a {magic.decode('ascii', 'replace')} container")
    found = int.from_bytes(fixed[4:8], "little")
    if found != version:
        raise DataFormatError(
            f"{path} has format version {found}, expected {version}; rebuild the file")
    hlen = int.from_bytes(fixed[8:16], "little")
    end = _HEADER_FIXED + hlen
    if end > size:
        raise DataFormatError(f"{path} is truncated: header claims {hlen} bytes")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path} has a corrupted header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise DataFormatError(f"{path} has a corrupted header: unexpected JSON structure")
    arrays = {}
    offset = end
    for entry in header.pop("arrays", []):
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path} has a corrupted array entry {entry!r}") from exc
        # only plain numeric data is ever written; bytes read into an object
        # array would become pointers
        if dtype.kind not in "biufc" or any(d < 0 for d in shape):
            raise DataFormatError(f"{path} has an unusable array entry {entry!r}")
        nbytes = dtype.itemsize * math.prod(shape)
        if offset + nbytes > size:
            raise DataFormatError(f"{path} is truncated in array {name!r}")
        arr = np.empty(shape, dtype=dtype)
        if fh.readinto(arr.data) != nbytes:
            raise DataFormatError(f"{path} is truncated in array {name!r}")
        arrays[name] = arr
        offset += nbytes
    if offset != size:
        raise DataFormatError(f"{path} has {size - offset} trailing bytes")
    return header, arrays
