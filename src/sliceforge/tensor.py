"""The "TSR1" binary array format, 8-bit PGM export and atomic file writes.

A TSR1 file holds one finite float32 array of rank 1..4, row-major, in the
layout batch x channels x height x width: the magic ``TSR1``, a u32 rank, one
u32 per dim, then the little-endian float32 payload. The model format (SFM1)
embeds TSR1 records through ``_encode_array`` and ``_decode_array``, which
enforce finiteness for both formats: encoding a NaN or infinity raises
NumericError, and decoding one raises FormatError. Every artifact the package
writes goes through ``atomic_open``.

JSON artifacts are spelled from their dataclasses by one hook: every JSON
writer passes ``json_fields`` as ``default=``, so a dataclass anywhere in a
document is written as its fields (``dataclasses.asdict``). The JSON text
artifacts are strict JSON: ``format_json`` refuses a non-finite number.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError, NumericError, ShapeError

MAGIC = b"TSR1"
MAX_RANK = 4
_MAX_ELEMENTS = 2 ** 31  # keeps every dim and offset within u32


def _validate_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_RANK:
        raise ShapeError(f"rank must be 1..{MAX_RANK}, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ShapeError(f"all dims must be >= 1, got {dims}")
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise ShapeError(f"element count {count} exceeds limit {_MAX_ELEMENTS}")
    return dims


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` on a temporary name beside ``path`` that
    replaces it once the block completes; a write that raises keeps the old
    file and removes the temporary. No fsync: guards partial files only."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def json_fields(obj) -> dict:
    """The ``default=`` hook of every JSON writer: a dataclass as its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def format_json(doc) -> str:
    """``doc`` as sorted JSON, indented by one space. Strict JSON has no
    spelling for a NaN or an infinity, so one anywhere in ``doc`` raises
    NumericError instead of writing the bare token ``NaN`` or ``Infinity``."""
    try:
        return json.dumps(doc, indent=1, sort_keys=True, default=json_fields, allow_nan=False)
    except ValueError as exc:  # allow_nan's refusal: the documents written hold no cycles
        raise NumericError(f"cannot write JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """``format_json(doc)`` plus a newline."""
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(format_json(doc) + "\n")


def write_array(path, arr: np.ndarray) -> None:
    """Serialize an array in TSR1 form: magic, u32 rank, u32 dims, f32 payload."""
    with atomic_open(path, "wb") as fh:
        fh.write(_encode_array(arr, path))


def _encode_array(arr: np.ndarray, label) -> bytes:
    """One TSR1 record of ``arr`` as float32; ``label`` names it in errors."""
    arr = np.asarray(arr, dtype=np.float32)
    dims = _validate_dims(arr.shape)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"refusing to write non-finite values to {label}")
    header = MAGIC + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims)
    return header + arr.astype("<f4", copy=False).tobytes()


def read_array(path) -> np.ndarray:
    """Read a TSR1 file back into a float32 array, bit-exactly."""
    blob = Path(path).read_bytes()
    arr, used = _decode_array(blob, path)
    if used != len(blob):
        raise FormatError(f"{path}: {len(blob) - used} trailing bytes after payload")
    return arr


def _decode_header(blob: bytes, label, offset: int = 0) -> tuple[tuple[int, ...], int]:
    """Dims of the TSR1 record at ``offset`` and the offset of its payload."""
    if len(blob) < offset + 8:
        raise FormatError(f"{label}: truncated header")
    if blob[offset:offset + 4] != MAGIC:
        raise FormatError(f"{label}: bad magic {blob[offset:offset + 4]!r}")
    (rank,) = struct.unpack_from("<I", blob, offset + 4)
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"{label}: rank {rank} outside 1..{MAX_RANK}")
    need = offset + 8 + 4 * rank
    if len(blob) < need:
        raise FormatError(f"{label}: truncated dim list")
    try:
        return _validate_dims(struct.unpack_from(f"<{rank}I", blob, offset + 8)), need
    except ShapeError as exc:
        raise FormatError(f"{label}: {exc}") from exc


def _decode_array(blob: bytes, label, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode the TSR1 record at ``offset``; returns it and the offset past it."""
    dims, need = _decode_header(blob, label, offset)
    count = int(np.prod(dims))
    end = need + 4 * count
    if len(blob) < end:
        raise FormatError(f"{label}: truncated payload ({len(blob) - need} of {4 * count} bytes)")
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=need)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{label}: non-finite values in payload")
    return arr.reshape(dims).copy(), end


def read_header(path) -> tuple[int, ...]:
    """Dims of a TSR1 file without loading the payload."""
    with open(path, "rb") as fh:
        return _decode_header(fh.read(8 + 4 * MAX_RANK), path)[0]


def write_pgm(path, image: np.ndarray) -> None:
    """Export a 2-D array as an 8-bit binary PGM (P5), min-max scaled."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"PGM export needs a 2-D array, got shape {image.shape}")
    lo, hi = float(image.min()), float(image.max())
    if hi > lo:
        scaled = (image - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(image)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    h, w = image.shape
    with atomic_open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
