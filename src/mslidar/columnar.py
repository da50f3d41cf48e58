"""Portable "MST1" columnar point-cloud file format.

Layout, all little-endian, no padding:

    offset  size  field
    0       4     magic b"MST1"
    4       2     format version (currently 1), u16
    6       2     optional-column presence bitmap, u16
    8       8     point count, u64
    16      4     CRS note byte length L, u32
    20      L     CRS note, UTF-8
    20+L    ...   contiguous column arrays

Column arrays follow in fixed order: x, y, z (f64), channel (u8), then
every optional column whose bit is set in the bitmap, in the canonical
order of ``cloud.OPTIONAL_COLUMNS`` (f32 attributes, u8 enums/bools).
Bit i of the bitmap corresponds to the i-th canonical optional column.
The format is bit-exact: read(write(c)) reproduces every array byte
for byte, including NaN payloads.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .cloud import OPTIONAL_COLUMNS, PointCloud
from .errors import DataError

MAGIC = b"MST1"
VERSION = 1

_HEADER = struct.Struct("<4sHHQI")
_CANONICAL = tuple(OPTIONAL_COLUMNS)  # bit order of the presence bitmap


def _storage_dtype(name: str) -> np.dtype:
    dtype = OPTIONAL_COLUMNS[name]
    return np.dtype(np.uint8) if dtype == np.dtype(bool) else dtype


def write_columnar(cloud: PointCloud, path) -> None:
    """Write a cloud to `path` in MST1 format."""
    path = Path(path)
    bitmap = 0
    for i, name in enumerate(_CANONICAL):
        if cloud.has(name):
            bitmap |= 1 << i
    note = cloud.crs_note.encode("utf-8")
    # header, note and columns go straight to the file, one column at a time
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, bitmap, cloud.count, len(note)))
        fh.write(note)
        for name in ("x", "y", "z", "channel"):
            fh.write(np.ascontiguousarray(getattr(cloud, name)))
        for name in _CANONICAL:
            if cloud.has(name):
                col = getattr(cloud, name).astype(_storage_dtype(name), copy=False)
                fh.write(np.ascontiguousarray(col))


def read_columnar(path) -> PointCloud:
    """Read an MST1 file; bit-exact inverse of :func:`write_columnar`.

    Each column is read straight from the file into its own array. The
    cloud must pass :meth:`PointCloud.validate`; DataError otherwise.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise DataError(f"{path}: file too short for an MST1 header")
            magic, version, bitmap, count, note_len = _HEADER.unpack(fh.read(_HEADER.size))
            if magic != MAGIC:
                raise DataError(f"{path}: bad magic {magic!r}, not an MST1 file")
            if version != VERSION:
                raise DataError(
                    f"{path}: unsupported MST1 version {version} (reader supports {VERSION})"
                )
            if bitmap >> len(_CANONICAL):
                raise DataError(f"{path}: column bitmap {bitmap:#06x} sets unknown columns")
            if size < _HEADER.size + note_len:
                raise DataError(f"{path}: truncated CRS note")
            try:
                note = fh.read(note_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: CRS note is not UTF-8 ({exc})") from None

            names = ["x", "y", "z", "channel"]
            dtypes = [np.dtype("<f8")] * 3 + [np.dtype(np.uint8)]
            for i, name in enumerate(_CANONICAL):
                if bitmap & (1 << i):
                    names.append(name)
                    dtypes.append(_storage_dtype(name).newbyteorder("<"))
            expected = _HEADER.size + note_len + count * sum(d.itemsize for d in dtypes)
            if size != expected:
                raise DataError(
                    f"{path}: column length mismatch, header declares {count} points "
                    f"({expected} bytes) but file holds {size} bytes"
                )

            cols = {}
            for name, dtype in zip(names, dtypes):
                cols[name] = np.empty(count, dtype=dtype)
                if fh.readinto(cols[name]) != cols[name].nbytes:
                    raise DataError(f"{path}: file shrank while it was read")
                if OPTIONAL_COLUMNS.get(name) == np.dtype(bool):
                    cols[name] = cols[name].astype(bool)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    cloud = PointCloud(crs_note=note, **cols)
    try:
        cloud.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return cloud


def write_labels(labels: np.ndarray, path) -> None:
    """Write labels as :func:`read_labels` reads them: one per line, in
    point order."""
    Path(path).write_text("\n".join(map(str, labels.tolist())) + "\n", encoding="utf-8")


def read_labels(path) -> np.ndarray:
    """Read a label file: plain text, one 0 (non-tree) or 1 (tree) per line.

    Rows align with the points of a named columnar file, which lets
    predictions from other tools be scored without conversion. Any other
    value is a DataError; :func:`check_label_count` checks the count.
    """
    path = Path(path)
    values = []
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read labels from {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: expected an integer label, got {line!r}"
            ) from None
        if value not in (0, 1):
            raise DataError(f"{path}:{lineno}: label {value} is not 0 or 1")
        values.append(value)
    return np.asarray(values, dtype=np.uint8)


def check_label_count(labels: np.ndarray, count: int, path) -> np.ndarray:
    """`labels`, read from `path`, if there is one per point of `count`."""
    if labels.shape[0] != count:
        raise DataError(f"{path}: {labels.shape[0]} labels for {count} points")
    return labels
