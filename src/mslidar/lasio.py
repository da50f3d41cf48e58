"""Minimal LAS 1.2-1.4 reader and LAS 1.4 writer.

Covers exactly what the pipeline needs: point record formats 0-3 and
6-8 on read, format 6 on write, intensity or float32 extra-bytes
attributes as the reflectance source, and the four derived attributes
(refl_green_db, refl_nir_db, pndvi, h_norm) as extra-bytes on write.
Classification carries the 0/1 predicted label. A read tags every
point with the channel its caller names, or with the file's per-point
scanner-channel bits. No LAZ, no waveforms, no EVLRs.

Written files are deterministic: creation day/year are zeroed and no
timestamps appear anywhere, so identical clouds give identical bytes.
"""

import struct
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .errors import DataError

_GENERATING_SOFTWARE = b"mslidar"

# Fixed part of the point record, by point data record format.
_POINT_DTYPES = {
    0: [
        ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
        ("flags", "u1"), ("classification", "u1"), ("scan_angle", "i1"),
        ("user_data", "u1"), ("point_source_id", "<u2"),
    ],
}
_POINT_DTYPES[1] = _POINT_DTYPES[0] + [("gps_time", "<f8")]
_POINT_DTYPES[2] = _POINT_DTYPES[0] + [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]
_POINT_DTYPES[3] = _POINT_DTYPES[1] + [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]
_POINT_DTYPES[6] = [
    ("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"), ("intensity", "<u2"),
    ("returns", "u1"), ("flags", "u1"), ("classification", "u1"),
    ("user_data", "u1"), ("scan_angle", "<i2"), ("point_source_id", "<u2"),
    ("gps_time", "<f8"),
]
_POINT_DTYPES[7] = _POINT_DTYPES[6] + [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]
_POINT_DTYPES[8] = _POINT_DTYPES[7] + [("nir", "<u2")]

_HEADER_SIZES = {(1, 2): 227, (1, 3): 235, (1, 4): 375}
_INT32_MAX = np.iinfo(np.int32).max

# Extra-bytes data_type codes we accept (all we ever write is 9 = float32).
_EXTRA_DTYPES = {
    1: np.dtype("u1"), 2: np.dtype("i1"), 3: np.dtype("<u2"), 4: np.dtype("<i2"),
    5: np.dtype("<u4"), 6: np.dtype("<i4"), 7: np.dtype("<u8"), 8: np.dtype("<i8"),
    9: np.dtype("<f4"), 10: np.dtype("<f8"),
}

_VLR_HEADER = struct.Struct("<H16sHH32s")
_EXTRA_RECORD = struct.Struct("<2sBB32s4s24s24s24s24s24s32s")

# Derived attributes persisted as float32 extra-bytes, in write order.
_DERIVED_ATTRS = ("refl_green_db", "refl_nir_db", "pndvi", "h_norm")


def _cstr(raw: bytes) -> str:
    return raw.split(b"\x00", 1)[0].decode("ascii", errors="replace")


def _parse_extra_defs(path: Path, payload: bytes) -> list[tuple[str, np.dtype]]:
    if len(payload) % _EXTRA_RECORD.size != 0:
        raise DataError(f"{path}: extra-bytes VLR payload is not a multiple of 192 bytes")
    defs = []
    for off in range(0, len(payload), _EXTRA_RECORD.size):
        (_, data_type, _, name, *_rest) = _EXTRA_RECORD.unpack_from(payload, off)
        if data_type not in _EXTRA_DTYPES:
            raise DataError(f"{path}: unsupported extra-bytes data type {data_type}")
        defs.append((_cstr(name), _EXTRA_DTYPES[data_type]))
    return defs


def read_las(
    path,
    channel: int | str,
    reflectance_source: str = "intensity",
    label_source: str | None = None,
) -> PointCloud:
    """Read a LAS file into a PointCloud.

    Args:
        path: input file.
        channel: wavelength tag for every point (a Channel value), or
            "scanner" to read the per-point scanner-channel bits (point
            formats 6-8 only, as written by write_las).
        reflectance_source: "intensity" or the name of an extra-bytes
            attribute; its values are copied verbatim to reflectance_db,
            so the field must already hold decibels, every one finite.
        label_source: "classification" to copy the class into the label
            column (the low 5 bits of the classification byte in point
            formats 0-3, whose bits 5-7 are flags; the whole byte in 6-8),
            or None to leave labels absent.

    Raises:
        DataError: malformed or truncated header, a zero or non-finite
            scale or a non-finite offset, zero points, missing reflectance
            field, or a cloud that breaks a PointCloud invariant, such as
            a non-finite reflectance or an infinite refl_green_db or
            refl_nir_db (so ingest never writes an MST1 file its reader
            rejects); each with a distinct message naming the file.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 227 or raw[:4] != b"LASF":
        raise DataError(f"{path}: malformed LAS header (no LASF signature)")
    ver = (raw[24], raw[25])
    if ver not in _HEADER_SIZES:
        raise DataError(f"{path}: unsupported LAS version {ver[0]}.{ver[1]}")
    header_size, point_offset, n_vlrs = struct.unpack_from("<HII", raw, 94)
    point_format, point_len = struct.unpack_from("<BH", raw, 104)
    legacy_count = struct.unpack_from("<I", raw, 107)[0]
    scales = struct.unpack_from("<3d", raw, 131)
    offsets = struct.unpack_from("<3d", raw, 155)
    if len(raw) < header_size or header_size < _HEADER_SIZES[ver]:
        raise DataError(f"{path}: malformed LAS header (truncated)")
    if not (np.isfinite(scales + offsets).all() and all(scales)):
        raise DataError(
            f"{path}: bad LAS header scale {scales} or offset {offsets} "
            "(scales must be finite and non-zero, offsets finite)"
        )
    count = legacy_count
    if ver >= (1, 4):
        count = struct.unpack_from("<Q", raw, 247)[0]
        if count == 0:
            count = legacy_count
    if point_format >= 128:
        raise DataError(f"{path}: LAZ compression not supported")
    if point_format not in _POINT_DTYPES:
        raise DataError(f"{path}: unsupported point record format {point_format}")
    if count == 0:
        raise DataError(f"{path}: file contains zero points")

    # Walk the VLRs for extra-bytes attribute definitions.
    extra_defs: list[tuple[str, np.dtype]] = []
    off = header_size
    for _ in range(n_vlrs):
        if off + _VLR_HEADER.size > len(raw):
            raise DataError(f"{path}: malformed LAS header (VLR overruns file)")
        _, user_id, record_id, rec_len, _ = _VLR_HEADER.unpack_from(raw, off)
        off += _VLR_HEADER.size
        if _cstr(user_id) == "LASF_Spec" and record_id == 4:
            extra_defs = _parse_extra_defs(path, raw[off : off + rec_len])
        off += rec_len

    fields = _POINT_DTYPES[point_format] + extra_defs
    try:
        rec = np.dtype(fields)
        if rec.itemsize < point_len:  # unknown trailing bytes: skip them
            rec = np.dtype(fields + [("_pad", "V%d" % (point_len - rec.itemsize))])
    except ValueError as exc:  # a name given twice, e.g. an extra-bytes "X"
        raise DataError(f"{path}: bad extra-bytes attribute names ({exc})") from None
    if rec.itemsize > point_len:
        raise DataError(f"{path}: point record length {point_len} too small")
    if len(raw) < point_offset + count * point_len:
        raise DataError(
            f"{path}: truncated point data ({count} records declared)"
        )
    pts = np.frombuffer(raw, dtype=rec, count=count, offset=point_offset)

    with np.errstate(over="ignore"):  # an overflow is reported by validate below
        x = pts["X"] * scales[0] + offsets[0]
        y = pts["Y"] * scales[1] + offsets[1]
        z = pts["Z"] * scales[2] + offsets[2]

    if reflectance_source == "intensity":
        refl = pts["intensity"].astype(np.float32)
    else:
        if reflectance_source not in [n for n, _ in extra_defs]:
            raise DataError(
                f"{path}: reflectance field {reflectance_source!r} not present "
                "(intensity or a declared extra-bytes attribute required)"
            )
        refl = pts[reflectance_source].astype(np.float32)

    if channel == "scanner":
        if point_format < 6:
            raise DataError(
                f"{path}: point format {point_format} has no scanner-channel bits"
            )
        chan = (pts["flags"] >> 4) & 0x3
        if not np.all(chan <= 1):
            raise DataError(f"{path}: scanner channel exceeds known wavelengths")
        chan = chan.astype(np.uint8)
    else:
        chan = np.full(count, int(channel), dtype=np.uint8)

    cols: dict[str, np.ndarray] = {}
    for attr in _DERIVED_ATTRS:
        if attr in [n for n, _ in extra_defs]:
            cols[attr] = pts[attr].astype(np.float32)
    if label_source == "classification":
        # formats 0-3 keep the synthetic, key-point and withheld flags in
        # bits 5-7 of the classification byte; 6-8 give the class all 8
        classes = pts["classification"]
        cols["label"] = classes & 0x1F if point_format < 6 else classes.copy()
    cloud = PointCloud(x=x, y=y, z=z, channel=chan, reflectance_db=refl, **cols)
    try:
        cloud.validate()  # e.g. coordinates that overflow, an ASPRS class code
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return cloud


def _extra_record(name: str) -> bytes:
    zeros24 = b"\x00" * 24
    return _EXTRA_RECORD.pack(
        b"\x00\x00", 9, 0, name.encode("ascii").ljust(32, b"\x00"),
        b"\x00" * 4, zeros24, zeros24, zeros24, zeros24, zeros24,
        b"decibel/unitless float32".ljust(32, b"\x00"),
    )


def write_las(
    cloud: PointCloud, path, scale: float = 0.001,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    """Write a LAS 1.4 / point format 6 file.

    Coordinates are quantized to `scale` meters. The scanner-channel
    bits carry the wavelength tag; classification carries the 0/1 label
    when present. reflectance_db is stored as a float32 extra-bytes
    attribute named "reflectance"; refl_green_db, refl_nir_db, pndvi and
    h_norm follow, each under its own name, when the column is present;
    then any caller-supplied `extra` float columns (e.g. an error flag).
    Output bytes depend only on the cloud contents (no timestamps). An
    axis that spans more than int32 steps of `scale` is a DataError,
    raised before the file is opened.
    """
    path = Path(path)
    if cloud.count == 0:
        raise DataError("refusing to write a LAS file with zero points")
    extra = extra or {}
    extra_names = []
    if cloud.has("reflectance_db"):
        extra_names.append("reflectance")
    extra_names += [a for a in _DERIVED_ATTRS if cloud.has(a)]
    for name, values in extra.items():
        if np.asarray(values).shape[0] != cloud.count:
            raise DataError(f"extra attribute {name!r} length mismatch")
        extra_names.append(name)

    offs = (
        float(np.floor(cloud.x.min())),
        float(np.floor(cloud.y.min())),
        float(np.floor(cloud.z.min())),
    )
    # the quantized coordinates are int32 from the offset up: refuse a span they would wrap
    for axis, off in zip("xyz", offs):
        span = float(getattr(cloud, axis).max()) - off
        if np.round(span / scale) > _INT32_MAX:
            raise DataError(
                f"{axis} spans {span:.3f} m, more than LAS int32 coordinates hold at "
                f"scale {scale} ({_INT32_MAX * scale:.3f} m)"
            )
    ix = np.round((cloud.x - offs[0]) / scale).astype(np.int32)
    iy = np.round((cloud.y - offs[1]) / scale).astype(np.int32)
    iz = np.round((cloud.z - offs[2]) / scale).astype(np.int32)

    point_len = 30 + 4 * len(extra_names)
    fields = list(_POINT_DTYPES[6]) + [(n, "<f4") for n in extra_names]
    rec = np.zeros(cloud.count, dtype=np.dtype(fields))
    rec["X"], rec["Y"], rec["Z"] = ix, iy, iz
    rec["returns"] = 0x11  # single return: return 1 of 1
    rec["flags"] = (cloud.channel.astype(np.uint8) & 0x3) << 4
    if cloud.has("label"):
        rec["classification"] = cloud.label
    if cloud.has("reflectance_db"):
        rec["reflectance"] = cloud.reflectance_db
    for attr in _DERIVED_ATTRS:
        if cloud.has(attr):
            rec[attr] = getattr(cloud, attr)
    for name, values in extra.items():
        rec[name] = np.asarray(values, dtype=np.float32)

    vlrs = b""
    n_vlrs = 0
    if extra_names:
        payload = b"".join(_extra_record(n) for n in extra_names)
        vlrs = _VLR_HEADER.pack(
            0, b"LASF_Spec".ljust(16, b"\x00"), 4, len(payload),
            b"extra-bytes attribute table".ljust(32, b"\x00"),
        ) + payload
        n_vlrs = 1

    header_size = _HEADER_SIZES[(1, 4)]
    point_offset = header_size + len(vlrs)
    legacy = cloud.count if cloud.count < 2**32 else 0

    hdr = bytearray(header_size)
    hdr[0:4] = b"LASF"
    hdr[24] = 1
    hdr[25] = 4
    hdr[26:58] = _GENERATING_SOFTWARE.ljust(32, b"\x00")  # system identifier
    hdr[58:90] = _GENERATING_SOFTWARE.ljust(32, b"\x00")
    # creation day/year stay zero: output must not depend on wall time
    struct.pack_into("<HIIBH", hdr, 94, header_size, point_offset, n_vlrs, 6, point_len)
    struct.pack_into("<I", hdr, 107, legacy)
    struct.pack_into("<3d", hdr, 131, scale, scale, scale)
    struct.pack_into("<3d", hdr, 155, *offs)
    struct.pack_into(
        "<6d", hdr, 179,
        ix.max() * scale + offs[0], ix.min() * scale + offs[0],
        iy.max() * scale + offs[1], iy.min() * scale + offs[1],
        iz.max() * scale + offs[2], iz.min() * scale + offs[2],
    )
    struct.pack_into("<Q", hdr, 247, cloud.count)
    if legacy:
        struct.pack_into("<I", hdr, 111, legacy)   # legacy by-return[0]
        struct.pack_into("<Q", hdr, 255, cloud.count)  # by-return[0]

    with path.open("wb") as fh:
        fh.write(hdr)
        fh.write(vlrs)
        fh.write(rec)  # the record array's own buffer, not a bytes copy of it
