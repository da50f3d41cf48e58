"""Fault injection over the MST1 and LAS readers, through the CLI.

Every damaged input must exit with its category code, never with 1
(internal): here each is a data error (exit 3) whose one
``error[data]: <file>: ...`` line names the damaged file. MST1 files
enter through `subsample`, LAS files through `ingest`.
"""

import dataclasses
import struct

import numpy as np
import pytest

from mslidar.cli import main
from mslidar.columnar import write_columnar
from mslidar.lasio import write_las

from conftest import random_cloud

N = 300
NOTE = "EPSG:31256"


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, n=N)
    cloud = cloud.with_column("h_norm", rng.uniform(0, 5, N).astype(np.float32))
    return dataclasses.replace(cloud, crs_note=NOTE)


def _mst_sections(cloud) -> dict[str, int]:
    """End offset of each MST1 section: header, CRS note, every column."""
    ends = {"header": 20, "note": 20 + len(NOTE.encode())}
    end = ends["note"]
    for name in ("x", "y", "z", "channel", *cloud.present_columns):
        end += N * cloud.column(name).dtype.itemsize
        ends[name] = end
    return ends


def _rejects(path, capsys, stage, *argv) -> None:
    option = "--las" if stage == "ingest" else "--in"
    rc = main([stage, option, str(path), "--out", str(path.with_name("o.mst")), *argv])
    err = capsys.readouterr().err
    assert (rc, err.startswith(f"error[data]: {path}: ")) == (3, True), err


MST_CUTS = ["empty", "mid-header", "header", "note", "x", "y", "z", "channel",
            "reflectance_db", "label", "last-byte"]


@pytest.mark.parametrize("cut", MST_CUTS)
def test_truncated_mst1_at_each_section_boundary(cloud, tmp_path, capsys, cut):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    raw = path.read_bytes()
    ends = _mst_sections(cloud)
    assert ends[cloud.present_columns[-1]] == len(raw)
    ends.update({"empty": 0, "mid-header": 10, "last-byte": len(raw) - 1})
    path.write_bytes(raw[:ends[cut]])
    _rejects(path, capsys, "subsample")


MST_DAMAGE = {
    "magic": lambda raw: b"MST2" + raw[4:],
    "version": lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
    "bitmap-known-bit": lambda raw: raw[:6] + struct.pack(
        "<H", struct.unpack_from("<H", raw, 6)[0] | 1 << 2) + raw[8:],
    "bitmap-unknown-bit": lambda raw: raw[:6] + struct.pack(
        "<H", struct.unpack_from("<H", raw, 6)[0] | 1 << 15) + raw[8:],
    "huge-count": lambda raw: raw[:8] + struct.pack("<Q", 2**63) + raw[16:],
    "huge-note-length": lambda raw: raw[:16] + struct.pack("<I", 2**32 - 1) + raw[20:],
}


@pytest.mark.parametrize("damage", MST_DAMAGE)
def test_corrupt_mst1_header(cloud, tmp_path, capsys, damage):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    path.write_bytes(MST_DAMAGE[damage](path.read_bytes()))
    _rejects(path, capsys, "subsample")


@pytest.mark.parametrize("column, value", [("x", np.nan), ("y", np.inf), ("z", -np.inf)])
def test_non_finite_mst1_coordinate(cloud, tmp_path, capsys, column, value):
    coords = getattr(cloud, column).copy()
    coords[3] = value
    path = tmp_path / "c.mst"
    write_columnar(dataclasses.replace(cloud, **{column: coords}), path)
    _rejects(path, capsys, "subsample")


# write_las gives a LAS 1.4 header of 375 bytes, then one extra-bytes VLR
# (a 54-byte record header and 192 bytes per attribute), then the points.
HEADER, VLR_HEADER = 375, 54


def _point_offset(raw: bytes) -> int:
    return struct.unpack_from("<I", raw, 96)[0]


LAS_DAMAGE = {
    "header-short": lambda raw: raw[:100],
    "header-cut": lambda raw: raw[:300],
    "vlr-header-cut": lambda raw: raw[:HEADER + 20],
    "vlr-payload-cut": lambda raw: raw[:HEADER + VLR_HEADER + 100],
    "points-cut": lambda raw: raw[:_point_offset(raw) + 10],
    "last-byte": lambda raw: raw[:-1],
    "nan-scale": lambda raw: raw[:131] + struct.pack("<d", np.nan) + raw[139:],
    "inf-offset": lambda raw: raw[:163] + struct.pack("<d", np.inf) + raw[171:],
    "zero-scale": lambda raw: raw[:147] + struct.pack("<d", 0.0) + raw[155:],
    "overflowing-scale": lambda raw: raw[:131] + struct.pack("<d", 1e308) + raw[139:],
    "asprs-class-code": lambda raw: raw[:_point_offset(raw) + 16] + b"\x02"
    + raw[_point_offset(raw) + 17:],
}


@pytest.mark.parametrize("damage", LAS_DAMAGE)
def test_damaged_las(cloud, tmp_path, capsys, damage):
    path = tmp_path / "c.las"
    write_las(cloud, path)
    path.write_bytes(LAS_DAMAGE[damage](path.read_bytes()))
    _rejects(path, capsys, "ingest", "--channel", "scanner",
             "--reflectance-source", "reflectance", "--label-source", "classification")
