import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar.cloud import PointCloud
from mslidar.columnar import (check_label_count, read_columnar, read_labels, write_columnar,
                              write_labels)
from mslidar.errors import DataError

from conftest import peak_traced_bytes, random_cloud


def test_roundtrip_preserves_every_column_bit_exactly(tmp_path):
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, n=257)
    cloud = cloud.with_column("reflectance_db", rng.normal(size=257).astype(np.float32))
    cloud = cloud.with_column("h_norm", rng.normal(size=257).astype(np.float32))
    cloud = dataclasses.replace(cloud, crs_note="EPSG:31256")
    path = tmp_path / "cloud.mst"
    write_columnar(cloud, path)
    back = read_columnar(path)
    assert back.count == cloud.count
    assert back.crs_note == "EPSG:31256"
    assert back.present_columns == cloud.present_columns
    for name in ("x", "y", "z", "channel", "label", "reflectance_db", "h_norm"):
        a, b = getattr(cloud, name), getattr(back, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_written_file_is_header_note_then_columns(tmp_path):
    # the layout of the module docstring, assembled independently
    rng = np.random.default_rng(6)
    n = 33
    cloud = random_cloud(rng, n=n)   # reflectance_db and label
    cloud = cloud.with_column("ground_flag", rng.integers(0, 2, n).astype(bool))
    cloud = cloud.with_column("pndvi", rng.uniform(-1, 1, n).astype(np.float32))
    cloud = dataclasses.replace(cloud, crs_note="EPSG:31256 \u00b5m")
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    note = "EPSG:31256 \u00b5m".encode("utf-8")
    bitmap = 0b1000111   # reflectance_db, label, ground_flag and pndvi
    want = b"MST1" + struct.pack("<HHQI", 1, bitmap, n, len(note)) + note
    want += cloud.x.astype("<f8").tobytes() + cloud.y.astype("<f8").tobytes()
    want += cloud.z.astype("<f8").tobytes() + cloud.channel.astype("u1").tobytes()
    want += cloud.reflectance_db.astype("<f4").tobytes() + cloud.label.astype("u1").tobytes()
    want += cloud.ground_flag.astype("u1").tobytes() + cloud.pndvi.astype("<f4").tobytes()
    assert path.read_bytes() == want


def test_roundtrip_preserves_nan_payloads(tmp_path):
    cloud = PointCloud(
        x=np.array([0.0, 1.0]), y=np.zeros(2), z=np.zeros(2),
        channel=np.zeros(2, np.uint8),
        pndvi=np.array([np.nan, 0.5], np.float32),
    )
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    back = read_columnar(path)
    assert np.isnan(back.pndvi[0]) and back.pndvi[1] == np.float32(0.5)


def test_identical_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, n=64)
    p1, p2 = tmp_path / "a.mst", tmp_path / "b.mst"
    write_columnar(cloud, p1)
    write_columnar(cloud, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_holds_each_column_once(tmp_path):
    """Reading allocates at most 1.25 times the file's column bytes, the
    returned columns included: each column is read straight into its own
    array. Holding the whole file as bytes while copying the columns out
    of it took about 2.3 times."""
    n = 50_000
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, n=n)
    for name in ("ground_flag", "h_norm", "refl_green_db", "refl_nir_db", "pndvi"):
        values = rng.uniform(-1, 1, n)
        cloud = cloud.with_column(name, values > 0 if name == "ground_flag" else values)
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    read_columnar(path)
    column_bytes = path.stat().st_size - 20
    assert column_bytes == 47 * n
    assert peak_traced_bytes(lambda: read_columnar(path)) < 1.25 * column_bytes


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.mst"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError, match="magic"):
        read_columnar(path)


def test_unsupported_version_rejected(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "v9.mst"
    write_columnar(random_cloud(rng, n=4), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        read_columnar(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "t.mst"
    write_columnar(random_cloud(rng, n=100), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(DataError, match="truncated"):
        read_columnar(path)


def test_read_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n1\n0\n")
    labels = check_label_count(read_labels(path), 4, path)
    assert labels.dtype == np.uint8
    assert labels.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("labels", [[0, 1, 1, 0, 1], [1], []])
def test_write_labels_read_labels_round_trip(tmp_path, labels):
    labels = np.array(labels, np.uint8)
    path = tmp_path / "labels.txt"
    write_labels(labels, path)
    back = check_label_count(read_labels(path), len(labels), path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, labels)


def test_read_labels_count_mismatch(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n")
    with pytest.raises(DataError, match="2 labels for 3 points"):
        check_label_count(read_labels(path), 3, path)


def test_read_labels_rejects_bad_tokens(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\nspruce\n")
    with pytest.raises(DataError, match="spruce"):
        read_labels(path)
    for bad in ("300", "-1"):
        path.write_text(f"0\n{bad}\n")
        with pytest.raises(DataError, match=f"labels.txt:2: label {bad} is not 0 or 1"):
            read_labels(path)
    path.write_bytes(b"0\n\xff\n")   # not UTF-8
    with pytest.raises(DataError, match="cannot read labels"):
        read_labels(path)
    missing = tmp_path / "nope.txt"
    with pytest.raises(DataError, match="cannot read"):
        read_labels(missing)


def test_non_utf8_crs_note_rejected(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "note.mst"
    write_columnar(dataclasses.replace(random_cloud(rng, n=4), crs_note="EPSG:31256"), path)
    path.write_bytes(path.read_bytes().replace(b"EPSG:31256", b"EPSG:\xff1256"))
    with pytest.raises(DataError, match="CRS note is not UTF-8"):
        read_columnar(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**31 - 1), st.booleans())
def test_roundtrip_property(tmp_path_factory, n, seed, with_label):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n=n, with_label=with_label)
    path = tmp_path_factory.mktemp("rt") / "c.mst"
    write_columnar(cloud, path)
    back = read_columnar(path)
    np.testing.assert_array_equal(back.xyz, cloud.xyz)
    assert back.present_columns == cloud.present_columns
