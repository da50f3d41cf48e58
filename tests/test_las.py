import struct

import numpy as np
import pytest

from mslidar.cloud import Channel, Label, PointCloud
from mslidar.errors import DataError
from mslidar.lasio import _POINT_DTYPES, read_las, write_las

from conftest import peak_traced_bytes, random_cloud


def las_cloud(n=40, seed=2):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n=n)
    cloud = cloud.with_column(
        "reflectance_db", rng.uniform(-25, 0, n).astype(np.float32))
    cloud.channel[:] = rng.integers(0, 2, n)
    return cloud


def test_roundtrip_coordinates_quantized_to_scale(tmp_path):
    cloud = las_cloud()
    path = tmp_path / "out.las"
    write_las(cloud, path, scale=0.001)
    back = read_las(path, reflectance_source="reflectance", channel="scanner",
                    label_source="classification")
    assert back.count == cloud.count
    np.testing.assert_allclose(back.xyz, cloud.xyz, atol=0.0005 + 1e-9)
    np.testing.assert_array_equal(back.channel, cloud.channel)
    np.testing.assert_array_equal(back.label, cloud.label)
    np.testing.assert_array_equal(back.reflectance_db, cloud.reflectance_db)


def test_derived_columns_written_as_extra_attributes(tmp_path):
    cloud = las_cloud(n=10)
    n = cloud.count
    cloud = cloud.with_column("pndvi", np.linspace(-1, 1, n).astype(np.float32))
    cloud = cloud.with_column("h_norm", np.linspace(0, 5, n).astype(np.float32))
    path = tmp_path / "d.las"
    write_las(cloud, path)
    back = read_las(path, reflectance_source="pndvi", channel="scanner")
    np.testing.assert_array_equal(back.reflectance_db, cloud.pndvi)
    back = read_las(path, reflectance_source="h_norm", channel="scanner")
    np.testing.assert_array_equal(back.reflectance_db, cloud.h_norm)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_span_beyond_int32_steps_rejected_before_the_file_opens(tmp_path, axis):
    cloud = las_cloud()
    far = getattr(cloud, axis).copy()
    far[0] = np.floor(far.min()) + 2147483.649  # one step past int32 at scale 0.001
    path = tmp_path / "far.las"
    path.write_bytes(b"earlier bytes")
    with pytest.raises(DataError, match=f"{axis} spans 2147483.649 m"):
        write_las(cloud.with_column(axis, far), path)
    assert path.read_bytes() == b"earlier bytes"


def test_span_of_int32_max_steps_round_trips(tmp_path):
    cloud = las_cloud()
    x = cloud.x.copy()
    x[0] = np.floor(x.min()) + 2147483.647  # the last step int32 holds
    path = tmp_path / "edge.las"
    write_las(cloud.with_column("x", x), path)
    np.testing.assert_allclose(read_las(path, channel="scanner").x, x, atol=0.0005 + 1e-9)


def test_write_is_deterministic(tmp_path):
    cloud = las_cloud()
    p1, p2 = tmp_path / "a.las", tmp_path / "b.las"
    write_las(cloud, p1)
    write_las(cloud, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_holds_its_record_array_once(tmp_path):
    """write_las writes the records from their own array: it allocates less
    than twice their bytes, which a bytes copy of them would take."""
    cloud = las_cloud(n=1 << 17)
    record_bytes = cloud.count * (30 + 4)  # format 6 and the reflectance float
    peak = peak_traced_bytes(lambda: write_las(cloud, tmp_path / "big.las"))
    assert (tmp_path / "big.las").stat().st_size > record_bytes
    assert peak < 2 * record_bytes


def test_fixed_channel_override(tmp_path):
    cloud = las_cloud(n=8)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    back = read_las(path, reflectance_source="reflectance",
                    channel=int(Channel.NIR_1064))
    assert np.all(back.channel == int(Channel.NIR_1064))


def legacy_las(path, classification, point_format=1) -> None:
    """A LAS 1.2 file of one point per classification byte, in a point
    format of 0-3: a 227-byte header, no VLRs, unit scales, zero offsets."""
    rec = np.zeros(len(classification), np.dtype(_POINT_DTYPES[point_format]))
    rec["X"] = np.arange(len(classification))
    rec["intensity"] = 100
    rec["classification"] = classification
    header = bytearray(227)
    header[:4] = b"LASF"
    header[24:26] = bytes((1, 2))
    struct.pack_into("<HII", header, 94, 227, 227, 0)
    struct.pack_into("<BHI", header, 104, point_format, rec.itemsize, len(rec))
    struct.pack_into("<3d", header, 131, 1.0, 1.0, 1.0)
    path.write_bytes(bytes(header) + rec.tobytes())


@pytest.mark.parametrize("point_format", [0, 1, 2, 3])
def test_legacy_formats_read_the_class_without_its_flag_bits(tmp_path, point_format):
    """Bits 5-7 of a format 0-3 classification byte are the synthetic,
    key-point and withheld flags, not part of the class."""
    path = tmp_path / "legacy.las"
    legacy_las(path, [1 | 0x80, 0 | 0x20, 1 | 0x40, 0], point_format)
    back = read_las(path, channel=int(Channel.GREEN_532), label_source="classification")
    np.testing.assert_array_equal(back.label, [1, 0, 1, 0])


def test_format_6_reads_the_whole_classification_byte(tmp_path):
    """In formats 6-8 the flags have their own byte: a class of 129 is
    129, which no label allows."""
    cloud = las_cloud(n=4)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    raw = bytearray(path.read_bytes())
    at = struct.unpack_from("<I", raw, 96)[0] + 16  # point 0's classification byte
    raw[at] = 1 | 0x80
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="class"):
        read_las(path, channel="scanner", label_source="classification")


def test_intensity_source(tmp_path):
    cloud = las_cloud(n=8)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    back = read_las(path, reflectance_source="intensity", channel="scanner")
    assert back.has("reflectance_db")


def test_bad_signature_rejected(tmp_path):
    path = tmp_path / "x.las"
    path.write_bytes(b"XASF" + b"\x00" * 400)
    with pytest.raises(DataError, match="signature"):
        read_las(path, reflectance_source="intensity", channel=0)


def test_laz_rejected(tmp_path):
    cloud = las_cloud(n=4)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    raw = bytearray(path.read_bytes())
    raw[104] |= 0x80  # compressed point format bit
    laz = tmp_path / "c.laz"
    laz.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="compression"):
        read_las(laz, reflectance_source="intensity", channel=0)


def test_truncated_point_data_rejected(tmp_path):
    cloud = las_cloud(n=20)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 30])
    with pytest.raises(DataError, match="truncated"):
        read_las(path, reflectance_source="reflectance", channel="scanner")


def test_unknown_extra_attribute_rejected(tmp_path):
    cloud = las_cloud(n=4)
    path = tmp_path / "c.las"
    write_las(cloud, path)
    with pytest.raises(DataError, match="no_such_field"):
        read_las(path, reflectance_source="no_such_field", channel="scanner")


def test_caller_supplied_extra_attribute(tmp_path):
    cloud = las_cloud(n=6)
    flag = np.array([0, 1, 0, 1, 1, 0], np.float32)
    path = tmp_path / "e.las"
    write_las(cloud, path, extra={"error": flag})
    back = read_las(path, reflectance_source="error", channel="scanner")
    np.testing.assert_array_equal(back.reflectance_db, flag)


@pytest.mark.parametrize("name", [b"X", b"reflectance"])
def test_extra_attribute_name_given_twice_rejected(tmp_path, name):
    # "X" repeats a point-record field, "reflectance" another extra-bytes name
    cloud = las_cloud(n=6)
    path = tmp_path / "dup.las"
    write_las(cloud, path, extra={"qqqq": np.zeros(6, np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"qqqq".ljust(32, b"\0"), name.ljust(32, b"\0")))
    with pytest.raises(DataError, match="occurs more than once"):
        read_las(path, reflectance_source="intensity", channel="scanner")
