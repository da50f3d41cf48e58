import math

import numpy as np
import pytest

from mslidar import cloud as cloud_module
from mslidar.cloud import QUERY_ROWS, PointCloud
from mslidar.csf import CsfParams, csf_ground, simulate_cloth
from mslidar.errors import ConfigError, DataError

from conftest import brute_bilinear, peak_traced_bytes


def plane_cloud(extent=40.0, spacing=0.5, slope=0.0, hole=None):
    """Regular plane z = slope*x; `hole` = (x0, y0, x1, y1) cut-out."""
    ticks = np.arange(0.0, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(ticks, ticks)
    x, y = gx.ravel(), gy.ravel()
    if hole is not None:
        x0, y0, x1, y1 = hole
        keep = ~((x > x0) & (x < x1) & (y > y0) & (y < y1))
        x, y = x[keep], y[keep]
    z = slope * x
    return PointCloud(x=x, y=y, z=z, channel=np.zeros(len(x), np.uint8))


def add_roof(cloud, x0, y0, x1, y1, height, spacing=0.5):
    ticks_x = np.arange(x0, x1 + spacing / 2, spacing)
    ticks_y = np.arange(y0, y1 + spacing / 2, spacing)
    gx, gy = np.meshgrid(ticks_x, ticks_y)
    n = gx.size
    base = PointCloud(
        x=gx.ravel(), y=gy.ravel(), z=np.full(n, float(height)),
        channel=np.zeros(n, np.uint8),
    )
    from mslidar.cloud import concat
    joined = concat([cloud, base])
    roof_mask = np.zeros(joined.count, dtype=bool)
    roof_mask[cloud.count:] = True
    return joined, roof_mask


def test_flat_plane_is_all_ground():
    cloud = plane_cloud()
    flag = csf_ground(cloud, CsfParams())
    assert flag.all()


def test_sloped_plane_is_all_ground():
    cloud = plane_cloud(slope=math.tan(math.radians(5.0)))
    flag = csf_ground(cloud, CsfParams())
    assert flag.all()


def test_box_roof_stays_non_ground():
    # ground is absent under the footprint, so the inverted surface has a
    # deep pit there; the cloth must bridge it instead of falling in
    ground = plane_cloud(hole=(15.0, 15.0, 25.0, 25.0))
    cloud, roof = add_roof(ground, 15.0, 15.0, 25.0, 25.0, height=10.0)
    flag = csf_ground(cloud, CsfParams(class_threshold=0.5))
    assert not flag[roof].any()
    assert flag[~roof].mean() >= 0.99


def test_low_roof_on_slope_stays_non_ground():
    slope = math.tan(math.radians(5.0))
    ground = plane_cloud(slope=slope, hole=(12.0, 12.0, 24.0, 24.0))
    cloud, roof = add_roof(ground, 12.0, 12.0, 24.0, 24.0, height=4.0 + slope * 18.0)
    flag = csf_ground(cloud, CsfParams())
    assert not flag[roof].any()
    assert flag[~roof].mean() >= 0.99


def test_flags_equal_the_brute_force_cloth_height():
    ground = plane_cloud(slope=0.03, hole=(15.0, 15.0, 25.0, 25.0))
    cloud, roof = add_roof(ground, 15.0, 15.0, 25.0, 25.0, height=10.0)
    params = CsfParams()
    cloth, (x0, y0, res) = simulate_cloth(cloud, params)
    cloth_at = brute_bilinear(cloth, (cloud.x - x0) / res, (cloud.y - y0) / res)
    want = np.abs(-cloud.z - cloth_at) <= params.class_threshold
    assert want[~roof].all() and not want[roof].any()
    np.testing.assert_array_equal(csf_ground(cloud, params), want)


def test_cloth_settles_onto_flat_floor():
    cloud = plane_cloud(extent=20.0)
    cloth, (x0, y0, res) = simulate_cloth(cloud, CsfParams())
    assert res == 1.0
    # inverted flat ground sits at 0; interior cells must touch it
    interior = cloth[2:-2, 2:-2]
    assert np.abs(interior).max() < 0.05


def test_deterministic():
    cloud = plane_cloud(extent=20.0, slope=0.05)
    a = csf_ground(cloud, CsfParams())
    b = csf_ground(cloud, CsfParams())
    np.testing.assert_array_equal(a, b)


def test_blocked_passes_equal_one_block_bit_for_bit(monkeypatch):
    # a bare 8 m square (empty cloth cells) and a roof elsewhere, rows
    # shuffled so that a block written to other rows would show
    ground = plane_cloud(extent=30.0, slope=0.03, hole=(4.0, 4.0, 12.0, 12.0))
    cloud, roof = add_roof(ground, 18.0, 18.0, 26.0, 26.0, height=6.0)
    perm = np.random.default_rng(3).permutation(cloud.count)
    cloud, roof = cloud.take(perm), roof[perm]
    cloth, spec = simulate_cloth(cloud, CsfParams())
    flag = csf_ground(cloud, CsfParams())
    assert flag[~roof].all() and not flag[roof].any()
    monkeypatch.setattr(cloud_module, "QUERY_ROWS", 7)
    blocked_cloth, blocked_spec = simulate_cloth(cloud, CsfParams())
    np.testing.assert_array_equal(blocked_cloth.view(np.uint64), cloth.view(np.uint64))
    assert blocked_spec == spec
    np.testing.assert_array_equal(csf_ground(cloud, CsfParams()), flag)


def test_ground_flagging_allocates_block_sized_memory():
    """Besides its flags, csf_ground over n = 4 blocks allocates less than
    24 (block,) float64 arrays; the whole-cloud passes took about 44."""
    n = 4 * QUERY_ROWS
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0, 60.0, n), rng.uniform(0, 60.0, n)
    cloud = PointCloud(x=x, y=y, z=0.05 * x + rng.normal(0, 0.05, n),
                       channel=np.zeros(n, np.uint8))
    csf_ground(plane_cloud(extent=5.0), CsfParams())  # imports scipy untraced
    extra = peak_traced_bytes(lambda: csf_ground(cloud, CsfParams()))
    assert extra < 24 * QUERY_ROWS * 8


def test_degenerate_extent_rejected():
    line = PointCloud(
        x=np.linspace(0, 10, 50), y=np.zeros(50), z=np.zeros(50),
        channel=np.zeros(50, np.uint8),
    )
    with pytest.raises(DataError, match="CSF"):
        csf_ground(line, CsfParams())
    tiny = PointCloud(
        x=np.array([0.0, 0.1]), y=np.array([0.0, 0.1]), z=np.zeros(2),
        channel=np.zeros(2, np.uint8),
    )
    with pytest.raises(DataError, match="CSF"):
        csf_ground(tiny, CsfParams())


def test_param_validation():
    with pytest.raises(ConfigError, match="csf.rigidness"):
        CsfParams(rigidness=4)
    with pytest.raises(ConfigError, match="csf.cloth_resolution"):
        CsfParams(cloth_resolution=0.0)
    with pytest.raises(ConfigError, match="csf.class_threshold"):
        CsfParams(class_threshold=0.0)
