import numpy as np
import pytest

from mslidar import cloud as cloud_module
from mslidar import dtm as dtm_module
from mslidar.cloud import QUERY_ROWS, PointCloud
from mslidar.dtm import build_dtm, normalize_height
from mslidar.errors import DataError

from conftest import peak_traced_bytes


def ground_plane(extent=30.0, spacing=0.4, fn=None):
    ticks = np.arange(0.0, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(ticks, ticks)
    x, y = gx.ravel(), gy.ravel()
    z = fn(x, y) if fn else np.zeros_like(x)
    n = len(x)
    return PointCloud(
        x=x, y=y, z=z, channel=np.zeros(n, np.uint8),
        ground_flag=np.ones(n, dtype=bool),
    )


def test_constant_ground_gives_constant_cells():
    cloud = ground_plane(fn=lambda x, y: np.full_like(x, 5.0))
    grid = build_dtm(cloud, cell=1.0)
    valid = grid.values[~grid.nodata]
    np.testing.assert_allclose(valid, 5.0, atol=1e-9)


def test_planar_ground_matches_plane():
    slope = 0.1
    cloud = ground_plane(fn=lambda x, y: slope * x)
    grid = build_dtm(cloud, cell=1.0)
    h, w = grid.shape
    cx = grid.origin[0] + (np.arange(w) + 0.5) * grid.cell
    expected = np.tile(slope * cx, (h, 1))
    err = np.abs(grid.values - expected)[~grid.nodata]
    assert err.max() <= 2.0 * grid.cell * slope


def test_single_ground_point_cell_takes_its_height():
    cloud = PointCloud(
        x=np.array([2.5, 0.0, 5.0]), y=np.array([2.5, 0.0, 5.0]),
        z=np.array([7.0, 1.0, 2.0]), channel=np.zeros(3, np.uint8),
        ground_flag=np.array([True, False, False]),
    )
    grid = build_dtm(cloud, cell=1.0)
    # the one ground point sits exactly on a cell center
    assert grid.values[2, 2] == 7.0


def test_cells_far_from_ground_are_nodata():
    # ground on the left edge only; cells > 10 cells away must be nodata
    x = np.concatenate((np.linspace(0, 2, 50), [40.0]))
    y = np.concatenate((np.linspace(0, 40, 50), [40.0]))
    z = np.zeros(51)
    flags = np.ones(51, dtype=bool)
    flags[-1] = False
    cloud = PointCloud(
        x=x, y=y, z=z, channel=np.zeros(51, np.uint8), ground_flag=flags)
    grid = build_dtm(cloud, cell=1.0)
    assert grid.nodata.any()
    h, w = grid.shape
    assert grid.nodata[0, w - 1]
    assert not grid.nodata[0, 0]


def test_no_ground_points_rejected():
    cloud = PointCloud(
        x=np.arange(5.0), y=np.arange(5.0), z=np.zeros(5),
        channel=np.zeros(5, np.uint8), ground_flag=np.zeros(5, bool),
    )
    with pytest.raises(DataError, match="ground"):
        build_dtm(cloud)


def test_missing_ground_flag_rejected():
    cloud = PointCloud(
        x=np.arange(5.0), y=np.arange(5.0), z=np.zeros(5),
        channel=np.zeros(5, np.uint8),
    )
    with pytest.raises(DataError, match="ground_flag"):
        build_dtm(cloud)


def test_h_norm_over_constant_terrain():
    ground = ground_plane(extent=10.0, fn=lambda x, y: np.full_like(x, 5.0))
    grid = build_dtm(ground, cell=1.0)
    probe = PointCloud(
        x=np.array([5.0]), y=np.array([5.0]), z=np.array([10.0]),
        channel=np.zeros(1, np.uint8),
    )
    out = normalize_height(probe, grid)
    assert out.h_norm[0] == pytest.approx(5.0, abs=1e-6)


def test_h_norm_over_planar_terrain():
    ground = ground_plane(extent=30.0, fn=lambda x, y: 0.1 * x)
    grid = build_dtm(ground, cell=1.0)
    probe = PointCloud(
        x=np.array([20.0]), y=np.array([15.0]), z=np.array([3.0]),
        channel=np.zeros(1, np.uint8),
    )
    out = normalize_height(probe, grid)
    assert out.h_norm[0] == pytest.approx(1.0, abs=0.05)


def test_ground_points_normalize_near_zero():
    ground = ground_plane(extent=30.0, fn=lambda x, y: 0.05 * x + 0.02 * y)
    grid = build_dtm(ground, cell=1.0)
    out = normalize_height(ground, grid)
    frac = float((np.abs(out.h_norm) <= 0.1).mean())
    assert frac >= 0.99


def test_nodata_cells_fall_back_to_nearest_valid():
    x = np.concatenate((np.linspace(0, 2, 80), [40.0]))
    y = np.concatenate((np.linspace(0, 40, 80), [40.0]))
    z = np.concatenate((np.full(80, 3.0), [9.0]))
    flags = np.ones(81, dtype=bool)
    flags[-1] = False
    cloud = PointCloud(
        x=x, y=y, z=z, channel=np.zeros(81, np.uint8), ground_flag=flags)
    grid = build_dtm(cloud, cell=1.0)
    out = normalize_height(cloud, grid)
    # the far point sits over nodata; its terrain is the nearest valid
    # cell's value (3.0), so h_norm = 9 - 3
    assert out.h_norm[-1] == pytest.approx(6.0, abs=1e-5)
    assert np.isfinite(out.h_norm).all()


def test_h_norm_dtype_is_f32():
    ground = ground_plane(extent=5.0, spacing=1.0)
    grid = build_dtm(ground, cell=1.0)
    out = normalize_height(ground, grid)
    assert out.h_norm.dtype == np.float32


def test_blocked_heights_equal_one_block_bit_for_bit(monkeypatch):
    # ground along the left edge only: cells far to the right are nodata.
    # Probes sorted by x put the first blocks of 5 over valid cells and
    # the last ones over nodata, where the nearest-valid fallback applies.
    rng = np.random.default_rng(7)
    gy = rng.uniform(0, 40, 300)
    ground = PointCloud(
        x=rng.uniform(0, 2, 300), y=gy, z=0.05 * gy, channel=np.zeros(300, np.uint8),
        ground_flag=np.ones(300, dtype=bool))
    px = np.sort(rng.uniform(0, 40, 203))
    probes = PointCloud(
        x=px, y=rng.uniform(0, 40, 203), z=rng.uniform(0, 10, 203),
        channel=np.zeros(203, np.uint8))
    grid = build_dtm(cloud_module.concat([ground, probes.with_column(
        "ground_flag", np.zeros(203, dtype=bool))]), cell=1.0)
    assert not grid.nodata[:, :3].any() and grid.nodata[:, -3:].all()
    whole = normalize_height(probes, grid).h_norm

    fills = []

    def counted(dtm):
        fills.append(dtm)
        return nearest_valid(dtm)

    nearest_valid = dtm_module._nearest_valid
    monkeypatch.setattr(dtm_module, "_nearest_valid", counted)
    monkeypatch.setattr(cloud_module, "QUERY_ROWS", 5)
    blocked = normalize_height(probes, grid).h_norm
    np.testing.assert_array_equal(blocked.view(np.uint32), whole.view(np.uint32))
    assert len(fills) == 1  # the fill grid is built once, for the first block needing it


def _dense_ground(n, seed):
    """n ground points over a 60 m square, a gentle slope plus noise."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 60.0, n), rng.uniform(0, 60.0, n)
    return PointCloud(x=x, y=y, z=0.05 * x + rng.normal(0, 0.05, n),
                      channel=np.zeros(n, np.uint8), ground_flag=np.ones(n, dtype=bool))


def test_dtm_build_holds_ground_xy_once():
    """build_dtm over g ground points allocates less than 48 bytes per
    point: the ground z, the tree's XY and its index array (32) plus one
    transient column; copies of the ground ids, x and y took about 66."""
    n = 4 * QUERY_ROWS
    cloud = _dense_ground(n, 8)
    build_dtm(cloud.take(np.arange(100)))  # imports scipy untraced
    extra = peak_traced_bytes(lambda: build_dtm(cloud))
    assert extra < 48 * n


def test_normalization_allocates_block_sized_memory():
    """Besides the h_norm column, normalize_height over n = 4 blocks
    allocates less than 24 (block,) float64 arrays; the whole-cloud pass
    took about 42."""
    n = 4 * QUERY_ROWS
    cloud = _dense_ground(n, 9)
    grid = build_dtm(cloud)
    out = []
    peak = peak_traced_bytes(lambda: out.append(normalize_height(cloud, grid)))
    assert peak - out[0].h_norm.nbytes < 24 * QUERY_ROWS * 8
