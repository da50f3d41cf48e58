import logging

import numpy as np
import pytest

from mslidar.cloud import PointCloud
from mslidar.errors import ConfigError
from mslidar.split import split_plots

from conftest import peak_traced_bytes, random_cloud


def grid_cloud(n=6000, extent=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return random_cloud(rng, n=n, extent=extent)


def test_indices_are_disjoint_and_exhaustive():
    cloud = grid_cloud()
    split = split_plots(cloud, target_ratios=(0.6853, 0.1628, 0.1519), tile_size=20.0)
    parts = [split.indices(name) for name in ("train", "val", "test")]
    joined = np.concatenate(parts)
    assert len(joined) == cloud.count
    assert len(np.unique(joined)) == cloud.count


def test_points_of_one_tile_share_a_split():
    cloud = grid_cloud()
    split = split_plots(cloud, target_ratios=(0.6853, 0.1628, 0.1519), tile_size=20.0)
    ix = np.floor((cloud.x - split.origin[0]) / split.tile_size).astype(int)
    iy = np.floor((cloud.y - split.origin[1]) / split.tile_size).astype(int)
    for tile in set(zip(ix.tolist(), iy.tolist())):
        members = (ix == tile[0]) & (iy == tile[1])
        assert len(set(split.point_split[members].tolist())) == 1


def test_achieved_ratios_near_targets():
    cloud = grid_cloud(n=30000, extent=200.0)
    split = split_plots(cloud, target_ratios=(0.6853, 0.1628, 0.1519), tile_size=20.0)
    for achieved, target in zip(split.achieved_ratios, (0.6853, 0.1628, 0.1519)):
        assert abs(achieved - target) < 0.06


def test_deterministic_for_fixed_seed():
    cloud = grid_cloud()
    a = split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=20.0, seed=3)
    b = split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=20.0, seed=3)
    np.testing.assert_array_equal(a.point_split, b.point_split)


def unique_split(cloud, ratios, tile_size, seed):
    """(tile_ids, tile_split, point_split, achieved) of split_plots, as
    np.unique over the (ix, iy) rows numbers the tiles."""
    x0, y0 = cloud.x.min(), cloud.y.min()
    ix = np.floor((cloud.x - x0) / tile_size).astype(np.int64)
    iy = np.floor((cloud.y - y0) / tile_size).astype(np.int64)
    tile_ids, inverse, counts = np.unique(
        np.column_stack((ix, iy)), axis=0, return_inverse=True, return_counts=True)
    shuffled = np.random.default_rng(seed).permutation(len(counts))
    order = shuffled[np.argsort(counts[shuffled], kind="stable")[::-1]]
    assigned = np.zeros(3)
    tile_split = np.zeros(len(counts), dtype=np.int64)
    for t in order:
        s = int(np.argmax(np.asarray(ratios) * cloud.count - assigned))
        tile_split[t] = s
        assigned[s] += counts[t]
    achieved = tuple(float(a / cloud.count) for a in assigned)
    return tile_ids, tile_split, tile_split[inverse.reshape(-1)], achieved


@pytest.mark.parametrize("seed", [0, 1, 5, 13])
def test_tile_numbering_matches_unique_oracle(seed):
    # negative origins, and tiles a few points wide so counts tie often
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n=int(rng.integers(500, 4000)), extent=60.0)
    cloud.x -= rng.uniform(0, 500)
    cloud.y -= rng.uniform(-50, 500)
    ratios = (0.6853, 0.1628, 0.1519)
    for tile_size in (3.0, 7.5, 20.0):
        split = split_plots(cloud, ratios, tile_size=tile_size, seed=seed)
        tile_ids, tile_split, point_split, achieved = unique_split(
            cloud, ratios, tile_size, seed)
        assert split.tile_ids.dtype == np.int64
        np.testing.assert_array_equal(split.tile_ids, tile_ids)
        np.testing.assert_array_equal(split.tile_split, tile_split)
        np.testing.assert_array_equal(split.point_split, point_split)
        assert split.achieved_ratios == achieved


def test_ratios_must_sum_to_one():
    cloud = grid_cloud(n=100)
    with pytest.raises(ConfigError, match="sum"):
        split_plots(cloud, target_ratios=(0.5, 0.2, 0.2), tile_size=20.0)


def test_tile_size_whose_tile_numbers_overflow_int64_rejected():
    # (x - x0) / tile_size reaches 2**63 at x = 1 and 2, which would share a tile
    cloud = PointCloud(x=np.array([0.0, 1.0, 2.0]), y=np.zeros(3), z=np.zeros(3),
                       channel=np.zeros(3, np.uint8))
    with pytest.raises(ConfigError, match="1e-300"):
        split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=1e-300)
    split = split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=1e-18)
    assert split.tile_ids.shape[0] == 3  # 2e18 fits


def test_single_tile_falls_back_to_train(caplog):
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, n=50, extent=5.0)
    with caplog.at_level(logging.WARNING, logger="mslidar.split"):
        split = split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=20.0)
    assert any("single" in rec.message for rec in caplog.records)
    assert split.single_split is True
    assert len(split.indices("train")) == cloud.count
    assert len(split.indices("val")) == 0


def test_summary_reports_counts():
    cloud = grid_cloud()
    split = split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=20.0)
    text = split.summary()
    for name in ("train", "val", "test"):
        assert name in text


def test_allocates_less_than_eight_columns():
    """split_plots over n points allocates less than eight int64 columns
    of n, its (n,) point_split included."""
    n = 1 << 17
    cloud = grid_cloud(n=n, extent=300.0)
    extra = peak_traced_bytes(
        lambda: split_plots(cloud, target_ratios=(0.7, 0.2, 0.1), tile_size=20.0))
    assert extra < 8 * 8 * n
