import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar import cloud as cloud_module
from mslidar.cli import main
from mslidar.cloud import Channel, Label, PointCloud, build_index, concat
from mslidar.columnar import write_columnar
from mslidar.errors import ConfigError, DataError
from mslidar.pipeline import load_config, stage_denoise, stage_merge
from mslidar.preprocess import (
    SorParams, channel_rows, merge_channels, sor_filter, voxel_subsample,
)

from conftest import (
    brute_radius, brute_sor_removed, brute_voxel, peak_traced_bytes, random_cloud,
    tied_cloud,
)


def brute_cross_db(target, source, radius, k):
    """Cross-channel dB of every target row from a brute-force radius scan."""
    lin = 10.0 ** (source.reflectance_db.astype(np.float64) / 10.0)
    expected = np.full(target.count, np.nan, dtype=np.float32)
    for i, q in enumerate(target.xyz):
        ids, _ = brute_radius(source.xyz, q, radius, k_max=k)
        if ids.size:
            expected[i] = 10.0 * np.log10(lin[ids].sum() / ids.size)
    return expected


def traced_bytes_beyond_output(fn):
    """(peak bytes tracemalloc sees while fn() runs, less the columns of
    the cloud it returns, that cloud)."""
    out = []
    peak = peak_traced_bytes(lambda: out.append(fn()))
    return peak - sum(col.nbytes for col in out[0]._column_dict().values()), out[0]


def spread_cloud(n, seed):
    """n random points at about 4 per cubic meter."""
    side = (n / 4.0) ** (1 / 3)
    return random_cloud(np.random.default_rng(seed), n=n, extent=side)


def channel_cloud(xyz, refl, channel):
    xyz = np.asarray(xyz, dtype=float)
    n = xyz.shape[0]
    return PointCloud(
        x=xyz[:, 0], y=xyz[:, 1], z=xyz[:, 2],
        channel=np.full(n, channel, dtype=np.uint8),
        reflectance_db=np.asarray(refl, dtype=np.float32),
    )


class TestSor:
    def test_grid_plus_far_point_removes_exactly_the_far_point(self):
        gx, gy = np.meshgrid(np.arange(10.0), np.arange(10.0))
        xyz = np.column_stack((gx.ravel(), gy.ravel(), np.zeros(100)))
        xyz = np.vstack((xyz, [100.0, 100.0, 0.0]))
        cloud = channel_cloud(xyz, np.zeros(101), 0)
        kept, removed = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
        assert removed.tolist() == [100]
        assert kept.tolist() == list(range(100))

    def test_unreachable_threshold_removes_nothing(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, n=80)
        kept, removed = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1e9))
        assert removed.size == 0
        np.testing.assert_array_equal(kept, np.arange(cloud.count))

    def test_cube_vertices_remove_nothing(self):
        # every vertex has the identical neighbor-distance multiset
        # (3 edges, 3 face diagonals), exactly in floating point, so all
        # mean distances coincide, sigma is 0, and the strict > keeps all
        corners = np.array([(x, y, z) for x in (0.0, 1.0)
                            for y in (0.0, 1.0) for z in (0.0, 1.0)])
        cloud = channel_cloud(corners, np.zeros(8), 0)
        _, removed = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
        assert removed.size == 0

    def test_matches_brute_oracle_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            cloud = random_cloud(rng, n=int(rng.integers(20, 150)), extent=6.0)
            _, removed = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
            expected = brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0)
            np.testing.assert_array_equal(np.sort(removed), np.sort(expected))

    def test_matches_brute_oracle_with_coincident_points(self):
        rng = np.random.default_rng(6)
        base = random_cloud(rng, n=60, extent=4.0)
        cloud = concat([base, base.take([3, 7, 7, 11])])
        _, removed = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
        expected = brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0)
        np.testing.assert_array_equal(np.sort(removed), np.sort(expected))

    def test_kept_and_removed_partition_input(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, n=100)
        kept, removed = sor_filter(cloud.xyz, SorParams())
        assert removed.size > 0
        for ids in (kept, removed):
            assert np.all(np.diff(ids) > 0)
        np.testing.assert_array_equal(np.sort(np.concatenate((kept, removed))),
                                      np.arange(cloud.count))

    def test_query_blocks_do_not_change_the_removed_ids(self, monkeypatch):
        # 401 points in blocks of 5, the last one partial
        rng = np.random.default_rng(10)
        cloud = tied_cloud(rng, n=401, extent=4.0)
        _, whole = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 5)
        _, blocked = sor_filter(cloud.xyz, SorParams(k=6, n_sigma=1.0))
        assert whole.size > 0
        np.testing.assert_array_equal(blocked, whole)
        # the blocks follow the tree's leaf order, not the file order, and
        # each point's distances still land in its own row
        leaf_order = build_index(cloud.xyz).tree.indices
        assert not np.array_equal(leaf_order[:5], np.arange(5))
        np.testing.assert_array_equal(blocked, brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0))

    def test_too_small_cloud_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DataError, match="SOR"):
            sor_filter(random_cloud(rng, n=5).xyz, SorParams(k=6))

    def test_permutation_invariant_point_set(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, n=90, extent=5.0)
        perm = rng.permutation(cloud.count)
        kept_a, _ = sor_filter(cloud.xyz, SorParams())
        kept_b, _ = sor_filter(cloud.xyz[perm], SorParams())
        a = np.sort(cloud.xyz[kept_a].view([("", float)] * 3).ravel())
        b = np.sort(cloud.xyz[perm][kept_b].view([("", float)] * 3).ravel())
        np.testing.assert_array_equal(a, b)


class TestMergeChannels:
    def test_single_neighbor_copies_its_value(self):
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        green = channel_cloud([[0.5, 0, 0]], [-10.0], Channel.GREEN_532)
        merged = merge_channels(green, nir)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        assert nir_rows.refl_green_db[0] == np.float32(-10.0)

    def test_constant_field_is_preserved(self):
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        green = channel_cloud(
            [[0.2, 0, 0], [0, 0.3, 0]], [-10.0, -10.0], Channel.GREEN_532)
        merged = merge_channels(green, nir)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        assert nir_rows.refl_green_db[0] == pytest.approx(-10.0, abs=1e-6)

    def test_linear_domain_mean_oracle(self):
        # {0 dB, -10 dB} -> (1.0 + 0.1)/2 = 0.55 -> 10*log10(0.55)
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        green = channel_cloud(
            [[0.3, 0, 0], [0, 0.5, 0]], [0.0, -10.0], Channel.GREEN_532)
        merged = merge_channels(green, nir)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        assert nir_rows.refl_green_db[0] == pytest.approx(
            -2.5963731050575764, abs=1e-6)

    def test_no_neighbor_within_radius_gives_nan(self):
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        green = channel_cloud([[5, 0, 0]], [-10.0], Channel.GREEN_532)
        merged = merge_channels(green, nir, radius=1.0)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        assert np.isnan(nir_rows.refl_green_db[0])
        # own channel stays intact
        assert nir_rows.refl_nir_db[0] == np.float32(-5.0)

    def test_radius_boundary_is_inclusive(self):
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        green = channel_cloud([[1.0, 0, 0]], [-10.0], Channel.GREEN_532)
        merged = merge_channels(green, nir, radius=1.0)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        assert nir_rows.refl_green_db[0] == np.float32(-10.0)

    def test_only_k_nearest_contribute(self):
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        offsets = np.arange(1, 10) * 0.1
        xyz = np.column_stack((offsets, np.zeros(9), np.zeros(9)))
        refl = np.linspace(-12, -4, 9)
        green = channel_cloud(xyz, refl, Channel.GREEN_532)
        merged = merge_channels(green, nir, radius=1.0, k=7)
        nir_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        lin = 10.0 ** (refl[:7].astype(np.float64) / 10.0)
        expected = 10.0 * math.log10(lin.mean())
        assert nir_rows.refl_green_db[0] == pytest.approx(expected, abs=1e-6)

    def test_quantized_clouds_match_oracle_mean(self):
        # on a 5 cm lattice with duplicated points, with ties at rank k
        rng = np.random.default_rng(13)
        g = tied_cloud(rng, n=400, extent=1.5)
        g.channel[:] = int(Channel.GREEN_532)
        n = tied_cloud(rng, n=400, extent=1.5)
        n.channel[:] = int(Channel.NIR_1064)
        merged = merge_channels(g, n, radius=0.2, k=7)
        np.testing.assert_array_equal(merged.refl_nir_db[: g.count], brute_cross_db(g, n, 0.2, 7))
        np.testing.assert_array_equal(merged.refl_green_db[g.count :], brute_cross_db(n, g, 0.2, 7))

    def test_query_chunking_does_not_change_the_result(self, monkeypatch):
        # 400 targets in chunks of 7 rows, the last one partial
        rng = np.random.default_rng(17)
        g = tied_cloud(rng, n=400, extent=1.5)
        g.channel[:] = int(Channel.GREEN_532)
        n = tied_cloud(rng, n=400, extent=1.5)
        n.channel[:] = int(Channel.NIR_1064)
        whole = merge_channels(g, n, radius=0.2, k=7)
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 7)
        chunked = merge_channels(g, n, radius=0.2, k=7)
        for col in ("refl_green_db", "refl_nir_db"):
            np.testing.assert_array_equal(
                getattr(chunked, col).view(np.uint32), getattr(whole, col).view(np.uint32))
        # each 7-row block is visited in cell order and scattered back to
        # the targets' own rows
        np.testing.assert_array_equal(chunked.refl_nir_db[: g.count], brute_cross_db(g, n, 0.2, 7))
        np.testing.assert_array_equal(chunked.refl_green_db[g.count :], brute_cross_db(n, g, 0.2, 7))

    def test_own_channel_reflectance_never_altered(self):
        rng = np.random.default_rng(11)
        g = random_cloud(rng, n=60, extent=5.0)
        g.channel[:] = int(Channel.GREEN_532)
        n = random_cloud(rng, n=70, extent=5.0)
        n.channel[:] = int(Channel.NIR_1064)
        merged = merge_channels(g, n)
        g_rows = merged.take(merged.channel == int(Channel.GREEN_532))
        np.testing.assert_array_equal(
            np.sort(g_rows.refl_green_db), np.sort(g.reflectance_db))
        n_rows = merged.take(merged.channel == int(Channel.NIR_1064))
        np.testing.assert_array_equal(
            np.sort(n_rows.refl_nir_db), np.sort(n.reflectance_db))

    def test_an_inputs_cross_channel_columns_are_replaced(self):
        # a green cloud ingested from a merged export carries both
        # cross-channel columns, a nir cloud from a raw scan neither
        rng = np.random.default_rng(14)
        g = random_cloud(rng, n=60, extent=5.0)
        g.channel[:] = int(Channel.GREEN_532)
        n = random_cloud(rng, n=70, extent=5.0)
        n.channel[:] = int(Channel.NIR_1064)
        stale = g.with_column("refl_green_db", np.zeros(g.count)).with_column(
            "refl_nir_db", np.full(g.count, np.nan))
        fresh, again = merge_channels(g, n), merge_channels(stale, n)
        assert list(again._column_dict()) == list(fresh._column_dict())
        for name, col in fresh._column_dict().items():
            assert again._column_dict()[name].tobytes() == col.tobytes(), name

    def test_channel_purity_enforced(self):
        rng = np.random.default_rng(12)
        mixed = random_cloud(rng, n=20)
        nir = random_cloud(rng, n=20)
        nir.channel[:] = int(Channel.NIR_1064)
        with pytest.raises(DataError, match="other channel"):
            merge_channels(mixed, nir)

    def test_allocates_little_beyond_the_merged_cloud(self, monkeypatch):
        """Besides the merged cloud it returns, merging two halves of n
        points allocates less than 14 bytes per point: the target rows'
        coordinates are gathered one block at a time, never as a full
        (n, 3) copy (12 more bytes per point), and the visiting order is
        sorted before the source index is built."""
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 1024)  # blocks << n
        n = 1 << 17
        cloud = spread_cloud(n, 25)
        g, nir = cloud.take(np.arange(0, n, 2)), cloud.take(np.arange(1, n, 2))
        g.channel[:], nir.channel[:] = int(Channel.GREEN_532), int(Channel.NIR_1064)
        merge_channels(g.take(range(50)), nir.take(range(50)))  # imports scipy untraced
        extra, merged = traced_bytes_beyond_output(lambda: merge_channels(g, nir, 1.0, 7))
        assert merged.count == n
        assert extra < 14 * n

    @pytest.mark.parametrize("green_db, nir_db", [(3100.0, -5.0), (-5.0, -3300.0)])
    def test_a_mean_beyond_float64_names_its_source(self, green_db, nir_db):
        # 10**310 overflows float64 and 10**-330 underflows to 0: neither
        # mean has a dB value, so the cloud whose values they are is refused
        # where it used to yield infinite cross-channel values (or a
        # numeric error)
        green = channel_cloud([[0, 0, 0], [0.5, 0, 0]], [green_db] * 2, Channel.GREEN_532)
        nir = channel_cloud([[0, 0, 0.1], [0.3, 0, 0]], [nir_db, nir_db - 1],
                            Channel.NIR_1064)
        source = "g.mst" if green_db > 0 else "n.mst"
        with pytest.raises(DataError, match=rf"^{source}: reflectance_db from .* float64$"):
            merge_channels(green, nir, names=("g.mst", "n.mst"))

    def test_tiny_radius_is_accepted(self):
        # radius-sized query cells would number far beyond int64 here;
        # only the coincident source point lies within the radius
        nir = channel_cloud([[0, 0, 0], [1.0, 0, 0]], [-5.0, -6.0], Channel.NIR_1064)
        green = channel_cloud([[0, 0, 0], [2.0, 0, 0]], [-10.0, -11.0], Channel.GREEN_532)
        merged = merge_channels(green, nir, radius=1e-300)
        np.testing.assert_array_equal(merged.refl_nir_db[:2], [-5.0, np.nan])
        np.testing.assert_array_equal(merged.refl_green_db[2:], [-10.0, np.nan])

    def test_empty_cloud_rejected(self):
        empty = PointCloud(
            x=np.empty(0), y=np.empty(0), z=np.empty(0),
            channel=np.empty(0, np.uint8),
            reflectance_db=np.empty(0, np.float32),
        )
        nir = channel_cloud([[0, 0, 0]], [-5.0], Channel.NIR_1064)
        with pytest.raises(DataError, match="non-empty"):
            merge_channels(empty, nir)


def unique_voxel_keep(cloud, grid):
    """Survivor ids of voxel_subsample in output row order, as np.unique
    over the key rows and a lexsort by (voxel, distance, id) choose them."""
    keys = np.column_stack(
        [np.floor(c / grid).astype(np.int64) for c in (cloud.x, cloud.y, cloud.z)])
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    centroid = [np.bincount(inverse, weights=c) / counts for c in (cloud.x, cloud.y, cloud.z)]
    dist = ((cloud.x - centroid[0][inverse]) ** 2 + (cloud.y - centroid[1][inverse]) ** 2
            + (cloud.z - centroid[2][inverse]) ** 2)
    order = np.lexsort((np.arange(cloud.count), dist, inverse))
    return order[np.unique(inverse[order], return_index=True)[1]]


class TestVoxelSubsample:
    def test_coincident_points_collapse_to_one(self):
        cloud = channel_cloud([[1, 1, 1], [1, 1, 1]], [0, 0], 0)
        out = voxel_subsample(cloud, grid=0.1)
        assert out.count == 1

    def test_sparse_points_all_survive(self):
        xyz = np.column_stack((np.arange(10.0), np.zeros(10), np.zeros(10)))
        cloud = channel_cloud(xyz, np.zeros(10), 0)
        out = voxel_subsample(cloud, grid=0.1)
        assert out.count == 10

    def test_majority_vote_tree(self):
        xyz = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.09, 0.05, 0.03]])
        cloud = channel_cloud(xyz, np.zeros(3), 0)
        cloud = cloud.with_column(
            "label", np.array([Label.TREE, Label.TREE, Label.NON_TREE], np.uint8))
        out = voxel_subsample(cloud, grid=0.1)
        assert out.count == 1
        assert out.label[0] == int(Label.TREE)

    def test_vote_tie_goes_to_tree(self):
        xyz = np.array([[0.01, 0.01, 0.01], [0.09, 0.09, 0.09]])
        cloud = channel_cloud(xyz, np.zeros(2), 0)
        cloud = cloud.with_column(
            "label", np.array([Label.NON_TREE, Label.TREE], np.uint8))
        out = voxel_subsample(cloud, grid=0.1)
        assert out.label[0] == int(Label.TREE)

    def test_matches_brute_oracle_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            cloud = random_cloud(rng, n=int(rng.integers(50, 400)), extent=2.0)
            # sprinkle unlabeled points to exercise every vote branch
            unl = rng.random(cloud.count) < 0.2
            cloud.label[unl] = int(Label.UNLABELED)
            grid = float(rng.uniform(0.2, 0.8))
            out = voxel_subsample(cloud, grid=grid)
            kept, votes = brute_voxel(cloud, grid)
            ref = cloud.take(kept)
            po = np.lexsort((out.z, out.y, out.x))
            ro = np.lexsort((ref.z, ref.y, ref.x))
            np.testing.assert_array_equal(out.xyz[po], ref.xyz[ro])
            np.testing.assert_array_equal(out.label[po], votes[ro])

    def assert_rows_match_unique_oracle(self, cloud, grid):
        """Output rows, in order, are the oracle's survivors with every
        column intact except the label, which is brute_voxel's vote."""
        out = voxel_subsample(cloud, grid=grid)
        keep = unique_voxel_keep(cloud, grid)
        ref = cloud.take(keep)
        for name in ("x", "y", "z", "channel", "reflectance_db"):
            np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))
        if cloud.has("label"):
            kept, votes = brute_voxel(cloud, grid)
            np.testing.assert_array_equal(np.sort(keep), kept)
            vote_of = dict(zip(kept.tolist(), votes.tolist()))
            assert out.label.tolist() == [vote_of[i] for i in keep.tolist()]
        return out

    def test_row_order_matches_unique_oracle_randomized(self):
        rng = np.random.default_rng(18)
        for trial in range(16):
            make = tied_cloud if trial % 2 else random_cloud
            cloud = make(rng, n=int(rng.integers(50, 600)), extent=3.0)
            # negative origins: the lattice spans floor() of both signs
            cloud.x -= 1.5
            cloud.z -= 0.75
            cloud.label[rng.random(cloud.count) < 0.2] = int(Label.UNLABELED)
            grid = float(rng.choice([0.05, 0.1, 0.25, 0.4]))
            self.assert_rows_match_unique_oracle(cloud, grid)

    def test_equidistant_survivors_go_to_the_lowest_id(self):
        # Voxel (0, 0, 0): four corners of a square about its centroid
        # (0.5, 0.5, 0.5). Voxel (-1, 2, 0), first in voxel order: two
        # points about (-0.375, 2.375, 0.5). All at the same distance.
        xyz = np.array([[0.25, 0.25, 0.5], [0.75, 0.25, 0.5], [0.25, 0.75, 0.5],
                        [0.75, 0.75, 0.5], [-0.5, 2.5, 0.5], [-0.25, 2.25, 0.5]])
        rng = np.random.default_rng(19)
        for _ in range(8):
            perm = rng.permutation(len(xyz))
            cloud = channel_cloud(xyz[perm], np.arange(len(xyz)), 0)
            out = self.assert_rows_match_unique_oracle(cloud, 1.0)
            lowest = [np.flatnonzero(perm >= 4)[0], np.flatnonzero(perm < 4)[0]]
            np.testing.assert_array_equal(out.xyz, cloud.xyz[lowest])

    def test_single_point_and_single_voxel(self):
        one = channel_cloud([[-0.35, -7.05, 2.0]], [3.0], 0)
        out = self.assert_rows_match_unique_oracle(one, 0.1)
        assert out.count == 1 and out.x[0] == -0.35
        rng = np.random.default_rng(20)
        cloud = channel_cloud(rng.uniform(-0.99, -0.01, (40, 3)), rng.normal(size=40), 0)
        cloud = cloud.with_column("label", rng.integers(0, 2, 40).astype(np.uint8))
        out = self.assert_rows_match_unique_oracle(cloud, 1.0)
        assert out.count == 1

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, n=500, extent=3.0)
        once = voxel_subsample(cloud, grid=0.25)
        twice = voxel_subsample(once, grid=0.25)
        assert twice.count == once.count
        np.testing.assert_array_equal(once.xyz, twice.xyz)
        np.testing.assert_array_equal(once.label, twice.label)

    def test_density_bound(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, n=2000, extent=2.0)
        grid = 0.5
        out = voxel_subsample(cloud, grid=grid)
        keys = np.column_stack((
            np.floor(out.x / grid), np.floor(out.y / grid), np.floor(out.z / grid),
        ))
        assert len(np.unique(keys, axis=0)) == out.count

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_survivors_do_not_depend_on_block_edges(self, rows, monkeypatch):
        """Voxels are searched in blocks of whole voxels cut at row_blocks
        edges; with blocks of a few rows, voxels longer than a block and
        voxels that straddle an edge choose the same survivors and votes."""
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", rows)
        rng = np.random.default_rng(30 + rows)
        for make in (random_cloud, tied_cloud):
            for grid in (0.25, 0.5):  # about 1 and 9 rows per voxel
                cloud = make(rng, n=300, extent=2.0)
                cloud.label[rng.random(cloud.count) < 0.2] = int(Label.UNLABELED)
                self.assert_rows_match_unique_oracle(cloud, grid)
        # a single voxel of 40 rows, then the same voxel between small ones
        inside = rng.uniform(0.01, 0.99, (40, 3))
        one = channel_cloud(inside, rng.normal(size=40), 0).with_column(
            "label", rng.integers(0, 2, 40).astype(np.uint8))
        assert self.assert_rows_match_unique_oracle(one, 1.0).count == 1
        xyz = np.vstack((rng.uniform(-3.0, 3.0, (30, 3)), inside))[rng.permutation(70)]
        mixed = channel_cloud(xyz, rng.normal(size=70), 0).with_column(
            "label", rng.integers(0, 2, 70).astype(np.uint8))
        self.assert_rows_match_unique_oracle(mixed, 1.0)

    def test_allocates_less_than_six_columns(self):
        """Besides the thinned cloud it returns, voxel_subsample over n
        points allocates less than six float64 columns of n: its
        distances and votes are block-sized, and the cell grouping sets
        the peak."""
        n = 1 << 17
        cloud = spread_cloud(n, 26)
        extra, out = traced_bytes_beyond_output(lambda: voxel_subsample(cloud, 0.5))
        assert n // 2 < out.count < n
        assert extra < 6 * 8 * n

    def test_invalid_grid_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ConfigError, match="voxel.grid"):
            voxel_subsample(random_cloud(rng, n=10), grid=0.0)

    def test_grid_whose_voxel_numbers_overflow_int64_rejected(self):
        # x / grid reaches 2**63 at x = 1 and 2, which would share a voxel
        cloud = channel_cloud([[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], np.zeros(3), 0)
        with pytest.raises(ConfigError, match="1e-300"):
            voxel_subsample(cloud, grid=1e-300)
        assert voxel_subsample(cloud, grid=1e-18).count == 3  # 2e18 fits

    @settings(max_examples=30, deadline=None)
    @given(st.integers(10, 200), st.integers(0, 2**31 - 1),
           st.floats(0.1, 1.0))
    def test_oracle_property(self, n, seed, grid):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, n=n, extent=2.0)
        out = voxel_subsample(cloud, grid=grid)
        kept, votes = brute_voxel(cloud, grid)
        assert out.count == len(kept)
        po = np.lexsort((out.z, out.y, out.x))
        ref = cloud.take(kept)
        ro = np.lexsort((ref.z, ref.y, ref.x))
        np.testing.assert_array_equal(out.xyz[po], ref.xyz[ro])


def interleave(green, nir, seed):
    """The two channel clouds as one, their rows shuffled together, each
    channel's rows in their own order."""
    both = concat([green, nir])
    take = np.random.default_rng(seed).permutation(both.count) < green.count
    ids = np.empty(both.count, dtype=np.intp)
    ids[take], ids[~take] = np.arange(green.count), green.count + np.arange(nir.count)
    return both.take(ids)


class TestStageMerge:
    @staticmethod
    def channels(n, seed):
        cloud = spread_cloud(n, seed)
        green, nir = cloud.take(np.arange(0, n, 2)), cloud.take(np.arange(1, n, 2))
        green.channel[:], nir.channel[:] = int(Channel.GREEN_532), int(Channel.NIR_1064)
        return green, nir

    def test_channel_rows_are_ranges_where_the_channels_are_grouped(self):
        green, nir = self.channels(300, 30)
        assert channel_rows(concat([green, nir]).channel) == (slice(0, 150), slice(150, 300))
        assert channel_rows(concat([nir, green]).channel) == (slice(150, 300), slice(0, 150))
        mixed = interleave(green, nir, 31)
        rows = channel_rows(mixed.channel)
        for ids, chan in zip(rows, (Channel.GREEN_532, Channel.NIR_1064)):
            np.testing.assert_array_equal(ids, np.flatnonzero(mixed.channel == int(chan)))

    def test_both_forms_write_the_same_bytes(self, tmp_path):
        """Grouped either way or interleaved, a combined cloud merged with
        --in writes the bytes of its two channel files merged with --green
        and --nir."""
        green, nir = self.channels(3000, 32)
        green = green.with_column("h_norm", np.arange(green.count, dtype=np.float32))
        nir = nir.with_column("h_norm", -np.arange(nir.count, dtype=np.float32))

        def merge(out, **inputs):
            argv = ["merge", "--out", str(tmp_path / out)]
            for flag, cloud in inputs.items():
                write_columnar(cloud, tmp_path / f"{flag}.mst")
                argv += [f"--{flag}", str(tmp_path / f"{flag}.mst")]
            assert main(argv) == 0
            return (tmp_path / out).read_bytes()

        ref = merge("channels.mst", green=green, nir=nir)
        for cloud in (concat([green, nir]), concat([nir, green]), interleave(green, nir, 33)):
            assert merge("combined.mst", **{"in": cloud}) == ref

    @pytest.mark.parametrize("grouped, share", [(False, 0.75), (True, 0.3)])
    def test_holds_no_copy_of_both_channels(self, monkeypatch, grouped, share):
        """Besides the merged cloud it returns, merge --in over n points
        allocates less than `share` of its input's bytes: the channels are
        read through their row ids (through views where they are
        grouped), where the two channel copies it used to take came to
        the whole input (1.31 of it, all told)."""
        import scipy.spatial  # noqa: F401  (imported before tracing starts)

        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 1024)  # blocks << n
        green, nir = self.channels(1 << 17, 25)
        cloud = concat([green, nir]) if grouped else interleave(green, nir, 34)
        cfg, paths = load_config(), {"cloud": "c.mst"}
        extra, out = traced_bytes_beyond_output(
            lambda: stage_merge(cfg, paths, cloud=cloud)[0]["out"])
        assert out.count == cloud.count
        assert extra < share * sum(col.nbytes for col in cloud._column_dict().values())


class TestStageDenoise:
    @staticmethod
    def per_channel_copies(cloud, params):
        """The output and extra of SOR over a copy of each channel (of the
        cloud itself when it is empty), the kept copies concatenated in
        ascending channel."""
        copies = [cloud.take(cloud.channel == c) for c in np.unique(cloud.channel)]
        copies = copies or [cloud]
        parts = [sor_filter(copy.xyz, params) for copy in copies]
        out = concat([copy.take(kept) for copy, (kept, _) in zip(copies, parts)])
        return out, {"removed": sum(r.size for _, r in parts), "kept": out.count}

    def test_matches_sor_over_channel_copies(self):
        """Channels interleaved row by row come out grouped by channel,
        every column byte for byte as SOR over each channel's copy."""
        cfg = load_config()
        rng = np.random.default_rng(28)
        for make in (random_cloud, tied_cloud):
            cloud = make(rng, n=3000, extent=15.0)
            cloud.channel[:] = np.arange(cloud.count) % 2
            cloud = cloud.with_column("h_norm", rng.normal(size=cloud.count))
            result, extra = stage_denoise(cfg, cloud)
            ref, ref_extra = self.per_channel_copies(cloud, SorParams(**cfg["sor"]))
            assert 0 < extra["removed"] and extra == ref_extra
            cols, ref_cols = result["out"]._column_dict(), ref._column_dict()
            assert list(cols) == list(ref_cols)
            for name, col in cols.items():
                assert col.dtype == ref_cols[name].dtype
                assert col.tobytes() == ref_cols[name].tobytes(), name

    def test_empty_cloud_and_small_channel_raise_as_before(self):
        cfg = load_config()
        rng = np.random.default_rng(29)
        empty = random_cloud(rng, n=0)
        small = random_cloud(rng, n=106)
        small.channel[:] = 0
        small.channel[::20] = 1  # six points, k = 6
        for cloud in (empty, small):
            with pytest.raises(DataError) as expected:
                self.per_channel_copies(cloud, SorParams(**cfg["sor"]))
            with pytest.raises(DataError) as raised:
                stage_denoise(cfg, cloud)
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).endswith(f"cloud has {6 if cloud.count else 0}")

    def test_allocates_less_than_one_and_a_half_columns(self, monkeypatch):
        """Besides the denoised cloud it returns, stage_denoise over n
        points of two channels allocates less than 1.5 float64 columns
        of n: it copies one channel's coordinates at a time, once, into
        the array SOR indexes, and takes the kept rows from its input
        once."""
        import scipy.spatial  # noqa: F401  (imported before tracing starts)

        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 1024)  # blocks << n
        n = 1 << 17
        cloud, cfg = spread_cloud(n, 27), load_config()
        extra, out = traced_bytes_beyond_output(lambda: stage_denoise(cfg, cloud)[0]["out"])
        assert n // 2 < out.count < n and set(np.unique(out.channel)) == {0, 1}
        assert extra < 1.5 * 8 * n
