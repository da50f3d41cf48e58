import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar import cloud as cloud_module
from mslidar.cloud import Channel, Label, PointCloud, build_index, concat
from mslidar.errors import DataError
from mslidar.preprocess import (
    SorParams, merge_channels, sor_filter, voxel_subsample,
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
        kept, removed = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
        assert removed.tolist() == [100]
        assert kept.count == 100

    def test_unreachable_threshold_removes_nothing(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, n=80)
        kept, removed = sor_filter(cloud, SorParams(k=6, n_sigma=1e9))
        assert removed.size == 0
        assert kept.count == cloud.count

    def test_cube_vertices_remove_nothing(self):
        # every vertex has the identical neighbor-distance multiset
        # (3 edges, 3 face diagonals), exactly in floating point, so all
        # mean distances coincide, sigma is 0, and the strict > keeps all
        corners = np.array([(x, y, z) for x in (0.0, 1.0)
                            for y in (0.0, 1.0) for z in (0.0, 1.0)])
        cloud = channel_cloud(corners, np.zeros(8), 0)
        _, removed = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
        assert removed.size == 0

    def test_matches_brute_oracle_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            cloud = random_cloud(rng, n=int(rng.integers(20, 150)), extent=6.0)
            _, removed = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
            expected = brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0)
            np.testing.assert_array_equal(np.sort(removed), np.sort(expected))

    def test_matches_brute_oracle_with_coincident_points(self):
        rng = np.random.default_rng(6)
        base = random_cloud(rng, n=60, extent=4.0)
        cloud = concat([base, base.take([3, 7, 7, 11])])
        _, removed = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
        expected = brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0)
        np.testing.assert_array_equal(np.sort(removed), np.sort(expected))

    def test_kept_and_removed_partition_input(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, n=100)
        kept, removed = sor_filter(cloud, SorParams())
        assert kept.count + removed.size == cloud.count

    def test_query_blocks_do_not_change_the_removed_ids(self, monkeypatch):
        # 401 points in blocks of 5, the last one partial
        rng = np.random.default_rng(10)
        cloud = tied_cloud(rng, n=401, extent=4.0)
        _, whole = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 5)
        _, blocked = sor_filter(cloud, SorParams(k=6, n_sigma=1.0))
        assert whole.size > 0
        np.testing.assert_array_equal(blocked, whole)
        # the blocks follow the tree's leaf order, not the file order, and
        # each point's distances still land in its own row
        leaf_order = build_index(cloud).tree.indices
        assert not np.array_equal(leaf_order[:5], np.arange(5))
        np.testing.assert_array_equal(blocked, brute_sor_removed(cloud.xyz, k=6, n_sigma=1.0))

    def test_too_small_cloud_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DataError, match="SOR"):
            sor_filter(random_cloud(rng, n=5), SorParams(k=6))

    def test_permutation_invariant_point_set(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, n=90, extent=5.0)
        perm = rng.permutation(cloud.count)
        kept_a, _ = sor_filter(cloud, SorParams())
        kept_b, _ = sor_filter(cloud.take(perm), SorParams())
        a = np.sort(kept_a.xyz.view([("", float)] * 3).ravel())
        b = np.sort(kept_b.xyz.view([("", float)] * 3).ravel())
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

    def test_allocates_less_than_twelve_columns(self):
        """Besides the thinned cloud it returns, voxel_subsample over n
        points allocates less than twelve float64 columns of n."""
        n = 1 << 17
        cloud = spread_cloud(n, 26)
        extra, out = traced_bytes_beyond_output(lambda: voxel_subsample(cloud, 0.5))
        assert n // 2 < out.count < n
        assert extra < 12 * 8 * n

    def test_invalid_grid_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DataError, match="grid"):
            voxel_subsample(random_cloud(rng, n=10), grid=0.0)

    def test_grid_whose_voxel_numbers_overflow_int64_rejected(self):
        # x / grid reaches 2**63 at x = 1 and 2, which would share a voxel
        cloud = channel_cloud([[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], np.zeros(3), 0)
        with pytest.raises(DataError, match="1e-300"):
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
