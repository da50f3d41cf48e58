import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar import cloud as cloud_module
from mslidar.cloud import (
    Label, PointCloud, build_index, concat, group_cells, ordered_blocks, row_blocks,
    worker_count,
)
from mslidar.classifier import neighborhood_graph
from mslidar.errors import DataError
from mslidar.pipeline import load_config

from conftest import brute_knn, brute_radius, peak_traced_bytes, random_cloud, tied_cloud


def make_cloud(n=5, **extra):
    rng = np.random.default_rng(1)
    return PointCloud(
        x=rng.normal(size=n), y=rng.normal(size=n), z=rng.normal(size=n),
        channel=np.zeros(n, dtype=np.uint8), **extra,
    )


class TestPointCloud:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            PointCloud(
                x=np.zeros(3), y=np.zeros(3), z=np.zeros(2),
                channel=np.zeros(3, np.uint8),
            )

    def test_optional_column_length_checked(self):
        with pytest.raises(DataError, match="label"):
            make_cloud(4, label=np.zeros(5, np.uint8))

    def test_take_preserves_columns(self):
        cloud = make_cloud(6, label=np.arange(6) % 2)
        sub = cloud.take([0, 2, 4])
        assert sub.count == 3
        assert sub.label.tolist() == [0, 0, 0]
        sub2 = cloud.take(cloud.label == 1)
        assert sub2.count == 3

    def test_concat_roundtrip(self):
        cloud = make_cloud(6, label=np.arange(6) % 2)
        joined = concat([cloud.take([0, 1, 2]), cloud.take([3, 4, 5])])
        np.testing.assert_array_equal(joined.x, cloud.x)
        np.testing.assert_array_equal(joined.label, cloud.label)

    def test_concat_rejects_column_mismatch(self):
        with pytest.raises(DataError, match="differing columns"):
            concat([make_cloud(3), make_cloud(3, label=np.zeros(3, np.uint8))])

    def test_validate_rejects_nonfinite_coordinates(self):
        cloud = make_cloud(3)
        cloud.x[1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            cloud.validate()

    def test_validate_rejects_unknown_channel(self):
        cloud = make_cloud(3)
        cloud.channel[0] = 7
        with pytest.raises(DataError, match="channel"):
            cloud.validate()

    @pytest.mark.parametrize("column, valid", [("channel", {0, 1}), ("label", {0, 1, 255})])
    def test_validate_accepts_exactly_the_defined_codes(self, column, valid):
        for code in range(256):
            cloud = make_cloud(3, label=np.zeros(3, np.uint8))
            getattr(cloud, column)[1] = code
            if code in valid:
                cloud.validate()
            else:
                with pytest.raises(DataError, match=column if column == "channel" else "class"):
                    cloud.validate()

    def test_validate_accepts_nan_in_spectral_columns(self):
        cloud = make_cloud(3, refl_green_db=np.array([1.0, np.nan, -2.0], np.float32))
        cloud.validate()

    def test_validate_rejects_out_of_range_pndvi(self):
        cloud = make_cloud(3, pndvi=np.array([0.0, 1.5, -0.2], np.float32))
        with pytest.raises(DataError, match="pndvi"):
            cloud.validate()

    def test_with_column_returns_new_cloud(self):
        cloud = make_cloud(3)
        out = cloud.with_column("h_norm", np.ones(3))
        assert not cloud.has("h_norm") and out.has("h_norm")

    def test_require_names_missing_column(self):
        with pytest.raises(DataError, match="h_norm"):
            make_cloud(3).require("h_norm")


def oracle_rows(index, cloud, qs, k, radius=None):
    """Rows of index.knn_batch for cloud, as brute_knn/brute_radius give them."""
    rows = np.full((len(qs), k), -1, dtype=np.int64)
    for i, q in enumerate(qs):
        if radius is None:
            ids, _ = brute_knn(cloud.xyz, q, k)
        else:
            ids, _ = brute_radius(cloud.xyz, q, radius, k_max=k)
        rows[i, : len(ids)] = ids
    return rows


class TestSpatialIndex:
    def test_knn_matches_brute_force_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            make = tied_cloud if trial % 2 else random_cloud
            cloud = make(rng, n=int(rng.integers(5, 300)))
            index = build_index(cloud.xyz)
            qs = np.vstack((rng.uniform(0, 10, (5, 3)), cloud.xyz[:20]))
            k = int(rng.integers(1, 10))
            np.testing.assert_array_equal(
                index.knn_batch(qs, k), oracle_rows(index, cloud, qs, k))

    def test_radius_matches_brute_force_randomized(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            make = tied_cloud if trial % 2 else random_cloud
            cloud = make(rng, n=int(rng.integers(5, 300)))
            index = build_index(cloud.xyz)
            qs = np.vstack((rng.uniform(0, 10, (5, 3)), cloud.xyz[:20]))
            r = float(rng.uniform(0.5, 6.0))
            k = int(rng.integers(1, 12)) if trial % 3 else cloud.count
            np.testing.assert_array_equal(
                index.knn_batch(qs, k, radius=r), oracle_rows(index, cloud, qs, k, r))

    def test_boundary_distance_is_inclusive(self):
        cloud = PointCloud(
            x=np.array([0.0, 1.0, 2.0]), y=np.zeros(3), z=np.zeros(3),
            channel=np.zeros(3, np.uint8),
        )
        index = build_index(cloud.xyz)
        ids = index.knn_batch(np.zeros((1, 3)), 3, radius=1.0)
        assert ids.tolist() == [[0, 1, -1]]

    def test_distance_ties_break_by_lower_id(self):
        # four points at identical distance from the origin
        cloud = PointCloud(
            x=np.array([1.0, -1.0, 0.0, 0.0]),
            y=np.array([0.0, 0.0, 1.0, -1.0]),
            z=np.zeros(4),
            channel=np.zeros(4, np.uint8),
        )
        index = build_index(cloud.xyz)
        assert index.knn_batch(np.zeros((1, 3)), 2).tolist() == [[0, 1]]
        ids = index.knn_batch(np.zeros((1, 3)), 3, radius=1.0)
        assert ids.tolist() == [[0, 1, 2]]

    def test_knn_batch_matches_single_queries(self):
        rng = np.random.default_rng(10)
        cloud = tied_cloud(rng, n=120)
        index = build_index(cloud.xyz)
        qs = np.vstack((rng.uniform(0, 10, (15, 3)), cloud.xyz))
        np.testing.assert_array_equal(
            index.knn_batch(qs, k=4, radius=0.8),
            oracle_rows(index, cloud, qs, 4, 0.8))

    def test_query_blocks_do_not_change_the_result(self, monkeypatch):
        # 127 query rows in blocks of 5, the last one partial
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 5)
        rng = np.random.default_rng(11)
        for make in (random_cloud, tied_cloud):
            cloud = make(rng, n=123, extent=3.0)
            index = build_index(cloud.xyz)
            qs = np.vstack((rng.uniform(0, 3, (4, 3)), cloud.xyz))
            for k, r in ((5, None), (6, 0.6), (cloud.count + 2, None)):
                got = index.knn_batch(qs, k, radius=r)
                assert got.dtype == np.int32
                np.testing.assert_array_equal(got, oracle_rows(index, cloud, qs, k, r))

    def test_block_rows_shrink_in_proportion_to_k_past_block_k(self, monkeypatch):
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 64)
        bk = cloud_module.BLOCK_K
        for k, size in ((1, 64), (bk, 64), (bk + 1, 64 * bk // (bk + 1)), (2 * bk, 32),
                        (4 * bk, 16), (64 * bk, 1), (10**9, 1)):
            blocks = list(row_blocks(200, k))
            assert [(b.start, b.stop) for b in blocks] == [
                (lo, lo + size) for lo in range(0, 200, size)], k

    @pytest.mark.parametrize("workers", [1, 2])
    def test_visiting_order_does_not_change_any_row(self, monkeypatch, workers):
        # A 0.25 m lattice (exact in binary) with twins: many rows have
        # distance ties and neighbors exactly on the 0.5 m radius.
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 6)
        rng = np.random.default_rng(12)
        cloud = tied_cloud(rng, n=150, extent=2.0, step=0.25)
        index = build_index(cloud.xyz)
        qs = np.vstack((cloud.xyz, np.round(rng.uniform(0, 2, (20, 3)) * 8) / 8))
        cells = np.floor(qs / 0.5).astype(np.int64).T
        orders = (rng.permutation(len(qs)), group_cells(*cells)[0],
                  np.arange(len(qs))[::-1])
        for k, r in ((4, 0.5), (7, None), (cloud.count, 0.5)):
            plain = index.knn_batch(qs, k, radius=r, workers=workers)
            for order in orders:
                got = np.full_like(plain, -2)
                for ids in ordered_blocks(order):
                    got[ids] = index.knn_batch(qs[ids], k, radius=r, workers=workers)
                np.testing.assert_array_equal(got, plain)
        # the last plain call: every radius neighbor, as brute force lists them
        np.testing.assert_array_equal(
            plain, oracle_rows(index, cloud, qs, cloud.count, 0.5))

    def test_more_points_than_int32_ids_rejected(self):
        # a zero-stride view: the check must come before any copy
        too_many = np.broadcast_to(np.zeros(3), (np.iinfo(np.int32).max + 1, 3))
        with pytest.raises(DataError, match="int32"):
            build_index(too_many)

    def test_empty_cloud_rejected(self):
        with pytest.raises(DataError):
            build_index(np.empty((0, 3)))

    def test_contiguous_float64_coordinates_are_indexed_without_a_copy(self):
        pts = np.random.default_rng(13).uniform(0, 5, (40, 2))
        assert build_index(pts).points is pts
        strided = np.asfortranarray(pts)
        index = build_index(strided)
        assert index.points.flags.c_contiguous and np.array_equal(index.points, pts)

    def test_queries_must_have_the_index_dimensions(self):
        index = build_index(np.zeros((4, 2)))
        for qs in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                index.knn_batch(qs, 1)

    def test_planar_knn_matches_brute_force_on_a_lattice(self):
        # a permuted integer lattice in 2-D: half-integer queries tie at rank k
        rng = np.random.default_rng(14)
        ij = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
        pts = ij[rng.permutation(len(ij))]
        qs = np.vstack((pts[:10], rng.integers(0, 22, (30, 2)) / 2.0))
        index = build_index(pts)
        for k, r in ((8, None), (6, 1.5), (12, None)):
            want = np.full((len(qs), k), -1)
            for i, q in enumerate(qs):
                ids = brute_knn(pts, q, k)[0] if r is None else brute_radius(pts, q, r, k)[0]
                want[i, : len(ids)] = ids
            np.testing.assert_array_equal(index.knn_batch(qs, k, radius=r), want)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 60), st.integers(0, 2**31 - 1),
        st.floats(0.1, 5.0), st.integers(1, 8),
    )
    def test_query_properties(self, n, seed, r, k):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, n=n, with_label=False)
        index = build_index(cloud.xyz)
        q = rng.uniform(0, 10, (1, 3))
        ids = index.knn_batch(q, n, radius=r)[0]
        ids = ids[ids >= 0]
        d = np.sqrt(((cloud.xyz[ids] - q) ** 2).sum(axis=1))
        assert np.all(np.diff(d) >= 0)            # sorted by distance
        assert np.all(d <= r)                     # all within the radius
        assert len(set(ids.tolist())) == len(ids)  # unique
        kids = index.knn_batch(q, k)[0]
        assert np.all(kids[: min(k, n)] >= 0) and np.all(kids[min(k, n):] == -1)
        kd = np.sqrt(((cloud.xyz[kids[kids >= 0]] - q) ** 2).sum(axis=1))
        assert np.all(np.diff(kd) >= 0)


def unique_cells(*keys):
    """group_cells' (order, starts, inverse) from np.unique over the key
    rows, each cell's rows in a stable argsort of the inverse."""
    _, inverse, counts = np.unique(
        np.column_stack(keys), axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    return np.argsort(inverse, kind="stable"), np.cumsum(counts) - counts, inverse


class TestGroupCells:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_unique_rows_randomized(self, ndim):
        rng = np.random.default_rng(ndim)
        for n in (1, 2, 7, 300, 2000):
            # few distinct values per axis, negative ones included, so
            # cells repeat and share leading keys
            keys = [rng.integers(-4, 4, n).astype(np.int64) for _ in range(ndim)]
            got = group_cells(*keys)
            for a, b in zip(got, unique_cells(*keys)):
                assert a.dtype == np.intp
                np.testing.assert_array_equal(a, b)

    def test_signed_lexicographic_cell_order(self):
        ix = np.array([3, -2, -2, 0, 3, -2], dtype=np.int64)
        iy = np.array([-1, 5, -7, 0, -1, 5], dtype=np.int64)
        order, starts, inverse = group_cells(ix, iy)
        assert order.tolist() == [2, 1, 5, 3, 0, 4]
        assert starts.tolist() == [0, 1, 3, 4]
        assert inverse.tolist() == [3, 1, 0, 2, 3, 1]

    def test_empty_keys_give_no_cells(self):
        order, starts, inverse = group_cells(np.empty(0, np.int64), np.empty(0, np.int64))
        assert order.size == starts.size == inverse.size == 0

    @staticmethod
    def grouped(keys, monkeypatch, packed):
        """group_cells(*keys), checked against the unique_cells oracle and
        against the path expected: the packed key, or np.lexsort's fallback."""
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: calls.append(1) or lexsort(k))
        got = group_cells(*keys)
        monkeypatch.setattr(np, "lexsort", lexsort)
        assert calls == ([] if packed else [1])
        for a, b in zip(got, unique_cells(*keys)):
            np.testing.assert_array_equal(a, b)
        return got

    @pytest.mark.parametrize("spans, packed", [
        ((2 ** 62, 2), False),              # the product reaches 2**63
        ((2 ** 61, 2, 3), False),
        ((7, (2 ** 63 - 1) // 7), True),    # the largest product that packs
        ((2 ** 32, 2 ** 31 - 1), True),
    ])
    def test_span_product_of_2_63_falls_back_to_lexsort(self, spans, packed, monkeypatch):
        rng = np.random.default_rng(len(spans))
        # each column takes its smallest and largest value, and some between
        keys = [np.array([-3, -3 + span - 1, *rng.integers(-3, span - 3, 40)], dtype=np.int64)
                for span in spans]
        for key in keys:
            rng.shuffle(key)
        self.grouped(keys, monkeypatch, packed)

    @pytest.mark.parametrize("lows", [
        (-2 ** 62, 2 ** 62), (2 ** 62, -2 ** 62), (-2 ** 63, 2 ** 63 - 8), (2 ** 63 - 8, -2 ** 63),
    ])
    def test_keys_near_the_int64_limits_pack_from_their_minimum(self, lows, monkeypatch):
        # small spans far from zero: the keys pack only once offset, and
        # packed * span + key, or that less lo, leaves int64 on the way
        rng = np.random.default_rng(5)
        keys = [lo + rng.integers(0, 8, 200) for lo in lows]
        self.grouped(keys, monkeypatch, packed=True)

    @pytest.mark.parametrize("values, packed", [
        ([5, -2, 5, 9, -2, 0], True),
        ([2 ** 63 - 1, -2 ** 63, 0, -2 ** 63, 2 ** 63 - 1], False),  # span 2**64
        ([2 ** 63 - 1, 0, 1, 2 ** 63 - 1], False),  # span 2**63
        ([2 ** 63 - 2, 0, 1, 2 ** 63 - 2], True),
    ])
    def test_one_key_column(self, values, packed, monkeypatch):
        order, starts, inverse = self.grouped([np.array(values, dtype=np.int64)], monkeypatch,
                                              packed)
        assert np.array_equal(np.sort(values, kind="stable"), np.asarray(values)[order])

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_packed_key_and_lexsort_give_the_same_cells(self, ndim, monkeypatch):
        rng = np.random.default_rng(10 + ndim)
        keys = [rng.integers(-50, 50, 3000) for _ in range(ndim)]
        packed = self.grouped(keys, monkeypatch, packed=True)
        # any product of spans at or above 2**63 takes the fallback
        monkeypatch.setattr(cloud_module.math, "prod", lambda spans: 2 ** 63)
        fallback = self.grouped(keys, monkeypatch, packed=False)
        for a, b in zip(packed, fallback):
            assert a.dtype == b.dtype == np.intp
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("packed", [True, False])
    def test_holds_one_int64_column_beside_its_inputs_and_results(self, packed, monkeypatch):
        """Beside the key columns given and the (order, starts, inverse)
        it returns, grouping holds at most one more int64 column and its
        bool flags: the packed key or the sorted key it scans, then the
        running cell count. One more, as a cumsum over the bools and its
        less-one copy made, is 2.1 columns."""
        n = 200_000
        rng = np.random.default_rng(16)
        keys = [rng.integers(-4, 4, n) for _ in range(3)]  # 512 cells: starts stays small
        if not packed:
            monkeypatch.setattr(cloud_module.math, "prod", lambda spans: 2 ** 63)
        got = []
        peak = peak_traced_bytes(lambda: got.append(group_cells(*keys)))
        extra = peak - sum(a.nbytes for a in got[0])
        assert extra < 1.5 * 8 * n


def test_threads_above_the_usable_cpus_start_no_more_threads(monkeypatch):
    """scipy starts one thread per worker on every query, so the workers of
    a `threads` value stop at the CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert worker_count(64) == 2
    assert worker_count(None) == 2 and worker_count(1) == 1
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    cloud = random_cloud(np.random.default_rng(32), n=100)
    workers = worker_count(load_config(overrides={"threads": 8})["threads"])
    for _ in neighborhood_graph(cloud, k=4, radius=2.0, workers=workers):
        assert 0 < len(started) <= 2
        started.clear()
