"""Columnar point-cloud data model and exact spatial indexing.

A :class:`PointCloud` is a struct-of-arrays container: coordinates are
float64, spectral attributes float32, enums uint8. Optional columns are
either present for every point or absent entirely; missing *values*
inside a present spectral column (e.g. no cross-channel neighbor during
merging) are encoded as NaN.

:class:`SpatialIndex` wraps a k-d tree over an (m, d) coordinate array
behind one batch query, :meth:`SpatialIndex.knn_batch`, whose every row
is identical to a brute-force scan, ties broken by lower point id. It is
the one neighbor kernel: merge, the neighborhood graph and the DTM (in
XY) query it for neighbor ids. SOR reads only distances, scipy's own
from ``index.tree.query``, which do not depend on how ties are ordered.
All four build the index with :func:`build_index`, the only place a tree
is built, so no result depends on how the tree is built. The build is
scipy's sliding-midpoint rule (``balanced_tree=False``), chosen by
measurement: it builds in about half the time of the median split and
queries no slower. Every neighbor pass queries one :func:`row_blocks`
block of rows at a time, whose size shrinks as k grows, so a block's
(rows, k) arrays stay a few MB whatever k is.

:func:`group_cells` groups points by integer cell (voxel, tile, query
cell) with one stable sort, of one packed int64 key where the key spans
allow and of the key columns (np.lexsort) otherwise: cells come out in
lexicographic key order, each cell's rows by ascending id. A neighbor
pass may visit its query rows in a spatial order, so that consecutive
queries walk the same tree nodes: :func:`ordered_blocks` yields the row
ids of each block in that order, and the pass gathers their coordinates
and writes their results back to those rows. A row's result depends on
that row alone, so the visiting order changes no bit of the output.
"""

import itertools
import math
import os
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import DataError

if TYPE_CHECKING:  # imported where an index is built: most stages never need scipy
    from scipy.spatial import cKDTree


class Channel(IntEnum):
    """Scanner wavelength of a point: 532 nm (green) or 1064 nm (NIR)."""

    GREEN_532 = 0
    NIR_1064 = 1


class Label(IntEnum):
    NON_TREE = 0
    TREE = 1
    UNLABELED = 255


# Optional attribute columns and their storage dtypes. Order matters: it is
# the canonical column order of the MST1 file format.
OPTIONAL_COLUMNS: dict[str, np.dtype] = {
    "reflectance_db": np.dtype(np.float32),
    "label": np.dtype(np.uint8),
    "ground_flag": np.dtype(bool),
    "h_norm": np.dtype(np.float32),
    "refl_green_db": np.dtype(np.float32),
    "refl_nir_db": np.dtype(np.float32),
    "pndvi": np.dtype(np.float32),
}


def _as_column(name: str, values, dtype: np.dtype, n: int) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise DataError(f"column {name!r} must be one-dimensional")
    if arr.shape[0] != n:
        raise DataError(
            f"column {name!r} has length {arr.shape[0]}, expected {n}"
        )
    return arr


@dataclass
class PointCloud:
    """Columnar point cloud. All present columns have identical length."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    channel: np.ndarray
    reflectance_db: np.ndarray | None = None
    label: np.ndarray | None = None
    ground_flag: np.ndarray | None = None
    h_norm: np.ndarray | None = None
    refl_green_db: np.ndarray | None = None
    refl_nir_db: np.ndarray | None = None
    pndvi: np.ndarray | None = None
    crs_note: str = ""

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64).ravel()
        n = self.x.shape[0]
        self.y = _as_column("y", self.y, np.dtype(np.float64), n)
        self.z = _as_column("z", self.z, np.dtype(np.float64), n)
        self.channel = _as_column("channel", self.channel, np.dtype(np.uint8), n)
        for name, dtype in OPTIONAL_COLUMNS.items():
            col = getattr(self, name)
            if col is not None:
                setattr(self, name, _as_column(name, col, dtype, n))

    @property
    def count(self) -> int:
        return int(self.x.shape[0])

    @property
    def xyz(self) -> np.ndarray:
        """Coordinates as an (n, 3) float64 array (copies)."""
        return np.column_stack((self.x, self.y, self.z))

    def has(self, name: str) -> bool:
        return getattr(self, name, None) is not None

    @property
    def present_columns(self) -> tuple[str, ...]:
        return tuple(c for c in OPTIONAL_COLUMNS if self.has(c))

    def require(self, *names: str) -> None:
        for name in names:
            if not self.has(name):
                raise DataError(f"point cloud lacks required column {name!r}")

    def with_column(self, name: str, values) -> "PointCloud":
        """Return a copy of the cloud with one column added or replaced."""
        cols = self._column_dict()
        cols[name] = values
        return PointCloud(crs_note=self.crs_note, **cols)

    def _column_dict(self) -> dict[str, np.ndarray]:
        cols = {"x": self.x, "y": self.y, "z": self.z, "channel": self.channel}
        for name in OPTIONAL_COLUMNS:
            if self.has(name):
                cols[name] = getattr(self, name)
        return cols

    def take(self, indices) -> "PointCloud":
        """Subset by an index array or boolean mask; keeps all columns."""
        indices = np.asarray(indices)
        cols = {k: v[indices] for k, v in self._column_dict().items()}
        return PointCloud(crs_note=self.crs_note, **cols)

    def validate(self) -> None:
        """Check the data-model invariants; raise DataError on violation."""
        for name in ("x", "y", "z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"non-finite values in coordinate column {name!r}")
        # comparisons, not np.isin, which allocates 12 bytes per point here
        if self.channel.max(initial=0) > max(Channel):
            raise DataError("channel column contains values other than 532/1064 tags")
        if self.has("label"):
            if not np.all((self.label <= Label.TREE) | (self.label == Label.UNLABELED)):
                raise DataError("label column contains undefined class values")
        for name in ("reflectance_db", "h_norm"):
            if self.has(name) and not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} column contains non-finite values")
        # NaN marks a missing cross-channel value; an infinite one is no dB value
        for name in ("refl_green_db", "refl_nir_db"):
            if self.has(name) and np.isinf(getattr(self, name)).any():
                raise DataError(f"{name} column contains infinite values")
        if self.has("pndvi"):
            vals = self.pndvi[~np.isnan(self.pndvi)]
            if vals.size and (vals.min() < -1.0 or vals.max() > 1.0):
                raise DataError("pndvi values outside [-1, 1]")


def concat(clouds: Sequence[PointCloud],
           rows: Sequence[slice | np.ndarray] | None = None) -> PointCloud:
    """Concatenate clouds with identical column presence; `rows`, one
    entry per cloud, takes just those rows of it (a range or row ids),
    one column at a time, where a take of each cloud would copy them all
    first."""
    if not clouds:
        raise DataError("cannot concatenate zero clouds")
    present = clouds[0].present_columns
    for c in clouds[1:]:
        if c.present_columns != present:
            raise DataError(
                "cannot concatenate clouds with differing columns: "
                f"{present} vs {c.present_columns}"
            )
    rows = rows or [slice(None)] * len(clouds)
    cols = {
        k: np.concatenate([c._column_dict()[k][r] for c, r in zip(clouds, rows)])
        for k in clouds[0]._column_dict()
    }
    return PointCloud(crs_note=clouds[0].crs_note, **cols)


# Query rows per block of every neighbor pass with up to BLOCK_K values per
# row; past that, blocks shrink in proportion to k, so a block holds at most
# QUERY_ROWS * BLOCK_K values per (rows, k) array. Every default k but the
# neighbourhood graph's 16 (SOR 6 + 1, merge 7, DTM 8) keeps full blocks;
# the graph's blocks are half size. Rows are independent, so blocking
# changes no result, and the (rows, k) temporaries stay a few MB instead
# of growing with the cloud or with k.
QUERY_ROWS = 1 << 15
BLOCK_K = 8


def worker_count(threads: int | None) -> int:
    """The workers of the `threads` config value: every CPU this process
    may run on, or `threads` of them when that is fewer (each query and
    MLP pass starts one thread per worker). Neighbor queries and the
    model take it; no result depends on it."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return usable if threads is None else min(threads, usable)


def row_blocks(n: int, k: int = 1) -> Iterator[slice]:
    """Slices over rows 0..n-1 of a pass with k values per row, the last
    one partial: QUERY_ROWS rows each for k <= BLOCK_K, else
    QUERY_ROWS * BLOCK_K // k rows (at least one)."""
    size = QUERY_ROWS if k <= BLOCK_K else max(1, QUERY_ROWS * BLOCK_K // k)
    return (slice(lo, lo + size) for lo in range(0, n, size))


def ordered_blocks(order: np.ndarray, k: int = 1) -> Iterator[np.ndarray]:
    """Row ids of each row_blocks(n, k) block when rows are visited in
    `order`; a pass writes each block's results back to the rows it names."""
    return (order[rows] for rows in row_blocks(order.shape[0], k))


# Cell numbers are int64: a coordinate over the cell size (from the cells'
# origin) at or beyond this in magnitude does not fit, and numpy's cast would
# silently merge such cells.
CELL_LIMIT = 2.0 ** 63


def group_cells(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by integer cell, given one int64 key column per axis.

    Returns (order, starts, inverse). `order` sorts the rows by cell,
    cells in lexicographic key order and each cell's rows by ascending
    id; cell g occupies order[starts[g]:starts[g + 1]], and inverse[i] is
    the cell of row i. The cells, their order and the inverse are those
    of a row-wise unique over the stacked keys.

    When the product of the key spans is below 2**63, the columns, each
    taken from its minimum, are packed into one mixed-radix int64 key
    whose order is the lexicographic one, and one stable argsort sorts
    it; otherwise one np.lexsort sorts the columns. Both give the same
    result.
    """
    n = keys[0].shape[0]
    lows = [int(key.min()) for key in keys] if n else []
    spans = [int(key.max()) - lo + 1 for key, lo in zip(keys, lows)]
    if n and math.prod(spans) < 2 ** 63:
        # Built in place in uint64, whose arithmetic wraps modulo 2**64:
        # each partial key's value lies in [0, 2**63), so it comes out exact.
        packed = np.zeros(n, dtype=np.uint64)
        for key, lo, span in zip(keys, lows, spans):
            packed *= np.uint64(span)
            packed += key.view(np.uint64)
            packed -= np.uint64(lo % 2 ** 64)
        order, keys = np.argsort(packed, kind="stable"), (packed,)
        del packed  # keys holds the one reference, dropped after the scan
    else:
        order = np.lexsort(keys[::-1])  # lexsort's last key is its primary one
    new = np.zeros(n, dtype=bool)  # row starts a new cell
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    del ranked, key, keys  # the packed key too: freed before the cumsum, a lower peak
    starts = np.flatnonzero(new)
    inverse = np.empty(n, dtype=np.intp)
    # the one n-sized temporary beside the result: a cumsum of the bools
    # themselves would add a full-size cast buffer
    run = new.astype(np.intp)
    np.cumsum(run, out=run)
    run -= 1
    inverse[order] = run
    return order, starts, inverse


# Relative slack for deciding that two distances may tie: own-formula
# distances and the k-d tree's internal ones agree to a few ulps, and
# 1e-9 (plus 1e-12 absolute) is orders of magnitude above that.
_TIE_SLACK = 1e-9


def _near(a: np.ndarray, b) -> np.ndarray:
    """Where finite distances a are not clearly below b."""
    return np.isfinite(a) & (a * (1.0 + _TIE_SLACK) + 1e-12 >= b)


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable exact-neighbor index over an (m, d) coordinate array;
    a point's id is its row."""

    points: np.ndarray         # (m, d) float64 coordinates
    tree: "cKDTree" = field(repr=False)

    def knn_batch(
        self, qs: np.ndarray, k: int, radius: float | None = None, workers: int = 1
    ) -> np.ndarray:
        """Ids of the up-to-k nearest indexed points of each query row.

        Returns an (n, k) int32 array. Row i lists, nearest first, the k
        indexed points with the smallest Euclidean distance in the
        index's dimensions to qs[i] (only those within `radius`,
        inclusive, when it is given); ties go to the lower id, and
        distances are judged by the plain formula sqrt(sum((p - q)**2)),
        so every row equals a brute-force scan.
        Rows with fewer neighbors are padded with -1. One tree query
        answers every row given, so its temporaries grow with the rows:
        each pass hands it one row_blocks(n, k) block at a time.
        """
        qs = np.asarray(qs, dtype=np.float64)
        if qs.shape[1:] != self.points.shape[1:]:
            raise ValueError(f"knn_batch expects an (n, {self.points.shape[1]}) query array")
        m = self.points.shape[0]
        kq = min(k + 1, m)  # one neighbor beyond k shows whether rank k is tied
        limit = np.inf if radius is None else radius
        reach = limit * (1.0 + _TIE_SLACK) + 1e-12
        out = np.full((qs.shape[0], k), -1, dtype=np.int32)  # before the query: a lower peak
        d, idx = self.tree.query(qs, k=kq, distance_upper_bound=reach, workers=workers)
        if kq == 1:  # scipy squeezes the k axis for scalar k=1
            d, idx = d[:, None], idx[:, None]
        out[:, : min(k, kq)] = idx[:, :k]  # in place: no (rows, k) int64 temporary
        out[out == m] = -1  # the tree's id of a neighbor it did not find is m
        del idx  # free it before the tie scan, which peaks with a copy of d

        # Tree order is exact wherever no two listed distances, and no
        # distance and the radius, lie within the slack of each other.
        rows = np.nonzero(_near(d[:, :-1], d[:, 1:]).any(axis=1)
                          | _near(d, limit).any(axis=1))[0]
        if rows.size:
            # Re-solve those rows from every point the tree puts within the
            # k-th (or radius) distance plus slack, sorted by (distance, id).
            last = np.minimum(d[rows, min(k, kq) - 1], reach)
            balls = self.tree.query_ball_point(
                qs[rows], last * (1.0 + _TIE_SLACK) + 1e-12, workers=workers)
            counts = np.fromiter(map(len, balls), np.int64, rows.size)
            cand = np.fromiter(itertools.chain.from_iterable(balls), np.int64, counts.sum())
            owner = np.repeat(np.arange(rows.size), counts)
            dist = np.sqrt(np.sum((self.points[cand] - qs[rows][owner]) ** 2, axis=1))
            order = np.lexsort((cand, dist, owner))  # ids ascend with cand
            cand, owner, dist = cand[order], owner[order], dist[order]
            rank = np.arange(owner.size) - np.searchsorted(owner, owner)
            take = (rank < k) & (dist <= limit)
            out[rows] = -1
            out[rows[owner[take]], rank[take]] = cand[take]
        return out


def build_index(points: np.ndarray) -> SpatialIndex:
    """Build an exact spatial index over the rows of an (m, d) coordinate
    array, kept without a copy when it is contiguous float64; the row ids
    must fit the int32 neighbor ids of knn_batch."""
    from scipy.spatial import cKDTree

    m = len(points)
    if m == 0:
        raise DataError("cannot index an empty point cloud")
    if m > np.iinfo(np.int32).max:
        raise DataError(
            f"cannot index {m} points: neighbor ids are int32, "
            f"so an index holds at most {np.iinfo(np.int32).max}"
        )
    pts = np.ascontiguousarray(points, dtype=np.float64)
    # sliding-midpoint splits: about half the median split's build time,
    # and no slower to query (README tables the measured build options)
    return SpatialIndex(points=pts, tree=cKDTree(pts, balanced_tree=False))
