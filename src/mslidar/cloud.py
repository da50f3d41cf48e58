"""Columnar point-cloud data model and exact spatial indexing.

A :class:`PointCloud` is a struct-of-arrays container: coordinates are
float64, spectral attributes float32, enums uint8. Optional columns are
either present for every point or absent entirely; missing *values*
inside a present spectral column (e.g. no cross-channel neighbor during
merging) are encoded as NaN.

:class:`SpatialIndex` wraps a k-d tree behind one batch query,
:meth:`SpatialIndex.knn_batch`, whose every row is identical to a
brute-force scan, ties broken by lower point id. Every neighbor search
runs QUERY_ROWS query rows at a time.

:func:`group_cells` groups points by integer cell (voxel, tile, query
cell) with one np.lexsort: cells come out in lexicographic key order,
each cell's rows by ascending id. A neighbor pass may visit its query
rows in a spatial order, so that consecutive queries walk the same tree
nodes: :func:`ordered_blocks` yields the row ids of each block in that
order, and the pass gathers their coordinates and writes their results
back to those rows. A row's result depends on that row alone, so the
visiting order changes no bit of the output.
"""

import itertools
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

    def __len__(self) -> int:
        return self.count

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

    def column(self, name: str) -> np.ndarray:
        if name in ("x", "y", "z", "channel"):
            return getattr(self, name)
        self.require(name)
        return getattr(self, name)

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
        bad = ~np.isin(self.channel, (int(Channel.GREEN_532), int(Channel.NIR_1064)))
        if bad.any():
            raise DataError("channel column contains values other than 532/1064 tags")
        if self.has("label"):
            valid = (int(Label.NON_TREE), int(Label.TREE), int(Label.UNLABELED))
            if not np.all(np.isin(self.label, valid)):
                raise DataError("label column contains undefined class values")
        if self.has("h_norm") and not np.all(np.isfinite(self.h_norm)):
            raise DataError("h_norm column contains non-finite values")
        if self.has("pndvi"):
            vals = self.pndvi[~np.isnan(self.pndvi)]
            if vals.size and (vals.min() < -1.0 or vals.max() > 1.0):
                raise DataError("pndvi values outside [-1, 1]")


def concat(clouds: Sequence[PointCloud]) -> PointCloud:
    """Concatenate clouds with identical column presence."""
    if not clouds:
        raise DataError("cannot concatenate zero clouds")
    present = clouds[0].present_columns
    for c in clouds[1:]:
        if c.present_columns != present:
            raise DataError(
                "cannot concatenate clouds with differing columns: "
                f"{present} vs {c.present_columns}"
            )
    cols = {
        k: np.concatenate([c._column_dict()[k] for c in clouds])
        for k in clouds[0]._column_dict()
    }
    return PointCloud(crs_note=clouds[0].crs_note, **cols)


# Query rows per block of every neighbor search. Rows are independent, so
# blocking changes no result, and the (rows, k) temporaries stay a few MB
# instead of growing with the cloud.
QUERY_ROWS = 1 << 15


def row_blocks(n: int) -> Iterator[slice]:
    """Slices over rows 0..n-1, QUERY_ROWS at a time, the last one partial."""
    return (slice(lo, lo + QUERY_ROWS) for lo in range(0, n, QUERY_ROWS))


def ordered_blocks(order: np.ndarray) -> Iterator[np.ndarray]:
    """Row ids of each QUERY_ROWS block when rows are visited in `order`;
    a pass writes each block's results back to the rows it names."""
    return (order[rows] for rows in row_blocks(order.shape[0]))


# Cell numbers are int64: a coordinate over the cell size (from the cells'
# origin) at or beyond this in magnitude does not fit, and numpy's cast would
# silently merge such cells.
CELL_LIMIT = 2.0 ** 63


def group_cells(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by integer cell, given one key column per axis.

    Returns (order, starts, inverse). `order` sorts the rows by cell,
    cells in lexicographic key order and each cell's rows by ascending
    id; cell g occupies order[starts[g]:starts[g + 1]], and inverse[i] is
    the cell of row i. One np.lexsort; the cells, their order and the
    inverse are those of a row-wise unique over the stacked keys.
    """
    order = np.lexsort(keys[::-1])  # lexsort's last key is its primary one
    new = np.zeros(order.shape[0], dtype=bool)  # row starts a new cell
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    del ranked  # freed before the cumsum: a lower peak
    starts = np.flatnonzero(new)
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
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
    """Immutable exact-neighbor index over a PointCloud snapshot; a
    point's id is its row in the cloud."""

    points: np.ndarray         # (m, 3) coordinates
    tree: "cKDTree" = field(repr=False)

    def knn_batch(
        self, qs: np.ndarray, k: int, radius: float | None = None, workers: int = 1
    ) -> np.ndarray:
        """Ids of the up-to-k nearest indexed points of each query row.

        Returns an (n, k) int32 array. Row i lists, nearest first, the k
        indexed points with the smallest 3D Euclidean distance to qs[i]
        (only those within `radius`, inclusive, when it is given); ties
        go to the lower id, and distances are judged by the plain formula
        sqrt(sum((p - q)**2)), so every row equals a brute-force scan.
        Rows with fewer neighbors are padded with -1. Queries run
        QUERY_ROWS at a time into the one result array.
        """
        qs = np.asarray(qs, dtype=np.float64)
        if qs.ndim != 2:
            raise ValueError("knn_batch expects an (n, 3) query array")
        # One neighbor beyond k shows whether rank k is tied.
        kq = min(k + 1, self.points.shape[0])
        out = np.empty((qs.shape[0], k), dtype=np.int32)
        out[:, kq:] = -1
        for rows in row_blocks(qs.shape[0]):
            self._knn_block(qs[rows], k, kq, radius, workers, out[rows])
        return out

    def _knn_block(
        self, qs: np.ndarray, k: int, kq: int, radius: float | None, workers: int,
        out: np.ndarray,
    ) -> None:
        """knn_batch for one block of query rows, written into its rows of
        the result; the tree is asked for kq neighbors."""
        m = self.points.shape[0]
        limit = np.inf if radius is None else radius
        reach = limit * (1.0 + _TIE_SLACK) + 1e-12
        d, idx = self.tree.query(qs, k=kq, distance_upper_bound=reach, workers=workers)
        if kq == 1:  # scipy squeezes the k axis for scalar k=1
            d, idx = d[:, None], idx[:, None]
        # the tree returns the index size as the id of a neighbor it did not find
        out[:, : min(k, kq)] = np.where(idx[:, :k] < m, idx[:, :k], -1)
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


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact spatial index over every point of the cloud; its
    point ids must fit the int32 neighbor ids of knn_batch."""
    from scipy.spatial import cKDTree

    if cloud.count == 0:
        raise DataError("cannot index an empty point cloud")
    if cloud.count > np.iinfo(np.int32).max:
        raise DataError(
            f"cannot index {cloud.count} points: neighbor ids are int32, "
            f"so an index holds at most {np.iinfo(np.int32).max}"
        )
    pts = cloud.xyz
    return SpatialIndex(points=pts, tree=cKDTree(pts))
