"""Point-cloud preprocessing: denoising, channel merging, subsampling.

All three operations are defined point-set to point-set with documented
tie-breaking, so their outputs are order-independent and checkable
against brute-force oracles.
"""

import logging
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .cloud import (
    CELL_LIMIT, Channel, Label, PointCloud, build_index, concat, group_cells,
    ordered_blocks, row_blocks,
)
from .errors import ConfigError, DataError
from .features import db_to_linear, linear_to_db

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SorParams:
    """Statistical outlier removal: k neighbors, n_sigma threshold."""

    k: int = 6
    n_sigma: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"sor.k must be >= 1, got {self.k!r}")
        if not self.n_sigma > 0:
            raise ConfigError(f"sor.n_sigma must be positive, got {self.n_sigma!r}")


def sor_filter(
    points: np.ndarray, params: SorParams = SorParams(), workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Remove statistical outliers from an (n, 3) float64 coordinate array.

    For every point, d_i is the mean distance to its k nearest other
    points. Points with d_i strictly above mean(d) + n_sigma*std(d)
    (population std over all d_i) are removed. Returns (kept, removed),
    ascending row ids that together cover every row. The distances are
    scipy's own, which do not depend on how ties are ordered.
    """
    n = len(points)
    if n <= params.k:
        raise DataError(f"SOR needs more than k={params.k} points, cloud has {n}")
    index = build_index(points)
    mean_d = np.empty(n, dtype=np.float64)
    # Points are visited in the tree's leaf order, so neighbouring queries
    # walk the same nodes; each row's distances depend on that row alone.
    for ids in ordered_blocks(index.tree.indices, params.k + 1):
        # k+1 because the nearest hit of each query is the point itself
        # (or a coincident twin, which has the same distance, 0).
        d, _ = index.tree.query(index.points[ids], k=params.k + 1, workers=workers)
        mean_d[ids] = d[:, 1:].mean(axis=1)
    del index, ids  # ids views the tree's leaf order: both freed before the row ids
    outlier = mean_d > mean_d.mean() + params.n_sigma * mean_d.std()
    kept, removed = np.flatnonzero(~outlier), np.flatnonzero(outlier)
    logger.info(
        "SOR removed %d of %d points (k=%d, n_sigma=%g)",
        removed.size, n, params.k, params.n_sigma,
    )
    return kept, removed


def _reach(columns) -> float:
    """Largest coordinate magnitude of a non-empty cloud, given its x, y
    and z columns."""
    return max(max(float(c.max()), -float(c.min())) for c in columns)


def _cubic_cells(columns, side: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """group_cells over cubes of the given side, anchored at the origin, of
    the points whose x, y and z columns are given; the caller keeps
    _reach(columns) / side below CELL_LIMIT."""
    return group_cells(*(np.floor(c / side).astype(np.int64) for c in columns))


class _Rows(NamedTuple):
    """One channel's points: the rows of a cloud, a range (a slice) or row
    ids, and the name its error messages give the cloud."""

    cloud: PointCloud
    rows: slice | np.ndarray
    name: str

    @property
    def count(self) -> int:
        if isinstance(self.rows, slice):
            return len(range(self.cloud.count)[self.rows])
        return self.rows.shape[0]

    def column(self, name: str, at=slice(None)) -> np.ndarray:
        """The column at positions `at` of these rows, all of them by
        default: a view of the cloud's own where both are ranges, else a
        copy of just those values."""
        col = getattr(self.cloud, name)
        return col[self.rows][at] if isinstance(self.rows, slice) else col[self.rows[at]]

    def coords(self, at=slice(None)) -> Iterator[np.ndarray]:
        """The x, y and z columns at `at`, each gathered when it is reached."""
        return (self.column(name, at) for name in "xyz")

    def points(self) -> np.ndarray:
        """The rows' coordinates as a new (n, 3) float64 array, filled a
        column at a time."""
        pts = np.empty((self.count, 3))
        for j, col in enumerate(self.coords()):
            pts[:, j] = col
        return pts


def channel_rows(channel: np.ndarray) -> tuple[slice | np.ndarray, slice | np.ndarray]:
    """The rows of the green and of the nir points of a combined cloud, as
    merge_channels takes them: each a range (a slice, whose columns are
    views) where the channel's points are contiguous, as denoise writes
    them, else its ascending row ids."""
    rows = []
    for chan in (Channel.GREEN_532, Channel.NIR_1064):
        ids = np.flatnonzero(channel == int(chan))
        contiguous = ids.size and ids[-1] - ids[0] + 1 == ids.size
        rows.append(slice(int(ids[0]), int(ids[-1]) + 1) if contiguous else ids)
    return rows[0], rows[1]


def _cross_channel_db(
    targets: _Rows, source: _Rows, radius: float, k: int, workers: int,
) -> np.ndarray:
    """Mean reflectance of up to k nearest source points within radius.

    Averaged in linear units, returned in dB; NaN where no source point
    lies within the radius. Targets are visited a block at a time in the
    order of their radius-sized cells, and each block's coordinates are
    gathered only for that block, from the targets' own rows. A mean that
    float64 cannot hold in linear units (from a source reflectance of
    thousands of dB) is a DataError naming the source. The index, the
    linear values and the visiting order are freed before the dB tail.
    """
    # Any visiting order gives the same result, so the cells may be coarser
    # than the radius where radius-sized cell numbers would overflow.
    side = max(radius, 2.0 * _reach(targets.coords()) / CELL_LIMIT)
    order = _cubic_cells(targets.coords(), side)[0]  # before the index: a lower peak
    n = order.shape[0]
    index = build_index(source.points())
    k = min(k, source.count)  # a k above the source count changes no mean
    total = np.empty(n, dtype=np.float64)
    counts = np.empty(n, dtype=np.min_scalar_type(k))  # exact in the float64 mean
    with np.errstate(over="ignore"):  # a mean that overflows is refused below
        source_lin = db_to_linear(source.column("reflectance_db").astype(np.float64))
        for rows in ordered_blocks(order, k):
            ids = index.knn_batch(np.column_stack(tuple(targets.coords(rows))), k=k,
                                  radius=radius, workers=workers)
            valid = ids >= 0
            total[rows] = np.where(valid, source_lin[np.where(valid, ids, 0)], 0.0).sum(axis=1)
            counts[rows] = valid.sum(axis=1)
    # freed before the tail, a lower peak (rows, ids and valid are block-sized)
    del order, index, source_lin
    have = counts > 0
    mean = total[have] / counts[have]
    del total, counts
    if not np.all((mean > 0) & (mean < np.inf)):
        db = source.column("reflectance_db")
        raise DataError(
            f"{source.name}: reflectance_db from {float(db.min()):g} to "
            f"{float(db.max()):g} dB has no mean in linear units within float64")
    out = np.full(n, np.nan, dtype=np.float32)
    out[have] = linear_to_db(mean)
    return out


def merge_channels(
    green: PointCloud,
    nir: PointCloud,
    radius: float = 1.0,
    k: int = 7,
    workers: int = 1,
    rows: tuple[slice | np.ndarray, slice | np.ndarray] = (slice(None), slice(None)),
    names: tuple[str, str] = ("green cloud", "nir cloud"),
) -> PointCloud:
    """Fuse the two single-channel clouds into one dual-attribute cloud.

    Every point keeps its own-channel reflectance untouched and gains the
    cross-channel one interpolated from the up-to-k nearest points of the
    other cloud within `radius` (arithmetic mean in the linear domain,
    stored back in dB). Points with no cross-channel neighbor carry NaN
    in that column. The merged cloud is the green rows, then the nir rows,
    each with every column its input has.

    `rows` selects each channel's points from its cloud, as a range (a
    slice, every row by default) or as ascending row ids, so one combined
    cloud may be passed as both channels without a copy of either;
    `names` name the two clouds in errors.
    """
    if not radius > 0:
        raise ConfigError(f"merge.radius must be positive, got {radius!r}")
    if k < 1:
        raise ConfigError(f"merge.k must be >= 1, got {k!r}")
    channels = [_Rows(c, r, name) for c, r, name in zip((green, nir), rows, names)]
    if min(ch.count for ch in channels) == 0:
        raise DataError("channel merging requires both clouds non-empty")
    for ch, chan in zip(channels, (Channel.GREEN_532, Channel.NIR_1064)):
        ch.cloud.require("reflectance_db")
        if not np.all(ch.column("channel") == int(chan)):
            raise DataError(f"{ch.name} contains points of the other channel")
    green_ch, nir_ch = channels
    green_cross_nir = _cross_channel_db(green_ch, nir_ch, radius, k, workers)
    nir_cross_green = _cross_channel_db(nir_ch, green_ch, radius, k, workers)

    # an input's own cross-channel columns are replaced, whether or not the other has them
    merged = replace(
        concat([replace(ch.cloud, refl_green_db=None, refl_nir_db=None) for ch in channels],
               rows=[ch.rows for ch in channels]),
        refl_green_db=np.concatenate((green_ch.column("reflectance_db"), nir_cross_green)),
        refl_nir_db=np.concatenate((green_cross_nir, nir_ch.column("reflectance_db"))),
    )
    n_missing = int(
        np.isnan(merged.refl_green_db).sum() + np.isnan(merged.refl_nir_db).sum()
    )
    if n_missing:
        logger.info(
            "%d cross-channel values missing (no neighbor within %g m)",
            n_missing, radius,
        )
    return merged


def voxel_subsample(cloud: PointCloud, grid: float = 0.1) -> PointCloud:
    """Thin to at most one point per cubic voxel of side `grid`.

    The survivor is the point nearest its voxel's point centroid (ties:
    lowest id); it keeps its own attributes except the label, which is
    replaced by the voxel's majority label (tie: Tree, protecting the
    minority class). The voxel lattice is anchored at the coordinate
    origin, which makes the operation idempotent.

    Beside the voxel grouping, the centroids and the output, it holds
    block-sized temporaries only: the voxel-sorted rows are searched and
    voted a block of whole voxels at a time (cloud.row_blocks), and the
    grouping is freed before the one take of the survivors' rows.
    """
    if not grid > 0:
        raise ConfigError(f"voxel.grid must be positive, got {grid!r}")
    if cloud.count == 0:
        return cloud
    reach = _reach((cloud.x, cloud.y, cloud.z))
    if reach / grid >= CELL_LIMIT:
        raise ConfigError(
            f"voxel.grid {grid!r} is too fine for this cloud: with coordinates up to "
            f"{reach:g}, voxel numbers overflow int64"
        )
    order, starts, inverse = _cubic_cells((cloud.x, cloud.y, cloud.z), grid)
    n_voxels = starts.shape[0]
    counts = np.diff(starts, append=cloud.count)
    cx, cy, cz = (np.bincount(inverse, weights=c, minlength=n_voxels) / counts
                  for c in (cloud.x, cloud.y, cloud.z))
    del inverse

    # A block is the voxels that start in one row_blocks block of the
    # voxel-sorted rows; a voxel longer than the block lengthens it.
    keep = np.empty(n_voxels, dtype=np.intp)
    vote = np.empty(n_voxels, dtype=np.uint8) if cloud.has("label") else None
    for rows in row_blocks(cloud.count):
        lo, hi = np.searchsorted(starts, (rows.start, rows.stop))
        if lo == hi:
            continue
        ids = order[starts[lo]:starts[hi] if hi < n_voxels else cloud.count]
        local, sizes = starts[lo:hi] - starts[lo], counts[lo:hi]
        dist = (
            (cloud.x[ids] - np.repeat(cx[lo:hi], sizes)) ** 2
            + (cloud.y[ids] - np.repeat(cy[lo:hi], sizes)) ** 2
            + (cloud.z[ids] - np.repeat(cz[lo:hi], sizes)) ** 2
        )
        # Each voxel's rows run in ascending id, so its first row at the
        # voxel's smallest distance is the lowest-id survivor.
        hits = np.flatnonzero(dist == np.repeat(np.minimum.reduceat(dist, local), sizes))
        first = hits[np.searchsorted(hits, local)]
        keep[lo:hi] = ids[first]
        if vote is not None:
            labels = cloud.label[ids]
            tree, nontree = (np.add.reduceat(labels == int(c), local, dtype=np.intp)
                             for c in (Label.TREE, Label.NON_TREE))
            block = labels[first]  # all-unlabeled voxels keep the survivor's label
            block[tree >= np.maximum(nontree, 1)] = int(Label.TREE)
            block[nontree > tree] = int(Label.NON_TREE)
            vote[lo:hi] = block
    # before the take, a lower peak (ids and sizes are views of order and counts)
    del order, starts, counts, cx, cy, cz, ids, sizes

    out = cloud.take(keep)
    if vote is not None:
        out = out.with_column("label", vote)
    logger.info(
        "voxel subsample grid=%g: %d -> %d points", grid, cloud.count, out.count
    )
    return out
