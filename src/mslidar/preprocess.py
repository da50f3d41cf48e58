"""Point-cloud preprocessing: denoising, channel merging, subsampling.

All three operations are defined point-set to point-set with documented
tie-breaking, so their outputs are order-independent and checkable
against brute-force oracles.
"""

import logging
from dataclasses import dataclass, replace

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


def _reach(cloud: PointCloud) -> float:
    """Largest coordinate magnitude of a non-empty cloud."""
    return max(max(float(c.max()), -float(c.min())) for c in (cloud.x, cloud.y, cloud.z))


def _cubic_cells(cloud: PointCloud, side: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """group_cells over cubes of the given side, anchored at the origin;
    the caller keeps _reach(cloud) / side below CELL_LIMIT."""
    return group_cells(
        *(np.floor(c / side).astype(np.int64) for c in (cloud.x, cloud.y, cloud.z))
    )


def _cross_channel_db(
    targets: PointCloud,
    source: PointCloud,
    radius: float,
    k: int,
    workers: int,
) -> np.ndarray:
    """Mean reflectance of up to k nearest source points within radius.

    Averaged in linear units, returned in dB; NaN where no source point
    lies within the radius. Targets are visited a block at a time in the
    order of their radius-sized cells, and each block's coordinates are
    gathered only for that block.
    """
    # Any visiting order gives the same result, so the cells may be coarser
    # than the radius where radius-sized cell numbers would overflow.
    side = max(radius, 2.0 * _reach(targets) / CELL_LIMIT)
    order = _cubic_cells(targets, side)[0]  # before the index: a lower peak
    index = build_index(source.xyz)
    source_lin = db_to_linear(source.reflectance_db.astype(np.float64))
    total = np.empty(targets.count, dtype=np.float64)
    counts = np.empty(targets.count, dtype=np.int64)
    k = min(k, source.count)  # a k above the source count changes no mean
    for rows in ordered_blocks(order, k):
        qs = np.column_stack((targets.x[rows], targets.y[rows], targets.z[rows]))
        ids = index.knn_batch(qs, k=k, radius=radius, workers=workers)
        valid = ids >= 0
        total[rows] = np.where(valid, source_lin[np.where(valid, ids, 0)], 0.0).sum(axis=1)
        counts[rows] = valid.sum(axis=1)
    out = np.full(targets.count, np.nan, dtype=np.float64)
    have = counts > 0
    out[have] = linear_to_db(total[have] / counts[have])
    return out.astype(np.float32)


def merge_channels(
    green: PointCloud,
    nir: PointCloud,
    radius: float = 1.0,
    k: int = 7,
    workers: int = 1,
) -> PointCloud:
    """Fuse the two single-channel clouds into one dual-attribute cloud.

    Every point keeps its own-channel reflectance untouched and gains the
    cross-channel one interpolated from the up-to-k nearest points of the
    other cloud within `radius` (arithmetic mean in the linear domain,
    stored back in dB). Points with no cross-channel neighbor carry NaN
    in that column. The merged cloud is the green rows, then the nir rows,
    each with every column its input has.
    """
    if not radius > 0:
        raise ConfigError(f"merge.radius must be positive, got {radius!r}")
    if k < 1:
        raise ConfigError(f"merge.k must be >= 1, got {k!r}")
    if green.count == 0 or nir.count == 0:
        raise DataError("channel merging requires both clouds non-empty")
    for cloud, chan, name in ((green, Channel.GREEN_532, "green"), (nir, Channel.NIR_1064, "nir")):
        cloud.require("reflectance_db")
        if not np.all(cloud.channel == int(chan)):
            raise DataError(f"{name} cloud contains points of the other channel")

    green_cross_nir = _cross_channel_db(green, nir, radius, k, workers)
    nir_cross_green = _cross_channel_db(nir, green, radius, k, workers)
    # an input's own cross-channel columns are replaced, whether or not the other has them
    merged = replace(
        concat([replace(c, refl_green_db=None, refl_nir_db=None)
                for c in (green, nir)]),
        refl_green_db=np.concatenate((green.reflectance_db, nir_cross_green)),
        refl_nir_db=np.concatenate((green_cross_nir, nir.reflectance_db)),
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
    reach = _reach(cloud)
    if reach / grid >= CELL_LIMIT:
        raise ConfigError(
            f"voxel.grid {grid!r} is too fine for this cloud: with coordinates up to "
            f"{reach:g}, voxel numbers overflow int64"
        )
    order, starts, inverse = _cubic_cells(cloud, grid)
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
