"""Point-cloud preprocessing: denoising, channel merging, subsampling.

All three operations are defined point-set to point-set with documented
tie-breaking, so their outputs are order-independent and checkable
against brute-force oracles.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import (
    CELL_LIMIT, Channel, Label, PointCloud, build_index, concat, group_cells,
    ordered_blocks,
)
from .errors import DataError
from .features import db_to_linear, linear_to_db

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SorParams:
    """Statistical outlier removal: k neighbors, n_sigma threshold."""

    k: int = 6
    n_sigma: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise DataError("SOR k must be >= 1")
        if not self.n_sigma > 0:
            raise DataError("SOR n_sigma must be positive")


def sor_filter(
    cloud: PointCloud, params: SorParams = SorParams(), workers: int = 1
) -> tuple[PointCloud, np.ndarray]:
    """Remove statistical outliers.

    For every point, d_i is the mean distance to its k nearest other
    points. Points with d_i strictly above mean(d) + n_sigma*std(d)
    (population std over all d_i) are removed. Returns the kept cloud
    and the removed original ids; kept and removed partition the input.
    """
    if cloud.count <= params.k:
        raise DataError(
            f"SOR needs more than k={params.k} points, cloud has {cloud.count}"
        )
    index = build_index(cloud)
    mean_d = np.empty(cloud.count, dtype=np.float64)
    # Points are visited in the tree's leaf order, so neighbouring queries
    # walk the same nodes; each row's distances depend on that row alone.
    for ids in ordered_blocks(index.tree.indices):
        # k+1 because the nearest hit of each query is the point itself
        # (or a coincident twin, which has the same distance, 0).
        d, _ = index.tree.query(index.points[ids], k=params.k + 1, workers=workers)
        mean_d[ids] = d[:, 1:].mean(axis=1)
    threshold = mean_d.mean() + params.n_sigma * mean_d.std()
    removed = np.nonzero(mean_d > threshold)[0].astype(np.int64)
    kept_mask = np.ones(cloud.count, dtype=bool)
    kept_mask[removed] = False
    logger.info(
        "SOR removed %d of %d points (k=%d, n_sigma=%g)",
        removed.size, cloud.count, params.k, params.n_sigma,
    )
    return cloud.take(kept_mask), removed


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
    index = build_index(source)
    source_lin = db_to_linear(source.reflectance_db.astype(np.float64))
    total = np.empty(targets.count, dtype=np.float64)
    counts = np.empty(targets.count, dtype=np.int64)
    for rows in ordered_blocks(order):
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
    in that column.
    """
    if not radius > 0:
        raise DataError("merge radius must be positive")
    if k < 1:
        raise DataError("merge k must be >= 1")
    if green.count == 0 or nir.count == 0:
        raise DataError("channel merging requires both clouds non-empty")
    for cloud, chan, name in ((green, Channel.GREEN_532, "green"), (nir, Channel.NIR_1064, "nir")):
        cloud.require("reflectance_db")
        if not np.all(cloud.channel == int(chan)):
            raise DataError(f"{name} cloud contains points of the other channel")

    green_own = green.reflectance_db
    nir_own = nir.reflectance_db
    green_cross_nir = _cross_channel_db(green, nir, radius, k, workers)
    nir_cross_green = _cross_channel_db(nir, green, radius, k, workers)

    g = green.with_column("refl_green_db", green_own).with_column(
        "refl_nir_db", green_cross_nir
    )
    n = nir.with_column("refl_green_db", nir_cross_green).with_column(
        "refl_nir_db", nir_own
    )
    merged = concat([g, n])
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
    """
    if not grid > 0:
        raise DataError("voxel grid size must be positive")
    if cloud.count == 0:
        return cloud
    reach = _reach(cloud)
    if reach / grid >= CELL_LIMIT:
        raise DataError(
            f"voxel grid size {grid!r} is too small for coordinates up to "
            f"{reach:g}: voxel numbers overflow int64"
        )
    order, starts, inverse = _cubic_cells(cloud, grid)
    n_voxels = starts.shape[0]
    counts = np.diff(starts, append=cloud.count)

    cx = np.bincount(inverse, weights=cloud.x, minlength=n_voxels) / counts
    cy = np.bincount(inverse, weights=cloud.y, minlength=n_voxels) / counts
    cz = np.bincount(inverse, weights=cloud.z, minlength=n_voxels) / counts
    dist = (
        (cloud.x - cx[inverse]) ** 2
        + (cloud.y - cy[inverse]) ** 2
        + (cloud.z - cz[inverse]) ** 2
    )[order]
    # Each voxel's rows run in ascending id, so its first row at the
    # voxel's smallest distance is the lowest-id survivor.
    hits = np.flatnonzero(dist == np.repeat(np.minimum.reduceat(dist, starts), counts))
    keep = order[hits[np.searchsorted(hits, starts)]]

    out = cloud.take(keep)
    if cloud.has("label"):
        tree_votes = np.bincount(
            inverse, weights=(cloud.label == int(Label.TREE)), minlength=n_voxels
        )
        nontree_votes = np.bincount(
            inverse, weights=(cloud.label == int(Label.NON_TREE)), minlength=n_voxels
        )
        # out holds one row per voxel, in voxel order
        vote = out.label.copy()  # all-unlabeled voxels keep the survivor's label
        vote[tree_votes >= np.maximum(nontree_votes, 1)] = int(Label.TREE)
        vote[nontree_votes > tree_votes] = int(Label.NON_TREE)
        out = out.with_column("label", vote)
    logger.info(
        "voxel subsample grid=%g: %d -> %d points", grid, cloud.count, out.count
    )
    return out
