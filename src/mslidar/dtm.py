"""Digital terrain model rasterization and height normalization.

Height normalization runs one `cloud.row_blocks` block of points at a
time into the one float32 result, so its temporaries stay block-sized
whatever the cloud's size; each point's height depends on that point
alone, so the blocks change no bit of the output. The DTM build holds
the ground points' XY once, as the array the one neighbor kernel,
`cloud.build_index`, indexes in 2-D, and walks the cell centres one
`row_blocks` block at a time into the one values array; each cell's
neighbors come in (distance, id) order, so no cell depends on how the
tree is built or on the blocks.
A nodata cell holds NaN; `DtmGrid.nodata` is read off the values.
`bilinear` and `nearest_valid` are the one grid sampler and the one fill
of empty cells, for the terrain here and for the cloth in `csf`.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, build_index, row_blocks
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

NODATA_FACTOR = 10.0  # cells farther than this many cells from ground are nodata
NEIGHBORS = 8  # ground points averaged per cell
# The most cells a DTM or a cloth may have. A finer raster is a config
# error, raised before any of its arrays is allocated.
RASTER_LIMIT = 2 ** 22


@dataclass(frozen=True)
class DtmGrid:
    """Bare-earth raster: value[i, j] at cell center
    (x0 + (j+0.5)*cell, y0 + (i+0.5)*cell)."""

    origin: tuple[float, float]
    cell: float
    values: np.ndarray   # (h, w) float64, NaN where nodata, finite elsewhere

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def nodata(self) -> np.ndarray:
        """(h, w) bool: cells farther than NODATA_FACTOR cells from ground."""
        return np.isnan(self.values)


def raster_shape(rows: float, cols: float, key: str) -> tuple[int, int]:
    """(rows, cols) as integers; a raster of more than RASTER_LIMIT cells
    is a ConfigError naming the config key `key` that sets its cell size."""
    if rows * cols > RASTER_LIMIT:
        raise ConfigError(f"{key} is too fine for this cloud: its raster would have "
                          f"{rows:.0f} x {cols:.0f} cells, over the limit of {RASTER_LIMIT}")
    return int(rows), int(cols)


def build_dtm(cloud: PointCloud, cell: float = 1.0, workers: int = 1) -> DtmGrid:
    """Rasterize ground points to a terrain grid.

    Each cell center takes the inverse-distance-weighted (power 2) mean
    z of the NEIGHBORS nearest ground points in XY, ties to the lower
    id, summed nearest first. Cells farther than NODATA_FACTOR*cell from
    every ground point are nodata. The grid covers the full cloud XY
    extent, so later height normalization finds a cell under every point.
    Cell centres are built, queried and weighted one `row_blocks` block
    of cells at a time, so besides the raster the build's memory is
    block-sized whatever the cell count. A cell so coarse that the
    distances from its centres to the points overflow float64 is a
    ConfigError naming dtm.cell, raised before the index is built.
    """
    if not cell > 0:
        raise ConfigError(f"dtm.cell must be positive, got {cell!r}")
    cloud.require("ground_flag")
    gz = cloud.z[cloud.ground_flag]
    if gz.size == 0:
        raise DataError("cannot build a DTM without ground points")
    gxy = np.empty((gz.size, 2))  # the index's own points: no other XY copy
    gxy[:, 0] = cloud.x[cloud.ground_flag]
    gxy[:, 1] = cloud.y[cloud.ground_flag]

    x0, y0 = float(cloud.x.min()), float(cloud.y.min())
    h, w = raster_shape(max(np.ceil((float(cloud.y.max()) - y0) / cell), 1.0),
                        max(np.ceil((float(cloud.x.max()) - x0) / cell), 1.0), "dtm.cell")
    cx = x0 + (np.arange(w) + 0.5) * cell
    cy = y0 + (np.arange(h) + 0.5) * cell
    # the largest centre-to-point offset on each axis, squared and summed as
    # the kernel's distances are; a Python float overflows to inf, unwarned
    dx = max(float(cx[-1]) - x0, float(cloud.x.max()) - float(cx[0]))
    dy = max(float(cy[-1]) - y0, float(cloud.y.max()) - float(cy[0]))
    if not dx * dx + dy * dy < np.inf:
        raise ConfigError(f"dtm.cell {cell!r} is too coarse for this cloud: the distances "
                          "from its cell centres to the points overflow float64")
    index = build_index(gxy)
    k = min(NEIGHBORS, gz.size)
    values = np.full(h * w, np.nan)
    for rows in row_blocks(h * w, NEIGHBORS):
        ids = np.arange(*rows.indices(h * w))
        centers = np.column_stack((cx[ids % w], cy[ids // w]))
        idx = index.knn_batch(centers, k, workers=workers)
        d = np.sqrt(np.sum((gxy[idx] - centers[:, None, :]) ** 2, axis=2))  # the kernel's formula
        block = values[rows]
        exact = d[:, 0] < 1e-12  # ground point on the cell center: take it directly
        block[exact] = gz[idx[exact, 0]]
        rest = ~exact & (d[:, 0] <= NODATA_FACTOR * cell)  # farther is nodata
        if rest.any():
            wgt = 1.0 / np.square(d[rest])
            block[rest] = (wgt * gz[idx[rest]]).sum(axis=1) / wgt.sum(axis=1)

    logger.info(
        "DTM %dx%d cells at %g m from %d ground points (%d nodata)",
        h, w, cell, gz.size, int(np.isnan(values).sum()),
    )
    return DtmGrid(origin=(x0, y0), cell=cell, values=values.reshape(h, w))


def bilinear(grid: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Bilinear values of `grid` at fractional positions, clamped to its borders.

    (gy, gx) are row and column positions in node units. Each value
    weights the four nodes around its position; a NaN node makes the
    value NaN even where its weight is 0.
    """
    h, w = grid.shape
    gx = np.clip(gx, 0.0, w - 1.0)
    gy = np.clip(gy, 0.0, h - 1.0)
    j0 = np.minimum(gx.astype(np.int64), max(w - 2, 0))
    i0 = np.minimum(gy.astype(np.int64), max(h - 2, 0))
    i1, j1 = np.minimum(i0 + 1, h - 1), np.minimum(j0 + 1, w - 1)
    fx, fy = gx - j0, gy - i0
    return (grid[i0, j0] * (1 - fx) * (1 - fy) + grid[i0, j1] * fx * (1 - fy)
            + grid[i1, j0] * (1 - fx) * fy + grid[i1, j1] * fx * fy)


def nearest_valid(grid: np.ndarray, invalid: np.ndarray) -> np.ndarray:
    """A copy of `grid` with each `invalid` cell taking the value of its
    nearest valid cell (Euclidean, in cells)."""
    from scipy import ndimage

    ni, nj = ndimage.distance_transform_edt(invalid, return_distances=False,
                                            return_indices=True)
    return grid[ni, nj]


def normalize_height(cloud: PointCloud, dtm: DtmGrid) -> PointCloud:
    """Attach h_norm = z - terrain height under the point.

    Terrain height comes from bilinear interpolation over the four
    surrounding cell centers; where one of those is nodata (NaN), the value
    of the nearest non-nodata cell is used instead. That nearest-valid
    grid is built once, when the first block needs it.
    """
    if dtm.nodata.all():
        raise DataError("DTM is entirely nodata; cannot normalize heights")
    h, w = dtm.shape
    filled = None
    h_norm = np.empty(cloud.count, dtype=np.float32)
    for rows in row_blocks(cloud.count):
        gx = (cloud.x[rows] - dtm.origin[0]) / dtm.cell - 0.5
        gy = (cloud.y[rows] - dtm.origin[1]) / dtm.cell - 0.5
        terrain = bilinear(dtm.values, gx, gy)
        missing = np.isnan(terrain)
        if missing.any():
            if filled is None:
                filled = nearest_valid(dtm.values, dtm.nodata)
            ci = np.clip(np.round(gy[missing]).astype(np.int64), 0, h - 1)
            cj = np.clip(np.round(gx[missing]).astype(np.int64), 0, w - 1)
            terrain[missing] = filled[ci, cj]
        h_norm[rows] = cloud.z[rows] - terrain
    return cloud.with_column("h_norm", h_norm)
