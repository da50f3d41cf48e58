"""Digital terrain model rasterization and height normalization."""

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DataError

logger = logging.getLogger(__name__)

NODATA_FACTOR = 10.0  # cells farther than this many cells from ground are nodata


@dataclass(frozen=True)
class DtmGrid:
    """Bare-earth raster: value[i, j] at cell center
    (x0 + (j+0.5)*cell, y0 + (i+0.5)*cell)."""

    origin: tuple[float, float]
    cell: float
    values: np.ndarray   # (h, w) float64, finite where not nodata
    nodata: np.ndarray   # (h, w) bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def build_dtm(
    cloud: PointCloud, cell: float = 1.0, k: int = 8, workers: int = 1
) -> DtmGrid:
    """Rasterize ground points to a terrain grid.

    Each cell center takes the inverse-distance-weighted (power 2) mean
    z of the k nearest ground points in XY. Cells farther than 10*cell
    from every ground point are nodata. The grid covers the full cloud
    XY extent, so later height normalization finds a cell under every
    point.
    """
    from scipy.spatial import cKDTree

    if not cell > 0:
        raise DataError("DTM cell size must be positive")
    cloud.require("ground_flag")
    ground = np.nonzero(cloud.ground_flag)[0]
    if ground.size == 0:
        raise DataError("cannot build a DTM without ground points")
    gx = cloud.x[ground]
    gy = cloud.y[ground]
    gz = cloud.z[ground]

    x0, y0 = float(cloud.x.min()), float(cloud.y.min())
    w = max(int(np.ceil((float(cloud.x.max()) - x0) / cell)), 1)
    h = max(int(np.ceil((float(cloud.y.max()) - y0) / cell)), 1)
    cx = x0 + (np.arange(w) + 0.5) * cell
    cy = y0 + (np.arange(h) + 0.5) * cell
    centers = np.column_stack(
        (np.tile(cx, h), np.repeat(cy, w))
    )

    tree = cKDTree(np.column_stack((gx, gy)))
    k_eff = min(k, ground.size)
    d, idx = tree.query(centers, k=k_eff, workers=workers)
    if k_eff == 1:
        d = d[:, None]
        idx = idx[:, None]

    nodata = d[:, 0] > NODATA_FACTOR * cell
    values = np.full(h * w, np.nan)
    exact = d[:, 0] < 1e-12  # ground point on the cell center: take it directly
    values[exact] = gz[idx[exact, 0]]
    rest = ~exact & ~nodata
    if rest.any():
        wgt = 1.0 / np.square(d[rest])
        values[rest] = (wgt * gz[idx[rest]]).sum(axis=1) / wgt.sum(axis=1)

    logger.info(
        "DTM %dx%d cells at %g m from %d ground points (%d nodata)",
        h, w, cell, ground.size, int(nodata.sum()),
    )
    return DtmGrid(
        origin=(x0, y0), cell=cell,
        values=values.reshape(h, w), nodata=nodata.reshape(h, w),
    )


def bilinear_cells(gx: np.ndarray, gy: np.ndarray, shape: tuple[int, int]) -> tuple:
    """Bilinear stencil of fractional grid positions, clamped to the borders.

    (gy, gx) are row and column positions in cell units on a grid of
    `shape`. Returns (i0, i1, j0, j1, fy, fx): a value interpolates the
    four nodes [i0|i1, j0|j1] with weights from the fractions fy and fx.
    """
    h, w = shape
    gx = np.clip(gx, 0.0, w - 1.0)
    gy = np.clip(gy, 0.0, h - 1.0)
    j0 = np.minimum(gx.astype(np.int64), max(w - 2, 0))
    i0 = np.minimum(gy.astype(np.int64), max(h - 2, 0))
    return i0, np.minimum(i0 + 1, h - 1), j0, np.minimum(j0 + 1, w - 1), gy - i0, gx - j0


def normalize_height(cloud: PointCloud, dtm: DtmGrid) -> PointCloud:
    """Attach h_norm = z - terrain height under the point.

    Terrain height comes from bilinear interpolation over the four
    surrounding cell centers; where any of those is nodata, the value of
    the nearest non-nodata cell is used instead.
    """
    if dtm.nodata.all():
        raise DataError("DTM is entirely nodata; cannot normalize heights")
    h, w = dtm.shape
    gx = (cloud.x - dtm.origin[0]) / dtm.cell - 0.5
    gy = (cloud.y - dtm.origin[1]) / dtm.cell - 0.5
    i0, i1, j0, j1, fy, fx = bilinear_cells(gx, gy, dtm.shape)
    corners_ok = ~(
        dtm.nodata[i0, j0] | dtm.nodata[i0, j1]
        | dtm.nodata[i1, j0] | dtm.nodata[i1, j1]
    )
    vals = dtm.values
    terrain = (
        vals[i0, j0] * (1 - fx) * (1 - fy)
        + vals[i0, j1] * fx * (1 - fy)
        + vals[i1, j0] * (1 - fx) * fy
        + vals[i1, j1] * fx * fy
    )
    if not corners_ok.all():
        from scipy import ndimage

        _, (ni, nj) = ndimage.distance_transform_edt(
            dtm.nodata, return_indices=True
        )
        filled = vals[ni, nj]
        ci = np.clip(np.round(gy).astype(np.int64), 0, h - 1)
        cj = np.clip(np.round(gx).astype(np.int64), 0, w - 1)
        terrain = np.where(corners_ok, terrain, filled[ci, cj])

    h_norm = (cloud.z - terrain).astype(np.float32)
    return cloud.with_column("h_norm", h_norm)
