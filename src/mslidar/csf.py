"""Cloth-simulation ground filtering.

The cloud is turned upside down and a simulated cloth falls onto it: a
grid of particles at `cloth_resolution` spacing settles quasi-statically,
each free particle dropping by a fixed gravity step per iteration and
carrying no momentum. It collides with the inverted surface (per-cell
maximum of inverted height, i.e. the formerly lowest returns: bare
earth, also under canopy), and is smoothed by `rigidness` constraint
passes per iteration that pull each free particle toward the mean of its
grid neighbors. Particles pin permanently on floor contact. Points whose
inverted height lies within class_threshold of the settled cloth are
ground. As in Zhang et al.'s cloth simulation filter (Remote Sensing
2016), gravity, the time step and the convergence tolerance are fixed
constants, not settings.

Over building footprints the floor is the inverted roof, far below
ground level; pinned particles at the footprint edge hold the cloth up
so it bridges the "pit" with bounded sag, keeping roofs non-ground.

The cloth is read and filled as the DTM is: a point's cloth height is
`dtm.bilinear` of the cloth, and empty cells take `dtm.nearest_valid`.

The per-point passes (the cloth floor and the ground flags) run one
`cloud.row_blocks` block of points at a time, so their temporaries stay
block-sized whatever the cloud's size. The floor is a maximum, which
blocking does not reorder, and each flag depends on its own point alone,
so the blocks change no bit of the output.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, row_blocks
from .dtm import bilinear, nearest_valid, raster_shape
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

# Gravity and the time step; a free particle drops GRAVITY * TIME_STEP**2
# per iteration. The cloth is overdamped (quasi-static settling): carrying
# momentum lets the cloth overshoot its equilibrium over building
# footprints and pin on the inverted roof, which silently flags roofs as
# ground.
GRAVITY = 0.065
TIME_STEP = 0.65
CONVERGENCE = 0.005   # stop once no particle moved further in an iteration


@dataclass(frozen=True)
class CsfParams:
    cloth_resolution: float = 1.0
    rigidness: int = 2
    iterations: int = 500
    class_threshold: float = 0.5

    def __post_init__(self):
        if not self.cloth_resolution > 0:
            raise ConfigError(
                f"csf.cloth_resolution must be positive, got {self.cloth_resolution!r}")
        if self.rigidness not in (1, 2, 3):
            raise ConfigError(f"csf.rigidness must be 1, 2 or 3, got {self.rigidness!r}")
        if self.iterations < 1:
            raise ConfigError(f"csf.iterations must be >= 1, got {self.iterations!r}")
        if not self.class_threshold > 0:
            raise ConfigError(
                f"csf.class_threshold must be positive, got {self.class_threshold!r}")


def _neighbor_sum(c: np.ndarray) -> np.ndarray:
    """Each cell's sum over its (up to four) grid neighbours."""
    acc = np.zeros_like(c)
    acc[1:, :] += c[:-1, :]
    acc[:-1, :] += c[1:, :]
    acc[:, 1:] += c[:, :-1]
    acc[:, :-1] += c[:, 1:]
    return acc


def simulate_cloth(cloud: PointCloud, params: CsfParams) -> tuple[np.ndarray, tuple]:
    """Settle the cloth; returns (cloth heights in inverted z, grid spec).

    grid spec is (x0, y0, resolution) with particle (i, j) at
    (x0 + j*res, y0 + i*res).
    """
    res = params.cloth_resolution
    x0, x1 = float(cloud.x.min()), float(cloud.x.max())
    y0, y1 = float(cloud.y.min()), float(cloud.y.max())
    if cloud.count < 4 or (x1 - x0) <= res or (y1 - y0) <= res:
        raise DataError(
            "CSF needs >= 4 points spanning more than one cloth cell in XY"
        )
    # one cell of margin so every point has four surrounding particles
    x0 -= res
    y0 -= res
    h, w = raster_shape(np.ceil((y1 - y0) / res) + 2, np.ceil((x1 - x0) / res) + 2,
                        "csf.cloth_resolution")

    floor = np.full(h * w, -np.inf)
    for rows in row_blocks(cloud.count):  # floor: highest inverted z per cell
        j = np.clip(((cloud.x[rows] - x0) / res).astype(np.int64), 0, w - 1)
        i = np.clip(((cloud.y[rows] - y0) / res).astype(np.int64), 0, h - 1)
        np.maximum.at(floor, i * w + j, -cloud.z[rows])
    floor = floor.reshape(h, w)
    empty = ~np.isfinite(floor)
    if empty.any():  # cells with no points inherit the nearest occupied floor
        floor = nearest_valid(floor, empty)

    # Start barely above the highest inverted point: cells with ground
    # beneath them pin within the first iterations.
    c = np.full((h, w), floor.max() + 0.05)
    movable = np.ones((h, w), dtype=bool)
    neighbors = _neighbor_sum(np.ones((h, w)))  # each cell's neighbour count
    g_disp = GRAVITY * TIME_STEP**2

    for it in range(params.iterations):
        snapshot = c.copy()
        c = np.where(movable, c - g_disp, c)
        hit = movable & (c <= floor)
        c = np.where(hit, floor, c)
        movable &= ~hit
        for _ in range(params.rigidness):
            target = _neighbor_sum(c) / neighbors
            c = np.where(movable, c + 0.5 * (target - c), c)
            hit = movable & (c <= floor)
            c = np.where(hit, floor, c)
            movable &= ~hit
        if np.max(np.abs(c - snapshot)) < CONVERGENCE:
            logger.info("cloth converged after %d iterations", it + 1)
            break

    return c, (x0, y0, res)


def csf_ground(
    cloud: PointCloud, params: CsfParams = CsfParams()
) -> np.ndarray:
    """Boolean ground flag per point: within class_threshold of the cloth."""
    cloth, (x0, y0, res) = simulate_cloth(cloud, params)
    flag = np.empty(cloud.count, dtype=bool)
    for rows in row_blocks(cloud.count):
        cloth_at = bilinear(cloth, (cloud.x[rows] - x0) / res, (cloud.y[rows] - y0) / res)
        flag[rows] = np.abs(-cloud.z[rows] - cloth_at) <= params.class_threshold
    logger.info(
        "CSF flagged %d of %d points as ground", int(flag.sum()), cloud.count
    )
    return flag
