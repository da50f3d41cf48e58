"""Spatial train/val/test splitting by square XY tiles.

Point-level random splits leak neighborhoods between train and test, so
plots are formed as square tiles and whole tiles are assigned to splits.
Assignment is greedy by point count: tiles are visited largest first
(ties broken by a seeded shuffle) and each goes to the split with the
largest remaining point deficit against its target ratio.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import CELL_LIMIT, PointCloud, group_cells
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class PlotSplit:
    """The tiles and the split index of every point. A tile's id is
    floor((x - x0) / tile_size), floor((y - y0) / tile_size), where
    (x0, y0) are the cloud's x and y minima."""

    tile_ids: np.ndarray        # (t, 2) integer tile coordinates
    point_split: np.ndarray     # (n,) split index per point, 0/1/2
    target_ratios: tuple[float, float, float]
    achieved_ratios: tuple[float, float, float]
    single_split: bool

    def indices(self, split: str) -> np.ndarray:
        """Point indices belonging to the named split."""
        return np.nonzero(self.point_split == SPLIT_NAMES.index(split))[0]

    def summary(self) -> str:
        pairs = ", ".join(
            f"{name}={a:.4f} (target {t:.4f})"
            for name, a, t in zip(SPLIT_NAMES, self.achieved_ratios, self.target_ratios)
        )
        return f"split over {self.tile_ids.shape[0]} tiles: {pairs}"


def split_plots(
    cloud: PointCloud,
    ratios: tuple[float, float, float],
    tile_size: float,
    seed: int = 0,
) -> PlotSplit:
    """Partition a cloud into train/val/test by whole tiles.

    Every point lands in exactly one split. Achieved ratios approach the
    targets as tile count grows (within ±5 percentage points for >= 50
    comparable tiles).
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError(f"split.ratios must be three non-negative fractions, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-6:
        raise ConfigError(f"split.ratios must sum to 1, got {sum(ratios)!r}")
    if not tile_size > 0:
        raise ConfigError(f"split.tile_size must be positive, got {tile_size!r}")
    if cloud.count == 0:
        raise DataError("cannot split an empty cloud")

    x0, y0 = float(cloud.x.min()), float(cloud.y.min())
    span = max(float(cloud.x.max()) - x0, float(cloud.y.max()) - y0)
    if span / tile_size >= CELL_LIMIT:
        raise ConfigError(
            f"split.tile_size {tile_size!r} is too small for a cloud spanning {span:g}: "
            "tile numbers overflow int64"
        )
    ix = np.floor((cloud.x - x0) / tile_size).astype(np.int64)
    iy = np.floor((cloud.y - y0) / tile_size).astype(np.int64)
    order, starts, inverse = group_cells(ix, iy)
    first = order[starts]
    tile_ids = np.column_stack((ix[first], iy[first]))
    counts = np.diff(starts, append=cloud.count)
    n_tiles = tile_ids.shape[0]

    single = n_tiles == 1
    if single:
        logger.warning(
            "cloud spans a single %.3g m tile; assigning everything to train",
            tile_size,
        )

    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(n_tiles)
    # Largest tiles first; the shuffle only breaks count ties.
    order = shuffled[np.argsort(counts[shuffled], kind="stable")[::-1]]

    total = float(cloud.count)
    assigned = np.zeros(3, dtype=np.float64)
    tile_split = np.zeros(n_tiles, dtype=np.int64)
    targets = np.asarray((1.0, 0.0, 0.0) if single else ratios) * total
    for t in order:
        deficit = targets - assigned
        s = int(np.argmax(deficit))
        tile_split[t] = s
        assigned[s] += counts[t]

    point_split = tile_split[inverse]
    achieved = tuple(float(assigned[i] / total) for i in range(3))
    result = PlotSplit(
        tile_ids=tile_ids, point_split=point_split,
        target_ratios=ratios, achieved_ratios=achieved, single_split=single,
    )
    logger.info(result.summary())
    return result
