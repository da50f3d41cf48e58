"""Spectral features and feature-matrix assembly.

Reflectance arrives in decibels; the vegetation index is computed in
linear units (conversion 10^(dB/10)), so a common dB offset on both
channels cancels. The conversions and the index map arrays to float64
arrays elementwise (a scalar gives a numpy float64). Spectral columns
are then made comparable by robust scaling, two calls on a cloud:
:func:`fit_config_normalization` fits each named column on the training
split (its [p1, p99] and median), and :func:`assemble_features` imputes,
clips and min-maxes those columns to [0, 1] beside h_norm. Absolute
position is not a feature: geometry enters as height above terrain, so
a model does not depend on where its cloud lies, and the classifier
adds relative geometry from each point's neighborhood.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cloud import PointCloud
from .errors import ConfigError, DataError, NumericError

logger = logging.getLogger(__name__)


def db_to_linear(r_db):
    """Convert reflectance from decibels to linear units: 10^(r/10).

    Strictly positive and strictly increasing. Raises NumericError on
    non-finite input; NaN missing-value markers must be handled by the
    caller (see :func:`pndvi`).
    """
    arr = np.asarray(r_db, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("db_to_linear requires finite dB values")
    return np.power(10.0, arr / 10.0)


def linear_to_db(r_lin):
    """Inverse of :func:`db_to_linear`: 10*log10(r)."""
    arr = np.asarray(r_lin, dtype=np.float64)
    if not np.all(arr > 0):
        raise NumericError("linear reflectance must be strictly positive")
    return 10.0 * np.log10(arr)


def pndvi(nir_db, green_db):
    """Pseudo-NDVI from dB reflectances: (NIR - green)/(NIR + green) in
    linear units.

    The denominator is strictly positive because 10^x > 0, so the result
    lies in (-1, 1). NaN inputs (missing cross-channel reflectance) yield
    NaN, the missing marker imputed later; infinities are rejected.
    """
    n = np.asarray(nir_db, dtype=np.float64)
    g = np.asarray(green_db, dtype=np.float64)
    if np.any(np.isinf(n)) or np.any(np.isinf(g)):
        raise NumericError("pndvi requires finite dB values (NaN = missing)")
    n_lin = np.power(10.0, n / 10.0)
    g_lin = np.power(10.0, g / 10.0)
    return (n_lin - g_lin) / (n_lin + g_lin)


def add_pndvi(cloud: PointCloud) -> PointCloud:
    """Attach the pndvi column computed from the merged spectral columns."""
    cloud.require("refl_green_db", "refl_nir_db")
    values = pndvi(
        cloud.refl_nir_db.astype(np.float64), cloud.refl_green_db.astype(np.float64)
    )
    return cloud.with_column("pndvi", values.astype(np.float32))


class FeatureConfig(Enum):
    """The six ablation feature sets: geometry plus spectral subsets.

    XYZ is geometry alone: height above terrain, plus the neighborhood
    aggregates the classifier appends, and no absolute x/y.
    """

    XYZ = ()
    XYZ_GREEN = ("refl_green_db",)
    XYZ_NIR = ("refl_nir_db",)
    XYZ_PNDVI = ("pndvi",)
    XYZ_GREEN_NIR = ("refl_green_db", "refl_nir_db")
    XYZ_GREEN_NIR_PNDVI = ("refl_green_db", "refl_nir_db", "pndvi")

    @property
    def spectral_columns(self) -> tuple[str, ...]:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "FeatureConfig":
        """The config of a full name, in any case and with "+" or "-" for
        "_": "xyz+pndvi" is XYZ_PNDVI."""
        key = name.strip().upper().replace("+", "_").replace("-", "_")
        try:
            return cls[key]
        except KeyError:
            valid = ", ".join(c.name for c in cls)
            raise ConfigError(f"unknown feature config {name!r}; one of: {valid}") from None


ALL_CONFIGS = tuple(FeatureConfig)


@dataclass(frozen=True)
class NormalizationParams:
    """Robust per-column scaling fitted on the training split only."""

    columns: tuple[str, ...]
    p_low: float
    p_high: float
    lo: np.ndarray       # value at p_low per column
    hi: np.ndarray       # value at p_high per column
    impute: np.ndarray   # training median per column, fills NaN

    def __post_init__(self):
        """Reject values no fit produces: they would scale columns silently
        wrong (a NaN bound makes a constant column)."""
        _check_percentiles(self.p_low, self.p_high)
        n = len(self.columns)
        for name in ("lo", "hi", "impute"):
            values = getattr(self, name)
            if values.shape != (n,) or not np.all(np.isfinite(values)):
                raise DataError(f"normalization {name} must hold {n} finite values")
        if np.any(self.lo > self.hi):
            raise DataError("normalization lo exceeds hi")

    def select(self, columns: tuple[str, ...]) -> "NormalizationParams":
        """The scaling of the named columns, in that order: the fit is
        column by column, so these are the params of a fit on them alone."""
        at = [self.columns.index(c) for c in columns]
        return NormalizationParams(tuple(columns), self.p_low, self.p_high,
                                   self.lo[at], self.hi[at], self.impute[at])


def _check_percentiles(p_low: float, p_high: float) -> None:
    if not 0.0 <= p_low < p_high <= 100.0:
        raise ConfigError(
            f"features.p_low and features.p_high need 0 <= p_low < p_high <= 100, "
            f"got p_low={p_low!r}, p_high={p_high!r}"
        )


def fit_config_normalization(
    train_cloud: PointCloud, columns: tuple[str, ...], p_low: float = 1.0, p_high: float = 99.0,
) -> NormalizationParams:
    """Fit robust scaling of the named spectral columns on the training
    split, column by column; NormalizationParams.select gives each feature
    config its own.

    NaN entries (missing markers) are excluded from the percentiles and
    the imputation median. A constant column gets lo == hi and maps to
    0.5 in :func:`assemble_features`, with a warning here.
    """
    _check_percentiles(p_low, p_high)
    train_cloud.require(*columns)
    if train_cloud.count < 2:
        raise DataError("need at least 2 rows to fit normalization")
    lo, hi, impute = np.empty((3, len(columns)))
    for j, name in enumerate(columns):
        values = getattr(train_cloud, name).astype(np.float64)
        if np.isnan(values).all():
            raise DataError(f"feature column {name!r} holds no observed values at all")
        lo[j] = np.nanpercentile(values, p_low)
        hi[j] = np.nanpercentile(values, p_high)
        impute[j] = np.nanmedian(values)
        if hi[j] <= lo[j]:
            logger.warning(
                "feature column %r is constant on the training split; "
                "it will normalize to 0.5", name,
            )
    return NormalizationParams(tuple(columns), p_low, p_high, lo, hi, impute)


def assemble_features(cloud: PointCloud, params: NormalizationParams | None) -> np.ndarray:
    """Build the (n, d) feature matrix [h_norm, spectral...] of the
    spectral columns `params` was fitted for, each with NaN imputed by the
    training median, clipped to [lo, hi] and scaled to [0, 1]; None gives
    h_norm alone. The result holds no NaN or Inf."""
    columns = () if params is None else params.columns
    cloud.require("h_norm", *columns)
    values = np.empty((cloud.count, 1 + len(columns)))
    values[:, 0] = cloud.h_norm
    for j, name in enumerate(columns):
        col, lo, hi = values[:, 1 + j], params.lo[j], params.hi[j]
        col[:] = getattr(cloud, name)
        col[np.isnan(col)] = params.impute[j]
        if hi > lo:
            np.clip(col, lo, hi, out=col)
            col -= lo
            col /= hi - lo
        else:
            col[:] = 0.5
    if not np.all(np.isfinite(values)):
        raise NumericError("feature matrix contains non-finite values")
    return values
