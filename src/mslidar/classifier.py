"""Binary tree/non-tree point classification.

A point-wise MLP over the assembled features plus local neighborhood
aggregates (means/stds of the spectral columns, height range and point
count over the <=k nearest neighbors within a radius, whose defaults
:func:`neighborhood_graph` declares). The aggregates hand the point-wise
learner the spatial context a point-cloud network gets architecturally,
which is all the ablation logic needs. Like those networks, the model
sees geometry only relative to a point's surroundings, never as an
absolute location. The neighborhood graph streams its row blocks into the
statistics, so neither training nor prediction holds an (n, k) id array.

A trained model is one value, a :class:`Model`: the network and the
feature recipe that built its inputs (feature config, normalization and
neighbourhood), with the class weights and seed it was trained with.
:func:`fit` makes one per feature config from a cloud and the effective
config, :func:`classify` runs each one's recipe, both from one
neighbourhood pass per cloud, and an MSTM v3 checkpoint holds it
whole (:func:`save_checkpoint`, :func:`load_checkpoint`), so a model
file is all prediction needs. Both the stepwise stages and the ablation
run this path. A prediction is a uint8 label array (1 tree, 0 non-tree)
taken from the sign of the model's margin; no class probabilities are
formed.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .cloud import Label, PointCloud, build_index, row_blocks, worker_count
from .errors import ConfigError, DataError
from .features import (
    FeatureConfig, NormalizationParams, assemble_features, fit_config_normalization,
)
from .mlp import DTYPE, Mlp, TrainConfig, train

CHECKPOINT_MAGIC = b"MSTM"
CHECKPOINT_VERSION = 3


def compute_class_weights(labels: np.ndarray) -> np.ndarray:
    """Inverse-frequency class weights, normalized to mean 1.

    w_c = N_total / (2 * N_c), then divided by mean(w). The minority
    class is up-weighted; the w_tree/w_nontree ratio equals the inverse
    frequency ratio.
    """
    labels = np.asarray(labels)
    counts = np.array(
        [(labels == int(Label.NON_TREE)).sum(), (labels == int(Label.TREE)).sum()],
        dtype=np.float64,
    )
    if np.any(counts == 0):
        raise DataError("class weights need both classes in the training labels")
    w = counts.sum() / (2.0 * counts)
    return w / w.mean()


def neighborhood_graph(
    cloud: PointCloud, k: int = 16, radius: float = 2.0, workers: int = 1
) -> Iterator[tuple[slice, np.ndarray]]:
    """Indices of the <=k nearest points within `radius`, self included,
    as (rows, ids) per row_blocks(n, min(k, n)) block, queried when taken.

    ids is a (block rows, min(k, n)) int32 array padded with -1, rows
    ordered by (distance, id): a k above the point count changes no
    neighborhood. Row i starts with i itself, or with a lower-id point at
    the same coordinates, so every neighborhood has >= 1 member.
    Depends only on the geometry, so one graph serves every feature
    config of the same cloud. The arguments are checked on the call.
    """
    _check_neighborhood(k, radius)
    pts = cloud.xyz
    index, k = build_index(pts), min(k, len(pts))
    return ((rows, index.knn_batch(pts[rows], k=k, radius=radius, workers=workers))
            for rows in row_blocks(len(pts), k))


def _check_neighborhood(k: int, radius: float) -> None:
    """Raise ConfigError unless k >= 1 and 0 < radius < inf."""
    if k < 1:
        raise ConfigError(f"neighborhood.k must be >= 1, got {k!r}")
    if not 0.0 < radius < np.inf:
        raise ConfigError(f"neighborhood.radius must be positive and finite, got {radius!r}")


def neighborhood_stats(features: np.ndarray, graph: Iterable) -> np.ndarray:
    """Append per-point neighborhood aggregates to an assembled feature
    matrix [h_norm, spectral...].

    For each spectral column: mean and population std over the
    neighborhood. Always: local h_norm range (max - min) and neighbor
    count. Statistics are computed on the normalized feature values, so
    every appended column is already scale-comparable. The (rows, ids)
    blocks of `graph`, as :func:`neighborhood_graph` yields them, cover
    every row once; each is computed in float64 as it arrives and
    rounded once into the one (n, 3d) `mlp.DTYPE` result: the matrix the
    network trains on and predicts from, with no further copy.
    """
    n, d = features.shape
    out = np.empty((n, 3 * d), dtype=DTYPE)
    out[:, :d] = features
    covered = 0
    for rows, ids in graph:
        _stats_block(features, ids, out[rows, d:])
        covered += ids.shape[0]
    if covered != n:
        raise DataError("neighborhood graph and features disagree on point count")
    return out


def _stats_block(features: np.ndarray, graph: np.ndarray, out: np.ndarray) -> None:
    """neighborhood_stats' appended columns for the rows of one graph
    block, written into `out`."""
    valid = graph >= 0
    safe = np.where(valid, graph, 0)
    counts = valid.sum(axis=1).astype(np.float64)
    for ci in range(1, features.shape[1]):
        vals = np.where(valid, features[:, ci][safe], 0.0)
        mean = vals.sum(axis=1) / counts
        np.square(vals, out=vals)
        var = np.maximum(vals.sum(axis=1) / counts - np.square(mean), 0.0)
        out[:, 2 * ci - 2] = mean
        out[:, 2 * ci - 1] = np.sqrt(var)
        del vals  # freed before the next column's gather: a lower peak

    h = features[:, 0][safe]
    hmax = np.where(valid, h, -np.inf).max(axis=1)
    hmin = np.where(valid, h, np.inf).min(axis=1)
    out[:, -2] = hmax - hmin
    out[:, -1] = counts


def predict(features: np.ndarray, model: Mlp, workers: int = 1) -> np.ndarray:
    """Per-point uint8 labels: tree where the model's margin z > 0, so a
    margin of exactly 0 goes to non-tree; `workers` run the margins."""
    values = np.asarray(features)
    if values.ndim != 2 or values.shape[1] != model.d_in:
        raise DataError(
            f"model expects {model.d_in} features, got "
            f"{values.shape[1] if values.ndim == 2 else 'non-matrix input'}"
        )
    return (model.margins(values, workers=workers) > 0).astype(np.uint8)


def height_threshold_postprocess(
    labels: np.ndarray, cloud: PointCloud, threshold: float = 2.0
) -> np.ndarray:
    """A copy of `labels` with predicted trees below `threshold` meters of
    normalized height relabelled non-tree.

    Low "trees" are overwhelmingly facade/fence/low-vegetation errors.
    """
    cloud.require("h_norm")
    if len(labels) != cloud.count:
        raise DataError("prediction and cloud disagree on point count")
    labels = labels.copy()
    with np.errstate(over="ignore"):  # a threshold past float32 compares as the +-inf it casts to
        labels[(labels == int(Label.TREE)) & (cloud.h_norm < threshold)] = int(Label.NON_TREE)
    return labels


@dataclass(frozen=True)
class Model:
    """A trained classifier: the network and the recipe that built its
    features. `normalization` is None for a config without spectral
    columns; `neighborhood` is {"k", "radius"} of the graph."""

    net: Mlp
    feature_config: FeatureConfig
    normalization: NormalizationParams | None
    neighborhood: dict
    class_weights: np.ndarray
    seed: int


def _union(columns: Iterable[str]) -> tuple[str, ...]:
    """The distinct spectral columns named, in XYZ_GREEN_NIR_PNDVI order."""
    names = set(columns)
    return tuple(c for c in FeatureConfig.XYZ_GREEN_NIR_PNDVI.spectral_columns if c in names)


def _stats_matrices(cloud, recipes, neighborhood, workers) -> Iterator[np.ndarray]:
    """The neighborhood_stats matrix of each (feature config, normalization)
    recipe in turn, from one pass over the union of their spectral columns.

    Scaling and statistics work column by column, so each recipe gets its
    columns of the union's matrix, bit for bit those of the recipe alone:
    the matrix itself when it holds every union column, else a copy. The
    union is dropped before the last recipe's matrix is handed out."""
    scaling = {}  # union column -> its (lo, hi, impute), which every recipe must share
    for params in (p for _, p in recipes if p is not None):
        for name, *scale in zip(params.columns, params.lo, params.hi, params.impute):
            if scaling.setdefault(name, scale) != scale:
                raise DataError(f"the models disagree on the scaling of column {name!r}")
    union = _union(scaling)
    # scaling reads only lo, hi and impute: the union's percentiles are placeholders
    lo_hi_impute = map(np.array, zip(*map(scaling.get, union)))
    params = NormalizationParams(union, 0.0, 100.0, *lo_hi_impute) if union else None
    graph = neighborhood_graph(cloud, **neighborhood, workers=workers)  # index first: a lower peak
    stats = neighborhood_stats(assemble_features(cloud, params), graph)
    d = len(union) + 1
    for i, (fconfig, _) in enumerate(recipes):
        at = [1 + union.index(c) for c in fconfig.spectral_columns]
        cols = [0, *at, *(d + 2 * a + b - 2 for a in at for b in (0, 1)), 3 * d - 2, 3 * d - 1]
        matrix = stats if len(at) == len(union) else stats[:, cols]
        if i == len(recipes) - 1:
            del stats
        yield matrix
        del matrix  # before the next recipe's copy: a lower peak


def fit(
    cloud: PointCloud, fconfigs: Iterable[FeatureConfig], cfg: dict
) -> list[tuple[Model, list[float]]]:
    """Train one model per feature config on a labelled cloud with the
    effective config `cfg`; returns each with its per-epoch loss curve.

    Spectral columns are scaled at the features.p_low/p_high percentiles
    of this cloud, fitted once for the union of the configs' columns; one
    neighbourhood pass serves every config.
    """
    cloud.require("label", "h_norm")
    fconfigs = list(fconfigs)
    union = _union(c for fconfig in fconfigs for c in fconfig.spectral_columns)
    p_low, p_high = cfg["features"]["p_low"], cfg["features"]["p_high"]
    scaling = (fit_config_normalization(cloud, union, p_low=p_low, p_high=p_high)
               if union else None)
    recipes = [(c, scaling.select(c.spectral_columns) if c.spectral_columns else None)
               for c in fconfigs]
    neighborhood, workers = dict(cfg["neighborhood"]), worker_count(cfg["threads"])
    weights = compute_class_weights(cloud.label)
    fitted = []
    for (fconfig, params), features in zip(
            recipes, _stats_matrices(cloud, recipes, neighborhood, workers)):
        net, loss_curve = train(features, cloud.label, weights,
                                TrainConfig(**cfg["train"], seed=cfg["seed"]), workers=workers)
        del features  # freed before the next config's matrix is taken: a lower peak
        fitted.append((Model(net, fconfig, params, neighborhood, weights, cfg["seed"]), loss_curve))
    return fitted


def classify(cloud: PointCloud, models: list[Model], cfg: dict) -> list[np.ndarray]:
    """Labels of a cloud from each model's recipe, with predicted trees
    below postprocess.threshold relabelled (null: keep them); the models
    share one neighbourhood pass, so they must share its k and radius."""
    if any(m.neighborhood != models[0].neighborhood for m in models):
        raise DataError("models classified together must share one neighborhood")
    recipes = [(m.feature_config, m.normalization) for m in models]
    workers, threshold = worker_count(cfg["threads"]), cfg["postprocess"]["threshold"]
    matrices = _stats_matrices(cloud, recipes, models[0].neighborhood if models else {}, workers)
    labels = [predict(x, model.net, workers=workers) for model, x in zip(models, matrices)]
    if threshold is not None:
        labels = [height_threshold_postprocess(y, cloud, threshold) for y in labels]
    return labels


def save_checkpoint(path, model: Model) -> None:
    """Write a model as an MSTM v3 checkpoint.

    Sections in order: magic, version, seed and feature config name;
    class weights; neighborhood k and radius; for a config with spectral
    columns, the normalization's percentiles and its lo, hi and impute
    rows (one value per column); layer sizes, the last 1 (the margin
    head); f32 weights and biases. Contents are a pure function of the
    model: reruns produce identical bytes.
    """
    cfg_name = model.feature_config.name.encode("ascii")
    cw = np.asarray(model.class_weights, dtype=np.float64)
    params, net = model.normalization, model.net
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HqH", CHECKPOINT_VERSION, model.seed, len(cfg_name)))
        fh.write(cfg_name)
        fh.write(struct.pack("<2d", float(cw[0]), float(cw[1])))
        fh.write(struct.pack("<Id", model.neighborhood["k"], model.neighborhood["radius"]))
        if model.feature_config.spectral_columns:
            fh.write(struct.pack("<2d", params.p_low, params.p_high))
            fh.write(np.stack((params.lo, params.hi, params.impute)).astype("<f8").tobytes())
        fh.write(struct.pack("<H", len(net.sizes)))
        fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_checkpoint(path) -> Model:
    """Inverse of save_checkpoint.

    Every section is length-checked: a truncated file, trailing bytes, an
    undecodable field, another version, non-finite parameters or a recipe
    value :func:`neighborhood_graph` or NormalizationParams would reject
    raise DataError.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint")
    off = 4

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise DataError(
                f"{path}: checkpoint truncated in {what} "
                f"(needs {off + n} bytes, file has {len(raw)})"
            )
        off += n
        return raw[off - n : off]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    version, seed, n_cfg = unpack("<HqH", "header")
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: checkpoint version {version} is not supported (this mslidar "
            f"reads version {CHECKPOINT_VERSION}); retrain the model"
        )
    cfg_raw = take(n_cfg, "feature config name")
    try:
        fconfig = FeatureConfig[cfg_raw.decode("ascii")]
    except (UnicodeDecodeError, KeyError) as exc:
        raise DataError(f"{path}: bad checkpoint metadata ({exc})") from exc
    cw = unpack("<2d", "class weights")
    k, radius = unpack("<Id", "neighborhood")
    n_cols = len(fconfig.spectral_columns)
    if n_cols:
        p_low, p_high = unpack("<2d", "normalization percentiles")
        table = take(3 * 8 * n_cols, "normalization values")
        lo, hi, impute = np.frombuffer(table, dtype="<f8").reshape(3, n_cols)
    try:
        _check_neighborhood(k, radius)
        params = NormalizationParams(
            fconfig.spectral_columns, p_low, p_high, lo, hi, impute
        ) if n_cols else None
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    (n_sizes,) = unpack("<H", "layer count")
    sizes = unpack(f"<{n_sizes}I", "layer sizes")
    if n_sizes < 2 or min(sizes) < 1 or sizes[-1] != 1:
        raise DataError(f"{path}: invalid layer sizes {sizes}")

    # parameters in file order (W0, b0, W1, b1, ...), sized before allocating
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    payload = np.frombuffer(take(4 * n_params, "parameters"), dtype="<f4")
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after the checkpoint")
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{path}: checkpoint holds non-finite parameters")
    net = Mlp(sizes[0], tuple(sizes[1:-1]))
    pos = 0
    for p in net.parameters():
        p[...] = payload[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    return Model(net, fconfig, params, {"k": k, "radius": radius}, np.asarray(cw), seed)
