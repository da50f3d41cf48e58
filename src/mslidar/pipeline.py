"""Stage orchestration: effective configuration and run manifests.

Every stage is a pure function of (input files, effective config, seed)
and writes, beside its outputs, a manifest giving the tool version, the
stage name, the seed, the effective config (defaults filled in), its
hash, and the SHA-256 of every input file. Manifests contain no
timestamps, so reruns of identical work are byte-identical.
"""

import copy
import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cloud import Channel, PointCloud, concat
from .columnar import read_columnar, write_columnar
from .csf import CsfParams, csf_ground
from .dtm import build_dtm, normalize_height
from .errors import ConfigError, DataError
from .features import FeatureConfig, add_pndvi, fit_config_normalization, assemble_features
from .mlp import TrainConfig, train
from .preprocess import SorParams, merge_channels, sor_filter, voxel_subsample
from .split import SPLIT_NAMES, split_plots
from .synth import SyntheticSceneConfig, generate_scene, scaled_config
from . import classifier as clf
from . import evaluation as ev

logger = logging.getLogger(__name__)

# Effective-config defaults; every stage knob lives here so manifests
# can record the complete effective configuration.
DEFAULTS: dict = {
    "seed": 0,
    "threads": 1,
    "sor": {"k": 6, "n_sigma": 1.0},
    "merge": {"radius": 1.0, "k": 7},
    "csf": {
        "cloth_resolution": 1.0,
        "rigidness": 2,
        "iterations": 500,
        "class_threshold": 0.5,
        "time_step": 0.65,
    },
    "dtm": {"cell": 1.0},
    "voxel": {"grid": 0.1},
    "features": {"config": "XYZ_GREEN_NIR_PNDVI", "p_low": 1.0, "p_high": 99.0},
    "neighborhood": {"k": 16, "radius": 2.0},
    "train": {
        "epochs": 300,
        "learning_rate": 0.001,
        "weight_decay": 0.0001,
        "batch_size": 8192,
        "hidden": [64, 64],
        "patience": None,
    },
    "split": {"ratios": [0.6853, 0.1628, 0.1519], "tile_size": 20.0},
    "postprocess": {"threshold": 2.0},
    "evaluate": {"threshold": 2.0, "predicted_tree_only": False},
    "synth": {"target_points": 500_000},
}


def _merge_into(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a mapping")
            _merge_into(base[key], value, where)
        else:
            base[key] = value
    return base


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the YAML file, overlaid by CLI overrides.

    Unknown keys anywhere raise ConfigError.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        _merge_into(cfg, data)
    if overrides:
        _merge_into(cfg, overrides)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    target, stage: str, cfg: dict, inputs: dict[str, str], extra: dict | None = None
) -> Path:
    """Write `<target>.manifest.json` (or manifest.json inside a directory)."""
    target = Path(target)
    if target.is_dir():
        path = target / "manifest.json"
    else:
        path = target.with_name(target.name + ".manifest.json")
    payload = {
        "tool": "mslidar",
        "version": __version__,
        "stage": stage,
        "seed": cfg.get("seed"),
        "config": cfg,
        "config_hash": config_hash(cfg),
        "inputs": {name: file_sha256(p) for name, p in inputs.items()},
    }
    if extra:
        payload["extra"] = extra
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


# ---------------------------------------------------------------- stages


def stage_synth(cfg: dict, out: Path, target_points: int | None = None) -> PointCloud:
    n = target_points or cfg["synth"]["target_points"]
    scene_cfg = scaled_config(int(n), seed=cfg["seed"])
    cloud = generate_scene(scene_cfg)
    write_columnar(cloud, out)
    write_manifest(out, "synth", cfg, {}, extra={"points": cloud.count})
    return cloud


def stage_ingest(
    cfg: dict, las_path: Path, channel: str, reflectance_source: str, out: Path
) -> PointCloud:
    from .lasio import read_las

    chan = {"green": Channel.GREEN_532, "nir": Channel.NIR_1064}.get(channel, channel)
    cloud = read_las(las_path, reflectance_source=reflectance_source, channel=chan)
    write_columnar(cloud, out)
    write_manifest(out, "ingest", cfg, {"las": las_path}, extra={"points": cloud.count})
    return cloud


def stage_denoise(cfg: dict, inp: Path, out: Path) -> PointCloud:
    cloud = read_columnar(inp)
    params = SorParams(k=cfg["sor"]["k"], n_sigma=cfg["sor"]["n_sigma"])
    workers = cfg["threads"]
    channels = np.unique(cloud.channel)
    if channels.size > 1:
        # channels are independent scans: denoise each against itself
        parts = []
        removed_total = 0
        for chan in channels:
            part = cloud.take(cloud.channel == chan)
            kept, removed = sor_filter(part, params, workers=workers)
            parts.append(kept)
            removed_total += removed.size
        result = concat(parts)
    else:
        result, removed = sor_filter(cloud, params, workers=workers)
        removed_total = removed.size
    write_columnar(result, out)
    write_manifest(
        out, "denoise", cfg, {"cloud": inp},
        extra={"removed": int(removed_total), "kept": result.count},
    )
    return result


def stage_merge(
    cfg: dict, out: Path, combined: Path | None = None,
    green: Path | None = None, nir: Path | None = None,
) -> PointCloud:
    inputs: dict[str, Path] = {}
    if combined is not None:
        inputs["cloud"] = combined
        cloud = read_columnar(combined)
        g = cloud.take(cloud.channel == int(Channel.GREEN_532))
        n = cloud.take(cloud.channel == int(Channel.NIR_1064))
    else:
        if green is None or nir is None:
            raise ConfigError("merge needs either one combined cloud or both channels")
        inputs["green"] = green
        inputs["nir"] = nir
        g = read_columnar(green)
        n = read_columnar(nir)
    merged = merge_channels(
        g, n, radius=cfg["merge"]["radius"], k=cfg["merge"]["k"],
        workers=cfg["threads"],
    )
    write_columnar(merged, out)
    write_manifest(out, "merge", cfg, inputs, extra={"points": merged.count})
    return merged


def stage_ground(cfg: dict, inp: Path, out: Path) -> PointCloud:
    cloud = read_columnar(inp)
    params = CsfParams(
        cloth_resolution=cfg["csf"]["cloth_resolution"],
        rigidness=cfg["csf"]["rigidness"],
        iterations=cfg["csf"]["iterations"],
        class_threshold=cfg["csf"]["class_threshold"],
        time_step=cfg["csf"]["time_step"],
    )
    flag = csf_ground(cloud, params)
    result = cloud.with_column("ground_flag", flag)
    write_columnar(result, out)
    write_manifest(
        out, "ground", cfg, {"cloud": inp}, extra={"ground_points": int(flag.sum())}
    )
    return result


def stage_normalize_height(cfg: dict, inp: Path, out: Path) -> PointCloud:
    cloud = read_columnar(inp)
    dtm = build_dtm(cloud, cell=cfg["dtm"]["cell"], workers=cfg["threads"])
    result = normalize_height(cloud, dtm)
    write_columnar(result, out)
    write_manifest(
        out, "normalize-height", cfg, {"cloud": inp},
        extra={"dtm_shape": list(dtm.shape), "nodata_cells": int(dtm.nodata.sum())},
    )
    return result


def stage_features(cfg: dict, inp: Path, out: Path) -> PointCloud:
    cloud = read_columnar(inp)
    result = add_pndvi(cloud)
    write_columnar(result, out)
    write_manifest(out, "features", cfg, {"cloud": inp})
    return result


def stage_subsample(cfg: dict, inp: Path, out: Path) -> PointCloud:
    cloud = read_columnar(inp)
    result = voxel_subsample(cloud, grid=cfg["voxel"]["grid"])
    write_columnar(result, out)
    write_manifest(
        out, "subsample", cfg, {"cloud": inp},
        extra={"before": cloud.count, "after": result.count},
    )
    return result


def stage_split(cfg: dict, inp: Path, out_dir: Path) -> dict[str, Path]:
    cloud = read_columnar(inp)
    ratios = tuple(cfg["split"]["ratios"])
    result = split_plots(
        cloud, ratios, tile_size=cfg["split"]["tile_size"], seed=cfg["seed"]
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in SPLIT_NAMES:
        idx = result.indices(name)
        path = out_dir / f"{name}.mst"
        write_columnar(cloud.take(idx), path)
        paths[name] = path
    write_manifest(
        out_dir, "split", cfg, {"cloud": inp},
        extra={
            "target_ratios": list(result.target_ratios),
            "achieved_ratios": list(result.achieved_ratios),
            "tiles": int(result.tile_ids.shape[0]),
            "single_split": result.single_split,
        },
    )
    return paths


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"],
        learning_rate=t["learning_rate"],
        weight_decay=t["weight_decay"],
        batch_size=t["batch_size"],
        hidden=tuple(t["hidden"]),
        patience=t["patience"],
        seed=cfg["seed"],
    )


def _assemble(cfg, cloud, fconfig, params, graph=None):
    if graph is None:
        graph = clf.neighborhood_graph(
            cloud, k=cfg["neighborhood"]["k"], radius=cfg["neighborhood"]["radius"],
            workers=cfg["threads"],
        )
    fm = assemble_features(cloud, fconfig, params)
    return clf.neighborhood_stats(fm, graph)


def stage_train(cfg: dict, train_path: Path, out_dir: Path) -> Path:
    cloud = read_columnar(train_path)
    cloud.require("label", "h_norm")
    fconfig = FeatureConfig.from_name(cfg["features"]["config"])
    params = None
    sidecar_name = ""
    out_dir.mkdir(parents=True, exist_ok=True)
    if fconfig.spectral_columns:
        params = fit_config_normalization(
            cloud, fconfig, p_low=cfg["features"]["p_low"], p_high=cfg["features"]["p_high"]
        )
        sidecar_name = "normalization.json"
        params.save(out_dir / sidecar_name)
    fm = _assemble(cfg, cloud, fconfig, params)
    weights = clf.compute_class_weights(cloud.label)
    result = train(fm.values, cloud.label, weights, _train_config(cfg))
    model_path = out_dir / "model.mstm"
    clf.save_checkpoint(
        model_path, result.model, fconfig, weights, cfg["seed"], sidecar_name
    )
    curve_lines = ["epoch,loss"] + [
        f"{i},{v!r}" for i, v in enumerate(result.loss_curve)
    ]
    (out_dir / "loss_curve.csv").write_text(
        "\n".join(curve_lines) + "\n", encoding="utf-8"
    )
    write_manifest(
        out_dir, "train", cfg, {"train": train_path},
        extra={
            "feature_config": fconfig.name,
            "class_weights": [float(w) for w in weights],
            "final_loss": result.loss_curve[-1],
            "initial_loss": result.loss_curve[0],
            "stopped_epoch": result.stopped_epoch,
        },
    )
    return model_path


def stage_predict(cfg: dict, cloud_path: Path, model_path: Path, out_dir: Path) -> Path:
    cloud = read_columnar(cloud_path)
    model, meta = clf.load_checkpoint(model_path)
    fconfig = meta["feature_config"]
    params = None
    if meta["norm_sidecar"]:
        from .features import NormalizationParams

        params = NormalizationParams.load(model_path.parent / meta["norm_sidecar"])
    fm = _assemble(cfg, cloud, fconfig, params)
    pred = clf.predict(fm, model)
    threshold = cfg["postprocess"]["threshold"]
    if threshold is not None and cloud.has("h_norm"):
        pred = clf.height_threshold_postprocess(pred, cloud, t=threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_path = out_dir / "predictions.txt"
    pred_path.write_text(
        "\n".join(str(int(v)) for v in pred.labels) + "\n", encoding="utf-8"
    )
    write_manifest(
        out_dir, "predict", cfg, {"cloud": cloud_path, "model": model_path},
        extra={"feature_config": fconfig.name, "predicted_tree": int(pred.labels.sum())},
    )
    return pred_path


def stage_import_pred(cfg: dict, labels_path: Path, cloud_path: Path, out_dir: Path) -> Path:
    cloud = read_columnar(cloud_path)
    pred = clf.import_predictions(labels_path, cloud)
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_path = out_dir / "predictions.txt"
    pred_path.write_text(
        "\n".join(str(int(v)) for v in pred.labels) + "\n", encoding="utf-8"
    )
    write_manifest(
        out_dir, "import-pred", cfg,
        {"labels": labels_path, "cloud": cloud_path},
        extra={"source": pred.source},
    )
    return pred_path


def stage_evaluate(
    cfg: dict, cloud_path: Path, pred_path: Path, out_dir: Path,
    las_out: Path | None = None,
) -> ev.EvalReport:
    cloud = read_columnar(cloud_path)
    cloud.require("label")
    pred = clf.import_predictions(pred_path, cloud)
    report = ev.evaluate(
        pred.labels, cloud.label,
        cloud.h_norm if cloud.has("h_norm") else None,
        t=cfg["evaluate"]["threshold"],
        predicted_tree_only=cfg["evaluate"]["predicted_tree_only"],
        manifest={"prediction_source": pred.source},
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        ev.report_to_json(report) + "\n", encoding="utf-8"
    )
    (out_dir / "report.csv").write_text(ev.report_to_csv(report), encoding="utf-8")
    if las_out is not None:
        ev.export_error_las(cloud, pred.labels, las_out)
    write_manifest(
        out_dir, "evaluate", cfg, {"cloud": cloud_path, "predictions": pred_path},
        extra={"miou": report.miou, "oa": report.oa},
    )
    return report


def stage_ablate(
    cfg: dict, train_path: Path, test_path: Path, out_dir: Path,
    configs: tuple[FeatureConfig, ...] | None = None,
) -> ev.AblationResult:
    train_cloud = read_columnar(train_path)
    test_cloud = read_columnar(test_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    def save_partial(fconfig, report):
        (out_dir / f"report_{fconfig.name}.json").write_text(
            ev.report_to_json(report) + "\n", encoding="utf-8"
        )

    result = ev.run_ablation(
        train_cloud, test_cloud,
        configs=configs or tuple(FeatureConfig),
        train_config=_train_config(cfg),
        postprocess_threshold=cfg["postprocess"]["threshold"],
        eval_threshold=cfg["evaluate"]["threshold"],
        neighbor_k=cfg["neighborhood"]["k"],
        neighbor_radius=cfg["neighborhood"]["radius"],
        workers=cfg["threads"],
        on_report=save_partial,
        p_low=cfg["features"]["p_low"],
        p_high=cfg["features"]["p_high"],
    )
    (out_dir / "ablation.json").write_text(
        ev.report_to_json(result) + "\n", encoding="utf-8"
    )
    (out_dir / "ablation.csv").write_text(ev.report_to_csv(result), encoding="utf-8")
    write_manifest(
        out_dir, "ablate", cfg, {"train": train_path, "test": test_path},
        extra={"best": {k: v.name for k, v in result.best.items()}},
    )
    return result


def stage_export(
    cfg: dict, cloud_path: Path, las_out: Path, pred_path: Path | None = None
) -> None:
    from .lasio import write_las

    cloud = read_columnar(cloud_path)
    inputs = {"cloud": cloud_path}
    if pred_path is not None:
        pred = clf.import_predictions(pred_path, cloud)
        inputs["predictions"] = pred_path
        if cloud.has("label"):
            ev.export_error_las(cloud, pred.labels, las_out)
        else:
            write_las(cloud.with_column("label", pred.labels), las_out)
    else:
        write_las(cloud, las_out)
    write_manifest(las_out, "export", cfg, inputs)
