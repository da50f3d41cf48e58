"""Stage orchestration: the stage table, effective configuration and run
manifests.

The :func:`stage` decorator enters each ``stage_*`` function in
:data:`STAGES` with its name, help text and command-line flags; the CLI
builds its parser, its config overrides and its dispatch from that
table. Every stage is a pure function of (input files, effective config,
seed) that writes its outputs and returns only its manifest ``extra``;
the cloud-to-cloud stages map ``(cfg, cloud) -> (cloud, extra)``.
:meth:`Stage.run` writes every manifest, beside the stage's first output:
the tool version, the stage name, the seed, the effective config
(defaults filled in), its hash and the SHA-256 of every input given.
Manifests contain no timestamps, so reruns of identical work are
byte-identical.
"""

import copy
import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .cloud import Channel, PointCloud, concat, worker_count
from .columnar import read_columnar, read_labels, write_columnar, write_labels
from .csf import CsfParams, csf_ground
from .dtm import build_dtm, normalize_height
from .errors import ConfigError
from .features import ALL_CONFIGS, FeatureConfig, add_pndvi, fit_normalization
from .mlp import TrainConfig
from .preprocess import SorParams, merge_channels, sor_filter, voxel_subsample
from .split import SPLIT_NAMES, split_plots
from .synth import generate_scene, scaled_config
from . import classifier as clf
from . import evaluation as ev


def _defaults(owner: Callable, *names: str, **renamed: str) -> dict:
    """Defaults of the named parameters of a function or parameter
    dataclass, with tuples as lists, the form YAML and the manifests' JSON
    give them; `renamed` maps a config key to a parameter of another name."""
    params = inspect.signature(owner).parameters
    keys = dict(zip(names, names), **renamed)
    values = {key: params[name].default for key, name in keys.items()}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


# Effective-config defaults; every stage knob lives here so manifests
# can record the complete effective configuration. Each knob's default
# is written once, in the function or dataclass that owns it.
DEFAULTS: dict = {
    "seed": 0,
    "threads": None,   # every CPU this process may run on
    "sor": _defaults(SorParams, "k", "n_sigma"),
    "merge": _defaults(merge_channels, "radius", "k"),
    "csf": _defaults(CsfParams, "cloth_resolution", "rigidness", "iterations",
                     "class_threshold"),
    "dtm": _defaults(build_dtm, "cell"),
    "voxel": _defaults(voxel_subsample, "grid"),
    "features": {"config": "XYZ_GREEN_NIR_PNDVI",
                 **_defaults(fit_normalization, "p_low", "p_high")},
    "neighborhood": _defaults(clf.neighborhood_graph, "k", "radius"),
    "train": _defaults(TrainConfig, "epochs", "learning_rate", "weight_decay",
                       "batch_size", "hidden"),
    "split": {"ratios": [0.6853, 0.1628, 0.1519], "tile_size": 20.0},
    "postprocess": _defaults(clf.height_threshold_postprocess, threshold="t"),
    "evaluate": _defaults(ev.error_rate_above, "predicted_tree_only", threshold="t"),
    "synth": {"target_points": 500_000},
}


# Leaves that may also be null (off, or for threads: every usable CPU),
# with a value of their other type.
_NULLABLE = {"postprocess.threshold": 0.0, "threads": 1}


def _fits(value, default) -> bool:
    """Whether a config value has the type of its default: an int may stand
    for a float, bool and int never for each other, and a list needs the
    default's length and element types."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, value, default)))
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _merge_into(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a mapping")
            _merge_into(base[key], value, where)
            continue
        like = _NULLABLE.get(where, config_value(DEFAULTS, where))
        if where == "train.hidden" and isinstance(value, list) and value:
            like = like[:1] * len(value)  # the network may have any depth
        if not (_fits(value, like) or value is None and where in _NULLABLE):
            null = " or null" if where in _NULLABLE else ""
            raise ConfigError(
                f"config key {where} must have the type of {like!r}{null}, got {value!r}")
        leaves = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not np.isfinite(v) for v in leaves):
            raise ConfigError(f"config key {where} must be finite, got {value!r}")
        base[key] = value
    return base


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the YAML file, overlaid by `overrides`, a
    mapping of dotted keys such as ``"sor.k"`` to values.

    Unknown keys, values of another type than their default (see
    :func:`_fits`), a non-finite float, a thread count below 1 and a seed
    outside ``0 <= seed < 2**63`` (what the RNG and the checkpoint's i64
    take) raise ConfigError.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        import yaml

        try:
            data = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        _merge_into(cfg, data)
    for key, value in (overrides or {}).items():
        # "sor.k": 9 overrides as {"sor": {"k": 9}}
        _merge_into(cfg, functools.reduce(lambda v, k: {k: v}, reversed(key.split(".")), value))
    if cfg["threads"] is not None and cfg["threads"] < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {cfg['threads']!r}")
    if not 0 <= cfg["seed"] < 2**63:
        raise ConfigError(f"seed must be an integer in [0, 2**63), got {cfg['seed']!r}")
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


# ---------------------------------------------------------------- stage table


class Flag:
    """One command-line option of a stage.

    A flag with a `config` key sets that dotted key of the effective
    config; any other passes its value to the stage function as the
    keyword argument `dest`. A path flag that `reads` a file records its
    hash under that name in the manifest; an output directory lists the
    file names the stage `writes` in it. `kwargs` are the other
    add_argument keywords.
    """

    def __init__(self, option: str, config: str | None = None, help: str | None = None,
                 dest: str | None = None, reads: str | None = None,
                 writes: tuple[str, ...] = (), **kwargs):
        self.option = option
        self.config = config
        self.help = help
        self.dest = dest or option.lstrip("-").replace("-", "_")
        self.reads = reads
        self.writes = writes
        self.kwargs = kwargs


def config_value(cfg: dict, key: str):
    """The value at a dotted config key such as ``"sor.k"``."""
    return functools.reduce(dict.__getitem__, key.split("."), cfg)


def setting(key: str, option: str | None = None, help: str | None = None) -> Flag:
    """The option that sets config key `key`, typed by the key's default and
    named after its last part unless `option` is given."""
    default = config_value(DEFAULTS, key)
    note = f"config key {key} (default {default})"
    kwargs = {"type": type(_NULLABLE.get(key, default))}
    if isinstance(default, bool):
        kwargs = {"action": "store_true", "default": None}
    elif isinstance(default, list):
        kwargs = {"type": type(default[0]), "nargs": len(default)}
    return Flag(option or "--" + key.split(".")[-1].replace("_", "-"), key,
                f"{help}; {note}" if help else note, **kwargs)


def path(option: str, dest: str | None = None, required: bool = True,
         help: str | None = None, reads: str | None = None) -> Flag:
    """A file the stage function reads, recorded in the manifest as
    `reads`, or, with no `reads`, one it writes."""
    return Flag(option, None, help, dest, reads, type=Path, required=required)


def out_dir(*writes: str) -> Flag:
    """The directory --out-dir, which the stage function creates and
    writes the named files in."""
    return Flag("--out-dir", writes=writes, type=Path, required=True)


IN = path("--in", "inp", reads="cloud")
OUT = path("--out")


@dataclass(frozen=True)
class Stage:
    """A row of the stage table; run(cfg, **flag values) runs the stage."""

    name: str
    help: str
    flags: tuple[Flag, ...]
    fn: Callable

    def run(self, cfg: dict, **kwargs) -> None:
        """Run fn on a copy of `cfg` and write the manifest beside the first
        output given: the inputs given, the config as fn leaves it and the
        extra fn returns. An output file that is also an input or has no
        directory to go in (other than an output directory of the stage),
        and an OSError out of fn (a write: every reader raises DataError),
        are config errors; the first two are raised before fn runs."""
        given = [(f, kwargs[f.dest]) for f in self.flags
                 if f.kwargs.get("type") is Path and kwargs.get(f.dest) is not None]
        read = {p.resolve(): f.option for f, p in given if f.reads}
        dirs = {p.resolve() for f, p in given if f.writes}
        for f, p in given:
            if f.reads:
                continue
            for q in [p / name for name in f.writes] or [p]:
                if q.resolve() in read:
                    where = p if q is p else f"{p} ({q.name})"
                    raise ConfigError(f"{f.option} {where} is also {read[q.resolve()]}: "
                                      "a stage cannot write over its input")
            if not (f.writes or p.parent.is_dir() or p.parent.resolve() in dirs):
                raise ConfigError(f"cannot write {p}: {p.parent} is not a directory")
        cfg = copy.deepcopy(cfg)
        try:
            extra = self.fn(cfg, **kwargs)
            target = next(p for f, p in given if not f.reads)
            inputs = {f.reads: p for f, p in given if f.reads}
            write_manifest(target, self.name, cfg, inputs, extra)
        except OSError as exc:
            raise ConfigError(
                f"cannot write {exc.filename or 'an output'}: {exc.strerror or exc}") from exc


def cloud_io(fn: Callable) -> Callable:
    """The stage function of a cloud-to-cloud map fn(cfg, cloud) -> (cloud,
    extra): it reads --in and writes --out."""

    def run(cfg: dict, inp: Path, out: Path) -> dict | None:
        cloud, extra = fn(cfg, read_columnar(inp))
        write_columnar(cloud, out)
        return extra

    return run


STAGES: dict[str, Stage] = {}


def stage(name: str, help: str, *flags: Flag, maps_cloud: bool = False):
    """Enter the decorated function in STAGES as the stage `name`; with
    `maps_cloud`, through :func:`cloud_io`."""

    def register(fn):
        STAGES[name] = Stage(name, help, flags, cloud_io(fn) if maps_cloud else fn)
        return fn

    return register


# ---------------------------------------------------------------- stages


@stage("synth", "generate a labeled synthetic scene", OUT, setting("synth.target_points"))
def stage_synth(cfg: dict, out: Path) -> dict:
    scene_cfg = scaled_config(int(cfg["synth"]["target_points"]), seed=cfg["seed"])
    cloud = generate_scene(scene_cfg)
    write_columnar(cloud, out)
    return {"points": cloud.count}


@stage("ingest", "read a LAS file into the columnar format",
       path("--las", "las_path", reads="las"),
       Flag("--channel", required=True, choices=["green", "nir", "scanner"]),
       Flag("--reflectance-source", default="intensity"),
       Flag("--label-source", choices=["classification"], default=None,
            help="copy the classification byte into the label column"),
       OUT)
def stage_ingest(
    cfg: dict, las_path: Path, channel: str, reflectance_source: str, out: Path,
    label_source: str | None = None,
) -> dict:
    from .lasio import read_las

    chan = {"green": Channel.GREEN_532, "nir": Channel.NIR_1064}.get(channel, channel)
    cloud = read_las(las_path, reflectance_source=reflectance_source, channel=chan,
                     label_source=label_source)
    write_columnar(cloud, out)
    return {"points": cloud.count}


@stage("denoise", "statistical outlier removal (per channel)",
       IN, OUT, setting("sor.k"), setting("sor.n_sigma"), maps_cloud=True)
def stage_denoise(cfg: dict, cloud: PointCloud) -> tuple[PointCloud, dict]:
    params = SorParams(**cfg["sor"])
    # channels are independent scans: denoise each against itself; an
    # empty cloud goes to sor_filter as it is, to be rejected there
    parts = [cloud.take(cloud.channel == c) for c in np.unique(cloud.channel)] or [cloud]
    workers = worker_count(cfg["threads"])
    kept, removed = zip(*(sor_filter(p, params, workers=workers) for p in parts))
    result = concat(kept)
    return result, {"removed": sum(r.size for r in removed), "kept": result.count}


@stage("merge", "fuse the two channels with cross-channel reflectance",
       path("--in", "inp", required=False, help="combined dual-channel cloud", reads="cloud"),
       path("--green", required=False, help="green-channel cloud", reads="green"),
       path("--nir", required=False, help="NIR-channel cloud", reads="nir"),
       OUT, setting("merge.radius"), setting("merge.k"))
def stage_merge(
    cfg: dict, out: Path, inp: Path | None = None,
    green: Path | None = None, nir: Path | None = None,
) -> dict:
    if inp is not None and green is None and nir is None:
        cloud = read_columnar(inp)
        g = cloud.take(cloud.channel == int(Channel.GREEN_532))
        n = cloud.take(cloud.channel == int(Channel.NIR_1064))
    elif inp is None and green is not None and nir is not None:
        g = read_columnar(green)
        n = read_columnar(nir)
    else:
        raise ConfigError(
            "merge takes either one combined cloud (--in) alone or both channels "
            "(--green and --nir)"
        )
    merged = merge_channels(g, n, **cfg["merge"], workers=worker_count(cfg["threads"]))
    write_columnar(merged, out)
    return {"points": merged.count}


@stage("ground", "cloth-simulation ground flagging",
       IN, OUT, setting("csf.cloth_resolution"), setting("csf.rigidness"),
       setting("csf.iterations"), setting("csf.class_threshold"), maps_cloud=True)
def stage_ground(cfg: dict, cloud: PointCloud) -> tuple[PointCloud, dict]:
    ground = csf_ground(cloud, CsfParams(**cfg["csf"]))
    return cloud.with_column("ground_flag", ground), {"ground_points": int(ground.sum())}


@stage("normalize-height", "DTM construction and height normalization",
       IN, OUT, setting("dtm.cell"), maps_cloud=True)
def stage_normalize_height(cfg: dict, cloud: PointCloud) -> tuple[PointCloud, dict]:
    dtm = build_dtm(cloud, cell=cfg["dtm"]["cell"], workers=worker_count(cfg["threads"]))
    extra = {"dtm_shape": list(dtm.shape), "nodata_cells": int(dtm.nodata.sum())}
    return normalize_height(cloud, dtm), extra


@stage("features", "attach the spectral vegetation index column",
       IN, OUT, maps_cloud=True)
def stage_features(cfg: dict, cloud: PointCloud) -> tuple[PointCloud, None]:
    return add_pndvi(cloud), None


@stage("subsample", "voxel-grid subsampling with majority labels",
       IN, OUT, setting("voxel.grid"), maps_cloud=True)
def stage_subsample(cfg: dict, cloud: PointCloud) -> tuple[PointCloud, dict]:
    result = voxel_subsample(cloud, grid=cfg["voxel"]["grid"])
    return result, {"before": cloud.count, "after": result.count}


@stage("split", "tile-based train/val/test split",
       IN, out_dir(*(f"{name}.mst" for name in SPLIT_NAMES)),
       setting("split.ratios"), setting("split.tile_size"))
def stage_split(cfg: dict, inp: Path, out_dir: Path) -> dict:
    cloud = read_columnar(inp)
    ratios = tuple(cfg["split"]["ratios"])
    result = split_plots(
        cloud, ratios, tile_size=cfg["split"]["tile_size"], seed=cfg["seed"]
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        write_columnar(cloud.take(result.indices(name)), out_dir / f"{name}.mst")
    return {
        "target_ratios": list(result.target_ratios),
        "achieved_ratios": list(result.achieved_ratios),
        "tiles": int(result.tile_ids.shape[0]),
        "single_split": result.single_split,
    }


@stage("train", "train the point classifier",
       path("--train", "train_path", reads="train"), out_dir("model.mstm", "loss_curve.csv"),
       setting("features.config", "--feature-config"), setting("train.epochs"),
       setting("train.learning_rate"), setting("train.weight_decay"),
       setting("train.batch_size"))
def stage_train(cfg: dict, train_path: Path, out_dir: Path) -> dict:
    cloud = read_columnar(train_path)
    fconfig = FeatureConfig.from_name(cfg["features"]["config"])
    result, params, weights = clf.fit(cloud, fconfig, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    clf.save_checkpoint(out_dir / "model.mstm", result.model, fconfig, weights, cfg["seed"],
                        cfg["neighborhood"], params)
    curve = "".join(f"{i},{v!r}\n" for i, v in enumerate(result.loss_curve))
    (out_dir / "loss_curve.csv").write_text("epoch,loss\n" + curve, encoding="utf-8")
    return {
        "feature_config": fconfig.name,
        "class_weights": [float(w) for w in weights],
        "final_loss": result.loss_curve[-1],
        "initial_loss": result.loss_curve[0],
    }


@stage("predict", "classify a cloud with a trained model",
       IN, path("--model", "model_path", reads="model"), out_dir("predictions.txt"),
       setting("postprocess.threshold", "--postprocess-threshold"))
def stage_predict(cfg: dict, inp: Path, model_path: Path, out_dir: Path) -> dict:
    model, meta = clf.load_checkpoint(model_path)
    if meta["neighborhood"] != cfg["neighborhood"]:
        # features must be built as in training, and the manifest must
        # record the neighborhood that ran
        raise ConfigError(
            f"{model_path} was trained with neighborhood {meta['neighborhood']}, "
            f"but the config gives {cfg['neighborhood']}"
        )
    cloud = read_columnar(inp)
    fconfig, params = meta["feature_config"], meta["normalization"]
    labels = clf.classify(cloud, model, fconfig, params, cfg)
    # the manifest records the feature recipe that ran: the checkpoint's
    cfg["features"]["config"] = fconfig.name
    if params is not None:
        cfg["features"].update(p_low=params.p_low, p_high=params.p_high)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_labels(labels, out_dir / "predictions.txt")
    return {"feature_config": fconfig.name, "predicted_tree": int(labels.sum())}


def _write_report(stem: Path, report) -> None:
    """`<stem>.json` and `<stem>.csv` of an evaluation or ablation report."""
    stem.with_suffix(".json").write_text(ev.report_to_json(report) + "\n", encoding="utf-8")
    stem.with_suffix(".csv").write_text(ev.report_to_csv(report), encoding="utf-8")


@stage("evaluate", "score predictions against ground truth",
       path("--cloud", "cloud_path", reads="cloud"),
       path("--pred", "pred_path", reads="predictions"), out_dir("report.json", "report.csv"),
       setting("evaluate.threshold"), setting("evaluate.predicted_tree_only"),
       path("--las-out", required=False))
def stage_evaluate(
    cfg: dict, cloud_path: Path, pred_path: Path, out_dir: Path,
    las_out: Path | None = None,
) -> dict:
    cloud = read_columnar(cloud_path)
    labels = read_labels(pred_path, cloud.count)
    source = f"imported:{pred_path.name}"
    report = ev.score(labels, cloud, cfg, {"prediction_source": source})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "report", report)
    if las_out is not None:
        ev.export_error_las(cloud, labels, las_out)
    return {"miou": report.miou, "oa": report.oa}


@stage("ablate", "train/evaluate every feature configuration",
       path("--train", "train_path", reads="train"),
       path("--test", "test_path", reads="test"),
       out_dir("ablation.json", "ablation.csv", *(f"report_{c.name}.json" for c in ALL_CONFIGS)),
       Flag("--configs", help="subset of feature configs (default: all six)",
            nargs="+", default=None),
       setting("train.epochs"))
def stage_ablate(
    cfg: dict, train_path: Path, test_path: Path, out_dir: Path,
    configs: list[str] | None = None,
) -> dict:
    fconfigs = (
        tuple(FeatureConfig.from_name(n) for n in configs) if configs else ALL_CONFIGS
    )
    train_cloud = read_columnar(train_path)
    test_cloud = read_columnar(test_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    def save_partial(fconfig, report):
        (out_dir / f"report_{fconfig.name}.json").write_text(
            ev.report_to_json(report) + "\n", encoding="utf-8"
        )

    result = ev.run_ablation(train_cloud, test_cloud, fconfigs, cfg, on_report=save_partial)
    _write_report(out_dir / "ablation", result)
    return {"best": {k: v.name for k, v in result.best.items()}}


@stage("export", "write a cloud (optionally with predictions) to LAS",
       path("--cloud", "cloud_path", reads="cloud"), path("--las", "las_out"),
       path("--pred", "pred_path", required=False, reads="predictions"))
def stage_export(
    cfg: dict, cloud_path: Path, las_out: Path, pred_path: Path | None = None
) -> None:
    from .lasio import write_las

    cloud = read_columnar(cloud_path)
    if pred_path is None:
        write_las(cloud, las_out)
        return
    labels = read_labels(pred_path, cloud.count)
    if cloud.has("label"):
        ev.export_error_las(cloud, labels, las_out)
    else:
        write_las(cloud.with_column("label", labels), las_out)
