"""Stage orchestration: the stage table, effective configuration and run
manifests.

The :func:`stage` decorator enters each ``stage_*`` function in
:data:`STAGES` with its name, help text and command-line flags; the CLI
builds its parser, its config overrides and its dispatch from that
table. The table also names the kind of every input and output file.
:meth:`Stage.run` owns every file: it reads the inputs given, calls the
stage function, a pure map ``(cfg, values) -> (outputs, extra)``, writes
the outputs it returns and then the manifest, beside the output file or
inside the output directory: the tool version, the stage name, the seed,
the effective config (defaults filled in), its hash, the SHA-256 of
every input given and the ``extra``. Manifests contain no timestamps, so
reruns of identical work are byte-identical.
"""

import copy
import functools
import hashlib
import inspect
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .cloud import Channel, PointCloud, worker_count
from .columnar import (check_label_count, read_columnar, read_labels, write_columnar,
                       write_labels)
from .csf import CsfParams, csf_ground
from .dtm import build_dtm, normalize_height
from .errors import ConfigError
from .features import ALL_CONFIGS, FeatureConfig, add_pndvi, fit_config_normalization
from .mlp import TrainConfig
from .preprocess import SorParams, merge_channels, sor_filter, voxel_subsample
from .split import SPLIT_NAMES, split_plots
from .synth import generate_scene, scaled_config
from . import classifier as clf
from . import evaluation as ev


def _defaults(owner: Callable, *names: str) -> dict:
    """Defaults of the named parameters of a function or parameter
    dataclass, with tuples as lists, the form YAML and the manifests' JSON
    give them."""
    params = inspect.signature(owner).parameters
    values = {name: params[name].default for name in names}
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
                 **_defaults(fit_config_normalization, "p_low", "p_high")},
    "neighborhood": _defaults(clf.neighborhood_graph, "k", "radius"),
    "train": _defaults(TrainConfig, "epochs", "learning_rate", "weight_decay",
                       "batch_size", "hidden"),
    "split": {"ratios": [0.6853, 0.1628, 0.1519], "tile_size": 20.0},
    "postprocess": _defaults(clf.height_threshold_postprocess, "threshold"),
    "evaluate": _defaults(ev.error_rate_above, "predicted_tree_only", "threshold"),
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

        class Loader(yaml.SafeLoader):
            """safe_load's YAML 1.1, whose floats need a dot and a signed
            exponent, with YAML 1.2's exponent floats too: 1e-3, 5e2, .5E3."""

        Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
            r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
        try:
            data = yaml.load(text, Loader=Loader) or {}
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
    path, stage: str, cfg: dict, inputs: dict[str, str], extra: dict | None = None
) -> None:
    """Write the manifest `path` of a run of `stage`."""
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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- file kinds


@dataclass(frozen=True)
class Kind:
    """How the runner reads one kind of file, read(path, **options) with
    the stage `options` named here, and writes one, write(value, path).
    Each looks its I/O function up by name when called, so a wrapper put
    on that name (a tracer, a test's monkeypatch) sees every call."""

    read: Callable | None
    write: Callable
    options: tuple[str, ...] = ()


def _read_las(path: Path, channel: str, reflectance_source: str, label_source) -> PointCloud:
    from .lasio import read_las

    chan = {"green": Channel.GREEN_532, "nir": Channel.NIR_1064}.get(channel, channel)
    return read_las(path, reflectance_source=reflectance_source, channel=chan,
                    label_source=label_source)


def _write_las(value: tuple[PointCloud, dict | None], path: Path) -> None:
    from .lasio import write_las

    cloud, extra = value
    write_las(cloud, path, extra=extra)


CLOUD = Kind(lambda p: read_columnar(p), lambda v, p: write_columnar(v, p))
# read: a cloud; written: a (cloud, extra float columns or None) pair
LAS = Kind(_read_las, _write_las, ("channel", "reflectance_source", "label_source"))
# a classifier.Model
MODEL = Kind(lambda p: clf.load_checkpoint(p), lambda v, p: clf.save_checkpoint(p, v))
LABELS = Kind(lambda p: read_labels(p), lambda v, p: write_labels(v, p))
TEXT = Kind(None, lambda v, p: Path(p).write_text(v, encoding="utf-8"))


# ---------------------------------------------------------------- stage table


class Flag:
    """One command-line option of a stage.

    A flag with a `config` key sets that dotted key of the effective
    config; any other passes its value to the stage function as the
    keyword argument `dest`, the option's name with "_" for "-". A path
    flag names a file of `kind`: an input the runner reads, passed to the
    stage function as the keyword `reads` and hashed under that name in
    the manifest, or, with no `reads`, an output. An output directory
    maps the names of the files the stage writes in it to their kinds, in
    `writes`. `kwargs` are the other add_argument keywords.
    """

    def __init__(self, option: str, config: str | None = None, help: str | None = None,
                 reads: str | None = None, kind: Kind | None = None,
                 writes: dict[str, Kind] | None = None, **kwargs):
        self.option = option
        self.config = config
        self.help = help
        self.dest = option.lstrip("-").replace("-", "_")
        self.reads = reads
        self.kind = kind
        self.writes = writes or {}
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


def path(option: str, required: bool = True, help: str | None = None,
         reads: str | None = None, kind: Kind = CLOUD) -> Flag:
    """A file of `kind`: an input recorded in the manifest as `reads`, or,
    with no `reads`, the stage's output."""
    return Flag(option, None, help, reads, kind, type=Path, required=required)


def out_dir(writes: dict[str, Kind]) -> Flag:
    """The directory --out-dir, which the runner creates and writes the
    named files in."""
    return Flag("--out-dir", writes=writes, type=Path, required=True)


IN = path("--in", reads="cloud")
OUT = path("--out")


@dataclass(frozen=True)
class Stage:
    """A row of the stage table; run(cfg, **flag values) runs the stage."""

    name: str
    help: str
    flags: tuple[Flag, ...]
    fn: Callable
    check: Callable[[set[str]], None] | None = None

    def run(self, cfg: dict, **kwargs) -> None:
        """Read the inputs given, call fn(cfg copy, **values, **options)
        -> (outputs, extra), then write the outputs and the manifest.
        `outputs` maps each output's name (its flag's dest, or a file name
        of the --out-dir) to its value, as a dict or as (name, value) pairs
        made and written one at a time. A fn with a `paths` parameter gets
        the input paths, for its messages. Before any read, `check` vets
        the names of the inputs given; an output that is also an input or
        has no directory, and a failed write, are config errors."""
        given = {f: p for f in self.flags
                 if (f.kind or f.writes) and (p := kwargs.pop(f.dest)) is not None}
        inputs = {f.reads: p for f, p in given.items() if f.reads}
        ((out, target),) = [(f, p) for f, p in given.items() if not f.reads]
        files = ({name: (target / name, kind) for name, kind in out.writes.items()}
                 or {out.dest: (target, out.kind)})
        if self.check is not None:
            self.check(set(inputs))
        read = {p.resolve(): f.option for f, p in given.items() if f.reads}
        for q, _ in files.values():
            if q.resolve() in read:
                shown = target if q is target else f"{target} ({q.name})"
                raise ConfigError(f"{out.option} {shown} is also {read[q.resolve()]}: "
                                  "a stage cannot write over its input")
        if not (out.writes or target.parent.is_dir()):
            raise ConfigError(f"cannot write {target}: {target.parent} is not a directory")
        if "paths" in inspect.signature(self.fn).parameters:
            kwargs["paths"] = inputs
        cfg = copy.deepcopy(cfg)
        # the values are read first: a reader takes its options out of kwargs
        outputs, extra = self.fn(cfg, **{
            f.reads: f.kind.read(p, **{k: kwargs.pop(k) for k in f.kind.options})
            for f, p in given.items() if f.reads}, **kwargs)
        manifest = (target / "manifest.json" if out.writes
                    else target.with_name(target.name + ".manifest.json"))
        where = target
        try:
            if out.writes:
                target.mkdir(parents=True, exist_ok=True)
            for name, value in outputs.items() if isinstance(outputs, dict) else outputs:
                where, kind = files[name]
                kind.write(value, where)
                del value  # before the next output is made
            where = manifest
            write_manifest(manifest, self.name, cfg, inputs, extra)
        except OSError as exc:
            raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from exc


STAGES: dict[str, Stage] = {}


def stage(name: str, help: str, *flags: Flag, check: Callable | None = None):
    """Enter the decorated function in STAGES as the stage `name`; `check`
    vets the names of the inputs given before any is read."""

    def register(fn):
        STAGES[name] = Stage(name, help, flags, fn, check)
        return fn

    return register


# ---------------------------------------------------------------- stages


@stage("synth", "generate a labeled synthetic scene", OUT, setting("synth.target_points"))
def stage_synth(cfg: dict) -> tuple[dict, dict]:
    cloud = generate_scene(scaled_config(int(cfg["synth"]["target_points"]), seed=cfg["seed"]))
    return {"out": cloud}, {"points": cloud.count}


@stage("ingest", "read a LAS file into the columnar format",
       path("--las", reads="las", kind=LAS),
       Flag("--channel", required=True, choices=["green", "nir", "scanner"]),
       Flag("--reflectance-source", default="intensity"),
       Flag("--label-source", choices=["classification"], default=None,
            help="copy the classification byte into the label column"),
       OUT)
def stage_ingest(cfg: dict, las: PointCloud) -> tuple[dict, dict]:
    return {"out": las}, {"points": las.count}


@stage("denoise", "statistical outlier removal (per channel)",
       IN, OUT, setting("sor.k"), setting("sor.n_sigma"))
def stage_denoise(cfg: dict, cloud: PointCloud) -> tuple[dict, dict]:
    """SOR over each channel against itself (the channels are independent
    scans), on an (n_c, 3) copy of that channel's coordinates; the kept
    rows, grouped by channel in ascending channel and id, are taken from
    the cloud once. An empty cloud goes to sor_filter too, to be rejected."""
    params = SorParams(**cfg["sor"])
    workers = worker_count(cfg["threads"])
    channels = (np.flatnonzero(cloud.channel == c) for c in np.unique(cloud.channel))
    kept = []
    for rows in channels if cloud.count else [np.arange(0)]:
        coords = np.empty((rows.size, 3))
        for j, col in enumerate((cloud.x, cloud.y, cloud.z)):
            coords[:, j] = col[rows]
        kept.append(rows[sor_filter(coords, params, workers=workers)[0]])
    kept = np.concatenate(kept)
    del rows, coords  # freed before the take: a lower peak
    result = cloud.take(kept)
    return {"out": result}, {"removed": cloud.count - result.count, "kept": result.count}


def _one_cloud_or_both_channels(given: set[str]) -> None:
    if given not in ({"cloud"}, {"green", "nir"}):
        raise ConfigError("merge takes either one combined cloud (--in) alone or both "
                          "channels (--green and --nir)")


@stage("merge", "fuse the two channels with cross-channel reflectance",
       path("--in", required=False, help="combined dual-channel cloud", reads="cloud"),
       path("--green", required=False, help="green-channel cloud", reads="green"),
       path("--nir", required=False, help="NIR-channel cloud", reads="nir"),
       OUT, setting("merge.radius"), setting("merge.k"), check=_one_cloud_or_both_channels)
def stage_merge(cfg: dict, cloud: PointCloud | None = None, green: PointCloud | None = None,
                nir: PointCloud | None = None) -> tuple[dict, dict]:
    if cloud is not None:
        green = cloud.take(cloud.channel == int(Channel.GREEN_532))
        nir = cloud.take(cloud.channel == int(Channel.NIR_1064))
    merged = merge_channels(green, nir, **cfg["merge"], workers=worker_count(cfg["threads"]))
    return {"out": merged}, {"points": merged.count}


@stage("ground", "cloth-simulation ground flagging",
       IN, OUT, setting("csf.cloth_resolution"), setting("csf.rigidness"),
       setting("csf.iterations"), setting("csf.class_threshold"))
def stage_ground(cfg: dict, cloud: PointCloud) -> tuple[dict, dict]:
    ground = csf_ground(cloud, CsfParams(**cfg["csf"]))
    extra = {"ground_points": int(ground.sum())}
    return {"out": cloud.with_column("ground_flag", ground)}, extra


@stage("normalize-height", "DTM construction and height normalization",
       IN, OUT, setting("dtm.cell"))
def stage_normalize_height(cfg: dict, cloud: PointCloud) -> tuple[dict, dict]:
    dtm = build_dtm(cloud, cell=cfg["dtm"]["cell"], workers=worker_count(cfg["threads"]))
    extra = {"dtm_shape": list(dtm.shape), "nodata_cells": int(dtm.nodata.sum())}
    return {"out": normalize_height(cloud, dtm)}, extra


@stage("features", "attach the spectral vegetation index column", IN, OUT)
def stage_features(cfg: dict, cloud: PointCloud) -> tuple[dict, None]:
    return {"out": add_pndvi(cloud)}, None


@stage("subsample", "voxel-grid subsampling with majority labels",
       IN, OUT, setting("voxel.grid"))
def stage_subsample(cfg: dict, cloud: PointCloud) -> tuple[dict, dict]:
    result = voxel_subsample(cloud, grid=cfg["voxel"]["grid"])
    return {"out": result}, {"before": cloud.count, "after": result.count}


@stage("split", "tile-based train/val/test split",
       IN, out_dir({f"{name}.mst": CLOUD for name in SPLIT_NAMES}),
       setting("split.ratios"), setting("split.tile_size"))
def stage_split(cfg: dict, cloud: PointCloud):
    result = split_plots(cloud, tuple(cfg["split"]["ratios"]),
                         tile_size=cfg["split"]["tile_size"], seed=cfg["seed"])
    # one subset at a time: the runner writes each before the next is taken
    subsets = ((f"{name}.mst", cloud.take(result.indices(name))) for name in SPLIT_NAMES)
    return subsets, {
        "target_ratios": list(result.target_ratios),
        "achieved_ratios": list(result.achieved_ratios),
        "tiles": int(result.tile_ids.shape[0]),
        "single_split": result.single_split,
    }


@stage("train", "train the point classifier",
       path("--train", reads="train"),
       out_dir({"model.mstm": MODEL, "loss_curve.csv": TEXT}),
       setting("features.config", "--feature-config"), setting("train.epochs"),
       setting("train.learning_rate"), setting("train.weight_decay"),
       setting("train.batch_size"))
def stage_train(cfg: dict, train: PointCloud) -> tuple[dict, dict]:
    fconfig = FeatureConfig.from_name(cfg["features"]["config"])
    ((model, loss_curve),) = clf.fit(train, [fconfig], cfg)
    curve = "".join(f"{i},{v!r}\n" for i, v in enumerate(loss_curve))
    return {"model.mstm": model, "loss_curve.csv": "epoch,loss\n" + curve}, {
        "feature_config": fconfig.name,
        "class_weights": [float(w) for w in model.class_weights],
        "final_loss": loss_curve[-1],
        "initial_loss": loss_curve[0],
    }


@stage("predict", "classify a cloud with a trained model",
       IN, path("--model", reads="model", kind=MODEL),
       out_dir({"predictions.txt": LABELS}),
       setting("postprocess.threshold", "--postprocess-threshold"))
def stage_predict(cfg: dict, cloud: PointCloud, model: clf.Model) -> tuple[dict, dict]:
    (labels,) = clf.classify(cloud, [model], cfg)
    # the manifest records the feature recipe that ran: the checkpoint's
    fconfig, params = model.feature_config, model.normalization
    cfg["features"]["config"] = fconfig.name
    if params is not None:
        cfg["features"].update(p_low=params.p_low, p_high=params.p_high)
    cfg["neighborhood"] = dict(model.neighborhood)
    return {"predictions.txt": labels}, {"feature_config": fconfig.name,
                                         "predicted_tree": int(labels.sum())}


@stage("evaluate", "score predictions against ground truth",
       path("--cloud", reads="cloud"),
       path("--pred", reads="predictions", kind=LABELS),
       out_dir({"report.json": TEXT, "report.csv": TEXT}),
       setting("evaluate.threshold"), setting("evaluate.predicted_tree_only"))
def stage_evaluate(cfg: dict, cloud: PointCloud, predictions: np.ndarray,
                   paths: dict) -> tuple[dict, dict]:
    labels = check_label_count(predictions, cloud.count, paths["predictions"])
    source = f"imported:{paths['predictions'].name}"
    report = ev.evaluate(labels, cloud, cfg, {"prediction_source": source})
    return {"report.json": ev.report_to_json(report),
            "report.csv": ev.report_to_csv({"-": report})}, {"miou": report.miou, "oa": report.oa}


@stage("ablate", "train/evaluate every feature configuration",
       path("--train", reads="train"),
       path("--test", reads="test"),
       out_dir({"ablation.json": TEXT, "ablation.csv": TEXT}),
       Flag("--configs", help="subset of feature configs (default: all six)",
            nargs="+", default=None),
       setting("train.epochs"))
def stage_ablate(cfg: dict, train: PointCloud, test: PointCloud,
                 configs: list[str] | None = None) -> tuple[dict, dict]:
    fconfigs = tuple(map(FeatureConfig.from_name, configs)) if configs else ALL_CONFIGS
    reports = ev.run_ablation(train, test, fconfigs, cfg)
    return {"ablation.json": ev.ablation_to_json(reports),
            "ablation.csv": ev.report_to_csv({c.name: r for c, r in reports.items()})}, {
        "best": {k: c.name for k, c in ev.best(reports).items()}}


@stage("export", "write a cloud (optionally with predictions) to LAS",
       path("--cloud", reads="cloud"), path("--las", kind=LAS),
       path("--pred", required=False, reads="predictions", kind=LABELS))
def stage_export(cfg: dict, cloud: PointCloud, paths: dict,
                 predictions: np.ndarray | None = None) -> tuple[dict, None]:
    if predictions is None:
        return {"las": (cloud, None)}, None
    labels = check_label_count(predictions, cloud.count, paths["predictions"])
    if cloud.has("label"):
        return {"las": ev.error_las(cloud, labels)}, None
    return {"las": (cloud.with_column("label", labels), None)}, None
