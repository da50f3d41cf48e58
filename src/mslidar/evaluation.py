"""Segmentation metrics, error rates, and the spectral ablation protocol.

Tree is the positive class throughout. Reports carry both per-class
IoUs, their mean, overall accuracy, and mean per-class recall, plus the
misclassification rate restricted to points above a normalized-height
threshold. Percentages are reported to two decimals in exported tables.

:func:`evaluate` is the last step of the model path whose first two,
``classifier.fit`` and ``classifier.classify``, the ablation shares with
the train, predict and evaluate stages. The ablation fits every config
in one call and classifies with every model in another, so each cloud
gets one neighbourhood pass; :func:`evaluate` scores labels against the
truth and h_norm the cloud holds, at the effective config's threshold.

An ablation is a plain ``{FeatureConfig: EvalReport}`` dict, and
:func:`best` is read off it. Each file has one writer:
:func:`report_to_json` for one flat report, :func:`ablation_to_json` for
``{"reports", "best"}``, and :func:`report_to_csv` for either table,
given as ``{row name: report}``.
"""

import csv
import io
import json
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cloud import Label, PointCloud
from .errors import DataError
from .features import FeatureConfig
from . import classifier as clf

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts with Tree as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DataError(
            f"prediction ({pred.shape}) and truth ({truth.shape}) lengths differ"
        )
    for name, arr in (("pred", pred), ("truth", truth)):
        if not np.all((arr == 0) | (arr == 1)):
            raise DataError(f"{name} labels must be binary 0/1")
    t = truth == int(Label.TREE)
    p = pred == int(Label.TREE)
    return ConfusionMatrix(
        tp=int(np.sum(p & t)),
        fp=int(np.sum(p & ~t)),
        fn=int(np.sum(~p & t)),
        tn=int(np.sum(~p & ~t)),
    )


def _safe_ratio(num: int, den: int, what: str) -> float:
    if den == 0:
        logger.warning("%s has a zero denominator; reporting 0", what)
        return 0.0
    return num / den


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle in percent, mirroring the comparison-table layout."""

    iou_nontree: float
    iou_tree: float
    miou: float
    macc: float
    oa: float
    counts: ConfusionMatrix
    error_rate_above: float | None = None   # None: no point above the threshold
    threshold: float | None = None
    manifest: dict = field(default_factory=dict)

    METRIC_COLUMNS = ("IoU_nontree", "IoU_tree", "mIoU", "mAcc", "OA", "error_rate_above")

    def row(self) -> dict:
        return {
            "IoU_nontree": round(self.iou_nontree, 2),
            "IoU_tree": round(self.iou_tree, 2),
            "mIoU": round(self.miou, 2),
            "mAcc": round(self.macc, 2),
            "OA": round(self.oa, 2),
            "error_rate_above": (
                "N/A" if self.error_rate_above is None else round(self.error_rate_above, 2)
            ),
        }


def metrics(cm: ConfusionMatrix, manifest: dict | None = None) -> EvalReport:
    """Per-class IoU, mIoU, OA, mAcc from a confusion matrix, in percent."""
    if cm.total == 0:
        raise DataError("cannot compute metrics of an empty confusion matrix")
    iou_tree = _safe_ratio(cm.tp, cm.tp + cm.fp + cm.fn, "IoU_tree")
    iou_nontree = _safe_ratio(cm.tn, cm.tn + cm.fn + cm.fp, "IoU_nontree")
    recall_tree = _safe_ratio(cm.tp, cm.tp + cm.fn, "tree recall")
    recall_nontree = _safe_ratio(cm.tn, cm.tn + cm.fp, "non-tree recall")
    return EvalReport(
        iou_nontree=100.0 * iou_nontree,
        iou_tree=100.0 * iou_tree,
        miou=100.0 * (iou_tree + iou_nontree) / 2.0,
        macc=100.0 * (recall_tree + recall_nontree) / 2.0,
        # same association as error_rate_above so the threshold-0 identity is exact
        oa=100.0 * ((cm.tp + cm.tn) / cm.total),
        counts=cm,
        manifest=manifest or {},
    )


def error_rate_above(
    pred: np.ndarray,
    truth: np.ndarray,
    h_norm: np.ndarray,
    threshold: float = 2.0,
    predicted_tree_only: bool = False,
) -> float | None:
    """Misclassification rate (percent) among points with h_norm > threshold.

    Default reading: all points above the threshold. With
    predicted_tree_only, the population is instead the points *predicted*
    tree above it (the alternative reading of this error statistic).
    Returns None when no point lies above the threshold.

    Computed as 100 - 100*correct/n so that threshold 0 over non-negative
    heights reproduces 100 - OA exactly, bit for bit.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    h = np.asarray(h_norm)
    if not (pred.shape == truth.shape == h.shape):
        raise DataError("pred, truth and h_norm must have equal lengths")
    with np.errstate(over="ignore"):  # a threshold past float32 compares as the +-inf it casts to
        above = h > threshold
    if predicted_tree_only:
        above &= pred == int(Label.TREE)
    n = int(above.sum())
    if n == 0:
        return None
    correct = int(np.sum((pred == truth) & above))
    return 100.0 - 100.0 * (correct / n)


def evaluate(labels: np.ndarray, cloud: PointCloud, cfg: dict,
             manifest: dict | None = None) -> EvalReport:
    """Report of predicted labels against the cloud's ground truth: the
    confusion metrics plus the :func:`error_rate_above` of the cloud's
    h_norm at the effective config's evaluate section (None without
    h_norm), with its threshold."""
    cloud.require("label")
    report = metrics(confusion(labels, cloud.label), manifest=manifest)
    rate = (error_rate_above(labels, cloud.label, cloud.h_norm, **cfg["evaluate"])
            if cloud.has("h_norm") else None)
    return replace(report, error_rate_above=rate, threshold=cfg["evaluate"]["threshold"])


def run_ablation(
    train_cloud: PointCloud,
    test_cloud: PointCloud,
    configs: tuple[FeatureConfig, ...],
    cfg: dict,
) -> dict[FeatureConfig, EvalReport]:
    """The report of each distinct feature config, in first-seen order:
    one model per config, fit, classified and scored with the effective
    config `cfg`, same seed for all."""
    for name, cloud in (("train", train_cloud), ("test", test_cloud)):
        cloud.require("label", "h_norm")
        if cloud.count == 0:
            raise DataError(f"{name} cloud is empty")
    fitted = clf.fit(train_cloud, tuple(dict.fromkeys(configs)), cfg)
    predictions = clf.classify(test_cloud, [model for model, _ in fitted], cfg)
    reports: dict[FeatureConfig, EvalReport] = {}
    for (model, loss_curve), labels in zip(fitted, predictions):
        fconfig = model.feature_config
        report = evaluate(labels, test_cloud, cfg, manifest={
            "feature_config": fconfig.name,
            "seed": cfg["seed"],
            "epochs": cfg["train"]["epochs"],
            "final_train_loss": loss_curve[-1],
            "class_weights": [float(w) for w in model.class_weights],
            "postprocess_threshold": cfg["postprocess"]["threshold"],
        })
        reports[fconfig] = report
        logger.info("ablation %s: mIoU=%.2f OA=%.2f", fconfig.name, report.miou, report.oa)
    return reports


def best(reports: dict[FeatureConfig, EvalReport]) -> dict[str, FeatureConfig]:
    """The config with the highest mIoU, OA and mAcc (the first on a tie)."""
    return {key: max(reports, key=lambda c: getattr(reports[c], attr))
            for key, attr in (("mIoU", "miou"), ("OA", "oa"), ("mAcc", "macc"))
            if reports}


def report_to_json(report: EvalReport) -> str:
    """The text of ``report.json``: one flat report."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def ablation_to_json(reports: dict[FeatureConfig, EvalReport]) -> str:
    """The text of ``ablation.json``: every config's report and the best."""
    return json.dumps({"reports": {c.name: asdict(r) for c, r in reports.items()},
                       "best": {k: c.name for k, c in best(reports).items()}},
                      indent=2, sort_keys=True) + "\n"


def report_to_csv(rows: dict[str, EvalReport]) -> str:
    """One row per named report, columns as in the ablation table."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["config", *EvalReport.METRIC_COLUMNS])
    writer.writeheader()
    writer.writerows({"config": name, **report.row()} for name, report in rows.items())
    return buf.getvalue()


def error_las(cloud: PointCloud, pred: np.ndarray) -> tuple[PointCloud, dict]:
    """The (cloud, extra columns) pair of a LAS file for visual inspection:
    classification holds the predicted label and the "error" extra
    attribute is 1 on misclassified points (the red-highlight convention)."""
    cloud.require("label")
    pred = np.asarray(pred, dtype=np.uint8)
    if pred.shape[0] != cloud.count:
        raise DataError("prediction and cloud disagree on point count")
    errors = (pred != cloud.label).astype(np.float32)
    return cloud.with_column("label", pred), {"error": errors}
