"""Release gate: one test per acceptance criterion.

Each test prints a single `[ACCEPT] <criterion>: PASS` line with the
measured numbers (visible with `pytest -s` or in the captured output);
a failing criterion fails its test. Run the whole gate with

    pytest tests/test_acceptance.py -v

The final dataset check is conditional: it runs only when
MSLIDAR_LOOSDORF_DIR points at a directory holding `truth_labels.txt`
and `spt_labels.txt` (one 0/1 label per line, same point order).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mslidar.cli import main
from mslidar.cloud import PointCloud, build_index, concat
from mslidar.columnar import check_label_count, read_labels
from mslidar.csf import CsfParams, csf_ground
from mslidar.dtm import build_dtm, normalize_height
from mslidar.evaluation import ConfusionMatrix, confusion, error_rate_above, metrics
from mslidar.features import db_to_linear, pndvi
from mslidar.mlp import Mlp
from mslidar.preprocess import SorParams, sor_filter, voxel_subsample

from conftest import (
    brute_confusion, brute_knn, brute_radius, brute_sor_removed, brute_voxel,
    random_cloud, tied_cloud,
)

TRIALS = 100


def _ok(name: str, detail: str = "") -> None:
    print(f"[ACCEPT] {name}: PASS {detail}".rstrip())


# --------------------------------------------------------------- criterion 1

def _trial_cloud(rng, trial: int, n: int, extent: float):
    """Trial clouds in turn continuous, with duplicated points, and 5 cm
    quantized with duplicated points (at a quarter of the extent, so the
    lattice distances tie often)."""
    if trial % 3 == 0:
        return random_cloud(rng, n=n, extent=extent)
    if trial % 3 == 1:
        return tied_cloud(rng, n=n, extent=extent, step=None)
    return tied_cloud(rng, n=n, extent=extent / 4, step=0.05)


def test_oracle_equivalence_against_brute_force():
    """knn_batch (k-NN and radius)/SOR/confusion/voxel match brute force,
    100 trials each; the neighbor and SOR clouds hold ties."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    mismatches = 0

    for trial in range(TRIALS):
        n = int(rng.integers(50, 2001))
        cloud = _trial_cloud(rng, trial, n, extent=12.0)
        index = build_index(cloud.xyz)
        # production queries are the indexed points themselves
        qs = np.vstack((
            cloud.xyz[rng.choice(n, min(n, 150), replace=False)],
            np.round(rng.uniform(0, 12.0, (50, 3)) / 0.05) * 0.05,
        ))
        k = int(rng.integers(1, 17))
        # a radius that some point lies exactly on, by the oracle's formula
        _, near = brute_knn(cloud.xyz, qs[0], 2 * k)
        near = near[near > 0]
        r = float(rng.choice(near)) if near.size else 0.3
        knn, within = index.knn_batch(qs, k), index.knn_batch(qs, k, radius=r)
        for i, q in enumerate(qs):
            ref, _ = brute_knn(cloud.xyz, q, k)
            mismatches += not np.array_equal(knn[i], ref)
            ref, _ = brute_radius(cloud.xyz, q, r, k_max=k)
            row = within[i]
            mismatches += not (np.array_equal(row[: ref.size], ref)
                               and np.all(row[ref.size :] == -1))

    for trial in range(TRIALS):
        cloud = _trial_cloud(rng, trial, int(rng.integers(50, 1501)), extent=10.0)
        params = SorParams(k=int(rng.integers(3, 9)),
                           n_sigma=float(rng.choice([0.5, 1.0, 2.0])))
        _, removed = sor_filter(cloud.xyz, params)
        if not np.array_equal(removed, brute_sor_removed(cloud.xyz, params.k,
                                                         params.n_sigma)):
            mismatches += 1

    for trial in range(TRIALS):
        n = 10_000 if trial == 0 else int(rng.integers(100, 10_001))
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        cm = confusion(pred, truth)
        ref = brute_confusion(pred, truth)
        if (cm.tp, cm.fp, cm.fn, cm.tn) != ref:
            mismatches += 1

    for trial in range(TRIALS):
        n = 10_000 if trial == 0 else int(rng.integers(50, 5001))
        cloud = random_cloud(rng, n=n, extent=8.0)
        grid = float(rng.choice([0.4, 0.9, 1.7]))
        sub = voxel_subsample(cloud, grid=grid)
        ref_ids, ref_votes = brute_voxel(cloud, grid)
        # survivor coordinates and the vote each survivor carries
        order_got = np.lexsort((sub.z, sub.y, sub.x))
        order_ref = np.lexsort((cloud.z[ref_ids], cloud.y[ref_ids],
                                cloud.x[ref_ids]))
        same = sub.count == len(ref_ids) and np.array_equal(
            sub.xyz[order_got], cloud.xyz[ref_ids][order_ref]
        ) and np.array_equal(
            sub.label[order_got], ref_votes[order_ref]
        )
        if not same:
            mismatches += 1

    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 120.0
    _ok("oracle equivalence",
        f"(5 families x {TRIALS} trials, 0 mismatches, {elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 2

def test_reflectance_and_index_formula_exactness():
    assert db_to_linear(0.0) == pytest.approx(1.0, rel=1e-12)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)
    # nir 0 dB, green -10 dB: (1 - 0.1) / (1 + 0.1)
    assert pndvi(0.0, -10.0) == pytest.approx(0.9 / 1.1, rel=1e-12)
    assert pndvi(-3.0, -3.0) == 0.0

    rng = np.random.default_rng(7)
    a = rng.uniform(-40.0, 20.0, 10_000)
    b = rng.uniform(-40.0, 20.0, 10_000)
    c = rng.uniform(-15.0, 15.0, 10_000)
    forward = pndvi(a, b)
    np.testing.assert_allclose(pndvi(b, a), -forward, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(pndvi(a + c, b + c), forward,
                               rtol=1e-12, atol=1e-12)
    _ok("formula exactness",
        "(hand cases 1e-12; antisymmetry + offset invariance on 10k pairs)")


# --------------------------------------------------------------- criterion 3

def test_metric_identities():
    report = metrics(ConfusionMatrix(tp=7754, fp=1020, fn=1226, tn=20000))
    assert report.iou_tree == pytest.approx(77.54, abs=0.01)

    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(10, 400))
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        h = rng.uniform(0.01, 30.0, n)
        rep = metrics(confusion(pred, truth))
        rate = error_rate_above(pred, truth, h, threshold=0.0)
        assert rate == 100.0 - rep.oa  # bit-exact identity
    _ok("metric identities",
        f"(IoU_tree {report.iou_tree:.4f} ~ 77.54; t=0 rate == 100-OA exactly)")


# --------------------------------------------------------------- criterion 4

def test_weighted_cross_entropy_gradient_check():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(10, 5))
    y = rng.integers(0, 2, 10)
    weights = (0.36, 1.64)
    model = Mlp(5, (8,), seed=3, dtype=np.float64)
    _, g0 = model.loss_and_grads(x, y, weights)
    for p, g in zip(model.parameters(), g0):
        p -= 0.05 * g  # step off the zero head, where hidden gradients vanish

    _, analytic = model.loss_and_grads(x, y, weights)
    eps = 1e-6
    worst = 0.0
    for p, a in zip(model.parameters(), analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = model.loss_and_grads(x, y, weights)
            p[idx] = orig - eps
            lm, _ = model.loss_and_grads(x, y, weights)
            p[idx] = orig
            num = (lp - lm) / (2.0 * eps)
            rel = abs(a[idx] - num) / max(1e-3, abs(a[idx]), abs(num))
            worst = max(worst, rel)
            assert rel <= 1e-4
    _ok("gradient check", f"(10-point batch, worst relative error {worst:.2e})")


# --------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """Default ~500k-point scene through every stage, then the ablation."""
    root = tmp_path_factory.mktemp("e2e")
    p = {name: root / f"{name}.mst" for name in
         ("scene", "denoised", "merged", "grounded", "hnorm", "feat", "sub")}
    t0 = time.perf_counter()
    steps = [
        ["synth", "--out", str(p["scene"])],
        ["denoise", "--in", str(p["scene"]), "--out", str(p["denoised"])],
        ["merge", "--in", str(p["denoised"]), "--out", str(p["merged"])],
        ["ground", "--in", str(p["merged"]), "--out", str(p["grounded"])],
        ["normalize-height", "--in", str(p["grounded"]), "--out", str(p["hnorm"])],
        ["features", "--in", str(p["hnorm"]), "--out", str(p["feat"])],
        ["subsample", "--in", str(p["feat"]), "--out", str(p["sub"])],
        ["split", "--in", str(p["sub"]), "--out-dir", str(root / "splits")],
        ["ablate", "--train", str(root / "splits" / "train.mst"),
         "--test", str(root / "splits" / "test.mst"),
         "--out-dir", str(root / "ablation"),
         "--configs", "XYZ", "XYZ_PNDVI", "XYZ_GREEN_NIR"],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    elapsed = time.perf_counter() - t0
    ablation = json.loads((root / "ablation" / "ablation.json").read_text())
    return {"reports": ablation["reports"], "elapsed": elapsed, "root": root}


def test_end_to_end_geometry_plus_spectra_reaches_90(end_to_end):
    miou = end_to_end["reports"]["XYZ_GREEN_NIR"]["miou"]
    assert miou >= 90.0
    assert end_to_end["elapsed"] < 600.0
    _ok("synthetic end-to-end",
        f"(XYZ_GREEN_NIR mIoU {miou:.2f} >= 90, {end_to_end['elapsed']:.0f}s)")


def test_end_to_end_pndvi_beats_geometry_alone(end_to_end):
    xyz = end_to_end["reports"]["XYZ"]
    spectral = end_to_end["reports"]["XYZ_PNDVI"]
    assert spectral["miou"] > xyz["miou"]
    assert spectral["error_rate_above"] is not None
    assert xyz["error_rate_above"] is not None
    assert spectral["error_rate_above"] < xyz["error_rate_above"]
    _ok("spectral ablation direction",
        f"(mIoU {spectral['miou']:.2f} > {xyz['miou']:.2f}; "
        f"error@2m {spectral['error_rate_above']:.2f} < "
        f"{xyz['error_rate_above']:.2f})")


# --------------------------------------------------------------- criterion 6

def test_stage_determinism_and_thread_independence(tmp_path):
    base, again = tmp_path / "a", tmp_path / "b"
    base.mkdir(), again.mkdir()

    def run_chain(root: Path, threads: int) -> None:
        steps = [
            ["synth", "--out", str(root / "scene.mst"),
             "--target-points", "15000"],
            ["denoise", "--in", str(root / "scene.mst"),
             "--out", str(root / "den.mst")],
            ["merge", "--in", str(root / "den.mst"),
             "--out", str(root / "merged.mst")],
            ["ground", "--in", str(root / "merged.mst"),
             "--out", str(root / "ground.mst")],
            ["normalize-height", "--in", str(root / "ground.mst"),
             "--out", str(root / "hnorm.mst")],
            ["features", "--in", str(root / "hnorm.mst"),
             "--out", str(root / "feat.mst")],
            ["subsample", "--in", str(root / "feat.mst"),
             "--out", str(root / "sub.mst")],
            ["split", "--in", str(root / "sub.mst"),
             "--out-dir", str(root / "splits")],
            ["train", "--train", str(root / "splits" / "train.mst"),
             "--out-dir", str(root / "model"), "--epochs", "3"],
            ["predict", "--in", str(root / "splits" / "test.mst"),
             "--model", str(root / "model" / "model.mstm"),
             "--out-dir", str(root / "pred")],
            ["ablate", "--train", str(root / "splits" / "train.mst"),
             "--test", str(root / "splits" / "test.mst"),
             "--out-dir", str(root / "ablate"), "--epochs", "3"],
        ]
        for argv in steps:
            assert main(argv + ["--threads", str(threads)]) == 0

    run_chain(base, threads=1)
    run_chain(again, threads=2)

    products = [
        "scene.mst", "den.mst", "merged.mst", "ground.mst", "hnorm.mst",
        "feat.mst", "sub.mst", "splits/train.mst", "splits/val.mst",
        "splits/test.mst", "model/model.mstm",
        "model/loss_curve.csv", "pred/predictions.txt",
        "ablate/ablation.json", "ablate/ablation.csv",
    ]
    for rel in products:
        assert (base / rel).read_bytes() == (again / rel).read_bytes(), rel
    _ok("determinism",
        f"({len(products)} stage products bit-identical across rerun "
        "and --threads 1 vs 2)")


# --------------------------------------------------------------- criterion 7

def _plane_with_roof(slope: float):
    spacing = 0.5
    ticks = np.arange(0.0, 40.0 + spacing / 2, spacing)
    gx, gy = np.meshgrid(ticks, ticks)
    x, y = gx.ravel(), gy.ravel()
    inside = (x > 15.0) & (x < 25.0) & (y > 15.0) & (y < 25.0)
    x, y = x[~inside], y[~inside]
    ground = PointCloud(x=x, y=y, z=slope * x,
                        channel=np.zeros(len(x), np.uint8))
    rx = np.arange(15.0, 25.0 + spacing / 2, spacing)
    rgx, rgy = np.meshgrid(rx, rx)
    n = rgx.size
    roof = PointCloud(
        x=rgx.ravel(), y=rgy.ravel(),
        z=slope * rgx.ravel() + 8.0, channel=np.zeros(n, np.uint8),
    )
    cloud = concat([ground, roof])
    is_ground = np.zeros(cloud.count, dtype=bool)
    is_ground[:ground.count] = True
    return cloud, is_ground


@pytest.mark.parametrize("slope_deg", [0.0, 5.0])
def test_ground_and_height_pipeline(slope_deg):
    slope = np.tan(np.radians(slope_deg))
    cloud, is_ground = _plane_with_roof(slope)
    flag = csf_ground(cloud, CsfParams())
    assert not flag[~is_ground].any()  # zero roof points called ground
    cloud = cloud.with_column("ground_flag", flag)
    grid = build_dtm(cloud, cell=1.0)
    cloud = normalize_height(cloud, grid)
    close = np.abs(cloud.h_norm[is_ground]) <= 0.1
    frac = close.mean()
    assert frac >= 0.99
    _ok(f"ground/height pipeline ({slope_deg:g} deg)",
        f"({100 * frac:.2f}% of ground within 0.1 m, no roof leaks)")


# --------------------------------------------------------------- criterion 8

def test_reference_metric_column_on_external_labels():
    root = os.environ.get("MSLIDAR_LOOSDORF_DIR")
    if not root:
        pytest.skip("MSLIDAR_LOOSDORF_DIR not set; dataset-conditional check")
    truth = read_labels(Path(root) / "truth_labels.txt")
    pred_path = Path(root) / "spt_labels.txt"
    pred = check_label_count(read_labels(pred_path), truth.shape[0], pred_path)
    report = metrics(confusion(pred, truth))
    expected = {
        "iou_nontree": 93.03, "iou_tree": 77.54, "miou": 85.28,
        "macc": 92.14, "oa": 94.38,
    }
    for attr, value in expected.items():
        assert getattr(report, attr) == pytest.approx(value, abs=0.05), attr
    _ok("reference metric column", "(all five metrics within 0.05 pp)")
