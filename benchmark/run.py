#!/usr/bin/env python3
"""The mslidar benchmark: three closed-loop workloads through the CLI.

    python3 benchmark/run.py --workload geom-500k --seed 1 --seconds 30 --trace 0

Inputs are generated from --seed during set-up, which is timed apart
(setup_s). The timed part runs the workload's CLI stages the way a user
does: one client, one fresh process per stage, each stage started when
the previous one has exited. Times are reported at a reference machine
speed, scaled by a speedometer that samples the host's speed meanwhile
(see Speedometer). Outputs are checked, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
stage process runs under benchmark/tracer.py and the metrics are the
per-layer ones. See benchmark/README.md.
"""

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

POINTS = 500_000
TRAIN_EPOCHS = 20
ABLATE_EPOCHS = 15
ABLATE_CONFIGS = ("XYZ", "XYZ_PNDVI", "XYZ_GREEN_NIR")
TRAIN_CONFIG = "XYZ_GREEN_NIR_PNDVI"
# The whole run must end within 180 s; a stage still running at this
# point is killed and counted as failed.
DEADLINE_S = 170.0

# The speedometer (see Speedometer) runs one tick of fixed work every
# TICK_PERIOD_S. TICK_REF_S defines the reference speed: it is about the
# mean tick CPU time during passes on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, one BLAS thread), where that mean ranged over 2.0-2.5 ms.
TICK_PERIOD_S = 0.1
TICK_REF_S = 0.00225

# The console-script entry point of `mslidar`, as pip would install it.
ENTRY = "import sys; from mslidar.cli import main; sys.exit(main())"
# One BLAS thread, set before numpy loads (numpy is imported lazily here)
# and inherited by every stage process: trained models differ between 1
# and 2 OpenBLAS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MB = float(1 << 20)

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "miou": "%",
}

STAGES = (
    "ingest", "denoise", "merge", "ground", "normalize-height", "features",
    "subsample", "split", "export", "train", "predict", "evaluate", "ablate",
)
SELF_TIMES = (
    "pipeline.write_manifest", "pipeline.file_sha256",
    "columnar.read_columnar", "columnar.write_columnar",
    "lasio.read_las", "lasio.write_las",
    "cloud.build_index", "cloud.knn_batch",
    "preprocess.sor_filter", "preprocess.merge_channels", "preprocess.voxel_subsample",
    "csf.simulate_cloth", "csf.csf_ground", "dtm.build_dtm", "dtm.normalize_height",
    "split.split_plots", "features.add_pndvi", "features.fit_config_normalization",
    "features.assemble_features",
    "classifier.neighborhood_graph", "classifier.neighborhood_stats", "classifier.predict",
    "mlp.train", "mlp.forward", "mlp.loss_and_grads",
    "evaluation.evaluate", "evaluation.run_ablation",
)
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.invocations": "count",
    **{f"pipeline.stage.{s}_s": "s" for s in STAGES},
    **{f"{name}_s": "s" for name in SELF_TIMES},
    "classifier.checkpoint_s": "s",
    "synth.generate_scene_s": "s",
    "pipeline.sha256_mb": "MB",
    "columnar.mb_written": "MB",
    "cloud.knn_batch.queries": "count",
    "preprocess.sor.removed": "count",
    "preprocess.merge.missing": "count",
    "preprocess.voxel.kept": "count",
    "csf.iterations": "count",
    "dtm.nodata_cells": "count",
    "split.tiles": "count",
    "mlp.batches": "count",
    "mlp.rows_per_s": "rows/s",
    "mlp.gflop": "GFLOP",
    "mlp.gflop_per_s": "GFLOP/s",
    "evaluation.pndvi_gain_pp": "pp",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "bench.speed_factor": "x",
    "bench.wall_raw_s": "s",
}


class Run:
    """Book-keeping of one benchmark run: operations, failures, deadline."""

    def __init__(self, workdir: Path, seed: int, points: int, trace: bool):
        self.workdir = workdir
        self.seed = seed
        self.points = points
        self.trace = trace
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.env = stage_env()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)


class Speedometer:
    """Samples how fast the machine runs while the benchmark runs.

    The host this benchmark was built on changes the speed of its
    virtual CPUs by up to a third within minutes, for all of them at
    once. A thread of the benchmark process runs a fixed tick of work
    (a Python loop, small float32 matmuls and a sort, no mslidar code)
    every TICK_PERIOD_S and records the tick's CPU time. The stage
    processes run on the other CPU meanwhile. CPU time leaves out the
    time the tick waits for a CPU or for the interpreter lock, so the
    program's own load does not slow the tick; a slower host does.
    `factor(t0, t1)` is TICK_REF_S over the mean tick in [t0, t1]:
    multiplying a time measured in that window by it gives the time at
    the reference machine's speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20250826)
        self.x = rng.standard_normal((256, 14)).astype(np.float32)
        self.w1 = rng.standard_normal((14, 64)).astype(np.float32)
        self.w2 = rng.standard_normal((64, 64)).astype(np.float32)
        self.keys = rng.standard_normal(20_000)
        self.ticks: list[tuple[float, float]] = []  # (monotonic start, CPU s)
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def tick(self) -> float:
        import numpy as np

        t0 = time.thread_time()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(10):
            np.maximum(self.x @ self.w1, 0.0) @ self.w2
        np.argsort(self.keys)
        return time.thread_time() - t0

    def _sample(self) -> None:
        while not self.stopped.wait(TICK_PERIOD_S):
            started = time.monotonic()
            self.ticks.append((started, self.tick()))

    def __enter__(self) -> "Speedometer":
        self.tick()  # warm up the code paths once
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stopped.set()
        self.thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """TICK_REF_S / the mean tick that started in [t0, t1].

        A window too short for 5 ticks falls back to every tick so far.
        """
        inside = [cpu for start, cpu in self.ticks if t0 <= start <= t1]
        if len(inside) < 5:
            inside = [cpu for _, cpu in self.ticks] or [self.tick()]
        return TICK_REF_S / statistics.fmean(inside)


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MSLIDAR_SEED", None)
    return env


def run_stage(run: Run, argv: list[str], cwd: Path, log: Path, span_file: Path | None,
              stage_id: int) -> dict:
    """One CLI stage in a fresh process; wall time from spawn to reap."""
    if span_file is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(span_file),
               str(stage_id), "--", *argv]
    with open(log, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=run.env, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(run.remaining(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        reaped = time.monotonic()
    # reaped by wait4 (for its rusage), so tell Popen the child is gone
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss * 1024 / MB  # ru_maxrss is in KiB on Linux
    run.peak_rss_mb = max(run.peak_rss_mb, rss_mb)
    run.attempted += 1
    if code != 0:
        run.failed += 1
        print(f"stage failed: mslidar {' '.join(argv)} exited {code}; see {log}",
              file=sys.stderr)
    return {"stage": argv[0], "code": code, "wall": reaped - spawned,
            "cpu": usage.ru_utime + usage.ru_stime, "spawned": spawned,
            "span_file": span_file}


# ---------------------------------------------------------------- inputs


def mst_count(path: Path) -> int:
    """Point count from an MST1 header (magic, version, bitmap, u64 count)."""
    with open(path, "rb") as fh:
        magic, _, _, count = struct.unpack("<4sHHQ", fh.read(16))
    if magic != b"MST1":
        raise ValueError(f"{path} is not an MST1 file")
    return count


def las_header(path: Path) -> dict:
    """Point offset, record length, scale, offsets and count of a LAS 1.4 file."""
    with open(path, "rb") as fh:
        raw = fh.read(375)
    if raw[:4] != b"LASF" or (raw[24], raw[25]) != (1, 4):
        raise ValueError(f"{path} is not a LAS 1.4 file")
    point_offset = struct.unpack_from("<I", raw, 96)[0]
    point_len = struct.unpack_from("<H", raw, 105)[0]
    return {
        "point_offset": point_offset,
        "point_len": point_len,
        "scale": struct.unpack_from("<3d", raw, 131),
        "offset": struct.unpack_from("<3d", raw, 155),
        "count": struct.unpack_from("<Q", raw, 247)[0],
    }


def las_grid_coords(path: Path):
    """The integer X, Y, Z of every record, in file order."""
    import numpy as np

    h = las_header(path)
    rec = np.dtype({"names": ["X", "Y", "Z"], "formats": ["<i4"] * 3,
                    "offsets": [0, 4, 8], "itemsize": h["point_len"]})
    pts = np.fromfile(path, dtype=rec, count=h["count"], offset=h["point_offset"])
    return np.column_stack((pts["X"], pts["Y"], pts["Z"])).astype(np.int64), h


def setup_geom(run: Run, d: Path) -> dict:
    """Seeded scene written as one LAS 1.4 file per channel, 1 mm grid."""
    from mslidar.cloud import Channel
    from mslidar.lasio import write_las
    from mslidar.synth import generate_scene, scaled_config

    cloud = generate_scene(scaled_config(run.points, seed=run.seed))
    truth = {}  # LAS name -> (channel, true ground flag in file order)
    for name, chan in (("green", Channel.GREEN_532), ("nir", Channel.NIR_1064)):
        part = cloud.take(cloud.channel == int(chan))
        write_las(part, d / f"{name}.las", scale=0.001)
        truth[name] = (int(chan), part.ground_flag)
    return {"files": ["green.las", "nir.las"], "points": cloud.count, "truth": truth}


def setup_labelled(run: Run, d: Path) -> dict:
    """The labelled CLI chain synth -> ... -> split, in this process."""
    from mslidar.cli import main

    chain = ("scene", "denoised", "merged", "grounded", "hnorm", "feat", "sub")
    stages = ("denoise", "merge", "ground", "normalize-height", "features", "subsample")
    argvs = [["synth", "--out", f"{d}/scene.mst", "--target-points", str(run.points)]]
    for stage, src, dst in zip(stages, chain, chain[1:]):
        argvs.append([stage, "--in", f"{d}/{src}.mst", "--out", f"{d}/{dst}.mst"])
    argvs.append(["split", "--in", f"{d}/sub.mst", "--out-dir", f"{d}/splits"])
    for argv in argvs:
        code = main(argv + ["--seed", str(run.seed)])
        if code != 0:
            raise RuntimeError(f"set-up stage {argv[0]} exited {code}")
    for name in chain:
        (d / f"{name}.mst").unlink()
    rows = mst_count(d / "splits" / "train.mst") + mst_count(d / "splits" / "test.mst")
    return {"files": ["splits/train.mst", "splits/test.mst"], "points": rows}


def setup(run: Run, workload: "Workload", speed: Speedometer) -> tuple[dict, list[float]]:
    """Generate the inputs `setup_repeats` times; keep the last copy.

    Returns the inputs and each repetition's time at reference speed.
    """
    times = []
    digests = []
    repeats = workload.setup_repeats
    for rep in range(repeats):
        d = run.workdir / f"setup{rep}"
        d.mkdir(parents=True)
        t0 = time.monotonic()
        inputs = workload.setup(run, d)
        t1 = time.monotonic()
        times.append((t1 - t0) * speed.factor(t0, t1))
        digests.append({f: sha256(d / f) for f in inputs["files"]})
        if rep + 1 < repeats:
            shutil.rmtree(d)
    (run.workdir / f"setup{repeats - 1}").rename(run.workdir / "inputs")
    run.check("set-up outputs identical across repetitions",
              all(dg == digests[0] for dg in digests))
    return inputs, times


# ---------------------------------------------------------------- workloads


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digests(d: Path) -> dict[str, str]:
    return {
        str(p.relative_to(d)): sha256(p)
        for p in sorted(d.rglob("*")) if p.is_file()
    }


def ground_miou(grounded_path: Path, inputs: dict, las_dir: Path) -> tuple[float, int]:
    """mIoU (%) of the CSF ground flag against the scene's true ground.

    Points are matched to the generated scene by channel and their
    integer LAS coordinates. Returns (mIoU, unmatched point count).
    """
    import numpy as np
    from mslidar.columnar import read_columnar

    cloud = read_columnar(grounded_path)
    pred_all, truth_all = [], []
    unmatched = 0
    for name, (chan, true_ground) in inputs["truth"].items():
        grid, h = las_grid_coords(las_dir / f"{name}.las")
        sel = cloud.channel == chan
        xyz = np.column_stack((cloud.x[sel], cloud.y[sel], cloud.z[sel]))
        got = np.rint((xyz - np.asarray(h["offset"])) / np.asarray(h["scale"])).astype(np.int64)
        span = grid.max(axis=0) - grid.min(axis=0) + 1
        lo = grid.min(axis=0)

        def key(g):
            g = g - lo
            return (g[:, 0] * span[1] + g[:, 1]) * span[2] + g[:, 2]

        ref = key(grid)
        order = np.argsort(ref, kind="stable")
        ref_sorted = ref[order]
        k = key(got)
        pos = np.clip(np.searchsorted(ref_sorted, k), 0, ref_sorted.size - 1)
        found = (ref_sorted[pos] == k) & np.all((got >= lo) & (got - lo < span), axis=1)
        unmatched += int((~found).sum())
        truth_all.append(true_ground[order[pos[found]]])
        pred_all.append(cloud.ground_flag[sel][found])
    counts = confusion(np.concatenate(pred_all), np.concatenate(truth_all))
    return miou_of(counts), unmatched


def confusion(pred, truth) -> dict[str, int]:
    """tp, fp, fn and tn of two boolean arrays, True being the positive class."""
    import numpy as np

    pred, truth = np.asarray(pred, dtype=bool), np.asarray(truth, dtype=bool)
    return {"tp": int(np.sum(pred & truth)), "fp": int(np.sum(pred & ~truth)),
            "fn": int(np.sum(~pred & truth)), "tn": int(np.sum(~pred & ~truth))}


def miou_of(c: dict) -> float:
    """Mean over both classes of TP / (TP + FP + FN) in percent; 0 for an empty class."""
    wrong = c["fp"] + c["fn"]
    return 50.0 * sum(hit / (hit + wrong) if hit + wrong else 0.0 for hit in (c["tp"], c["tn"]))


def check_report(run: Run, name: str, report: dict, n_points: int) -> None:
    """An evaluation report must cover the test split and agree with its counts."""
    c = report["counts"]
    run.check(f"{name} report covers the test split", sum(c.values()) == n_points,
              f"({sum(c.values())} != {n_points})")
    run.check(f"{name} report mIoU matches its counts",
              abs(report["miou"] - miou_of(c)) < 1e-9, f"({report['miou']!r})")


def note_bar(text: str, holds: bool) -> None:
    """A gate bar that depends on the scene: printed, not counted (see README)."""
    print(f"bar {text}: {'holds' if holds else 'MISSED'}")


class Workload:
    name = ""
    # set-up runs this often per run and setup_s is the median; the
    # labelled chain costs about 6 s at 500k points, so it runs twice
    setup_repeats = 2
    stages: tuple[list[str], ...] = ()  # argv of each stage process, in order

    def setup(self, run: Run, d: Path) -> dict:
        raise NotImplementedError

    def check(self, run: Run, out: Path, inputs: dict) -> dict:
        """Output checks of one pass; returns its quality metrics."""
        raise NotImplementedError


class Geom(Workload):
    """Per-channel LAS through the whole preprocessing chain, back to LAS."""

    name = "geom-500k"
    setup = staticmethod(setup_geom)
    setup_repeats = 3

    stages = (
        ["ingest", "--las", "../inputs/green.las", "--channel", "green",
         "--reflectance-source", "reflectance", "--out", "green.mst"],
        ["ingest", "--las", "../inputs/nir.las", "--channel", "nir",
         "--reflectance-source", "reflectance", "--out", "nir.mst"],
        ["denoise", "--in", "green.mst", "--out", "green_dn.mst"],
        ["denoise", "--in", "nir.mst", "--out", "nir_dn.mst"],
        ["merge", "--green", "green_dn.mst", "--nir", "nir_dn.mst", "--out", "merged.mst"],
        ["ground", "--in", "merged.mst", "--out", "grounded.mst"],
        ["normalize-height", "--in", "grounded.mst", "--out", "hnorm.mst"],
        ["features", "--in", "hnorm.mst", "--out", "feat.mst"],
        ["subsample", "--in", "feat.mst", "--out", "sub.mst"],
        ["split", "--in", "sub.mst", "--out-dir", "splits"],
        ["export", "--cloud", "splits/test.mst", "--las", "test.las"],
    )

    def check(self, run, out, inputs):
        sub = mst_count(out / "sub.mst")
        parts = sum(mst_count(out / "splits" / f"{s}.mst") for s in ("train", "val", "test"))
        run.check("split counts sum to the subsample count", parts == sub,
                  f"({parts} != {sub})")
        h = las_header(out / "test.las")
        test = mst_count(out / "splits" / "test.mst")
        size_ok = (out / "test.las").stat().st_size == h["point_offset"] + h["count"] * h["point_len"]
        run.check("exported LAS holds the test split's points",
                  h["count"] == test and size_ok, f"({h['count']} != {test})")
        miou, unmatched = ground_miou(out / "grounded.mst", inputs, run.workdir / "inputs")
        run.check("every grounded point is an input LAS point", unmatched == 0,
                  f"({unmatched} unmatched)")
        return {"miou": miou}


class Train(Workload):
    """train -> predict -> evaluate on the labelled split: the single-model path."""

    name = "train-500k"
    setup = staticmethod(setup_labelled)

    stages = (
        ["train", "--train", "../inputs/splits/train.mst", "--out-dir", "model",
         "--feature-config", TRAIN_CONFIG, "--epochs", str(TRAIN_EPOCHS)],
        ["predict", "--in", "../inputs/splits/test.mst", "--model", "model/model.mstm",
         "--out-dir", "pred"],
        ["evaluate", "--cloud", "../inputs/splits/test.mst",
         "--pred", "pred/predictions.txt", "--out-dir", "report"],
    )

    def check(self, run, out, inputs):
        import numpy as np
        from mslidar.columnar import read_columnar

        truth = read_columnar(run.workdir / "inputs" / "splits" / "test.mst").label
        lines = (out / "pred" / "predictions.txt").read_text().split()
        pred = np.array([int(v) for v in lines if v in ("0", "1")], dtype=np.uint8)
        run.check("one 0/1 prediction per test point",
                  pred.size == len(lines) == truth.size, f"({len(lines)} != {truth.size})")
        report = json.loads((out / "report" / "report.json").read_text())
        check_report(run, TRAIN_CONFIG, report, truth.size)
        if pred.size == truth.size:
            run.check("report counts match the predictions",
                      confusion(pred == 1, truth == 1) == report["counts"])
        miou = report["miou"]
        note_bar(f"{TRAIN_CONFIG} mIoU >= 90 ({miou:.2f})", miou >= 90.0)
        return {"miou": miou}


class Ablate(Workload):
    """The paper's spectral ablation over the acceptance gate's three configs."""

    name = "ablate-500k"
    setup = staticmethod(setup_labelled)

    stages = (
        ["ablate", "--train", "../inputs/splits/train.mst",
         "--test", "../inputs/splits/test.mst", "--out-dir", "ablation",
         "--configs", *ABLATE_CONFIGS, "--epochs", str(ABLATE_EPOCHS)],
    )

    def check(self, run, out, inputs):
        reports = json.loads((out / "ablation" / "ablation.json").read_text())["reports"]
        test_points = mst_count(run.workdir / "inputs" / "splits" / "test.mst")
        for name in ABLATE_CONFIGS:
            check_report(run, name, reports[name], test_points)
        xyz, pndvi, gn = (reports[c] for c in ABLATE_CONFIGS)
        note_bar(f"XYZ_GREEN_NIR mIoU >= 90 ({gn['miou']:.2f})", gn["miou"] >= 90.0)
        note_bar(f"XYZ_PNDVI beats XYZ on mIoU ({pndvi['miou']:.2f} vs {xyz['miou']:.2f})",
                 pndvi["miou"] > xyz["miou"])
        err = (pndvi["error_rate_above"], xyz["error_rate_above"])
        note_bar(f"XYZ_PNDVI beats XYZ on error above 2 m ({err[0]:.2f} vs {err[1]:.2f})",
                 err[0] < err[1])
        return {"miou": gn["miou"], "pndvi_gain_pp": pndvi["miou"] - xyz["miou"]}


WORKLOADS = {w.name: w for w in (Geom(), Train(), Ablate())}


# ---------------------------------------------------------------- timed part


def timed_pass(run: Run, workload: Workload, inputs: dict, index: int, traced: bool,
              reference: dict) -> dict | None:
    """One pass of the workload's stages; None when a stage failed."""
    out = run.workdir / "timed"
    logs = run.workdir / "logs" / f"iter{index}"
    out.mkdir()
    logs.mkdir(parents=True)
    seed = ["--seed", str(run.seed)]
    stages = workload.stages
    results = []
    t0 = time.monotonic()
    for i, argv in enumerate(stages):
        span_file = logs / f"{i:02d}-{argv[0]}.spans.json" if traced else None
        res = run_stage(run, argv + seed, out, logs / f"{i:02d}-{argv[0]}.log", span_file, i)
        results.append(res)
        if res["code"] != 0:
            left = len(stages) - i - 1  # never started: counted as failed
            run.attempted += left
            run.failed += left
            return None
    t1 = time.monotonic()
    quality = workload.check(run, out, inputs)
    digests = tree_digests(out)
    if not reference:
        reference.update(digests)
    run.check("stage outputs byte-identical to the first pass on record",
              digests == reference,
              f"({sorted(k for k in digests if digests[k] != reference.get(k))})")
    shutil.rmtree(out)
    return {"wall": t1 - t0, "t0": t0, "t1": t1, "stages": results, "quality": quality,
            "traced": traced}


def layer_metrics(passes: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of traced passes: the median over passes.

    Span and stage times are as measured; `untraced_wall` and the
    overhead are at reference speed.
    """
    from tracer import COUNTS, self_times

    per_pass = []
    for p in passes:
        m = dict.fromkeys(PER_LAYER, 0.0)
        counts = dict.fromkeys(COUNTS, 0.0)
        train_s = 0.0
        for st in p["stages"]:
            rec = json.loads(Path(st["span_file"]).read_text())
            spans = [tuple(s) for s in rec["spans"]]
            startup = rec["imported"] - st["spawned"]
            main_s = sum(e - s for n, s, e, _, _ in spans if n == "cli.main")
            train_s += sum(e - s for n, s, e, _, _ in spans if n == "mlp.train")
            m["cli.startup_s"] += startup
            m["cli.invocations"] += 1
            m[f"pipeline.stage.{st['stage']}_s"] += st["wall"]
            m["trace.unattributed_s"] += st["wall"] - startup - main_s
            for name, t in self_times(spans).items():
                if name in ("classifier.save_checkpoint", "classifier.load_checkpoint"):
                    m["classifier.checkpoint_s"] += t
                elif f"{name}_s" in m:
                    m[f"{name}_s"] += t
            for name, v in rec["counts"].items():
                counts[name] += v
        for name, v in counts.items():
            if name in m:
                m[name] = v
        if train_s > 0:
            m["mlp.rows_per_s"] = counts["mlp.rows"] / train_s
            m["mlp.gflop_per_s"] = counts["mlp.gflop"] / train_s
        m["evaluation.pndvi_gain_pp"] = p["quality"].get("pndvi_gain_pp", 0.0)
        m["trace.overhead_s"] = p["ref_wall"] - untraced_wall
        per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def source_fingerprint() -> str:
    """Digest of the program's sources and of this file's workload definitions."""
    h = hashlib.sha256()
    for p in [*sorted((SRC / "mslidar").rglob("*.py")), Path(__file__).resolve()]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed budget; passes start only while the median pass fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--points", type=int, default=POINTS,
                    help="scene size (the workloads are defined at 500000)")
    args = ap.parse_args(argv)

    if not (SRC / "mslidar" / "cli.py").is_file():
        print(f"error: no mslidar sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    workdir = WORK / "run"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    # in-process set-up stages log to a file, as a stage process would
    logging.basicConfig(filename=workdir / "setup.log", level=logging.WARNING)
    run = Run(workdir, args.seed, args.points, bool(args.trace))
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    try:
        with Speedometer() as speed:
            values, units = measure(run, WORKLOADS[args.workload], args, env, speed)
    except Exception:  # a program fault in set-up: report it as a failed run
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        values, units = {}, {}
    finally:
        logging.shutdown()
        shutil.rmtree(workdir)
    correct = run.failed == 0 and bool(values)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def measure(run: Run, workload: Workload, args, env: dict,
            speed: Speedometer) -> tuple[dict, dict]:
    """Set up, run the timed passes, and reduce them to metrics."""
    import mslidar.cli  # noqa: F401  (imports stay out of setup_s)

    setup_tracer = None
    if run.trace:
        from tracer import Tracer

        setup_tracer = Tracer()
        setup_tracer.install(["synth"])
    inputs, setup_times = setup(run, workload, speed)
    print(f"setup_s each (reference speed): {' '.join(f'{t:.3f}' for t in setup_times)}")

    # outputs must repeat across runs of the same program, seed and size
    key = f"{workload.name}-seed{run.seed}-n{run.points}-{source_fingerprint()}"
    ref_path = WORK / "hashes" / f"{key}.json"
    reference = {}
    if ref_path.exists():
        reference = json.loads(ref_path.read_text())["digests"]

    # A round is one pass, or an untraced and a traced pass with --trace 1.
    # The first round always runs; another starts only while a median
    # round still fits in --seconds (and well inside the deadline).
    kinds = (False, True) if run.trace else (False,)
    passes, rounds = [], []
    while True:
        done = []
        for traced in kinds:
            p = timed_pass(run, workload, inputs, len(passes) + len(done), traced, reference)
            if p is None:
                break
            p["factor"] = speed.factor(p["t0"], p["t1"])
            p["ref_wall"] = p["wall"] * p["factor"]
            cpu = sum(s["cpu"] for s in p["stages"])
            print(f"pass traced={int(traced)} wall_s={p['wall']:.3f} cpu_s={cpu:.3f} "
                  f"speed_factor={p['factor']:.3f} ref_wall_s={p['ref_wall']:.3f} "
                  + " ".join(f"{s['stage']}={s['wall']:.2f}" for s in p["stages"]))
            done.append(p)
        passes += done
        if len(done) < len(kinds):
            break
        rounds.append(sum(p["wall"] for p in done))
        typical = statistics.median(rounds)
        if sum(rounds) + typical > args.seconds or 1.2 * typical > run.remaining():
            break

    if reference and not ref_path.exists() and run.failed == 0:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps({"environment": env, "digests": reference},
                                       indent=1, sort_keys=True))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if run.trace and traced and plain:
        values = layer_metrics(traced, statistics.median(p["ref_wall"] for p in plain))
        gen = [s for s in setup_tracer.spans if s[0] == "synth.generate_scene"]
        values["synth.generate_scene_s"] = sum(e - s for _, s, e, _, _ in gen) / len(setup_times)
        values["bench.speed_factor"] = statistics.median(p["factor"] for p in passes)
        values["bench.wall_raw_s"] = statistics.median(p["wall"] for p in plain)
        return values, PER_LAYER
    if plain and not run.trace:
        wall = statistics.median(p["ref_wall"] for p in plain)
        return {
            "wall_s": wall,
            "points_per_s": inputs["points"] / wall,
            "peak_rss_mb": run.peak_rss_mb,
            "setup_s": statistics.median(setup_times),
            "miou": statistics.median(p["quality"]["miou"] for p in plain),
        }, END_TO_END
    return {}, {}

if __name__ == "__main__":
    sys.exit(main())
