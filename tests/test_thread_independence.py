"""Trained bits do not depend on the thread count.

Each `mslidar train` runs in a fresh interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy loads. The model file and the loss
curve must be byte-identical across --threads 1, 2 and unset (every CPU
the process may run on) and across OPENBLAS_NUM_THREADS 1 and 2.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslidar
from mslidar.columnar import write_columnar
from mslidar.mlp import SHARD_ROWS

from conftest import random_cloud

# Two batches of the default 8192 rows, then one of two shards.
N = 2 * 8192 + SHARD_ROWS + 1000


@pytest.fixture(scope="module")
def train_file(tmp_path_factory):
    rng = np.random.default_rng(23)
    cloud = random_cloud(rng, n=N, extent=60.0)
    spectral = rng.uniform(-1, 1, size=(3, N)).astype(np.float32)
    # labels that depend on the features, so the model has something to learn
    label = (spectral[0] + 0.3 * rng.normal(size=N) > 0.3).astype(np.uint8)
    cloud = cloud.with_column("label", label)
    cloud = cloud.with_column("h_norm", rng.uniform(0, 20, N).astype(np.float32))
    for name, values in zip(("refl_green_db", "refl_nir_db", "pndvi"), spectral):
        cloud = cloud.with_column(name, values)
    path = tmp_path_factory.mktemp("threads") / "train.mst"
    write_columnar(cloud, path)
    return path


def _train(train_path: Path, out_dir: Path, threads: int | None,
           blas_threads: int) -> list[bytes]:
    src = str(Path(mslidar.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = ["train", "--train", str(train_path), "--out-dir", str(out_dir),
            "--feature-config", "XYZ_GREEN_NIR_PNDVI", "--epochs", "3",
            "--learning-rate", "0.01"]
    if threads is not None:
        argv += ["--threads", str(threads)]
    subprocess.run([sys.executable, "-m", "mslidar.cli", *argv], env=env,
                   capture_output=True, text=True, timeout=300, check=True)
    return [(out_dir / name).read_bytes() for name in ("model.mstm", "loss_curve.csv")]


def test_trained_bits_do_not_depend_on_thread_counts(train_file, tmp_path):
    runs = {
        (threads, blas): _train(train_file, tmp_path / f"t{threads}b{blas}", threads, blas)
        for threads in (1, 2, None) for blas in (1, 2)
    }
    reference = runs[1, 1]
    for key, files in runs.items():
        assert files == reference, f"--threads {key[0]}, OPENBLAS_NUM_THREADS={key[1]}"
