"""Fault injection over the MST1, LAS, label and model readers, the YAML
config and the output paths, through the CLI.

Every damaged input must exit with its category code, never with 1
(internal). A damaged MST1, LAS or label file is a data error (exit 3)
whose one ``error[data]: ...`` line names the damaged file; a damaged
config is a config error (exit 2). MST1 files and configs enter through
`subsample`, LAS files through `ingest`, label files through `evaluate`,
model files through `predict`. An output that cannot be written, or that
is also an input, is a config error, and a failed write names the path it
was writing. A neighbour count k above the point count is clamped to it,
and a neighbour pass's memory does not grow with k. A cloth or DTM cell
so fine that its raster would exceed `dtm.RASTER_LIMIT` cells, and hidden
layers so wide that training would exceed `errors.BYTE_LIMIT` bytes, or a
synthetic scene so large that it would, are config errors that name their
key.
"""

import dataclasses
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mslidar
from mslidar.cli import main
from mslidar.cloud import PointCloud, concat
from mslidar.columnar import write_columnar, write_labels
from mslidar.lasio import write_las

from conftest import random_cloud

N = 300
NOTE = "EPSG:31256"


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, n=N)
    cloud = cloud.with_column("h_norm", rng.uniform(0, 5, N).astype(np.float32))
    return dataclasses.replace(cloud, crs_note=NOTE)


def _mst_sections(cloud) -> dict[str, int]:
    """End offset of each MST1 section: header, CRS note, every column."""
    ends = {"header": 20, "note": 20 + len(NOTE.encode())}
    end = ends["note"]
    for name in ("x", "y", "z", "channel", *cloud.present_columns):
        end += N * getattr(cloud, name).dtype.itemsize
        ends[name] = end
    return ends


def _rejects(path, capsys, stage, *argv) -> None:
    option = "--las" if stage == "ingest" else "--in"
    rc = main([stage, option, str(path), "--out", str(path.with_name("o.mst")), *argv])
    err = capsys.readouterr().err
    assert (rc, err.startswith(f"error[data]: {path}: ")) == (3, True), err


MST_CUTS = ["empty", "mid-header", "header", "note", "x", "y", "z", "channel",
            "reflectance_db", "label", "last-byte"]


@pytest.mark.parametrize("cut", MST_CUTS)
def test_truncated_mst1_at_each_section_boundary(cloud, tmp_path, capsys, cut):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    raw = path.read_bytes()
    ends = _mst_sections(cloud)
    assert ends[cloud.present_columns[-1]] == len(raw)
    ends.update({"empty": 0, "mid-header": 10, "last-byte": len(raw) - 1})
    path.write_bytes(raw[:ends[cut]])
    _rejects(path, capsys, "subsample")


MST_DAMAGE = {
    "magic": lambda raw: b"MST2" + raw[4:],
    "version": lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
    "bitmap-known-bit": lambda raw: raw[:6] + struct.pack(
        "<H", struct.unpack_from("<H", raw, 6)[0] | 1 << 2) + raw[8:],
    "bitmap-unknown-bit": lambda raw: raw[:6] + struct.pack(
        "<H", struct.unpack_from("<H", raw, 6)[0] | 1 << 15) + raw[8:],
    "huge-count": lambda raw: raw[:8] + struct.pack("<Q", 2**63) + raw[16:],
    "huge-note-length": lambda raw: raw[:16] + struct.pack("<I", 2**32 - 1) + raw[20:],
}


@pytest.mark.parametrize("damage", MST_DAMAGE)
def test_corrupt_mst1_header(cloud, tmp_path, capsys, damage):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    path.write_bytes(MST_DAMAGE[damage](path.read_bytes()))
    _rejects(path, capsys, "subsample")


@pytest.mark.parametrize("column, value", [("x", np.nan), ("y", np.inf), ("z", -np.inf)])
def test_non_finite_mst1_coordinate(cloud, tmp_path, capsys, column, value):
    coords = getattr(cloud, column).copy()
    coords[3] = value
    path = tmp_path / "c.mst"
    write_columnar(dataclasses.replace(cloud, **{column: coords}), path)
    _rejects(path, capsys, "subsample")


@pytest.mark.parametrize("column, value", [
    ("reflectance_db", np.nan), ("reflectance_db", -np.inf),
    ("refl_green_db", np.inf), ("refl_nir_db", -np.inf),
])
def test_non_finite_mst1_reflectance(cloud, tmp_path, capsys, column, value):
    # NaN marks a missing cross-channel value (every refl_green_db here), never
    # an own-channel one; no dB value is infinite
    merged = dataclasses.replace(cloud, refl_green_db=np.full(N, np.nan, np.float32),
                                 refl_nir_db=np.zeros(N, np.float32))
    values = getattr(merged, column).copy()
    values[3] = value
    path = tmp_path / "c.mst"
    write_columnar(dataclasses.replace(merged, **{column: values}), path)
    _rejects(path, capsys, "subsample")


# write_las gives a LAS 1.4 header of 375 bytes, then one extra-bytes VLR
# (a 54-byte record header and 192 bytes per attribute), then the points.
HEADER, VLR_HEADER = 375, 54


def _point_offset(raw: bytes) -> int:
    return struct.unpack_from("<I", raw, 96)[0]


LAS_DAMAGE = {
    "header-short": lambda raw: raw[:100],
    "header-cut": lambda raw: raw[:300],
    "vlr-header-cut": lambda raw: raw[:HEADER + 20],
    "vlr-payload-cut": lambda raw: raw[:HEADER + VLR_HEADER + 100],
    "points-cut": lambda raw: raw[:_point_offset(raw) + 10],
    "last-byte": lambda raw: raw[:-1],
    "nan-scale": lambda raw: raw[:131] + struct.pack("<d", np.nan) + raw[139:],
    "inf-offset": lambda raw: raw[:163] + struct.pack("<d", np.inf) + raw[171:],
    "zero-scale": lambda raw: raw[:147] + struct.pack("<d", 0.0) + raw[155:],
    "overflowing-scale": lambda raw: raw[:131] + struct.pack("<d", 1e308) + raw[139:],
    "asprs-class-code": lambda raw: raw[:_point_offset(raw) + 16] + b"\x02"
    + raw[_point_offset(raw) + 17:],
    "version-1.5": lambda raw: raw[:25] + b"\x05" + raw[26:],
    "point-format-11": lambda raw: raw[:104] + b"\x0b" + raw[105:],
    "zero-points": lambda raw: raw[:107] + struct.pack("<I", 0) + raw[111:247]
    + struct.pack("<Q", 0) + raw[255:],
    "record-too-short": lambda raw: raw[:105] + struct.pack("<H", 20) + raw[107:],
    # format 1 has no scanner-channel bits for `--channel scanner` to read
    "scanner-on-format-1": lambda raw: raw[:104] + b"\x01" + raw[105:],
    # the first point's scanner channel (flags bits 4-5) set to 3
    "channel-bits-3": lambda raw: raw[:_point_offset(raw) + 15]
    + bytes([raw[_point_offset(raw) + 15] | 0x30]) + raw[_point_offset(raw) + 16:],
    # the first point's "reflectance", the float32 after the 30-byte fixed record
    "nan-reflectance": lambda raw: raw[:_point_offset(raw) + 30]
    + struct.pack("<f", np.nan) + raw[_point_offset(raw) + 34:],
    "inf-reflectance": lambda raw: raw[:_point_offset(raw) + 30]
    + struct.pack("<f", np.inf) + raw[_point_offset(raw) + 34:],
}


@pytest.mark.parametrize("damage", LAS_DAMAGE)
def test_damaged_las(cloud, tmp_path, capsys, damage):
    path = tmp_path / "c.las"
    write_las(cloud, path)
    path.write_bytes(LAS_DAMAGE[damage](path.read_bytes()))
    _rejects(path, capsys, "ingest", "--channel", "scanner",
             "--reflectance-source", "reflectance", "--label-source", "classification")


# Label files enter through `evaluate --pred`: one integer per line, one
# line per point of the cloud, every label 0 or 1.
LABEL_DAMAGE = {
    "truncated": lambda good: good[: len(good) // 2],
    "last-line-cut": lambda good: good[:-2],
    "empty": lambda good: b"",
    "extra-line": lambda good: good + b"1\n",
    "not-utf8": lambda good: b"\xff\xfe" + good,
    "non-integer": lambda good: good.replace(b"1\n", b"1.0\n", 1),
    "word": lambda good: good.replace(b"0\n", b"tree\n", 1),
    "above-u8": lambda good: good.replace(b"1\n", b"256\n", 1),
    "negative": lambda good: good.replace(b"0\n", b"-1\n", 1),
    "not-binary": lambda good: good.replace(b"1\n", b"2\n", 1),
}


def _evaluate(cloud, tmp_path, pred) -> list:
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    return ["evaluate", "--cloud", str(path), "--pred", str(pred),
            "--out-dir", str(tmp_path / "eval")]


@pytest.mark.parametrize("damage", LABEL_DAMAGE)
def test_damaged_label_file(cloud, tmp_path, capsys, damage):
    good = "".join(f"{v}\n" for v in cloud.label).encode()
    pred = tmp_path / "labels.txt"
    pred.write_bytes(LABEL_DAMAGE[damage](good))
    rc = main(_evaluate(cloud, tmp_path, pred))
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[data]: "), str(pred) in err) == (3, True, True), err


def test_label_file_that_is_a_directory(cloud, tmp_path, capsys):
    pred = tmp_path / "labels"
    pred.mkdir()
    rc = main(_evaluate(cloud, tmp_path, pred))
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[data]: "), str(pred) in err) == (3, True, True), err


# YAML configs enter through any stage's --config; `subsample` is a cheap one.
YAML_DAMAGE = {
    "unterminated-mapping": b"train: {epochs: 3\n",
    "unterminated-string": b'features: {config: "XYZ\n',
    "bad-indent": b"sor:\n  k: 3\n n_sigma: 1.0\n",
    "not-utf8": b"seed: 1\n# \xff\xfe\n",
    "utf16": "seed: 1\n".encode("utf-16"),
    "python-tag": b"seed: !!python/object/apply:os.getcwd []\n",
    "a-list": b"- seed\n- 1\n",
    "a-scalar": b"42\n",
    "string-for-int": b"seed: abc\n",
    "float-for-int": b"voxel: {grid: 0.1}\nsor: {k: 2.5}\n",
    "bool-for-int": b"threads: true\n",
    "scalar-for-section": b"sor: 3\n",
    "section-for-scalar": b"seed: {a: 1}\n",
    "short-list": b"split: {ratios: [0.5, 0.5]}\n",
    "null-leaf": b"voxel: {grid: null}\n",
    "unknown-key": b"sorr: {k: 3}\n",
    "unknown-nested-key": b"sor: {kk: 3}\n",
    "non-string-key": b"1: 2\n",
    "huge-seed": b"seed: 99999999999999999999\n",
}


def _subsample(cloud, tmp_path, cfg) -> list:
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    return ["subsample", "--in", str(path), "--out", str(tmp_path / "o.mst"),
            "--config", str(cfg)]


@pytest.mark.parametrize("damage", YAML_DAMAGE)
def test_damaged_yaml_config(cloud, tmp_path, capsys, damage):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(YAML_DAMAGE[damage])
    rc = main(_subsample(cloud, tmp_path, cfg))
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[config]: ")) == (2, True), err


def test_yaml_config_that_is_a_directory(cloud, tmp_path, capsys):
    rc = main(_subsample(cloud, tmp_path, tmp_path))
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[config]: ")) == (2, True), err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_model_file_that_cannot_be_read(cloud, tmp_path, capsys, kind):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    model = tmp_path / "model.mstm"
    if kind == "directory":
        model.mkdir()
    rc = main(["predict", "--in", str(path), "--model", str(model),
               "--out-dir", str(tmp_path / "pred")])
    err = capsys.readouterr().err
    assert (rc, err.startswith(f"error[data]: cannot read {model}: ")) == (3, True), err


# Outputs enter through the stage that writes them; in each case the last
# option names a path below a missing directory, a file where a directory
# goes or a directory where a file goes.
UNWRITABLE = {
    "subsample-out": ["subsample", "--in", "{d}/c.mst", "--out", "{d}/nodir/x.mst"],
    "split-out-dir": ["split", "--in", "{d}/c.mst", "--out-dir", "{d}/a-file"],
    "features-out": ["features", "--in", "{d}/c.mst", "--out", "{d}/a-dir"],
    "export-las": ["export", "--cloud", "{d}/c.mst", "--las", "{d}/nodir/x.las"],
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_output_that_cannot_be_written(cloud, tmp_path, capsys, case):
    spectral = cloud.with_column("refl_green_db", cloud.reflectance_db).with_column(
        "refl_nir_db", cloud.reflectance_db)
    write_columnar(spectral, tmp_path / "c.mst")
    write_labels(cloud.label, tmp_path / "labels.txt")
    (tmp_path / "a-file").write_bytes(b"")
    (tmp_path / "a-dir").mkdir()
    argv = [arg.format(d=tmp_path) for arg in UNWRITABLE[case]]
    rc = main(argv)
    err = capsys.readouterr().err
    assert (rc, err.startswith(f"error[config]: cannot write {argv[-1]}: ")) == (2, True), err


def test_output_that_is_also_the_input(cloud, tmp_path, capsys, monkeypatch):
    path = tmp_path / "a.mst"
    write_columnar(cloud, path)
    raw = path.read_bytes()
    monkeypatch.chdir(tmp_path)  # one file, spelled two ways
    rc = main(["subsample", "--in", "a.mst", "--out", str(path)])
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[config]: "), "--out" in err, "--in" in err) == (
        2, True, True, True), err
    assert path.read_bytes() == raw
    assert list(tmp_path.iterdir()) == [path]


def test_out_dir_file_that_is_also_the_input(cloud, tmp_path, capsys):
    splits = tmp_path / "splits"
    splits.mkdir()
    path = splits / "train.mst"
    write_columnar(cloud, path)
    raw = path.read_bytes()
    rc = main(["split", "--in", str(path), "--out-dir", str(splits)])
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[config]: "), "--out-dir" in err, "--in" in err) == (
        2, True, True, True), err
    assert path.read_bytes() == raw
    assert list(splits.iterdir()) == [path]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_write_to_a_full_device_names_its_path(cloud, tmp_path, capsys):
    write_columnar(cloud, tmp_path / "c.mst")
    rc = main(["subsample", "--in", str(tmp_path / "c.mst"), "--out", "/dev/full"])
    err = capsys.readouterr().err
    assert (rc, err.startswith("error[config]: cannot write /dev/full: ")) == (2, True), err


# Runs the CLI in a child process whose file size limit is argv[1] bytes.
# Python ignores SIGXFSZ, so a write past the limit raises EFBIG.
FSIZE_LIMITED = """
import resource, sys
from mslidar.cli import main
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


def _child_env() -> dict:
    """The environment of a CLI child process that imports this mslidar."""
    src = str(Path(mslidar.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_an_out_dir_write_over_the_file_size_limit_names_its_path(cloud, tmp_path):
    pytest.importorskip("resource")
    write_columnar(cloud, tmp_path / "c.mst")
    splits = tmp_path / "splits"
    run = subprocess.run(
        [sys.executable, "-c", FSIZE_LIMITED, "1024",
         "split", "--in", str(tmp_path / "c.mst"), "--out-dir", str(splits)],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    err = run.stderr
    assert (run.returncode, f"error[config]: cannot write {splits / 'train.mst'}: " in err) == (
        2, True), err


def test_merge_of_a_reflectance_beyond_float64_names_its_input(tmp_path, capsys):
    """3100 dB is finite, but 10**310 is not: merge refuses the cloud that
    holds it (exit 3) and writes nothing, where it used to write infinite
    cross-channel values that the next stage then refused."""
    def channel(xyz, db, chan):
        xyz = np.asarray(xyz, dtype=float)
        return PointCloud(
            x=xyz[:, 0], y=xyz[:, 1], z=xyz[:, 2], channel=np.full(len(db), chan, np.uint8),
            reflectance_db=np.asarray(db, np.float32))

    green = channel([[0, 0, 0], [0.5, 0, 0]], [3100.0, 3100.0], 0)
    nir = channel([[0, 0, 0.1], [0.3, 0, 0]], [-5.0, -6.0], 1)
    for name, c in (("g.mst", green), ("n.mst", nir),
                    ("c.mst", concat([nir, green]))):
        write_columnar(c, tmp_path / name)
    out = tmp_path / "m.mst"
    for argv, named in ((["--in", "c.mst"], "c.mst"),
                        (["--green", "g.mst", "--nir", "n.mst"], "g.mst")):
        rc = main(["merge", *(str(tmp_path / a) if a.endswith(".mst") else a for a in argv),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert (rc, err.startswith(f"error[data]: {tmp_path / named}: ")) == (3, True), err
        assert not out.exists() and not out.with_name("m.mst.manifest.json").exists()


def test_merge_k_above_the_point_count_is_clamped(cloud, tmp_path):
    write_columnar(cloud, tmp_path / "c.mst")
    for k in (10**9, N):
        assert main(["merge", "--in", str(tmp_path / "c.mst"),
                     "--out", str(tmp_path / f"m{k}.mst"), "--k", str(k)]) == 0
    assert (tmp_path / f"m{10**9}.mst").read_bytes() == (tmp_path / f"m{N}.mst").read_bytes()


def test_neighborhood_k_above_the_point_count_is_clamped(cloud, tmp_path):
    path = tmp_path / "c.mst"
    write_columnar(cloud, path)
    for k in (10**9, N):
        config = tmp_path / f"k{k}.yaml"
        config.write_text(f"neighborhood: {{k: {k}}}\n")
        assert main(["ablate", "--train", str(path), "--test", str(path),
                     "--out-dir", str(tmp_path / f"a{k}"), "--configs", "XYZ",
                     "--epochs", "2", "--config", str(config)]) == 0
    for name in ("ablation.json", "ablation.csv"):
        assert (tmp_path / f"a{10**9}" / name).read_bytes() == (
            tmp_path / f"a{N}" / name).read_bytes(), name


# Runs the CLI in a child process whose address space is capped at argv[1]
# bytes, as `ulimit -v` would cap it.
AS_LIMITED = FSIZE_LIMITED.replace("RLIMIT_FSIZE", "RLIMIT_AS")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 20k-point seed-3 scene, then merged and then grounded."""
    root = tmp_path_factory.mktemp("scene")
    for argv in (["synth", "--out", "scene.mst", "--target-points", "20000", "--seed", "3"],
                 ["merge", "--in", "scene.mst", "--out", "merged.mst"],
                 ["ground", "--in", "merged.mst", "--out", "ground.mst"]):
        assert main([str(root / a) if a.endswith(".mst") else a for a in argv]) == 0
    return root


def test_merge_with_a_huge_k_runs_in_bounded_memory(scene, tmp_path):
    """k is clamped to the 10000 points of a channel; a (block rows, k)
    query of full-size blocks would need over 3 GB."""
    pytest.importorskip("resource")
    run = subprocess.run(
        [sys.executable, "-c", AS_LIMITED, str(3_000_000 * 1024),
         "merge", "--in", str(scene / "scene.mst"), "--out", str(tmp_path / "m.mst"),
         "--k", "1000000000", "--threads", "1"],
        env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("hidden", [[100000000], [64, 100000000]])
def test_a_network_over_the_memory_limit_is_a_config_error(cloud, tmp_path, hidden):
    """Hidden layers that would ask for 5 to 25 GiB of parameters, AdamW
    state and workspaces are refused before any of it is allocated."""
    pytest.importorskip("resource")
    write_columnar(cloud, tmp_path / "c.mst")
    config = tmp_path / "wide.yaml"
    config.write_text(f"features: {{config: XYZ}}\ntrain: {{hidden: {hidden}}}\n")
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", AS_LIMITED, str(3_000_000 * 1024),
         "train", "--train", str(tmp_path / "c.mst"), "--out-dir", str(tmp_path / "m"),
         "--config", str(config)],
        env=_child_env(), capture_output=True, text=True, timeout=10)
    assert (run.returncode, "error[config]: train.hidden" in run.stderr) == (2, True), run.stderr
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("points", ["100000000", "2147483647"])
def test_a_scene_over_the_memory_limit_is_a_config_error(tmp_path, points):
    """Scenes that would need about 10 and 220 GiB: the larger one used to
    exit 1 at the address cap after 48 s, the smaller to run past 90 s.
    Each is refused before it is generated."""
    pytest.importorskip("resource")
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", AS_LIMITED, str(3_000_000 * 1024),
         "synth", "--out", str(tmp_path / "big.mst"), "--target-points", points],
        env=_child_env(), capture_output=True, text=True, timeout=10)
    assert (run.returncode, "error[config]: synth.target_points" in run.stderr) == (
        2, True), run.stderr
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "big.mst").exists()


@pytest.mark.parametrize("stage,source,option,value,key", [
    ("ground", "merged.mst", "--cloth-resolution", "1e-4", "csf.cloth_resolution"),
    ("ground", "merged.mst", "--cloth-resolution", "1e-2", "csf.cloth_resolution"),
    ("normalize-height", "ground.mst", "--cell", "1e-4", "dtm.cell"),
])
def test_a_raster_over_the_cell_limit_is_a_config_error(scene, tmp_path, stage, source,
                                                        option, value, key):
    """Rasters of about 1e7 to 1e11 cells: the 1e-4 ones asked for 833 GiB,
    the 1e-2 cloth settled for minutes. Each is refused before it is
    allocated."""
    pytest.importorskip("resource")
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", AS_LIMITED, str(3_000_000 * 1024),
         stage, "--in", str(scene / source), "--out", str(tmp_path / "o.mst"), option, value],
        env=_child_env(), capture_output=True, text=True, timeout=10)
    assert (run.returncode, f"error[config]: {key} is too fine" in run.stderr) == (
        2, True), run.stderr
    assert time.perf_counter() - start < 1.0
