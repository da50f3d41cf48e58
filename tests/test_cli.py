import dataclasses
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mslidar.cli import build_parser, effective_config, main
import mslidar
from mslidar import classifier, pipeline
from mslidar.cloud import concat
from mslidar.columnar import read_columnar, write_columnar
from mslidar.errors import ConfigError
from mslidar.features import FeatureConfig, fit_config_normalization
from mslidar.lasio import write_las

from conftest import as_v2_checkpoint


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Full stage chain on a small scene, driven through the CLI."""
    root = tmp_path_factory.mktemp("chain")
    paths = {
        "scene": root / "scene.mst",
        "denoised": root / "denoised.mst",
        "merged": root / "merged.mst",
        "grounded": root / "grounded.mst",
        "hnorm": root / "hnorm.mst",
        "feat": root / "feat.mst",
        "sub": root / "sub.mst",
        "splits": root / "splits",
        "model": root / "model",
        "pred": root / "pred",
        "eval": root / "eval",
        "errors": root / "errors.las",
    }
    steps = [
        ["synth", "--out", str(paths["scene"]), "--target-points", "20000",
         "--seed", "11"],
        ["denoise", "--in", str(paths["scene"]), "--out", str(paths["denoised"])],
        ["merge", "--in", str(paths["denoised"]), "--out", str(paths["merged"])],
        ["ground", "--in", str(paths["merged"]), "--out", str(paths["grounded"])],
        ["normalize-height", "--in", str(paths["grounded"]),
         "--out", str(paths["hnorm"])],
        ["features", "--in", str(paths["hnorm"]), "--out", str(paths["feat"])],
        ["subsample", "--in", str(paths["feat"]), "--out", str(paths["sub"])],
        ["split", "--in", str(paths["sub"]), "--out-dir", str(paths["splits"])],
        ["train", "--train", str(paths["splits"] / "train.mst"),
         "--out-dir", str(paths["model"]), "--epochs", "2"],
        ["predict", "--in", str(paths["splits"] / "test.mst"),
         "--model", str(paths["model"] / "model.mstm"),
         "--out-dir", str(paths["pred"])],
        ["evaluate", "--cloud", str(paths["splits"] / "test.mst"),
         "--pred", str(paths["pred"] / "predictions.txt"),
         "--out-dir", str(paths["eval"])],
        ["export", "--cloud", str(paths["splits"] / "test.mst"),
         "--pred", str(paths["pred"] / "predictions.txt"), "--las", str(paths["errors"])],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    return paths


def test_chain_products_exist(chain):
    for name in ("scene", "denoised", "merged", "grounded", "hnorm", "feat", "sub"):
        assert chain[name].exists()
        assert chain[name].with_name(chain[name].name + ".manifest.json").exists()
    for name in ("train", "val", "test"):
        assert (chain["splits"] / f"{name}.mst").exists()
    assert (chain["model"] / "model.mstm").exists()
    assert (chain["model"] / "loss_curve.csv").exists()
    assert (chain["pred"] / "predictions.txt").exists()
    assert (chain["eval"] / "report.json").exists()
    assert (chain["eval"] / "report.csv").exists()
    assert chain["errors"].exists()


def test_chain_columns_accumulate(chain):
    sub = read_columnar(chain["sub"])
    for col in ("reflectance_db", "refl_green_db", "refl_nir_db", "pndvi",
                "ground_flag", "h_norm", "label"):
        assert sub.has(col), col


def test_manifests_are_reproducible_records(chain):
    manifest = json.loads(
        (chain["sub"].with_name(chain["sub"].name + ".manifest.json")).read_text())
    assert manifest["tool"] == "mslidar"
    assert manifest["stage"] == "subsample"
    assert "config" in manifest and "config_hash" in manifest
    assert manifest["inputs"]  # input hash present
    flat = json.dumps(manifest).lower()
    for marker in ("timestamp", "created", "date", "mtime"):
        assert marker not in flat


def test_every_stage_records_its_name_and_the_inputs_given(chain, tmp_path):
    """One runner writes every manifest: beside the first output, with the
    stage's own name and the hash of exactly the input files passed."""
    splits = chain["splits"]
    las, pred_las = tmp_path / "test.las", tmp_path / "pred.las"
    ingested, ablation = tmp_path / "ingested.mst", tmp_path / "ablation"
    predictions = chain["pred"] / "predictions.txt"
    for argv in (
        ["export", "--cloud", str(splits / "test.mst"), "--las", str(las)],
        ["export", "--cloud", str(splits / "test.mst"), "--las", str(pred_las),
         "--pred", str(predictions)],
        ["ingest", "--las", str(las), "--channel", "scanner", "--out", str(ingested)],
        ["ablate", "--train", str(splits / "train.mst"), "--test", str(splits / "test.mst"),
         "--out-dir", str(ablation), "--configs", "XYZ", "--epochs", "1"],
    ):
        assert main(argv) == 0, argv[0]

    def beside(path):
        return path.with_name(path.name + ".manifest.json")

    cloud_stages = [("denoise", "scene", "denoised"), ("merge", "denoised", "merged"),
                    ("ground", "merged", "grounded"), ("normalize-height", "grounded", "hnorm"),
                    ("features", "hnorm", "feat"), ("subsample", "feat", "sub")]
    expected = [
        (beside(chain["scene"]), "synth", {}),
        *((beside(chain[out]), name, {"cloud": chain[inp]}) for name, inp, out in cloud_stages),
        (splits / "manifest.json", "split", {"cloud": chain["sub"]}),
        (chain["model"] / "manifest.json", "train", {"train": splits / "train.mst"}),
        (chain["pred"] / "manifest.json", "predict",
         {"cloud": splits / "test.mst", "model": chain["model"] / "model.mstm"}),
        (chain["eval"] / "manifest.json", "evaluate",
         {"cloud": splits / "test.mst", "predictions": predictions}),
        (beside(las), "export", {"cloud": splits / "test.mst"}),
        (beside(pred_las), "export", {"cloud": splits / "test.mst", "predictions": predictions}),
        (beside(ingested), "ingest", {"las": las}),
        (ablation / "manifest.json", "ablate",
         {"train": splits / "train.mst", "test": splits / "test.mst"}),
    ]
    assert {name for _, name, _ in expected} == set(pipeline.STAGES)
    for path, name, inputs in expected:
        manifest = json.loads(path.read_text())
        assert manifest["stage"] == name, path
        assert manifest["inputs"] == {k: pipeline.file_sha256(v) for k, v in inputs.items()}, path


def test_report_json_holds_metrics(chain):
    report = json.loads((chain["eval"] / "report.json").read_text())
    for key in ("iou_tree", "iou_nontree", "miou", "macc", "oa"):
        assert 0.0 <= report[key] <= 100.0
    assert report["counts"]["tp"] + report["counts"]["tn"] \
        + report["counts"]["fp"] + report["counts"]["fn"] > 0


def test_loss_curve_csv(chain):
    lines = (chain["model"] / "loss_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 1 + 2 + 1  # header + initial loss + 2 epochs
    losses = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(np.isfinite(losses))


def test_rerun_is_bit_identical(chain, tmp_path):
    out = tmp_path / "sub2.mst"
    rc = main(["subsample", "--in", str(chain["feat"]), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == chain["sub"].read_bytes()
    m1 = chain["sub"].with_name(chain["sub"].name + ".manifest.json").read_text()
    m2 = out.with_name(out.name + ".manifest.json").read_text()
    assert m1 == m2


def test_thread_count_does_not_change_output(chain, tmp_path):
    out = tmp_path / "merged2.mst"
    rc = main(["merge", "--in", str(chain["denoised"]), "--out", str(out),
               "--threads", "2"])
    assert rc == 0
    assert out.read_bytes() == chain["merged"].read_bytes()


def test_config_file_and_flag_precedence(chain, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("voxel:\n  grid: 0.5\n")
    out_file = tmp_path / "coarse.mst"
    assert main(["subsample", "--in", str(chain["feat"]), "--out", str(out_file),
                 "--config", str(cfg)]) == 0
    manifest = json.loads(
        out_file.with_name(out_file.name + ".manifest.json").read_text())
    assert manifest["config"]["voxel"]["grid"] == 0.5
    coarse = read_columnar(out_file)
    fine = read_columnar(chain["sub"])
    assert coarse.count < fine.count
    # flag wins over the file
    out_flag = tmp_path / "flag.mst"
    assert main(["subsample", "--in", str(chain["feat"]), "--out", str(out_flag),
                 "--config", str(cfg), "--grid", "1.0"]) == 0
    manifest = json.loads(
        out_flag.with_name(out_flag.name + ".manifest.json").read_text())
    assert manifest["config"]["voxel"]["grid"] == 1.0


def test_ablate_small_and_stagewise_equivalence(chain, tmp_path):
    train, test = (str(chain["splits"] / f"{name}.mst") for name in ("train", "test"))
    tree_only = tmp_path / "tree_only.yaml"
    # The second pass scores only the points predicted tree. A 2-epoch model
    # predicts trees on this scene only near the ground, so it keeps them
    # (no postprocess) and scores every height above 0 m.
    tree_only.write_text("evaluate: {predicted_tree_only: true, threshold: 0.0}\n"
                         "postprocess: {threshold: null}\n")
    for i, extra in enumerate([[], ["--config", str(tree_only)]]):
        out_dir = tmp_path / f"ablation{i}"
        rc = main(["ablate", "--train", train, "--test", test,
                   "--out-dir", str(out_dir), "--configs", "XYZ", "XYZ_PNDVI",
                   "--epochs", "2", *extra])
        assert rc == 0
        ablation = json.loads((out_dir / "ablation.json").read_text())
        assert set(ablation["reports"]) == {"XYZ", "XYZ_PNDVI"}
        assert (out_dir / "ablation.csv").read_text().startswith("config,")

        # the ablation runner must equal the scripted stage sequence
        model_dir = tmp_path / f"xyz_model{i}"
        pred_dir = tmp_path / f"xyz_pred{i}"
        eval_dir = tmp_path / f"xyz_eval{i}"
        assert main(["train", "--train", train, "--out-dir", str(model_dir),
                     "--epochs", "2", "--feature-config", "XYZ", *extra]) == 0
        assert main(["predict", "--in", test, "--model", str(model_dir / "model.mstm"),
                     "--out-dir", str(pred_dir), *extra]) == 0
        assert main(["evaluate", "--cloud", test,
                     "--pred", str(pred_dir / "predictions.txt"),
                     "--out-dir", str(eval_dir), *extra]) == 0
        stagewise = json.loads((eval_dir / "report.json").read_text())
        for key in ("miou", "error_rate_above"):
            assert stagewise[key] == pytest.approx(
                ablation["reports"]["XYZ"][key], abs=1e-9), key
        assert stagewise["counts"] == ablation["reports"]["XYZ"]["counts"]


def test_ablate_writes_its_table_and_manifest_only(chain, tmp_path):
    """ablation.json holds every config's report: no per-config copies."""
    out_dir = tmp_path / "ablation"
    assert main(["ablate", "--train", str(chain["splits"] / "train.mst"),
                 "--test", str(chain["splits"] / "test.mst"), "--out-dir", str(out_dir),
                 "--configs", "XYZ", "XYZ_PNDVI", "--epochs", "1"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "ablation.csv", "ablation.json", "manifest.json"]


def test_ablate_trains_a_repeated_config_once(chain, tmp_path, monkeypatch):
    fits = []

    def counted(*args):
        fits.extend(args[1])
        return fit(*args)

    fit = classifier.fit
    monkeypatch.setattr(classifier, "fit", counted)
    out_dir = tmp_path / "ablation"
    assert main(["ablate", "--train", str(chain["splits"] / "train.mst"),
                 "--test", str(chain["splits"] / "test.mst"), "--out-dir", str(out_dir),
                 "--configs", "XYZ", "xyz", "--epochs", "1"]) == 0
    assert fits == [FeatureConfig.XYZ]
    assert len((out_dir / "ablation.csv").read_text().splitlines()) == 2  # header, one row


def test_ablate_fits_normalization_at_configured_percentiles(chain, tmp_path,
                                                            monkeypatch):
    fitted = []

    def recording_fit(*args, **kwargs):
        params = fit_config_normalization(*args, **kwargs)
        fitted.append(params)
        return params

    monkeypatch.setattr(classifier, "fit_config_normalization", recording_fit)
    cfg = tmp_path / "p10.yaml"
    cfg.write_text("features:\n  p_low: 10.0\n  p_high: 90.0\n")
    rc = main(["ablate", "--train", str(chain["splits"] / "train.mst"),
               "--test", str(chain["splits"] / "test.mst"),
               "--out-dir", str(tmp_path / "ablation"), "--configs", "XYZ_PNDVI",
               "--epochs", "1", "--config", str(cfg)])
    assert rc == 0
    (params,) = fitted
    assert (params.p_low, params.p_high) == (10.0, 90.0)
    default = fit_config_normalization(
        read_columnar(chain["splits"] / "train.mst"), FeatureConfig.XYZ_PNDVI.spectral_columns,
        p_low=1.0, p_high=99.0,
    )
    assert np.all(params.lo > default.lo) and np.all(params.hi < default.hi)


def test_predict_manifest_records_the_checkpoint_recipe(chain, tmp_path):
    # predict builds features from the checkpoint, not from its own config,
    # and its manifest must record the recipe that ran
    cfg = tmp_path / "recipe.yaml"
    cfg.write_text("features: {p_low: 5.0}\nneighborhood: {k: 8}\n")
    model_dir = tmp_path / "m"
    assert main(["train", "--train", str(chain["splits"] / "train.mst"),
                 "--out-dir", str(model_dir), "--epochs", "1",
                 "--feature-config", "XYZ_PNDVI", "--config", str(cfg)]) == 0
    predict = ["predict", "--in", str(chain["splits"] / "test.mst"),
               "--model", str(model_dir / "model.mstm")]
    assert main([*predict, "--out-dir", str(tmp_path / "p")]) == 0
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["config"]["features"] == {
        "config": "XYZ_PNDVI", "p_low": 5.0, "p_high": 99.0}
    assert manifest["config"]["neighborhood"] == {"k": 8, "radius": 2.0}
    assert manifest["extra"]["feature_config"] == "XYZ_PNDVI"
    assert manifest["config_hash"] == pipeline.config_hash(manifest["config"])
    # under the default config predict ran what the training config gives
    assert main([*predict, "--out-dir", str(tmp_path / "q"), "--config", str(cfg)]) == 0
    for name in ("predictions.txt", "manifest.json"):
        assert (tmp_path / "q" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


def test_predict_with_another_neighborhood_runs_the_checkpoints(chain, tmp_path, capsys):
    # a config naming another neighbourhood is no error: the checkpoint's
    # neighbourhood runs, as it does under the default config
    k8, k4 = tmp_path / "k8.yaml", tmp_path / "k4.yaml"
    k8.write_text("neighborhood: {k: 8}\n")
    k4.write_text("neighborhood: {k: 4}\n")
    assert main(["train", "--train", str(chain["splits"] / "train.mst"),
                 "--out-dir", str(tmp_path / "m"), "--epochs", "1",
                 "--config", str(k8)]) == 0
    predict = ["predict", "--in", str(chain["splits"] / "test.mst"),
               "--model", str(tmp_path / "m" / "model.mstm")]
    assert main([*predict, "--out-dir", str(tmp_path / "p"), "--config", str(k4)]) == 0
    assert "error[" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["config"]["neighborhood"] == {"k": 8, "radius": 2.0}
    assert main([*predict, "--out-dir", str(tmp_path / "q")]) == 0
    assert (tmp_path / "q" / "predictions.txt").read_bytes() == \
        (tmp_path / "p" / "predictions.txt").read_bytes()


def test_prediction_does_not_depend_on_far_points(chain, tmp_path):
    """Points farther than neighborhood.radius from every test point move
    the cloud's mean but leave the labels of the original points as they were."""
    test_path = chain["splits"] / "test.mst"
    test = read_columnar(test_path)
    far = dataclasses.replace(test, x=test.x + 1000.0)   # the scene spans about 32 m
    extended = tmp_path / "extended.mst"
    write_columnar(concat([test, far]), extended)
    for inp, out in ((test_path, "p0"), (extended, "p1")):
        assert main(["predict", "--in", str(inp),
                     "--model", str(chain["model"] / "model.mstm"),
                     "--out-dir", str(tmp_path / out)]) == 0
    labels = [(tmp_path / out / "predictions.txt").read_text().split()
              for out in ("p0", "p1")]
    assert len(labels[1]) == 2 * test.count
    assert labels[1][: test.count] == labels[0]


def test_export_roundtrip(chain, tmp_path):
    las = tmp_path / "cloud.las"
    assert main(["export", "--cloud", str(chain["sub"]), "--las", str(las)]) == 0
    assert las.exists() and las.stat().st_size > 0
    assert las.with_name(las.name + ".manifest.json").exists()


def test_ingest_label_source_roundtrip(chain, tmp_path):
    cloud = read_columnar(chain["splits"] / "test.mst")
    las = tmp_path / "labelled.las"
    write_las(cloud, las)
    for extra, out in (([], "plain.mst"), (["--label-source", "classification"], "l.mst")):
        assert main(["ingest", "--las", str(las), "--channel", "scanner",
                     "--out", str(tmp_path / out), *extra]) == 0
    assert not read_columnar(tmp_path / "plain.mst").has("label")
    np.testing.assert_array_equal(read_columnar(tmp_path / "l.mst").label, cloud.label)


# Run in a fresh interpreter with the package importable: prints the
# scipy and yaml modules loaded after each named step.
LOADED = """
import json, sys
from mslidar.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))

report = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    report[name] = (main(argv), loaded())
print(json.dumps(report))
"""


def _loaded_modules(steps) -> dict:
    src = str(Path(mslidar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", LOADED, json.dumps(steps)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither_scipy_nor_yaml():
    assert _loaded_modules([]) == {"import": []}


def test_stages_without_neighbor_search_or_gridding_never_import_scipy(chain, tmp_path):
    splits, pred = chain["splits"], chain["pred"] / "predictions.txt"
    light = [
        ["ingest", "--las", str(chain["errors"]), "--channel", "scanner",
         "--out", str(tmp_path / "i.mst")],
        ["features", "--in", str(chain["hnorm"]), "--out", str(tmp_path / "f.mst")],
        ["subsample", "--in", str(chain["feat"]), "--out", str(tmp_path / "s.mst")],
        ["split", "--in", str(chain["sub"]), "--out-dir", str(tmp_path / "splits")],
        ["export", "--cloud", str(splits / "test.mst"), "--pred", str(pred),
         "--las", str(tmp_path / "e.las")],
        ["evaluate", "--cloud", str(splits / "test.mst"), "--pred", str(pred),
         "--out-dir", str(tmp_path / "eval")],
    ]
    # control: denoise builds a k-d tree, so scipy.spatial must load then
    denoise = ["denoise", "--in", str(chain["scene"]), "--out", str(tmp_path / "d.mst")]
    report = _loaded_modules([(argv[0], argv) for argv in light] + [("denoise", denoise)])
    for argv in light:
        assert report[argv[0]] == [0, []], argv[0]
    code, modules = report["denoise"]
    assert code == 0 and "scipy.spatial" in modules


def test_import_pred_scores_ground_truth_perfectly(chain, tmp_path):
    cloud = read_columnar(chain["splits"] / "test.mst")
    labels = tmp_path / "external.txt"
    labels.write_text("\n".join(str(int(v)) for v in cloud.label) + "\n")
    eval_dir = tmp_path / "eval100"
    assert main(["evaluate", "--cloud", str(chain["splits"] / "test.mst"),
                 "--pred", str(labels), "--out-dir", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["oa"] == 100.0 and report["miou"] == 100.0


class TestErrorPaths:
    def test_missing_prediction_file_is_data_error(self, chain, tmp_path, capsys):
        rc = main(["evaluate", "--cloud", str(chain["splits"] / "test.mst"),
                   "--pred", str(tmp_path / "nope.txt"),
                   "--out-dir", str(tmp_path / "e")])
        assert rc == 3
        assert "error[data]" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, chain, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("voxal:\n  grid: 0.5\n")
        rc = main(["subsample", "--in", str(chain["feat"]),
                   "--out", str(tmp_path / "x.mst"), "--config", str(cfg)])
        assert rc == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, yaml_text", [
        ("subsample", "voxel:\n  grid: x\n"),
        ("denoise", "sor:\n  k: '6'\n"),
    ])
    def test_mistyped_config_value_is_config_error(self, chain, tmp_path, capsys,
                                                   stage, yaml_text):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml_text)
        rc = main([stage, "--in", str(chain["feat"]),
                   "--out", str(tmp_path / "x.mst"), "--config", str(cfg)])
        assert rc == 2
        assert "error[config]: config key" in capsys.readouterr().err

    def test_scene_without_room_for_trees_is_config_error(self, tmp_path, capsys):
        t0 = time.perf_counter()
        rc = main(["synth", "--out", str(tmp_path / "s.mst"),
                   "--target-points", "3000"])
        assert rc == 2
        assert time.perf_counter() - t0 < 10.0
        assert "no room outside its building footprints" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options", [[], ["--in", "--green"], ["--in", "--nir"], ["--green"]],
        ids=["no-inputs", "in-and-green", "in-and-nir", "green-alone"])
    def test_merge_without_one_cloud_or_both_channels_is_config_error(
            self, chain, tmp_path, capsys, options):
        # --in names a real cloud, a channel option a file that does not exist
        out = tmp_path / "m.mst"
        argv = ["merge", "--out", str(out)]
        for option in options:
            path = chain["denoised"] if option == "--in" else tmp_path / "no.mst"
            argv += [option, str(path)]
        assert main(argv) == 2
        assert "error[config]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_split_ratios_rejected(self, chain, tmp_path, capsys):
        rc = main(["split", "--in", str(chain["sub"]),
                   "--out-dir", str(tmp_path / "s"),
                   "--ratios", "0.5", "0.2", "0.2"])
        assert rc == 2

    @pytest.mark.parametrize("damage", ["delete", "corrupt"])
    def test_bad_normalization_section_is_data_error(self, chain, tmp_path, capsys,
                                                     damage):
        # the normalization is the section of model.mstm after the
        # neighborhood: two percentiles, then lo, hi, impute for 3 columns
        raw = (chain["model"] / "model.mstm").read_bytes()
        start = 16 + len("XYZ_GREEN_NIR_PNDVI") + 16 + 12
        if damage == "delete":
            raw = raw[:start] + raw[start + 16 + 3 * 3 * 8:]
        else:  # the first column's lo becomes NaN
            raw = raw[:start + 16] + struct.pack("<d", np.nan) + raw[start + 24:]
        model = tmp_path / "model.mstm"
        model.write_bytes(raw)
        rc = main(["predict", "--in", str(chain["splits"] / "test.mst"),
                   "--model", str(model), "--out-dir", str(tmp_path / "p")])
        assert rc == 3
        assert "error[data]" in capsys.readouterr().err

    def test_predict_with_a_v2_model_asks_for_retraining(self, chain, tmp_path, capsys):
        model = classifier.load_checkpoint(chain["model"] / "model.mstm")
        old = tmp_path / "model.mstm"
        old.write_bytes(as_v2_checkpoint(
            (chain["model"] / "model.mstm").read_bytes(), model.net.sizes))
        rc = main(["predict", "--in", str(chain["splits"] / "test.mst"),
                   "--model", str(old), "--out-dir", str(tmp_path / "p")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and "version 2" in err and "retrain" in err

    # (stage, the chain cloud it reads, the setting as options or as the
    # text of a config file, the message naming its key)
    @pytest.mark.parametrize("stage, source, setting, message", [
        ("synth", None, ["--target-points", "-5"], "synth.target_points must be >= 1"),
        ("denoise", "scene", ["--k", "0"], "sor.k must be >= 1"),
        ("denoise", "scene", ["--n-sigma", "0"], "sor.n_sigma must be positive"),
        ("merge", "denoised", ["--radius", "0"], "merge.radius must be positive"),
        ("ground", "merged", ["--iterations", "0"], "csf.iterations must be >= 1"),
        ("ground", "merged", ["--rigidness", "5"], "csf.rigidness must be 1, 2 or 3"),
        ("subsample", "feat", ["--grid", "0"], "voxel.grid must be positive"),
        ("train", None, "neighborhood: {k: 0}", "neighborhood.k must be >= 1"),
        ("train", None, "neighborhood: {radius: -1.0}", "neighborhood.radius must be positive"),
        ("train", None, "features: {p_high: 200.0}",
         "features.p_low and features.p_high need 0 <= p_low < p_high <= 100"),
        ("train", None, "train: {batch_size: 0}", "train.batch_size must be >= 1"),
        ("train", None, "train: {hidden: [0]}", "train.hidden layer sizes must be >= 1"),
        ("train", None, "train: {learning_rate: -1.0}", "train.learning_rate must be >= 0"),
        ("train", None, "train: {epochs: -1}", "train.epochs must be >= 0"),
        ("train", None, "train: {weight_decay: -1.0}", "train.weight_decay must be >= 0"),
    ], ids=["target-points", "sor-k", "sor-n-sigma", "merge-radius", "csf-iterations",
            "csf-rigidness", "voxel-grid", "k", "radius", "p-high", "batch-size", "hidden",
            "learning-rate", "epochs", "weight-decay"])
    def test_out_of_range_config_value_is_rejected(self, chain, tmp_path, capsys,
                                                   stage, source, setting, message):
        if stage == "train":
            cfg = tmp_path / "bad.yaml"
            cfg.write_text(setting + "\n")
            argv = ["train", "--train", str(chain["splits"] / "train.mst"),
                    "--out-dir", str(tmp_path / "m"), "--config", str(cfg)]
        else:
            argv = [stage, "--out", str(tmp_path / "o.mst"), *setting]
            if source is not None:
                argv += ["--in", str(chain[source])]
        assert main(argv) == 2
        assert f"error[config]: {message}" in capsys.readouterr().err

    def test_zero_threads_is_config_error(self, chain, tmp_path, capsys):
        rc = main(["features", "--in", str(chain["hnorm"]),
                   "--out", str(tmp_path / "f.mst"), "--threads", "0"])
        assert rc == 2
        assert "error[config]: threads" in capsys.readouterr().err

    @pytest.mark.parametrize("route, seed", [
        ("flag", -1), ("yaml", -1), ("flag", 2**63), ("yaml", 2**64),
    ])
    def test_out_of_range_seed_is_config_error(self, chain, tmp_path, capsys, route, seed):
        argv = ["split", "--in", str(chain["sub"]), "--out-dir", str(tmp_path / "s")]
        if route == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfg = tmp_path / "seed.yaml"
            cfg.write_text(f"seed: {seed}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert f"error[config]: seed must be an integer in [0, 2**63), got {seed}" \
            in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "stage", ["denoise", "merge", "ground", "normalize-height", "subsample"])
    def test_nan_coordinate_in_input_is_data_error(self, chain, tmp_path, capsys,
                                                   stage):
        cloud = read_columnar(chain["hnorm"])
        x = cloud.x.copy()
        x[7] = np.nan
        bad = tmp_path / "nan.mst"
        write_columnar(dataclasses.replace(cloud, x=x), bad)
        rc = main([stage, "--in", str(bad), "--out", str(tmp_path / "out.mst")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"error[data]: {bad}: non-finite values in coordinate column 'x'" in err

    @pytest.mark.parametrize("case", ["labels", "crs-note", "las-extra-name"])
    def test_undecodable_input_is_data_error(self, chain, tmp_path, capsys, case):
        cloud = read_columnar(chain["hnorm"])
        bad = tmp_path / "bad"
        if case == "labels":
            bad.write_bytes(b"0\n\xff\n")
            argv = ["evaluate", "--cloud", str(chain["hnorm"]), "--pred", str(bad),
                    "--out-dir", str(tmp_path / "e")]
        elif case == "crs-note":
            write_columnar(dataclasses.replace(cloud, crs_note="EPSG:31256"), bad)
            bad.write_bytes(bad.read_bytes().replace(b"EPSG:31256", b"EPSG:\xff1256", 1))
            argv = ["features", "--in", str(bad), "--out", str(tmp_path / "f.mst")]
        else:
            write_las(cloud, bad, extra={"qqqq": np.zeros(cloud.count, np.float32)})
            raw = bad.read_bytes()
            bad.write_bytes(raw.replace(b"qqqq".ljust(32, b"\0"), b"X".ljust(32, b"\0")))
            argv = ["ingest", "--las", str(bad), "--channel", "green",
                    "--out", str(tmp_path / "i.mst")]
        assert main(argv) == 3
        assert "error[data]: " in capsys.readouterr().err

    def test_unknown_feature_config_rejected(self, chain, tmp_path, capsys):
        rc = main(["train", "--train", str(chain["splits"] / "train.mst"),
                   "--out-dir", str(tmp_path / "m"),
                   "--feature-config", "XYZ_KRYPTON", "--epochs", "1"])
        assert rc == 2
        assert "error[config]: unknown feature config 'XYZ_KRYPTON'" in capsys.readouterr().err

    def test_unknown_ablation_config_rejected(self, chain, tmp_path, capsys):
        splits = chain["splits"]
        rc = main(["ablate", "--train", str(splits / "train.mst"),
                   "--test", str(splits / "test.mst"), "--out-dir", str(tmp_path / "a"),
                   "--configs", "XYZ", "bogus", "--epochs", "1"])
        assert rc == 2
        assert "error[config]: unknown feature config 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_far_coordinate_export_is_data_error(self, chain, tmp_path, capsys):
        """LAS coordinates are int32 steps from the cloud's floor: a point
        3000 km out would wrap, so the export stops before the file opens."""
        cloud = read_columnar(chain["splits"] / "test.mst")
        x = cloud.x.copy()
        x[0] += 3e6
        far, las = tmp_path / "far.mst", tmp_path / "far.las"
        write_columnar(dataclasses.replace(cloud, x=x), far)
        las.write_bytes(b"earlier bytes")
        rc = main(["export", "--cloud", str(far), "--las", str(las)])
        assert rc == 3
        assert "error[data]: x spans 300" in capsys.readouterr().err
        assert las.read_bytes() == b"earlier bytes"
        assert not las.with_name(las.name + ".manifest.json").exists()


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert "mslidar" in capsys.readouterr().out


# Every stage flag that sets a config key: (stage, option, value argv, key,
# expected value). The required path arguments come from REQUIRED_PATHS.
CONFIG_FLAGS = [
    ("synth", "--target-points", ["1234"], "synth.target_points", 1234),
    ("denoise", "--k", ["9"], "sor.k", 9),
    ("denoise", "--n-sigma", ["2.5"], "sor.n_sigma", 2.5),
    ("merge", "--radius", ["0.75"], "merge.radius", 0.75),
    ("merge", "--k", ["3"], "merge.k", 3),
    ("ground", "--cloth-resolution", ["0.5"], "csf.cloth_resolution", 0.5),
    ("ground", "--rigidness", ["3"], "csf.rigidness", 3),
    ("ground", "--iterations", ["40"], "csf.iterations", 40),
    ("ground", "--class-threshold", ["0.25"], "csf.class_threshold", 0.25),
    ("normalize-height", "--cell", ["2.0"], "dtm.cell", 2.0),
    ("subsample", "--grid", ["0.3"], "voxel.grid", 0.3),
    ("split", "--ratios", ["0.5", "0.25", "0.25"], "split.ratios", [0.5, 0.25, 0.25]),
    ("split", "--tile-size", ["12.5"], "split.tile_size", 12.5),
    ("train", "--feature-config", ["XYZ"], "features.config", "XYZ"),
    ("train", "--epochs", ["7"], "train.epochs", 7),
    ("train", "--learning-rate", ["0.01"], "train.learning_rate", 0.01),
    ("train", "--weight-decay", ["0.5"], "train.weight_decay", 0.5),
    ("train", "--batch-size", ["64"], "train.batch_size", 64),
    ("predict", "--postprocess-threshold", ["1.5"], "postprocess.threshold", 1.5),
    ("evaluate", "--threshold", ["3.5"], "evaluate.threshold", 3.5),
    ("evaluate", "--predicted-tree-only", [], "evaluate.predicted_tree_only", True),
    ("ablate", "--epochs", ["4"], "train.epochs", 4),
]

REQUIRED_PATHS = {
    "synth": ["--out", "o"],
    "denoise": ["--in", "i", "--out", "o"],
    "merge": ["--out", "o"],
    "ground": ["--in", "i", "--out", "o"],
    "normalize-height": ["--in", "i", "--out", "o"],
    "subsample": ["--in", "i", "--out", "o"],
    "split": ["--in", "i", "--out-dir", "d"],
    "train": ["--train", "t", "--out-dir", "d"],
    "predict": ["--in", "i", "--model", "m", "--out-dir", "d"],
    "evaluate": ["--cloud", "c", "--pred", "p", "--out-dir", "d"],
    "ablate": ["--train", "t", "--test", "s", "--out-dir", "d"],
}


@pytest.mark.parametrize(
    "stage, option, value, key, expected", CONFIG_FLAGS,
    ids=[f"{c[0]}{c[1]}" for c in CONFIG_FLAGS])
def test_flag_sets_its_config_key(stage, option, value, key, expected):
    args = build_parser().parse_args([stage, *REQUIRED_PATHS[stage], option, *value])
    assert pipeline.config_value(effective_config(args), key) == expected
    default = pipeline.config_value(pipeline.DEFAULTS, key)
    assert default != expected and not isinstance(default, dict)


def test_every_config_flag_is_listed():
    table = {(st.name, f.option, f.config)
             for st in pipeline.STAGES.values() for f in st.flags if f.config}
    assert table == {(c[0], c[1], c[3]) for c in CONFIG_FLAGS}


# Every default leaf of the effective config, as JSON: 1.0 and 1 differ
# (an int default would reject a float value), and so do false and 0.
EFFECTIVE_DEFAULTS = """{
  "seed": 0, "threads": null,
  "sor": {"k": 6, "n_sigma": 1.0},
  "merge": {"radius": 1.0, "k": 7},
  "csf": {"cloth_resolution": 1.0, "rigidness": 2, "iterations": 500,
          "class_threshold": 0.5},
  "dtm": {"cell": 1.0},
  "voxel": {"grid": 0.1},
  "features": {"config": "XYZ_GREEN_NIR_PNDVI", "p_low": 1.0, "p_high": 99.0},
  "neighborhood": {"k": 16, "radius": 2.0},
  "train": {"epochs": 300, "learning_rate": 0.001, "weight_decay": 0.0001,
            "batch_size": 8192, "hidden": [64, 64]},
  "split": {"ratios": [0.6853, 0.1628, 0.1519], "tile_size": 20.0},
  "postprocess": {"threshold": 2.0},
  "evaluate": {"threshold": 2.0, "predicted_tree_only": false},
  "synth": {"target_points": 500000}
}"""


def test_defaults_are_the_effective_defaults():
    # DEFAULTS reads most sections off the signatures of the functions and
    # dataclasses that own them; a section read off the wrong parameter
    # shows here as a changed value or type
    expected = json.dumps(json.loads(EFFECTIVE_DEFAULTS), sort_keys=True)
    assert json.dumps(pipeline.load_config(), sort_keys=True) == expected


@pytest.mark.parametrize("yaml_text, ok", [
    ("voxel: {grid: 1}", True),                     # an int for a float
    ("voxel: {grid: true}", False),                 # bool is no number
    ("sor: {k: 6.0}", False),                       # a float for an int
    ("threads: true", False),
    ("evaluate: {predicted_tree_only: 1}", False),  # int is no bool
    ("features: {config: 7}", False),
    ("split: {ratios: [0.5, 0.25, 0.25]}", True),
    ("split: {ratios: [0.5, 0.5]}", False),         # default's length
    ("split: {ratios: [1, 0, 0]}", True),
    ("split: {ratios: 0.5}", False),
    ("train: {hidden: [32, 16, 8]}", True),         # any depth
    ("train: {hidden: [32.0]}", False),
    ("train: {hidden: []}", False),
    # YAML 1.2 exponent floats, which PyYAML's YAML 1.1 reads as strings
    ("train: {learning_rate: 1e-3, weight_decay: 5e-5}", True),
    ("voxel: {grid: .5E1}", True),
    ("train: {learning_rate: '1e-3'}", False),      # quoted: a string
    ("sor: {k: 1e1}", False),                       # a float for an int
    ("postprocess: {threshold: null}", True),
    ("postprocess: {threshold: 3}", True),
    ("postprocess: {threshold: '3'}", False),
    ("dtm: {cell: null}", False),
])
def test_config_values_take_their_default_type(tmp_path, yaml_text, ok):
    path = tmp_path / "c.yaml"
    path.write_text(yaml_text + "\n")
    if ok:
        pipeline.load_config(path)
    else:
        with pytest.raises(ConfigError, match="must have the type of"):
            pipeline.load_config(path)


@pytest.mark.parametrize("yaml_text, key", [
    ("train: {patience: 5}", "train.patience"),     # training runs all epochs
    ("csf: {time_step: 0.65}", "csf.time_step"),    # csf.TIME_STEP is a constant
])
def test_removed_config_keys_are_unknown(tmp_path, capsys, yaml_text, key):
    path = tmp_path / "c.yaml"
    path.write_text(yaml_text + "\n")
    assert main(["synth", "--out", str(tmp_path / "s.mst"), "--config", str(path)]) == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("stage, yaml_text, flags, key", [
    ("split", "split: {ratios: [.nan, 0.5, 0.5]}", [], "split.ratios"),
    ("merge", "", ["--radius", "inf"], "merge.radius"),
    ("predict", "postprocess: {threshold: .nan}", [], "postprocess.threshold"),
    ("ground", "csf: {class_threshold: -.inf}", [], "csf.class_threshold"),
], ids=["ratios-nan", "radius-inf-flag", "threshold-nan", "class-threshold-neg-inf"])
def test_non_finite_config_value_is_config_error(tmp_path, monkeypatch, capsys,
                                                 stage, yaml_text, flags, key):
    monkeypatch.chdir(tmp_path)
    Path("c.yaml").write_text(yaml_text + "\n")
    assert main([stage, *REQUIRED_PATHS[stage], "--config", "c.yaml", *flags]) == 2
    assert f"config key {key} must be finite" in capsys.readouterr().err


def test_every_nullable_key_is_a_default_leaf():
    for key in pipeline._NULLABLE:
        assert not isinstance(pipeline.config_value(pipeline.DEFAULTS, key), dict), key
