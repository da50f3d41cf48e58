"""Every neighbour query goes through one kernel, `cloud.build_index` and
`SpatialIndex.knn_batch`: no other module of the package imports
`scipy.spatial`, and `cKDTree` is called only inside `build_index`. Every
fill of empty grid cells, the cloth floor's and the DTM's, goes through
one function, `dtm.nearest_valid`: `scipy.ndimage` is imported nowhere else.
Every manifest is written by one runner: `write_manifest` is called only
in `pipeline.Stage.run`. That runner owns every file: no `stage_*` function
calls a reader, a writer or `mkdir`, and each maps values to values.

A string annotation such as ``"cKDTree"`` is no call, so the
`SpatialIndex.tree` annotation stays allowed. Parsing with `ast` needs no
linter.
"""

import ast
import copy
from pathlib import Path

import pytest

from mslidar.pipeline import STAGES, load_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mslidar"


def imports_of(tree: ast.AST, module: str) -> list[int]:
    """Lines of the statements under tree importing `module` or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == module or m.startswith(module + ".") for m in modules):
            lines.append(node.lineno)
    return lines


def calls_of(node: ast.AST, name: str) -> set[ast.Call]:
    """Every call of a callable named `name` under node."""
    return {call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name}


def tree_calls(node: ast.AST) -> set[ast.Call]:
    """Every call of a callable named cKDTree under node."""
    return calls_of(node, "cKDTree")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cloud_imports_scipy_spatial(path):
    lines = imports_of(parse(path), "scipy.spatial")
    assert path.name == "cloud.py" or not lines, (
        f"{path.name} imports scipy.spatial (lines {lines}); query cloud.build_index instead")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_a_tree_is_built_only_in_build_index(path):
    tree = parse(path)
    allowed = set()
    if path.name == "cloud.py":
        builders = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "build_index"]
        assert len(builders) == 1 and len(tree_calls(builders[0])) == 1
        allowed = tree_calls(builders[0])
    stray = sorted(call.lineno for call in tree_calls(tree) - allowed)
    assert not stray, f"{path.name} builds a cKDTree outside build_index (lines {stray})"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_nearest_valid_imports_scipy_ndimage(path):
    tree = parse(path)
    allowed = set()
    if path.name == "dtm.py":
        fills = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "nearest_valid"]
        assert len(fills) == 1 and len(imports_of(fills[0], "scipy.ndimage")) == 1
        allowed = set(imports_of(fills[0], "scipy.ndimage"))
    stray = sorted(set(imports_of(tree, "scipy.ndimage")) - allowed)
    assert not stray, (
        f"{path.name} imports scipy.ndimage (lines {stray}); fill through dtm.nearest_valid")


def test_only_the_stage_runner_writes_manifests():
    where = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        runners = [item for node in tree.body if isinstance(node, ast.ClassDef)
                   and node.name == "Stage" for item in node.body
                   if isinstance(item, ast.FunctionDef) and item.name == "run"]
        inside = set().union(*(calls_of(run, "write_manifest") for run in runners))
        where += [(path.name, call.lineno, call in inside)
                  for call in calls_of(tree, "write_manifest")]
    assert [(name, inside) for name, _, inside in where] == [("pipeline.py", True)], where


def test_the_guard_sees_imports_and_calls():
    """The checks flag each way a module could reach the tree class or the
    image filters."""
    for module in ("scipy.spatial", "scipy.ndimage"):
        name = module.split(".")[1]
        for source in (f"import {module}", f"from {module} import x", f"from scipy import {name}",
                       f"import {module}.sub as s", f"from {module}.sub import y"):
            assert imports_of(ast.parse(source), module) == [1], source
    assert imports_of(ast.parse("from scipy import ndimage"), "scipy.spatial") == []
    assert imports_of(ast.parse("from scipy import spatial"), "scipy.ndimage") == []
    assert imports_of(ast.parse("def f():\n    from scipy import ndimage"), "scipy.ndimage") == [2]
    for source in ("cKDTree(p)", "spatial.cKDTree(p, balanced_tree=False)"):
        assert len(tree_calls(ast.parse(source))) == 1, source
    assert tree_calls(ast.parse('t: "cKDTree" = None')) == set()


# Callables that open, read or write a file, by name or attribute name.
FILE_IO = ("read_columnar", "write_columnar", "read_labels", "write_labels", "read_las",
           "write_las", "load_checkpoint", "save_checkpoint", "export_error_las", "open",
           "write_text", "read_bytes", "mkdir")


def stage_file_io(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(function, callee, line) of every FILE_IO call inside a stage_* function."""
    return sorted((fn.name, name, call.lineno) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name.startswith("stage_")
                  for name in FILE_IO for call in calls_of(fn, name))


def test_stage_functions_leave_every_file_to_the_runner():
    tree = parse(PACKAGE / "pipeline.py")
    stages = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")]
    assert len(stages) == len(STAGES)
    assert stage_file_io(tree) == [], "read and write in Stage.run, through the stage table"


def test_the_file_guard_sees_each_reader_and_writer():
    for name in FILE_IO:
        for call in (f"{name}(p)", f"p.{name}()", f"m.{name}(c, p)"):
            tree = ast.parse(f"def stage_x(cfg):\n    y = 1\n    return {call}")
            assert stage_file_io(tree) == [("stage_x", name, 3)], call
    assert stage_file_io(ast.parse("def run(p):\n    p.mkdir()")) == []
    assert stage_file_io(ast.parse("def stage_x(p):\n    p.take(1)")) == []


def test_stage_functions_map_values_to_values(tmp_path, monkeypatch):
    """Every stage function, called on values in memory, creates no file."""
    monkeypatch.chdir(tmp_path)
    cfg = load_config(overrides={"synth.target_points": 20000, "train.epochs": 1})
    called = []

    def outputs(name, **values) -> dict:
        called.append(name)
        result, _ = STAGES[name].fn(copy.deepcopy(cfg), **values)
        return dict(result)

    scene = outputs("synth")["out"]
    assert outputs("ingest", las=scene)["out"] is scene
    cloud = outputs("denoise", cloud=scene)["out"]
    for name in ("merge", "ground", "normalize-height", "features", "subsample"):
        cloud = outputs(name, cloud=cloud)["out"]
    splits = outputs("split", cloud=cloud)
    train, test = splits["train.mst"], splits["test.mst"]
    model = outputs("train", train=train)["model.mstm"]
    labels = outputs("predict", cloud=test, model=model)["predictions.txt"]
    pred = {"predictions": tmp_path / "predictions.txt"}
    assert set(outputs("evaluate", cloud=test, predictions=labels, paths=pred)) == {
        "report.json", "report.csv"}
    assert "ablation.json" in outputs("ablate", train=train, test=test, configs=["XYZ"])
    for values in ({}, {"predictions": labels}):
        assert set(outputs("export", cloud=test, paths=pred, **values)) == {"las"}
    assert set(called) == set(STAGES) and list(tmp_path.iterdir()) == []
