"""Every neighbour query goes through one kernel, `cloud.build_index` and
`SpatialIndex.knn_batch`: no other module of the package imports
`scipy.spatial`, and `cKDTree` is called only inside `build_index`.

A string annotation such as ``"cKDTree"`` is no call, so the
`SpatialIndex.tree` annotation stays allowed. Parsing with `ast` needs no
linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mslidar"


def spatial_imports(tree: ast.Module) -> list[int]:
    """Lines of the statements importing scipy.spatial or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "scipy.spatial" or m.startswith("scipy.spatial.") for m in modules):
            lines.append(node.lineno)
    return lines


def tree_calls(node: ast.AST) -> set[ast.Call]:
    """Every call of a callable named cKDTree under node."""
    return {call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "cKDTree"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cloud_imports_scipy_spatial(path):
    lines = spatial_imports(parse(path))
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


def test_the_guard_sees_imports_and_calls():
    """The checks flag each way a module could reach the tree class."""
    for source in ("import scipy.spatial", "from scipy.spatial import cKDTree",
                   "from scipy import spatial", "from scipy.spatial.distance import cdist"):
        assert spatial_imports(ast.parse(source)) == [1], source
    assert spatial_imports(ast.parse("from scipy import ndimage")) == []
    for source in ("cKDTree(p)", "spatial.cKDTree(p, balanced_tree=False)"):
        assert len(tree_calls(ast.parse(source))) == 1, source
    assert tree_calls(ast.parse('t: "cKDTree" = None')) == set()
