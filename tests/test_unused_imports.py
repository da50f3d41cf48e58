"""Every name a module of the package imports is used in that module, and
every function, class and method it defines is referred to by the
package or the benchmark.

A name counts as used wherever it is read, including inside a string
annotation such as ``"cKDTree"``. Parsing with `ast` needs no linter.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mslidar"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the statement's line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations parsed."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= used_names(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the code reads or looks up as an attribute, and every word
    of a string that is no docstring (the benchmark tracer wraps functions
    by dotted name, such as ``"classifier.predict"``)."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names |= set(re.findall(r"\w+", node.value))
    return names


@functools.cache
def code_references() -> frozenset[str]:
    """The referenced names of every module in src/ and benchmark/; tests
    do not count, since test-only code does not belong in src/."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]
    return frozenset().union(*(referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                               for p in paths))


def plain_definitions(tree: ast.Module) -> dict[str, int]:
    """Each undecorated module-level function and class and each undecorated
    method that is no dunder, with its line. A decorated definition may be
    reached with no name in the code: a @stage function enters the stage
    table. A function that only calls itself counts as referred to."""
    methods = [item for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and not (item.name.startswith("__") and item.name.endswith("__"))]
    return {node.name: node.lineno for node in [*tree.body, *methods]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dead = [f"{name} (line {line})" for name, line in plain_definitions(tree).items()
            if name not in code_references()]
    assert not dead, f"{path.name} defines names no code refers to: {', '.join(dead)}"
