"""The package keeps zero runtime dependencies: it imports the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

import txsim

PACKAGE = Path(txsim.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_txsim():
    allowed = set(sys.stdlib_module_names) | {"txsim"}
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    foreign = sorted(
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in allowed
    )
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
