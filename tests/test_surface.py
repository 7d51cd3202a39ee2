"""The package surface: no module imports a name it never uses, and ``__all__`` resolves.

Built on the standard-library ``ast`` module, so it needs no linter.
"""
import ast
from pathlib import Path

import pytest

import blockscan

MODULES = sorted(Path(blockscan.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).with_name("oracles.py")


def unused_imports(source: str) -> list[str]:
    """Names that the imports of ``source`` bind and nothing in it reads.

    A name listed in a module-level ``__all__`` counts as read, and
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_imports_finds_what_nothing_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import GeometryError as Bad, ParameterError\n"
        "__all__ = ['ParameterError']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["Bad", "field", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_every_name_in_all_resolves():
    assert len(set(blockscan.__all__)) == len(blockscan.__all__)
    missing = [name for name in blockscan.__all__ if not hasattr(blockscan, name)]
    assert missing == []


def _defined(path: Path) -> set[str]:
    """Names of the functions and classes that ``path`` defines, methods included."""
    tree = ast.parse(path.read_text())
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_the_per_site_oracles_live_in_the_tests_only():
    """The package ships what it runs; ``BlockFactorTransform.__call__`` became an oracle too."""
    retired = _defined(ORACLES) | {"__call__", "approximant_H", "IndexRangeError"}
    for path in MODULES:
        assert _defined(path).isdisjoint(retired), path.stem
