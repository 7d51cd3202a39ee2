"""The package surface: no module imports a name it never uses or another module's
private name, no module-level function or class goes unread, and ``__all__`` resolves.

Built on the standard-library ``ast`` module, so it needs no linter.
"""
import ast
from pathlib import Path

import pytest

import blockscan

MODULES = sorted(Path(blockscan.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).with_name("oracles.py")


def _listed_in_all(tree: ast.Module) -> set[str]:
    """The names a module-level ``__all__`` of ``tree`` lists."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    }


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
    return sorted(imported - read - _listed_in_all(tree))


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


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports from another module of the package.

    A relative ``from`` import, or one from ``blockscan``, of a name that
    starts with ``_`` and is not a dunder such as ``__version__``.
    """
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "blockscan")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )


def test_private_imports_finds_underscored_package_names():
    source = (
        "from . import __version__\n"
        "from .pipeline import UV_PAIRS, _field_dims\n"
        "from blockscan.scan import _running_sums as sums\n"
        "from numpy.lib import _private\n"
        "import blockscan._hidden\n"
    )
    assert private_imports(source) == ["_field_dims", "_running_sums"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name_of_another(path):
    """A name two modules must agree on is public; a private one stays in its module."""
    assert private_imports(path.read_text()) == []


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


def unread_definitions(sources: list[str]) -> list[str]:
    """Module-level functions and classes of ``sources`` that none of them reads.

    A name counts as read where any source loads it (``name``) or one of
    its attributes (``module.name``), or lists it in a module-level
    ``__all__``; the ``def`` or ``class`` statement binds it and reads nothing.
    """
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        defined.update(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        read |= _listed_in_all(tree)
    return sorted(defined - read)


def test_unread_definitions_finds_what_nothing_reads():
    sources = [
        "__all__ = ['public']\n"
        "def public(): return _helper()\n"
        "def _helper(): return 1\n"
        "class Spare:\n"
        "    def method(self): pass\n",
        "from . import first\n"
        "def _used(): pass\n"
        "def main(): return first.attr, _used\n"
        "class Kept: pass\n"
        "x: Kept = None\n",
    ]
    assert unread_definitions(sources) == ["Spare", "main"]


def test_the_package_defines_only_what_it_reads():
    """Every module-level function and class is read in the package or listed in ``__all__``.

    ``cli.main`` is read by its own ``__main__`` guard.
    """
    assert unread_definitions([path.read_text() for path in MODULES]) == []
