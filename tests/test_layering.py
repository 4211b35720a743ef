"""The library does not depend on its tests.

The reference implementations the production engines are pinned
against live in ``tests/oracles/`` (the shipped policy and prefetcher
classes among them).  ``src/repro`` must run without them: no module
under it may import ``oracles`` or ``tests``, at any nesting depth.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
FORBIDDEN = {"oracles", "tests"}


def _imported_roots(tree):
    """The top-level package of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_found():
    assert len(MODULES) > 50
    assert SRC / "sim" / "policies.py" in MODULES


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(SRC.parent))
)
def test_no_import_of_test_code(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not FORBIDDEN & set(_imported_roots(tree))


def test_check_sees_nested_imports():
    tree = ast.parse(
        "def f():\n"
        "    from oracles.policies import LruPolicy\n"
        "    import tests.storefiles\n"
    )
    assert FORBIDDEN <= set(_imported_roots(tree))
