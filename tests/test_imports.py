"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this stdlib ``ast`` check is what
catches imports left behind when code is deleted.  A name counts as
used when it is read anywhere in the module (quoted annotations
included) or listed in the module's ``__all__``.  Exempt are
``from __future__`` imports and the package ``__init__``'s re-exports
of its own submodules.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liptriv"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module, is_init: bool) -> dict[str, int]:
    """Bound name to line number, for every checked import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level):
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation) -> set[str]:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line
        for name, line in imported_names(tree, path.name == "__init__.py").items()
        if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_guard_flags_a_leftover_import():
    tree = ast.parse(
        "from typing import Iterable, Sequence\n"
        "def f(xs: 'Sequence[int]') -> None: ...\n"
    )
    used = used_names(tree)
    assert [n for n in imported_names(tree, False) if n not in used] == ["Iterable"]
