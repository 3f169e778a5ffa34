import ast
from pathlib import Path

import pytest

import killingtensors
import killingtensors.cli
from killingtensors import LimitError

SRC = Path(__file__).resolve().parent.parent / "src" / "killingtensors"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def test_every_exported_name_resolves_once():
    names = killingtensors.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(killingtensors, n)] == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_limit_error_is_defined_in_limits():
    assert sorted(c.__name__ for c in _subclasses(LimitError)
                  if c.__module__ != "killingtensors.limits") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "limits.py"],
                         ids=lambda p: p.name)
def test_no_size_bound_outside_limits(path):
    # a bound is a module-level MAX_* or *_CAP name; its error a *CapError class
    tree = ast.parse(path.read_text())
    defined = [t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)]
    defined += [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [n for n in defined if "MAX_" in n or n.endswith(("_CAP", "CapError"))] == []
