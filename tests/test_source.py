import ast
import doctest
import os
import subprocess
import sys
from collections import Counter
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


ROOT = SRC.parent.parent
# where a route of the package counts as used: the package itself, the
# scripts, the benchmark, the README example and the acceptance suite
USERS = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
         ROOT / "tests" / "test_acceptance.py"]


def _uses(tree):
    """``(kind, name)`` of every name a tree reads or writes (``"name"``),
    every attribute it reads (``"attribute"``) and every attribute it calls
    (``"call"``), with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attribute", node.attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield "call", node.func.attr


def _is_property(node):
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in ("property", "cached_property") for d in node.decorator_list)


def _public_routes(tree):
    """``(qualified name, node, kinds)`` of each public module-level function,
    class and assigned name and of each public method of a public class,
    with the kinds of use that count for it: a module-level name by its name
    or as an attribute, a property read as an attribute, a method called as
    one."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from ((t.id, t, ("name", "attribute")) for t in node.targets
                        if isinstance(t, ast.Name) and not t.id.startswith("_"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, ("name", "attribute")
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m,
                             ("attribute",) if _is_property(m) else ("call",))
                            for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_route_has_a_user_outside_the_unit_tests():
    # a field or a variable of a method's name does not count as its use
    readme = doctest.DocTestParser().get_examples((ROOT / "README.md").read_text())
    trees = [ast.parse(p.read_text()) for p in USERS]
    trees += [ast.parse(example.source) for example in readme]
    uses = Counter(use for tree in trees for use in _uses(tree))
    unused = []
    for path in MODULES:
        for qualified, node, kinds in _public_routes(ast.parse(path.read_text())):
            # a route's own body (a recursive call) does not count as a use
            own, name = Counter(_uses(node)), qualified.split(".")[-1]
            if all(uses[kind, name] <= own[kind, name] for kind in kinds):
                unused.append(f"{path.stem}.{qualified}")
    assert sorted(unused) == []


def test_the_route_check_counts_calls_and_reads():
    # a variable or a field of a method's name is no call of it
    tree = ast.parse("coeff = 1\nx.vector = 2\nx.vector\nx.dim\nx.size()\n"
                     "class C:\n    def vector(self): pass\n"
                     "    @property\n    def dim(self): pass\n")
    uses = Counter(_uses(tree))
    assert (uses["call", "coeff"], uses["call", "vector"], uses["call", "size"]) == (0, 0, 1)
    assert (uses["attribute", "vector"], uses["attribute", "dim"]) == (1, 1)
    assert [(q, kinds) for q, _, kinds in _public_routes(tree)] == [
        ("coeff", ("name", "attribute")), ("C", ("name", "attribute")),
        ("C.vector", ("call",)), ("C.dim", ("attribute",))]


def _unbounded_caches(tree):
    """The names of the functions that ``tree`` caches without a size bound:
    decorated with ``cache`` (``functools.cache``) while taking arguments,
    or with ``lru_cache(maxsize=None)``; and ``"lru_cache"`` for each call
    ``lru_cache(maxsize=None)`` elsewhere.  A cache on a function of no
    arguments holds one value."""
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def no_maxsize(call):
        size = call.args[0] if call.args else next(
            (k.value for k in call.keywords if k.arg == "maxsize"), None)
        return isinstance(size, ast.Constant) and size.value is None

    lru = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
           and name(node.func) == "lru_cache" and no_maxsize(node)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            takes = any([a.posonlyargs, a.args, a.vararg, a.kwonlyargs, a.kwarg])
            for d in node.decorator_list:
                if d in lru or takes and name(d) == "cache":
                    found.append(node.name)
    decorators = {id(d) for node in ast.walk(tree) if hasattr(node, "decorator_list")
                  for d in node.decorator_list}
    return found + ["lru_cache" for node in lru if id(node) not in decorators]


def test_no_cache_without_a_bound():
    # a process-wide cache keeps what it holds for the life of the process
    assert [(p.name, f) for p in SRC.glob("*.py")
            for f in _unbounded_caches(ast.parse(p.read_text()))] == []


def test_the_cache_check_flags_what_it_should():
    tree = ast.parse("from functools import cache, lru_cache\nimport functools\n"
                     "@cache\ndef table(n): pass\n"
                     "@functools.cache\ndef keyed(*, k): pass\n"
                     "@cache\ndef parser(): pass\n"
                     "@lru_cache(maxsize=None)\ndef wide(): pass\n"
                     "@functools.lru_cache(None)\ndef wider(n): pass\n"
                     "@lru_cache(maxsize=32)\ndef bounded(n): pass\n"
                     "@lru_cache\ndef default(n): pass\n"
                     "class C:\n    @cache\n    def method(self): pass\n"
                     "f = lru_cache(maxsize=None)(len)\n")
    assert _unbounded_caches(tree) == ["table", "keyed", "wide", "wider", "method",
                                       "lru_cache"]


def test_importing_the_cli_loads_no_mpmath():
    # mpmath is the tests' oracle, not a dependency of the package
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", "import sys, killingtensors.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _self_calls(tree):
    """``module.function`` or ``Class.method`` of each function whose body
    calls it again: by its name, or as ``self.<method>`` / ``cls.<method>``
    within its class."""
    def walk(scope, body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(f"{scope}.{node.name}", node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == node.name and owner is None
                            or isinstance(f, ast.Attribute) and f.attr == node.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id in ("self", "cls", owner)):
                        yield f"{scope}.{node.name}"
                        break
                yield from walk(f"{scope}.{node.name}", node.body, None)

    yield from walk("", tree.body, None)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # a walk by recursion ends in a RecursionError on a deep enough input
    assert [path.stem + name for name in _self_calls(ast.parse(path.read_text()))] == []


def test_the_recursion_check_sees_both_forms():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n"
                     "    def h(self):\n        return h()\n")
    assert list(_self_calls(tree)) == [".f", ".C.g"]
