"""Source hygiene: every name a package module imports is read somewhere in
it, every private helper is used somewhere in the package, and every public
function and class is used by a program.

No linter is a dependency of the package, so this is the lint step: it
parses each module of ``src/forestmaps`` with :mod:`ast` and reports
imported names that the module never loads, private top-level functions
and classes that no module refers to, and public ones that no program, a
Python file under ``src/``, ``demos/`` or ``perfbench/``, refers to.  A
test's use does not count: a reference only the tests call belongs in the
tests.  A name listed in the module's ``__all__`` counts as read, so
re-exports stay legal.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "forestmaps"
MODULES = sorted(SRC.glob("*.py"))
# the programs outside the package that may use its public names; the
# benchmark names the functions it calls and traces in strings "module.name"
PROGRAMS = sorted(path for top in ("demos", "perfbench") for path in (ROOT / top).rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Every name the module loads, the strings of its ``__all__`` and the
    names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    for ann in _annotations(tree):
        # string annotations such as "ZSeries" under postponed evaluation
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                expr = ast.parse(sub.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    read = _read(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


def test_the_checker_sees_an_unused_import():
    src = "from typing import List, Optional\nimport math\nx: Optional[int] = math.pi\n"
    assert unused_imports(src) == [("List", 1)]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def _defs(tree, private):
    """(name, line) of every private (or every public) top-level function
    and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("__") and node.name.startswith("_") == private:
            yield node.name, node.lineno


def _referenced(tree):
    """Every name the module loads, imports or reads as an attribute."""
    names = _read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dotted(tree):
    """The names in the module's strings "module.name" and
    "module.Class.method", the way the benchmark names what it calls and
    traces."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[a-z_]\w*(\.\w+)+", node.value):
            yield from node.value.split(".")[1:]


def dead_defs(sources, private=True, readers=(), named=()):
    """(module, name, line) of each private (or public) top-level function
    or class of the modules {module: source} that none of them, nor any of
    the sources `readers`, refers to; nor, in the sources `named`, a
    dotted string (see :func:`_dotted`)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(_referenced, trees.values()),
                       *(_referenced(ast.parse(source)) for source in readers),
                       *(_dotted(ast.parse(source)) for source in named))
    return [(module, name, line) for module, tree in trees.items()
            for name, line in _defs(tree, private) if name not in used]


def test_the_checker_sees_a_dead_private_helper():
    sources = {"a": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\nclass _Gone:\n"
                    "    def _method(self):\n        pass\n",
               "b": "from .a import _used\n_used()\n"}
    assert dead_defs(sources) == [("a", "_dead", 5), ("a", "_Gone", 9)]


def test_every_private_helper_is_referenced():
    assert dead_defs({path.name: path.read_text() for path in MODULES}) == []


def test_the_checker_sees_a_dead_public_name():
    sources = {"a": "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\ndef read():\n"
                    "    pass\n\n\nclass Gone:\n    def method(self):\n        pass\n",
               "b": "from .a import used\n"}
    # a reader outside the package counts; prose in a docstring does not
    readers = ["from forestmaps import a\na.read()\n", '"""Gone is dead."""\n']
    assert dead_defs(sources, private=False, readers=readers) == [("a", "dead", 5),
                                                                  ("a", "Gone", 13)]


def test_the_checker_sees_a_test_only_public_name():
    sources = {"a": "def shipped():\n    pass\n\n\ndef tested():\n    pass\n\n\n"
                    "def traced():\n    pass\n",
               "b": "from .a import shipped\n"}
    programs = ['TARGETS = ("a.traced",)\n']
    # a test's import does not count, and a dotted string counts only in
    # the sources scanned for them
    assert dead_defs(sources, private=False, readers=programs, named=programs) == \
        [("a", "tested", 5)]
    assert dead_defs(sources, private=False, readers=programs) == \
        [("a", "tested", 5), ("a", "traced", 9)]


def test_every_public_name_is_reached_by_a_program():
    sources = {path.name: path.read_text() for path in MODULES}
    assert dead_defs(sources, private=False, readers=[path.read_text() for path in PROGRAMS],
                     named=[path.read_text() for path in BENCHMARK]) == []
