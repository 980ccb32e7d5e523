"""Every function, class, method and module-level name that ``src/baire``
defines is reached by the program: ``src``, ``perfbench`` or ``scripts``
uses its name.  A use is a name or an attribute that is read, an imported
name, or a string constant that is the name (``perfbench`` looks some
methods up by string); assigning a name is not a use of it.  Uses inside a
definition of the same name do not count, so a method that only its own
overrides call is unreached.  A name that only tests reach is code the
package carries for nothing; the few kept on purpose as test oracles are
listed, each with its reason, and uses inside them do not count either."""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baire"
PROGRAM = ("src", "perfbench", "scripts")

TEST_ORACLES = {
    "total_abs": "the splitter's absolute mass, read by tests/cauchy_reference.py",
    "from_values": "builds the finitely described names the tests feed in",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.cache
def _defined_names() -> set[str]:
    """Top-level functions, classes and assigned names of the package, and
    the methods of those classes, without dunders."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _used_name(node: ast.AST):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return node.value
    return None


def _count(node: ast.AST, enclosing: frozenset, uses: Counter) -> None:
    """Count the uses under ``node``, less those inside a definition of the
    same name and those inside a test oracle."""
    if isinstance(node, DEFINITIONS):
        if node.name in TEST_ORACLES:
            return
        enclosing = enclosing | {node.name}
    name = _used_name(node)
    if name is not None and name not in enclosing:
        uses[name] += 1
    for child in ast.iter_child_nodes(node):
        _count(child, enclosing, uses)


@functools.cache
def _uses() -> Counter:
    uses: Counter = Counter()
    for top in PROGRAM:
        for path in (ROOT / top).rglob("*.py"):
            _count(ast.parse(path.read_text()), frozenset(), uses)
    return uses


def test_every_package_name_is_reached_by_the_program():
    uses = _uses()
    unreached = sorted(n for n in _defined_names()
                       if uses[n] <= 0 and n not in TEST_ORACLES)
    assert unreached == []


def test_the_kept_test_oracles_are_still_defined_and_otherwise_unreached():
    # an entry whose name the program now reaches, or that is gone, is stale
    uses = _uses()
    defined = _defined_names()
    assert all(n in defined and uses[n] <= 0 for n in TEST_ORACLES)


def test_a_use_inside_its_own_definition_does_not_count():
    tree = ast.parse("class A:\n    def walk(self):\n        return self.left.walk()\n"
                     "def run(x):\n    return x.step, getattr(x, 'hop')\n")
    uses: Counter = Counter()
    _count(tree, frozenset(), uses)
    assert uses["walk"] == 0 and uses["step"] == 1 and uses["hop"] == 1


def test_assigning_a_name_is_not_a_use_of_it():
    tree = ast.parse("LIMIT = 5\nALIAS = int\nobj.cap = LIMIT\n")
    uses: Counter = Counter()
    _count(tree, frozenset(), uses)
    assert uses["LIMIT"] == 1 and uses["int"] == 1
    assert uses["ALIAS"] == 0 and uses["cap"] == 0
