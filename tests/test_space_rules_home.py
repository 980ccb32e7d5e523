"""The rules of a space's naming live in ``naming.py``: which names lie in
an atom, what the canonical base is, which spaces are the registry's.  Any
other module of ``src/baire`` that compares an attribute ``.kind`` with a
registry kind (``"cantor"``, ``"finite"``, ``"product"``) is re-deriving
one of them with a string switch, and one that compares ``type(x)`` with a
space class of ``naming`` is re-deriving one with a type switch; either
fails this test, and should ask the space, or ``naming``, instead."""

import ast
import inspect
from pathlib import Path

from baire import naming

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"
HOME = "naming.py"
KINDS = {"cantor", "finite", "product"}
SPACE_CLASSES = {name for name, obj in vars(naming).items()
                 if inspect.isclass(obj) and issubclass(obj, naming.Space)}


def _constants(node: ast.AST) -> set:
    if isinstance(node, ast.Constant):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {v for elt in node.elts for v in _constants(elt)}
    return set()


def kind_switches(source: str) -> list[int]:
    """The lines comparing some ``x.kind`` with a registry kind, alone or
    in a tuple, list or set (``in``/``not in``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides) \
                and any(_constants(s) & KINDS for s in sides):
            lines.append(node.lineno)
    return lines


def _names(node: ast.AST) -> set:
    """The names a comparison side refers to: a bare or dotted name, alone
    or in a tuple, list or set."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {v for elt in node.elts for v in _names(elt)}
    return set()


def type_switches(source: str) -> list[int]:
    """The lines comparing some ``type(x)`` with a space class of
    ``naming`` (``is``, ``is not``, ``==``, ``!=``, ``in``, ``not in``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(isinstance(s, ast.Call) and isinstance(s.func, ast.Name)
               and s.func.id == "type" for s in sides) \
                and any(_names(s) & SPACE_CLASSES for s in sides):
            lines.append(node.lineno)
    return lines


def test_only_naming_switches_on_the_space_kind():
    found = {path.name: kind_switches(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != HOME}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_form_of_a_kind_switch():
    source = ('if space.kind == "cantor": pass\n'
              'if "product" != self.space.kind: pass\n'
              'if m.kind not in ("cantor", "finite"): pass\n'
              'if doc.get("kind") == "cantor": pass\n'
              'if space.kind == "onset": pass\n'
              'kind = space.kind\n')
    assert kind_switches(source) == [1, 2, 3]


def test_only_naming_switches_on_the_space_type():
    found = {path.name: type_switches(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != HOME}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_form_of_a_type_switch():
    source = ('if type(space) is ProductSpace: pass\n'
              'if naming.CantorSpace is not type(m): pass\n'
              'if type(space) in (CantorSpace, FiniteSpace): pass\n'
              'if type(space) == naming.FiniteSpace: pass\n'
              'if type(space) is Fraction: pass\n'
              'if isinstance(space, ProductSpace): pass\n'
              'if space is CantorSpace: pass\n')
    assert type_switches(source) == [1, 2, 3, 4]
