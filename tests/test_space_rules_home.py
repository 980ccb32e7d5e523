"""The rules of a space's naming live in ``naming.py``: which names lie in
an atom, what the canonical base is.  Any other module of ``src/baire``
that compares an attribute ``.kind`` with a registry kind (``"cantor"``,
``"finite"``, ``"product"``) is re-deriving one of them with a string
switch, and fails this test; it should ask the space instead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"
HOME = "naming.py"
KINDS = {"cantor", "finite", "product"}


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
