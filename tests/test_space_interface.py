"""A registry space is one object, with no interface stubs behind it.

``naming.Space`` only documents the methods every registry space defines;
it defines none of them.  A stub that raises ``NotImplementedError``
anywhere in ``src/baire`` is code that never runs, and fails the first
test.  The second reads the method list from the ``Space`` docstring and
checks that Cantor, finite and product spaces each define every listed
method in their own class body (``base_member`` in Cantor and finite
spaces only), and that ``Space`` defines none."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"
SPACES = {"CantorSpace": set(), "FiniteSpace": set(),
          "ProductSpace": {"base_member"}}


def not_implemented_raises(source: str) -> list[int]:
    """The lines that raise ``NotImplementedError``, bare or called."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                lines.append(node.lineno)
    return lines


def listed_methods(docstring: str) -> set[str]:
    """The names of the ``- ``name(...)``: ...`` items of a docstring."""
    return set(re.findall(r"^\s*- ``(\w+)\(", docstring, re.MULTILINE))


def class_methods(tree: ast.Module) -> dict[str, set[str]]:
    return {node.name: {item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)}
            for node in tree.body if isinstance(node, ast.ClassDef)}


def test_no_stub_raises_not_implemented():
    found = {path.name: not_implemented_raises(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_each_form_of_a_stub():
    source = ("class A:\n"
              "    def f(self):\n"
              "        raise NotImplementedError\n"
              "    def g(self):\n"
              "        raise NotImplementedError('g')\n"
              "    def h(self):\n"
              "        raise ValueError('NotImplementedError')\n"
              "    def k(self):\n"
              "        return NotImplemented\n")
    assert not_implemented_raises(source) == [3, 5]


def test_every_registry_space_defines_the_listed_methods():
    tree = ast.parse((PACKAGE / "naming.py").read_text())
    space = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Space")
    listed = listed_methods(ast.get_docstring(space))
    assert {"contains_name", "dist_hat", "atom_constraints", "base_member",
            "sample_point"} <= listed
    methods = class_methods(tree)
    assert methods["Space"] == set()
    missing = {name: sorted(listed - lacks - methods[name])
               for name, lacks in SPACES.items()}
    assert missing == {name: [] for name in SPACES}
