"""No oracle keeps a memo.  A table, pair or recording oracle answers from
its description, and the opaque-rule ``k2.Oracle`` runs its rule on every
query; the one caller that reads a name on the same code again, the base
realizer, keeps the answers of one evaluation itself.  A ``_memo`` anywhere
in ``src/baire`` would be a per-query cache that no caller asked for, and
fails this test."""

import ast
import tracemalloc
from pathlib import Path

from baire import k2, naming

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"


def memo_assignments(source: str) -> list[tuple[int, str]]:
    """(line, enclosing class or "") of each assignment to an attribute
    ``_memo``, plain, annotated, augmented or by ``setattr``."""
    found = []

    def visit(node: ast.AST, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                targets = [child.target]
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "setattr" and len(child.args) >= 2 \
                    and isinstance(child.args[1], ast.Constant) \
                    and child.args[1].value == "_memo":
                found.append((child.lineno, cls))
            for t in targets:
                for elt in ast.walk(t):
                    if isinstance(elt, ast.Attribute) and elt.attr == "_memo" \
                            and isinstance(elt.ctx, ast.Store):
                        found.append((child.lineno, cls))
            visit(child, cls)

    visit(ast.parse(source), "")
    return found


def test_no_class_keeps_a_memo():
    found = {(path.name, cls): line
             for path in sorted(PACKAGE.glob("*.py"))
             for line, cls in memo_assignments(path.read_text())}
    assert found == {}


def test_a_long_membership_check_holds_no_per_index_state():
    """``spaces check`` on a registry name reads 20,000 indices of one
    opaque oracle; what it holds at its peak must not grow with them (a
    memo of every answer held over 1 MiB here)."""
    f = k2.parse_oracle_spec({"tail": {"kind": "registry", "name": "depth_answer",
                                       "params": {"n": 0, "m": 0}}})
    space = naming.finite_space(3)
    tracemalloc.start()
    try:
        assert space.contains_name(f, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_the_guard_sees_each_form_of_a_memo():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self._memo = {}\n"
              "class B(A):\n"
              "    def f(self):\n"
              "        self._memo: dict = {}\n"
              "        self.inner._memo |= {}\n"
              "        setattr(self, '_memo', {})\n"
              "def g(o):\n"
              "    o._memo, o.x = {}, 1\n"
              "    o._memo[3] = 4\n"
              "    return o._memo.get(3)\n")
    assert memo_assignments(source) == [(3, "A"), (6, "B"), (7, "B"), (8, "B"),
                                        (10, "")]
