"""Every function, class and method that ``src/baire`` defines is reached
by the program: its name occurs in ``src``, ``perfbench`` or ``scripts``
somewhere other than the line that defines it.  A name that only tests
reach is code the package carries for nothing; the few kept on purpose as
test oracles are listed, each with its reason."""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baire"
PROGRAM = ("src", "perfbench", "scripts")

TEST_ORACLES = {
    "point_in_atom": "exact membership oracle of the product-atom tests (claim 3)",
    "total_abs": "the splitter's absolute mass, read by tests/cauchy_reference.py",
    "from_values": "builds the finitely described names the tests feed in",
}


@functools.cache
def _defined_names() -> set[str]:
    """Top-level functions and classes of the package, and the methods of
    those classes, without dunders."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


@functools.cache
def _uses() -> Counter:
    """Word occurrences over the program's Python files, less one for each
    line that defines a function or class of that name."""
    words: Counter = Counter()
    for top in PROGRAM:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text()
            words.update(re.findall(r"\w+", text))
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    words[node.name] -= 1
    return words


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
