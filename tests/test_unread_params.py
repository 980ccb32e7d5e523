"""Every parameter of a module-level function in ``src/baire`` is read in
its body, where a nested function or lambda that reads it counts.  A
parameter that nothing reads misleads every caller that passes it.

Methods, nested functions and lambdas are out of scope: ``Space``, a
realizer's ``evaluate`` and the oracle registry fix their signatures, so
they may take what they do not read.  ``ALLOWED`` names each parameter
kept unread on purpose, with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"

ALLOWED = {
    ("cauchy", "exact_modulus", "horizon"):
        "the benchmark's split workload passes it",
    ("bdn", "extract_bound", "g"):
        "the benchmark's stream workload passes it",
}


def unread_parameters(source: str, module: str) -> set:
    """(module, function, parameter) for each parameter of a module-level
    function that no load in its body reads."""
    unread = set()
    for fn in ast.parse(source).body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {(module, fn.name, p) for p in params if p not in read}
    return unread


def test_every_parameter_of_a_module_function_is_read():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= unread_parameters(path.read_text(), path.stem)
    assert found == set(ALLOWED)


def test_the_check_sees_an_unread_parameter():
    source = ('def f(a, b, *rest, c=1, **kw):\n'
              '    return a + (lambda: c)() + len(rest)\n'
              'class K:\n'
              '    def method(self, unused):\n'
              '        return 0\n'
              'def g(x):\n'
              '    def inner(y):\n'
              '        return 0\n'
              '    x = 1\n'
              '    return inner\n')
    assert unread_parameters(source, "m") == {("m", "f", "b"), ("m", "f", "kw"),
                                              ("m", "g", "x")}
