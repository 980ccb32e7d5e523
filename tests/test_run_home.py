"""No module keeps state that a call changes.  What ``src/baire`` keeps
across calls, the canonical bases, the ``covers`` reports and their one
atom count, lives in an ``antispecker.Run``, which a caller can open
afresh.  A ``global`` statement, or a function that changes a dict, list
or set bound at module level, would be a second store outside every run,
and fails this test.  The module-level tables (``COMMANDS``, ``KINDS``,
``GROUPS``, ``ORACLE_REGISTRY``, ``CRITERIA``) are built at import and
only read."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "baire"

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                   "deque"}
MUTATORS = {"append", "appendleft", "clear", "difference_update", "discard",
            "extend", "extendleft", "insert", "intersection_update", "pop",
            "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
            "symmetric_difference_update", "update", "add"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_containers(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in CONTAINER_CALLS):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def state_writes(source: str) -> list[tuple[int, str]]:
    """(line, form) of each ``global`` statement, and of each change a
    function makes to a module-level dict, list or set: a subscript store
    or ``del``, an augmented assignment, or a call of a mutating method."""
    tree = ast.parse(source)
    shared = module_containers(tree)
    found = []

    def named(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in shared

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append((child.lineno, "global " + ", ".join(child.names)))
            elif in_function:
                if isinstance(child, ast.Subscript) and named(child.value) \
                        and isinstance(child.ctx, (ast.Store, ast.Del)):
                    kind = "del" if isinstance(child.ctx, ast.Del) else "store"
                    found.append((child.lineno, f"{kind} {child.value.id}[]"))
                elif isinstance(child, ast.AugAssign) and named(child.target):
                    found.append((child.lineno, f"{child.target.id} op="))
                elif isinstance(child, ast.Delete):
                    found.extend((child.lineno, f"del {t.id}")
                                 for t in child.targets if named(t))
                elif isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and named(child.func.value) and child.func.attr in MUTATORS:
                    found.append((child.lineno,
                                  f"{child.func.value.id}.{child.func.attr}()"))
            visit(child, in_function or isinstance(child, FUNCTIONS))

    visit(tree, False)
    return found


def test_no_module_keeps_state_outside_a_run():
    found = {(path.name, line): form
             for path in sorted(PACKAGE.glob("*.py"))
             for line, form in state_writes(path.read_text())}
    assert found == {}


def test_the_tables_are_seen_and_only_read():
    tables = set()
    for path in PACKAGE.glob("*.py"):
        tables |= module_containers(ast.parse(path.read_text()))
    assert {"COMMANDS", "KINDS", "GROUPS", "ORACLE_REGISTRY", "CRITERIA"} <= tables


def test_the_guard_sees_each_form_of_a_write():
    source = ("TABLE = {}\n"
              "SEEN: set = set()\n"
              "ORDER = [k for k in range(3)]\n"
              "COUNT = 0\n"
              "TABLE['import'] = 1\n"
              "def f(k):\n"
              "    global COUNT\n"
              "    COUNT += 1\n"
              "    TABLE[k] = TABLE.get(k, 0)\n"
              "    del TABLE[k]\n"
              "    TABLE[k] += 1\n"
              "    ORDER[:] = []\n"
              "class C:\n"
              "    def g(self):\n"
              "        SEEN.add(1)\n"
              "        TABLE.clear()\n"
              "        TABLE.update(a=1)\n"
              "        ORDER.append(2)\n"
              "        return lambda: TABLE.setdefault(3, 4)\n"
              "def h():\n"
              "    global ORDER\n"
              "    ORDER += [1]\n"
              "    del ORDER\n"
              "    self_table = {}\n"
              "    self_table.clear()\n"
              "    return TABLE.get(1), len(SEEN), sorted(ORDER)\n")
    assert state_writes(source) == [
        (7, "global COUNT"), (9, "store TABLE[]"), (10, "del TABLE[]"),
        (11, "store TABLE[]"), (12, "store ORDER[]"), (15, "SEEN.add()"),
        (16, "TABLE.clear()"), (17, "TABLE.update()"), (18, "ORDER.append()"),
        (19, "TABLE.setdefault()"), (21, "global ORDER"), (22, "ORDER op="),
        (23, "del ORDER")]
