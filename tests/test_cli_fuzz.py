"""Every command line ends in one of the three documented outcomes.

Hypothesis builds argv for every command of ``cli.COMMANDS`` and runs it
in process.  Each option of the op is drawn from the pools of its kind,
valid and malformed specs, negative and zero numbers; it is given once
most of the time, and sometimes twice or not at all.  Exit 0 and 3 print
exactly one JSON document with ``schema_version`` "1"; exit 2 prints
nothing on stdout and an ``error: `` line on stderr; no input ends in a
traceback.

Counts stay small where a larger one costs seconds, and an option whose
default lies past its bound is always given:
- fuel at most 20 for ``k2 star``/``bullet`` and ``bdn extract``, since
  these scans have no depth cap of their own and every further step
  squares a sequence code (``bdn extract --g const:0 --h const:0`` takes
  about 0.2 s at fuel 20 and 5 s at 26);
- n at most 64 for ``k2 bar``, and ``k2 encode`` lists of up to 40
  entries: these codes are refused from their size before any is built
  past the digit limit, so a long one costs about what a short one does;
- stages at most 2 for ``splitter run``: its state doubles with every
  entry, and a third stage can take seconds inside the state cap;
- a probe's budget at most 200, its default, so that it may be left out
  (a probe of budget 200 takes about 0.03 s on every space of the pool);
- the rest keep each run short: a demo's fuel, the adversary's fuel, a
  covering depth, a precision.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from baire import cli


def ints(lo: int, hi: int):
    """Numbers in [lo, hi], about half of them zero or negative."""
    return (st.integers(lo, 0) | st.integers(0, hi)).map(str)


def specs(valid: list, malformed: list):
    """A spec of the valid pool two times in three, else a malformed one."""
    return st.sampled_from(valid * 2 + malformed)


ORACLES = specs(
    ["const:0", "const:1", "const:2", "identity", "star",
     '{"table":[[0,1],[1,2]],"tail":{"kind":"constant","value":1}}',
     '{"table":[[0,2]],"tail":{"kind":"constant","value":2}}',
     '{"tail":{"kind":"registry","name":"depth_answer",'
     '"params":{"depth":2,"n":0,"m":1}}}',
     '{"tail":{"kind":"registry","name":"eval_arg"}}',
     '{"tail":{"kind":"registry","name":"identity"}}'],
    ["const:-1", "const:x", "nope:1", "5", "[]", '{"table":5}',
     '{"table":[[0,-1]]}', '{"tail":{"kind":"constant","value":[1]}}',
     '{"tail":{"kind":"registry","name":"depth_answer","params":7}}',
     '{"tail":{"kind":"torus"}}', '{"table":[[0,1.5]]}'])
SPACES = specs(
    ['{"kind":"cantor"}', '{"kind":"cantor","swapped":true}',
     '{"kind":"finite","n":2}', '{"kind":"finite","n":1}',
     '{"kind":"product","left":{"kind":"cantor"},"right":{"kind":"finite","n":2}}'],
    ['{"kind":"finite","n":0}', '{"kind":"finite","n":-2}', '{"kind":"product"}',
     '{"kind":"torus"}', '"cantor"', "[1]"])
REALS = specs(
    ['{"rational":"0"}', '{"rational":"1/3"}', '{"rational":"-7/5"}',
     '{"int":0,"digits":[1,0,-1],"tail":"zero"}',
     '{"int":-1,"digits":[1],"tail":{"kind":"constant","digit":1}}'],
    ['{"rational":"1/0"}', '{"rational":"x"}', '{"digits":[2]}',
     '{"digits":"abc"}', '{"tail":"repeat"}', '{"tail":{"kind":"geometric"}}',
     '{"tail":{"kind":"constant","digit":[1]}}', '"1/3"', "[]"])
RATIONALS = specs(["0", "1", "1/3", "-37/11", "5/4"], ["1/0", "x", ""])
SEQUENCES = specs(
    ['{"prefix":["1"],"tail":{"kind":"zero"}}', '{"prefix":["1/3","1/8"]}',
     '{"prefix":["2","0","1/5"]}', '{"prefix":[]}',
     '{"prefix":[],"tail":{"kind":"geometric","base":"1","ratio":"1/2"}}',
     '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}',
     '{"prefix":["1/2","9/16"],"tail":{"kind":"constant","value":"9/16"}}',
     "dyadic"],
    ['{"prefix":["-1"]}', '{"prefix":["1/0"]}', '{"prefix":[[1]]}',
     '{"prefix":["1"],"tail":{"kind":"sine"}}', '{"tail":5}', '"zero"', "7"])
PERMUTATIONS = specs(
    ["identity", '{"table":[[0,1],[1,0]]}', '{"table":[[0,4],[4,8],[8,0]]}',
     '{"table":[]}'],
    ['{"table":[[0,0],[1,0]]}', '{"table":[[0,-1],[-1,0]]}', '{"table":[[0]]}',
     '{"table":5}', "reverse"])
NAME_SEQUENCES = specs(
    ["all-star", '{"names":["const:1","star"],"tail":"star"}',
     '{"names":["const:2"],"tail":"repeat"}'],
    ['{"names":5}', '{"names":["const:x"]}', '{"names":[],"tail":"repeat"}'])
AVOIDANCES = specs(
    ['{"kind":"onset","depth":2,"radius_exp":1}', '{"kind":"onset","depth":0}',
     "const:0"],
    ['{"kind":"onset","depth":-1}', '{"kind":"onset","radius_exp":"x"}',
     '{"kind":"onset","depth":1.9}', '{"tail":{"kind":"constant","value":[1]}}'])
THETAS = specs(
    ['[{"sigma":[[0,1]],"n":1},{"sigma":[[0,2]],"n":1}]',
     '[{"sigma":[[0,1]],"n":3}]', '[{"sigma":[],"n":0}]', "[]"],
    ['[{"sigma":[[0,1]],"n":-1}]', '[{"sigma":[[-1,1]],"n":1}]',
     '[{"sigma":5,"n":1}]', '[{"n":1}]', "5"])

POOLS = {"oracle": ORACLES, "space": SPACES, "real": REALS, "rational": RATIONALS,
         "sequence": SEQUENCES, "permutation": PERMUTATIONS,
         "names": NAME_SEQUENCES, "avoidance": AVOIDANCES, "theta": THETAS,
         "naturals": specs(["", "3,1,4", "0", ",".join(["1"] * 16),
                            ",".join(map(str, range(40)))],
                           ["-1", "x", "1,,2"]),
         "text": st.just("no-such-criterion")}

# the largest count drawn, by option, or by (group, op, option) where an op
# needs a tighter bound than the others
BOUNDS = {"fuel": 20, "n": 4, "k": 3, "m": 8, "code": 10 ** 6, "prec": 40,
          "horizon": 20, "depth": 4, "budget": 200, "stages": 3,
          ("k2", "bar", "n"): 64, ("spaces", "dist", "prec"): 20,
          ("antispecker", "demo", "fuel"): 60, ("splitter", "run", "stages"): 2,
          ("pc", "realize", "n"): 6, ("bdn", "adversary", "fuel"): 300}


def bound(group, op, name) -> int:
    return BOUNDS.get((group, op, name), BOUNDS[name])


def pool(group, op, name, kind):
    if kind == "natural":
        return ints(-3, bound(group, op, name))
    return POOLS[kind]


def may_omit(group, op, name, option) -> bool:
    """Whether leaving the option out costs no more than giving it: its
    default is a count within its bound, or no count at all."""
    if option.kind == "natural" and option.default not in (None, cli.NEEDED):
        return int(option.default) <= bound(group, op, name)
    return (group, name) != ("selftest", "only")  # all of the scorecard


def occurrences(group, op, name, option):
    """``--name=value`` once most of the time, else twice, or not at all
    where that is cheap; a flag is ``--name`` or nothing."""
    if option.kind == "flag":
        return st.sampled_from([[], [f"--{name}"]])
    counts = [1, 1, 1, 2] + ([0] if may_omit(group, op, name, option) else [])
    values = pool(group, op, name, option.kind)
    return st.sampled_from(counts).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n)).map(
        lambda drawn: [f"--{name}={value}" for value in drawn])


def command(group, op, options):
    words = [group] if op is None else [group, op]
    return st.tuples(*(occurrences(group, op, name, option)
                       for name, option in options.items())).map(
        lambda parts: words + [arg for part in parts for arg in part])


COMMANDS = st.one_of(*(command(group, op, options)
                       for (group, op), (_, options) in cli.COMMANDS.items()))


@settings(max_examples=200)
@given(COMMANDS)
def test_every_command_line_is_one_document_or_one_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, out, err)
    else:
        doc = json.loads(out)  # exactly one document, nothing after it
        assert doc["schema_version"] == "1"
