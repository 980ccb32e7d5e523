"""Every command line ends in one of the three documented outcomes.

Hypothesis builds argv for every subcommand from small grammars of valid
and malformed specs, with negative and zero numbers, and runs it in
process.  Exit 0 and 3 print exactly one JSON document with
``schema_version`` "1"; exit 2 prints nothing on stdout and an
``error: `` line on stderr; no input ends in a traceback.

Fuel and n stay small where a scan has no depth cap of its own: at most
20 for ``k2 star``/``bullet`` and ``bdn extract``, at most 14 for ``k2
bar``, since every further step squares a sequence code (``bdn extract
--g const:0 --h const:0`` takes about 0.2 s at fuel 20 and 5 s at 26).
``splitter run`` stops after two stages: its state doubles with every
entry, and a third stage can take seconds inside the state cap.
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


def maybe(strategy):
    return st.none() | strategy


def command(words: str, **flags):
    """argv of the given words and one ``--flag=value`` per drawn value; a
    flag whose strategy draws None is left out."""
    return st.fixed_dictionaries(flags).map(lambda drawn: words.split() + [
        f"--{flag}={value}" for flag, value in drawn.items() if value is not None])


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
     '{"tail":{"kind":"torus"}}'])
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
     '{"tail":{"kind":"constant","value":[1]}}'])
THETAS = specs(
    ['[{"sigma":[[0,1]],"n":1},{"sigma":[[0,2]],"n":1}]',
     '[{"sigma":[[0,1]],"n":3}]', '[{"sigma":[],"n":0}]', "[]"],
    ['[{"sigma":[[0,1]],"n":-1}]', '[{"sigma":[[-1,1]],"n":1}]',
     '[{"sigma":5,"n":1}]', '[{"n":1}]', "5"])

COMMANDS = st.one_of(
    command("k2 encode", seq=specs(["", "3,1,4", "0", ",".join(["1"] * 16)],
                                   ["-1", "x", "1,,2"])),
    command("k2 decode", code=ints(-2, 10 ** 6)),
    command("k2 bar", f=ORACLES, n=ints(-2, 14)),
    command("k2 star", f=ORACLES, g=ORACLES, fuel=ints(-2, 20)),
    command("k2 star --track", f=ORACLES, g=ORACLES, fuel=ints(-2, 20)),
    command("k2 bullet", f=ORACLES, g=ORACLES, k=ints(-2, 3), fuel=ints(-2, 20)),
    command("reals approx", x=REALS, prec=ints(-3, 40)),
    command("reals from-rational", q=RATIONALS, prec=ints(-3, 40)),
    command("reals compare", x=REALS, q=RATIONALS, prec=ints(-3, 40)),
    command("reals max", x=REALS, y=REALS, prec=ints(-3, 40)),
    command("spaces check", space=SPACES, name=ORACLES, horizon=ints(-2, 20)),
    command("spaces dist", space=SPACES, f=ORACLES, g=ORACLES, prec=ints(-3, 20)),
    command("antispecker demo", space=SPACES, sequence=NAME_SEQUENCES,
            avoidance=maybe(AVOIDANCES), fuel=maybe(ints(-2, 60))),
    command("antispecker covers", space=SPACES, theta=THETAS,
            depth=maybe(ints(-2, 4))),
    command("antispecker probe", space=SPACES, budget=ints(-2, 20)),
    command("splitter run", x=SEQUENCES, b=SEQUENCES, stages=ints(-2, 2)),
    command("splitter run --verify", x=SEQUENCES, b=SEQUENCES, stages=ints(-2, 2)),
    command("rpt fabar", a=SEQUENCES, p=PERMUTATIONS, n=ints(-2, 4),
            stages=maybe(ints(-2, 3))),
    command("rpt decide", a=SEQUENCES, p=PERMUTATIONS, n=ints(-2, 4),
            m=ints(-3, 8), stages=maybe(ints(-2, 3))),
    command("pc realize", x=SEQUENCES, f=ORACLES, g=ORACLES, n=ints(-3, 6)),
    command("bdn extract", g=ORACLES, h=ORACLES, fuel=ints(-2, 20)),
    command("bdn adversary", alpha=ORACLES, fuel=ints(-2, 300)),
    command("selftest", only=st.just("no-such-criterion")),
)


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
