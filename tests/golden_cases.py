"""The command lines of the golden outputs, and their replay and recording.

Each case is one command line of ``baire``; its exact stdout and exit
code are kept in ``tests/golden/<case>.out`` and
``tests/golden/exit_codes.json``.  The cases are every command line
example of the README, at least one case of every op in
``cli.COMMANDS``, and the commands that cross the space, base and
realizer code, the protected splitter, the window search, scans that run
out of fuel and long approximations of reals.  ``baire selftest`` is left
out: it prints timings.

This module imports no test framework, so any interpreter that runs the
package can replay the cases.  To print each case's exit code and output
as one JSON document:

    PYTHONPATH=src python tests/golden_cases.py --replay

To record the goldens again after a deliberate change of output:

    PYTHONPATH=src python tests/golden_cases.py
"""

import contextlib
import io
import json
import pathlib
import sys

from baire import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

PRODUCT = ('{"kind":"product","left":{"kind":"cantor"},'
           '"right":{"kind":"finite","n":2}}')
NESTED_PRODUCT = '{"kind":"product","left":{"kind":"cantor"},"right":' + PRODUCT + '}'
# steps 1/2, 1/16, 1/64: blocks of 3, 3 and 3 entries
THREE_STEPS = '{"prefix":["1/2","9/16","37/64"],"tail":{"kind":"constant","value":"37/64"}}'
CYCLES = '{"table":[[0,4],[4,8],[8,0],[1,2],[2,1],[10,11],[11,10]]}'
# one step of 2^-70: its least modulus rises past exponent 65
STEP_2_70 = ('{"prefix":["1/2","590295810358705651713/1180591620717411303424"],'
             '"tail":{"kind":"constant","value":"590295810358705651713/1180591620717411303424"}}')

CASES = {
    # the README examples, in README order
    "readme-k2-star-exhausted": [
        "k2", "star", "--f", "const:0", "--g", "const:0", "--fuel", "10"],
    "readme-k2-encode": ["k2", "encode", "--seq", "3,1,4"],
    "readme-reals-from-rational": [
        "reals", "from-rational", "--q", "1/3", "--prec", "10"],
    "readme-reals-max": [
        "reals", "max", "--x", '{"rational":"0"}', "--y", '{"rational":"1"}',
        "--prec", "5"],
    "readme-spaces-dist": [
        "spaces", "dist", "--space", '{"kind":"cantor"}',
        "--f", '{"table":[[0,1]],"tail":{"kind":"constant","value":2}}',
        "--g", "const:1"],
    "readme-antispecker-demo": [
        "antispecker", "demo", "--space", '{"kind":"cantor"}',
        "--sequence", "all-star"],
    "readme-antispecker-probe": [
        "antispecker", "probe", "--space", '{"kind":"finite","n":2}',
        "--budget", "200"],
    "readme-splitter-run": [
        "splitter", "run", "--x", '{"prefix":["1"],"tail":{"kind":"zero"}}',
        "--b", "dyadic", "--stages", "1", "--verify"],
    "readme-rpt-fabar": [
        "rpt", "fabar",
        "--a", '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}',
        "--n", "3"],
    "readme-pc-realize": [
        "pc", "realize",
        "--x", '{"prefix":[],"tail":{"kind":"geometric","base":"1","ratio":"1/2"}}',
        "--f", '{"tail":{"kind":"registry","name":"identity"}}',
        "--g", "identity", "--n", "4"],
    "readme-bdn-adversary": ["bdn", "adversary", "--alpha", "const:3"],
    # the ops no README example runs
    "k2-decode-readme-code": ["k2", "decode", "--code", "2633"],
    "k2-bar-table": [
        "k2", "bar",
        "--f", '{"table":[[0,1],[1,2]],"tail":{"kind":"constant","value":1}}',
        "--n", "3"],
    "reals-compare-above": [
        "reals", "compare", "--x", '{"rational":"1/3"}', "--q", "1/4",
        "--prec", "8"],
    "bdn-extract-constant": [
        "bdn", "extract", "--g", "const:0",
        "--h", '{"tail":{"kind":"constant","value":2}}', "--fuel", "20"],
    # spaces
    "spaces-check-product": [
        "spaces", "check", "--space", PRODUCT,
        "--name", '{"table":[[0,1],[1,2]],"tail":{"kind":"constant","value":2}}'],
    "spaces-check-product-outside": [
        "spaces", "check", "--space", PRODUCT, "--name", "const:3"],
    "spaces-dist-product": [
        "spaces", "dist", "--space", PRODUCT,
        "--f", '{"table":[[0,2],[2,1]],"tail":{"kind":"constant","value":2}}',
        "--g", "const:2", "--prec", "12"],
    "spaces-dist-star-name": [
        "spaces", "dist", "--space", '{"kind":"cantor"}',
        "--f", "const:0", "--g", "const:1"],
    # antispecker
    "antispecker-demo-product": [
        "antispecker", "demo", "--space", PRODUCT,
        "--sequence", '{"names":["const:1",{"table":[[0,2],[1,1]],'
                      '"tail":{"kind":"constant","value":1}},"star"],'
                      '"tail":"star"}',
        "--avoidance", '{"kind":"onset","depth":2,"radius_exp":1}'],
    "antispecker-demo-product-exhausted": [
        "antispecker", "demo", "--space", PRODUCT,
        "--avoidance", '{"kind":"onset","depth":3}', "--fuel", "5"],
    "antispecker-covers-cantor": [
        "antispecker", "covers", "--space", '{"kind":"cantor"}',
        "--theta", '[{"sigma":[[0,1]],"n":1},{"sigma":[[0,2]],"n":1}]'],
    "antispecker-covers-product-witness": [
        "antispecker", "covers", "--space", PRODUCT,
        "--theta", '[{"sigma":[[0,1]],"n":1},{"sigma":[[0,2],[1,1]],"n":1}]'],
    # depth 0 leaves the one cell neither inside the atom nor outside it
    "antispecker-covers-undecided-depth": [
        "antispecker", "covers", "--space", '{"kind":"cantor"}',
        "--theta", '[{"sigma":[[0,1]],"n":3}]', "--depth", "0"],
    # 2^1000001 cells at the default depth: refused before the scan
    "antispecker-covers-past-cell-cap": [
        "antispecker", "covers", "--space", '{"kind":"cantor"}',
        "--theta", '[{"sigma":[[0,1]],"n":1000000},{"sigma":[[0,2]],"n":1}]'],
    "antispecker-probe-product": [
        "antispecker", "probe", "--space", PRODUCT, "--budget", "40"],
    # the default budget of 200
    "antispecker-probe-product-default-budget": [
        "antispecker", "probe", "--space", PRODUCT],
    # protected splitting: two templates of the split benchmark, one with
    # geometric and one with constant targets
    "splitter-run-3-stages-geometric": [
        "splitter", "run", "--x", '{"prefix":["1/3","1/8","1/32"]}',
        "--b", '{"prefix":[],"tail":{"kind":"geometric","base":"1","ratio":"1/3"}}',
        "--stages", "3", "--verify"],
    "splitter-run-4-stages-constant": [
        "splitter", "run", "--x", '{"prefix":["2","0","1/5","1/32"]}',
        "--b", '{"prefix":[],"tail":{"kind":"constant","value":"2"}}',
        "--stages", "4", "--verify"],
    # window search on a sequence with three positive steps, rearranged
    "rpt-fabar-three-steps": [
        "rpt", "fabar", "--a", THREE_STEPS, "--p", CYCLES, "--n", "3"],
    "rpt-decide-three-steps-window": [
        "rpt", "decide", "--a", THREE_STEPS, "--p", CYCLES, "--m", "6", "--n", "4"],
    "rpt-decide-three-steps-tail": [
        "rpt", "decide", "--a", THREE_STEPS, "--p", CYCLES, "--m", "0", "--n", "2"],
    # the swap moves the split series' first entry to index 3000: every
    # window from m = 10 that reaches 2^-3 ends there, and the witness scan
    # runs out of window steps before it gets that far
    "rpt-decide-past-window-budget": [
        "rpt", "decide",
        "--a", '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}',
        "--p", '{"table":[[0,3000],[3000,0]]}', "--n", "3", "--m", "10"],
    # a last block of more than 2^20 entries is refused before it is built
    "rpt-decide-block-past-cap": [
        "rpt", "decide",
        "--a", '{"prefix":["1/2","9/16"],"tail":{"kind":"constant","value":1000000}}',
        "--p", "identity", "--n", "2", "--m", "1"],
    # a last block of 28,747 entries: the certificate's k0 = 28,753 lies
    # past 449 blocks of the window index
    "rpt-decide-long-constant-tail": [
        "rpt", "decide",
        "--a", '{"prefix":["1/2","9/16"],"tail":{"kind":"constant","value":300}}',
        "--p", "identity", "--n", "2", "--m", "1"],
    # 241 split entries under a permutation whose support ends at 301: the
    # first entry, moved to index 230, is the only one that reaches 2^-3
    # from m = 10, so the witness window spans several index blocks
    "rpt-decide-window-past-index-blocks": [
        "rpt", "decide",
        "--a", '{"prefix":["1/2","9/16"],"tail":{"kind":"constant","value":3}}',
        "--p", '{"table":[[0,230],[230,0],[5,120],[120,200],[200,5],[60,300],[300,60]]}',
        "--n", "3", "--m", "10"],
    # windows of about 2^-70 settle only past exponent 65 of the modulus
    "rpt-fabar-step-2-70": ["rpt", "fabar", "--a", STEP_2_70, "--n", "75"],
    "rpt-decide-step-2-70-tail": [
        "rpt", "decide", "--a", STEP_2_70, "--m", "4", "--n", "75"],
    "splitter-run-block-past-cap": [
        "splitter", "run", "--x", '{"prefix":["1/3",1000000]}',
        "--b", '{"tail":{"kind":"constant","value":"2"}}', "--stages", "2"],
    # usage tracking
    "k2-star-track": [
        "k2", "star",
        "--f", '{"tail":{"kind":"registry","name":"depth_answer",'
               '"params":{"depth":2,"n":0,"m":1}}}',
        "--g", "identity", "--fuel", "8", "--track"],
    # exhausted scans: g_max pins the read of g(fuel - 1)
    "k2-star-track-exhausted": [
        "k2", "star", "--f", "const:0", "--g", "identity", "--fuel", "7",
        "--track"],
    # the tracked f_max is a code past Python's int-to-str digit limit
    "k2-star-track-past-digit-limit": [
        "k2", "star", "--f", "const:0", "--g", "const:1", "--fuel", "17",
        "--track"],
    # codes past the digit limit, refused from their sizes before they are
    # built: the first ones that are, as the built codes were refused ...
    "k2-bar-past-digit-limit": ["k2", "bar", "--f", "const:1", "--n", "15"],
    "k2-encode-past-digit-limit": [
        "k2", "encode", "--seq", ",".join(str(v) for v in range(1, 17))],
    # ... codes of about 2^40 and 2^30 bits, too long to build ...
    "k2-bar-n-40": ["k2", "bar", "--f", "const:1", "--n", "40"],
    "k2-encode-30-entries": [
        "k2", "encode", "--seq", ",".join(str(v) for v in range(1, 31))],
    # ... and one whose size is not decided, with a bound on it
    "k2-bar-n-20000": ["k2", "bar", "--f", "const:1", "--n", "20000"],
    "k2-bullet-exhausted": [
        "k2", "bullet", "--f", "const:0", "--g", "const:1", "--k", "2",
        "--fuel", "9"],
    # long approximations of non-dyadic rationals and nested maxima
    "reals-max-prec-300": [
        "reals", "max", "--x", '{"rational":"1/3"}', "--y", '{"rational":"10/31"}',
        "--prec", "300"],
    "reals-from-rational-negative-prec-200": [
        "reals", "from-rational", "--q=-37/11", "--prec", "200"],
    # the numerator over 2^14290 passes Python's int-to-str digit limit
    "reals-approx-past-digit-limit": [
        "reals", "approx", "--x", '{"rational":"1/3"}', "--prec", "14290"],
    "spaces-dist-nested-product-prec-80": [
        "spaces", "dist", "--space", NESTED_PRODUCT,
        "--f", '{"table":[[10,1],[17,1]],"tail":{"kind":"constant","value":2}}',
        "--g", "const:2", "--prec", "80"],
}



def replay() -> dict[str, tuple[int, str]]:
    """The exit code and stdout of every case, run in this process."""
    outs = {}
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
        outs[name] = code, buf.getvalue()
    return outs


def record() -> None:
    outs = replay()
    for name, (_, out) in outs.items():
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps({name: code for name, (code, _) in outs.items()},
                                     indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--replay"]:
        json.dump(replay(), sys.stdout)
    else:
        record()
