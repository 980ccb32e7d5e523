"""Golden outputs of the command line: exact stdout bytes and exit codes.

Each case of ``golden_cases.CASES`` runs ``baire.cli.run`` in process and
compares what it prints, byte for byte, and the exit code it returns
against ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.
More tests replay every case in fresh processes (``golden_cases.py
--replay``): under another ``PYTHONHASHSEED``, under two other
``PYTHONINTMAXSTRDIGITS`` settings, and under each Python 3.10-3.13
interpreter found on ``PATH`` or under ``$PYENV_ROOT/versions``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from baire import cli
from golden_cases import CASES, EXIT_CODES, GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPLAY = pathlib.Path(__file__).with_name("golden_cases.py")


def _run(argv, capsys) -> tuple[int, bytes]:
    code = cli.run(list(argv))
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_golden(name, capsys):
    code, out = _run(CASES[name], capsys)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_every_op_has_a_golden_case():
    covered = {tuple(argv[:2]) for argv in CASES.values()}
    assert [key for key in cli.COMMANDS
            if key[0] != "selftest" and key not in covered] == []


def _assert_replay(python: str, **env) -> None:
    """Every case prints the same bytes and exits the same way in a fresh
    process of ``python`` under the environment changes ``env``."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([python, str(REPLAY), "--replay"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    replayed = json.loads(proc.stdout)
    codes = json.loads(EXIT_CODES.read_text())
    assert list(replayed) == list(CASES)
    for name, (code, out) in replayed.items():
        assert code == codes[name], (python, name)
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes(), (python, name)


def test_goldens_replay_under_another_hash_seed():
    # string hashes, and so set orders, are seeded apart
    _assert_replay(sys.executable, PYTHONHASHSEED="4242")


@pytest.mark.parametrize("digits", ["0", "640"])
def test_goldens_replay_under_another_digit_limit(digits):
    # no limit, and the lowest limit there is: the command line holds its own
    _assert_replay(sys.executable, PYTHONINTMAXSTRDIGITS=digits)


def _interpreters() -> list[str]:
    """One path per Python 3.10-3.13 version found on ``PATH`` or under
    ``$PYENV_ROOT/versions`` that starts and is at least 3.10.7."""
    names = [f"python3.{minor}" for minor in range(10, 14)]
    paths = [pathlib.Path(d, name) for d in os.environ.get("PATH", "").split(os.pathsep)
             if d for name in names]
    if os.environ.get("PYENV_ROOT"):
        paths += sorted(pathlib.Path(os.environ["PYENV_ROOT"]).glob(
            "versions/*/bin/python3.1[0-3]"))
    found: dict[str, str] = {}
    for path in paths:
        if not (path.is_file() and os.access(path, os.X_OK)):
            continue
        try:
            proc = subprocess.run(
                [str(path), "-c", "import sys; print(sys.version_info >= (3, 10, 7), "
                                  "sys.version)"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fits, _, version = proc.stdout.partition(" ")
        if proc.returncode == 0 and fits == "True":
            found.setdefault(version.strip(), str(path))
    return list(found.values())


def test_goldens_replay_under_every_interpreter_found():
    found = _interpreters()
    if not found:
        pytest.skip("no Python 3.10-3.13 interpreter starts here")
    for python in found:
        _assert_replay(python)
