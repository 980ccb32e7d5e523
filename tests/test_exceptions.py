"""Every exception the package defines is either a malformed input
(``ValueError``, exit 2) or a bounded search that stopped
(``k2.Exhausted``, exit 3), so the command line catches each kind once.
The few others are listed, each with the reason it is neither."""

import importlib
import pkgutil

import pytest

import baire
from baire import k2

NEITHER = {
    "baire.cauchy.ClearanceViolation":
        "a broken splitter invariant that carries the ledger, not a budget",
    "baire.cli.Exhaustion":
        "carries the star, bullet, demo and adversary result documents, "
        "whose shapes the golden outputs pin",
}


def _package_exceptions() -> dict:
    found = {}
    for info in pkgutil.iter_modules(baire.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"baire.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{obj.__qualname__}"] = obj
    return found


def test_every_exception_is_a_validation_error_or_exhausted():
    found = _package_exceptions()
    assert set(NEITHER) <= set(found)
    assert [name for name, cls in found.items() if name not in NEITHER
            and not issubclass(cls, (ValueError, k2.Exhausted))] == []


def test_exhausted_document_puts_message_and_reason_first():
    e = k2.Exhausted("stage 3: too wide", "state", width=73)
    assert str(e) == "stage 3: too wide"
    assert list(e.to_json().items()) == [
        ("error", "stage 3: too wide"), ("reason", "state"), ("width", 73)]


def test_exhausted_names_one_of_four_reasons():
    with pytest.raises(AssertionError):
        k2.Exhausted("ran out", "patience")
