"""The acceptance gate: every criterion runs at its stated budget and must
pass exactly; one line per criterion in the verbose log."""

from fractions import Fraction

import pytest

from baire import acceptance, cauchy, k2
from baire import antispecker as aspk


@pytest.mark.parametrize("name,criterion", acceptance.CRITERIA,
                         ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(name, criterion):
    result = criterion()
    print(f"[{'pass' if result.ok else 'FAIL'}] {result.name} "
          f"({result.seconds:.2f}s / limit {result.limit:.0f}s) {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"
    assert result.seconds < result.limit, \
        f"{result.name} took {result.seconds:.1f}s, over its {result.limit:.0f}s budget"


def test_modulus_transfer_checks_every_exponent(monkeypatch):
    # a transfer shifted past the horizon leaves every exponent unchecked,
    # which the criterion must refuse rather than pass unseen
    assert acceptance.criterion_modulus_transfer() == \
        (True, "10 transfers equal the least start at every n <= 40")
    transfer = cauchy.modulus_from_abs_sums
    monkeypatch.setattr(cauchy, "modulus_from_abs_sums", lambda ledger, g: cauchy.Modulus(
        lambda n: transfer(ledger, g)(n) + 100))
    assert acceptance.criterion_modulus_transfer() == \
        (False, "case 0: only 0 of 41 exponents start within the horizon")


def test_modulus_transfer_is_bounded_from_above(monkeypatch):
    # a transfer one start late is still a valid modulus, which the
    # horizon check alone passes; the least start refuses it
    transfer = cauchy.modulus_from_abs_sums
    late = lambda ledger, g: cauchy.Modulus(lambda n: transfer(ledger, g)(n) + 1)
    monkeypatch.setattr(cauchy, "modulus_from_abs_sums", late)
    ledger = cauchy.split_series_for(cauchy.RationalSeq.make([1], "constant", 1)).ledger
    shifted = late(ledger, cauchy.abs_sum_modulus(ledger))
    assert cauchy.is_modulus(shifted, ledger.x, 40).ok
    assert acceptance.criterion_modulus_transfer() == \
        (False, "case 0: transfer starts at 1 for n=0, where the least start is 0")


def test_pc_index_checks_the_windows_of_pc_realize(monkeypatch):
    # a scan whose windows drop their last entry gives the wrong index, and
    # the criterion's oracle, which builds its own windows, must see it
    assert acceptance.criterion_pc_index() == \
        (True, "50 instances exact; identity always 0")

    def short_windows(x, f, g, n):
        bound = Fraction(1, 2 ** n)
        for m in range(f(n + 1), -1, -1):
            window = [x.value_at(i) for i in range(m, g(m))] or [x.value_at(m)]
            if max(window) - min(window) >= bound:
                return m + 1
        return 0

    monkeypatch.setattr(cauchy, "partially_cauchy_index", short_windows)
    ok, detail = acceptance.criterion_pc_index()
    assert not ok and "!= brute" in detail


def test_base_round_trip_checks_members_without_covers(monkeypatch):
    # covers keeps the report the probe read, so a re-check through it
    # cannot fail; one non-covering member must fail the criterion even
    # with covers saying every Theta covers
    assert acceptance.criterion_base_round_trip() == (
        True, "harvests verified; re-derived realizers value-equal on the full suite")
    probe = aspk.base_from_realizer
    left_half = aspk.Theta((aspk.CoverAtom(k2.FinPartialFn(((0, 1),)), 1),))

    def injected(m, space, config=None):
        probed = probe(m, space, config)
        return aspk.ProbedBase(space, probed.members + (left_half,),
                               probed.exhausted, probed.evals_spent)

    monkeypatch.setattr(aspk, "base_from_realizer", injected)
    monkeypatch.setattr(aspk, "covers", lambda theta, space, depth=None:
                        aspk.CoversReport(True, aspk.default_cover_depth(theta)))
    assert acceptance.criterion_base_round_trip() == (
        False, "cantor: non-covering member emitted")
