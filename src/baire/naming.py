"""Concrete metric spaces over the oracle universe, one object per space.

A space here is represented by its names (Weihrauch, *Computable
Analysis*, 2000): a partial surjection from oracles onto its points.  Each
registry space is a single ``Space`` object that carries all of it at
once: the horizon-bounded domain test, the point decoding, the exact
point-level metric and a name-level distance stream agreeing with that
metric at every precision.  Rather than arbitrary metric spaces, a small
registry of concrete compact spaces is provided: Cantor space, finite
discrete spaces, and their products.  Each registry space has canonical
names, so points are represented by canonical finite descriptions and
every name-level computation has an exact oracle to be tested against.

All registry names are everywhere positive, which is what lets the added
point of every space's one-point extension be the constant zero function,
detected by inspecting index 0 alone (``is_star``).  A space is its own
one-point extension: no second object carries the added point.  A space
is a value (``_Value``), so what a run keeps for it serves every equal one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import k2, reals
from .k2 import (FinPartialFn, Oracle, TableOracle, SpecError, pair_names,
                 project_names, star_name)
from .reals import SignedDigitReal, first_diff_real, max_star

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorPoint:
    """A {0,1}-sequence given as a finite word plus a constant tail bit."""

    word: tuple[int, ...]
    tail: int = 0

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.word) or self.tail not in (0, 1):
            raise ValueError("Cantor point bits must be 0 or 1")

    def value_at(self, i: int) -> int:
        return self.word[i] if i < len(self.word) else self.tail


# ---------------------------------------------------------------------------
# Space registry
# ---------------------------------------------------------------------------


class _Value:
    """Spaces of one class with equal attributes are equal, whoever built
    them, and a space hashes as its ``space_id``."""

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(self.space_id)


class Space(_Value):
    """A registry space: its names and their decoding into points, the
    exact metric on points and the distance stream on names.

    Every registry space has a ``space_id`` and defines these methods:

    - ``contains_name(f, horizon)``: whether f names a point, checked
      below the horizon;
    - ``point_of(f)``: the point a finitely described name names;
    - ``canonical_name(p)``: the canonical name of a point;
    - ``dist(p, q)``: the exact metric, a ``Fraction``;
    - ``dist_hat(f, g)``: the distance stream on names, a signed-digit
      real agreeing with ``dist`` at every precision;
    - ``cells(depth)``: finite partition descriptors at the resolution;
    - ``cell_count(depth, cap)``: the number of ``cells(depth)``, or
      cap + 1 if there are more;
    - ``cell_value_at(cell, i)``: the name value at index i forced by the
      cell, None when unconstrained;
    - ``atom_constraints(sigma, n)``: the (index, value) pairs a point's
      name must match to lie in the atom (sigma, n), or None when no name
      of the space extends sigma;
    - ``base_member(i)``: the sigmas of member i of the canonical base,
      each an atom at radius exponent i (Cantor and finite spaces only);
    - ``sample_point(rng)``: a random point.
    """

    space_id: str


class CantorSpace(Space):
    """Cantor space 2^N; names take values in {1, 2}, decode by subtracting 1."""

    def __init__(self, recode_swap: bool = False):
        self.recode_swap = recode_swap
        self.space_id = "cantor-swapped" if recode_swap else "cantor"

    def _decode(self, v: int) -> int:
        if v not in (1, 2):
            raise ValueError(f"not a Cantor name value: {v}")
        return (2 - v) if self.recode_swap else (v - 1)

    def _encode(self, b: int) -> int:
        return (2 - b) if self.recode_swap else (b + 1)

    def contains_name(self, f: Oracle, horizon: int) -> bool:
        return all(f(k) in (1, 2) for k in range(horizon))

    def point_of(self, f: Oracle) -> CantorPoint:
        if not isinstance(f, TableOracle):
            raise ValueError("point decoding needs a finitely-described name")
        end = f.support_end
        word = tuple(self._decode(f(i)) for i in range(end))
        return CantorPoint(word, self._decode(f.tail_value))

    def canonical_name(self, p: CantorPoint) -> TableOracle:
        table = {i: self._encode(b) for i, b in enumerate(p.word)}
        return TableOracle(table, self._encode(p.tail), label="cantor-name")

    def dist(self, p: CantorPoint, q: CantorPoint) -> Fraction:
        scan = max(len(p.word), len(q.word))
        for i in range(scan):
            if p.value_at(i) != q.value_at(i):
                return Fraction(1, 2 ** i)
        if p.tail != q.tail:
            return Fraction(1, 2 ** scan)
        return ZERO

    def dist_hat(self, f: Oracle, g: Oracle) -> SignedDigitReal:
        return first_diff_real(lambda n: f(n) != g(n),
                               label=f"d({f.label},{g.label})")

    def cells(self, depth: int):
        return itertools.product((0, 1), repeat=depth)

    def cell_count(self, depth: int, cap: int) -> int:
        return min(1 << min(depth, cap.bit_length()), cap + 1)

    def cell_value_at(self, cell, i: int) -> Optional[int]:
        return self._encode(cell[i]) if i < len(cell) else None

    def atom_constraints(self, sigma: FinPartialFn, n: int):
        if any(v not in (1, 2) for _, v in sigma.entries):
            return None
        # indices past the radius exponent do not decide membership
        return tuple((i, v) for i, v in sigma.entries if i <= n)

    def base_member(self, i: int):
        # every total {1,2}-valued sigma on [0, i)
        for word in itertools.product((1, 2), repeat=i):
            yield FinPartialFn.from_seq(word)

    def sample_point(self, rng) -> CantorPoint:
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7)))
        return CantorPoint(word, rng.randrange(2))


class FiniteSpace(Space):
    """The discrete space on points 1..N; names are the positive constants."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("finite spaces need at least one point")
        self.n = n
        self.space_id = f"finite({n})"

    def contains_name(self, f: Oracle, horizon: int) -> bool:
        c = f(0)
        if not (1 <= c <= self.n):
            return False
        return all(f(k) == c for k in range(1, horizon))

    def point_of(self, f: Oracle) -> int:
        c = f(0)
        if not (1 <= c <= self.n):
            raise ValueError(f"not a point of {self.space_id}: {c}")
        return c

    def canonical_name(self, p: int) -> TableOracle:
        return k2.constant(p, label=f"fin:{p}")

    def dist(self, p: int, q: int) -> Fraction:
        return ZERO if p == q else ONE

    def dist_hat(self, f: Oracle, g: Oracle) -> SignedDigitReal:
        return reals.from_estimates(
            lambda k: ZERO if f(0) == g(0) else ONE,
            label=f"d({f.label},{g.label})")

    def cells(self, depth: int):
        return range(1, self.n + 1)

    def cell_count(self, depth: int, cap: int) -> int:
        return min(self.n, cap + 1)

    def cell_value_at(self, cell, i: int) -> Optional[int]:
        return cell

    def atom_constraints(self, sigma: FinPartialFn, n: int):
        values = {v for _, v in sigma.entries}
        if len(values) > 1 or any(not 1 <= v <= self.n for v in values):
            return None
        return sigma.entries

    def base_member(self, i: int):
        # one point-identifying atom per point: its constant of length i+1
        for c in range(1, self.n + 1):
            yield FinPartialFn.from_seq((c,) * (i + 1))

    def sample_point(self, rng) -> int:
        return rng.randrange(1, self.n + 1)


class ProductSpace(Space):
    """Product of two registry spaces under the max metric; names interleave."""

    def __init__(self, left: Space, right: Space):
        self.left = left
        self.right = right
        self.space_id = f"({left.space_id} x {right.space_id})"

    def contains_name(self, f: Oracle, horizon: int) -> bool:
        fl, fr = project_names(f)
        h = (horizon + 1) // 2
        return self.left.contains_name(fl, h) and self.right.contains_name(fr, h)

    def point_of(self, f: Oracle) -> tuple:
        fl, fr = project_names(f)
        return (self.left.point_of(fl), self.right.point_of(fr))

    def canonical_name(self, p: tuple) -> Oracle:
        return pair_names(self.left.canonical_name(p[0]),
                          self.right.canonical_name(p[1]))

    def dist(self, p: tuple, q: tuple) -> Fraction:
        return max(self.left.dist(p[0], q[0]), self.right.dist(p[1], q[1]))

    def dist_hat(self, f: Oracle, g: Oracle) -> SignedDigitReal:
        fl, fr = project_names(f)
        gl, gr = project_names(g)
        return max_star(self.left.dist_hat(fl, gl), self.right.dist_hat(fr, gr))

    def cells(self, depth: int):
        return itertools.product(self.left.cells(depth), self.right.cells(depth))

    def cell_count(self, depth: int, cap: int) -> int:
        return min(self.left.cell_count(depth, cap)
                   * self.right.cell_count(depth, cap), cap + 1)

    def cell_value_at(self, cell, i: int) -> Optional[int]:
        if i % 2 == 0:
            return self.left.cell_value_at(cell[0], i // 2)
        return self.right.cell_value_at(cell[1], i // 2)

    def atom_constraints(self, sigma: FinPartialFn, n: int):
        sl, sr = sigma.split()
        left = self.left.atom_constraints(sl, n)
        right = self.right.atom_constraints(sr, n)
        if left is None or right is None:
            return None
        return (tuple((2 * i, v) for i, v in left)
                + tuple((2 * i + 1, v) for i, v in right))

    def sample_point(self, rng) -> tuple:
        return (self.left.sample_point(rng), self.right.sample_point(rng))


def parse_space_spec(spec) -> Space:
    """The registry space a JSON document describes; SpecError when the
    document is malformed."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("space spec must be an object with a kind")
    kind = spec["kind"]
    if kind == "cantor":
        swapped = spec.get("swapped", False)
        if not isinstance(swapped, bool):
            raise SpecError(f"cantor swapped must be true or false: {swapped!r}")
        return CantorSpace(recode_swap=swapped)
    if kind == "finite":
        n = spec.get("n", 0)
        # a JSON true is a Python int, and a float would be truncated
        if isinstance(n, bool) or not isinstance(n, int):
            raise SpecError(f"bad finite space size: {n!r}")
        return FiniteSpace(n)
    if kind == "product":
        if "left" not in spec or "right" not in spec:
            raise SpecError("product space spec needs a left and a right")
        return ProductSpace(parse_space_spec(spec["left"]),
                            parse_space_spec(spec["right"]))
    raise SpecError(f"unknown space kind: {kind!r}")


# The benchmark workloads build the spaces by these names.
cantor_space = CantorSpace
finite_space = FiniteSpace
product_metric_naming = ProductSpace


# ---------------------------------------------------------------------------
# One-point extension
# ---------------------------------------------------------------------------


def is_star(f: Oracle) -> bool:
    """Whether f names the added point of a space's one-point extension.

    The added point's name is the constant zero function; every real name
    is positive at index 0, so one query decides it, in every space.
    """
    return f(0) == 0


def star_extension(space: Space) -> Space:
    """The one-point extension of a space, which is the space itself:
    ``is_star`` tells its added point apart."""
    return space


# ---------------------------------------------------------------------------
# Sequences of names
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NameSequence:
    """A sequence of names given by a finite prefix plus a tail rule.

    tail "star": the added point from the prefix end on (eventually-star).
    tail "repeat": the last prefix entry repeats (never settles).
    """

    prefix: tuple[Oracle, ...]
    tail: str = "star"

    def __post_init__(self):
        if self.tail not in ("star", "repeat"):
            raise ValueError(f"unknown sequence tail: {self.tail!r}")
        if self.tail == "repeat" and not self.prefix:
            raise ValueError("repeat tail needs a nonempty prefix")

    @property
    def horizon(self) -> int:
        return len(self.prefix)

    def entry(self, i: int) -> Oracle:
        if i < len(self.prefix):
            return self.prefix[i]
        if self.tail == "star":
            return star_name()
        return self.prefix[-1]

    @property
    def eventually_star(self) -> bool:
        return self.tail == "star"

    def onset_below(self, bound: int) -> int:
        """One past the last real entry below the bound and the horizon:
        the least m with entry(i) the added point for m <= i < bound,
        within the declared horizon; 0 when there is no real entry."""
        onset = 0
        for i in range(min(bound, self.horizon)):
            if not is_star(self.entry(i)):
                onset = i + 1
        return onset

    def star_onset(self) -> int:
        """The exact settling index: least m with entry(i) the added point
        for all i >= m, within the declared horizon."""
        if not self.eventually_star:
            raise ValueError("sequence never settles on the added point")
        return self.onset_below(self.horizon)


def parse_name_sequence(spec) -> NameSequence:
    if spec == "all-star":
        return NameSequence((), "star")
    if not isinstance(spec, dict):
        raise SpecError("sequence spec must be an object or 'all-star'")
    names = spec.get("names", [])
    if not isinstance(names, list):
        raise SpecError("sequence names must be a list of oracle specs")
    prefix = tuple(k2.parse_oracle_spec(s) for s in names)
    try:
        return NameSequence(prefix, spec.get("tail", "star"))
    except ValueError as e:
        raise SpecError(f"bad name sequence: {e}")
