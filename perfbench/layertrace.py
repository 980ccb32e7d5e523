"""Tracing for the traced benchmark pass: a per-module profile hook and spans.

``LayerProfiler`` is a ``sys.setprofile`` hook.  It charges wall time to the
innermost frame that belongs to ``baire``, so time spent in the standard
library (``fractions``, ``math``, ``json``...) counts against the baire
module that called it; time with no baire frame on the stack is charged to
``bench``.  The hook's own running time is measured and kept apart in
``hook_s``, so that ``sum(self_s) + hook_s`` telescopes to the traced wall
time.  It also counts calls of selected program functions, which is how the
per-layer counts are taken without changing the program.

``SpanLog`` keeps spans (name, start, end, parent, op id) in memory; the
benchmark writes them out once, when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

LAYERS = ("k2", "reals", "naming", "antispecker", "cauchy", "bdn", "cli")
BENCH = "bench"
OTHER = "baire_other"


def _methods_named(module, name: str) -> set:
    """Code objects of the methods called ``name`` of the classes that
    ``module`` defines."""
    out = set()
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            fn = vars(obj).get(name)
            if hasattr(fn, "__code__"):
                out.add(fn.__code__)
    return out


def _nested_code(fn, name: str):
    """The code object of the function ``name`` defined inside ``fn``."""
    for const in fn.__code__.co_consts:
        if getattr(const, "co_name", None) == name:
            return const
    return None


class LayerProfiler:
    """Profile hook charging time and counting calls per baire module."""

    def __init__(self, api):
        self.baire_dir = os.path.dirname(os.path.abspath(api.k2.__file__)) + os.sep
        self.fractions_file = sys.modules["fractions"].__file__
        self.self_s: dict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self.fraction_ops: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.code_bits_max = 0
        self._layer_of: dict = {}
        self._first_lasti: dict = {}
        self._stack: list[tuple[str, bool]] = [(BENCH, False)]
        self._last = 0.0

        k2, aspk = api.k2, api.antispecker
        self._cantor_pair = k2.cantor_pair.__code__
        self._prefix = {k2.encode_seq.__code__, k2.bar.__code__,
                        k2.FinPartialFn.prefix_code.__code__}
        self._approx = api.reals.SignedDigitReal.approx.__code__
        self._dist_hat = _methods_named(api.naming, "dist_hat")
        self._iter_atoms = _methods_named(aspk, "iter_atoms")
        self._evaluate = _nested_code(aspk.realizer_from_base, "evaluate")

    # -- attribution --------------------------------------------------------

    def _layer(self, code) -> str | None:
        try:
            return self._layer_of[code]
        except KeyError:
            pass
        fname = code.co_filename
        layer = None
        if fname.startswith(self.baire_dir):
            stem = os.path.splitext(os.path.basename(fname))[0]
            layer = stem if stem in LAYERS else OTHER
        self._layer_of[code] = layer
        return layer

    def _first_entry(self, frame) -> bool:
        """Whether this call event starts the frame rather than resuming a
        suspended generator: the first event a code object ever produces is
        a start, and every start sits at the same instruction offset."""
        code = frame.f_code
        start = self._first_lasti.setdefault(code, frame.f_lasti)
        return frame.f_lasti == start

    def hook(self, frame, event, arg):
        enter = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1][0]] += enter - self._last
        if event == "call":
            code = frame.f_code
            layer = self._layer(code)
            parent_layer, parent_is_baire = stack[-1]
            if layer is None:
                if parent_is_baire and code.co_filename == self.fractions_file:
                    self.fraction_ops[parent_layer] += 1
                stack.append((parent_layer, False))
            else:
                stack.append((layer, True))
                self._count_call(frame, code)
        elif event == "return":
            if len(stack) > 1:
                stack.pop()
            code = frame.f_code
            if code is self._cantor_pair:
                bits = arg.bit_length() if isinstance(arg, int) else 0
                if bits > self.code_bits_max:
                    self.code_bits_max = bits
            elif code is self._evaluate:
                spent = getattr(getattr(arg, "result", None), "spent", None)
                if isinstance(spent, int):
                    self.counts["antispecker.eval_fuel_spent"] += spent
        leave = time.perf_counter()
        self.hook_s += leave - enter
        self._last = leave

    def _count_call(self, frame, code) -> None:
        if code is self._cantor_pair:
            self.counts["k2.cantor_pairs"] += 1
        elif code in self._prefix:
            parent = frame.f_back
            if parent is None or parent.f_code not in self._prefix:
                self.counts["k2.prefix_codes"] += 1
        elif code is self._approx:
            self.counts["reals.approx_calls"] += 1
        elif code in self._dist_hat:
            self.counts["naming.dist_hat_calls"] += 1
        elif code in self._iter_atoms:
            parent = frame.f_back
            if parent is not None and parent.f_code is self._evaluate \
                    and self._first_entry(frame):
                self.counts["antispecker.members_scanned"] += 1

    # -- switching ----------------------------------------------------------

    def start(self) -> None:
        self._stack = [(BENCH, False)]
        self._last = time.perf_counter()
        sys.setprofile(self.hook)

    def stop(self) -> None:
        sys.setprofile(None)
        self.self_s[self._stack[-1][0]] += time.perf_counter() - self._last

    def accounted_s(self) -> float:
        return sum(self.self_s.values()) + self.hook_s


class SpanLog:
    """In-memory spans; ``open``/``close`` nest, and ``op`` tags each span
    with the op it belongs to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "op": self.op,
                           "parent": self._open[-1] if self._open else None,
                           "start": time.perf_counter(), "end": None})
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._open.pop()

    def check_nesting(self) -> str | None:
        """Every span is closed and lies inside its parent."""
        for s in self.spans:
            if s["end"] is None:
                return f"span {s['id']} ({s['name']}) never closed"
            p = s["parent"]
            if p is not None:
                ps = self.spans[p]
                if s["start"] < ps["start"] or s["end"] > ps["end"]:
                    return f"span {s['id']} ({s['name']}) leaves its parent {p}"
        return None


class Calls:
    """How an op calls into the program: ``calls.call(layer, fn, *args)``.

    Untraced it is a plain call; traced it records a span named after the
    layer and the function around the call.
    """

    def __init__(self, spans: SpanLog | None = None):
        self.spans = spans

    def call(self, layer: str, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        sid = self.spans.open(f"{layer}.{getattr(fn, '__name__', 'call')}")
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.close(sid)
