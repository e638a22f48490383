"""Span tracing at fqzeta's layer boundaries, installed from outside the package.

The tracer replaces each target function by a wrapper everywhere a
fqzeta module looks the name up (``fqzeta.mzv.power_sum_formula`` as well
as ``fqzeta.powersum.power_sum_formula``), and wraps the ``Poly.__init__``
and ``Poly.text`` methods.  Every call records a span (name, start, end,
parent) in flat in-memory arrays; ``report`` turns them into call counts
and self times, a span's duration minus the time of the wrapped spans it
directly contains.  ``restore`` puts every original back.  A target that
no longer exists is reported as missing rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

# (span name, defining module, attribute)
FUNCTIONS = (
    ("digitlab.vanishing_threshold", "fqzeta.digitlab", "vanishing_threshold"),
    ("compose.modest", "fqzeta.compose", "modest"),
    ("compose.greedy", "fqzeta.compose", "greedy"),
    ("compose.enumerate_head_free", "fqzeta.compose", "enumerate_head_free"),
    ("compose.enumerate_tail_free", "fqzeta.compose", "enumerate_tail_free"),
    ("powersum.power_sum_formula", "fqzeta.powersum", "power_sum_formula"),
    ("powersum.bruteforce_power_table", "fqzeta.powersum", "bruteforce_power_table"),
    ("mzv.zeta_negative", "fqzeta.mzv", "zeta_negative"),
    ("cli.main", "fqzeta.cli", "main"),
)
# (span name, defining module, class, method)
METHODS = (
    ("fqpoly.Poly", "fqzeta.fqpoly", "Poly", "__init__"),
    ("fqpoly.Poly.text", "fqzeta.fqpoly", "Poly", "text"),
)
SPAN_NAMES = tuple(t[0] for t in FUNCTIONS + METHODS)
FORMULA = "powersum.power_sum_formula"


class Tracer:
    def __init__(self) -> None:
        self.span_names = list(SPAN_NAMES)
        self.missing: list[str] = []
        self.cells: set = set()  # distinct (q, d, s) given to the formula route
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "fqzeta" or n.startswith("fqzeta.")
        ]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(_module(modname), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)
        for name, modname, clsname, meth in METHODS:
            cls = getattr(_module(modname), clsname, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.missing.append(name)
                continue
            self._replace(cls, meth, self._wrap(name, orig))

    def restore(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        nid = self.span_names.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        note = self._formula_cell(fn) if name == FORMULA else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _formula_cell(self, fn):
        sig = inspect.signature(fn)
        cells = self.cells

        def note(args, kwargs):
            try:
                a = sig.bind(*args, **kwargs).arguments
                cells.add((a["field"].pp.q, a["d"], a["s"]))
            except (TypeError, KeyError, AttributeError):
                cells.add(None)

        return note

    # -- report ------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_ms` for every span name, plus
        the formula route's calls per distinct cell."""
        n = len(self._start)
        child_ns = [0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child_ns[p] += self._end[i] - self._start[i]
        calls = [0] * len(self.span_names)
        self_ns = [0] * len(self.span_names)
        for i in range(n):
            nid = self._name[i]
            calls[nid] += 1
            self_ns[nid] += self._end[i] - self._start[i] - child_ns[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.span_names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_ms"] = self_ns[nid] / 1e6
        formula_calls = calls[self.span_names.index(FORMULA)]
        out[f"{FORMULA}.calls_per_cell"] = (
            formula_calls / len(self.cells) if self.cells else 0.0
        )
        return out


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None
