"""In-memory spans around the public functions of each cantornorm module.

The benchmark instruments the package from outside: `instrument` swaps each
traced function for a timing wrapper in every cantornorm module that binds
it, and each traced method on its class, then puts the originals back. This
works because callers look these names up at call time; a function must be
patched in the module that calls it (`normality` holds its own `orbit`, so
patching `cantor.orbit` alone would miss the orbit cross-check).

Calls to the hot leaves (bit evaluation, bounded/limit evaluation, settle
budgets) run hundreds of thousands of times per operation, so instead of one
span each they are folded into one record per (parent span, name) holding
the call count, summed duration and summed self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); each rebinding in any cantornorm module is
# patched, including the importing modules' copies.
FUNCTIONS = (
    ("cantornorm.construction", "limit_function", "construction.limit_function"),
    ("cantornorm.construction", "basic_sequence_from",
     "construction.basic_sequence_from"),
    ("cantornorm.normality", "witness_check", "normality.witness_check"),
    ("cantornorm.normality", "non_normality_report",
     "normality.non_normality_report"),
    ("cantornorm.normality", "interval_frequency", "normality.interval_frequency"),
    ("cantornorm.normality", "star_discrepancy", "normality.star_discrepancy"),
    ("cantornorm.cantor", "orbit", "cantor.orbit"),
    ("cantornorm.cantor", "cantor_digits", "cantor.cantor_digits"),
    ("cantornorm.cantor", "cantor_value", "cantor.cantor_value"),
)

GENERATORS = {"constant": "ConstantBits", "periodic": "PeriodicBits",
              "table": "TableBits", "rational": "RationalBits",
              "champernowne": "ChampernowneBits", "oracle-bit": "OracleBits"}
GENERATOR_KINDS = tuple(GENERATORS)

# (module, class, attribute, span name)
METHODS = (
    ("cantornorm.programs", "Registry", "from_file", "programs.load"),
    ("cantornorm.programs", "Registry", "eval_bounded", "programs.eval_bounded"),
    ("cantornorm.programs", "Registry", "eval_limit", "programs.eval_limit"),
    ("cantornorm.programs", "Registry", "settle_budget", "programs.settle_budget"),
) + tuple(("cantornorm.generators", cls, "bit_at", f"generators.bit_at.{kind}")
          for kind, cls in GENERATORS.items())

FOLDED = frozenset({"programs.eval_bounded", "programs.eval_limit",
                    "programs.settle_budget"}
                   | {f"generators.bit_at.{kind}" for kind in GENERATOR_KINDS})

# Work counted where it happens: name -> units taken from the result.
UNITS = {
    "construction.limit_function": lambda result: result.settled_through + 1,
    "cantor.orbit": len,
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans (name, start, end, parent, operation id, self time) of one run."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list = []
        self.folds: dict = {}  # (parent span, name) -> [calls, total, self]
        self.units: Counter = Counter()
        self.op: str | None = None
        # frames are [time spent in child calls, id of the nearest full span]
        self._stack = [[0.0, -1]]

    def wrap(self, name: str, fn):
        fold = name in FOLDED
        units = UNITS.get(name)
        spans, folds, stack = self.spans, self.folds, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if fold:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                if fold:
                    record = folds.get((parent[1], name))
                    if record is None:
                        record = folds[(parent[1], name)] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[0]
                else:
                    spans[frame[1]] = (name, start, end, parent[1], self.op,
                                       duration - frame[0])
            if units is not None:
                self.units[name] += units(result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return (sum(1 for s in self.spans if s[0] == name)
                + sum(r[0] for (_, n), r in self.folds.items() if n == name))

    def total_s(self, name: str) -> float:
        return (sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)
                + sum(r[1] for (_, n), r in self.folds.items() if n == name))

    def self_s(self, name: str) -> float:
        return (sum((s[5] for s in self.spans if s[0] == name), 0.0)
                + sum(r[2] for (_, n), r in self.folds.items() if n == name))

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the tracer's start."""
        with path.open("w") as out:
            for sid, (name, start, end, parent, op, own) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent, "op": op,
                    "self_s": own}) + "\n")
            for (parent, name), (calls, total, own) in sorted(self.folds.items()):
                out.write(json.dumps({
                    "name": name, "parent": parent,
                    "op": self.spans[parent][4] if parent >= 0 else None,
                    "calls": calls, "total_s": total, "self_s": own}) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced function and method through `tracer` while active."""
    importlib.import_module("cantornorm.cli")  # loads every module it calls
    undo = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "cantornorm" or n.startswith("cantornorm.")]
    try:
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = tracer.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(span, original.__func__))
            else:
                wrapped = tracer.wrap(span, original)
            undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
