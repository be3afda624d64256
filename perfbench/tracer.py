"""Spans and counts at the boundaries of ospchar's public functions.

The tracer wraps each traced function under every name that binds it in the
loaded ``ospchar.*`` modules, so ``from .rootdata import borel_from_sequence``
copies are caught as well as the defining module.  A traced name that no
longer exists is reported with zero calls.  Spans (name, start, end, parent,
operation) are kept in memory and written out once, at the end of a run.
Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, defining module, attribute)
FUNCTIONS = (
    ("cli.main", "ospchar.cli", "main"),
    ("atyp.is_tame", "ospchar.atyp", "is_tame"),
    ("rootdata.borel_from_sequence", "ospchar.rootdata", "borel_from_sequence"),
    ("rootdata.odd_reflection", "ospchar.rootdata", "odd_reflection"),
    ("rootdata.weyl_alternating_sum", "ospchar.rootdata", "weyl_alternating_sum"),
    ("hook.highest_weight_via_reflections", "ospchar.hook", "highest_weight_via_reflections"),
    ("blocks.bottom_of_block", "ospchar.blocks", "bottom_of_block"),
    ("characters.kw_character", "ospchar.characters", "kw_character"),
    ("exactnum.divide_by_factors", "ospchar.exactnum", "divide_by_factors"),
    ("exactnum.exact_divide", "ospchar.exactnum", "exact_divide"),
)
# (metric prefix, defining module, class, method attributes)
METHODS = (("exactnum.mul", "ospchar.exactnum", "LaurentPolynomial", ("__mul__", "__rmul__")),)


def _terms(poly) -> int:
    terms = getattr(poly, "terms", None)
    return 0 if terms is None else len(terms)


def weyl_order(alg) -> int:
    """|W| of the even part: B_n x B_m, or B_n x D_m in family D."""
    order = math.factorial(alg.n) * 2**alg.n * math.factorial(alg.m) * 2**alg.m
    return order // 2 if alg.family == "D" else order


def _count_weyl(add, args, result):
    alg, poly = args[0], args[1]
    add("terms_in", _terms(poly))
    add("terms_out", _terms(result))
    add("images", weyl_order(alg) * _terms(poly))


def _count_divide(add, args, result):
    add("terms_in", _terms(args[0]))
    add("terms_out", _terms(result))


def _count_mul(add, args, result):
    if hasattr(args[1], "terms"):
        add("term_pairs", _terms(args[0]) * _terms(args[1]))


def _count_bottom(add, args, result):
    add("steps", len(result.steps))


COUNTERS = {
    "rootdata.weyl_alternating_sum": _count_weyl,
    "exactnum.divide_by_factors": _count_divide,
    "exactnum.mul": _count_mul,
    "blocks.bottom_of_block": _count_bottom,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def add(key: str, value: int) -> None:
            counts[f"{name}.{key}"] += value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(add, args, result)
                except (AttributeError, IndexError, TypeError):
                    add("uncounted", 1)  # the traced signature changed
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "ospchar" or key.startswith("ospchar."))
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for name, module_name, cls_name, attrs in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            for attr in attrs:
                original = vars(cls).get(attr) if cls is not None else None
                if original is not None:
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._patched):
            setattr(owner, binding, original)
        self._patched.clear()

    def summary(self, scale=None) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive seconds, self seconds.

        ``scale(start, seconds)``, if given, converts each span's duration
        (to reference host speed, see ``hostspeed.py``).  Inclusive time
        counts only the outermost span of a name, so a function that reaches
        itself is not counted twice.
        """
        durations = [
            scale(start, end - start) if scale else end - start for _, start, end, _, _ in self.spans
        ]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), took in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += took
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0}
            for name in [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
        }
        for idx, (name, _, _, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += durations[idx] - child[idx]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["s"] += durations[idx]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
