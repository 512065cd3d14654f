"""Per-layer call tracing for the benchmark's traced run.

``Tracer.install`` replaces the public functions of each layer module of
alcove_hecke with wrappers, from outside the library.  Per function it keeps
the number of calls, the self time (time inside the function minus time
inside traced callees) and the inclusive time; for a few functions also the
number of distinct arguments and a summed result size.  Hot leaf calls are
far too many to store as spans, so child time is accumulated on a stack with
one entry per active call and nothing is kept per call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import alcove_hecke

# module -> class whose public methods are traced
CLASSES = {
    "ext_weyl": "ExtWeyl",
    "alcove": "AlcoveModel",
    "hecke": "HeckeAlgebra",
    "orders": "PeriodicOrder",
    "groth_calc": "GrothCalc",
    "satake_char": "SatakeChar",
}
# module -> traced module-level functions; the root-datum vector helpers are
# left out on purpose: they are called inside every group operation and their
# time belongs to the caller's layer
FUNCTIONS = {
    "root_datum": ("load_root_datum",),
    "engine": ("build_engine",),
    "parabolic": ("is_finitary", "make_parabolic", "in_awext_s", "in_awext_res", "in_awext", "min_rep"),
}
# LaurentPolynomial attribute -> traced name
LAURENT_OPERATORS = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "bar": "bar",
}
DISTINCT = frozenset({"ext_weyl.length", "hecke.kl_basis", "orders.leq"})


def _interval(args, result) -> int:
    hecke, x = args[0], args[1]
    return len(hecke.spherical_lower_set(x))


# traced name -> (args, result) -> size summed over calls; inverse_m's size
# is the spherical Bruhat interval below x, a property of the input that does
# not depend on how inverse_m computes
SIZES = {
    "ext_weyl.bruhat_lower_set": lambda args, result: len(result),
    "hecke.kl_basis": lambda args, result: len(result.support),
    "hecke.inverse_m": _interval,
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "seen", "size_total")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.seen: set | None = None
        self.size_total = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time of each active traced call
        self._saved: list[tuple[object, str, object]] = []
        self._paused = False

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for mod_name, cls_name in CLASSES.items():
            cls = getattr(sys.modules[f"alcove_hecke.{mod_name}"], cls_name)
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self._patch(cls, attr, self._wrap(f"{mod_name}.{attr}", fn))
        for mod_name, names in FUNCTIONS.items():
            module = sys.modules[f"alcove_hecke.{mod_name}"]
            for attr in names:
                original = getattr(module, attr)
                wrapped = self._wrap(f"{mod_name}.{attr}", original)
                # the library imports these by name, so patch every binding
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if name == "alcove_hecke" or name.startswith("alcove_hecke."):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, key, wrapped)
        poly = alcove_hecke.LaurentPolynomial
        for attr, name in LAURENT_OPERATORS.items():
            self._patch(poly, attr, self._wrap(f"laurent.{name}", vars(poly)[attr]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapped) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        distinct = key in DISTINCT
        if distinct:
            stat.seen = set()
        size = SIZES.get(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stat.calls += 1
            if distinct:
                # methods only: key on the instance so engines do not mix
                stat.seen.add((id(args[0]),) + args[1:])
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if size is not None:
                start = clock()
                tracer._paused = True
                try:
                    stat.size_total += size(args, result)
                finally:
                    tracer._paused = False
                if stack:  # keep the measurement out of the caller's self time
                    stack[-1] += clock() - start
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def value(self, name: str) -> float:
        """A per-layer metric by name: "<module>.self_s",
        "<module>.<function>.<calls|distinct|self_s|total_s>" or
        "<module>.<function>.<size>_mean" (the mean summed size per call)."""
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            prefix = parts[0] + "."
            return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))
        key, stat_name = ".".join(parts[:2]), parts[2]
        stat = self.stats[key]
        if stat_name == "distinct":
            return len(stat.seen)
        if stat_name.endswith("_mean"):
            return stat.size_total / stat.calls if stat.calls else 0.0
        return getattr(stat, stat_name)

    def table(self) -> list[tuple[str, int, float, float]]:
        """(function, calls, self_s, total_s) for every traced function called."""
        return sorted(
            ((k, s.calls, s.self_s, s.total_s) for k, s in self.stats.items() if s.calls),
            key=lambda row: -row[2],
        )
