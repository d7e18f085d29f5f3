"""Module-boundary spans for the traced benchmark run.

The tracer wraps public functions of the `cifc` package from outside: every
module namespace that holds a reference to a wrapped function gets the
wrapper instead, so calls made through `from .x import f` bindings and
calls inside the defining module are both recorded.  Nothing under `src/`
is edited.

A function that a later version of cifc no longer has is skipped, and its
span reports zero calls.  Spans are aggregated on the fly with a stack.  A span's self time is its
duration minus the time covered by its child spans, so the self times of
all spans plus the root remainder add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass

# span name -> (module, attribute) pairs wrapped under that name
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cifc.cli", "main"),),
    "verify.run_suite": (("cifc.verify", "run_suite"),),
    "verify.trace_frontier": (("cifc.verify", "trace_frontier"),),
    "verify.check_fme_oracle": (("cifc.verify", "check_fme_oracle"),),
    "verify.sample_instance": (("cifc.verify", "sample_instance"),),
    "verify.grid_agreement": (("cifc.verify", "grid_agreement"),),
    # scipy's linprog, as bound in cifc.verify
    "verify.linprog": (("cifc.verify", "linprog"),),
    "probability.mutual_information": (("cifc.probability", "mutual_information"),),
    "probability.extend_through_channel": (("cifc.probability", "extend_through_channel"),),
    "probability.verify_factorization": (("cifc.probability", "verify_factorization"),),
    "regions.instantiate": (("cifc.regions", "instantiate"),),
    "polytope.fme_project": (("cifc.polytope", "fme_project"),),
    # the two public entry points of the enumeration oracle
    "polytope.oracle": (
        ("cifc.polytope", "oracle_polygon"),
        ("cifc.polytope", "membership_oracle"),
    ),
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    # span-specific counters, filled by the hooks below
    empty: int = 0
    feasible: int = 0
    cache_hits: int = 0
    subsets: int = 0
    misses_seen: int = 0


class Tracer:
    """Wraps the functions in SPANS and accumulates per-span statistics."""

    def __init__(self) -> None:
        self.stats = {name: SpanStats() for name in SPANS}
        # one entry per open span: time covered by its finished children
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        child_time = self._child_time
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                covered = child_time.pop()
                stats.calls += 1
                stats.self_s += elapsed - covered
                if child_time:
                    child_time[-1] += elapsed
                if hook:
                    hook(stats, args, outcome)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every reference to a traced function in cifc's modules."""
        from cifc.polytope import _oracle_hull

        self.stats["polytope.oracle"].misses_seen = _oracle_hull.cache_info().misses
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(importlib.import_module(mod_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cifc"]
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` just spent outside cifc out of the open span's self time."""
        if self._child_time:
            self._child_time[-1] += seconds

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Flat per-span metrics: calls and self time, plus the counters."""
        out: dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
        fme = self.stats["polytope.fme_project"]
        out["polytope.fme_project.empty_frac"] = _ratio(fme.empty, fme.calls)
        lp = self.stats["verify.linprog"]
        out["verify.linprog.feasible_frac"] = _ratio(lp.feasible, lp.calls)
        oracle = self.stats["polytope.oracle"]
        out["polytope.oracle.subsets"] = oracle.subsets
        out["polytope.oracle.cache_hit_frac"] = _ratio(oracle.cache_hits, oracle.calls)
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _count_empty(stats: SpanStats, args, outcome) -> None:
    from cifc.errors import Infeasible

    if isinstance(outcome, Infeasible):
        stats.empty += 1


def _count_feasible(stats: SpanStats, args, outcome) -> None:
    if getattr(outcome, "success", False):
        stats.feasible += 1


def _count_oracle_work(stats: SpanStats, args, outcome) -> None:
    """Cache hits of the oracle's LRU and the row subsets it enumerates.

    Only the two oracle entry points reach the LRU, so a change in its miss
    count since the previous oracle call is this call's miss.  A miss
    enumerates every n-subset of the m = rows + n constraint rows (the
    system's rows plus one nonnegativity facet per rate), C(m, n) square
    solves; a hit enumerates nothing.
    """
    from cifc.polytope import _oracle_hull

    misses = _oracle_hull.cache_info().misses
    if misses == stats.misses_seen:
        stats.cache_hits += 1
    else:
        system = args[0]
        n = len(system.variables)
        stats.subsets += math.comb(len(system.rows) + n, n)
        stats.misses_seen = misses


_HOOKS = {
    "polytope.fme_project": _count_empty,
    "verify.linprog": _count_feasible,
    "polytope.oracle": _count_oracle_work,
}
