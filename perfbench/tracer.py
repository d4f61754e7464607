"""Span tracing of drgf's public functions from outside the package.

drgf modules call each other through names bound in their own namespaces
(``search`` calls the ``spectrum`` it imported from ``spectral``), so a
wrapper must replace every binding of the function object, not only the one
in its home module.  Wrappers live in this process only: forked pool workers
never see them, which is why traced runs are serial.

Spans are not kept one by one (the D = 5 searches make hundreds of
thousands of calls); each is folded into a per-(parent, name) total of calls
and seconds as it closes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs traced; the span name is "module.function".
TRACED = (
    ("search", "enumerate_arrays"),
    ("search", "valency_cap"),
    ("search", "pentagon_exclusion_cap"),
    ("search", "eta_exclusion_cap"),
    ("spectral", "eigenvalues_float"),
    ("spectral", "sturm_count_leq"),
    ("spectral", "trace_of_l_squared"),
    ("spectral", "abs_u_lower_bounds"),
    ("spectral", "spectrum"),
    ("feasibility", "full_report"),
    ("feasibility", "check_odd_girth_inequality"),
    ("bound", "bound_table"),
    ("bound", "epsilon1"),
    ("oracle", "build"),
    ("oracle", "verify_distance_regular"),
    ("oracle", "spectrum_bruteforce"),
    ("oracle", "odd_girth_bruteforce"),
)

ROOT = "<root>"


class Tracer:
    """Collects span totals while installed; use as a context manager."""

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.enumerations = []  # PruningStats JSON of each enumerate_arrays
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        edges, stack = self.edges, self._stack
        perf = time.perf_counter
        keep_stats = name == "search.enumerate_arrays"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else ROOT
            stack.append(name)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
            if keep_stats:
                self.enumerations.append(out.stats.to_json_dict())
            return out

        return traced

    def __enter__(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "drgf" or n.startswith("drgf.")}
        for modname, func in TRACED:
            orig = getattr(mods["drgf." + modname], func)
            wrapper = self._wrap(f"{modname}.{func}", orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    # ------------------------------------------------------------ queries

    def calls(self, name, parents=None):
        return sum(c for (p, n), (c, _s) in self.edges.items()
                   if n == name and (parents is None or p in parents))

    def seconds(self, name, parents=None, exclude_parents=()):
        return sum(s for (p, n), (_c, s) in self.edges.items()
                   if n == name and (parents is None or p in parents)
                   and p not in exclude_parents)

    def self_seconds(self, name):
        """Time in name minus the time of the traced calls it makes directly."""
        children = sum(s for (p, _n), (_c, s) in self.edges.items() if p == name)
        return self.seconds(name) - children

    def to_json(self):
        return [{"parent": p, "name": n, "calls": c, "seconds": s}
                for (p, n), (c, s) in sorted(self.edges.items())]
