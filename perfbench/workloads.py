"""The benchmark's workloads: inputs made from the seed, one operation each,
and the checks of that operation's outputs.

Importing this module imports drgf, so ``src`` must be on ``sys.path``.
The operations call drgf through module attributes (``search.enumerate_arrays``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import drgf.cli  # noqa: F401  -- the full package, as a CLI user loads it
from drgf import bound, feasibility, oracle, search, spectral
from drgf.core import IntersectionArray

import checks
from tracer import Tracer

# Published valency caps of the D = 4 and D = 5 main branches.
MAIN_CAPS = {4: 35, 5: 71}
MUST_FAIL_PER_KIND = 6
BOUND_RANGE = (5, 101)
SHARP_ZETA = Fraction(1, 10)


def _pair(arr):
    return (tuple(arr.b), tuple(arr.c))


def _ratio(D):
    return Fraction(-(D - 1), D)


def main_specs():
    return [search.SearchSpec(D, 5, MAIN_CAPS[D], "0" * (D - 1) + "+", (1, 2), _ratio(D))
            for D in (4, 5)]


def enumerate_specs(specs, jobs):
    return [search.enumerate_arrays(spec, jobs=jobs) for spec in specs]


def enumeration_outputs(results):
    return [([_pair(a) for a in res.survivors], res.stats.to_json_dict())
            for res in results]


def random_array(rng):
    """A random array with monotone c and b and every a_i >= 0."""
    D = rng.choice((4, 5))
    k = rng.randint(5, 30)
    b, c = [k], [1]
    for i in range(1, D):
        b.append(rng.randint(1, min(b[-1], k - c[-1])))
        c.append(rng.randint(c[-1], min(k if i == D - 1 else k - 1, c[-1] + 3)))
    return tuple(b), tuple(c)


def must_fail_arrays(seed):
    """MUST_FAIL_PER_KIND arrays of each failing kind, drawn from the seed."""
    rng = random.Random(seed)
    found = {"k_integrality": [], "multiplicity_integrality": []}
    seen = set()
    for _ in range(100_000):
        b, c = random_array(rng)
        kind = checks.failing_check(b, c)
        if kind is None or (b, c) in seen or len(found[kind]) == MUST_FAIL_PER_KIND:
            continue
        seen.add((b, c))
        found[kind].append((IntersectionArray(b, c), kind))
        if all(len(v) == MUST_FAIL_PER_KIND for v in found.values()):
            return found["k_integrality"] + found["multiplicity_integrality"]
    raise RuntimeError(f"seed {seed}: too few must-fail arrays")


class Theorem2:
    """classify_diameter(4) then classify_diameter(5), jobs=1."""

    def __init__(self, seed):
        self.diameters = (4, 5)

    def run(self):
        return [search.classify_diameter(D, jobs=1) for D in self.diameters]

    def check(self, results):
        problems = []
        for res in results:
            stats = [s.stats.to_json_dict() for s in res.stages if s.stats is not None]
            problems += checks.check_theorem2(
                res.D, [_pair(a) for a in res.arrays], res.discrepancies, stats)
        return problems

    def warm_up(self):
        res = search.classify_diameter(4, jobs=1)
        return checks.check_theorem2(4, [_pair(a) for a in res.arrays],
                                     res.discrepancies, [])


class EnumerateJobs2:
    """enumerate_arrays on the D = 4 and D = 5 main spaces, jobs=2."""

    def __init__(self, seed):
        self.specs = main_specs()
        self.reference = None

    def run(self):
        return enumerate_specs(self.specs, jobs=2)

    def check(self, results):
        references = self.reference or [None] * len(self.specs)
        problems = []
        for spec, (survivors, stats), ref in zip(
                self.specs, enumeration_outputs(results), references):
            problems += checks.check_enumeration(spec.D, survivors, stats, ref)
        return problems

    def warm_up(self):
        """A serial traced run of the same specs; its survivors and counts
        are the reference every jobs=2 operation must reproduce."""
        with Tracer():
            results = enumerate_specs(self.specs, jobs=1)
        problems = self.check(results)
        self.reference = enumeration_outputs(results)
        return problems


class Audit:
    """full_report on the catalog and must-fail arrays, the verify path on
    the catalog graphs, the bound table and the sharp girth-5 bound."""

    def __init__(self, seed):
        self.catalog = [(IntersectionArray(*checks.graph_array(name)),
                         _ratio(len(checks.graph_array(name)[0])))
                        for name in checks.CATALOG_GRAPHS]
        self.must_fail = must_fail_arrays(seed)
        self.bound_reference = None

    def run(self):
        reports = [feasibility.full_report(arr, ratio) for arr, ratio in self.catalog]
        failing = [feasibility.full_report(arr) for arr, _kind in self.must_fail]
        verified = []
        for name in checks.CATALOG_GRAPHS:
            g = oracle.build(name)
            arr, _witness = oracle.verify_distance_regular(g)
            verified.append((name, arr, oracle.odd_girth_bruteforce(g),
                             oracle.spectrum_bruteforce(g), spectral.spectrum(arr)))
        table = bound.bound_table(*BOUND_RANGE)
        sharp = bound.epsilon1(5, bound.MODE_SHARP_G5, SHARP_ZETA)
        return reports, failing, verified, table, sharp

    def check(self, out):
        reports, failing, verified, table, sharp = out
        if self.bound_reference is None:
            self.bound_reference = checks.bound_reference(*BOUND_RANGE)
        problems = []
        for rep in reports:
            problems += checks.check_report(str(rep.array), rep.overall, rep.failing)
        for rep, (_arr, kind) in zip(failing, self.must_fail):
            problems += checks.check_report(str(rep.array), rep.overall, rep.failing, kind)
        for name, arr, girth, dense, sp in verified:
            exact = ([float(t) for t in sp.thetas], list(sp.mults))
            problems += checks.check_verify(name, _pair(arr), girth, dense, exact)
        rows = [(g, None if th is None else float(th)) for g, _z, _e, th in table]
        problems += checks.check_bound_table(rows, self.bound_reference)
        th = sharp.theta_over_k
        problems += checks.check_sharp_g5(None if th is None else float(th),
                                          float(SHARP_ZETA))
        return problems

    def warm_up(self):
        return self.check(self.run())


WORKLOADS = {"theorem2": Theorem2, "enumerate-jobs2": EnumerateJobs2, "audit": Audit}
