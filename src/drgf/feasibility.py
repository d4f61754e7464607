"""Necessary feasibility conditions for intersection arrays.

Each check is a pure function producing CheckEntry records.  ArrayChecks
runs them for one array one at a time, each once, finding theta_min and
the spectrum only when a check reads them; full_report runs the whole
battery in a fixed order and aggregates the verdicts.  Verdicts:

* pass / fail      -- the condition is decided;
* not-applicable   -- the check's gate condition does not hold;
* inconclusive     -- the value landed inside the numerical guard band
                      (-1e-6, -1e-9] of an inequality; surfaced, never
                      silently passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from mpmath import mp

from .core import IntersectionArray, format_array
from .spectral import (DPS, Exact, Spectrum, _minors, _roots, as_mpf, multiplicity,
                       multiplicity_integral, num_str, spectrum, theta_min_cmp,
                       trace_of_l_squared, workdps)

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"
INCONCLUSIVE = "inconclusive"

INEQ_PASS_TOL = 1e-9   # >= -1e-9 counts as pass
INEQ_FAIL_TOL = 1e-6   # <= -1e-6 counts as fail; between is inconclusive
SUM_RULES_TOL = 1e-6   # the sum rules pass when every relative residual is below it


@dataclass(frozen=True)
class CheckEntry:
    name: str
    verdict: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict, "witness": self.witness}


@dataclass(frozen=True)
class FeasibilityReport:
    array: IntersectionArray
    checks: tuple[CheckEntry, ...]
    spectrum: Spectrum | None = None  # what the checks used; None if it failed

    @property
    def overall(self) -> str:
        """fail if any check fails, else inconclusive if any is, else pass."""
        verdicts = {e.verdict for e in self.checks}
        return FAIL if FAIL in verdicts else INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS

    def verdict(self, name: str) -> str | None:
        """One verdict for the check name across its entries (the odd-girth
        check writes one per j): fail if any fails, else inconclusive if any
        is, else the entry's verdict; None if the report has no such entry."""
        verdicts = [e.verdict for e in self.checks
                    if e.name == name or e.name.startswith(f"{name}_j")]
        return (FAIL if FAIL in verdicts else INCONCLUSIVE if INCONCLUSIVE in verdicts
                else verdicts[0] if verdicts else None)

    @property
    def failing(self) -> list[str]:
        return [e.name for e in self.checks if e.verdict == FAIL]

    def to_json_dict(self) -> dict:
        return {
            "array": format_array(self.array),
            "checks": [e.to_json_dict() for e in self.checks],
            "overall": self.overall,
        }


def _entry(name, verdict, **witness) -> CheckEntry:
    clean = {k: (num_str(v) if not isinstance(v, (int, str, bool, type(None))) else v)
             for k, v in witness.items()}
    return CheckEntry(name, verdict, clean)


def _structure_checks(arr: IntersectionArray) -> list[CheckEntry]:
    """Monotone c, monotone b and integral k_i."""
    c_ok = all(x <= y for x, y in zip(arr.c, arr.c[1:]))
    b_ok = all(x >= y for x, y in zip(arr.b, arr.b[1:]))
    return [_entry("c_nondecreasing", PASS if c_ok else FAIL, c=str(list(arr.c))),
            _entry("b_nonincreasing", PASS if b_ok else FAIL, b=str(list(arr.b))),
            _entry("k_integrality", PASS if arr.k_integral else FAIL,
                   kseq=str([str(x) for x in arr.kseq]))]


def check_a1_zero(arr: IntersectionArray) -> CheckEntry:
    """A smallest eigenvalue below -k/2 forces a_1 = 0."""
    gate = Fraction(-arr.k, 2)
    verdict = NA if theta_min_cmp(arr, gate) >= 0 else PASS if arr.a[1] == 0 else FAIL
    return _entry("a1_zero", verdict, a1=arr.a[1], gate=gate)


def check_c2_bound(arr: IntersectionArray) -> CheckEntry:
    """c_2 <= (2k - 2 theta_min) / (4 - 3 theta_min - k), gated on a_1 = 0 and
    -k < theta_min < (12 - 5k)/7.  Inside the gate the denominator exceeds
    8(k - 1)/7 > 0, so the bound holds exactly when theta_min is at least
    (4 c_2 - (c_2 + 2) k) / (3 c_2 - 2): one exact comparison.

    The closed form divides by u_1 + u_2, which vanishes at theta_min = -k;
    bipartite-type arrays (theta_min = -k exactly) are out of its reach, as
    K_{m,m} with c_2 = m shows.
    """
    k = arr.k
    gate = Fraction(12 - 5 * k, 7)
    if arr.a[1] != 0:
        return _entry("c2_bound", NA, reason="a1 != 0")
    if theta_min_cmp(arr, -k) <= 0 or theta_min_cmp(arr, gate) >= 0:
        return _entry("c2_bound", NA, gate=f"({-k}, {gate})")
    c2 = arr.c[1] if arr.D >= 2 else 1
    least = Fraction(4 * c2 - (c2 + 2) * k, 3 * c2 - 2)
    return _entry("c2_bound", PASS if theta_min_cmp(arr, least) >= 0 else FAIL,
                  c2=c2, least_theta_min=least)


def p_polynomials(t: int, x):
    """Values p_0(x)..p_t(x): p_0 = 1, p_1 = x, p_2 = x^2 - 2, then the
    three-term recurrence p_i = x p_{i-1} - p_{i-2}.  Satisfies
    p_i(2 cos phi) = 2 cos(i phi) for i >= 1."""
    if t < 0:
        raise ValueError("t must be >= 0")
    one = x ** 0 if not isinstance(x, (int, float)) else type(x)(1)
    ps = [one]
    if t >= 1:
        ps.append(x)
    if t >= 2:
        ps.append(x * x - 2)
    for _ in range(3, t + 1):
        ps.append(x * ps[-1] - ps[-2])
    return ps


@cache
def cycle_eigenvalue(g: int, j: int) -> tuple:
    """eta_j = 2 cos(2 pi j / g), an eigenvalue of the g-cycle, with the
    cycle polynomials (p_0(eta_j), .., p_t(eta_j)), t = (g - 1)/2, at
    working precision, built once per (g, j).  Keyed by j, not by g alone:
    epsilon1 reads one j per g, and bound_table asks for every odd g to 101."""
    with workdps():
        eta = 2 * mp.cos(2 * mp.pi * j / g)
        return eta, tuple(p_polynomials((g - 1) // 2, eta))


def _ineq_verdict(value) -> str:
    if value >= -INEQ_PASS_TOL:
        return PASS
    if value <= -INEQ_FAIL_TOL:
        return FAIL
    return INCONCLUSIVE


def check_odd_girth_inequality(arr: IntersectionArray, theta_min) -> list[CheckEntry]:
    """For each eigenvalue eta = 2 cos(2 pi j / g) of the odd-girth cycle,
    sum_{i<=t} p_i(eta) u_i(theta_min) must be nonnegative, with u_i =
    P_i(theta_min) / (b_0...b_{i-1}) from the minors P_i of _minors [BCN
    4.1].  At an int theta_min the recurrence is exact while its terms
    stay below 2^mp.prec, and u_i is then the correctly rounded quotient of
    two exact ints.  The verdict reads the sum at working precision; its
    witness, value, is written at 15 significant digits."""
    t = arr.t
    if t is None:
        return [_entry("odd_girth_inequality", NA, reason="bipartite-type array")]
    g = 2 * t + 1
    out = []
    with workdps():
        minors = itertools.islice(_minors(arr, as_mpf(theta_min)), t + 1)
        u = [as_mpf(p) / math.prod(arr.b[:i]) for i, (p, _) in enumerate(minors)]
        for j in range(t + 1):
            eta, ps = cycle_eigenvalue(g, j)
            val = mp.fsum(p * x for p, x in zip(ps, u))
            out.append(_entry(f"odd_girth_inequality_j{j}", _ineq_verdict(val),
                              j=j, g=g, eta=eta, value=_noise_str(val, 15)))
    return out


def check_sum_rules(arr: IntersectionArray, spec: Spectrum) -> CheckEntry:
    """Numerical sanity: sum m = v, sum m*theta = 0, sum m*theta^2 = v*k."""
    with workdps():
        th = [as_mpf(t) for t in spec.thetas]
        ms = [as_mpf(m) for m in spec.mults_raw]
        v = as_mpf(arr.v)
        r0 = abs(mp.fsum(ms) - v) / v
        r1 = abs(mp.fsum(m * t for m, t in zip(ms, th))) / (v * arr.k)
        r2 = abs(mp.fsum(m * t * t for m, t in zip(ms, th)) - v * arr.k) / (v * arr.k)
        ok = max(r0, r1, r2) < SUM_RULES_TOL
        return _entry("spectrum_sum_rules", PASS if ok else FAIL,
                      r_sum=_noise_str(r0), r_first=_noise_str(r1), r_second=_noise_str(r2))


def _noise_str(x, digits: int = 3) -> str:
    """An mpf at digits significant digits, or 0 where |x| is below
    10^-(DPS-5), the rounding noise of the working precision."""
    return "0" if abs(x) < mp.mpf(10) ** (5 - DPS) else mp.nstr(x, digits)


def check_trace_square(arr: IntersectionArray, theta_min) -> CheckEntry:
    """k^2 + theta_min^2 <= tr(L^2), which holds at the real theta_min."""
    tr = trace_of_l_squared(arr)
    with workdps():
        lhs = (Fraction(arr.k) ** 2 + Fraction(theta_min) ** 2 if isinstance(theta_min, Exact)
               else mp.mpf(arr.k) ** 2 + as_mpf(theta_min) ** 2)
        slack = tr - lhs
    return _entry("trace_square", PASS if lhs <= tr else FAIL, lhs=lhs, trace=tr, slack=slack)


def check_theta_ratio(arr: IntersectionArray, theta_min, ratio: Fraction) -> CheckEntry:
    """theta_min <= ratio * k (exactness matters on the boundary)."""
    x = Fraction(ratio) * arr.k
    return _entry("theta_ratio", PASS if theta_min_cmp(arr, x) <= 0 else FAIL,
                  ratio=str(Fraction(ratio)), theta_min=theta_min, cutoff=x)


class ArrayChecks:
    """One array's checks, each run once and only when asked for, and the
    spectral data they read, each found once and only when read: theta_min
    alone, the lowest box of spectrum's isolation, and the whole spectrum
    built on it.  multiplicity_integrality reads theta_min's multiplicity
    first, with the predicate that Spectrum.multiplicities_integral applies
    to each, and fails there without the rest of the spectrum when it is
    not integral."""

    # each check's entries, in full_report's order (k_integrality's come with
    # the two monotonicity checks); a name the battery does not run has none
    _RUN = {
        "k_integrality": lambda self: _structure_checks(self.arr),
        "multiplicity_integrality": lambda self: self._multiplicities(),
        "a1_zero": lambda self: [check_a1_zero(self.arr)],
        "c2_bound": lambda self: [check_c2_bound(self.arr)],
        "odd_girth_inequality": lambda self: check_odd_girth_inequality(self.arr, self.theta_min),
        "spectrum_sum_rules": lambda self: [check_sum_rules(self.arr, self.spectrum)],
        "trace_square": lambda self: [check_trace_square(self.arr, self.theta_min)],
        "theta_ratio": lambda self: ([] if self.theta_ratio is None else
                                     [check_theta_ratio(self.arr, self.theta_min, self.theta_ratio)]),
    }

    def __init__(self, arr: IntersectionArray, theta_ratio: Fraction | None = None):
        self.arr, self.theta_ratio = arr, theta_ratio
        self._entries = {}
        self._higher = None  # spectral._roots(arr) once theta_min is taken from it

    @cached_property
    def _lowest(self):
        """theta_min's record of spectral._roots."""
        self._higher = _roots(self.arr)
        return next(self._higher)

    @property
    def theta_min(self):
        return self._lowest[0]

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum(self.arr, itertools.chain([self._lowest], self._higher))

    def _multiplicities(self) -> list[CheckEntry]:
        if "spectrum" not in self.__dict__ and not multiplicity_integral(
                multiplicity(self.arr, *self._lowest[2])):
            return [_entry("multiplicity_integrality", FAIL,
                           reason="theta_min's multiplicity is not integral")]
        spec = self.spectrum
        return [_entry("multiplicity_integrality", PASS if spec.multiplicities_integral else FAIL,
                       mults=str([num_str(m) for m in spec.mults_raw]))]

    def entries(self, name: str) -> tuple[CheckEntry, ...]:
        if name not in self._entries:
            self._entries[name] = tuple(self._RUN.get(name, lambda self: ())(self))
        return self._entries[name]

    def verdict(self, name: str) -> str | None:
        return FeasibilityReport(self.arr, self.entries(name)).verdict(name)


def full_report(arr: IntersectionArray, theta_ratio: Fraction | None = None,
                checks: ArrayChecks | None = None) -> FeasibilityReport:
    """Run the whole battery in deterministic order, reusing what checks,
    an ArrayChecks(arr, theta_ratio), has found already.

    Numerical-precision failures inside a check surface as inconclusive
    entries rather than exceptions.
    """
    checks = ArrayChecks(arr, theta_ratio) if checks is None else checks
    try:
        spec = checks.spectrum
    except Exception as exc:  # defensive: no spectrum decides no multiplicity
        return FeasibilityReport(arr, (
            _entry("spectrum", INCONCLUSIVE, error=str(exc)), *_structure_checks(arr),
            _entry("multiplicity_integrality", INCONCLUSIVE, reason="no spectrum")))
    return FeasibilityReport(arr, tuple(e for name in ArrayChecks._RUN
                                        for e in checks.entries(name)), spec)
