"""Odd-girth eigenvalue bound: for valency-k graphs of odd girth g, the
smallest eigenvalue satisfies theta_min >= -(1 - epsilon1) k on the branch
where c_t <= zeta k (t = (g-1)/2).

The machinery: a schedule N_i controlling |u_i - (theta/k)^i| <= N_i zeta,
the constants M1 = sum 2 N_i and M2 = 1/cos((t-1) pi / g), the polynomial
f(x, y) = sum_{i<=t} p_i(x) y^i, and the smallest root in (-1, 0) of
f(eta, y) + M1 zeta = 0 at eta = 2 cos(2 pi (t-1) / g).  Two schedules are
exposed: the generic recurrence N_i = 2 N_{i-1} + 4, and a sharper girth-5
variant with N_2 = 2 / (1 - zeta).

Only this computable branch constant is produced; the remaining case
constants of the full bound are minima over finite graph families that are
not effectively enumerable, so reported bounds carry that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .feasibility import cycle_eigenvalue
from .spectral import _sign_changes, as_mpf, moebius, refine_root, to_grid, workdps

MODE_GENERAL = "general"
MODE_SHARP_G5 = "sharp-g5"
MODES = (MODE_GENERAL, MODE_SHARP_G5)

EPSILON_CAVEAT = ("epsilon1 covers the c_t <= zeta*k branch only; the full "
                  "constant is a minimum over further finite graph families "
                  "that are not computed here")

class BoundError(ValueError):
    pass


def _require_odd_girth(g: int) -> int:
    if g < 5 or g % 2 == 0:
        raise BoundError(f"need odd girth >= 5, got {g}")
    return (g - 1) // 2


def schedule_n(g: int, mode: str = MODE_GENERAL, zeta=None) -> list:
    """N_0..N_t of the mode; the one place that validates the mode.  The
    sharp girth-5 schedule needs zeta, which the general one ignores."""
    t = _require_odd_girth(g)
    if mode == MODE_GENERAL:
        N = [0, 0]
        for _ in range(2, t + 1):
            N.append(2 * N[-1] + 4)
        return N
    if mode != MODE_SHARP_G5:
        raise BoundError(f"unknown mode {mode!r}")
    if g != 5:
        raise BoundError("sharp-g5 schedule is specific to girth 5")
    if zeta is None:
        raise BoundError("sharp-g5 schedule needs zeta")
    return [mp.mpf(0), mp.mpf(0), 2 / (1 - as_mpf(zeta))]


def m2_constant(g: int):
    t = _require_odd_girth(g)
    return 1 / mp.cos((t - 1) * mp.pi / g)


def zeta_star(g: int, mode: str = MODE_GENERAL):
    """min{M2 / (2 M1), 1/2}; for the sharp girth-5 schedule M1 = 4 / (1 - zeta)
    depends on zeta itself and the minimum solves to M2 / (8 + M2)."""
    with workdps():
        M1 = 2 * mp.fsum(schedule_n(g, mode, 0))  # the sharp one's is unused
        M2 = m2_constant(g)
        if mode == MODE_SHARP_G5:
            return min(M2 / (8 + M2), mp.mpf(1) / 2)
        return min(M2 / (2 * M1), mp.mpf(1) / 2)


def _leftmost_root(coeffs) -> mp.mpf | None:
    """The root of p(y) = sum coeffs[i] y^i in (-1, 0), None without one.
    With C_i the coefficients as ints over their common binary exponent,
    G = moebius(C, -1, 0, 1) has one positive root for each root of p in
    (-1, 0), and Descartes' rule bounds their number by G's coefficient
    sign changes, with its parity: none gives None, one a simple root, and
    more raise BoundError.  The one root is refined by refine_root from six
    float Newton steps at y = -1 (p and p' by Horner's rule on Python
    floats), with the sign of p just right of -1, that of G's first nonzero
    coefficient, so no end is evaluated.  F(X) = sum C_i X^i q^(n-i) and
    F' = dF/dX, by Horner's rule on ints (q = 2^s, n the degree), are p(X/q)
    and its X-derivative times one power of 2."""
    mans = [(-n if neg else n, e) for neg, n, e, _ in (mp.mpf(c)._mpf_ for c in coeffs)]
    e0 = min(e for n, e in mans if n)
    C = [n << e - e0 if n else 0 for n, e in mans]
    G = moebius(C, -1, 0, 1)
    if (changes := _sign_changes(G)) != 1:
        if changes:
            raise BoundError(f"{changes} sign changes: p may have several roots in (-1, 0)")
        return None
    floats, m = [float(c) for c in reversed(coeffs)], -1.0
    for _ in range(6):  # a seed that is NaN or outside (-1, 0) gives way to -1/2
        v = d = 0.0
        for c in floats:
            v, d = v * m + c, d * m + v
        m = m - v / d if d else math.nan
    s, *ends = to_grid(Fraction(-1), Fraction(0), Fraction(m if -1 < m < 0 else -0.5))
    scaled = [c << s * i for i, c in enumerate(reversed(C))]

    def f(X):
        v, d = scaled[0], 0
        for c in scaled[1:]:
            v, d = v * X + c, d * X + v
        return v, d
    return mp.mpf((refine_root(f, *ends, next(g for g in G if g) > 0), -s))


@dataclass(frozen=True)
class BoundParameters:
    g: int
    t: int
    mode: str
    zeta: object
    N: tuple
    M1: object
    M2: object
    eta: object
    epsilon1: object  # None when the equation has no root in (-1, 0)

    @property
    def theta_over_k(self):
        return None if self.epsilon1 is None else -(1 - self.epsilon1)


def epsilon1(g: int, mode: str = MODE_GENERAL, zeta=None) -> BoundParameters:
    """Branch constant at zeta (default zeta_star): -(1 - epsilon1) is the
    smallest root of f(eta, y) + M1 zeta in (-1, 0).

    With zeta = zeta_star the bracket is guaranteed: the value at y = -1 is
    -M2 + M1 zeta <= -M2/2 < 0, which is checked before root hunting
    (BoundError if it fails), and at y = 0 it is 1 + M1 zeta >= 1.
    """
    with workdps():
        at_star = zeta is None
        z = as_mpf(zeta_star(g, mode) if at_star else zeta)
        if not 0 <= z <= mp.mpf(1) / 2:
            raise BoundError("zeta must lie in [0, 1/2]")
        N = tuple(schedule_n(g, mode, z))
        M1 = 2 * mp.fsum(N)
        t = len(N) - 1
        eta, ps = cycle_eigenvalue(g, t - 1)
        coeffs = list(ps)
        coeffs[0] += M1 * z
        M2 = m2_constant(g)
        at_m1 = mp.fsum(c * (-1) ** i for i, c in enumerate(coeffs))
        # at zeta_star the bracket is forced: value -M2 + M1 zeta <= -M2/2
        if at_star and not at_m1 <= -M2 / 2 + mp.mpf("1e-30"):
            raise BoundError("bracketing sign fact failed at zeta*")
        root = _leftmost_root(coeffs)
        eps = None if root is None else 1 + root
        return BoundParameters(g, t, mode, z, N, M1, M2, eta, eps)


def conservative_2dp(x) -> str:
    """Round a lower bound downward to 2 decimals (safe direction)."""
    return f"{math.floor(float(x) * 100) / 100:.2f}"


def polygon_epsilon_upper(g: int):
    """2 cos^2(t pi / (2t+1)): the gap 1 + theta_min/k of the g-gon itself,
    an upper bound for any valid branch-independent constant."""
    if g < 3 or g % 2 == 0:
        raise BoundError(f"need odd g >= 3, got {g}")
    t = (g - 1) // 2
    with workdps():
        return 2 * mp.cos(t * mp.pi / g) ** 2


def diameter_bound(t: int, zeta) -> int:
    """ceil(4 t / zeta^2): exact for a rational zeta, at working precision
    for an mpf one (zeta_star)."""
    if t < 1:
        raise BoundError("t must be >= 1")
    with workdps():
        z = as_mpf(zeta) if isinstance(zeta, mp.mpf) else Fraction(zeta)
        if not 0 < z <= 0.5:
            raise BoundError("zeta must lie in (0, 1/2]")
        val = 4 * t / (z * z)
        return math.ceil(val) if isinstance(val, Fraction) else int(mp.ceil(val))


def bound_table(g_min: int, g_max: int, mode: str = MODE_GENERAL):
    """Rows (g, zeta_star, epsilon1, theta/k bound) for odd g in [g_min, g_max];
    BoundError if there is none."""
    if not (girths := range(g_min | 1, g_max + 1, 2)):
        raise BoundError(f"no odd girth in {g_min}..{g_max}")
    rows = []
    for g in girths:
        params = epsilon1(g, mode)
        rows.append((g, params.zeta, params.epsilon1, params.theta_over_k))
    return rows
