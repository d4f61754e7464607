"""Spectra of intersection matrices: eigenvalues and multiplicities.

The tridiagonal intersection matrix L of an intersection array has D+1 real,
simple eigenvalues.  Every value of P = det(xI - L) at a point comes from one
kernel, _minors_at: minor_polys' recurrence run on values, with derivatives,
exactly at a rational x, in mpmath, or over a float array.

* Sturm counts: the minors at x form a Sturm sequence; with zeros skipped,
  (D+1) minus their sign changes is #{eigenvalues <= x}.
* One loop (_roots) isolates every eigenvalue in a box (lo, hi], lowest
  first and lazily, so that theta_min alone costs only the lowest box:
  from (-k-1, k+1], exact Sturm counts at halving cuts drop a box without
  a root and halve one with several.
* In a one-root box with midpoint x, the eigenvalue is the int round(x)
  if P vanishes there; else refine_root, Newton in exact ints on the
  kernel's values on the box's grid 2^-s (to_grid), starts from x, and the
  eigenvalue is round(c) of its result c if P vanishes there, else the mpf
  nearest c clipped into an enclosure, c +- max(2^-49, 2^-s) cut to the
  box (covering refine_root's last bracket [c, c + 2^-s]), that two exact
  signs of P certify.  No interior cut is an integer and every eigenvalue
  lies in [-k, k], so P (monic over Z: its rational roots are integers)
  vanishes at no box end.  No float enters: each deciding sign is exact.
* Every Biggs multiplicity, exact or float, is the Christoffel-Darboux
  form in multiplicity's docstring, from the kernel's minors: exact at an
  int eigenvalue, and for an irrational one exact at refine_root's grid
  point c and then rounded once to an mpf.  The odd-girth check's standard
  sequence is u_i = P_i(theta_min) / (b_0...b_{i-1}).

The enumeration's float screen works on a transposed copy of a batch
(_columns), a_i, b_i and c_i each one contiguous row over all arrays:
theta_min_multiplicity_float finds theta_min alone by Newton from x = -k,
and multiplicities_float takes every eigenvalue from one eigvalsh call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import libmp, mp

from .core import IntersectionArray

Exact = (int, Fraction)

# mpmath working precision in decimal digits, mp.prec = 169 bits: to_grid
# puts refine_root's grid mp.prec bits below the width of its bracket, so a
# refined root is far inside the 2^-49 half-width that the two exact signs
# of the enclosure certificate test, in any box narrower than about 2^120
DPS = 50

# a certified enclosure is the refined root c +- max(_HALF_WIDTH, 2^-s), so
# it covers refine_root's last grid unit: width <= 2^-48 while 2^-s <= 2^-49
_HALF_WIDTH = Fraction(1, 2 ** 49)


class SpectralError(ValueError):
    pass


def as_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def workdps():
    """Context manager pinning mpmath to the working precision DPS."""
    return mp.workdps(DPS)


def num_str(x) -> str:
    """Decimal string at working precision (exact values print exactly); an
    mpf is read at that precision, not rounded to the caller's."""
    if isinstance(x, Exact):
        return str(x)
    with workdps():
        return mp.nstr(as_mpf(x), DPS)


def minor_polys(a, w) -> list[list[int]]:
    """Leading principal minors P_0, ..., P_n of xI - L for the Jacobi matrix L
    with diagonal a_0..a_{n-1} and off-diagonal products w = (w_1, ...,
    w_{n-1}), w_i = b_{i-1} c_i, as coefficient lists (low to high degree):

        P_0 = 1,  P_1 = x - a_0,  P_{i+1} = (x - a_i) P_i - w_i P_{i-1}  [BCN 4.1].
    """
    P = [[1], [-a[0], 1]]
    for ai, wi in zip(a[1:], w):
        P.append([x - ai * y - wi * z
                  for x, y, z in zip([0] + P[-1], P[-1] + [0], P[-2] + [0, 0])])
    return P


def _minors_at(a, w, x, q=1):
    """Yields (R_i, R'_i), i = 0..n: R_i = q^i P_i(x/q) for the minors P_i of
    minor_polys, R'_i its x-derivative; R_0 = 1, R_1 = x - q a_0 and, with
    t_i = x - q a_i,

        R_{i+1} = t_i R_i - q^2 w_i R_{i-1},  R'_{i+1} = R_i + t_i R'_i - q^2 w_i R'_{i-1}.

    x is an int with an int q > 0 (exact; R_i has the sign of P_i(x/q)), an
    mpf, or a float array whose a_i, w_i are rows over the same arrays; a
    caller that keeps only the last pairs holds no other array."""
    if q != 1:
        a, w = [q * ai for ai in a], [q * q * wi for wi in w]
    p0, p1, d0, d1 = 1, x - a[0], 0, 1
    yield p0, d0
    yield p1, d1
    for ai, wi in zip(a[1:], w):
        t = x - ai
        p0, p1, d0, d1 = p1, t * p1 - wi * p0, d1, p1 + t * d1 - wi * d0
        yield p1, d1


def _minors(arr: IntersectionArray, x, q=1):
    """_minors_at for arr at an int x/q, a Fraction p/q (q^i P_i, exact) or an mpf x."""
    x, q = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, q)
    return _minors_at(arr.a, [b * c for b, c in zip(arr.b, arr.c)], x, q)


def _sign_changes(values) -> int:
    """Sign changes along values, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(s != r for s, r in zip(signs, signs[1:]))


def moebius(F, A: int, B: int, Q: int) -> list:
    """G(x) = Q^n (1+x)^n F((A + Bx)/(Q(1+x))), n = deg F, low to high, for
    integer ends A/Q and B/Q: G(0) = Q^n F(A/Q), and G's roots x > 0 are F's
    roots strictly between the ends, so by Descartes' rule [CA] G's
    coefficient sign changes bound their number and have its parity."""
    G, Dpow = [F[-1]], [1]
    for f in reversed(F[:-1]):  # homogeneous Horner in A + Bx and Q(1+x)
        Dpow = [Q * (x + y) for x, y in zip(Dpow + [0], [0] + Dpow)]
        G = [A * x + B * y + f * d for x, y, d in zip(G + [0], [0] + G, Dpow)]
    return G


def sturm_count_leq(arr: IntersectionArray, x) -> int:
    """Exact number of eigenvalues of L that are <= the rational x."""
    return arr.D + 1 - _sign_changes(p for p, _ in _minors(arr, Fraction(x)))


def theta_min_cmp(arr: IntersectionArray, x) -> int:
    """The sign of theta_min - x for a rational x, exact: 1 if no eigenvalue
    is <= x (the Sturm count of the minors at x), 0 if one is and P(x) = 0,
    else -1."""
    minors = [p for p, _ in _minors(arr, Fraction(x))]
    n = arr.D + 1 - _sign_changes(minors)
    return 1 if n == 0 else 0 if n == 1 and minors[-1] == 0 else -1


def _cut(lo: Fraction, hi: Fraction) -> Fraction:
    """A non-integer point of (lo, hi): (lo + hi)/2, moved toward hi while
    it is an integer."""
    m = (lo + hi) / 2
    while m.denominator == 1:
        m = (m + hi) / 2
    return m


def to_grid(lo: Fraction, hi: Fraction, *points):
    """(s, lo, hi, *points) in units of refine_root's grid 2^-s for a bracket
    lo < hi of dyadic rationals, points floored.  s is the least scale, to
    one bit, that puts lo and hi on the grid with at least mp.prec bits
    below hi - lo, 2^-s <= (hi - lo) 2^-prec: relative to the bracket, as
    exact halving leaves boxes about 1e-58 wide at k >= 2^48."""
    w = hi - lo
    s = max(mp.prec + w.denominator.bit_length() - w.numerator.bit_length() + 1,
            lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1)
    return s, *(math.floor(y * 2 ** s) for y in (lo, hi, *points))


def refine_root(f, lo: int, hi: int, start, lo_positive: bool) -> int:
    """The root in [lo, hi] of a function with one root there, on a grid
    2^-s: f(X) gives exact ints (F, F') at X 2^-s, F with the function's
    sign there and F/F' its Newton step in grid units, and lo_positive says
    whether F > 0 left of the root; no end is evaluated.  Returns X with
    F(X) = 0, or the lower end of a one-unit bracket: the root lies in
    [X, X + 1] 2^-s.

    Safeguarded Newton from start: the exact sign at each iterate shrinks
    the bracket, and the step, rounded away from zero to whole units,
    becomes a bisection step where it leaves the open bracket.  A step
    below one unit thus lands one unit past the root, so Newton's quadratic
    convergence ends with the bracket one unit wide.
    """
    x = min(max(start, lo + 1), hi - 1)
    while hi - lo > 1:
        v, d = f(x)
        if v == 0:
            return x
        lo, hi = (x, hi) if (v > 0) == lo_positive else (lo, x)
        y = x - (-(-v // d) if (v > 0) == (d > 0) else v // d) if d else lo
        x = y if lo < y < hi else (lo + hi) // 2
    return lo


def multiplicity_integral(raw) -> bool:
    """Whether a raw Biggs multiplicity is a positive integer: its rounding
    is >= 1 and equals it, exactly, or within 1e-6 (relative) for an mpf."""
    r = _nearest(raw)
    return r >= 1 and (Fraction(raw) == r if isinstance(raw, Exact)
                       else abs(raw - r) < 1e-6 * max(1, abs(raw)))


def _nearest(m) -> int:
    return round(Fraction(m)) if isinstance(m, Exact) else int(mp.nint(m))


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues theta_0 > ... > theta_D with Biggs multiplicities.

    thetas holds exact ints where the eigenvalue is rational, else mpf values;
    enclosures holds (theta, theta) for an int, else a rational interval
    around the refined root, width <= 2^-48 in a box narrower than about
    2^120, that exact signs of P = det(xI - L) prove holds the eigenvalue.
    """

    thetas: tuple
    mults_raw: tuple
    mults: tuple[int, ...]
    enclosures: tuple
    v: int | Fraction

    @property
    def theta_min(self):
        return self.thetas[-1]

    @property
    def multiplicities_integral(self) -> bool:
        """Every raw multiplicity is integral (multiplicity_integral), and
        the rounded ones sum to v."""
        return sum(self.mults) == self.v and all(map(multiplicity_integral, self.mults_raw))


def _box_root(arr: IntersectionArray, lo: Fraction, hi: Fraction, n_lo: int):
    """(theta, enclosure, (x, q)) for the eigenvalue of the one-root box
    (lo, hi], n_lo eigenvalues <= lo (the module docstring), with x/q the
    point its multiplicity is read at: the eigenvalue itself if it is an
    int (q = 1), else refine_root's grid point X 2^-s (q = 2^s)."""

    def det(x, q=1):  # q^(D+1) P(x/q), P = det(xI - L), and its x-derivative
        return deque(_minors(arr, x, q), 1)[0]

    def int_root(x):  # round(x) if it is the eigenvalue of the box
        r = round(x)
        return r if lo < r <= hi and det(r)[0] == 0 else None

    if (r := int_root(x := (lo + hi) / 2)) is None:
        s, *ends = to_grid(lo, hi, x)  # every cut, and so x, is dyadic
        # P is monic with simple roots, so sign P(lo) = (-1)^(D+1-n_lo)
        X = refine_root(lambda X: det(X, 1 << s), *ends, (arr.D + 1 - n_lo) % 2 == 0)
        if (r := int_root(c := Fraction(X, 1 << s))) is None:
            h = max(_HALF_WIDTH, Fraction(1, 1 << s))  # the root is in (c, c + 2^-s)
            a, b = max(lo, c - h), min(hi, c + h)
            if not (a < b and det(a)[0] * det(b)[0] < 0):
                raise SpectralError(f"refined root {float(c)} is not in its box ({lo}, {hi}]")
            y = mp.mpf((X, -s))  # the mpf nearest c, or the box end it rounds past
            if not a <= (t := Fraction(*libmp.to_rational(y._mpf_))) <= b:
                num, den = min(max(t, a), b).as_integer_ratio()
                y = mp.make_mpf(libmp.from_man_exp(num, 1 - den.bit_length()))
            return y, (a, b), (X, 1 << s)
    return r, (Fraction(r), Fraction(r)), (r, 1)


def _roots(arr: IntersectionArray):
    """spectrum's isolation, lazily and lowest first: yields (theta,
    enclosure, (x, q)) of _box_root for each eigenvalue, so that theta_min
    alone costs the lowest box: the Sturm counts at its halving cuts and one
    refine_root.  Taking the records in any number of steps gives the same
    boxes, counts and roots."""
    # L is nonnegative with row sums k: (-k-1, k+1] holds every eigenvalue
    boxes = [(Fraction(-arr.k - 1), Fraction(arr.k + 1), 0, arr.D + 1)]
    while boxes:  # the lowest box first
        a, b, n_a, n_b = boxes.pop()
        if n_b - n_a > 1:
            m = _cut(a, b)
            n_m = sturm_count_leq(arr, m)
            boxes += [(m, b, n_m, n_b), (a, m, n_a, n_m)]
        elif n_b - n_a == 1:
            with workdps():
                found = _box_root(arr, a, b, n_a)
            yield found


def eigenvalues(arr: IntersectionArray) -> list:
    """The D+1 simple eigenvalues of L, strictly decreasing.

    Integer eigenvalues come back as ints; irrational ones as mpf at the
    working precision.
    """
    return list(spectrum(arr).thetas)


def _columns(rows):
    """a_0..a_D, b_0..b_{D-1} and c_1..c_D of an (n, 2D) matrix of rows
    b_0..b_{D-1}, c_1..c_D, as (D+1, n), (D, n) and (D, n) float arrays in
    which each row, one entry for every array, is contiguous: a transposed
    copy, a_i = k - b_i - c_i with b_D = c_0 = 0."""
    b, c = np.split(np.ascontiguousarray(np.asarray(rows).T, float), 2)
    a = np.vstack([b[:1] - b, b[:1]])
    a[1:] -= c
    return a, b, c


def _jacobi_eigvals(a, b, c) -> np.ndarray:
    """The eigenvalues theta_0 > ... > theta_D, one row per array, of a
    stack of arrays of one diameter in the layout of _columns: one
    np.linalg.eigvalsh over the symmetrised intersection matrices (diag
    a_i, off-diagonal sqrt(b_i c_{i+1}))."""
    D, n = b.shape
    i = np.arange(D + 1)
    L = np.zeros((n, D + 1, D + 1))
    L[:, i, i] = a.T
    L[:, i[1:], i[:-1]] = L[:, i[:-1], i[1:]] = np.sqrt(b * c).T
    return np.linalg.eigvalsh(L)[:, ::-1]


def eigenvalues_float(arr: IntersectionArray) -> list[float]:
    """Float eigenvalues, decreasing, of the symmetrised intersection matrix
    (LAPACK); spectrum's exact isolation reads none of them."""
    return _jacobi_eigvals(*_columns([arr.b + arr.c]))[0].tolist()


def _biggs_float(a: np.ndarray, b: np.ndarray, c: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Float Biggs multiplicities at th, an (n,) vector or (m, n) matrix, for
    a stack of arrays of one diameter in the layout of _columns: the
    Christoffel-Darboux form of multiplicity from one pass of _minors_at."""
    w = b * c
    v = np.cumprod(np.vstack([np.ones((1, b.shape[1])), b / c]), axis=0).sum(axis=0)
    (p0, d0), (p1, d1) = deque(_minors_at(a, w, th), 2)
    return v * w.prod(axis=0) / (d1 * p0 - d0 * p1)


def multiplicities_float(rows: np.ndarray) -> np.ndarray:
    """Float Biggs multiplicities at every eigenvalue, decreasing, of each
    row of an (n, 2D) int matrix of b_0..b_{D-1}, c_1..c_D: one eigvalsh
    call and one pass of _biggs_float."""
    a, b, c = _columns(rows)
    return _biggs_float(a, b, c, _jacobi_eigvals(a, b, c).T).T


# Newton on det(xI - L) stops after a step below _NEWTON_TOL * k, and a row
# that has not stopped after _NEWTON_STEPS steps is left undecided.
_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-12


def theta_min_multiplicity_float(rows) -> tuple[np.ndarray, np.ndarray]:
    """theta_min and its float Biggs multiplicity for a batch of one diameter.

    rows is an (n, 2D) int matrix of b_0..b_{D-1}, c_1..c_D.  Each row runs
    Newton on P = det(xI - L) from x = -k, P and P' from one float pass of
    _minors_at over all rows per step, until a step is below _NEWTON_TOL * k,
    and takes _biggs_float at the limit.  A row that has not stopped within
    _NEWTON_STEPS steps, or whose iterate is not finite, gets NaN for both
    values: it is undecided, never a fractional multiplicity.

    Why the start works.  L is a nonnegative matrix with row sums k, so its
    eigenvalues lie in [-k, k], and they are real and simple (a Jacobi
    matrix), so P(x) = prod_j (x - theta_j) with theta_min < every other
    theta_j.  At any x < theta_min put d_j = theta_j - x > 0; then P'/P =
    sum_j 1/(x - theta_j) = -sum_j 1/d_j, and the Newton step is

        x' - x = -P/P' = 1 / sum_j 1/d_j,

    which lies in (0, d_min) with d_min = theta_min - x, as every term
    1/d_j > 0 and the sum exceeds 1/d_min.  So x < x' < theta_min: from
    x = -k (or from theta_min = -k itself, where P = 0 and the step is 0)
    the iterates rise monotonically and stay at or below theta_min.  A
    bounded increasing sequence converges, and its steps tend to 0, which
    forces d_min -> 0 since the step is at least d_min / (D + 1): the limit
    is theta_min, reached quadratically as the root is simple.  The same
    inequality bounds the error at the stop: a step s leaves theta_min - x'
    <= D s.
    """
    a, b, c = _columns(rows)
    k, w = b[0], b * c
    x, done = -k, np.zeros(len(k), bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            p, dp = deque(_minors_at(a, w, x), 1)[0]
            step = p / dp
            x = np.where(done, x, x - step)
            done |= np.abs(step) <= _NEWTON_TOL * k
            if done.all():
                break
        theta = np.where(done & np.isfinite(x), x, np.nan)
        return theta, _biggs_float(a, b, c, theta)


def multiplicity(arr: IntersectionArray, x: int, q: int = 1):
    """Biggs multiplicity v / sum k_i u_i^2 [BCN 4.1.1] at x/q for ints x
    and q > 0: exact at an eigenvalue x (q = 1; P_{D+1} is monic over Z, so
    a rational eigenvalue is an int), and at refine_root's grid point x 2^-s
    (q = 2^s) of an irrational one the exact value there, rounded once to
    an mpf at working precision.

    With B_i = b_0...b_{i-1}, u_i = P_i(theta) / B_i (B_i times the u
    recurrence is the minor recurrence) and k_i = B_i / (c_1...c_i), so
    k_i u_i^2 = P_i^2 / (w_1...w_i), and at every x the confluent
    Christoffel-Darboux identity of these monic orthogonal polynomials,

        sum_{i<=D} P_i^2 / (w_1...w_i) = (P'_{D+1} P_D - P'_D P_{D+1}) / (w_1...w_D),

    gives m = v w_1...w_D / (P'_{D+1} P_D - P'_D P_{D+1}); in the minors
    R_i = q^i P_i(x/q) of _minors_at, m = v w_1...w_D q^(2D) / (R'_{D+1} R_D
    - R'_D R_{D+1}).  The sum is at least 1, so a denominator that is not
    positive raises SpectralError, as does q = 1 with P(x) != 0."""
    (p0, d0), (p1, d1) = deque(_minors(arr, x, q), 2)
    if q == 1 and p1:
        raise SpectralError(f"{x} is not an eigenvalue")
    cd = d1 * p0 - d0 * p1
    if not cd > 0:
        raise SpectralError(f"multiplicity at {x}/{q}: Christoffel-Darboux denominator {cd}")
    num = arr.v.numerator * math.prod(arr.b) * math.prod(arr.c) * q ** (2 * arr.D)
    if q == 1:
        return Fraction(num, arr.v.denominator * cd)
    with workdps():
        return mp.make_mpf(libmp.from_rational(num, arr.v.denominator * cd, mp.prec,
                                               libmp.round_nearest))


def spectrum(arr: IntersectionArray, roots=None) -> Spectrum:
    """The eigenvalues and their Biggs multiplicities; roots, if given, is
    _roots(arr) with the records already taken from it put back in front,
    so that no eigenvalue is isolated twice."""
    found = list(_roots(arr) if roots is None else roots)[::-1]
    if len(found) != arr.D + 1:
        raise SpectralError("root count mismatch")
    if found[0][0] != arr.k:
        raise SpectralError("theta_0 != k")
    thetas, enclosures, points = zip(*found)
    raw = tuple(multiplicity(arr, *at) for at in points)
    v = arr.v.numerator if arr.v.denominator == 1 else arr.v
    return Spectrum(thetas, raw, tuple(map(_nearest, raw)), enclosures, v)


def multiplicity_upper_bound(u, tail):
    """max{1/u_1^2, ..., 1/u_{j-1}^2, tail/u_j^2} for u = (u_0, ..., u_j), j >= 1:
    with tail >= (k_j + ... + k_D)/k_j, a bound [BCN 4.1] on the Biggs
    multiplicity v / sum k_i u_i^2 of an eigenvalue whose standard sequence
    starts with u (a ratio of sums is at most the largest ratio of their
    parts), which holds as well where each u_i is a lower bound on |u_i|.
    Exact for exact inputs, else an mpf; ValueError if some u_i (i >= 1) is 0."""
    if len(u) < 2 or any(x == 0 for x in u[1:]):
        raise ValueError(f"need u_0, ..., u_j with j >= 1 and no u_i = 0, got {u}")
    with workdps():
        num = Fraction if all(isinstance(x, Exact) for x in (*u, tail)) else as_mpf
        inv = [1 / num(x) ** 2 for x in u[1:]]
        return max([*inv[:-1], num(tail) * inv[-1]])


def abs_u_lower_bounds(k_min: int, theta_ratio_range, c_upper) -> list[Fraction]:
    """Lower bounds lo_0, ..., lo_m for |u_0(theta)|, ..., |u_m(theta)|,
    m = len(c_upper) + 1 <= 4, valid at once over the region

        k >= k_min,  r = |theta|/k in [r_lo, r_hi] inside (1/2, 1],
        a_1 = ... = a_{m-1} = 0,  c_1 = 1,  1 <= c_i <= C_i (1 < i < m),

    where each C_i = c_upper[i-1] is either fixed (c_2 <= 2 at every k) or
    scales with the valency (c_3 <= gamma k, passed as C_3 = gamma k_min).
    It is one exact evaluation of the chain at (k_min, r_lo):

        lo_0 = 1,  lo_1 = r,  lo_{i+1} = max(0, (r k lo_i - C_i lo_{i-1}) / (k - C_i)).

    Outside that domain (c_upper not starting with 1, some C_i outside
    [1, k_min), or m > 4, where a step would need an upper bound on |u_3|)
    it raises ValueError.

    Ratios.  While lo_1, ..., lo_i > 0, rho_j = lo_j / lo_{j-1} obeys
    rho_1 = r and rho_{j+1} = G(rho_j, r, t_j), with t_j = C_j / (k - C_j)
    >= 0 and G(rho, r, t) = r - t (1/rho - r).  By induction 0 < rho_j <= r
    <= 1, as 1/rho_j >= 1 >= r.  Once some lo_i is 0 every later one is 0,
    its numerator being -C_i lo_{i-1} <= 0.

    Validity at one (k, r).  b_i = k - c_i and b_i u_{i+1} = theta u_i -
    c_i u_{i-1} give |u_{i+1}| >= (r k |u_i| - c_i |u_{i-1}|) / (k - c_i).
    u_0 = 1, |u_1| = r and (c_1 = 1) |u_2| = |r^2 k - 1| / (k - 1) are
    exact, the last equal to lo_2 when lo_2 > 0.  So for i <= 3 with
    lo_i > 0 the step holds with |u_{i-1}| = lo_{i-1} and |u_i| >= lo_i, and
    its right side is lo_{i-1} rho G(rho, r, c_i/(k - c_i)) at rho = lo_i /
    lo_{i-1} in (0, r]: nonincreasing in c_i, so c_i = C_i is the worst case
    and |u_{i+1}| >= lo_{i+1}.

    Monotonicity.  G increases in rho > 0 and in r (dG/dr = 1 + t), and does
    not increase in t, as 1/rho - r >= 0.  A fixed C_j makes t_j decrease in
    k; a scaling one, C_j = gamma_j k, makes it gamma_j / (1 - gamma_j),
    constant.  Take r_lo <= r <= r' <= 1 and k_min <= k <= k', primes
    marking values at (k', r'), with lo_1, ..., lo_i > 0 at (k, r).  By
    induction on j, rho'_j >= rho_j > 0:

        rho'_{j+1} = G(rho'_j, r', t'_j) >= G(rho_j, r', t'_j)
                   >= G(rho_j, r', t_j) >= G(rho_j, r, t_j) = rho_{j+1},

    the middle step by t'_j <= t_j and 1/rho_j - r' >= 0.  So lo'_i >= lo_i
    (trivially where lo_i = 0): every lo_i is nondecreasing in r on (1/2, 1]
    and in k >= k_min, for fixed and scaling bounds alike, and its value at
    (k_min, r_lo) bounds |u_i| over the whole region.
    """
    r, r_hi = (Fraction(x) for x in theta_ratio_range)
    cs = [Fraction(c) for c in c_upper]
    if not Fraction(1, 2) < r <= r_hi <= 1:
        raise ValueError("theta ratio range must lie in (1/2, 1]")
    if not (1 <= len(cs) <= 3 and cs[0] == 1 and all(1 <= c < k_min for c in cs)):
        raise ValueError("c_upper must be (1, C_2[, C_3]) with every 1 <= C_i < k_min")
    lows = [Fraction(1), r]
    for c in cs:
        lows.append(max(Fraction(0), (r * k_min * lows[-1] - c * lows[-2]) / (k_min - c)))
    return lows


def trace_of_l_squared(arr: IntersectionArray) -> int:
    """tr(L^2) = sum a_i^2 + 2 sum b_i c_{i+1}, exact."""
    return sum(x * x for x in arr.a) + 2 * sum(
        arr.b[i] * arr.c[i] for i in range(arr.D))


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sqrt(x) < hi = lo + 2^-64 for x >= 0, from one isqrt:
    n = isqrt(floor(x 2^128)) has n^2 <= x 2^128 < (n + 1)^2."""
    n = math.isqrt((x.numerator << 128) // x.denominator)
    return Fraction(n, 1 << 64), Fraction(n + 1, 1 << 64)


def implied_last_c_lower(D: int, k: int, theta) -> Fraction:
    """Lower bound on c_D implied by the trace inequality in the all-a-zero regime.

    Uses the coarse caps tr(L^2) <= k^2 + 6k + c_4(2k - c_4) for D = 4 and
    tr(L^2) <= k^2 + 6k + 4 c_5 k - c_5^2 for D = 5 (valid when c_2 <= 2 and
    the earlier c_i are dominated by the last one), solved for the last c with
    the square root from above: a Fraction at most 2^-64 below the exact bound.
    """
    if D not in (4, 5):
        raise ValueError("implied_last_c_lower supports D in {4, 5}")
    return (D - 3) * k - sqrt_bounds(((D - 3) * k) ** 2 + 6 * k - Fraction(theta) ** 2)[1]
