"""Reference values and correctness checks for the drgf benchmark.

Everything here is computed apart from drgf: intersection arrays and spectra
come from closed forms, multiplicities from numpy eigenvectors, the odd-girth
bound from numpy polynomial roots.  Arrays are plain ``(b, c)`` tuples so the
checks take no drgf object.  Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

COXETER = ((3, 2, 2, 1), (1, 1, 1, 2))
SQRT2 = math.sqrt(2.0)

# The seven witness graphs of the classification, as drgf.oracle names them.
CATALOG_GRAPHS = ("cycle:9", "coxeter", "odd_graph:5", "folded_cube:9",
                  "cycle:11", "odd_graph:6", "folded_cube:11")

SPECTRUM_TOL = 1e-9   # closed-form eigenvalues vs computed ones
ROOT_TOL = 1e-9       # bound roots vs numpy roots
MULT_FAR = 1e-3       # a multiplicity this far from an integer is fractional
MULT_NEAR = 1e-6      # a multiplicity this close to an integer is integral


# ---------------------------------------------------------------- arrays

def polygon(n: int):
    """The n-gon, n odd: {2,1,...,1; 1,...,1}."""
    D = (n - 1) // 2
    return (2,) + (1,) * (D - 1), (1,) * D


def odd_graph_array(m: int):
    """Odd graph O_m: b_i = m - ceil(i/2), c_i = ceil(i/2), diameter m - 1."""
    D = m - 1
    return (tuple(m - (i + 1) // 2 for i in range(D)),
            tuple((i + 1) // 2 for i in range(1, D + 1)))


def folded_cube_array(n: int):
    """Folded n-cube, n odd: b_i = n - i, c_i = i, diameter (n - 1)/2."""
    D = (n - 1) // 2
    return tuple(n - i for i in range(D)), tuple(range(1, D + 1))


def paper_arrays(D: int):
    """The classification for theta_min <= -(D-1)/D k, D in {4, 5}."""
    n = 2 * D + 1
    arrays = [polygon(n), odd_graph_array(D + 1), folded_cube_array(n)]
    if D == 4:
        arrays.insert(0, COXETER)
    return arrays


def main_survivors(D: int):
    """Survivors of the main search space (all a_i = 0 below D, k >= 5)."""
    return [odd_graph_array(D + 1), folded_cube_array(2 * D + 1)]


def graph_array(name: str):
    base, _, param = name.partition(":")
    if base == "coxeter":
        return COXETER
    maker = {"cycle": polygon, "odd_graph": odd_graph_array,
             "folded_cube": folded_cube_array}[base]
    return maker(int(param))


def graph_odd_girth(name: str) -> int:
    base, _, param = name.partition(":")
    if base == "coxeter":
        return 7
    n = int(param)
    return 2 * n - 1 if base == "odd_graph" else n


def graph_spectrum(name: str):
    """Textbook spectrum (decreasing values, multiplicities) of a witness graph."""
    base, _, param = name.partition(":")
    if base == "coxeter":
        return ([3.0, 2.0, SQRT2 - 1, -1.0, -SQRT2 - 1], [1, 8, 6, 7, 6])
    n = int(param)
    if base == "cycle":
        return ([2 * math.cos(2 * math.pi * j / n) for j in range((n + 1) // 2)],
                [1] + [2] * ((n - 1) // 2))
    if base == "odd_graph":
        pairs = [((-1) ** i * (n - i),
                  math.comb(2 * n - 1, i) - (math.comb(2 * n - 1, i - 1) if i else 0))
                 for i in range(n)]
    else:
        pairs = [(n - 4 * i, math.comb(n, 2 * i)) for i in range((n + 1) // 2)]
    pairs.sort(reverse=True)
    return [float(v) for v, _m in pairs], [m for _v, m in pairs]


# ------------------------------------------------------- array arithmetic

def kseq(b, c):
    """k_0 = 1, k_i = k_{i-1} b_{i-1} / c_i as exact fractions."""
    ks = [Fraction(1)]
    for bi, ci in zip(b, c):
        ks.append(ks[-1] * bi / ci)
    return ks


def array_spectrum(b, c):
    """Eigenvalues (decreasing) of the symmetrised intersection matrix and
    their Biggs multiplicities v * w_0^2 from its unit eigenvectors."""
    k, D = b[0], len(b)
    bb, cc = tuple(b) + (0,), (0,) + tuple(c)
    diag = [k - bb[i] - cc[i] for i in range(D + 1)]
    S = np.diag(np.array(diag, dtype=float))
    for i in range(D):
        S[i, i + 1] = S[i + 1, i] = math.sqrt(b[i] * c[i])
    w, V = np.linalg.eigh(S)
    v = float(sum(kseq(b, c)))
    order = np.argsort(w)[::-1]
    return w[order].tolist(), (v * V[0, order] ** 2).tolist()


def failing_check(b, c):
    """The feasibility check a random array provably fails, by a computation
    made here: 'k_integrality' for a fractional k_i, 'multiplicity_integrality'
    for a multiplicity at least MULT_FAR from an integer; None otherwise."""
    if any(x.denominator != 1 for x in kseq(b, c)):
        return "k_integrality"
    _thetas, mults = array_spectrum(b, c)
    if any(abs(m - round(m)) >= MULT_FAR for m in mults):
        return "multiplicity_integrality"
    return None


# ------------------------------------------------------------------ bound

def bound_coefficients(g: int):
    """Coefficients (low to high) of sum_i 2cos(i phi) y^i + M1 zeta*, with
    p_0 = 1, phi = 2 pi (t-1)/g, N_i = 2 N_{i-1} + 4 and M2 = 1/cos((t-1)pi/g)."""
    t = (g - 1) // 2
    N = [0, 0]
    for _ in range(2, t + 1):
        N.append(2 * N[-1] + 4)
    m1 = 2.0 * sum(N)
    m2 = 1.0 / math.cos((t - 1) * math.pi / g)
    zeta = min(m2 / (2 * m1), 0.5)
    phi = 2 * math.pi * (t - 1) / g
    return [1.0 + m1 * zeta] + [2 * math.cos(i * phi) for i in range(1, t + 1)]


def sharp_g5_coefficients(zeta: float):
    """Girth-5 polynomial with the sharp schedule N_2 = 2/(1 - zeta)."""
    eta = 2 * math.cos(2 * math.pi / 5)
    return [1.0 + 4 * zeta / (1 - zeta), eta, eta * eta - 2]


def smallest_root(coeffs):
    """Smallest real root in (-1, 0) of sum coeffs[i] y^i by numpy, or None."""
    roots = np.polynomial.polynomial.polyroots(np.array(coeffs, dtype=float))
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 and -1 < r.real < 0]
    return min(real) if real else None


def bound_reference(g_min: int, g_max: int):
    """{g: theta/k} for odd g in [g_min, g_max]."""
    return {g: smallest_root(bound_coefficients(g))
            for g in range(g_min | 1, g_max + 1, 2)}


# ----------------------------------------------------------------- checks

def check_stats(label, stats):
    """generated = survivors + sum of kills, for a PruningStats JSON dict."""
    total = stats["survivors"] + sum(stats["killed"].values())
    if stats["generated"] != total:
        return [f"{label}: generated {stats['generated']} != survivors + killed {total}"]
    return []


def check_spectral(D, b, c):
    """theta_min/k <= -(D-1)/D and integral multiplicities, by numpy."""
    ratio = -(D - 1) / D
    thetas, mults = array_spectrum(b, c)
    problems = []
    if not thetas[-1] / b[0] <= ratio + 1e-9:
        problems.append(f"D={D}: {b};{c} theta_min/k = {thetas[-1] / b[0]} > {ratio}")
    if any(abs(m - round(m)) > MULT_NEAR for m in mults):
        problems.append(f"D={D}: {b};{c} multiplicities {mults} not integral")
    return problems


def check_theorem2(D, arrays, discrepancies, stats_list):
    """One classify_diameter(D) result: arrays as (b, c) tuples."""
    problems = [f"D={D}: discrepancy {d}" for d in discrepancies]
    want = paper_arrays(D)
    if sorted(arrays) != sorted(want) or len(set(arrays)) != len(arrays):
        problems.append(f"D={D}: arrays {sorted(arrays)} != paper {sorted(want)}")
    for b, c in arrays:
        problems += check_spectral(D, b, c)
    for i, stats in enumerate(stats_list):
        problems += check_stats(f"D={D} stage {i}", stats)
    return problems


def check_enumeration(D, survivors, stats, reference=None):
    """One enumerate_arrays result on the main space; reference is the
    (survivors, stats) of a serial run of the same spec."""
    problems = []
    if list(survivors) != main_survivors(D):
        problems.append(f"D={D}: survivors {survivors} != {main_survivors(D)}")
    problems += check_stats(f"D={D}", stats)
    if reference is not None and (list(survivors), stats) != (list(reference[0]), reference[1]):
        problems.append(f"D={D}: jobs=2 result {stats} differs from serial {reference[1]}")
    return problems


def check_report(label, overall, failing, expect_fail=None):
    """A catalog report must pass; a must-fail report must fail on expect_fail."""
    if expect_fail is None:
        return [] if overall == "pass" else [f"{label}: {overall}, failing {failing}"]
    if overall != "fail" or expect_fail not in failing:
        return [f"{label}: {overall}, failing {failing}, expected {expect_fail}"]
    return []


def _close(xs, ys, tol=SPECTRUM_TOL):
    return len(xs) == len(ys) and all(abs(x - y) <= tol for x, y in zip(xs, ys))


def check_verify(name, bfs_array, odd_girth, dense, exact):
    """The verify path on one witness graph against its closed forms.
    dense and exact are (values, multiplicities), decreasing."""
    problems = []
    if bfs_array != graph_array(name):
        problems.append(f"{name}: BFS array {bfs_array} != {graph_array(name)}")
    if odd_girth != graph_odd_girth(name):
        problems.append(f"{name}: odd girth {odd_girth} != {graph_odd_girth(name)}")
    values, mults = graph_spectrum(name)
    for label, (vals, ms) in (("dense", dense), ("spectrum()", exact)):
        if not _close(vals, values) or list(ms) != mults:
            problems.append(f"{name}: {label} {vals} {ms} != {values} {mults}")
    return problems


def check_bound_table(rows, reference):
    """rows: (g, theta/k) pairs from bound_table; reference from bound_reference."""
    problems = []
    if [g for g, _ in rows] != sorted(reference):
        problems.append(f"bound table covers g = {[g for g, _ in rows]}")
    for g, value in rows:
        want = reference.get(g)
        if value is None or want is None or abs(value - want) > ROOT_TOL:
            problems.append(f"bound g={g}: theta/k {value} != numpy root {want}")
    return problems


def check_sharp_g5(value, zeta=0.1):
    """The sharp girth-5 bound at zeta = 1/10: -0.78 <= theta/k < -0.77, and
    equal to the numpy root."""
    want = smallest_root(sharp_g5_coefficients(zeta))
    if value is None or not -0.78 <= value < -0.77 or abs(value - want) > ROOT_TOL:
        return [f"sharp girth-5 bound {value} (numpy root {want}) not in [-0.78, -0.77)"]
    return []
