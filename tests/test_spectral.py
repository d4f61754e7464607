import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import libmp, mp

from drgf import feasibility, oracle, spectral
from drgf.core import IntersectionArray, parse_array
from drgf.feasibility import (FAIL, INCONCLUSIVE, PASS, check_odd_girth_inequality,
                              check_trace_square, full_report, p_polynomials)
from drgf.spectral import (abs_u_lower_bounds, as_mpf, eigenvalues,
                           eigenvalues_float, implied_last_c_lower, minor_polys, multiplicity,
                           multiplicities_float, multiplicity_upper_bound,
                           refine_root, spectrum, sqrt_bounds,
                           sturm_count_leq, theta_min_cmp, theta_min_multiplicity_float,
                           trace_of_l_squared, workdps)

CORPUS = ["{2;1}", "{2,1;1,1}", "{3,2;1,1}", "{2,1,1,1;1,1,1,1}",
          "{3,2,2,1;1,1,1,2}", "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}",
          "{2,1,1,1,1;1,1,1,1,1}", "{6,5,5,4,4;1,1,2,2,3}",
          "{11,10,9,8,7;1,2,3,4,5}", "{3,2,1;1,2,3}", "{4,3,2,1;1,2,3,4}",
          "{4,3,3;1,1,3}", "{5,4,4,3;1,1,2,3}"]


def test_intersection_matrix_9_gon(intersection_matrix):
    L = intersection_matrix(parse_array("{2,1,1,1;1,1,1,1}"))
    assert L.shape == (5, 5)
    assert list(np.diag(L)) == [0, 0, 0, 0, 1]


def test_intersection_matrix_folded_9_cube(intersection_matrix):
    L = intersection_matrix(parse_array("{9,8,7,6;1,2,3,4}"))
    assert list(np.diag(L)) == [0, 0, 0, 0, 5]
    assert list(np.diag(L, 1)) == [9, 8, 7, 6]
    assert list(np.diag(L, -1)) == [1, 2, 3, 4]


def test_intersection_matrix_triangle(intersection_matrix):
    L = intersection_matrix(parse_array("{2;1}"))
    assert L.tolist() == [[0, 2], [1, 1]]


def test_eigenvalues_odd_graph_vs_oracle(catalog_graphs):
    assert eigenvalues(parse_array("{5,4,4,3;1,1,2,2}")) == [5, 3, 1, -2, -4]
    vals, _ = oracle.spectrum_bruteforce(catalog_graphs["odd_graph:5"])
    assert np.allclose(vals, [5, 3, 1, -2, -4], atol=1e-7)


def test_eigenvalues_folded_9_cube_vs_oracle(catalog_graphs):
    assert eigenvalues(parse_array("{9,8,7,6;1,2,3,4}")) == [9, 5, 1, -3, -7]
    vals, _ = oracle.spectrum_bruteforce(catalog_graphs["folded_cube:9"])
    assert np.allclose(vals, [9, 5, 1, -3, -7], atol=1e-7)


def test_eigenvalues_9_gon_cosines(catalog_graphs):
    got = eigenvalues(parse_array("{2,1,1,1;1,1,1,1}"))
    expect = sorted((2 * math.cos(2 * math.pi * j / 9) for j in range(5)), reverse=True)
    assert all(abs(float(as_mpf(a)) - b) < 1e-12 for a, b in zip(got, expect))
    vals, _ = oracle.spectrum_bruteforce(catalog_graphs["cycle:9"])
    assert np.allclose([float(as_mpf(t)) for t in got], vals, atol=1e-7)


def test_eigenvalues_two_ways_agree():
    for text in CORPUS:
        arr = parse_array(text)
        exact = [float(as_mpf(t)) for t in eigenvalues(arr)]
        lapack = eigenvalues_float(arr)
        assert max(abs(a - b) for a, b in zip(exact, lapack)) < 1e-9, text


def _assert_float_mults_match_exact(arrays):
    # one (n, 2D) int matrix of b_0..b_{D-1}, c_1..c_D per diameter
    for D in {arr.D for arr in arrays}:
        batch = [arr for arr in arrays if arr.D == D]
        got = multiplicities_float(np.array([arr.b + arr.c for arr in batch]))
        assert got.shape == (len(batch), D + 1)
        for arr, row in zip(batch, got):
            exact = np.array([float(as_mpf(m)) for m in spectrum(arr).mults_raw])
            assert np.all(np.abs(row - exact) <= 1e-9 * np.maximum(1, np.abs(exact))), str(arr)


def test_multiplicities_float_catalog():
    arrays = [parse_array(text) for _name, text in oracle.CATALOG]
    assert len(arrays) == 7
    _assert_float_mults_match_exact(arrays)


def test_multiplicities_float_mixed_diameters():
    rng = random.Random(7)
    arrays = []
    while len(arrays) < 40:
        k, D = rng.randint(2, 12), rng.randint(1, 6)
        c = [1] + [rng.randint(1, k) for _ in range(D - 1)]  # c_1..c_D
        b = [k] + [rng.randint(1, k - ci) for ci in c[:D - 1] if ci < k]
        if len(b) == D:
            arrays.append(spectral.IntersectionArray(tuple(b), tuple(c)))
    assert len({arr.D for arr in arrays}) == 6
    _assert_float_mults_match_exact(arrays)


def test_theta_min_multiplicity_float_matches_exact():
    # one batch per diameter of the corpus: theta_min and its multiplicity
    # from the Newton pass against the exact spectrum, a bipartite array
    # (theta_min = -k, where Newton starts) included
    by_d = {}
    for text in CORPUS:
        arr = parse_array(text)
        by_d.setdefault(arr.D, []).append(arr)
    assert any(arr.t is None for arrs in by_d.values() for arr in arrs)
    for arrays in by_d.values():
        theta, m = theta_min_multiplicity_float(np.array([arr.b + arr.c for arr in arrays]))
        for arr, th, mult in zip(arrays, theta, m):
            sp = spectrum(arr)
            assert abs(th - float(as_mpf(sp.theta_min))) <= 1e-12 * arr.k, str(arr)
            exact = float(as_mpf(sp.mults_raw[-1]))
            assert abs(mult - exact) <= 1e-9 * max(1, exact), str(arr)


def _minor_values(arr, x) -> list:
    """P_0(x), ..., P_{D+1}(x) from the minor kernel."""
    return [p for p, _ in spectral._minors(arr, x)]


def test_standard_sequence_perron():
    # u_i(k) = 1: the minors at k are B_i, and P_{D+1}(k) = 0
    for text in ("{5,4,4,3;1,1,2,2}", "{2;1}", "{11,10,9,8,7;1,2,3,4,5}"):
        arr = parse_array(text)
        assert _minor_values(arr, arr.k) == [*(math.prod(arr.b[:i]) for i in range(arr.D + 1)), 0]


def test_standard_sequence_o5_exact(standard_u):
    # u_i = P_i(-4) / B_i, B_i = b_0...b_{i-1}, from the kernel against the
    # by-hand u recurrence
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    *minors, last = _minor_values(arr, -4)
    u = (1, Fraction(-4, 5), Fraction(11, 20), Fraction(-7, 20), Fraction(1, 10))
    assert tuple(Fraction(p, math.prod(arr.b[:i])) for i, p in enumerate(minors)) == u
    assert standard_u(arr, -4) == u and last == 0


def test_terminal_identity_iff_eigenvalue():
    # c_D u_{D-1} + (a_D - theta) u_D = -P_{D+1}(theta) / B_D: exactly 0 at
    # an int eigenvalue, below 1e-8 at an mpf one, above it elsewhere
    o5, cox = parse_array("{5,4,4,3;1,1,2,2}"), parse_array("{3,2,2,1;1,1,1,2}")
    with workdps():
        for arr in (o5, cox):
            for theta in eigenvalues(arr):
                last = _minor_values(arr, theta)[-1]
                assert last == 0 if isinstance(theta, int) else abs(last) / math.prod(arr.b) < 1e-8
        assert any(not isinstance(theta, int) for theta in eigenvalues(cox))
        for theta in (-3.5, 0.5, 2.0, 4.0):
            assert abs(_minor_values(o5, mp.mpf(theta))[-1]) / math.prod(o5.b) > 1e-8


def test_sign_alternation_at_theta_min(standard_u):
    for text in CORPUS:
        arr = parse_array(text)
        u = standard_u(arr, eigenvalues(arr)[-1])
        for x, y in zip(u, u[1:]):
            if x != 0 and y != 0:
                assert (x > 0) != (y > 0), text
        assert max(abs(as_mpf(x)) for x in u) <= 1 + mp.mpf("1e-30"), text


def test_multiplicity_trivial_eigenvalue():
    assert multiplicity(parse_array("{9,8,7,6;1,2,3,4}"), 9) == 1


def test_multiplicity_o5_vs_oracle(catalog_graphs):
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    assert multiplicity(arr, -4) == 8
    spec = spectrum(arr)
    assert spec.mults == (1, 27, 42, 48, 8)
    assert sum(spec.mults) == 126
    _vals, mults = oracle.spectrum_bruteforce(catalog_graphs["odd_graph:5"])
    assert tuple(mults) == spec.mults


def test_multiplicity_9_gon():
    arr = parse_array("{2,1,1,1;1,1,1,1}")
    spec = spectrum(arr)
    assert spec.mults == (1, 2, 2, 2, 2)
    assert sum(spec.mults) == 9


def test_multiplicity_rejects_non_eigenvalue():
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    with pytest.raises(spectral.SpectralError):
        multiplicity(arr, -3)


def _k_tail(arr, j):
    """(k_j + ... + k_D) / k_j, exact."""
    return sum(arr.kseq[j:]) / arr.kseq[j]


def test_multiplicity_upper_bound_dominates(standard_u):
    for text in ("{5,4,4,3;1,1,2,2}", "{3,2,2,1;1,1,1,2}", "{9,8,7,6;1,2,3,4}"):
        arr = parse_array(text)
        spec = spectrum(arr)
        for theta, m in zip(spec.thetas[1:], spec.mults_raw[1:]):
            u = standard_u(arr, theta)
            for j in range(1, arr.D + 1):
                if 0 in u[1:j + 1]:
                    continue
                bound = multiplicity_upper_bound(u[:j + 1], _k_tail(arr, j))
                assert isinstance(bound, Fraction) == isinstance(theta, int)
                assert as_mpf(bound) >= as_mpf(m) - mp.mpf("1e-20"), (text, j)
                # lower bounds on |u_i| and an upper bound on the tail keep it a bound
                looser = multiplicity_upper_bound(
                    [abs(x) * Fraction(99, 100) for x in u[:j + 1]], _k_tail(arr, j) + 1)
                assert as_mpf(looser) >= as_mpf(bound)


def test_multiplicity_upper_bound_single_term(standard_u):
    # D = 1: the tail collapses to 1/u_1^2 = k^2/theta^2
    arr = parse_array("{2;1}")
    assert multiplicity_upper_bound(standard_u(arr, -1), _k_tail(arr, 1)) == 4
    assert multiplicity(arr, -1) == 2


def test_multiplicity_upper_bound_rejects_zero_u(standard_u):
    u = standard_u(parse_array("{2,1;1,1}"), 0)  # the pentagon's sequence at 0
    assert u == (1, 0, -1)
    with pytest.raises(ValueError):
        multiplicity_upper_bound(u[:2], 2)
    with pytest.raises(ValueError):  # an earlier zero leaves no finite bound either
        multiplicity_upper_bound(u, 2)
    with pytest.raises(ValueError):
        multiplicity_upper_bound((1,), 2)


def test_sturm_count_boundary_exact():
    arr = parse_array("{5,4,4,3;1,1,2,2}")  # theta_min = -4 <= -15/4
    assert sturm_count_leq(arr, Fraction(-15, 4)) == 1
    assert sturm_count_leq(arr, Fraction(-4)) == 1     # boundary hit exactly
    assert sturm_count_leq(arr, Fraction(-401, 100)) == 0
    assert sturm_count_leq(arr, Fraction(5)) == 5


def _oracle_cmp(theta, x: Fraction) -> int:
    """The sign of theta - x for one of sympy's real_roots: exact for a
    rational root, else at 60 digits, far finer than any gap below."""
    d = theta - sympy.Rational(x.numerator, x.denominator)
    if not theta.is_Rational:
        d = d.evalf(60)
        assert abs(d) > 1e-40
    return 1 if d > 0 else -1 if d < 0 else 0


def test_theta_min_cmp_matches_sympy_real_roots():
    # at every integer eigenvalue, the a1_zero and c2_bound gates -k/2, -k
    # and (12 - 5k)/7, and rationals within 1e-6 of an irrational theta_min,
    # on the catalog arrays and the seeded ones
    signs = []
    for arr in [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED:
        roots = sympy.Poly(charpoly(arr)[::-1], sympy.Symbol("x")).real_roots()
        points = [Fraction(int(r)) for r in roots if r.is_Integer]
        points += [Fraction(-arr.k, 2), Fraction(-arr.k), Fraction(12 - 5 * arr.k, 7)]
        if not roots[0].is_Rational:
            near = Fraction(str(roots[0].evalf(30)))
            points += [near, near - Fraction(1, 10**7), near + Fraction(1, 10**7)]
        for x in points:
            signs.append(theta_min_cmp(arr, x))
            assert signs[-1] == _oracle_cmp(roots[0], x), (str(arr), x)
    assert all(signs.count(s) > 20 for s in (-1, 0, 1))


def _seeded_arrays(n=42, seed=4155, d_max=6, k_max=12):
    """n arrays with D = 1..d_max in turn, k in [2, k_max], c non-decreasing
    and b non-increasing; neither k_i nor the multiplicities need be integral."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        D, k = i % d_max + 1, rng.randint(2, k_max)
        c = [1]
        while len(c) < D:  # c_i < k below the diameter keeps b_i >= 1
            c.append(rng.randint(c[-1], k if len(c) == D - 1 else k - 1))
        b = [k]
        for j in range(1, D):
            b.append(rng.randint(1, min(b[-1], k - c[j - 1])))
        out.append(IntersectionArray(tuple(b), tuple(c)))
    return out


SEEDED = _seeded_arrays()


def charpoly(arr: IntersectionArray) -> list[int]:
    """det(xI - L), low to high: the last leading principal minor."""
    return minor_polys(arr.a, [b * c for b, c in zip(arr.b, arr.c)])[-1]


@pytest.mark.parametrize("arr", SEEDED, ids=str)
def test_charpoly_matches_sympy(arr, intersection_matrix):
    x = sympy.Symbol("x")
    M = sympy.Matrix(intersection_matrix(arr).tolist())
    P = M.charpoly(x)
    assert charpoly(arr) == [int(c) for c in reversed(P.all_coeffs())]


@pytest.mark.parametrize("arr", SEEDED, ids=str)
def test_sturm_count_matches_numpy(arr, intersection_matrix):
    # every integer in [-k-1, k+1], where minors and integer eigenvalues
    # vanish, and seeded rationals with small denominators
    theta = np.linalg.eigvals(intersection_matrix(arr).astype(float)).real
    rng = random.Random(str(arr))
    points = [Fraction(n) for n in range(-arr.k - 1, arr.k + 2)]
    points += [Fraction(rng.randint(-9 * arr.k, 9 * arr.k), rng.randint(2, 9))
               for _ in range(20)]
    for x in points:
        assert sturm_count_leq(arr, x) == int((theta <= float(x) + 1e-7).sum()), x


def _grid_horner(coeffs, s):
    """refine_root's f for sum coeffs[i] y^i (ints or mpf values) on the grid
    2^-s: Horner's rule on the ints den c_i q^(n-i), den the coefficients'
    common denominator, q = 2^s and n the degree."""
    fr = [Fraction(*libmp.to_rational(mp.mpf(c)._mpf_)) for c in coeffs]
    den, q, n = math.lcm(*(c.denominator for c in fr)), 1 << s, len(fr) - 1
    ints = [int(c * den) * q ** (n - i) for i, c in enumerate(fr)]

    def f(X):
        v = d = 0
        for c in reversed(ints):
            v, d = v * X + c, d * X + v
        return v, d
    return f


def _refine(coeffs, lo, hi):
    """The root of sum coeffs[i] y^i that refine_root finds in [lo, hi], as a
    Fraction on to_grid's grid, given the exact sign left of the root: that
    of the value at lo, or minus the slope where lo is a root."""
    s, lo, hi = spectral.to_grid(Fraction(lo), Fraction(hi))
    f = _grid_horner(coeffs, s)
    v, d = f(lo)
    return Fraction(refine_root(f, lo, hi, (lo + hi) // 2, (v or -d) > 0), 1 << s)


def test_refine_root_when_newton_leaves_the_bracket():
    # Newton on y^3 - 2y + 2 cycles 0 -> 1 -> 0; from the midpoint 0 of
    # [-2, 2] the bracket shrinks to [-2, 0] and the step to 1 leaves it
    coeffs = [2, -2, 0, 1]
    with workdps():
        root = as_mpf(_refine(coeffs, -2, 2))
        exact = mp.findroot(lambda y: y ** 3 - 2 * y + 2, -1.77)
        assert abs(root - exact) < mp.mpf(10) ** -45


def test_refine_root_at_a_bracket_end():
    # Newton toward the end root overshoots it, so only bisection could
    # approach it: (y - 1)(y - 3) from 3/2 and 2 (y + 1/2)(y + 2) from -9/16;
    # on the grid of 200 digits that would take over 660 halvings.  No end
    # is evaluated, so the root at hi comes back as the bracket one unit below
    with mp.workdps(200):
        assert _refine([3, -4, 1], 1, 2) == 1
        s, lo, hi = spectral.to_grid(Fraction(-5, 8), Fraction(-1, 2))
        assert _refine([2, 5, 2], Fraction(-5, 8), Fraction(-1, 2)) == Fraction(hi - 1, 1 << s)


def test_refine_root_on_mpf_coefficients():
    with workdps():
        coeffs = [-mp.sqrt(2), 0, 0, 0, 1]  # y^4 = sqrt(2)
        root = as_mpf(_refine(coeffs, 0, 2))
        assert abs(root - mp.root(2, 8)) < mp.mpf(10) ** -45


def test_refine_root_with_a_known_end_sign_evaluates_no_end():
    # y^2 - 2 on [1, 2]: told that F(lo) < 0, the refine never evaluates lo
    # or hi and ends on the one-unit bracket of sqrt(2)
    with workdps():
        s, lo, hi = spectral.to_grid(Fraction(1), Fraction(2))
        f, seen = _grid_horner([-2, 0, 1], s), []
        X = refine_root(lambda X: seen.append(X) or f(X), lo, hi, (lo + hi) // 2, False)
        assert lo not in seen and hi not in seen
        assert X * X < 2 << 2 * s < (X + 1) ** 2


def test_abs_u_chain_diameter4_constants():
    lows = abs_u_lower_bounds(36, (Fraction(3, 4), 1), [1, 2])
    assert lows[1] == Fraction(3, 4)
    assert lows[2] == Fraction(11, 20)          # 0.5500 exactly
    assert math.floor(lows[3] * 10**4) == 3926  # 0.3926...


def test_abs_u_chain_diameter5_constants():
    lows = abs_u_lower_bounds(24, (Fraction(4, 5), 1), [1, 2])
    assert math.floor(lows[2] * 10**4) == 6243
    assert math.floor(lows[3] * 10**4) == 4721
    lows = abs_u_lower_bounds(71, (Fraction(4, 5), 1), [1, 2])
    assert math.floor(lows[2] * 10**4) == 6348
    assert math.floor(lows[3] * 10**4) == 4994
    lows = abs_u_lower_bounds(71, (Fraction(4, 5), 1),
                              [1, 2, Fraction(2166, 10**4) * 71])
    assert math.floor(lows[4] * 10**4) == 3344


def test_abs_u_chain_never_exceeds_true_values(standard_u):
    # random admissible instances: chain bounds stay below the true |u_i|
    rng = random.Random(7)
    tried = 0
    while tried < 40:
        k = rng.randint(8, 40)
        c2 = rng.randint(1, 2)
        c3 = rng.randint(c2, k - 1)
        c4 = rng.randint(c3, k - 1)
        try:
            arr = parse_array("{%d,%d,%d,%d;1,%d,%d,%d}"
                              % (k, k - 1, k - c2, k - c3, c2, c3, c4))
        except Exception:
            continue
        tmin = eigenvalues(arr)[-1]
        ratio = -as_mpf(tmin) / k
        if not 3 * k <= 4 * (-as_mpf(tmin)):  # need |theta| >= 3k/4
            continue
        tried += 1
        lows = abs_u_lower_bounds(k, (Fraction(3, 4), 1), [1, 2, c3])
        for lo, u in zip(lows, standard_u(arr, tmin)):
            assert as_mpf(lo) <= abs(as_mpf(u)) + mp.mpf("1e-25")


def _two_sided_chain(k, r, c_upper):
    """The chain as the grid-era code ran it: lower and upper bounds carried
    jointly, each c_i step taking the worse of both endpoints c = 1, C_i."""
    lo, hi = [Fraction(1), Fraction(r)], [Fraction(1), Fraction(r)]
    for i, C in enumerate(c_upper, start=1):
        def step(A, B):
            return [(A - c * B) / (k - c) for c in (1, C)]
        lo.append(max(Fraction(0), min(step(r * k * lo[i], hi[i - 1]))))
        hi.append(max(Fraction(0), max(step(r * k * hi[i], lo[i - 1]))))
    return lo


CAP_CHAINS = [(36, Fraction(3, 4), [1, 2]), (24, Fraction(4, 5), [1, 2]),
              (71, Fraction(4, 5), [1, 2]),
              (71, Fraction(4, 5), [1, 2, Fraction(2166, 10**4) * 71])]


@pytest.mark.parametrize("k_min, r_lo, c_upper", CAP_CHAINS)
def test_abs_u_chain_equals_the_grid_minimum(k_min, r_lo, c_upper):
    # the four valency_cap calls: one evaluation at (k_min, r_lo) gives what
    # the 1024-point ratio grid at k_min and the probes at k_min * {2, .., 16}
    # gave, to the same Fraction
    grid = [r_lo + (1 - r_lo) * i / 1023 for i in range(1024)]
    points = [(k_min, r) for r in grid] + [(f * k_min, r_lo) for f in (2, 4, 8, 16)]
    chains = [_two_sided_chain(k, r, c_upper) for k, r in points]
    oracle = [min(column) for column in zip(*chains)]
    assert abs_u_lower_bounds(k_min, (r_lo, 1), c_upper) == oracle


def test_abs_u_chain_bounds_the_chain_over_its_region():
    # the one evaluation is at most the chain anywhere in the proven region,
    # with c_3 <= C read as a fixed bound and as one scaling like gamma k
    rng = random.Random(20261018)
    for _ in range(40):
        k_min = rng.randint(6, 80)
        r_lo = Fraction(rng.randint(51, 100), 100)
        c2 = rng.randint(1, 2)
        c_upper = [1, c2, Fraction(rng.randint(100 * c2, 100 * (k_min - 1)), 100)]
        del c_upper[rng.randint(2, 4):]  # a third of the chains stop at u_3
        lows = abs_u_lower_bounds(k_min, (r_lo, 1), c_upper)

        def rand_k():
            return rng.randint(k_min, 3 * k_min)

        def rand_r():
            return r_lo + (1 - r_lo) * Fraction(rng.randint(0, 1000), 1000)

        for k, r in ((k_min, rand_r()), (rand_k(), r_lo), (rand_k(), rand_r())):
            scaled = c_upper[:2] + [c * k / k_min for c in c_upper[2:]]
            for cs in (c_upper, scaled):
                for lo, chain in zip(lows, _two_sided_chain(k, r, cs)):
                    assert lo <= chain, (k_min, r_lo, c_upper, k, r, cs)


@pytest.mark.parametrize("ratio_range, c_upper", [
    ((Fraction(1, 2), 1), [1, 2]),                # r_lo not above 1/2
    ((Fraction(3, 4), Fraction(5, 4)), [1, 2]),   # r_hi above 1
    ((Fraction(9, 10), Fraction(4, 5)), [1, 2]),  # empty range
    ((Fraction(3, 4), 1), [2, 2]),                # c_1 is 1
    ((Fraction(3, 4), 1), [1, Fraction(1, 2)]),   # c_2 >= 1
    ((Fraction(3, 4), 1), [1, 2, 36]),            # c_3 < k_min
    ((Fraction(3, 4), 1), [1, 2, 3, 4]),          # u_5 needs an upper |u_3|
    ((Fraction(3, 4), 1), []),
])
def test_abs_u_chain_raises_outside_its_proven_domain(ratio_range, c_upper):
    with pytest.raises(ValueError):
        abs_u_lower_bounds(36, ratio_range, c_upper)


def test_trace_of_l_squared():
    arr = parse_array("{9,8,7,6;1,2,3,4}")
    # sum a_i^2 + 2 sum b_i c_{i+1} equals sum of eigenvalue squares
    assert trace_of_l_squared(arr) == sum(t * t for t in eigenvalues(arr))


def test_trace_square_check_true_at_theta_min():
    for text in CORPUS:
        arr = parse_array(text)
        assert check_trace_square(arr, eigenvalues(arr)[-1]).verdict == PASS, text


def test_implied_last_c_lower_anchor_values():
    c4r = implied_last_c_lower(4, 36, -27) / 36
    assert abs(float(c4r) - 0.2227) < 1e-4
    c5r = implied_last_c_lower(5, 71, Fraction(-4, 5) * 71) / 71
    assert abs(float(c5r) - 0.1440) < 1e-4


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.parametrize("x", [
    Fraction(0), Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 2**64),
    Fraction(12345678901234567890 ** 2), Fraction(2), Fraction(5), Fraction(3, 7),
    Fraction(4 * 36 * 36 - 3, 10**4), Fraction(10**39 + 7),
    Fraction(31415926535897932384626433832795028841, 27182818284590452353602874713526624977)])
def test_sqrt_bounds_against_sympy(x):
    lo, hi = sqrt_bounds(x)
    assert isinstance(lo, Fraction) and hi - lo == Fraction(1, 2**64)
    assert lo * lo <= x < hi * hi  # fractions as the oracle
    root = sympy.sqrt(_rational(x)) * 2**64  # sympy's exact root, on the 2^-64 grid
    assert lo * 2**64 == sympy.floor(root)
    assert (lo * lo == x) == root.is_integer  # a root on the grid comes out exactly


@pytest.mark.parametrize("D, k, theta", [(4, 36, Fraction(-27)), (5, 71, Fraction(-4, 5) * 71)])
def test_implied_last_c_lower_against_sympy(D, k, theta):
    got = implied_last_c_lower(D, k, theta)
    assert isinstance(got, Fraction)
    m = D - 3
    exact = m * k - sympy.sqrt(_rational(m * m * k * k - theta * theta + 6 * k))
    gap = exact - _rational(got)
    assert gap >= 0 and gap < sympy.Rational(1, 2**60)


def test_sum_rules_on_corpus():
    for text in CORPUS:
        arr = parse_array(text)
        spec = spectrum(arr)
        v = float(arr.v)
        th = [float(as_mpf(t)) for t in spec.thetas]
        ms = [float(as_mpf(m)) for m in spec.mults_raw]
        assert abs(sum(ms) - v) < 1e-6 * v
        assert abs(sum(m * t for m, t in zip(ms, th))) < 1e-6 * v * arr.k
        assert abs(sum(m * t * t for m, t in zip(ms, th)) - v * arr.k) < 1e-6 * v * arr.k


def test_bipartite_spectrum_symmetric():
    for text in ("{3,2,1;1,2,3}", "{4,3,2,1;1,2,3,4}", "{2,1;1,2}"):
        arr = parse_array(text)
        th = [float(as_mpf(t)) for t in eigenvalues(arr)]
        assert all(abs(a + b) < 1e-9 for a, b in zip(th, reversed(th)))


def test_spectrum_json():
    # the fields a caller would serialise, exact for an integral spectrum
    spec = spectrum(parse_array("{5,4,4,3;1,1,2,2}"))
    assert spec.thetas == (5, 3, 1, -2, -4) and all(type(t) is int for t in spec.thetas)
    assert spec.mults_raw == spec.mults == (1, 27, 42, 48, 8)
    assert spec.v == 126 and type(spec.v) is int


def test_spectrum_enclosures_certified():
    spec = spectrum(parse_array("{3,2,2,1;1,1,1,2}"))
    for theta, (lo, hi) in zip(spec.thetas, spec.enclosures):
        assert lo <= Fraction(str(as_mpf(theta))).limit_denominator(10**30) <= hi \
            or (lo <= float(as_mpf(theta)) <= hi)
        assert hi - lo <= Fraction(1, 2**40)


def test_spectrum_rejects_a_refined_root_outside_its_box(monkeypatch):
    # a refiner that errs must not yield an eigenvalue, and the report on the
    # array then has no spectrum to decide anything with: the lower end of
    # the bracket, a root off by about 1e-12 and theta_min, an eigenvalue
    # but of another box, each fail the two exact signs on the clipped
    # interval
    arr = parse_array("{3,2,2,1;1,1,1,2}")
    refine, theta_min = spectral.refine_root, spectrum(arr).theta_min

    def at_theta_min(f, lo, hi, start, lo_positive):  # f(0)[0] = q^(D+1) P(0) on the grid 1/q
        s = ((f(0)[0] // charpoly(arr)[0]).bit_length() - 1) // (arr.D + 1)
        return math.floor(Fraction(*libmp.to_rational(theta_min._mpf_)) * 2 ** s)

    for wrong in (lambda f, lo, hi, *_: lo,
                  lambda f, lo, hi, *args: refine(f, lo, hi, *args) + ((hi - lo) >> 40),
                  at_theta_min):
        monkeypatch.setattr(spectral, "refine_root", wrong)
        with pytest.raises(spectral.SpectralError):
            spectrum(arr)
        rep = full_report(arr)
        assert rep.spectrum is None and rep.overall == INCONCLUSIVE


def test_spectrum_with_zero_eigenvalue():
    sp = spectrum(parse_array("{6,5,5,4,2;1,1,2,2,3}"))
    assert sp.thetas[0] == 6
    assert 0 in sp.thetas
    assert not sp.multiplicities_integral  # m(0) = 3620/47


def test_integer_roots_beyond_zero():
    # exact ints on both sides of a zero eigenvalue, and k = 71 at the top of
    # [-k, k]: charpolys x (x - 6) q_4 and (x - 71)(x + 1) q_4, q_4
    # irreducible; each int comes back exact in a one-point enclosure
    for text, ints in (("{6,5,5,4,2;1,1,2,2,3}", {0: 6, 3: 0}),
                       ("{71,70,69,68,67;1,2,3,4,5}", {0: 71, 3: -1})):
        sp = spectrum(parse_array(text))
        assert {i: t for i, t in enumerate(sp.thetas) if isinstance(t, int)} == ints
        assert all(sp.enclosures[i] == (t, t) for i, t in ints.items())


def test_no_float_enters_the_exact_spectrum(monkeypatch):
    # with LAPACK gone, spectrum and full_report give the same thetas,
    # multiplicities and verdicts: the exact path isolates, refines and
    # decides on exact Sturm counts and signs alone
    arrays = [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED

    def view(arr):
        sp, rep = spectrum(arr), full_report(arr)
        return sp.thetas, sp.mults_raw, rep.to_json_dict()

    want = [view(arr) for arr in arrays]

    def no_lapack(*_args):
        raise AssertionError("a float eigenvalue was read")

    monkeypatch.setattr(spectral, "eigenvalues_float", no_lapack)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    assert [view(arr) for arr in arrays] == want


NEAR_DEGENERATE = [f"{{{k},1,1,1,1;1,1,1,1,{k}}}" for k in (10**4, 10**6)] + [
    f"{{{k},{k - 1},1,1,1,1,1;1,1,1,1,1,{k - 1},{k}}}" for k in (10**4, 10**6)]


@pytest.mark.parametrize("text", NEAR_DEGENERATE)
def test_near_degenerate_spectra(monkeypatch, text, poly_eval_frac):
    # two eigenvalues within 2e-12 of each other (k = 10^4) or closer: the
    # exact halving splits them, each cut a dyadic point.  A Sturm count
    # evaluates every minor at one point, and each halving adds one point,
    # O(log k) of them per close pair; a scan of [-k, k] would take 2k + 1
    arr = parse_array(text)
    evals, evaluate = [], spectral._minors_at
    monkeypatch.setattr(spectral, "_minors_at", lambda a, w, x, q=1: (
        isinstance(x, int) and evals.append(Fraction(x, q))) or evaluate(a, w, x, q))
    sp = spectrum(arr)
    assert evals
    assert len(set(evals)) <= 4 * (arr.D + 1) * arr.k.bit_length()
    assert len(sp.enclosures) == arr.D + 1
    for (lo, _hi), (_lo, hi_next) in zip(sp.enclosures, sp.enclosures[1:]):
        assert hi_next <= lo  # disjoint, decreasing; a shared end is no root
    for theta, (lo, hi) in zip(sp.thetas, sp.enclosures):
        if isinstance(theta, int):
            assert lo == hi == theta and poly_eval_frac(charpoly(arr), lo) == 0
        else:
            assert sturm_count_leq(arr, hi) - sturm_count_leq(arr, lo) == 1
    assert full_report(arr).overall == FAIL


def test_spectrum_past_int64():
    # k = 2^65 does not fit an int64, and no float enters the isolation
    k = 2**65
    sp = spectrum(parse_array(f"{{{k};1}}"))
    assert sp.thetas == (k, -1) and sp.mults == (1, k) and sp.multiplicities_integral
    arr = parse_array(f"{{{k},{k - 1},1;1,1,{k - 1}}}")
    sp = spectrum(arr)
    assert sp.thetas[0] == k and len(sp.thetas) == arr.D + 1
    for lo, hi in sp.enclosures[1:]:
        assert 0 < hi - lo <= Fraction(1, 2**48)
        assert sturm_count_leq(arr, hi) - sturm_count_leq(arr, lo) == 1


@pytest.mark.parametrize("arr", SEEDED + _seeded_arrays(200, seed=18, d_max=7, k_max=80),
                         ids=str)
def test_spectrum_boxes_hold_sympy_real_roots(arr):
    # sympy's real_roots of the charpoly, decreasing, against the boxes: an
    # Integer root is the exact int theta in a one-point box, any other root
    # is irrational and the only root in its box
    x = sympy.Symbol("x")
    P = sympy.Poly(list(reversed(charpoly(arr))), x)
    sp = spectrum(arr)
    roots = P.real_roots()[::-1]
    assert len(roots) == len(sp.thetas) == arr.D + 1
    for root, theta, (lo, hi) in zip(roots, sp.thetas, sp.enclosures):
        if root.is_Rational:
            assert root.is_Integer and theta == int(root) and lo == hi == theta
        else:
            assert not isinstance(theta, int) and hi - lo <= Fraction(1, 2**48)
            assert P.count_roots(_rational(lo), _rational(hi)) == 1
            assert lo <= Fraction(*libmp.to_rational(theta._mpf_)) <= hi
            assert abs(float(root) - float(theta)) <= 1e-12 * arr.k


def _large_k_arrays(k):
    """Two shapes whose eigenvalues come in pairs about 1/k apart or closer."""
    return [parse_array(f"{{{k},1,1,1,1;1,1,1,1,{k}}}"),
            parse_array(f"{{{k},{k - 1},1,1,1,1,1;1,1,1,1,1,{k - 1},{k}}}")]


def _biggs_oracle(arr, dps=120):
    """Every Biggs multiplicity v / sum k_i u_i^2, decreasing, at dps digits:
    the eigenvalues from sympy's real_roots of the charpoly, the u_i from
    the standard-sequence recurrence."""
    roots = sympy.Poly(list(reversed(charpoly(arr))), sympy.Symbol("x")).real_roots()[::-1]
    with mp.workdps(dps):
        ks = [mp.mpf(k.numerator) / k.denominator for k in arr.kseq]
        out = []
        for root in roots:
            th = mp.mpf(int(root) if root.is_Integer else str(root.evalf(dps + 10)))
            u = [mp.mpf(1), th / arr.k]
            for j in range(1, arr.D):
                u.append(((th - arr.a[j]) * u[j] - arr.c[j - 1] * u[j - 1]) / arr.b[j])
            out.append(mp.fsum(ks) / mp.fsum(k * x * x for k, x in zip(ks, u)))
        return out


@pytest.mark.parametrize("e", [32, 48, 56, 64])
@pytest.mark.parametrize("shape", [0, 1], ids=["D5", "D7"])
def test_large_k_eigenvalues_certify(e, shape, poly_eval_frac):
    # Newton on the minor recurrence: on the expanded charpoly, cancellation
    # among coefficients of size k^(D+1) left the refined root outside its
    # certificate from k = 2^32 on.  Each theta lies in its own enclosure:
    # at 2^56 the 50-digit Newton value fell up to 3e-43 past a box end
    arr = _large_k_arrays(2**e)[shape]
    thetas, enclosures = eigenvalues(arr), spectrum(arr).enclosures
    assert len(thetas) == len(enclosures) == arr.D + 1 and thetas[0] == arr.k
    for theta, (lo, hi) in zip(thetas, enclosures):
        if isinstance(theta, int):
            assert lo == hi == theta and poly_eval_frac(charpoly(arr), lo) == 0
        else:
            assert 0 < hi - lo <= Fraction(1, 2**48)
            assert sturm_count_leq(arr, hi) - sturm_count_leq(arr, lo) == 1
            assert lo <= Fraction(*libmp.to_rational(theta._mpf_)) <= hi


@pytest.mark.parametrize("e", [28, 32])
@pytest.mark.parametrize("shape", [0, 1], ids=["D5", "D7"])
def test_large_k_multiplicities_match_a_high_precision_oracle(e, shape):
    # the true multiplicities include 1.7071... and 0.2929..., so the report
    # fails multiplicity integrality and nothing else: the sum rules hold
    arr = _large_k_arrays(2**e)[shape]
    truth = _biggs_oracle(arr)
    assert any(abs(m - 1.7071) < 1e-4 for m in truth)
    assert any(abs(m - 0.2929) < 1e-4 for m in truth)
    rep = full_report(arr)
    assert rep.failing == ["multiplicity_integrality"] and rep.overall == FAIL
    for got, want in zip(rep.spectrum.mults_raw, truth):
        assert abs(as_mpf(got) - want) <= 1e-12 * want


@pytest.mark.parametrize("e", [48, 64])
@pytest.mark.parametrize("shape", [0, 1], ids=["D5", "D7"])
def test_large_k_near_coincident_multiplicities_never_pass(e, shape):
    # eigenvalues closer than the working precision resolves: each
    # multiplicity is exact at its eigenvalue's grid point, whose offset from
    # the eigenvalue is 2^-169 of its box, so the large ones match the
    # oracle too (at 2^64 an mpf evaluation lost the Christoffel-Darboux
    # denominator to cancellation), and the report fails exactly
    # multiplicity integrality
    arr = _large_k_arrays(2**e)[shape]
    rep = full_report(arr)
    assert rep.spectrum is not None and rep.failing == ["multiplicity_integrality"]
    with workdps():
        for got, want in zip(rep.spectrum.mults_raw, _biggs_oracle(arr)):
            assert abs(as_mpf(got) - want) <= mp.mpf(10) ** -30 * want


@pytest.mark.parametrize("A, B, Q", [(-12, 6, 2), (6, -12, 2), (4, 14, 2), (-1, 0, 1)])
def test_moebius_maps_the_open_interval_to_the_positive_axis(A, B, Q):
    # G's positive roots are x = (A - Q r)/(Q r - B) for the roots r of F
    # strictly between A/Q and B/Q (an end root, 2 at (4, 14, 2), is not
    # one), G(0) and its leading coefficient are Q^n F at the ends, and its
    # sign changes bound the count with its parity
    x = sympy.Symbol("x")
    roots = [Fraction(-5), Fraction(1, 3), Fraction(2), Fraction(7, 2)]
    F = [int(c) for c in reversed(sympy.Poly((x + 5) * (3 * x - 1) * (x - 2) * (2 * x - 7),
                                             x).all_coeffs())]
    G = spectral.moebius(F, A, B, Q)

    def at(y):  # Q^n F(y), n = 4
        return Q ** 4 * sum(c * y ** i for i, c in enumerate(F))
    assert (G[0], G[-1]) == (at(Fraction(A, Q)), at(Fraction(B, Q)))
    lo, hi = sorted((Fraction(A, Q), Fraction(B, Q)))
    want = sorted((A - Q * r) / (Q * r - B) for r in roots if lo < r < hi)
    assert sorted(Fraction(int(r.p), int(r.q)) for r in sympy.Poly(G[::-1], x).real_roots()
                  if r > 0) == want
    changes = spectral._sign_changes(G)
    assert changes >= len(want) and (changes - len(want)) % 2 == 0


@pytest.mark.parametrize("arr", SEEDED, ids=str)
def test_minors_at_matches_minor_polys(arr, poly_eval_frac):
    # the value kernel against the coefficient lists, every minor and its
    # derivative at seeded rationals p/q, both scaled by q^i exactly
    rng = random.Random(str(arr))
    w = [b * c for b, c in zip(arr.b, arr.c)]
    minors = spectral.minor_polys(arr.a, w)
    for _ in range(8):
        x = Fraction(rng.randint(-4 * arr.k, 4 * arr.k), rng.randint(1, 12))
        got = list(spectral._minors_at(arr.a, w, x.numerator, x.denominator))
        assert len(got) == len(minors) == arr.D + 2
        for (value, slope), P in zip(got, minors):
            dP = [i * c for i, c in enumerate(P)][1:]
            assert value == poly_eval_frac(P, x)
            assert slope == poly_eval_frac(dP, x)


def _u_sum_multiplicity(arr, theta, u):
    """v / sum k_i u_i^2 for the standard sequence u of theta: exact, or an mpf."""
    if isinstance(theta, int):
        return arr.v / sum(k * x * x for k, x in zip(arr.kseq, u))
    with workdps():
        return as_mpf(arr.v) / mp.fsum(as_mpf(k) * x * x for k, x in zip(arr.kseq, u))


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED, ids=str)
def test_christoffel_darboux_matches_the_u_sum(arr, standard_u):
    sp = spectrum(arr)
    for theta, m in zip(sp.thetas, sp.mults_raw):
        want = _u_sum_multiplicity(arr, theta, standard_u(arr, theta))
        if isinstance(theta, int):
            assert isinstance(m, Fraction) and m == want
        else:
            with workdps():
                assert abs(m - want) <= mp.mpf("1e-45") * abs(want)


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED, ids=str)
def test_odd_girth_values_match_the_u_recurrence(monkeypatch, arr, standard_u):
    # each value sum_i p_i(eta_j) u_i(theta_min) that the check decides on,
    # against the u recurrence: bit for bit at an int theta_min, where the
    # oracle's exact u_i round to the same mpf, else within 10^-45
    values, verdict = [], feasibility._ineq_verdict
    monkeypatch.setattr(feasibility, "_ineq_verdict", lambda v: values.append(v) or verdict(v))
    tmin = spectrum(arr).theta_min
    entries = check_odd_girth_inequality(arr, tmin)
    if arr.t is None:
        assert values == [] and len(entries) == 1
        return
    with workdps():
        u = [as_mpf(x) for x in standard_u(arr, tmin)]
        for j, value in enumerate(values):
            ps = p_polynomials(arr.t, 2 * mp.cos(2 * mp.pi * j / arr.g))
            want = mp.fsum(p * x for p, x in zip(ps, u))
            assert value == want if isinstance(tmin, int) else abs(value - want) < mp.mpf(10) ** -45
    assert len(values) == arr.t + 1


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED[:12], ids=str)
def test_spectrum_uses_only_the_value_kernel(monkeypatch, arr):
    # no coefficient list and no Horner on one: every value of det(xI - L)
    # that spectrum and multiplicity need comes from _minors_at
    want = spectrum(arr)

    def forbidden(*args, **kw):
        raise AssertionError("coefficient path used")

    monkeypatch.setattr(spectral, "minor_polys", forbidden)
    sp = spectrum(arr)
    assert sp == want
    # each multiplicity at its point: the int eigenvalue, or the grid point
    assert [multiplicity(arr, *at) for _t, _enc, at in spectral._roots(arr)][::-1] == list(
        sp.mults_raw)


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED, ids=str)
def test_irrational_eigenvalues_match_a_120_digit_oracle(arr):
    roots = sympy.Poly(list(reversed(charpoly(arr))), sympy.Symbol("x")).real_roots()[::-1]
    thetas = spectrum(arr).thetas
    assert len(roots) == len(thetas)
    with mp.workdps(120):
        for root, theta in zip(roots, thetas):
            if not isinstance(theta, int):
                want = mp.mpf(str(root.evalf(130)))
                assert abs(theta - want) <= mp.mpf(10) ** -48 * abs(want), (str(arr), theta)


def test_refine_root_from_the_box_midpoint_takes_few_evaluations(monkeypatch):
    # the end signs come from the box's Sturm counts; from the midpoint of a
    # halving box, safeguarded Newton reaches the grid's 2^-169 of the box
    # width in at most 13 evaluations on this corpus (a median of 8), where
    # bisection alone would take about 170
    counts, refine = [], spectral.refine_root

    def counted(f, *args, **kw):
        counts.append(0)

        def g(X):
            counts[-1] += 1
            return f(X)
        return refine(g, *args, **kw)

    monkeypatch.setattr(spectral, "refine_root", counted)
    for arr in [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED:
        spectrum(arr)
    assert len(counts) > 100 and max(counts) <= 13
