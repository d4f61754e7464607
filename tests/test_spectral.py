import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import libmp, mp

from drgf import oracle, spectral
from drgf.core import IntersectionArray, parse_array
from drgf.feasibility import FAIL, INCONCLUSIVE, PASS, check_trace_square, full_report
from drgf.spectral import (abs_u_lower_bounds, as_mpf, charpoly, eigenvalues,
                           eigenvalues_float, implied_last_c_lower,
                           intersection_matrix, multiplicity,
                           multiplicities_float, multiplicity_upper_bound,
                           refine_root, spectrum, sqrt_bounds, standard_sequence,
                           sturm_count_leq, theta_min_multiplicity_float,
                           trace_of_l_squared, workdps)

CORPUS = ["{2;1}", "{2,1;1,1}", "{3,2;1,1}", "{2,1,1,1;1,1,1,1}",
          "{3,2,2,1;1,1,1,2}", "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}",
          "{2,1,1,1,1;1,1,1,1,1}", "{6,5,5,4,4;1,1,2,2,3}",
          "{11,10,9,8,7;1,2,3,4,5}", "{3,2,1;1,2,3}", "{4,3,2,1;1,2,3,4}",
          "{4,3,3;1,1,3}", "{5,4,4,3;1,1,2,3}"]


def test_intersection_matrix_9_gon():
    L = intersection_matrix(parse_array("{2,1,1,1;1,1,1,1}"))
    assert L.shape == (5, 5)
    assert list(np.diag(L)) == [0, 0, 0, 0, 1]


def test_intersection_matrix_folded_9_cube():
    L = intersection_matrix(parse_array("{9,8,7,6;1,2,3,4}"))
    assert list(np.diag(L)) == [0, 0, 0, 0, 5]
    assert list(np.diag(L, 1)) == [9, 8, 7, 6]
    assert list(np.diag(L, -1)) == [1, 2, 3, 4]


def test_intersection_matrix_triangle():
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


def test_standard_sequence_perron():
    for text in ("{5,4,4,3;1,1,2,2}", "{2;1}", "{11,10,9,8,7;1,2,3,4,5}"):
        arr = parse_array(text)
        seq = standard_sequence(arr, arr.k)
        assert all(u == 1 for u in seq.u)


def test_standard_sequence_o5_exact():
    # by-hand recurrence with exact rationals; the terminal identity is the oracle
    seq = standard_sequence(parse_array("{5,4,4,3;1,1,2,2}"), -4)
    assert seq.u == (1, Fraction(-4, 5), Fraction(11, 20), Fraction(-7, 20),
                     Fraction(1, 10))
    assert seq.terminal_residual == 0


def test_terminal_identity_iff_eigenvalue():
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    for theta in eigenvalues(arr):
        assert standard_sequence(arr, theta).terminal_residual < 1e-8
    for theta in (-3.5, 0.5, 2.0, 4.0):
        assert standard_sequence(arr, mp.mpf(theta)).terminal_residual > 1e-8


def test_sign_alternation_at_theta_min():
    for text in CORPUS:
        arr = parse_array(text)
        seq = standard_sequence(arr, eigenvalues(arr)[-1])
        for x, y in zip(seq.u, seq.u[1:]):
            if x != 0 and y != 0:
                assert (x > 0) != (y > 0), text
        assert max(abs(as_mpf(u)) for u in seq.u) <= 1 + mp.mpf("1e-30"), text


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
    with pytest.raises(spectral.SpectralError):
        multiplicity(arr, mp.mpf("-3.3"))


def test_multiplicity_upper_bound_dominates():
    for text in ("{5,4,4,3;1,1,2,2}", "{3,2,2,1;1,1,1,2}", "{9,8,7,6;1,2,3,4}"):
        arr = parse_array(text)
        spec = spectrum(arr)
        for theta, m in zip(spec.thetas[1:], spec.mults_raw[1:]):
            seq = standard_sequence(arr, theta)
            for j in range(1, arr.D + 1):
                if seq.u[j] == 0:
                    continue
                bound = multiplicity_upper_bound(arr, seq, j)
                assert as_mpf(bound) >= as_mpf(m) - mp.mpf("1e-20"), (text, j)


def test_multiplicity_upper_bound_single_term():
    # D = 1: the tail collapses to 1/u_1^2 = k^2/theta^2
    arr = parse_array("{2;1}")
    seq = standard_sequence(arr, -1)
    assert multiplicity_upper_bound(arr, seq, 1) == 4
    assert multiplicity(arr, -1) == 2


def test_multiplicity_upper_bound_rejects_zero_u():
    arr = parse_array("{2,1;1,1}")  # pentagon
    seq = standard_sequence(arr, mp.mpf(0))
    with pytest.raises(ValueError):
        multiplicity_upper_bound(arr, spectral.StandardSequence(0, (1, 0, -1), 0), 1)
    assert seq  # sequence itself is fine


def test_sturm_count_boundary_exact():
    arr = parse_array("{5,4,4,3;1,1,2,2}")  # theta_min = -4 <= -15/4
    assert sturm_count_leq(arr, Fraction(-15, 4)) == 1
    assert sturm_count_leq(arr, Fraction(-4)) == 1     # boundary hit exactly
    assert sturm_count_leq(arr, Fraction(-401, 100)) == 0
    assert sturm_count_leq(arr, Fraction(5)) == 5


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


@pytest.mark.parametrize("arr", SEEDED, ids=str)
def test_charpoly_matches_sympy(arr):
    x = sympy.Symbol("x")
    M = sympy.Matrix(intersection_matrix(arr).tolist())
    P = M.charpoly(x)
    assert charpoly(arr) == [int(c) for c in reversed(P.all_coeffs())]


@pytest.mark.parametrize("arr", SEEDED, ids=str)
def test_sturm_count_matches_numpy(arr):
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
    Fraction on to_grid's grid."""
    s, lo, hi = spectral.to_grid(Fraction(lo), Fraction(hi))
    return Fraction(refine_root(_grid_horner(coeffs, s), lo, hi), 1 << s)


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
    # on the grid of 200 digits that would take over 660 halvings
    with mp.workdps(200):
        assert _refine([3, -4, 1], 1, 2) == 1
        assert _refine([2, 5, 2], Fraction(-5, 8), Fraction(-1, 2)) == Fraction(-1, 2)


def test_refine_root_on_mpf_coefficients():
    with workdps():
        coeffs = [-mp.sqrt(2), 0, 0, 0, 1]  # y^4 = sqrt(2)
        root = as_mpf(_refine(coeffs, 0, 2))
        assert abs(root - mp.root(2, 8)) < mp.mpf(10) ** -45


def test_refine_root_with_a_known_end_sign_evaluates_no_end():
    # y^2 - 2 on [1, 2]: told that F(lo) < 0, the refine never evaluates lo
    # or hi and ends where the refine that evaluates them ends
    with workdps():
        s, lo, hi = spectral.to_grid(Fraction(1), Fraction(2))
        f, seen = _grid_horner([-2, 0, 1], s), []
        X = refine_root(lambda X: seen.append(X) or f(X), lo, hi, None, False)
        assert X == refine_root(f, lo, hi) and lo not in seen and hi not in seen
        assert X * X < 2 << 2 * s < (X + 1) ** 2


def test_refine_root_raises_without_a_sign_change():
    # (y - 1)(y - 3) is 3 at both ends of [0, 4]: Newton would find a root,
    # but the bracket does not hold exactly one
    with workdps(), pytest.raises(spectral.SpectralError, match="no sign change"):
        _refine([3, -4, 1], 0, 4)


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


def test_abs_u_chain_never_exceeds_true_values():
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
        seq = standard_sequence(arr, tmin)
        for lo, u in zip(lows, seq.u):
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
    d = spectrum(parse_array("{5,4,4,3;1,1,2,2}")).to_json_dict()
    assert d["thetas"] == ["5", "3", "1", "-2", "-4"]
    assert d["mults_rounded"] == [1, 27, 42, 48, 8]
    assert d["v"] == "126"


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


def test_integer_roots_beyond_zero(monkeypatch):
    # exact ints on both sides of a zero eigenvalue, and k = 71 at the top of
    # [-k, k]: charpolys x (x - 6) q_4 and (x - 71)(x + 1) q_4, q_4
    # irreducible; the float value finds each int, and only the four roots
    # of q_4 are refined
    refined, refine = [], spectral.refine_root
    monkeypatch.setattr(spectral, "refine_root",
                        lambda *args, **kw: refined.append(args) or refine(*args, **kw))
    for text, ints in (("{6,5,5,4,2;1,1,2,2,3}", {0: 6, 3: 0}),
                       ("{71,70,69,68,67;1,2,3,4,5}", {0: 71, 3: -1})):
        refined.clear()
        sp = spectrum(parse_array(text))
        assert len(refined) == 4
        assert {i: t for i, t in enumerate(sp.thetas) if isinstance(t, int)} == ints
        assert all(sp.enclosures[i] == (t, t) for i, t in ints.items())


def _exact_view(sp):
    """The parts of a spectrum that must not depend on the float steering."""
    return ([t if isinstance(t, int) else None for t in sp.thetas], sp.mults,
            sp.multiplicities_integral)


@pytest.mark.parametrize("steer", [
    lambda fl: [t + 0.6 for t in fl],  # every round(x) of an int misses it
    lambda fl: [0.5] * len(fl),        # no cut: halving does all the work
], ids=["shifted", "all-equal"])
def test_floats_only_steer(monkeypatch, steer):
    arrays = [parse_array(t) for t in CORPUS + ["{6,5,5,4,2;1,1,2,2,3}",
                                                "{71,70,69,68,67;1,2,3,4,5}"]]
    want = [_exact_view(spectrum(arr)) for arr in arrays]
    exact_floats = spectral.eigenvalues_float
    monkeypatch.setattr(spectral, "eigenvalues_float", lambda arr: steer(exact_floats(arr)))
    for arr, view in zip(arrays, want):
        sp = spectrum(arr)
        assert _exact_view(sp) == view, str(arr)
        for theta, (lo, hi) in zip(sp.thetas, sp.enclosures):
            if not isinstance(theta, int):
                assert lo <= Fraction(*libmp.to_rational(theta._mpf_)) <= hi, str(arr)
                assert 0 < hi - lo <= Fraction(1, 2**48), str(arr)


NEAR_DEGENERATE = [f"{{{k},1,1,1,1;1,1,1,1,{k}}}" for k in (10**4, 10**6)] + [
    f"{{{k},{k - 1},1,1,1,1,1;1,1,1,1,1,{k - 1},{k}}}" for k in (10**4, 10**6)]


@pytest.mark.parametrize("text", NEAR_DEGENERATE)
def test_near_degenerate_spectra(monkeypatch, text, poly_eval_frac):
    # two eigenvalues within 2e-12 of each other (k = 10^4) or closer: the
    # float cuts cannot split them, the exact halving must.  A Sturm count
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
    # k = 2^65 does not fit an int64: the float steering must still take it
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
    thetas = eigenvalues(arr)
    _, enclosures = spectral._eigen_with_enclosures(arr)
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
    # eigenvalues closer than the working precision resolves: the large
    # multiplicities are noise (2^48; the 1.7071... one still fails them) or
    # the Christoffel-Darboux denominator cancels to 0 (2^64, no spectrum),
    # and neither may read as a pass
    arr = _large_k_arrays(2**e)[shape]
    rep = full_report(arr)
    assert rep.overall != PASS
    if e == 48:
        assert rep.spectrum is not None and "multiplicity_integrality" in rep.failing
    else:
        with pytest.raises(spectral.SpectralError, match="cancellation"):
            spectrum(arr)


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


def _u_sum_multiplicity(arr, theta):
    """v / sum k_i u_i^2 from standard_sequence: exact, or an mpf."""
    u = standard_sequence(arr, theta).u
    if isinstance(theta, int):
        return arr.v / sum(k * x * x for k, x in zip(arr.kseq, u))
    with workdps():
        return as_mpf(arr.v) / mp.fsum(as_mpf(k) * x * x for k, x in zip(arr.kseq, u))


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED, ids=str)
def test_christoffel_darboux_matches_the_u_sum(arr):
    sp = spectrum(arr)
    for theta, m in zip(sp.thetas, sp.mults_raw):
        want = _u_sum_multiplicity(arr, theta)
        if isinstance(theta, int):
            assert isinstance(m, Fraction) and m == want
        else:
            with workdps():
                assert abs(m - want) <= mp.mpf("1e-45") * abs(want)


@pytest.mark.parametrize("arr", [parse_array(t) for _n, t in oracle.CATALOG] + SEEDED[:12], ids=str)
def test_spectrum_uses_only_the_value_kernel(monkeypatch, arr):
    # no coefficient list and no Horner on one: every value of det(xI - L)
    # that spectrum and multiplicity need comes from _minors_at
    want = spectrum(arr)

    def forbidden(*args, **kw):
        raise AssertionError("coefficient path used")

    for name in ("charpoly", "minor_polys"):
        monkeypatch.setattr(spectral, name, forbidden)
    sp = spectrum(arr)
    assert sp == want
    assert [multiplicity(arr, t) for t in sp.thetas] == list(sp.mults_raw)


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


def test_refine_root_from_the_float_value_takes_four_evaluations(monkeypatch):
    # the end signs come from the box's Sturm counts; then the float value
    # (about 2^-50 from the eigenvalue, relative), two Newton steps (2^-100,
    # then below the grid's 2^-169 of the box width) and one unit step that
    # closes the bracket
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
    assert len(counts) > 100 and max(counts) <= 4
