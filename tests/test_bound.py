import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp, mp

from drgf import bound
from drgf.bound import (MODE_GENERAL, MODE_SHARP_G5, BoundError, bound_table,
                        conservative_2dp, diameter_bound, epsilon1,
                        polygon_epsilon_upper, schedule_n, zeta_star)
from drgf.feasibility import cycle_eigenvalue, p_polynomials
from drgf.spectral import _sign_changes, moebius, workdps


def f(x, y, t: int):
    """f(x, y) = sum_{i<=t} p_i(x) y^i, the bound's polynomial."""
    return mp.fsum(p * y ** i for i, p in enumerate(p_polynomials(t, x)))


@pytest.mark.parametrize("g, mode", [(5, MODE_GENERAL), (5, MODE_SHARP_G5), (7, MODE_GENERAL),
                                     (101, MODE_GENERAL)])
def test_epsilon1_reads_the_shared_cycle_eigenvalues(g, mode):
    # eta_j = 2 cos(2 pi j / g) and p_0..p_t(eta_j) at working precision, the
    # same values on every call; epsilon1 takes eta_{t-1} from them and adds
    # M1 zeta to a copy of its p_i, leaving the shared values as they were
    t = (g - 1) // 2
    with workdps():
        want = [(eta, tuple(p_polynomials(t, eta)))
                for eta in (2 * mp.cos(2 * mp.pi * j / g) for j in range(t + 1))]
    shared = [cycle_eigenvalue(g, j) for j in range(t + 1)]
    assert shared == want
    assert epsilon1(g, mode).eta == want[t - 1][0]
    assert cycle_eigenvalue(g, t - 1) is shared[t - 1] and shared == want


def test_f_at_zero_y():
    for t in (2, 3, 7):
        assert f(mp.mpf("0.37"), mp.mpf(0), t) == 1


def test_f_t2_closed_form():
    for x in (-1.5, 0.2, 1.9):
        for y in (-0.9, -0.3, 0.5):
            got = f(mp.mpf(x), mp.mpf(y), 2)
            assert abs(got - (1 + x * y + (x * x - 2) * y * y)) < 1e-12


def test_f_alternating_sum_identity():
    # f(2cos(2 pi j / g), -1) = (-1)^(t+j) / cos(j pi / g) for all j
    for g in (5, 7, 9, 11, 13, 15):
        t = (g - 1) // 2
        for j in range(g):
            eta = 2 * mp.cos(2 * mp.pi * j / g)
            lhs = f(eta, mp.mpf(-1), t)
            rhs = (-1) ** (t + j) / mp.cos(j * mp.pi / g)
            assert abs(lhs - rhs) < 1e-10, (g, j)


def test_schedule_general():
    assert schedule_n(5) == [0, 0, 4]
    assert schedule_n(7) == [0, 0, 4, 12]
    assert schedule_n(9) == [0, 0, 4, 12, 28]


def test_schedule_sharp_g5():
    N = schedule_n(5, MODE_SHARP_G5, zeta=mp.mpf("0.1"))
    assert abs(N[2] - 2 / mp.mpf("0.9")) < 1e-25
    with pytest.raises(BoundError):
        schedule_n(7, MODE_SHARP_G5, zeta=0.1)


def test_zeta_star_values():
    # g = 5: M1 = 8, M2 = 1/cos(pi/5), zeta* = M2/16
    z5 = zeta_star(5)
    assert abs(z5 - 1 / (16 * mp.cos(mp.pi / 5))) < 1e-12
    assert abs(float(z5) - 0.07725424859) < 1e-10
    # g = 7: M1 = 32 so zeta* = M2/64
    assert abs(zeta_star(7) - bound.m2_constant(7) / 64) < 1e-12
    for g in range(5, 60, 2):
        assert 0 < zeta_star(g) <= 0.5


def test_epsilon1_raises_when_bracket_fails(monkeypatch):
    # an M2 so large that f(eta, -1) + M1 zeta* cannot lie below -M2/2
    monkeypatch.setattr(bound, "m2_constant", lambda g: mp.mpf(10) ** 6)
    with pytest.raises(BoundError, match="bracketing"):
        epsilon1(7)


def test_epsilon1_girth5():
    params = epsilon1(5)
    assert abs(float(params.epsilon1) - 0.1729090847) < 1e-9
    assert abs(float(params.theta_over_k) + 0.8270909153) < 1e-9
    assert float(params.M1) == 8
    # the sharp schedule meets the same root at its own zeta*
    sharp = epsilon1(5, MODE_SHARP_G5)
    assert abs(sharp.epsilon1 - params.epsilon1) < 1e-20


def test_epsilon1_root_solves_the_shifted_equation():
    # y = epsilon1 - 1 is a root of f(eta, y) + M1 zeta, epsilon1's
    # coefficients p_i(eta) with M1 zeta added to the constant one
    cases = [(5, MODE_GENERAL, None), (7, MODE_GENERAL, None), (101, MODE_GENERAL, None),
             (5, MODE_SHARP_G5, None), (5, MODE_SHARP_G5, Fraction(1, 10))]
    with workdps():
        for g, mode, zeta in cases:
            p = epsilon1(g, mode, zeta)
            y = p.epsilon1 - 1
            assert abs(f(p.eta, y, p.t) + p.M1 * p.zeta) < mp.mpf(10) ** -40, (g, mode)


def _table_refines(monkeypatch):
    """[coefficients, root, f evaluations of its refine] for each of the 49
    roots of bound_table(5, 101)."""
    out, leftmost, refine = [], bound._leftmost_root, bound.refine_root

    def recorded(coeffs):
        out.append([list(coeffs), None, 0])
        out[-1][1] = leftmost(coeffs)
        return out[-1][1]

    def counted(f, *args):
        def g(X):
            out[-1][2] += 1
            return f(X)
        return refine(g, *args)

    monkeypatch.setattr(bound, "_leftmost_root", recorded)
    monkeypatch.setattr(bound, "refine_root", counted)
    bound_table(5, 101)
    return out


def test_bound_roots_match_a_120_digit_oracle(monkeypatch):
    # Newton at 120 digits on the same 50-digit coefficients, from the root
    refines = _table_refines(monkeypatch)
    assert len(refines) == 49
    with mp.workdps(120):
        for coeffs, root, _n in refines:
            want = root
            for _ in range(8):
                value, slope = mp.polyval(coeffs[::-1], want, derivative=True)
                want -= value / slope
            assert abs(root - want) <= mp.mpf(10) ** -48 * abs(want)


def test_bound_refines_take_four_evaluations(monkeypatch):
    # the float seed (about 2^-53 from the root), two Newton steps (2^-106,
    # then below the grid's 2^-170) and one unit step that closes the
    # bracket; the sign just right of -1 comes from the Descartes count
    assert max(n for *_, n in _table_refines(monkeypatch)) <= 4


def test_leftmost_root_seed_survives_a_zero_derivative():
    # p = (y + 1)^2 - 1/4 has p'(-1) = 0, so the first float Newton step
    # gives NaN and the refine starts from -1/2, here the root itself
    with workdps():
        assert bound._leftmost_root([mp.mpf(3) / 4, 2, 1]) == mp.mpf(-1) / 2


def test_only_the_walk_the_float_screen_and_the_oracle_import_numpy():
    # bound, core, feasibility and cli import no numpy of their own; numpy
    # stays with search's walk, spectral's float screen and the graph oracle
    importers = set()
    for path in (Path(__file__).resolve().parent.parent / "src" / "drgf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert "search" in importers and importers <= {"search", "spectral", "oracle"}


def test_no_module_imports_scipy():
    # the graph oracle's products and dense spectrum run on numpy alone, and
    # pyproject.toml lists no scipy
    root = Path(__file__).resolve().parent.parent
    for path in (root / "src" / "drgf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert all(name.split(".")[0] != "scipy" for name in names), path.name
    assert "scipy" not in (root / "pyproject.toml").read_text()


def test_leftmost_root_raises_on_two_sign_changes():
    # Descartes' rule cannot tell two roots in (-1, 0) from none: (y + 1/2)^2
    # + 1e-40 has no real root, but its Moebius image (1/4 + d) - (1/2 - 2d) x
    # + (1/4 + d) x^2 has two sign changes; (y + 0.30001)(y + 0.30002) has
    # both roots in one cell of a 4096-point grid, whose float signs at the
    # cell's ends agree
    with workdps():
        a, b = mp.mpf("0.30001"), mp.mpf("0.30002")
        for coeffs in ([mp.mpf(1) / 4 + mp.mpf("1e-40"), 1, 1], [a * b, a + b, 1]):
            with pytest.raises(BoundError, match="2 sign changes"):
                bound._leftmost_root(coeffs)


def test_bound_polynomials_have_at_most_one_sign_change(monkeypatch):
    # every polynomial the bound solves, at every odd girth 5..101 and zeta in
    # {0, zeta*, 1/2}, and for the sharp girth-5 schedule, has a Moebius
    # image with 0 or 1 sign changes: the root is found or provably absent
    seen, leftmost = [], bound._leftmost_root

    def recorded(coeffs):
        seen.append(coeffs)
        return leftmost(coeffs)

    monkeypatch.setattr(bound, "_leftmost_root", recorded)
    for zeta in (0, None, Fraction(1, 2)):
        for g in range(5, 102, 2):
            epsilon1(g, MODE_GENERAL, zeta)
        epsilon1(5, MODE_SHARP_G5, zeta)
    epsilon1(5, MODE_SHARP_G5, Fraction(1, 10))
    assert len(seen) == 3 * 50 + 1
    counts = [_sign_changes(moebius([Fraction(*libmp.to_rational(mp.mpf(c)._mpf_))
                                     for c in coeffs], -1, 0, 1)) for coeffs in seen]
    assert set(counts) <= {0, 1} and 1 in counts


def test_epsilon1_decreases_from_5_to_9():
    assert epsilon1(9).epsilon1 < epsilon1(7).epsilon1 < epsilon1(5).epsilon1


def test_epsilon1_positive_over_range():
    for g, _z, e, th in bound_table(5, 101):
        assert e is not None and e > 0, g
        assert -1 < th < 0, g


def test_epsilon1_vs_polygon_at_girth5():
    # epsilon1 covers the branch c_t <= zeta* k; the pentagon (k = 2, c_t = 1)
    # caps it only from inside that branch.  It lies outside (c_t/k = 1/2 >
    # zeta*), so the pentagon is checked against the bound at its own ratio.
    params = epsilon1(5)
    cycle_in_branch = 1 <= 2 * params.zeta
    if cycle_in_branch:
        assert params.epsilon1 <= polygon_epsilon_upper(5)
    assert not cycle_in_branch
    at_cycle = epsilon1(5, zeta=Fraction(1, 2)).theta_over_k
    assert at_cycle is None or at_cycle <= -mp.cos(mp.pi / 5)


def test_theta_bound_sharp_remark_value():
    got = epsilon1(5, MODE_SHARP_G5, Fraction(1, 10)).theta_over_k
    assert abs(float(got) + 0.7729621536) < 1e-9
    assert conservative_2dp(got) == "-0.78"


def test_theta_bound_zeta_zero_is_pure_pentagon():
    got = epsilon1(5, MODE_SHARP_G5, 0).theta_over_k
    assert abs(float(got) + (math.sqrt(5) - 1) / 2) < 1e-12


def test_theta_bound_general_weaker_than_sharp():
    sharp = epsilon1(5, MODE_SHARP_G5, Fraction(1, 10)).theta_over_k
    general = epsilon1(5, MODE_GENERAL, Fraction(1, 10)).theta_over_k
    assert general < sharp


def test_theta_bound_monotone_in_zeta():
    prev = None
    for z in (Fraction(n, 100) for n in range(0, 50, 5)):
        got = epsilon1(5, MODE_SHARP_G5, z).theta_over_k
        if got is None:
            continue
        if prev is not None:
            assert got <= prev + mp.mpf("1e-20")
        prev = got


def test_polygon_epsilon_upper_values():
    assert abs(float(polygon_epsilon_upper(5)) - 2 * math.cos(2 * math.pi / 5) ** 2) < 1e-12
    assert abs(float(polygon_epsilon_upper(3)) - 0.5) < 1e-12
    assert float(polygon_epsilon_upper(101)) < 0.01


def test_diameter_bound_exact():
    assert diameter_bound(2, Fraction(1, 2)) == 32
    assert diameter_bound(2, Fraction(1, 10)) == 800
    assert diameter_bound(1, Fraction(1, 2)) == 16
    assert diameter_bound(1, 0.5) == 16  # a float is taken exactly


@pytest.mark.parametrize("g, expected", [(5, 1341), (7, 19108),
                                         (101, 141186730456505910036327558328179)])
def test_diameter_bound_at_zeta_star(g, expected):
    t, z = (g - 1) // 2, zeta_star(g)
    with workdps():
        assert diameter_bound(t, z) == int(mp.ceil(4 * t / (z * z))) == expected
    assert diameter_bound(t, z) == expected  # at any ambient precision
    with pytest.raises(BoundError):
        diameter_bound(t, mp.mpf(0))
    with pytest.raises(BoundError):
        diameter_bound(2, Fraction(3, 4))


def test_girth_validation():
    for fn in (lambda: epsilon1(4), lambda: epsilon1(3), lambda: zeta_star(6)):
        with pytest.raises(BoundError):
            fn()
