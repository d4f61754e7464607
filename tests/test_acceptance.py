"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line.
Criterion 5 is split: 5a checks the sharp girth-5 figure, 5b checks that
epsilon1 is positive and never claims more for the odd cycle than the cycle
attains, and 5c checks the closed form behind f(x, y).  epsilon1 is a branch
constant (c_t <= zeta* k) and the cycle (c_t/k = 1/2 > zeta*) lies outside
that branch, so 5b compares epsilon1 with the cycle gap only where the cycle
lies inside the branch (see its docstring).
"""

import ast
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from drgf import bound, oracle, search
from drgf.core import format_array, parse_array
from drgf.feasibility import check_odd_girth_inequality, p_polynomials
from drgf.spectral import as_mpf, eigenvalues, spectrum

FIXTURES = Path(__file__).parent / "fixtures"

D4_ARRAYS = ["{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}",
             "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
D5_ARRAYS = ["{2,1,1,1,1;1,1,1,1,1}", "{6,5,5,4,4;1,1,2,2,3}",
             "{11,10,9,8,7;1,2,3,4,5}"]


@contextmanager
def criterion(n: str, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL  {label}", flush=True)
        raise
    print(f"ACCEPTANCE {n}: PASS  {label}", flush=True)


def run_cli(*args, flags=()):
    t0 = time.time()
    r = subprocess.run([sys.executable, *flags, "-m", "drgf", *args],
                       capture_output=True, text=True)
    return r, time.time() - t0


def trunc4(x) -> float:
    return math.floor(float(x) * 10**4) / 10**4


def _main_space(D: int) -> search.SearchSpec:
    """All a_i zero below the diameter, a_D nonzero, c_2 in {1, 2},
    theta_min <= -(D-1)/D k, valency capped by valency_cap."""
    return search.SearchSpec(D, 5, search.valency_cap(D).k_max, "0" * (D - 1) + "+",
                             (1, 2), Fraction(-(D - 1), D))


@pytest.fixture(scope="module")
def survivors_d4():
    return search.enumerate_arrays(_main_space(4))


@pytest.fixture(scope="module")
def survivors_d5():
    return search.enumerate_arrays(_main_space(5))


def test_criterion_1_theorem2_d4():
    with criterion("1", "theorem2 -d 4: four arrays, byte-identical, < 10 s"):
        r, wall = run_cli("theorem2", "--diameter", "4")
        assert r.returncode == 0
        assert r.stdout == (FIXTURES / "theorem2_d4.txt").read_text()
        for text in D4_ARRAYS:
            assert text in r.stdout
        assert wall < 10, f"took {wall:.1f} s"


def test_criterion_2_theorem2_d5():
    with criterion("2", "theorem2 -d 5: three arrays, byte-identical, < 5 min"):
        r, wall = run_cli("theorem2", "--diameter", "5")
        assert r.returncode == 0
        assert r.stdout == (FIXTURES / "theorem2_d5.txt").read_text()
        result_block = r.stdout.split("result: 3 arrays\n", 1)[1]
        got = [ln.strip().split("  ")[0] for ln in result_block.strip().splitlines()]
        assert got == D5_ARRAYS
        assert wall < 300, f"took {wall:.1f} s"


def test_theorem2_d5_under_python_O():
    # python -O strips assert statements; no verdict may rest on one
    r, _ = run_cli("theorem2", "--diameter", "5", flags=("-O",))
    assert r.returncode == 0
    assert r.stdout == (FIXTURES / "theorem2_d5.txt").read_text()


def test_search_does_not_import_mpmath():
    # the valency caps are exact rationals; no mpf may come back into search
    path = Path(search.__file__)
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "mpmath" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "mpmath"
            assert {a.name for a in node.names}.isdisjoint({"as_mpf", "workdps", "mp"})
        elif isinstance(node, ast.Name):
            assert node.id not in ("mp", "mpmath", "as_mpf", "workdps"), node.lineno


def test_criterion_3_d4_constant_chain():
    with criterion("3", "D=4 chain at k=36: 0.5500 / 0.3926 / 0.2227 / m < 36"):
        cap = search.valency_cap(4)
        assert trunc4(cap.step("u2_lower").raw) == 0.5500
        assert trunc4(cap.step("u3_lower").raw) == 0.3926
        assert abs(float(cap.step("c4_over_k_lower").raw) - 0.2227) <= 1e-4
        assert float(cap.step("multiplicity_bound").raw) < 36
        assert cap.k_max == 35


def test_criterion_4_d5_constant_chains():
    with criterion("4", "D=5 chains: 0.6243/0.4721 at 24; "
                        "0.6348/0.4994/0.3344, 0.2166, 0.1440 at 71"):
        a4 = search.valency_cap(5, branch="a4")
        assert trunc4(a4.step("u2_lower").raw) == 0.6243
        assert trunc4(a4.step("u3_lower").raw) == 0.4721
        assert a4.k_max == 24
        main = search.valency_cap(5, branch="main")
        assert trunc4(main.step("u2_lower").raw) == 0.6348
        assert trunc4(main.step("u3_lower").raw) == 0.4994
        assert abs(float(main.step("c3_over_k_upper").raw) - 0.2166) <= 1e-4
        assert trunc4(main.step("u4_lower").raw) == 0.3344
        assert abs(float(main.step("c5_over_k_lower").raw) - 0.1440) <= 1e-4
        assert main.k_max == 71


def test_criterion_5a_sharp_girth5_bound():
    with criterion("5a", "bound -g 5 --zeta 1/10 --mode sharp-g5 reports -0.78"):
        r, _ = run_cli("bound", "--girth", "5", "--zeta=1/10", "--mode", "sharp-g5")
        assert r.returncode == 0
        assert "conservative 2dp: -0.78" in r.stdout
        raw = bound.epsilon1(5, "sharp-g5", Fraction(1, 10)).theta_over_k
        assert math.floor(float(raw) * 100) / 100 == -0.78


def test_criterion_5b_epsilon1_positive_and_below_polygon():
    """epsilon1(g) > 0 on [5, 101], and the bound claims no more for the
    g-gon than the g-gon attains.

    epsilon1 is the constant of the branch c_t <= zeta* k.  The g-gon has
    k = 2 and c_t = 1, so it lies in that branch only if 1 <= 2 zeta*; only
    then does its gap 2cos^2(t pi/(2t+1)) cap epsilon1.  zeta* never exceeds
    0.0773 here, so the cycle is asserted to lie outside the branch, and the
    cycle is instead checked against the bound evaluated at its own ratio
    zeta = c_t/k = 1/2: no root (no claim), or theta/k <= -cos(pi/g).
    """
    with criterion("5b", "epsilon1(g) > 0 on [5, 101]; the g-gon's gap bounds "
                         "epsilon1 wherever the g-gon lies in its branch"):
        for g in range(5, 102, 2):
            params = bound.epsilon1(g)
            assert params.epsilon1 is not None and params.epsilon1 > 0, g
            cycle_in_branch = 1 <= 2 * params.zeta
            if cycle_in_branch:
                assert params.epsilon1 <= bound.polygon_epsilon_upper(g), g
            assert not cycle_in_branch, (
                f"g = {g}: the cycle lies in the c_t <= zeta* k branch")
            at_cycle = bound.epsilon1(g, zeta=Fraction(1, 2)).theta_over_k
            assert at_cycle is None or at_cycle <= -mp.cos(mp.pi / g), g


def test_criterion_5c_closed_form_identity():
    with criterion("5c", "alternating closed form matches to 1e-10 for all j"):
        for g in range(5, 22, 2):
            t = (g - 1) // 2
            for j in range(g):
                eta = 2 * mp.cos(2 * mp.pi * j / g)
                lhs = mp.fsum(p * (-1) ** i for i, p in enumerate(p_polynomials(t, eta)))
                rhs = (-1) ** (t + j) / mp.cos(j * mp.pi / g)
                assert abs(lhs - rhs) < 1e-10, (g, j)


def test_criterion_6_oracle_equivalence():
    with criterion("6", "oracle equals array-derived data on all 7 graphs, < 60 s"):
        t0 = time.time()
        for name, text in oracle.CATALOG:
            g = oracle.build(name)
            arr, witness = oracle.verify_distance_regular(g)
            assert witness is None and format_array(arr) == text, name
            vals, mults = oracle.spectrum_bruteforce(g)
            spec = spectrum(arr)
            assert len(vals) == len(spec.thetas)
            assert all(abs(v - float(as_mpf(t))) < 1e-7
                       for v, t in zip(vals, spec.thetas)), name
            assert tuple(mults) == spec.mults, name
            og = oracle.odd_girth_bruteforce(g)
            assert og == (arr.g if arr.g is not None else oracle.BIPARTITE), name
        wall = time.time() - t0
        assert wall < 60, f"took {wall:.1f} s"


def test_d5_main_space_pruning_stats(survivors_d5, consistent):
    st = survivors_d5.stats
    assert st.generated == 2117200
    assert st.killed == {"c2_bound": 205, "k_integrality": 2033779,
                         "multiplicity_integrality": 43079, "theta_ratio": 19797,
                         "trace_vs_ratio": 20338}
    assert st.survivors == 2 and consistent(st)


def test_criterion_7_property_suites(survivors_d4, survivors_d5, standard_u):
    with criterion("7", "sum rules, sign alternation, |p_i| <= 2, cycle inequality"):
        survivors = list(survivors_d4.survivors) + list(survivors_d5.survivors)
        assert len(survivors) == 4
        catalog = [parse_array(t) for _n, t in oracle.CATALOG]
        # sum rules on every enumeration survivor
        for arr in survivors:
            sp = spectrum(arr)
            v, k = float(arr.v), arr.k
            th = [float(as_mpf(t)) for t in sp.thetas]
            ms = [float(as_mpf(m)) for m in sp.mults_raw]
            assert abs(sum(float(x) for x in arr.kseq) - v) == 0
            assert abs(sum(ms) - v) < 1e-6 * v
            assert abs(sum(m * t for m, t in zip(ms, th))) < 1e-6 * v * k
            assert abs(sum(m * t * t for m, t in zip(ms, th)) - v * k) < 1e-6 * v * k
        # standard-sequence shape at theta_min
        for arr in survivors + catalog:
            u = standard_u(arr, eigenvalues(arr)[-1])
            assert max(abs(as_mpf(x)) for x in u) <= 1 + mp.mpf("1e-20")
            for x, y in zip(u, u[1:]):
                if x != 0 and y != 0:
                    assert (x > 0) != (y > 0)
        # cycle polynomials stay in [-2, 2] on a 1000-point grid
        for x in [-2 + 4 * i / 999 for i in range(1000)]:
            assert max(abs(p) for p in p_polynomials(10, x)[1:]) <= 2 + 1e-9
        # odd-girth inequality on every catalog graph, every cycle eigenvalue
        for arr in catalog:
            entries = check_odd_girth_inequality(arr, eigenvalues(arr)[-1])
            assert all(e.verdict == "pass" for e in entries), format_array(arr)


def test_criterion_8_exclusion_branches_empty():
    with criterion("8", "a3 (D=4, c2=2, k 5..8) and a4 (D=5, k 5..24) are empty"):
        res = search.enumerate_arrays(
            search.SearchSpec(4, 5, 8, "00+*", (2,), Fraction(-3, 4)))
        assert res.survivors == ()
        res = search.enumerate_arrays(
            search.SearchSpec(5, 5, 24, "000+*", (1, 2), Fraction(-4, 5)))
        assert res.survivors == ()
