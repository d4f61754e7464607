import json
import math
from fractions import Fraction

import pytest

from drgf.core import format_array, parse_array
from drgf.search import (CapDerivationError, SearchSpec, SearchSpecError,
                         classify_diameter, default_spec, enumerate_arrays,
                         eta_exclusion_cap, pentagon_exclusion_cap,
                         small_valency_catalog, valency_cap)
from drgf.spectral import eigenvalues


D4_SPEC = SearchSpec(4, 5, 35, "000+", (1, 2), Fraction(-3, 4))

D4_EXPECT = ["{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]

# Exact PruningStats of the D = 4 main space; any change to a cut, its order
# or the multiplicity screen shows up here.
D4_KILLED = {"c2_bound": 31, "k_integrality": 10984,
             "multiplicity_integrality": 1199, "theta_ratio": 596,
             "trace_vs_ratio": 859}


@pytest.fixture(scope="module")
def d4_result():
    return enumerate_arrays(D4_SPEC)


def test_spec_validation():
    with pytest.raises(SearchSpecError):
        SearchSpec(4, 1, 10, "000+")
    with pytest.raises(SearchSpecError):
        SearchSpec(4, 5, 4, "000+")
    with pytest.raises(SearchSpecError):
        SearchSpec(4, 5, 10, "00+")
    with pytest.raises(SearchSpecError):
        SearchSpec(4, 5, 10, "00x+")
    with pytest.raises(SearchSpecError):
        SearchSpec(4, 5, 10, "000+", theta_ratio=Fraction(1, 2))


def test_spec_json_round_trip():
    spec = SearchSpec(5, 5, 24, "000+*", (1, 2), Fraction(-4, 5))
    again = SearchSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec


def test_d4_main_enumeration(d4_result):
    assert [format_array(a) for a in d4_result.survivors] == D4_EXPECT


def test_d4_stats_consistent(d4_result):
    st = d4_result.stats
    assert st.consistent()
    assert st.survivors == 2
    assert st.generated > 10000
    assert st.killed["k_integrality"] > 0
    assert st.killed["multiplicity_integrality"] > 0


def test_d4_stats_exact(d4_result):
    st = d4_result.stats
    assert (st.generated, st.killed, st.survivors) == (13671, D4_KILLED, 2)
    assert st.warnings == []


def test_survivors_pass_full_report(d4_result):
    for arr in d4_result.survivors:
        rep = d4_result.reports[format_array(arr)]
        assert rep.overall == "pass"


def test_widening_ratio_gives_superset(d4_result):
    wide = enumerate_arrays(SearchSpec(4, 5, 35, "000+", (1, 2), Fraction(-7, 10)))
    names = {format_array(a) for a in wide.survivors}
    assert {format_array(a) for a in d4_result.survivors} <= names


def test_parallel_matches_serial(d4_result):
    par = enumerate_arrays(D4_SPEC, jobs=2)
    assert par.survivors == d4_result.survivors
    assert par.stats.generated == d4_result.stats.generated
    assert par.stats.killed == d4_result.stats.killed


def test_exclusion_branch_d4_a3():
    res = enumerate_arrays(SearchSpec(4, 5, 8, "00+*", (2,), Fraction(-3, 4)))
    assert res.survivors == ()
    assert res.stats.consistent()


def test_valency_cap_d4():
    cap = valency_cap(4)
    assert cap.k_max == 35 and cap.anchor == 36
    assert cap.step("u1_lower").published == Fraction(7500, 10**4)
    assert cap.step("u2_lower").published == Fraction(5500, 10**4)
    assert cap.step("u3_lower").published == Fraction(3926, 10**4)
    assert cap.step("c4_over_k_lower").published == Fraction(2227, 10**4)
    assert float(cap.step("multiplicity_bound").raw) < 36


def test_valency_cap_d5_main():
    cap = valency_cap(5, branch="main")
    assert cap.k_max == 71 and cap.anchor == 71
    assert cap.step("u2_lower").published == Fraction(6348, 10**4)
    assert cap.step("u3_lower").published == Fraction(4994, 10**4)
    assert cap.step("c3_over_k_upper").published == Fraction(2166, 10**4)
    assert cap.step("u4_lower").published == Fraction(3344, 10**4)
    assert cap.step("c5_over_k_lower").published == Fraction(1440, 10**4)
    assert 71 <= float(cap.step("multiplicity_bound").raw) < 72


def test_valency_cap_d5_a4_branch():
    cap = valency_cap(5, branch="a4")
    assert cap.k_max == 24
    assert cap.step("low_c3_cap").published == 24
    assert cap.step("u2_lower").published == Fraction(6243, 10**4)
    assert cap.step("u3_lower").published == Fraction(4721, 10**4)
    assert float(cap.step("multiplicity_bound").raw) < 25


def test_valency_cap_rejects_unknown_branch():
    with pytest.raises(CapDerivationError):
        valency_cap(3)


def test_pentagon_exclusion_caps():
    assert pentagon_exclusion_cap(Fraction(-3, 4)) == 2
    assert pentagon_exclusion_cap(Fraction(-4, 5)) == 2
    # below the golden-ratio slope there is no cap
    assert pentagon_exclusion_cap(Fraction(-3, 5)) is None


def test_pentagon_cap_agrees_with_scan():
    # same question asked numerically on the exact u-chain at eta = 2cos(2pi/5)
    from drgf.search import _u_chain_exact
    eta = 2 * math.cos(2 * math.pi / 5)
    p = [1.0, eta, eta * eta - 2]
    feasible = []
    for k in range(3, 60):
        th = Fraction(-3, 4) * k
        u = [float(x) for x in _u_chain_exact(k, th, (1,), 2)]
        if sum(a * b for a, b in zip(p, u)) >= -1e-12:
            feasible.append(k)
    assert max(feasible, default=None) == 2 or feasible == []


def test_eta2_exclusion_caps():
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-3, 4), (1,)) == 4
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-3, 4), (2,)) == 8
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-4, 5), (1,)) == 3
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-4, 5), (2,)) == 5


def test_eta2_cap_boundary_is_exact():
    # at k = 8, c_2 = 2, theta = -6 the value is exactly zero; float grids
    # would wobble here, the exact path must include it
    from drgf.search import _u_chain_exact
    u = _u_chain_exact(8, Fraction(-6), (1, 2), 3)
    assert 1 + 2 * (u[1] + u[2] + u[3]) == 0


def test_small_valency_catalog():
    d4 = [format_array(a) for a in small_valency_catalog(4)]
    assert d4 == ["{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}"]
    d5 = [format_array(a) for a in small_valency_catalog(5)]
    assert d5 == ["{2,1,1,1,1;1,1,1,1,1}"]


def test_coxeter_meets_gate():
    tmin = eigenvalues(parse_array("{3,2,2,1;1,1,1,2}"))[-1]
    assert float(tmin) == pytest.approx(-1 - math.sqrt(2), abs=1e-12)
    assert float(tmin) <= -9 / 4


def test_classify_diameter_4():
    result = classify_diameter(4)
    assert result.discrepancies == ()
    assert [format_array(a) for a in result.arrays] == [
        "{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}",
        "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
    names = [s.name for s in result.stages]
    assert names[0].startswith("small-valency")
    assert any("main enumeration" in n for n in names)


def test_enumerating_stages_carry_consistent_stats():
    result = classify_diameter(4)
    for stage in result.stages:
        runs = [ln for ln in stage.lines if ln.startswith("enumeration")]
        assert (stage.stats is not None) == bool(runs), stage.name
        if runs:
            assert stage.stats.consistent(), stage.name
            assert stage.stats.generated > 0, stage.name
            reported = sum(int(ln.rsplit(": ", 1)[1].split()[0]) for ln in runs)
            assert stage.stats.survivors == reported, stage.name
    a3 = next(s for s in result.stages if s.name.startswith("a_3"))
    assert a3.stats.generated == enumerate_arrays(
        SearchSpec(4, 5, 8, "00+*", (2,), Fraction(-3, 4))).stats.generated


def test_classify_rejects_other_diameters():
    with pytest.raises(SearchSpecError):
        classify_diameter(3)


def test_disabling_a_check_creates_discrepancies():
    result = classify_diameter(4, disable_checks=("multiplicity_integrality",))
    assert result.discrepancies


def test_default_spec():
    spec = default_spec(4)
    assert (spec.k_min, spec.k_max) == (5, 35)
    assert spec.a_pattern == "000+"
    assert spec.theta_ratio == Fraction(-3, 4)
