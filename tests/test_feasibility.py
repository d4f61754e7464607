import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp

from drgf import feasibility
from drgf.core import parse_array
from drgf.feasibility import (FAIL, INCONCLUSIVE, NA, PASS, CheckEntry,
                              FeasibilityReport, check_a1_zero, check_c2_bound,
                              check_odd_girth_inequality, check_sum_rules,
                              check_theta_ratio, check_trace_square,
                              full_report, p_polynomials)
from drgf.spectral import SpectralError, as_mpf, eigenvalues, num_str, spectrum, workdps

WITNESSES = ["{2,1,1,1;1,1,1,1}", "{3,2,2,1;1,1,1,2}", "{5,4,4,3;1,1,2,2}",
             "{9,8,7,6;1,2,3,4}", "{2,1,1,1,1;1,1,1,1,1}",
             "{6,5,5,4,4;1,1,2,2,3}", "{11,10,9,8,7;1,2,3,4,5}"]


def test_witnesses_all_pass():
    for text in WITNESSES:
        rep = full_report(parse_array(text))
        assert rep.overall == PASS, (text, rep.failing)


# the four classical conditions: monotone c, monotone b, integral k_i and m_i
CLASSICAL = ("c_nondecreasing", "b_nonincreasing", "k_integrality", "multiplicity_integrality")


def test_monotonicity_failure():
    by = {e.name: e.verdict for e in full_report(parse_array("{5,3,2,2;1,2,1,2}")).checks}
    assert by["c_nondecreasing"] == FAIL
    assert by["k_integrality"] == FAIL


def test_monotone_checks_pass_folded_cube():
    rep = full_report(parse_array("{9,8,7,6;1,2,3,4}"))
    assert [rep.verdict(name) for name in CLASSICAL] == [PASS] * 4


def test_regression_non_integral_multiplicities():
    # k_2 = k_3 = 12 are integral; the Biggs multiplicities are not
    rep = full_report(parse_array("{4,3,3;1,1,3}"))
    assert rep.overall == FAIL
    assert "multiplicity_integrality" in rep.failing
    assert "k_integrality" not in rep.failing


def test_multiplicity_strings_carry_working_precision():
    # each multiplicity is written from the spectrum's own mpf at working
    # precision, not first rounded to 53 bits: 13.7871115188999994407...,
    # not the double's 13.7871115188999997513...
    arr = parse_array("{71,19,6;1,3,57}")
    entry = next(e for e in full_report(arr).checks if e.name == "multiplicity_integrality")
    with workdps():
        mults = [num_str(m) for m in spectrum(arr).mults_raw]
    assert entry.verdict == FAIL and entry.witness["mults"] == str(mults)
    assert mults[1].startswith("13.787111518899999440799")


def test_regression_perturbed_o5_fails():
    rep = full_report(parse_array("{5,4,4,3;1,1,2,3}"))
    assert rep.overall == FAIL
    assert "multiplicity_integrality" in rep.failing


def test_a1_zero_gate():
    # theta_min = -4 < -5/2 with a_1 = 0
    e = check_a1_zero(parse_array("{5,4,4,3;1,1,2,2}"))
    assert e.verdict == PASS and e.witness == {"a1": 0, "gate": "-5/2"}
    # theta_min = -k/2 sits on the gate, not inside it: the triangle (-1)
    # and {8,7,5;1,1,4} (-4)
    assert check_a1_zero(parse_array("{2;1}")).verdict == NA
    assert check_a1_zero(parse_array("{8,7,5;1,1,4}")).verdict == NA
    # theta_min = -2 < -3/2 against a_1 = 1
    e = check_a1_zero(parse_array("{3,1;1,3}"))
    assert e.verdict == FAIL and e.witness == {"a1": 1, "gate": "-3/2"}


def test_c2_bound_values():
    # the bound meets c_2 = 2 with equality: theta_min = -3 at k = 5 and -7
    # at k = 9 are the least theta_min it allows
    for text, least in (("{5,4;1,2}", "-3"), ("{9,8,7,6;1,2,3,4}", "-7")):
        arr = parse_array(text)
        assert spectrum(arr).theta_min == int(least)
        e = check_c2_bound(arr)
        assert e.verdict == PASS and e.witness == {"c2": 2, "least_theta_min": least}
    # k = 7, theta_min = -4: c_2 = 3 needs theta_min >= -23/7 (bound 22/9 < 3)
    e = check_c2_bound(parse_array("{7,6;1,3}"))
    assert e.verdict == FAIL and e.witness == {"c2": 3, "least_theta_min": "-23/7"}


def test_c2_bound_gates():
    # theta_min = (12 - 5k)/7 = -4 at k = 8 is on the gate, not inside it
    arr = parse_array("{8,7,5;1,1,4}")
    assert spectrum(arr).theta_min == -4
    assert check_c2_bound(arr).witness == {"gate": "(-8, -4)"}
    assert check_c2_bound(arr).verdict == NA
    # theta_min = -k (bipartite-type) is excluded: K_{3,3} is real with c_2 = 3
    k33 = parse_array("{3,2;1,3}")
    assert check_c2_bound(k33).verdict == NA
    assert full_report(k33).overall == PASS
    # a_1 != 0 gate
    e = check_c2_bound(parse_array("{3,1;1,3}"))
    assert e.verdict == NA and e.witness == {"reason": "a1 != 0"}


def test_hypercubes_pass():
    for text in ("{3,2,1;1,2,3}", "{4,3,2,1;1,2,3,4}"):
        assert full_report(parse_array(text)).overall == PASS


def test_p_polynomials_closed_forms():
    xs = [x / 100 for x in range(-200, 201, 7)]
    for x in xs:
        ps = p_polynomials(5, x)
        assert ps[0] == 1 and ps[1] == x
        assert abs(ps[2] - (x * x - 2)) < 1e-12
        assert abs(ps[3] - (x ** 3 - 3 * x)) < 1e-12
    assert p_polynomials(6, 2.0) == [1, 2, 2, 2, 2, 2, 2]


def test_p_polynomials_cosine_identity():
    for t in (2, 5, 11):
        for j in range(25):
            phi = 2 * math.pi * j / 25
            ps = p_polynomials(t, 2 * math.cos(phi))
            for i in range(1, t + 1):
                assert abs(ps[i] - 2 * math.cos(i * phi)) < 1e-9


def test_p_polynomials_bounded_on_interval():
    # |p_i(eta)| <= 2 whenever |eta| <= 2
    for x in [-2 + 4 * i / 999 for i in range(1000)]:
        ps = p_polynomials(12, x)
        assert max(abs(p) for p in ps[1:]) <= 2 + 1e-9


def test_odd_girth_inequality_witnesses():
    for text in WITNESSES:
        arr = parse_array(text)
        if arr.t is None:
            continue
        entries = check_odd_girth_inequality(arr, eigenvalues(arr)[-1])
        assert len(entries) == arr.t + 1
        assert all(e.verdict == PASS for e in entries), text


def test_odd_girth_inequality_j0_structure():
    # at eta = 2 the inequality reads 1 + 2 sum_{i>=1} u_i >= 0
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    entries = check_odd_girth_inequality(arr, -4)
    u = (1, Fraction(-4, 5), Fraction(11, 20), Fraction(-7, 20), Fraction(1, 10))
    expect = 1 + 2 * sum(u[1:])
    assert abs(float(entries[0].witness["value"]) - float(expect)) < 1e-12


def test_odd_girth_values_ignore_the_last_digit_of_theta_min():
    # a value prints at 15 significant digits, and as 0 within the rounding
    # noise of the working precision, so moving theta_min by one unit in its
    # 50th digit leaves every witness, and every verdict, as it was
    for text in WITNESSES + ["{5,4;1,4}", "{7,6,4,4;1,1,1,6}"]:
        arr = parse_array(text)
        theta = eigenvalues(arr)[-1]
        with workdps():
            unit = mp.mpf(10) ** (int(mp.floor(mp.log10(abs(as_mpf(theta))))) - 49)
            moved = as_mpf(theta) + unit
        entries = check_odd_girth_inequality(arr, theta)
        assert [(e.name, e.verdict, e.witness) for e in entries] == [
            (e.name, e.verdict, e.witness) for e in check_odd_girth_inequality(arr, moved)]
        digits = [e.witness["value"].split("e")[0].strip("-").replace(".", "").lstrip("0")
                  for e in entries]
        assert all(len(d) <= 15 for d in digits) and max(map(len, digits)) > 1, text


def test_odd_girth_inequality_pentagon_violation():
    # t = 2 array with theta_min below the girth-5 threshold fails at j = 1
    arr = parse_array("{5,4;1,4}")
    tmin = eigenvalues(arr)[-1]
    threshold = (-2 * 5 - math.sqrt(5) + 1) / (math.sqrt(5) + 1)
    assert float(tmin) < threshold
    entries = check_odd_girth_inequality(arr, tmin)
    assert entries[1].verdict == FAIL


def test_odd_girth_inequality_bipartite_na():
    arr = parse_array("{3,2,1;1,2,3}")
    entries = check_odd_girth_inequality(arr, -3)
    assert len(entries) == 1 and entries[0].verdict == NA


def test_sum_rules_and_trace_entries():
    arr = parse_array("{6,5,5,4,4;1,1,2,2,3}")
    spec = spectrum(arr)
    assert check_sum_rules(arr, spec).verdict == PASS
    assert check_trace_square(arr, spec.theta_min).verdict == PASS


def test_sum_rule_residuals_print_at_three_digits():
    # rounding noise of the working precision prints as 0; a real residual
    # prints at 3 digits, and the verdict reads the raw value
    arr = parse_array("{6,5,5,4,2;1,1,2,2,3}")
    spec = spectrum(arr)
    entry = check_sum_rules(arr, spec)
    assert (entry.verdict, entry.witness) == (PASS, {"r_sum": "0", "r_first": "0",
                                                     "r_second": "0"})
    for rel, verdict, r_sum, r_second in [(Fraction(123456, 10**13), PASS, "1.23e-8", "7.41e-8"),
                                          (Fraction(1000001, 10**12), FAIL, "1.0e-6", "6.0e-6"),
                                          (Fraction(1, 10**47), PASS, "0", "0")]:
        # theta_0 = k carries multiplicity 1; shift it by rel * v
        with workdps():
            shifted = replace(spec, mults_raw=(as_mpf(spec.mults_raw[0]) + as_mpf(rel * arr.v),
                                               *spec.mults_raw[1:]))
            entry = check_sum_rules(arr, shifted)
        assert entry.verdict == verdict
        assert (entry.witness["r_sum"], entry.witness["r_second"]) == (r_sum, r_second)


def test_theta_ratio_check():
    arr = parse_array("{5,4,4,3;1,1,2,2}")
    tmin = spectrum(arr).theta_min
    assert check_theta_ratio(arr, tmin, Fraction(-3, 4)).verdict == PASS
    assert check_theta_ratio(arr, tmin, Fraction(-9, 10)).verdict == FAIL


def test_report_json_schema():
    rep = full_report(parse_array("{9,8,7,6;1,2,3,4}"))
    d = rep.to_json_dict()
    assert list(d.keys()) == ["array", "checks", "overall"]
    assert d["array"] == "{9,8,7,6;1,2,3,4}"
    assert all(list(c.keys()) == ["name", "verdict", "witness"] for c in d["checks"])
    json.dumps(d)  # serialisable


def test_verdict_independent_of_check_order():
    # an irrational theta_min failing multiplicity_integrality, and the
    # arrays that fail a1_zero and c2_bound
    for text in ("{5,4,4,3;1,1,2,3}", "{3,1;1,3}", "{7,6;1,3}"):
        arr = parse_array(text)
        tmin = eigenvalues(arr)[-1]
        spec = spectrum(arr)
        entries = ([e for e in full_report(arr).checks if e.name in CLASSICAL]
                   + [check_a1_zero(arr), check_c2_bound(arr)]
                   + check_odd_girth_inequality(arr, tmin)
                   + [check_sum_rules(arr, spec), check_trace_square(arr, tmin)])
        forward = any(e.verdict == FAIL for e in entries)
        backward = any(e.verdict == FAIL for e in reversed(entries))
        assert forward == backward == (full_report(arr).overall == FAIL), text


def test_overall_is_three_state():
    arr = parse_array("{9,8,7,6;1,2,3,4}")
    passed, unsure, failed = (CheckEntry(name, verdict, {}) for name, verdict in
                              (("a", PASS), ("b", INCONCLUSIVE), ("c", FAIL)))
    assert FeasibilityReport(arr, (passed,)).overall == PASS
    assert FeasibilityReport(arr, (passed, unsure)).overall == INCONCLUSIVE
    assert FeasibilityReport(arr, (unsure, failed, passed)).overall == FAIL


def test_verdict_joins_the_entries_of_one_check():
    arr = parse_array("{9,8,7,6;1,2,3,4}")
    na = CheckEntry("a1_zero", NA, {})
    odd = [CheckEntry(f"odd_girth_inequality_j{j}", verdict, {})
           for j, verdict in enumerate((PASS, INCONCLUSIVE, FAIL))]
    for n, verdict in ((1, PASS), (2, INCONCLUSIVE), (3, FAIL)):
        rep = FeasibilityReport(arr, (na, *odd[:n]))
        assert rep.verdict("odd_girth_inequality") == verdict
        assert rep.verdict("a1_zero") == NA
        assert rep.verdict("odd_girth") is None and rep.verdict("trace_square") is None
    real = full_report(arr)
    assert real.verdict("odd_girth_inequality") == PASS
    assert real.verdict("theta_ratio") is real.verdict("trace_vs_ratio") is None


def test_forced_inconclusive_report_is_not_pass(monkeypatch):
    # a pass band no value can reach: every odd-girth entry of a real graph
    # then lands in the guard band between pass and fail
    monkeypatch.setattr(feasibility, "INEQ_PASS_TOL", -1e9)
    rep = full_report(parse_array("{9,8,7,6;1,2,3,4}"))
    assert rep.failing == []
    assert any(e.verdict == INCONCLUSIVE for e in rep.checks)
    assert rep.overall == INCONCLUSIVE
    assert rep.to_json_dict()["overall"] == INCONCLUSIVE


def test_full_report_without_a_spectrum_is_inconclusive(monkeypatch):
    # a spectrum that cannot be computed decides no multiplicity: the report
    # must not fail an array that nothing has ruled out
    def broken(arr, roots=None):
        raise SpectralError("no spectrum")

    monkeypatch.setattr(feasibility, "spectrum", broken)
    rep = full_report(parse_array("{9,8,7,6;1,2,3,4}"))
    verdicts = {e.name: e.verdict for e in rep.checks}
    assert rep.spectrum is None
    assert verdicts["spectrum"] == verdicts["multiplicity_integrality"] == INCONCLUSIVE
    assert rep.failing == []
    assert rep.overall == INCONCLUSIVE


def test_full_report_lets_a_bug_in_the_spectrum_propagate(monkeypatch):
    # only SpectralError reads as no spectrum: any other exception is a bug
    def broken(arr, roots=None):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(feasibility, "spectrum", broken)
    with pytest.raises(ZeroDivisionError, match="bug"):
        full_report(parse_array("{9,8,7,6;1,2,3,4}"))


def test_full_report_with_ratio_entry():
    rep = full_report(parse_array("{9,8,7,6;1,2,3,4}"), theta_ratio=Fraction(-3, 4))
    assert rep.checks[-1].name == "theta_ratio"
    assert rep.overall == PASS
