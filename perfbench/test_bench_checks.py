"""The benchmark's checks accept the true outputs and reject wrong ones.

Each check gets a deliberately wrong input (a wrong array, a perturbed
eigenvalue, a count off by one, a bound root shifted by 1e-6) and must
report it.  No workload runs here; everything finishes in seconds.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import checks

HERE = Path(__file__).resolve().parent


def stats(generated=10, survivors=2, **killed):
    killed = killed or {"k_integrality": 5, "theta_ratio": 3}
    return {"generated": generated, "killed": killed, "survivors": survivors,
            "warnings": []}


def test_closed_forms_match_the_catalog_arrays():
    from drgf import oracle
    for name, text in oracle.CATALOG:
        b, c = checks.graph_array(name)
        assert "{" + ",".join(map(str, b)) + ";" + ",".join(map(str, c)) + "}" == text


@pytest.mark.parametrize("D", [4, 5])
def test_theorem2_check(D):
    arrays = checks.paper_arrays(D)
    assert checks.check_theorem2(D, arrays, (), [stats()]) == []
    wrong = arrays[:-1] + [checks.folded_cube_array(2 * D + 3)]
    assert checks.check_theorem2(D, wrong, (), [stats()])
    assert checks.check_theorem2(D, arrays[:-1], (), [stats()])
    assert checks.check_theorem2(D, arrays, ("main stage: missing x",), [stats()])
    assert checks.check_theorem2(D, arrays, (), [stats(generated=11)])


def test_spectral_check():
    for D in (4, 5):
        for b, c in checks.paper_arrays(D):
            assert checks.check_spectral(D, b, c) == []
    # The Odd graph O_4 has theta_min/k = -3/4, above the D = 5 ratio -4/5.
    assert "theta_min/k" in " ".join(checks.check_spectral(5, *checks.odd_graph_array(4)))
    fractional = checks.check_spectral(5, (9, 7, 1, 1, 1), (1, 1, 1, 1, 1))
    assert "multiplicities" in " ".join(fractional)


@pytest.mark.parametrize("D", [4, 5])
def test_enumeration_check(D):
    survivors = checks.main_survivors(D)
    ref = (survivors, stats())
    assert checks.check_enumeration(D, survivors, stats(), ref) == []
    assert checks.check_enumeration(D, survivors[::-1], stats(), None)
    assert checks.check_enumeration(D, [checks.polygon(2 * D + 1)], stats(), None)
    off_by_one = stats(k_integrality=5, theta_ratio=4, generated=11)
    assert checks.check_enumeration(D, survivors, off_by_one, ref)
    assert checks.check_enumeration(D, survivors, stats(generated=11), None)


def test_report_check():
    assert checks.check_report("x", "pass", []) == []
    assert checks.check_report("x", "fail", ["trace_square"])
    assert checks.check_report("x", "fail", ["k_integrality"], "k_integrality") == []
    assert checks.check_report("x", "pass", [], "k_integrality")
    assert checks.check_report("x", "fail", ["c2_bound"], "multiplicity_integrality")


@pytest.mark.parametrize("name", checks.CATALOG_GRAPHS)
def test_verify_check(name):
    values, mults = checks.graph_spectrum(name)
    assert sum(mults) == {"cycle:9": 9, "coxeter": 28, "odd_graph:5": 126,
                          "folded_cube:9": 256, "cycle:11": 11, "odd_graph:6": 462,
                          "folded_cube:11": 1024}[name]
    arr, girth = checks.graph_array(name), checks.graph_odd_girth(name)
    good = (values, mults)
    assert checks.check_verify(name, arr, girth, good, good) == []
    perturbed = ([values[0]] + [values[1] + 1e-6] + values[2:], mults)
    assert checks.check_verify(name, arr, girth, perturbed, good)
    assert checks.check_verify(name, arr, girth, good, perturbed)
    shifted = (values, [mults[0] + 1] + mults[1:])
    assert checks.check_verify(name, arr, girth, good, shifted)
    assert checks.check_verify(name, arr, girth + 2, good, good)
    b, c = arr
    assert checks.check_verify(name, (b, c[:-1] + (c[-1] + 1,)), girth, good, good)


def test_array_spectrum_matches_the_graph_spectra():
    for name in checks.CATALOG_GRAPHS:
        thetas, mults = checks.array_spectrum(*checks.graph_array(name))
        values, want = checks.graph_spectrum(name)
        assert max(abs(x - y) for x, y in zip(thetas, values)) < 1e-9
        assert max(abs(m - w) for m, w in zip(mults, want)) < 1e-6


def test_failing_check_kinds():
    assert checks.failing_check(*checks.odd_graph_array(5)) is None
    assert checks.failing_check((5, 4, 4, 3), (1, 1, 3, 3)) == "k_integrality"
    assert checks.failing_check((9, 7, 1, 1, 1), (1, 1, 1, 1, 1)) == \
        "multiplicity_integrality"


def test_bound_checks():
    ref = checks.bound_reference(5, 101)
    rows = sorted(ref.items())
    assert len(rows) == 49 and checks.check_bound_table(rows, ref) == []
    for i in (0, 24, 48):
        shifted = list(rows)
        shifted[i] = (rows[i][0], rows[i][1] + 1e-6)
        assert checks.check_bound_table(shifted, ref)
    assert checks.check_bound_table(rows[:-1], ref)
    assert checks.check_bound_table(rows[:-1] + [(101, None)], ref)
    sharp = checks.smallest_root(checks.sharp_g5_coefficients(0.1))
    assert checks.check_sharp_g5(sharp) == []
    assert checks.check_sharp_g5(sharp + 1e-6)
    assert checks.check_sharp_g5(None)


def test_must_fail_arrays_are_confirmed_and_fail_in_drgf():
    import workloads
    from drgf import feasibility
    arrays = workloads.must_fail_arrays(3)
    assert arrays == workloads.must_fail_arrays(3)
    assert len({a for a, _k in arrays}) == 2 * workloads.MUST_FAIL_PER_KIND
    for arr, kind in arrays:
        assert checks.failing_check(arr.b, arr.c) == kind
        rep = feasibility.full_report(arr)
        assert checks.check_report(str(arr), rep.overall, rep.failing, kind) == []


def test_tracer_replaces_every_binding_and_restores_it():
    from drgf import feasibility, search, spectral
    from tracer import Tracer
    originals = (spectral.spectrum, search.spectrum, feasibility.spectrum)
    tracer = Tracer()
    with tracer:
        assert search.spectrum is spectral.spectrum is feasibility.spectrum
        assert spectral.spectrum is not originals[0]
        feasibility.full_report(search.parse_array("{5,4,4,3;1,1,2,2}"))
    assert (spectral.spectrum, search.spectrum, feasibility.spectrum) == originals
    assert tracer.calls("feasibility.full_report") == 1
    assert tracer.calls("spectral.spectrum", {"feasibility.full_report"}) == 1
    assert tracer.self_seconds("feasibility.full_report") <= \
        tracer.seconds("feasibility.full_report")


def test_run_refuses_a_directory_without_drgf(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "audit",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
