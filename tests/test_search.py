import gc
import itertools
import json
import math
import multiprocessing
import os
import random
import signal
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from drgf import bound, feasibility, oracle, search, spectral
from drgf.core import IntersectionArray, format_array, parse_array
from drgf.feasibility import FAIL, INCONCLUSIVE, full_report
from drgf.search import (DEFAULT_CHECKS, CapDerivationError, PruningStats, SearchSpec,
                         SearchSpecError, _ceil4, _eta_poly, _floor4, _has_positive_root,
                         _KSpace, _negative_from, _nonnegative_below_cut,
                         _walk_group, classify_diameter, enumerate_arrays,
                         eta_exclusion_cap, eta_feasible, eta_scan_end,
                         pentagon_exclusion_cap, valency_cap)
from drgf.spectral import (SpectralError, _columns, _jacobi_eigvals, eigenvalues,
                           multiplicities_float, sturm_count_leq, theta_min_multiplicity_float,
                           trace_of_l_squared)


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


@pytest.mark.parametrize("checks", ["theta_ratio", ["trace_squar"], ["theta_ratio", "x"]])
def test_spec_rejects_unknown_checks(checks):
    # a bare string would split into characters and silently disable every
    # check; in a JSON spec it is no list, and is rejected as such
    obj = {"D": 4, "k_range": [5, 8], "a_pattern": "000+", "checks": checks}
    json_error = "checks must be a list of strings" if isinstance(checks, str) else "unknown checks"
    with pytest.raises(SearchSpecError, match=json_error):
        SearchSpec.from_json_dict(obj)
    with pytest.raises(SearchSpecError, match="unknown checks"):
        SearchSpec(4, 5, 8, "000+", checks=tuple(checks))


@pytest.mark.parametrize("key, value", [
    ("k_range", "58"), ("c2_set", "12"), ("D", 4.9), ("D", True), ("D", "4"),
    ("k_range", [5.5, 8]), ("k_range", [5, 8, 99]), ("k_range", [5]), ("c2_set", [1, 2.0]),
    ("checks", ""), ("checks", {"a1_zero": 1}), ("checks", "k_integrality"),
    ("checks", ["a1_zero", 1]), ("a_pattern", 0)])
def test_spec_json_rejects_what_it_would_misread(key, value):
    # int(), str(), tuple() and indexing would misread each: as [5, 8],
    # {1, 2}, D = 4 or 1, no check at all, a dict's keys, a string's letters,
    # a check named 1, the pattern "0" of this D = 1 space, or by truncating
    # or dropping an entry
    obj = {"D": 1, "k_range": [5, 8], "a_pattern": "+", key: value}
    with pytest.raises(SearchSpecError, match=f"bad search spec: {key} must be"):
        SearchSpec.from_json_dict(obj)


def _valencies(spec):
    """Each valency of spec with its walked and screened arrays and stats."""
    return _walk_group(spec, (_KSpace(spec, run) for run in search._dtype_runs(
        spec, range(spec.k_min, spec.k_max + 1))))


def test_spec_contains_what_its_walk_generates():
    def space(spec):  # every array of the space: no check is on
        return {a for _k, arrays, _stats in _valencies(spec) for a in arrays}

    inner = SearchSpec(4, 3, 6, "0+*+", (1, 3), None, ())
    outer = space(SearchSpec(4, 2, 7, "****", (1, 2, 3, 4, 5), None, ()))
    members = space(inner)
    assert members and members < outer
    assert {a for a in outer if inner.contains(a)} == members


def test_spec_json_round_trip():
    spec = SearchSpec(5, 5, 24, "000+*", (1, 2), Fraction(-4, 5))
    again = SearchSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec


def test_d4_main_enumeration(d4_result):
    assert [format_array(a) for a in d4_result.survivors] == D4_EXPECT


def test_d4_stats_consistent(d4_result, consistent):
    st = d4_result.stats
    assert consistent(st)
    assert st.survivors == 2
    assert st.generated > 10000
    assert st.killed["k_integrality"] > 0
    assert st.killed["multiplicity_integrality"] > 0


def test_d4_stats_exact(d4_result):
    st = d4_result.stats
    assert (st.generated, st.killed, st.survivors) == (13671, D4_KILLED, 2)
    assert st.warnings == []


def test_a4_space_stats_exact():
    st = enumerate_arrays(SearchSpec(5, 5, 24, "000+*", (1, 2), Fraction(-4, 5))).stats
    assert (st.generated, st.survivors) == (261076, 0)
    assert st.killed == {"c2_bound": 627, "k_integrality": 215444,
                         "multiplicity_integrality": 8585, "theta_ratio": 25612,
                         "trace_vs_ratio": 10808}
    assert st.warnings == []


# PruningStats of small spaces, recorded before the walk settled its inner
# k-integrality kills and its leaf cuts in bulk: D <= 2 leaves, where the
# a_1 prune or the c_2 cap comes before the cuts, and a walk without the
# k-integrality check.
NO_K = tuple(c for c in DEFAULT_CHECKS if c != "k_integrality")
WALK_PINS = [
    (SearchSpec(2, 3, 12, "0*", (1, 2), Fraction(-1, 2)),
     (20, {"c2_bound": 1, "multiplicity_integrality": 4, "theta_ratio": 4,
           "trace_vs_ratio": 9}, 2)),
    (SearchSpec(2, 2, 12, "**", (1, 2, 3), Fraction(-2, 3)),
     (197, {"a1_zero": 165, "k_integrality": 3, "multiplicity_integrality": 3,
            "trace_vs_ratio": 22}, 4)),
    (SearchSpec(1, 2, 9, "*", (1,), Fraction(-1, 2)), (8, {"trace_vs_ratio": 7}, 1)),
    (SearchSpec(3, 3, 12, "***", (1, 2), Fraction(-2, 3), NO_K),
     (5080, {"a1_zero": 4070, "multiplicity_integrality": 180, "theta_ratio": 323,
             "trace_vs_ratio": 485}, 22)),
]


@pytest.mark.parametrize("spec, expected", WALK_PINS,
                         ids=[f"D{spec.D}-{spec.a_pattern}" for spec, _expected in WALK_PINS])
def test_walk_counts_pinned(spec, expected, consistent):
    st = enumerate_arrays(spec).stats
    assert (st.generated, st.killed, st.survivors) == expected
    assert st.warnings == [] and consistent(st)


# The rows that reach the float screen in the D = 4 and D = 5 main spaces and
# the a_4 space, with how many of the screen's kills theta_min's multiplicity
# decides alone, and how many kills there are.
SCREEN_SPACES = {
    "D4 main": (D4_SPEC, 1198, 1199),
    "D5 main": (SearchSpec(5, 5, 71, "0000+", (1, 2), Fraction(-4, 5)), 43058, 43072),
    "a4": (SearchSpec(5, 5, 24, "000+*", (1, 2), Fraction(-4, 5)), 8579, 8585),
}


@pytest.fixture(scope="module")
def screened_rows():
    """name -> the (n, 2D) int matrices of b_0..b_{D-1}, c_1..c_D that the
    level pass screens, one per leaf group of consecutive valencies."""
    batches, real = {}, search._screen
    with pytest.MonkeyPatch.context() as patch:
        for name, (spec, _decided, _kills) in SCREEN_SPACES.items():
            seen = batches[name] = []
            patch.setattr(search, "_screen",
                          lambda rows, seen=seen: seen.append(rows) or real(rows))
            list(_valencies(spec))
    return batches


def _eigvalsh_kills(rows):
    """The screen's verdicts from eigvalsh alone: some multiplicity is fractional."""
    return search._fractional(multiplicities_float(rows)).any(axis=1)


@pytest.mark.parametrize("name", SCREEN_SPACES)
def test_theta_min_pass_matches_eigvalsh(screened_rows, name):
    # theta_min agrees with eigvalsh on every screened row, the screen's
    # verdicts are those of eigvalsh alone, and the kills theta_min does not
    # decide fall through to multiplicities_float and are still killed
    decided = kills = 0
    for rows in screened_rows[name]:
        assert rows.dtype == np.int64 and rows.shape[1] == 2 * SCREEN_SPACES[name][0].D
        theta, m = theta_min_multiplicity_float(rows)
        assert np.all(np.abs(theta - _jacobi_eigvals(*_columns(rows))[:, -1]) <= 1e-9 * rows[:, 0])
        eig_kill = _eigvalsh_kills(rows)
        assert (search._screen(rows) == ~eig_kill).all()
        first = search._fractional(m)
        assert not (first & ~eig_kill).any()
        decided, kills = decided + int(first.sum()), kills + int(eig_kill.sum())
    assert (decided, kills) == SCREEN_SPACES[name][1:]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_undecided_theta_min_rows_fall_through(screened_rows, monkeypatch, value):
    # a non-finite theta_min multiplicity kills nothing: every row goes to
    # multiplicities_float and gets the same verdict, the two the screen
    # keeps included
    rows = np.vstack(screened_rows["D4 main"])
    expected = ~_eigvalsh_kills(rows)
    assert expected.sum() == 2
    monkeypatch.setattr(search, "theta_min_multiplicity_float",
                        lambda rows: (np.full(len(rows), value), np.full(len(rows), value)))
    assert (search._screen(rows) == expected).all()


def test_newton_rows_past_the_step_budget_are_undecided(screened_rows, monkeypatch):
    # one Newton step stops no row of the D = 5 main space: each is left
    # undecided (NaN), and the screen still gives the eigvalsh verdicts
    rows = screened_rows["D5 main"][0]
    monkeypatch.setattr(spectral, "_NEWTON_STEPS", 1)
    theta, m = theta_min_multiplicity_float(rows)
    assert np.isnan(theta).all() and np.isnan(m).all()
    assert (search._screen(rows) == ~_eigvalsh_kills(rows)).all()


def _theta_min_rows_reference(rows):
    """theta_min_multiplicity_float in the row layout: one row per array,
    the diagonal from np.pad, a column per step of the minor recurrence,
    and the multiplicity in the Christoffel-Darboux form."""
    b, c = np.hsplit(np.asarray(rows, float), 2)
    n, D = b.shape
    k, w = b[:, 0], b * c
    a = b[:, :1] - np.pad(b, ((0, 0), (0, 1))) - np.pad(c, ((0, 0), (1, 0)))

    def minors(x):  # P_D, P_{D+1}, P'_D, P'_{D+1} at x
        p_prev, p, dp_prev, dp = 1.0, x - a[:, 0], 0.0, 1.0
        for i in range(1, D + 1):
            t = x - a[:, i]
            p_prev, p, dp_prev, dp = (p, t * p - w[:, i - 1] * p_prev,
                                      dp, p + t * dp - w[:, i - 1] * dp_prev)
        return p_prev, p, dp_prev, dp

    x, done = -k, np.zeros(n, bool)
    with np.errstate(all="ignore"):
        for _ in range(spectral._NEWTON_STEPS):
            _, p, _, dp = minors(x)
            step = p / dp
            x = np.where(done, x, x - step)
            done |= np.abs(step) <= spectral._NEWTON_TOL * k
            if done.all():
                break
        theta = np.where(done & np.isfinite(x), x, np.nan)
        p_prev, p, dp_prev, dp = minors(theta)
        v = np.cumprod(np.hstack([np.ones((n, 1)), b / c]), axis=1).sum(axis=1)
        return theta, v * w.prod(axis=1) / (dp * p_prev - dp_prev * p)


@pytest.mark.parametrize("name", SCREEN_SPACES)
@pytest.mark.parametrize("steps", [spectral._NEWTON_STEPS, 3])
def test_column_layout_matches_the_row_layout_bit_for_bit(screened_rows, monkeypatch, name, steps):
    # three Newton steps leave some rows undecided (NaN) and decide others
    monkeypatch.setattr(spectral, "_NEWTON_STEPS", steps)
    rows = np.vstack(screened_rows[name])
    theta, m = theta_min_multiplicity_float(rows)
    assert np.isnan(theta).any() == (steps == 3)
    want_theta, want_m = _theta_min_rows_reference(rows)
    assert np.array_equal(theta, want_theta, equal_nan=True)
    assert np.array_equal(m, want_m, equal_nan=True)


def _biggs_u_sum(rows, th):
    """Float Biggs multiplicities v / sum k_i u_i^2 at th, an (n,) vector or
    an (m, n) matrix of eigenvalues, from the standard-sequence recurrence
    u_{j+1} = ((theta - a_j) u_j - c_j u_{j-1}) / b_j, independent of the
    minor recurrence that spectral evaluates."""
    a, b, c = _columns(rows)
    ks = np.cumprod(np.vstack([np.ones((1, b.shape[1])), b / c]), axis=0)
    u_prev, u = np.ones_like(th), th / b[0]
    norm = 1 + ks[1] * u * u
    for j in range(1, len(b)):
        u_prev, u = u, ((th - a[j]) * u - c[j - 1] * u_prev) / b[j]
        norm += ks[j + 1] * u * u
    return ks.sum(axis=0) / norm


@pytest.mark.parametrize("name", SCREEN_SPACES)
def test_christoffel_darboux_matches_the_u_sum_on_screened_rows(screened_rows, name):
    # theta_min's multiplicity and every eigenvalue's, on every screened row:
    # the two forms agree within 1e-12 relative and give the same verdicts
    for rows in screened_rows[name]:
        theta, m = theta_min_multiplicity_float(rows)
        eig = _jacobi_eigvals(*_columns(rows))
        for got, want in ((m, _biggs_u_sum(rows, theta)),
                          (multiplicities_float(rows), _biggs_u_sum(rows, eig.T).T)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert np.all(np.abs(got - want)[ok] <= 1e-12 * np.abs(want)[ok])
            assert np.array_equal(search._fractional(got), search._fractional(want))


def _keep_in_batches(rows, cuts):
    """The screen's verdicts on rows, screened in the parts that cuts make."""
    return np.concatenate([search._screen(part) for part in np.split(rows, cuts)])


@pytest.mark.parametrize("name", SCREEN_SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batching_changes_no_verdict(screened_rows, name, data):
    # each row's verdict is its own: all rows in one batch, the batches of
    # the walk and any cut points give the same keep vector
    rows = np.vstack(screened_rows[name])
    whole = search._screen(rows)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=8), label="cuts"))
    assert np.array_equal(_keep_in_batches(rows, cuts), whole)
    walk = np.cumsum([len(batch) for batch in screened_rows[name]])[:-1]
    assert np.array_equal(_keep_in_batches(rows, walk), whole)


@pytest.mark.parametrize("name", SCREEN_SPACES)
def test_one_row_batches_change_no_verdict(screened_rows, name):
    # one _screen call per row; on the D = 5 main space only over its first
    # batch, as 43,081 single-row calls would take seconds
    rows = screened_rows[name][0] if name == "D5 main" else np.vstack(screened_rows[name])
    assert len(rows) >= 1000
    assert np.array_equal(_keep_in_batches(rows, np.arange(1, len(rows))), search._screen(rows))


def _spy_leaf(monkeypatch, spy) -> list:
    """Patch _KSpace._leaf to call spy(leaf, space, *args), leaf the real
    one, and count the leaf groups that the walk yields to run(): the list
    returned holds that count, for the test to check that its spy saw every
    leaf group."""
    leaf, descend, yielded = _KSpace._leaf, _KSpace._descend, [0]

    def descend_spy(self, level, *args):
        for group in descend(self, level, *args):
            yielded[0] += level == 1
            yield group

    monkeypatch.setattr(_KSpace, "_leaf", lambda self, *args: spy(leaf, self, *args))
    monkeypatch.setattr(_KSpace, "_descend", descend_spy)
    return yielded


def test_screen_batches_stay_bounded(monkeypatch):
    # the screen is the leaf's last cut: one _screen call per leaf group that
    # the trace and Sturm cuts leave rows in, so a batch is a group of the
    # level pass, at most _PASS_ROWS rows here.  classify_diameter(4) and (5)
    # make 34 calls; the D = 5 main space's 43,081 rows take 22, not one per
    # valency, the largest holding 4,299
    spaces, leaves = [], []
    real_screen, real_enumerate = search._screen, search.enumerate_arrays

    def enumerate_spy(spec, jobs=1):
        spaces.append((spec, []))
        return real_enumerate(spec, jobs)

    def leaf_spy(leaf, self, *args):  # the batches screened in the leaf, and the rows it keeps
        before = len(spaces[-1][1])
        rows = leaf(self, *args)
        leaves.append((spaces[-1][1][before:], len(rows)))
        return rows

    monkeypatch.setattr(search, "enumerate_arrays", enumerate_spy)
    monkeypatch.setattr(search, "_screen", lambda rows: spaces[-1][1].append(len(rows))
                        or real_screen(rows))
    walked = _spy_leaf(monkeypatch, leaf_spy)
    classify_diameter(4)
    classify_diameter(5)
    assert len(leaves) == walked[0] > 0
    assert all(len(batches) <= 1 and (batches or kept == 0) for batches, kept in leaves)
    assert sum(len(batches) for batches, _kept in leaves) == sum(len(b) for _s, b in spaces)
    sizes = [n for _spec, sizes in spaces for n in sizes]
    assert len(sizes) == 34 and 0 < min(sizes) and max(sizes) <= search._PASS_ROWS
    main = [sizes for spec, sizes in spaces if spec.a_pattern == "0000+"]
    assert len(main) == 1 and sum(main[0]) == 43081
    assert len(main[0]) == 22 and max(main[0]) == 4299


def test_one_screen_batch_stays_small(screened_rows):
    # the float temporaries of the largest batch that the D = 5 main walk
    # screens, 4,299 rows, stay below 4 MB; the D = 5 main space screened at
    # once peaks near 14 MB
    rows = max(screened_rows["D5 main"], key=len)
    assert len(rows) == 4299
    tracemalloc.start()
    try:
        search._screen(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_no_screen_without_the_multiplicity_check(monkeypatch):
    # with multiplicity_integrality off the walk makes no _screen call: every
    # leaf row of the D = 4 main space becomes an array, the 1,199 that the
    # screen kills included
    def no_screen(rows):
        raise AssertionError("the walk screened")

    monkeypatch.setattr(search, "_screen", no_screen)
    spec = replace(D4_SPEC, checks=tuple(c for c in DEFAULT_CHECKS
                                         if c != "multiplicity_integrality"))
    valencies = list(_valencies(spec))
    assert sum(len(arrays) for _k, arrays, _stats in valencies) == 1199 + 2
    assert not any("multiplicity_integrality" in stats.killed for _k, _a, stats in valencies)


# The level pass carries tr(L^2) and the Sturm minors at the cut down the
# levels; the reference recomputes both from scratch on every complete candidate.
PREFIX_CHECKS = ("a1_zero", "c2_bound", "k_integrality")
CUT_SPACES = [
    SearchSpec(2, 3, 12, "0*", (1, 2), Fraction(-1, 2)),  # the c_2 cap at a leaf
    SearchSpec(3, 4, 12, "0**", (1, 2, 3), Fraction(-1, 2)),  # phi_2 = 0 at k = 4
    SearchSpec(3, 3, 12, "***", (1, 2), Fraction(-2, 3)),
    SearchSpec(4, 5, 12, "000+", (1, 2), Fraction(-3, 4)),
    SearchSpec(4, 4, 10, "0*+*", (1, 2), Fraction(-2, 3)),
    SearchSpec(5, 5, 12, "000+*", (1, 2), Fraction(-4, 5)),
    SearchSpec(3, 3, 12, "**0", (1, 2), Fraction(-2, 3)),  # a_D = 0: only c_D = k
    SearchSpec(4, 5, 12, "000+", (1, 2), Fraction(-3, 4), NO_K),  # every divisor kept
]


def _space_results(spec):
    """Merged kills and the (b, c) survivors of every valency of spec."""
    killed, rows = {}, []
    for _k, arrays, stats in _valencies(spec):
        rows += [(arr.b, arr.c) for arr in arrays]
        for name, n in stats.killed.items():
            killed[name] = killed.get(name, 0) + n
    return killed, rows


def _reference_cuts(spec):
    """Kills and survivors when tr(L^2) and the Sturm count are recomputed
    on each complete candidate the prefix prunings leave."""
    on = set(spec.checks) if spec.theta_ratio is not None else set()
    killed, candidates = _space_results(replace(spec, checks=tuple(
        c for c in spec.checks if c not in ("trace_vs_ratio", "theta_ratio"))))
    survivors = []
    for b, c in candidates:
        arr = IntersectionArray(b, c)
        cut = None if spec.theta_ratio is None else spec.theta_ratio * arr.k
        if "trace_vs_ratio" in on and arr.k ** 2 + cut ** 2 > trace_of_l_squared(arr):
            killed["trace_vs_ratio"] = killed.get("trace_vs_ratio", 0) + 1
        elif "theta_ratio" in on and sturm_count_leq(arr, cut) < 1:
            killed["theta_ratio"] = killed.get("theta_ratio", 0) + 1
        else:
            survivors.append((b, c))
    return killed, survivors


def _with_cuts(spec, cuts):
    """spec with its prefix checks and the given ratio cuts only."""
    return replace(spec, checks=tuple(c for c in spec.checks if c in PREFIX_CHECKS) + cuts)


@pytest.mark.parametrize("spec", CUT_SPACES, ids=lambda s: f"D{s.D}-{s.a_pattern}" + (
    "" if "k_integrality" in s.checks else "-no-k"))
@pytest.mark.parametrize("cuts", [("trace_vs_ratio", "theta_ratio"), ("theta_ratio",),
                                  ("trace_vs_ratio",), "no ratio"])
def test_fused_cuts_match_reference(spec, cuts):
    if cuts == "no ratio":
        spec = replace(_with_cuts(spec, ("trace_vs_ratio", "theta_ratio")), theta_ratio=None)
    else:
        spec = _with_cuts(spec, cuts)
    killed, survivors = _space_results(spec)
    assert (killed, survivors) == _reference_cuts(spec)
    assert survivors
    if cuts != "no ratio":
        assert any(killed.get(name) for name in cuts)


@pytest.mark.parametrize("q, dtypes", [(100, {np.int64, object}), (1000, {object}),
                                      (10**10, {object})], ids=["100", "1000", "10^10"])
def test_level_pass_stays_exact_past_int64(q, dtypes):
    # at cut = -(3q - 1)/(4q) k the minors q^i phi_i outgrow int64.  At q = 100
    # none reaches 2^63, and the a-priori bound, on the ratio's own
    # denominator 4q, keeps k = 5..8 on int64 and sends k = 9..12 to Python
    # ints; at q = 1000 some leaf minors pass 2^63 and the bound sends every
    # valency to Python ints, as at 10^10.  Each verdict stays that of
    # sturm_count_leq and trace_of_l_squared.
    spec = _with_cuts(SearchSpec(4, 5, 12, "000+", (1, 2), Fraction(1 - 3 * q, 4 * q)),
                      ("trace_vs_ratio", "theta_ratio"))
    assert {search._dtype(spec, k) for k in range(5, 13)} == dtypes
    _killed, candidates = _space_results(replace(spec, checks=PREFIX_CHECKS))
    peak = max(abs(phi) for b, c in candidates
               for phi, _d in spectral._minors(IntersectionArray(b, c), spec.theta_ratio * b[0]))
    assert (peak >= 2**63) == (q > 100)
    killed, survivors = _space_results(spec)
    assert (killed, survivors) == _reference_cuts(spec)
    assert killed["theta_ratio"] and killed["trace_vs_ratio"] and survivors


def test_leaf_tallies_per_valency_on_python_ints():
    # at q = 1000 every valency of the space above runs on Python ints, so
    # the leaf's int64 np.bincount counts are added into object tallies:
    # each valency's k_integrality, trace_vs_ratio and theta_ratio kills and
    # its kept rows are those of _reference_cuts and of a naive enumeration
    # at that valency alone, and every count is a Python int
    q = 1000
    spec = _with_cuts(SearchSpec(4, 5, 12, "000+", (1, 2), Fraction(1 - 3 * q, 4 * q)),
                      ("trace_vs_ratio", "theta_ratio"))
    space, seen = _KSpace(spec, range(5, 13)), set()
    assert space.dtype is object
    for k, rows, stats in space.run():
        one = replace(spec, k_min=k, k_max=k)
        rows = [(tuple(row[:4]), tuple(row[4:])) for row in rows.tolist()]
        assert (stats.killed, rows) == _reference_cuts(one) == _naive_kills(
            _naive_space(one), WALK_CHECKS), k
        assert all(type(n) is int for n in stats.killed.values())
        seen |= set(stats.killed)
    assert seen >= {"k_integrality", "trace_vs_ratio", "theta_ratio"}


def test_completion_counts_keep_a_zero_pattern_on_int64():
    # b_i = k - c_i wherever a_i = 0, so the D = 4 main space's completion
    # counts stay far below 2^63 at k = 600, where C(604, 4)^2 would not
    assert search._dtype(D4_SPEC, 600) is np.int64


def _grid_options(spec, k, level):
    """_options at one valency from a k x (k + 1) grid of (c, b), masked by
    the level's rules: the construction that its option lists replace."""
    kind = spec.a_pattern[level - 1]
    c, b = np.arange(1, k + 1)[:, None], np.arange(k, -1, -1)
    a = k - c - b
    ok = ((a == 0) if kind == "0" else (a >= (kind == "+"))) & (
        (b == 0) if level == spec.D else (b >= 1))
    if level <= 2:
        ok &= np.any([c == x for x in ((1,) if level == 1 else spec.c2_set)], axis=0)
    i, j = np.nonzero(ok)
    return c[i, 0], b[j]


def test_options_match_the_masked_grid():
    # every a-pattern of D = 1..5, three c_2 sets and k = 2..11, the valencies
    # of one run: 49,230 (space, k, level) cases, each with the same options
    # in the same order, and the run's options in valency order
    cases = 0
    for D in range(1, 6):
        for pattern in map("".join, itertools.product("0+*", repeat=D)):
            for c2_set in ((1,), (1, 2), (2, 3, 7)):
                spec = SearchSpec(D, 2, 11, pattern, c2_set)
                space = _KSpace(spec, range(2, 12))
                for level in range(1, D + 1):
                    v, *got = space._options(level)
                    assert np.all(np.diff(v) >= 0)
                    for place, k in enumerate(range(2, 12)):
                        want = _grid_options(spec, k, level)
                        assert all(np.array_equal(x[v == place], y) and x.dtype == y.dtype
                                   for x, y in zip(got, want)), (pattern, c2_set, k, level)
                        cases += 1
    assert cases == 49230


@pytest.mark.parametrize("ratio", [Fraction(-3, 4), Fraction(-4, 5), Fraction(-1, 2)])
def test_c2_cap_in_ints_matches_c2_upper_bound(ratio):
    # the gate -k < cut < (12 - 5k)/7, and inside it c <= the cap exactly
    # where the cut is at least the least theta_min that c_2 = c allows
    caps = []
    for k in range(2, 401):
        cut = ratio * k
        caps.append(search._c2_cap(SearchSpec(4, 2, 400, "000+", (1, 2), ratio), k))
        if not -k < cut < Fraction(12 - 5 * k, 7):
            assert caps[-1] is None, k
            continue
        for c in range(1, k + 1):
            assert (c <= caps[-1]) == (cut >= Fraction(4 * c - (c + 2) * k, 3 * c - 2)), (k, c)
    assert any(cap is not None for cap in caps)
    assert (None in caps) == (ratio == Fraction(-1, 2))


@pytest.mark.parametrize("spec, bipartite", [
    (SearchSpec(2, 3, 3, "00", (1, 2, 3), Fraction(-4, 5)), "{3,2;1,3}"),  # K_{3,3}
    (SearchSpec(3, 3, 3, "000", (1, 2, 3), Fraction(-4, 5)), "{3,2,1;1,2,3}"),  # 3-cube
])
def test_c2_cap_keeps_bipartite_arrays(spec, bipartite):
    # theta_min = -k lies outside the c_2 bound's gate, so a pattern without
    # a "+" keeps c_2 above the cap where a_2 = 0, as check passes the array
    result = enumerate_arrays(spec)
    assert bipartite in map(format_array, result.survivors)
    assert full_report(parse_array(bipartite), spec.theta_ratio).overall == "pass"


# A naive enumeration apart from the level pass: itertools walks every
# monotone c and b sequence, and each array goes to the first check it fails,
# in walk order, computed on its own from Fractions, trace_of_l_squared and
# sturm_count_leq.
WALK_CHECKS = DEFAULT_CHECKS[:5]
NAIVE_SPACES = [
    SearchSpec(1, 2, 12, "*", (1,), Fraction(-2, 3)),
    SearchSpec(2, 2, 14, "0*", (1, 2, 3), Fraction(-1, 2)),
    SearchSpec(3, 2, 10, "0**", (1, 2, 3), Fraction(-2, 3)),
    SearchSpec(4, 2, 8, "**+*", (1, 2, 3), Fraction(-3, 4)),
    SearchSpec(4, 2, 8, "0***", (1, 2, 3), Fraction(-3, 4)),
    SearchSpec(5, 2, 7, "*****", (1, 2), Fraction(-4, 5)),
    SearchSpec(5, 2, 7, "0***+", (1, 2, 3), Fraction(-1, 2)),
]


def _naive_space(spec):
    """Every array of spec's space in walk order ((c_1, a_1, ..., c_D, a_D)
    increasing), each with the set of walk checks it fails."""
    out = []
    for k in range(spec.k_min, spec.k_max + 1):
        cut, arrays = spec.theta_ratio * k, []
        for cs in itertools.combinations_with_replacement(range(1, k + 1), spec.D - 1):
            for bs in itertools.combinations_with_replacement(range(k - 1, 0, -1), spec.D - 1):
                b, c = (k, *bs), (1, *cs)
                if all(b_i + c_i <= k for b_i, c_i in zip(b[1:], c)):  # a_1..a_{D-1} >= 0
                    arr = IntersectionArray(b, c)
                    arrays += [arr] if spec.contains(arr) else []
        arrays.sort(key=lambda arr: [x for pair in zip(arr.c, arr.a[1:]) for x in pair])
        for arr in arrays:
            kk, fails = Fraction(1), set()
            for b, c in zip(arr.b, arr.c):
                kk = kk * b / c
                if kk.denominator != 1:
                    fails.add("k_integrality")
            if spec.theta_ratio < Fraction(-1, 2) and arr.a[1] != 0:
                fails.add("a1_zero")
            if (spec.D > 1 and spec.a_pattern[0] == "0" and -k < cut < Fraction(12 - 5 * k, 7)
                    and (arr.a[2] != 0 or "+" in spec.a_pattern)  # theta_min > -k
                    and arr.c[1] > (2 * k - 2 * cut) / (4 - 3 * cut - k)):
                fails.add("c2_bound")
            if k * k + cut * cut > trace_of_l_squared(arr):
                fails.add("trace_vs_ratio")
            if sturm_count_leq(arr, cut) < 1:
                fails.add("theta_ratio")
            out.append((arr, fails))
    return out


@pytest.fixture(scope="module")
def naive_spaces():
    return {spec: _naive_space(spec) for spec in NAIVE_SPACES}


def _naive_kills(space, on):
    """The kills and the surviving (b, c) rows of a naive space when the
    walk checks in on are enabled."""
    killed, rows = {}, []
    for arr, fails in space:
        first = next((name for name in on if name in fails), None)
        if first:
            killed[first] = killed.get(first, 0) + 1
        else:
            rows.append((arr.b, arr.c))
    return killed, rows


def _naive_screened(killed, rows):
    """killed and rows of _naive_kills after the float screen, which takes
    each valency's rows in one _screen call and kills as
    multiplicity_integrality; a row's verdict does not depend on its batch."""
    killed, kept = dict(killed), []
    for _k, valency in itertools.groupby(rows, key=lambda row: row[0][0]):
        valency = list(valency)
        keep = search._screen(np.array([b + c for b, c in valency]))
        kept += [row for row, ok in zip(valency, keep) if ok]
        if not keep.all():
            killed["multiplicity_integrality"] = (
                killed.get("multiplicity_integrality", 0) + int((~keep).sum()))
    return killed, kept


# How the level pass takes a naive space's valencies: one run per valency;
# the whole k range as one run, in one group at every level; and the whole
# range as one run under a budget of 8 options, which every naive space
# passes at some level, so that its groups split the range there (into
# groups of up to 3 to 8 valencies).
PASSES = {"one valency": ("each", 1 << 15), "one run": ("all", 1 << 30), "split": ("all", 8)}


@pytest.mark.parametrize("off", (None,) + WALK_CHECKS)
@pytest.mark.parametrize("spec", NAIVE_SPACES, ids=lambda s: f"D{s.D}-{s.a_pattern}")
def test_level_pass_matches_a_naive_enumeration(naive_spaces, monkeypatch, spec, off):
    space = naive_spaces[spec]
    spec = replace(spec, checks=tuple(name for name in spec.checks if name != off))
    assert "multiplicity_integrality" in spec.checks
    want = (len(space), *_naive_screened(
        *_naive_kills(space, [name for name in WALK_CHECKS if name != off])))
    ks, real_groups = list(range(spec.k_min, spec.k_max + 1)), search._groups
    assert {search._dtype(spec, k) for k in ks} == {np.int64}
    for passes, (runs, budget) in PASSES.items():
        monkeypatch.setattr(search, "_PASS_ROWS", budget)
        groups = []
        monkeypatch.setattr(search, "_groups", lambda v, n: groups.append(
            len(real_groups(v, n))) or real_groups(v, n))
        killed, rows, generated, walked = {}, [], 0, []
        for run in ([[k] for k in ks] if runs == "each" else [ks]):
            for k, matrix, stats in _KSpace(spec, run).run():
                walked.append(k)
                generated += stats.generated
                rows += [(tuple(row[:spec.D]), tuple(row[spec.D:])) for row in matrix.tolist()]
                for name, n in stats.killed.items():
                    killed[name] = killed.get(name, 0) + n
        assert walked == ks
        assert (max(groups) > 1) == (passes == "split")
        assert (generated, killed, rows) == want, passes


def _dense_completions(spec, k):
    """counts[l][c, b]: the arrays below a prefix of l - 1 levels at valency
    k that ends in c_{l-1} = c, b_{l-1} = b, before any pruning, from a dense
    (k + 1) x (k + 1) table per level: the construction that the
    option-indexed counts replace."""
    counts = [np.ones((k + 1, k + 1), np.int64)]  # past the leaf
    for level in range(spec.D, 0, -1):
        c, b = _grid_options(spec, k, level)
        w = np.zeros_like(counts[0])
        w[c, b] = counts[0][c, b]
        counts.insert(0, w[::-1].cumsum(0)[::-1].cumsum(1))  # c >= c', b <= b'
    return [None] + counts


@pytest.mark.parametrize("spec", NAIVE_SPACES + [replace(SCREEN_SPACES["D5 main"][0], k_min=40)],
                         ids=lambda s: f"D{s.D}-{s.a_pattern}-k{s.k_min}..{s.k_max}")
def test_option_indexed_counts_match_dense_tables(spec):
    # below each option of every level, and at each valency, the counts of a
    # run are those of each valency's dense tables; for the D = 5 main space,
    # the valencies 40..71 as one run
    space = _KSpace(spec, range(spec.k_min, spec.k_max + 1))
    below, generated = space._completions()
    for place, k in enumerate(range(spec.k_min, spec.k_max + 1)):
        dense = _dense_completions(spec, k)
        assert generated[place] == dense[1][1, k]
        for level in range(1, spec.D + 1):
            v, c, b = space._options(level)
            mine = v == place
            assert np.array_equal(below[level - 1][mine], dense[level + 1][c[mine], b[mine]])
    assert generated.sum() > 0


def test_option_indexed_counts_cut_the_peak_at_k_1200():
    # D = 4, k = 1200 in the main pattern: the dense tables of one valency's
    # walk peaked at 80.8 MB under tracemalloc; the option-indexed counts are
    # O(k) a level, so the walk's own columns set the peak, at least four
    # times lower.  The float screen, the leaf's last cut, keeps 2 of the
    # 1,118 rows that the trace and Sturm cuts leave
    spec = replace(D4_SPEC, k_min=1200, k_max=1200)
    tracemalloc.start()
    try:
        (k, rows, stats), = _KSpace(spec, [1200]).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (k, len(rows), stats.generated) == (1200, 2, 1437601)
    assert stats.killed["multiplicity_integrality"] == 1116
    assert peak < 80.8 * 2 ** 20 / 4


def test_every_walk_check_kills_in_the_naive_spaces(naive_spaces):
    assert {name for space in naive_spaces.values()
            for name in _naive_kills(space, WALK_CHECKS)[0]} == set(WALK_CHECKS)


def test_a_kill_of_no_array_leaves_no_entry():
    # at k = 4, c_2 = 3 forces b_3 = 1 and a_3 = 0 against the pattern's
    # a_3 != 0, so no array lies below the options the a_1 prune kills
    res = enumerate_arrays(SearchSpec(5, 4, 4, "***++", (3, 4, 5), Fraction(-1)))
    assert (res.stats.generated, res.stats.killed, res.stats.survivors) == (0, {}, 0)


def test_fused_cuts_meet_a_zero_minor(intersection_matrix):
    # some candidate of the first cut space has a leading principal minor of
    # cut*I - L that vanishes, where the Sturm cut must see no sign change
    spec = replace(CUT_SPACES[0], checks=PREFIX_CHECKS)
    _killed, candidates = _space_results(spec)

    def has_zero_minor(b, c):
        arr = IntersectionArray(b, c)
        M = spec.theta_ratio * arr.k * sympy.eye(arr.D + 1) - sympy.Matrix(
            intersection_matrix(arr).tolist())
        return any(M[:i, :i].det() == 0 for i in range(1, arr.D + 2))

    assert any(has_zero_minor(b, c) for b, c in candidates)


@pytest.mark.parametrize("ratio", [Fraction(-4, 5), None])
def test_one_spectrum_per_array_on_the_exact_path(monkeypatch, ratio):
    # the exact path decides check by check: a survivor gets one full_report
    # and a killed array none, no array's spectrum is built twice, and no
    # box of an array's isolation, theta_min's lowest one included, is
    # refined twice
    spectra, reports, boxes = [], [], []
    real_spectrum, real_report, real_box = (feasibility.spectrum, search.full_report,
                                            spectral._box_root)

    def counting_spectrum(arr, roots=None):
        spectra.append(arr)
        return real_spectrum(arr, roots)

    def counting_report(arr, theta_ratio=None, checks=None):
        reports.append(arr)
        return real_report(arr, theta_ratio, checks)

    def counting_box(arr, lo, hi, n_lo):
        boxes.append((arr, lo, hi))
        return real_box(arr, lo, hi, n_lo)

    monkeypatch.setattr(feasibility, "spectrum", counting_spectrum)
    monkeypatch.setattr(search, "full_report", counting_report)
    monkeypatch.setattr(spectral, "_box_root", counting_box)
    checks = tuple(c for c in DEFAULT_CHECKS if c != "multiplicity_integrality")
    res = enumerate_arrays(SearchSpec(5, 5, 8, "000+*", (1, 2), ratio, checks))
    st = res.stats
    assert sorted(format_array(a) for a in reports) == sorted(res.reports)
    assert spectra == reports  # the survivors' reports build the only spectra
    assert len(boxes) == len(set(boxes))
    # theta_min is isolated for each array that reaches a check reading it:
    # odd_girth_inequality and trace_square kill from it alone
    assert len({arr for arr, _lo, _hi in boxes}) == (
        st.survivors + st.killed.get("odd_girth_inequality", 0) + st.killed.get("trace_square", 0))
    assert (st.killed, st.survivors) == {
        Fraction(-4, 5): ({"c2_bound": 319, "k_integrality": 301,
                           "odd_girth_inequality": 61, "theta_ratio": 241}, 10),
        None: ({"c2_bound": 86, "k_integrality": 510, "odd_girth_inequality": 84}, 252)}[ratio]
    assert st.survivors == len(res.reports) > 0
    assert all(rep.spectrum is not None for rep in res.reports.values())


@pytest.mark.parametrize("D, k_max, ratio", [(3, 6, None), (3, 8, Fraction(-3, 4)),
                                             (4, 5, None), (4, 6, Fraction(-3, 4))])
def test_no_survivor_fails_an_enabled_check(D, k_max, ratio):
    # with one check disabled in turn, every other one still holds on every
    # survivor's report, including a1_zero and c2_bound, which the walk
    # applies only under a ratio cut
    survivors = 0
    for off in DEFAULT_CHECKS:
        checks = tuple(c for c in DEFAULT_CHECKS if c != off)
        res = enumerate_arrays(SearchSpec(D, 2, k_max, "*" * D, (1, 2), ratio, checks))
        survivors += res.stats.survivors
        for text, report in res.reports.items():
            assert [c for c in checks if report.verdict(c) == FAIL] == [], (off, text)
    assert survivors > 0


def test_every_default_check_has_a_report_verdict():
    # the search reads each enabled check off the report; only the walk
    # applies trace_vs_ratio
    for _graph, text, _name in oracle.WITNESSES:
        report = full_report(parse_array(text), Fraction(-1, 2))
        assert [c for c in DEFAULT_CHECKS if report.verdict(c) is None] == ["trace_vs_ratio"]


def test_search_warns_on_inconclusive_odd_girth(monkeypatch):
    # a pass band no value can reach puts every odd-girth entry of O_5 in the
    # guard band: the array survives, and the search says why it is unsure
    monkeypatch.setattr(feasibility, "INEQ_PASS_TOL", -1e9)
    res = enumerate_arrays(SearchSpec(4, 5, 5, "000+", (1, 2), Fraction(-3, 4)))
    assert [format_array(a) for a in res.survivors] == ["{5,4,4,3;1,1,2,2}"]
    assert res.stats.warnings == ["{5,4,4,3;1,1,2,2}: odd-girth inequality inconclusive"]


def test_search_raises_when_a_spectrum_fails(monkeypatch):
    # a report without a spectrum stops the search; it never counts as a kill
    def broken(arr, roots=None):
        raise SpectralError("no spectrum")

    monkeypatch.setattr(feasibility, "spectrum", broken)
    with pytest.raises(SpectralError, match="no spectrum"):
        enumerate_arrays(SearchSpec(4, 5, 5, "000+", (1, 2), Fraction(-3, 4)))


def _report_decision(report, checks):
    """The first check of checks, in DEFAULT_CHECKS order, that the report
    fails (None if none does), and whether an odd-girth check with an
    undecided entry is reached before it."""
    warned = False
    for name in (c for c in DEFAULT_CHECKS if c in checks):
        verdict = report.verdict(name)
        if verdict == FAIL:
            return name, warned
        warned |= name == "odd_girth_inequality" and verdict == INCONCLUSIVE
    return None, warned


def _lazy_decisions_match_full_reports(monkeypatch, cases) -> set:
    """Decide each (spec, array) of cases on the exact path alone, and check
    the kill (or survival) and the odd-girth warning against the first
    failure read off the array's full_report; the decisions seen."""
    reports, seen = {}, set()
    monkeypatch.setattr(search, "_walk_group", lambda spec, spaces: iter(spaces))
    # a survivor's report is the one already read (the fixtures pin its bytes)
    monkeypatch.setattr(search, "full_report", lambda arr, ratio, checks: reports[arr, ratio])
    for spec, arr in cases:
        if (arr, spec.theta_ratio) not in reports:
            reports[arr, spec.theta_ratio] = full_report(arr, spec.theta_ratio)
        want = _report_decision(reports[arr, spec.theta_ratio], spec.checks)
        (_k, _kept, stats), = search._run_group(spec, [(arr.k, [arr], PruningStats())])
        assert (next(iter(stats.killed), None), bool(stats.warnings)) == want, (spec, arr)
        seen.add(want)
    return seen


def _exact_path_cases(specs):
    """(spec, array) for each array that the walk and the screen keep in specs."""
    return [(spec, arr) for spec in specs
            for _k, arrays, _stats in _valencies(spec) for arr in arrays]


# {4,3,3,2;1,1,2,4}: theta_min = -4 has multiplicity 1, and +-sqrt(5) and 0
# have 72/5 and 66/5, so the check reads the whole spectrum;
# {3,2,2;1,1,2}: odd_girth_inequality kills it from theta_min alone when
# the multiplicities are not checked
INTEGRAL_AT_THETA_MIN = ("{4,3,3,2;1,1,2,4}", SearchSpec(4, 2, 8, "0***", (1, 2, 3), Fraction(-3, 4)))
ODD_GIRTH_FROM_THETA_MIN = ("{3,2,2;1,1,2}", SearchSpec(
    3, 2, 10, "0**", (1, 2, 3), Fraction(-2, 3),
    tuple(c for c in DEFAULT_CHECKS if c != "multiplicity_integrality")))


def test_lazy_exact_path_matches_full_reports(monkeypatch):
    # every array that reaches the exact path in classify_diameter(4) and
    # (5), and in each naive space with each check disabled in turn
    specs, real = [], search.enumerate_arrays
    monkeypatch.setattr(search, "enumerate_arrays",
                        lambda spec, jobs=1: specs.append(spec) or real(spec, jobs))
    for D in (4, 5):
        classify_diameter(D)
    monkeypatch.setattr(search, "enumerate_arrays", real)
    cases = _exact_path_cases(specs)
    assert len(cases) == 24  # theorem2's exact path
    cases += _exact_path_cases([replace(spec, checks=tuple(c for c in DEFAULT_CHECKS if c != off))
                                for spec in NAIVE_SPACES for off in DEFAULT_CHECKS])
    cases += [(spec, parse_array(text)) for text, spec in (INTEGRAL_AT_THETA_MIN,
                                                          ODD_GIRTH_FROM_THETA_MIN)]
    seen = _lazy_decisions_match_full_reports(monkeypatch, cases)
    # a1_zero and theta_ratio, decided by the walk's exact cuts, kill no
    # array that reaches the exact path
    assert {kill for kill, _warned in seen} == {
        None, "c2_bound", "multiplicity_integrality", "odd_girth_inequality"}


def test_lazy_exact_path_warns_as_full_reports_do(monkeypatch):
    # a pass band no value can reach: every odd-girth entry is undecided
    monkeypatch.setattr(feasibility, "INEQ_PASS_TOL", -1e9)
    seen = _lazy_decisions_match_full_reports(monkeypatch, _exact_path_cases(NAIVE_SPACES[2:3]))
    assert (None, True) in seen


def test_lazy_multiplicity_check_past_an_integral_theta_min(monkeypatch):
    text, spec = INTEGRAL_AT_THETA_MIN
    arr, spectra, real = parse_array(text), [], feasibility.spectrum
    monkeypatch.setattr(feasibility, "spectrum",
                        lambda arr, roots=None: spectra.append(arr) or real(arr, roots))
    checks = feasibility.ArrayChecks(arr, spec.theta_ratio)
    theta_min, _enclosure, at = next(spectral._roots(arr))
    assert spectral.multiplicity_integral(spectral.multiplicity(arr, *at))
    assert checks.verdict("multiplicity_integrality") == FAIL and spectra == [arr]
    assert not checks.spectrum.multiplicities_integral and checks.spectrum.theta_min == theta_min


def test_odd_girth_kills_from_theta_min_alone(monkeypatch):
    def no_spectrum(arr, roots=None):
        raise AssertionError("the whole spectrum was built")

    text, spec = ODD_GIRTH_FROM_THETA_MIN
    monkeypatch.setattr(feasibility, "spectrum", no_spectrum)
    arr = parse_array(text)
    monkeypatch.setattr(search, "_walk_group", lambda spec, spaces: iter(spaces))
    (_k, kept, stats), = search._run_group(spec, [(arr.k, [arr], PruningStats())])
    assert (kept, stats.killed) == ([], {"odd_girth_inequality": 1})


def test_the_girth_5_bound_meets_the_enumerator(monkeypatch):
    # the odd-girth bound against the classification's machinery: on the
    # g = 5 branch (D = 3, a_1 = 0, a_2 != 0, c_2 = 1 <= zeta* k from k = 13)
    # no array has theta_min <= ratio k for a rational ratio just below
    # -(1 - epsilon1(5)), and the odd-girth check does the work, from
    # theta_min alone: no spectrum is built
    def no_spectrum(arr, roots=None):
        raise AssertionError("the whole spectrum was built")

    monkeypatch.setattr(feasibility, "spectrum", no_spectrum)
    branch = bound.epsilon1(5)
    assert 12 < 1 / branch.zeta < 13
    ratio = Fraction(math.floor(branch.theta_over_k * 10**6), 10**6)
    assert float(ratio) < branch.theta_over_k < float(ratio) + 1e-6
    res = enumerate_arrays(SearchSpec(3, 13, 60, "0+*", (1,), ratio,
                                      ("k_integrality", "theta_ratio", "odd_girth_inequality")))
    assert res.stats.survivors == 0 and res.stats.killed["odd_girth_inequality"] > 0


def test_the_bound_at_each_arrays_own_zeta():
    # seeded arrays on the bound's branch (D = t, a_i = 0 below t, c_t <= k/2)
    # that pass the odd-girth inequality at eta_{t-1}: theta_min >= -(1 -
    # epsilon1(g, zeta = c_t/k)) k wherever epsilon1 has a root, decided exactly
    # at a rational at or below the bound; c_t is drawn twice, toward small
    # zeta, where epsilon1 has one
    rng, bounds, checked = random.Random(3401), {}, 0
    for _ in range(1000):
        g = rng.choice((5, 7, 9, 11))
        t, k = (g - 1) // 2, rng.randint(3, 400)
        top = rng.randint(1, rng.randint(1, k // 2))
        c = [1] + sorted(rng.randint(1, top) for _ in range(t - 2)) + [top]
        arr = IntersectionArray(tuple([k] + [k - x for x in c[:-1]]), tuple(c))
        theta_min = feasibility.ArrayChecks(arr).theta_min
        entry = feasibility.check_odd_girth_inequality(arr, theta_min)[t - 1]
        if entry.verdict != feasibility.PASS:
            continue
        zeta = Fraction(top, k)
        if (g, zeta) not in bounds:
            bounds[g, zeta] = bound.epsilon1(g, bound.MODE_GENERAL, zeta).theta_over_k
        if bounds[g, zeta] is not None:
            with spectral.workdps():
                x = Fraction(int(mpmath.mp.floor(bounds[g, zeta] * k * 2**64)), 2**64)
            assert spectral.theta_min_cmp(arr, x) >= 0, format_array(arr)
            checked += 1
    assert checked >= 200


def test_survivors_pass_full_report(d4_result):
    for arr in d4_result.survivors:
        rep = d4_result.reports[format_array(arr)]
        assert rep.overall == "pass"


def test_widening_ratio_gives_superset(d4_result):
    wide = enumerate_arrays(SearchSpec(4, 5, 35, "000+", (1, 2), Fraction(-7, 10)))
    names = {format_array(a) for a in wide.survivors}
    assert {format_array(a) for a in d4_result.survivors} <= names


def test_parallel_matches_serial(d4_result, monkeypatch):
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)  # the space forks a child
    children = _recorded_children(monkeypatch)
    par = enumerate_arrays(D4_SPEC, jobs=2)
    assert len(children) == 1
    assert par.survivors == d4_result.survivors
    assert par.stats.generated == d4_result.stats.generated
    assert par.stats.killed == d4_result.stats.killed


def test_jobs_change_no_output_or_its_order(monkeypatch):
    # every odd-girth entry inconclusive: warnings at k = 4..12, in two runs
    # of valencies, which the processes claim largest first and hold out of
    # valency order; the merge restores it for the survivors, the kills and
    # the warnings.  The space is far below _FORK_ARRAYS: patched, it forks
    monkeypatch.setattr(feasibility, "INEQ_PASS_TOL", -1e9)
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)
    children = _recorded_children(monkeypatch)
    spec = SearchSpec(3, 3, 12, "***", (1, 2), None)
    assert search._shares(spec, range(3, 13)) == [[11, 12], [*range(3, 11)]]
    serial = enumerate_arrays(spec)
    assert {int(w[1:w.index(",")]) for w in serial.stats.warnings} == {*range(4, 13)}
    for jobs in (2, 3):
        children.clear()
        par = enumerate_arrays(spec, jobs=jobs)
        assert len(children) == 1
        assert par.survivors == serial.survivors and list(par.reports) == list(serial.reports)
        assert list(par.stats.killed.items()) == list(serial.stats.killed.items())
        assert par.stats.warnings == serial.stats.warnings


def _recorded_children(monkeypatch):
    """Every child process that enumerate_arrays starts, in start order; the
    children are real processes."""
    children = []

    class Recorded(multiprocessing.Process):
        def start(self):
            children.append(self)
            super().start()

    monkeypatch.setattr(search.multiprocessing, "Process", Recorded)
    return children


def _walks(monkeypatch, tmp_path):
    """Patch _run_group, before any fork, so that every process logs each
    valency of each run that it walks.  The function returned reads and
    clears the log: the count of each (space, k) walked, the spaces in the
    caller's order, and the ids of the processes that walked them."""
    log, run, caller, spaces = tmp_path / "walked", search._run_group, os.getpid(), []

    def patched(spec, runs):
        if os.getpid() == caller:
            spaces.append(spec)

        def logged():
            for space in runs:
                with open(log, "a") as fh:
                    fh.writelines(f"{os.getpid()}\t{spec!r}\t{k}\n" for k in space.k.tolist())
                yield space
        return run(spec, logged())

    def read():
        lines = [line.split("\t") for line in log.read_text().splitlines()]
        log.unlink()
        out = Counter((spec, int(k)) for _pid, spec, k in lines), list(spaces)
        spaces.clear()
        return (*out, {int(pid) for pid, _spec, _k in lines})
    monkeypatch.setattr(search, "_run_group", patched)
    return read


def _each_valency_once(walks, children):
    """Each valency of each space enumerated since the last call was walked
    exactly once, by the caller or by one of its children."""
    walked, spaces, pids = walks()
    assert walked == Counter((repr(s), k) for s in spaces for k in range(s.k_min, s.k_max + 1))
    assert pids <= {os.getpid()} | {child.pid for child in children}


def test_no_more_children_than_valencies(monkeypatch, tmp_path):
    # a one-valency space forks no child, a space of fewer than _FORK_ARRAYS
    # arrays none either, and any other space cut into n runs of up to 8
    # valencies forks min(jobs, n) - 1, the caller claiming runs too: here k
    # in [5, 30] makes four runs, 8,541 arrays in all, which fork once the
    # crossover is patched below them; in classify_diameter(5, jobs=2) only
    # the main space (2,117,200 arrays) forks, one child, while the a_4
    # space (261,076) and the k <= 4 and a_3 spaces stay in process.
    # However the claims fall, every valency is walked once across the
    # processes
    children, walks = _recorded_children(monkeypatch), _walks(monkeypatch, tmp_path)
    enumerate_arrays(SearchSpec(5, 5, 5, "000+*", (1, 2), Fraction(-4, 5)), jobs=2)
    assert children == []
    _each_valency_once(walks, children)
    spec = SearchSpec(4, 5, 30, "000+", (1, 2), Fraction(-3, 4))
    assert search._shares(spec, range(5, 31)) == [[29, 30], [*range(21, 29)],
                                                   [*range(13, 21)], [*range(5, 13)]]
    assert enumerate_arrays(spec).stats.generated == 8_541 < search._FORK_ARRAYS
    _each_valency_once(walks, children)
    enumerate_arrays(spec, jobs=8)
    assert children == []
    _each_valency_once(walks, children)
    with monkeypatch.context() as patch:
        patch.setattr(search, "_FORK_ARRAYS", 8_541)
        enumerate_arrays(spec, jobs=8)
    assert len(children) == min(8, 4) - 1
    _each_valency_once(walks, children)
    children.clear()
    classify_diameter(5, jobs=2)
    assert len(children) == 1
    _each_valency_once(walks, children)
    assert multiprocessing.active_children() == []


def test_a_space_walked_in_process_is_built_once(monkeypatch):
    # at jobs = 2 the D = 4 main space (13,671 arrays) stays in process: its
    # largest share, k = 29..35, and the valencies below it, 5..28, are
    # counted as two _KSpace runs, and the walk takes those two, building
    # none again; at jobs = 1 its one dtype run is one _KSpace.  The output
    # is the same
    built, children = [], _recorded_children(monkeypatch)

    class Counted(_KSpace):
        def __init__(self, spec, ks):
            built.append(list(ks))
            super().__init__(spec, ks)

    monkeypatch.setattr(search, "_KSpace", Counted)
    serial = enumerate_arrays(D4_SPEC)
    assert built == [list(range(5, 36))]
    built.clear()
    par = enumerate_arrays(D4_SPEC, jobs=2)
    assert built == [list(range(29, 36)), list(range(5, 29))] and children == []
    assert (par.survivors, par.stats) == (serial.survivors, serial.stats)


# two runs: 13..16, 5..12; far below _FORK_ARRAYS, so each test that forks for
# it patches the crossover to 0
SMALL_SPEC = SearchSpec(4, 5, 16, "000+", (1, 2), Fraction(-3, 4))


@pytest.fixture
def no_hang():
    """Fails a test that runs past 60 s instead of letting it hang."""
    def expire(*_):
        raise TimeoutError("enumerate_arrays hung")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _failing_valency(monkeypatch, k, fail):
    """Patch _run_group, before any fork, so that a child calls fail() when
    it claims the run of valency k; every other run goes as usual.  The
    caller claims nothing until then, so a child claims k whatever the
    timing."""
    run, caller, reached = search._run_group, os.getpid(), multiprocessing.Event()

    def patched(spec, runs):
        def claims():
            if os.getpid() == caller:
                reached.wait(50)
            for space in runs:
                if os.getpid() != caller and k in space.k:
                    reached.set()
                    fail()
                yield space
        return run(spec, claims())
    monkeypatch.setattr(search, "_run_group", patched)


def test_a_childs_exception_is_raised_in_the_caller(monkeypatch, no_hang):
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)
    def fail():
        raise SearchSpecError("share from k = 6")
    _failing_valency(monkeypatch, 6, fail)
    with pytest.raises(SearchSpecError, match=r"^share from k = 6$"):
        enumerate_arrays(SMALL_SPEC, jobs=2)
    assert multiprocessing.active_children() == []


def test_an_exception_in_the_callers_share_terminates_the_child(monkeypatch, no_hang):
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)
    # the child sleeps far past the test's alarm: only terminate ends it,
    # and the caller's exception comes through unchanged
    children, caller, run = _recorded_children(monkeypatch), os.getpid(), search._run_group

    def patched(spec, runs):
        if os.getpid() == caller:
            raise ZeroDivisionError("the caller's share")
        time.sleep(600)
        return run(spec, runs)
    monkeypatch.setattr(search, "_run_group", patched)
    with pytest.raises(ZeroDivisionError, match="the caller's share"):
        enumerate_arrays(SMALL_SPEC, jobs=2)
    assert len(children) == 1 and children[0].exitcode == -signal.SIGTERM
    assert multiprocessing.active_children() == []


def test_a_child_that_exits_without_sending_raises(monkeypatch, no_hang):
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)
    _failing_valency(monkeypatch, 6, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
        enumerate_arrays(SMALL_SPEC, jobs=2)
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_holding_the_claim_lock_raises(monkeypatch, no_hang):
    monkeypatch.setattr(search, "_FORK_ARRAYS", 0)
    # the child exits inside a claim, so the counter's lock is never
    # released; the caller, whose next claim waits for the lock, finds the
    # child gone within the alarm instead of waiting for ever
    claims, caller, held = search._claims, os.getpid(), multiprocessing.Event()

    def patched(runs, counter, *args):
        if os.getpid() != caller:
            counter.get_lock().acquire()
            held.set()
            os._exit(3)
        held.wait(50)
        return claims(runs, counter, *args)
    monkeypatch.setattr(search, "_claims", patched)
    with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
        enumerate_arrays(SMALL_SPEC, jobs=2)
    assert multiprocessing.active_children() == []


def test_a_valency_space_is_freed_when_run_returns():
    # no reference cycle holds a space: run keeps its count table in locals,
    # and no closure over it may hold self.  With the cyclic collector off,
    # dropping the last reference frees it
    gc.disable()
    try:
        space = _KSpace(D4_SPEC, range(20, 23))
        ref = weakref.ref(space)
        assert all(stats.generated for _k, _rows, stats in space.run())
        del space
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("budget", [0, 1 << 16], ids=["one valency", "runs"])
def test_pass_grouping_changes_no_output(classified, monkeypatch, budget):
    # one valency per group at every level, and a budget 4 times the
    # default, which still cuts the D = 5 main space's leaf level into at
    # least three groups, several of them runs of valencies: the same
    # arrays, stage lines, stats and warnings
    monkeypatch.setattr(search, "_PASS_ROWS", budget)
    groups = []

    def spy(leaf, self, at, live, held, tree, kills):
        groups.append((self.spec.a_pattern, len(set(live[0].tolist()))))
        return leaf(self, at, live, held, tree, kills)

    walked = _spy_leaf(monkeypatch, spy)
    for D in (4, 5):
        again, before = classify_diameter(D), classified[D]
        assert again.arrays == before.arrays and again.discrepancies == before.discrepancies
        assert [(s.name, s.lines, s.stats) for s in again.stages] == [
            (s.name, s.lines, s.stats) for s in before.stages]
    assert len(groups) == walked[0] > 0
    main = [n for pattern, n in groups if pattern == "0000+"]
    assert max(n for _pattern, n in groups) == 1 if budget == 0 else (
        len(main) >= 3 and max(main) > 1)


def test_jobs_do_not_change_the_classification(classified):
    par, serial = classify_diameter(4, jobs=2), classified[4]
    assert par.arrays == serial.arrays and par.discrepancies == serial.discrepancies == ()
    assert [(s.name, s.lines, s.stats) for s in par.stages] == [
        (s.name, s.lines, s.stats) for s in serial.stages]


def test_exclusion_branch_d4_a3(consistent):
    res = enumerate_arrays(SearchSpec(4, 5, 8, "00+*", (2,), Fraction(-3, 4)))
    assert res.survivors == ()
    assert consistent(res.stats)


def test_valency_cap_d4():
    cap = valency_cap(4)
    assert cap.k_max == 35 and cap.anchor == 36
    assert cap.step("u1_lower").published == Fraction(7500, 10**4)
    assert cap.step("u2_lower").published == Fraction(5500, 10**4)
    assert cap.step("u3_lower").published == Fraction(3926, 10**4)
    assert cap.step("c4_over_k_lower").published == Fraction(2227, 10**4)
    assert cap.step("multiplicity_bound").raw == Fraction(305675000000, 8581452763)  # < 36


def test_valency_cap_d5_main():
    cap = valency_cap(5, branch="main")
    assert cap.k_max == 71 and cap.anchor == 71
    assert cap.step("u2_lower").published == Fraction(6348, 10**4)
    assert cap.step("u3_lower").published == Fraction(4994, 10**4)
    assert cap.step("c3_over_k_upper").published == Fraction(2166, 10**4)
    assert cap.step("u4_lower").published == Fraction(3344, 10**4)
    assert cap.step("c5_over_k_lower").published == Fraction(1440, 10**4)
    assert cap.step("multiplicity_bound").raw == Fraction(5078125, 71478)  # in [71, 72)


def test_valency_cap_d5_a4_branch():
    cap = valency_cap(5, branch="a4")
    assert cap.k_max == 24
    assert cap.step("low_c3_cap").published == 24
    assert cap.step("u2_lower").published == Fraction(6243, 10**4)
    assert cap.step("u3_lower").published == Fraction(4721, 10**4)
    assert cap.step("multiplicity_bound").raw == Fraction(4900000000, 200590569)  # < 25


@pytest.mark.parametrize("D, branch", [(4, "main"), (5, "a4"), (5, "main")])
def test_valency_cap_bound_is_multiplicity_upper_bound_of_its_steps(D, branch):
    # the published u_i and the step before the bound give its tail:
    # (k_j + ... + k_D) / k_j <= 1 + 1/(c_D/k) or, on the a4 branch, 1 + x + x^2
    cap = valency_cap(D, branch)
    j = 3 if branch == "a4" else D - 1
    u = [1] + [cap.step(f"u{i}_lower").published for i in range(1, j + 1)]
    x = (1 - Fraction(3750, 10000)) / Fraction(3750, 10000)
    tail = (1 + x + x * x if branch == "a4"
            else 1 + 1 / cap.step(f"c{D}_over_k_lower").published)
    step = cap.step("multiplicity_bound")
    assert step.raw == spectral.multiplicity_upper_bound(u, tail)
    assert step.published >= step.raw > step.published - Fraction(1, 10**4)
    assert cap.k_max == max(cap.anchor - 1, math.floor(step.raw),
                            *(s.raw for s in cap.steps if s.name == "low_c3_cap"))


def test_valency_cap_rejects_unknown_branch():
    with pytest.raises(CapDerivationError):
        valency_cap(3)


def test_pentagon_exclusion_caps():
    assert pentagon_exclusion_cap(Fraction(-3, 4)) == 2
    assert pentagon_exclusion_cap(Fraction(-4, 5)) == 2
    # below the golden-ratio slope there is no cap
    assert pentagon_exclusion_cap(Fraction(-3, 5)) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_floor4_ceil4_round_the_safe_way(sign):
    step, eps = Fraction(1, 10**4), Fraction(1, 2**64)
    edge = sign * Fraction(2227, 10**4)  # exactly on a 4-decimal boundary
    for x in (edge - eps, edge, edge + eps):
        lo, hi = _floor4(x), _ceil4(x)
        assert lo <= x <= hi and hi - lo <= step
        assert (lo * 10**4).denominator == (hi * 10**4).denominator == 1
        assert lo * 10**4 == math.floor(x * 10**4) and hi * 10**4 == math.ceil(x * 10**4)
    assert _floor4(edge) == _ceil4(edge) == edge
    assert _floor4(edge - eps) == edge - step and _ceil4(edge - eps) == edge
    assert _floor4(edge + eps) == edge and _ceil4(edge + eps) == edge + step


GOLDEN_CUT = (sympy.sqrt(5) - 1) / 2  # rho (sqrt(5) + 1) <= 2 exactly below it


@pytest.mark.parametrize("ratio", [
    *(Fraction(-n, 100) for n in range(62, 101)),
    *(Fraction(-n, 10**4) for n in (6181, 6190, 6200, 7071, 9999)),
    # Fibonacci ratios F_n / F_{n+1} straddle (sqrt(5) - 1)/2 ever closer
    *(-Fraction(a, b) for a, b in ((55, 89), (89, 144), (144, 233), (233, 377),
                                   (514229, 832040), (832040, 1346269)))])
def test_pentagon_cap_matches_sympy_floor(ratio):
    rho = sympy.Rational(-ratio.numerator, ratio.denominator)
    got = pentagon_exclusion_cap(ratio)
    if rho <= GOLDEN_CUT:
        assert got is None
    else:
        exact = (sympy.sqrt(5) - 1) / (rho * (sympy.sqrt(5) + 1) - 2)
        assert got == sympy.floor(exact)


@pytest.mark.parametrize("n", [2, 5, 194])
def test_pentagon_cap_just_above_an_integer(n):
    # the cap is n exactly at rho_n = (2n + sqrt(5) - 1)/(n (sqrt(5) + 1)) and
    # falls as rho grows: just below rho_n the bound lies a hair above n, so
    # only an upper bound on sqrt(5)'s term keeps the floor at n
    rho_n = (2 * n + sympy.sqrt(5) - 1) / (n * (sympy.sqrt(5) + 1))
    rho = Fraction(int(sympy.floor(rho_n * 2**200)), 2**200)
    assert pentagon_exclusion_cap(-rho) == n


def test_cap_steps_are_rational_bounds_on_their_safe_side():
    for D, branch in ((4, "main"), (5, "a4"), (5, "main")):
        for step in valency_cap(D, branch).steps:
            assert type(step.raw) in (Fraction, int), (D, branch, step.name)
    s5, d4 = valency_cap(5), valency_cap(4)
    u3 = sympy.Rational(s5.step("u3_lower").published)
    exact = {  # sympy's values of the three steps that take a square root
        (d4, "c4_over_k_lower"): (36 - sympy.sqrt(36**2 - 27**2 + 6 * 36)) / 36,
        (s5, "c5_over_k_lower"): (142 - sympy.sqrt(
            4 * 71**2 - sympy.Rational(4 * 71, 5) ** 2 + 6 * 71)) / 71,
        (s5, "c3_over_k_upper"): 2 / (1 + sympy.sqrt(4 * 71 * u3 * u3 - 3))}
    for (cap, name), value in exact.items():
        gap = value - sympy.Rational(cap.step(name).raw)
        if name.endswith("_upper"):
            gap = -gap
        assert 0 <= gap < sympy.Rational(1, 2**60), name


def test_pentagon_cap_agrees_with_scan():
    # same question asked numerically on the u-chain at eta = 2cos(2pi/5):
    # F / B_2 = sum p_i u_i with B_2 = k (k - c_1)
    eta = 2 * math.cos(2 * math.pi / 5)
    p = [1.0, eta, eta * eta - 2]
    feasible = []
    for k in range(3, 60):
        th = float(Fraction(-3, 4) * k)
        F = _eta_poly(k, p, (1,))
        if sum(f * th ** i for i, f in enumerate(F)) / (k * (k - 1)) >= -1e-12:
            feasible.append(k)
    assert max(feasible, default=None) == 2 or feasible == []


def test_eta2_exclusion_caps():
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-3, 4), (1,)) == 4
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-3, 4), (2,)) == 8
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-4, 5), (1,)) == 3
    assert eta_exclusion_cap(3, (1, 2, 2, 2), Fraction(-4, 5), (2,)) == 5


def test_eta2_cap_boundary_is_exact(poly_eval_frac):
    # at k = 8, c_2 = 2, theta = -6 the value is exactly zero; float grids
    # would wobble here, the exact path must include it
    F = _eta_poly(8, (1, 2, 2, 2), (1, 2))
    assert poly_eval_frac(F, Fraction(-6)) == 0
    assert eta_feasible(8, 3, (1, 2, 2, 2), Fraction(-3, 4), (2,))


# The five eta_exclusion_cap calls of classify_diameter(4) and (5), each with
# its exact set of feasible k in [3, 300].
A4_ETA_CALL = (4, (1, -1, -1, 2, -1), Fraction(-4, 5), (1, 2), Fraction(3750, 10000))
ETA_CALLS = [
    (A4_ETA_CALL, set(range(3, 21)) | {22, 24}),
    ((3, (1, 2, 2, 2), Fraction(-3, 4), (1,)), {3, 4}),
    ((3, (1, 2, 2, 2), Fraction(-3, 4), (2,)), set(range(3, 9))),
    ((3, (1, 2, 2, 2), Fraction(-4, 5), (1,)), {3}),
    ((3, (1, 2, 2, 2), Fraction(-4, 5), (2,)), {3, 4, 5}),
]


def _feasible_k(args):
    return {k for k in range(3, 301) if eta_feasible(k, *args)}


@pytest.mark.parametrize("args, expected", ETA_CALLS)
def test_eta_exclusion_feasible_sets_exact(args, expected):
    assert _feasible_k(args) == expected
    assert eta_exclusion_cap(*args) == max(expected)


# eta_scan_end of each of ETA_CALLS, in order
ETA_SCAN_ENDS = [24, 4, 8, 3, 5]


@pytest.mark.parametrize("args, expected, k0", [
    (args, expected, k0) for (args, expected), k0 in zip(ETA_CALLS, ETA_SCAN_ENDS)])
def test_eta_scan_end_is_past_every_feasible_k(args, expected, k0):
    # the proven scan end against a scan past it: nothing feasible in (K_0, 1000]
    assert eta_scan_end(*args) == k0 >= max(expected)
    assert not any(eta_feasible(k, *args) for k in range(k0 + 1, 1001))


def test_eta_scan_end_refuses_a_case_that_does_not_end_negative():
    # p = (1, 0, 0, 0): F = k (k - 1)(k - c_2) > 0, so G's coefficients are
    # positive for every k and no K_0 follows
    args = (3, (1, 0, 0, 0), Fraction(-3, 4), (1,))
    with pytest.raises(CapDerivationError, match="c_2 = 1"):
        eta_scan_end(*args)
    with pytest.raises(CapDerivationError):
        eta_exclusion_cap(*args)


def _taylor_shift(g, K):
    """Coefficients of g(K + y) in y, by the binomial theorem."""
    return [sum(math.comb(i, j) * K ** (i - j) * a for i, a in enumerate(g) if i >= j)
            for j in range(len(g))]


def _through(values):
    """The polynomial of degree < len(values) through (m, values[m]), by Lagrange's form."""
    n = len(values)
    return lambda x: sum(v * math.prod(Fraction(x - j, i - j) for j in range(n) if j != i)
                         for i, v in enumerate(values))


def _settled(f, n, M):
    """_negative_from's criterion at M for f of degree < n: f(M) < 0 and none of
    its forward differences at M, each an alternating sum of f's values, is positive."""
    d = [sum((-1) ** (j - i) * math.comb(j, i) * f(M + i) for i in range(j + 1))
         for j in range(n)]
    return d[0] < 0 and max(d[1:], default=0) <= 0


@pytest.mark.parametrize("values, least", [
    ([5, 8, 9], 6),            # -(x - 5)(x + 1): g(5) = 0, so one past the root
    ([-9, -4, -1], 4),         # -(x - 3)^2: a double root, g(3) = 0
    ([10, 9, 2, -17], 3),      # 10 - x^3: 3^3 > 10 > 2^3
    ([-100, -91, -84], 5),     # -100 + 10x - x^2: negative everywhere, rising below 5
    ([-7], 0), ([-7, -8, -9, -10], 0),  # -7, and -7 - x given as a cubic
    ([1, 3], None),            # 1 + 2x
    ([-3, -2, 1], None),       # -3 + x^2
    ([0, 0], None), ([], None),
])
def test_negative_from_on_hand_made_polynomials(values, least):
    assert _negative_from(values) == least
    if least is not None:
        g, n = _through(values), len(values)
        assert all(g(m) < 0 for m in range(least, least + 201))
        assert _settled(g, n, least) and not any(_settled(g, n, M) for M in range(least))


def test_negative_from_against_brute_force():
    # seeded integer polynomials of degree <= 6: None exactly where the leading
    # coefficient is not negative; else g < 0 on [M, M + 200], M is the least
    # point of the difference criterion, and M - 1 is at most the least Taylor
    # shift K with no positive coefficient, the scan end this criterion replaced
    rng = random.Random(34)
    for n in range(1, 8):
        for _ in range(60):
            coeffs = [rng.randint(-50, 50) for _ in range(n)]

            def g(x):
                return sum(a * x ** i for i, a in enumerate(coeffs))
            M = _negative_from([g(m) for m in range(n)])
            if next((a for a in reversed(coeffs) if a), 0) >= 0:
                assert M is None
                continue
            assert all(g(m) < 0 for m in range(M, M + 201))
            assert _settled(g, n, M) and not any(_settled(g, n, m) for m in range(M))
            K = next(K for K in itertools.count() if max(_taylor_shift(coeffs, K)) <= 0)
            assert M - 1 <= K


def test_eta_caps_try_no_valency_past_their_scan_ends(monkeypatch):
    # classify_diameter(4) and (5) decide at most K_0 - 3 + 1 valencies
    # in each of their five eta caps: a fixed scan end would decide hundreds
    calls, ends = [], []
    real_feasible, real_end = search.eta_feasible, search.eta_scan_end
    monkeypatch.setattr(search, "eta_feasible", lambda k, *a: calls.append(k)
                        or real_feasible(k, *a))
    monkeypatch.setattr(search, "eta_scan_end", lambda *a: ends.append(real_end(*a))
                        or ends[-1])
    classify_diameter(4)
    classify_diameter(5)
    assert sorted(ends) == sorted(ETA_SCAN_ENDS)
    assert len(calls) <= sum(k0 - 3 + 1 for k0 in ends)


def _eta_poly_by_w_recurrence(k, p_values, cs):
    """F by w_i = B_i u_i, w_{i+1} = theta w_i - c_i b_{i-1} w_{i-1} (b_0 = k),
    with the B_i folded in step by step."""
    F, w_prev, w, b_prev = [k * p_values[0], p_values[1]], [1], [0, 1], k
    for c, p in zip(cs, p_values[2:]):
        nxt = [x - c * b_prev * y for x, y in zip([0] + w, w_prev + [0, 0])]
        F = [(k - c) * f + p * x for f, x in zip(F + [0], nxt)]
        w_prev, w, b_prev = w, nxt, k - c
    return F


@pytest.mark.parametrize("args", [args for args, _feasible in ETA_CALLS])
def test_eta_poly_matches_the_w_recurrence_on_the_cap_calls(args):
    t, p_values, _ratio, c2_values = args[:4]
    for k in range(3, 61):
        for c2 in (c for c in c2_values if c < k):
            for c3 in range(c2, k) if t == 4 else (c2,):
                cs = (1, c2, c3)[:t - 1]
                assert _eta_poly(k, p_values, cs) == _eta_poly_by_w_recurrence(
                    k, p_values, cs), (k, cs)


def test_eta_poly_matches_the_w_recurrence_on_random_inputs():
    rng = random.Random(909)
    for _ in range(300):
        t, k = rng.randint(1, 7), rng.randint(2, 40)
        cs = [1]
        while len(cs) < t - 1:
            cs.append(rng.randint(cs[-1], k - 1))
        p_values = [rng.randint(-5, 5) for _ in range(t + 1)]
        cs = tuple(cs[:t - 1])
        assert _eta_poly(k, p_values, cs) == _eta_poly_by_w_recurrence(k, p_values, cs)


@pytest.mark.parametrize("p_values, c3_cap", [
    ((1, -1, -1, 2, -1), Fraction(3750, 10000)),
    ((1, -1, -1, 2, -1), None),
    ((1, 2, 2, 2, 1), Fraction(1, 2)),
    ((1, 2, 2, 2, 1), None),
])
def test_eta_c3_endpoints_match_every_c3(p_values, c3_cap):
    # the sum is monotone in c_3, so trying only c_3 in {c_2, top} must
    # decide every k exactly as trying each integer c_3 does
    ratio = Fraction(-4, 5)
    for k in range(3, 41):
        top = k - 1 if c3_cap is None else min(k - 1, int(c3_cap * k))
        brute = any(
            _nonnegative_below_cut(_eta_poly(k, p_values, (1, c2, c3)), k, ratio * k)
            for c2 in (1, 2) if c2 < k for c3 in range(c2, top + 1))
        assert eta_feasible(k, 4, p_values, ratio, (1, 2), c3_cap) == brute, k


def test_eta_cap_sees_a_peak_between_grid_nodes(poly_eval_frac):
    # F = 90 p_0 + 9 p_1 theta + p_2 (theta^2 - 10) on (-10, -15/2] is
    # negative at both ends and at every node of a 32-point grid, and
    # positive only near theta = -369/46, between two adjacent nodes
    k, ratio, p = 10, Fraction(-3, 4), (-19, -41, -23)
    F = _eta_poly(k, p, (1,))
    assert F == [90 * -19 + 10 * 23, 9 * -41, -23]
    cut = ratio * k
    nodes = [cut + (-k - cut) * Fraction(i, 32) for i in range(33)]
    assert all(poly_eval_frac(F, th) < 0 for th in nodes)
    peak = Fraction(-369, 46)
    assert nodes[7] < peak < nodes[6] and poly_eval_frac(F, peak) > 0
    assert eta_feasible(k, 2, p, ratio, (1,))


@pytest.mark.parametrize("G, has_root", [
    ([6, 5, 1], False),          # (x + 2)(x + 3): no sign change
    ([2, -3, 1], True),          # (x - 1)(x - 2)
    ([2, -2, 1], False),         # two sign changes, complex roots
    ([2, 0, -1, 1], False),      # (x + 1)(x^2 - 2x + 2)
    ([1, -2, 1], True),          # double root at 1
    ([-1, 3, -3, 1], True),      # triple root at 1
    ([4, -4, 1, 0], True),       # (x - 2)^2 with a zero leading coefficient
])
def test_positive_root_decision(G, has_root):
    assert _has_positive_root(G) is has_root


def test_diameter_one_spaces_hold_only_complete_graphs(consistent):
    # level 1 is the leaf: c_1 = 1 only, so {k; 1} is the one array per k
    res = enumerate_arrays(SearchSpec(1, 2, 6, "+", (1, 2), None))
    assert [format_array(a) for a in res.survivors] == [f"{{{k};1}}" for k in range(2, 7)]
    assert res.stats.generated == 5 and consistent(res.stats)
    res = enumerate_arrays(SearchSpec(1, 2, 6, "*", (1, 2), Fraction(-1, 2)))
    assert [format_array(a) for a in res.survivors] == ["{2;1}"]
    assert res.stats.killed == {"trace_vs_ratio": 4} and res.stats.generated == 5


def test_enumeration_without_integrality_passes_zero_eigenvalue(consistent):
    # {6,5,5,4,2;1,1,2,2,3} has eigenvalues 6, 0 and four irrational ones;
    # its spectrum must come out exactly when the screen does not kill it
    checks = tuple(c for c in DEFAULT_CHECKS if c != "multiplicity_integrality")
    res = enumerate_arrays(SearchSpec(5, 5, 6, "000+*", (1, 2), None, checks))
    assert consistent(res.stats)
    assert "{6,5,5,4,2;1,1,2,2,3}" in [format_array(a) for a in res.survivors]


@pytest.fixture(scope="module")
def classified():
    return {D: classify_diameter(D) for D in (4, 5)}


# The k <= 4 stage enumerates every a-pattern with c_2 <= 4: its kills, the
# bipartite arrays it sets aside and the witnesses it keeps.
SMALL_VALENCY = {
    4: ({"generated": 140, "killed": {"a1_zero": 63, "bipartite": 7, "k_integrality": 15,
                                      "multiplicity_integrality": 25, "theta_ratio": 28},
         "survivors": 2, "warnings": []},
        ["{3,2,2,1;1,1,1,2}  (Coxeter graph)", "{2,1,1,1;1,1,1,1}  (9-gon)"]),
    5: ({"generated": 280, "killed": {"a1_zero": 114, "bipartite": 3, "k_integrality": 45,
                                      "multiplicity_integrality": 44, "theta_ratio": 73},
         "survivors": 1, "warnings": []},
        ["{2,1,1,1,1;1,1,1,1,1}  (11-gon)"]),
}


def test_small_valency_catalog(classified):
    for D, (stats, lines) in SMALL_VALENCY.items():
        stage = classified[D].stages[0]
        assert stage.name == "small-valency catalog (k <= 4)"
        assert stage.stats.to_json_dict() == stats
        assert list(stage.lines) == lines
        assert [format_array(a) for a in stage.arrays] == [ln.split()[0] for ln in lines]


def test_coxeter_meets_gate():
    tmin = eigenvalues(parse_array("{3,2,2,1;1,1,1,2}"))[-1]
    assert float(tmin) == pytest.approx(-1 - math.sqrt(2), abs=1e-12)
    assert float(tmin) <= -9 / 4


def test_classify_diameter_4(classified):
    result = classified[4]
    assert result.discrepancies == ()
    assert [format_array(a) for a in result.arrays] == [
        "{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}",
        "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
    names = [s.name for s in result.stages]
    assert names[0].startswith("small-valency")
    assert any("main enumeration" in n for n in names)


def test_enumerating_stages_carry_consistent_stats(classified, consistent):
    for result in classified.values():
        for stage in result.stages:
            runs = [ln for ln in stage.lines if ln.startswith("enumeration")]
            first = stage is result.stages[0]  # it names its arrays instead of counting
            assert (stage.stats is not None) == (bool(runs) or first), stage.name
            if stage.stats is not None:
                assert consistent(stage.stats), stage.name
                assert stage.stats.generated > 0, stage.name
                reported = len(stage.lines) if first else sum(
                    int(ln.rsplit(": ", 1)[1].split()[0]) for ln in runs)
                assert stage.stats.survivors == reported, stage.name
    a3 = next(s for s in classified[4].stages if s.name.startswith("a_3"))
    assert a3.stats.generated == enumerate_arrays(
        SearchSpec(4, 5, 8, "00+*", (2,), Fraction(-3, 4))).stats.generated


def test_classify_rejects_other_diameters():
    with pytest.raises(SearchSpecError):
        classify_diameter(3)


def test_disabling_a_check_creates_discrepancies():
    # {3,2,2,1;1,1,1,1} is not bipartite and fails only the multiplicity
    # check, so without it the k <= 4 space, which theorem2 enumerates, keeps
    # it.  Without it the D = 4 main space keeps 81 arrays that are no
    # witness, but not the three that fail c2_bound at their own theta_min,
    # which the report decides although the walk's cap at ratio*k lets them
    # through.
    checks = tuple(c for c in DEFAULT_CHECKS if c != "multiplicity_integrality")
    small = enumerate_arrays(SearchSpec(4, 2, 4, "****", (1, 2, 3, 4), Fraction(-3, 4), checks))
    assert "{3,2,2,1;1,1,1,1}" in map(format_array, small.survivors)
    assert "{3,2,2,1;1,1,1,1}" not in (text for _graph, text, _name in search.WITNESSES)
    main = enumerate_arrays(replace(D4_SPEC, checks=checks))
    kept = [format_array(a) for a in main.survivors]
    assert len(kept) == 83 and set(D4_EXPECT) <= set(kept)
    assert main.stats.killed["c2_bound"] == 336
    for text in ("{8,7,6,6;1,2,2,4}", "{8,7,6,5;1,2,3,4}", "{10,9,8,6;1,2,4,5}"):
        arr = parse_array(text)
        assert D4_SPEC.contains(arr) and text not in kept
        assert full_report(arr, Fraction(-3, 4)).verdict("c2_bound") == FAIL


def test_a3_d5_k5_space_dies_by_c2_bound():
    # the space the catalog exclusion line closes in theorem2 -d 5 has no
    # survivor under the default checks: c2_bound kills every array of it
    stats = enumerate_arrays(SearchSpec(5, 5, 5, "00+**", (2,), Fraction(-4, 5))).stats
    assert stats.to_json_dict() == {
        "generated": 30, "killed": {"c2_bound": 30}, "survivors": 0, "warnings": []}


def test_classify_reports_unexpected_and_missing_arrays(monkeypatch):
    # drop the Coxeter graph and O_5 from the witness table and add an array
    # of the main space that is no graph: the two are then unexpected, in
    # their stages, and the third is missing
    table = [row for row in search.WITNESSES if row[0] not in ("coxeter", "odd_graph:5")]
    monkeypatch.setattr(search, "WITNESSES", (*table, ("none", "{7,6,6,5;1,1,2,2}", "none")))
    result = classify_diameter(4)
    assert result.discrepancies == (
        "k <= 4 stage: unexpected survivor {3,2,2,1;1,1,1,2}",
        "main stage: unexpected survivor {5,4,4,3;1,1,2,2}",
        "main stage: missing {7,6,6,5;1,1,2,2}")
    assert [format_array(a) for a in result.arrays] == [
        "{2,1,1,1;1,1,1,1}", "{3,2,2,1;1,1,1,2}", "{9,8,7,6;1,2,3,4}", "{5,4,4,3;1,1,2,2}"]


