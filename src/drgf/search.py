"""Pruned exhaustive enumeration of intersection arrays and the diameter-4/5
classification pipeline.

The enumerator walks (c_i, a_i) level by level under the structural
constraints (monotone c, monotone b, b_i >= 1, a-pattern), pruning whole
subtrees as soon as a prefix is doomed:

* a_1 >= 1 cannot meet theta_min <= ratio*k when ratio < -1/2;
* c_2 above the closed-form bound (2k - 2*theta)/(4 - 3*theta - k), evaluated
  at theta = ratio*k where the bound is largest, is impossible;
* k_i = k_{i-1} b_{i-1} / c_i must stay integral.

The walk takes one numpy pass per level over a run of consecutive valencies,
k a row column: np.repeat expands every live prefix into its options, in
walk order, and the level's prunings test only the columns they read and
keep the options that pass by one index array, each kill counting every
array below the option, at the option's valency, from
completion counts indexed by each level's option list and built once per
run, so the statistics cover the full search space at array granularity.  A
level expands the prefixes of whole valencies in groups of at most
_PASS_ROWS options (or one valency's), each walked down to the leaf before
the next.  A row keeps its parent's index at each level, and tr(L^2), k_i and
the Sturm minors of L at the cut ratio*k advance by one recurrence step per
level for the options kept; at the leaf (b_D = 0, a_D = k - c_D)
k-integrality reads the (prefix, c_D) pairs alone, and on the options it
keeps the trace identity (k^2 + (ratio*k)^2 <= tr(L^2)) and the exact Sturm
count (theta_min <= ratio*k) decide, and the columns of the rows kept are
gathered once and go, as the leaf's last cut,
through one batched float screen of the Biggs multiplicities per leaf group
(see _screen), which decides at theta_min first and sends to eigvalsh only
the rows it leaves undecided or integral-looking there; each row's verdict
is its own, whatever its batch.  A run holds the valencies of one dtype:
int64, or Python ints where an a-priori bound on the valency's values
reaches 2^63.  Only the rows the screen keeps become arrays.  Each array's
enabled checks are decided one at a time in DEFAULT_CHECKS order
(feasibility.ArrayChecks), and the first that fails kills it, so a c2_bound
or a1_zero failure at the array's own theta_min counts even where the
walk's cuts at ratio*k let it through.  theta_min alone serves the checks
that read only theta_min, and theta_min's multiplicity, where it is not
integral, fails multiplicity_integrality before the rest of the spectrum is
isolated; a survivor gets one full_report built on what its checks found,
and keeps it.  Each valency keeps its own results and statistics; with
jobs > 1, on a space of at least _FORK_ARRAYS arrays, the caller and up to
jobs - 1 forked children claim runs of up to 8 valencies one at a time,
largest first, from a shared counter, and the parts merge in valency order,
so no output depends on process count or on how the valencies are grouped.

classify_diameter runs the paper's stages in one loop: k <= 4, the a_2, a_3
and (D = 5) a_4 exclusions under their derived caps, and the main space.
Each survivor that is not bipartite must be a witness in its stage's space.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction

import numpy as np

from .core import IntersectionArray, format_array, parse_array
from .feasibility import FAIL, INCONCLUSIVE, ArrayChecks, full_report, p_polynomials
from .oracle import WITNESSES
from .spectral import (SpectralError, _sign_changes, abs_u_lower_bounds,
                       implied_last_c_lower, minor_polys, moebius, multiplicities_float,
                       multiplicity_upper_bound,
                       spectrum,  # not called here; perfbench's tracer test rebinds it
                       sqrt_bounds, theta_min_multiplicity_float)

ZERO, NONZERO, FREE = "0", "+", "*"

# A float multiplicity this far (relative) from an integer is fractional: real
# survivors' multiplicities come out within ~1e-10 of integers, and borderline
# values fall through to the exact spectrum.
SCREEN_MARGIN = 1e-4

# The level pass expands the prefixes of consecutive valencies together, up to
# this many options at a level: numpy's per-call cost is spread over a run of
# valencies while the pass's columns stay near a megabyte.
_PASS_ROWS = 1 << 14

# enumerate_arrays forks only for a space of at least this many arrays, as a
# forked child costs about 10 ms whatever it walks.  Wall ms of jobs=1 against
# a forking jobs=2, in process on 2 cores, medians of 20: the D = 4 main space
# (000+, -3/4) to k = 35, 13,671 arrays, 7.2 against 20.3; to k = 70, 111,881,
# 10.9 against 18.8; the D = 5 a_4 space, 261,076, 20.0 against 23.4; the
# D = 5 main space (0000+, -4/5) to k = 44, 312,160, 30.6 against 27.9; to
# k = 71, 2,117,200, 80.0 against 57.5.  A D = 4 space still forks at a loss
# somewhat past it (k = 110, 437,621: 25.0 against 29.0).
_FORK_ARRAYS = 300_000

DEFAULT_CHECKS = ("a1_zero", "c2_bound", "k_integrality", "trace_vs_ratio",
                  "theta_ratio", "multiplicity_integrality",
                  "odd_girth_inequality", "trace_square")


class SearchSpecError(ValueError):
    pass


class CapDerivationError(RuntimeError):
    """A valency-cap replay failed to close; the message names the step."""


@dataclass(frozen=True)
class SearchSpec:
    """Search space: diameter, valency range, a-pattern for a_1..a_D
    ('0' forced zero, '+' forced nonzero, '*' free), allowed c_2 values,
    spectral ratio cut (theta_min <= theta_ratio * k), and enabled checks."""

    D: int
    k_min: int
    k_max: int
    a_pattern: str
    c2_set: tuple[int, ...] = (1, 2)
    theta_ratio: Fraction | None = None
    checks: tuple[str, ...] = DEFAULT_CHECKS

    def __post_init__(self):
        if self.D < 1:
            raise SearchSpecError("D must be >= 1")
        if self.k_min < 2:
            raise SearchSpecError("k_min must be >= 2")
        if self.k_max < self.k_min:
            raise SearchSpecError("empty k range")
        if len(self.a_pattern) != self.D or set(self.a_pattern) - {ZERO, NONZERO, FREE}:
            raise SearchSpecError(f"a_pattern must be {self.D} chars from 0+*")
        if not self.c2_set or any(c < 1 for c in self.c2_set):
            raise SearchSpecError("c2_set must hold positive integers")
        if self.theta_ratio is not None and not -1 <= self.theta_ratio < 0:
            raise SearchSpecError("theta_ratio must lie in [-1, 0)")
        if unknown := sorted(set(self.checks) - set(DEFAULT_CHECKS)):
            raise SearchSpecError(f"unknown checks {unknown}; known: {', '.join(DEFAULT_CHECKS)}")

    def contains(self, arr: IntersectionArray) -> bool:
        """Whether arr lies in this space, before the ratio cut and checks."""
        return (arr.D == self.D and self.k_min <= arr.k <= self.k_max
                and (arr.D < 2 or arr.c[1] in self.c2_set)
                and all(kind == FREE or (kind == ZERO) == (a == 0)
                        for kind, a in zip(self.a_pattern, arr.a[1:])))

    def to_json_dict(self) -> dict:
        return {
            "D": self.D, "k_range": [self.k_min, self.k_max],
            "a_pattern": self.a_pattern, "c2_set": sorted(self.c2_set),
            "theta_ratio": None if self.theta_ratio is None else str(self.theta_ratio),
            "checks": list(self.checks),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SearchSpec":
        try:
            if not isinstance(obj, dict):
                raise TypeError(f"the top level must be a JSON object, got {obj!r}")
            known = {"D", "k_range", "a_pattern", "c2_set", "theta_ratio", "checks"}
            if unknown := sorted(set(obj) - known):
                raise ValueError(f"unknown keys {unknown}; known: {', '.join(sorted(known))}")
            ratio = None if obj.get("theta_ratio") is None else Fraction(str(obj["theta_ratio"]))
            if type(obj["D"]) is not int:
                raise TypeError(f"D must be an integer, got {obj['D']!r}")
            k_min, k_max = _json_ints("k_range", obj["k_range"], 2)
            if type(obj["a_pattern"]) is not str:
                raise TypeError(f"a_pattern must be a string, got {obj['a_pattern']!r}")
            checks = obj.get("checks", list(DEFAULT_CHECKS))
            if not isinstance(checks, list) or any(type(c) is not str for c in checks):
                raise TypeError(f"checks must be a list of strings, got {checks!r}")
            return cls(
                D=obj["D"], k_min=k_min, k_max=k_max, a_pattern=obj["a_pattern"],
                c2_set=tuple(sorted(_json_ints("c2_set", obj.get("c2_set", [1, 2])))),
                theta_ratio=ratio, checks=tuple(checks),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SearchSpecError(f"bad search spec: {exc}") from exc


def _json_ints(key: str, value, n: int | None = None) -> list[int]:
    """value if it is a list of JSON integers, of length n unless n is None;
    a string, a float or a bool is no integer, and no entry is converted,
    truncated or dropped."""
    if (not isinstance(value, list) or n not in (None, len(value))
            or any(type(x) is not int for x in value)):
        raise TypeError(f"{key} must be a list of {n or 'some'} integers, got {value!r}")
    return value


@dataclass
class PruningStats:
    generated: int = 0
    killed: dict = field(default_factory=dict)
    survivors: int = 0
    warnings: list = field(default_factory=list)

    def kill(self, name: str, n: int = 1):
        """Record n arrays killed by name; a kill of none leaves no entry."""
        if n:
            self.killed[name] = self.killed.get(name, 0) + n

    def merged_with(self, other: "PruningStats") -> "PruningStats":
        out = PruningStats(self.generated + other.generated, dict(self.killed),
                           self.survivors + other.survivors,
                           self.warnings + other.warnings)
        for k, v in other.killed.items():
            out.killed[k] = out.killed.get(k, 0) + v
        return out

    def to_json_dict(self) -> dict:
        return {"generated": self.generated,
                "killed": dict(sorted(self.killed.items())),
                "survivors": self.survivors,
                "warnings": list(self.warnings)}


@dataclass(frozen=True)
class ClassificationResult:
    spec: SearchSpec
    survivors: tuple[IntersectionArray, ...]
    reports: dict
    stats: PruningStats


def _dtype(spec: SearchSpec, k: int):
    """np.int64 where no value of the level pass at valency k can reach 2^63,
    else object (Python ints, exact).

    With cut = P k / Q on the ratio's own denominator Q, which the valencies
    of a run share (P = 0 without a cut), the pass computes nothing larger:
    |phi_l| Q^l <= ((|P| + Q) k)^l, as every leading block of L has its
    eigenvalues in [-k, k]; tr Q^2 <= 3 (D + 1) (kQ)^2; k_l <= k^l; and a
    completion count <= C(k + D, D) C(k + F, F), for the monotone c and for
    the monotone b at the F levels below D where a_i may be nonzero
    (elsewhere b_i = k - c_i, and b_D = 0).  The bound
    rises with k, so the int64 valencies of a space come first.  Every
    classification valency fits: the largest bound, at D = 5 and k = 71, is
    about 0.0074 * 2^63."""
    (P, Q), D = (spec.theta_ratio or 0).as_integer_ratio(), spec.D
    F = len(spec.a_pattern[:-1].replace(ZERO, ""))
    big = max(((abs(P) + Q) * k) ** (D + 1), 3 * (D + 1) * (k * Q) ** 2,
              math.comb(k + D, D) * math.comb(k + F, F))
    return np.int64 if big < 2 ** 63 else object


def _c2_cap(spec: SearchSpec, k: int) -> int | None:
    """The walk's cap on c_2 at valency k, or None where it makes no cut.

    The c_2 bound (2k - 2 cut)/(4 - 3 cut - k), floored in ints: it rises
    with theta_min, so it caps c_2 wherever -k < theta_min <= cut <
    (12 - 5k)/7; inside that gate 4Q - 3p - kQ > 8Q(k - 1)/7 for p = Pk."""
    P, Q = (spec.theta_ratio or 0).as_integer_ratio()
    p = P * k
    gated = ("c2_bound" in spec.checks and spec.theta_ratio is not None
             and spec.a_pattern[0] == ZERO and -k * Q < p and 7 * p < (12 - 5 * k) * Q)
    return (2 * k * Q - 2 * p) // (4 * Q - 3 * p - k * Q) if gated else None


class _KSpace:
    """The search space at a run of consecutive valencies of one dtype (see
    _dtype), decided one level at a time (see run)."""

    def __init__(self, spec: SearchSpec, ks):
        self.spec, self.k = spec, np.asarray(ks, np.int64)
        self.dtype = dt = _dtype(spec, int(self.k[-1]))
        self._a1_prune = (
            "a1_zero" in spec.checks
            and spec.theta_ratio is not None and spec.theta_ratio < Fraction(-1, 2))
        self._on = set(spec.checks) - (  # the checks that the walk applies
            {"trace_vs_ratio", "theta_ratio"} if spec.theta_ratio is None else set())
        # per valency: the cut's numerator p = P k over Q, k^2 + cut^2 times
        # Q^2 and the c_2 cap (k where there is none)
        (P, self._Q), k = (spec.theta_ratio or 0).as_integer_ratio(), self.k.astype(dt)
        self._p, self._trace_lhs = P * k, (k * self._Q) ** 2 + (P * k) ** 2
        caps = [(x, _c2_cap(spec, x)) for x in self.k.tolist()]
        self._c2_cap = np.array([x if cap is None else cap for x, cap in caps])
        # theta_min = -k exactly when every a_i is 0: a "+" in the pattern
        # rules that out, and else the level-2 option's a_2 != 0 does
        self._c2_not_bipartite = NONZERO in spec.a_pattern
        # each level's options, their (v, c) keys v * stride + c in walk order,
        # and the end of each valency's options
        self._stride = s = int(self.k[-1]) + 1
        self._levels, past = [], s * np.arange(1, len(k) + 1)  # the key past each valency's
        for level in range(1, spec.D + 1):
            v, c, b = self._options(level)
            keys = v * s + c
            self._levels.append((v, c, b, keys, np.searchsorted(keys, past)))
        self._below, self._generated = self._completions()

    def _options(self, level: int):
        """The options (v, c, b) of a level before the prunings, a = k - c - b,
        v the valency's place in the run, in walk order: v, then c increasing,
        then a increasing (b decreasing).  A prefix that ends in c', b' takes
        those of its valency with c >= c' and b <= b'."""
        ks, D, kind = self.k, self.spec.D, self.spec.a_pattern[level - 1]
        if level > 2:
            v, c = _runs(ks, 1)
        else:
            cs = np.array(sorted({1} if level == 1 else {*self.spec.c2_set}))
            v, c = np.repeat(np.arange(len(ks)), len(cs)), np.tile(cs, len(ks))
            v, c = v[c <= ks[v]], c[c <= ks[v]]  # both read the v before the assignment
        k = ks[v]
        top = k - c - (kind == NONZERO)  # the largest b where a >= 1, or a >= 0
        hi = np.minimum(top, k if level < D else 0)  # b_D = 0
        lo = np.maximum(top if kind == ZERO else 0, level < D)  # a = 0 fixes b; b >= 1 above D
        at, i = _runs(np.maximum(hi - lo + 1, 0))
        return v[at], c[at], hi[at] - i

    def _first(self, level: int, v, c, b):
        """For prefixes of valencies v that end in c, b: the place of the first
        option of the level that one may take (c' >= c, and for a = 0, where b'
        = k - c', c' >= k - b), and the end of its valency's options."""
        keys, ends = self._levels[level - 1][3:]
        if self.spec.a_pattern[level - 1] == ZERO:
            c = np.maximum(c, self.k[v] - b)
        return np.searchsorted(keys, v * self._stride + c), ends[v]

    def _completions(self):
        """below[l - 1]: the arrays below each option of level l (one at the
        leaf), and the arrays at each valency, all before any pruning.

        An option (c, b) of level l - 1 has below it the arrays below the
        options (c', b') of level l with c' >= c and b' <= b.  Down a row of
        options (one c) b falls, and the last b of a row falls with c, so the
        first row c* that the prefix may take and b* = min(b, its first b)
        name one option, and that sum is T(c*, b*), T the sum over c' >= c*,
        b' <= b*: for a = 0 (one option per c) the suffix sum in walk order,
        else, with b >= 1 on every row, the sum over b' <= b* along its row of
        the sums over c' >= c* down each column."""
        dt, D = self.dtype, self.spec.D
        w, below = np.ones(len(self._levels[-1][0]), dt), []
        for level in range(D, 0, -1):
            v, c, b, keys, ends = self._levels[level - 1]
            if self.spec.a_pattern[level - 1] == ZERO:
                T = _suffix_sums(w, ends[v])
            else:
                col, T = np.lexsort((c, b, v)), np.empty_like(w)
                column = (v * self._stride + b)[col]
                T[col] = _suffix_sums(w[col], np.searchsorted(column, column, "right"))
                T = _suffix_sums(T, np.searchsorted(keys, keys, "right"))
            below.insert(0, w)
            qv, qc, qb = (self._levels[level - 2][:3] if level > 1
                          else (np.arange(len(self.k)), np.ones_like(self.k), self.k))
            j, end = self._first(level, qv, qc, qb)
            w, on = np.zeros(len(qv), dt), j < end
            j = j[on]
            w[on] = T[j + np.maximum(b[j] - qb[on], 0)]
        return below, w

    def run(self) -> Iterator[tuple[int, np.ndarray, PruningStats]]:
        """Each valency of the run, in order, with its leaf rows that the
        prunings and the float screen keep, as an (n, 2D) int matrix of
        b_0..b_{D-1}, c_1..c_D in walk order, and the PruningStats of their
        kills, counted per valency in DEFAULT_CHECKS order.

        Level by level, np.repeat expands the live prefixes into their
        options in walk order, the level's checks read only the columns they
        test, and one index array keeps the options that pass: only they are
        gathered and advance tr(L^2), k_l b_l and the Sturm minors at the cut
        by one step (see _step and, at the leaf, _leaf).  A level expands the
        prefixes of consecutive whole valencies together, up to _PASS_ROWS
        options or one valency's, and walks each such group down to the leaf
        before the next, so a valency is done when its leaf group is."""
        n, done = len(self.k), 0
        kills = {name: np.zeros(n, self.dtype) for name in DEFAULT_CHECKS}
        # per live prefix of l - 1 levels: its valency's place v, c_{l-1}, b_{l-1}
        # (c_0 = 1, b_0 = k), k_{l-1} b_{l-1}, tr = sum a_i^2 + 2 sum b_{i-1} c_i
        # so far, the minors phi_{l-1}, phi_l at cut = p/Q (times Q^l) and
        # whether phi_0..phi_l alternate in sign, none zero (phi_0 = 1, phi_1 = p)
        live = (np.arange(n), np.ones(n, np.int64), self.k, self.k.astype(self.dtype),
                np.zeros(n, self.dtype), np.ones(n, self.dtype), self._p, np.ones(n, bool))
        for last, rows in itertools.chain(self._descend(1, live, [], kills),
                                          [(n - 1, np.zeros((0, 2 * self.spec.D), np.int64))]):
            # one piece per valency, each popped as it goes, so that none stays held here
            pieces = np.split(rows, np.searchsorted(rows[:, 0], self.k[done:last], "right"))[::-1]
            del rows
            for v in range(done, last + 1):
                stats = PruningStats(generated=int(self._generated[v]))
                for name in DEFAULT_CHECKS:
                    stats.kill(name, int(kills[name][v]))
                yield int(self.k[v]), pieces.pop(), stats
            done = last + 1

    def _descend(self, level, live, tree, kills):
        """Expand the live prefixes at level, a group of valencies at a time,
        and walk each group on to the leaf; yield, for each leaf group, its
        last valency's place and its kept rows.  tree[l - 1]: level l's
        parents, c, b."""
        start, end = self._first(level, *live[:3])
        n = end - start
        for lo, hi in _groups(live[0], n):
            at, nxt, held = self._step(level, live, start[lo:hi], n[lo:hi], lo, kills)
            if level == self.spec.D:  # nothing of the group but its rows held across the yield
                yield live[0][hi - 1], self._leaf(at, nxt, held, tree, kills)
                continue
            yield from self._descend(level + 1, nxt, tree + [(at, *nxt[1:3])], kills)

    def _step(self, level, live, start, n, lo, kills):
        """The options of the live prefixes lo, lo + 1, .. that take n options
        each from start and pass the level's checks, as their parents'
        places, the next level's live prefixes and, at the leaf, each
        valency's options kept.  A check reads only the columns it tests: at
        the leaf, where b_D = 0, k-integrality (c_D | k_{D-1} b_{D-1}) reads
        the pairs (prefix, c_D) alone.  One index array keeps the options that
        pass, and only they are gathered and advance tr(L^2), k_l b_l and the
        Sturm minors at the cut by one step.  An option that fails counts at
        its valency with the arrays below it (one at the leaf: see _cut)."""
        k, D, Q, dt = self.k, self.spec.D, self._Q, self.dtype
        v, _c, b_prev, kb, tr, f0, f1, alternate = live
        at, opt = _runs(n, start)
        at += lo
        c, vr, held = self._levels[level - 1][1][opt], v[at], None
        b = self._levels[level - 1][2][opt] if level < D else 0
        fails = []
        if level == 1 and self._a1_prune:
            fails.append(("a1_zero", c + b != k[vr]))  # a_1 != 0
        if level == 2 and "c2_bound" in self._on:
            fails.append(("c2_bound", (c > self._c2_cap[vr])
                          & ((c + b != k[vr]) | self._c2_not_bipartite)))
        if level >= 2 and "k_integrality" in self._on:  # k_l = k_{l-1} b_{l-1} / c_l
            fails.append(("k_integrality", kb[at] % c.astype(dt, copy=False) != 0))
        if level == D:
            held = np.bincount(v[lo:lo + len(n)], n, len(k)).astype(np.int64)  # options
            keep, held = self._cut(kills, held, vr, fails)
        else:
            ok = b <= b_prev[at]
            for name, fail in fails:
                fail &= ok
                np.add.at(kills[name], vr[fail], self._below[level - 1][opt[fail]])
                ok &= ~fail
            keep = np.flatnonzero(ok)
        at, vr, c, b = at[keep], vr[keep], c[keep], b if level == D else b[keep]
        # Python ints on the object path, so that no product wraps
        a_l, c_l, bc = (x.astype(dt, copy=False) for x in (k[vr] - c - b, c, b_prev[at] * c))
        # phi_{l+1} = (p - a_l Q) phi_l - b_{l-1} c_l Q^2 phi_{l-1}
        g1 = (self._p[vr] - a_l * Q) * f1[at] - bc * (Q * Q) * f0[at]
        kb = kb[at] // c_l * b.astype(dt) if level < D else None  # b_D = 0
        return at, (vr, c, b, kb, tr[at] + a_l * a_l + 2 * bc, f1[at], g1,
                    alternate[at] & ((g1 > 0) if level % 2 else (g1 < 0))), held

    def _leaf(self, at, live, held, tree, kills) -> np.ndarray:
        """The rows of the complete arrays live (parents at; held, each
        valency's) that the trace and Sturm cuts keep, gathered up the tree,
        less those the float screen kills (see _cut)."""
        vr, c, tr, alternate, Q = live[0], live[1], live[4], live[7], self._Q
        # k^2 + cut^2 <= tr(L^2), times Q^2; D + 1 sign changes: no eigenvalue <= cut
        cuts = [("trace_vs_ratio", self._trace_lhs[vr] > tr * (Q * Q)), ("theta_ratio", alternate)]
        keep, held = self._cut(kills, held, vr, [cut for cut in cuts if cut[0] in self._on])
        cols, rows, vr, c = [], at[keep], vr[keep], c[keep]  # b_1, c_1, .., c_{D-1} of the rows
        for at, c_l, b_l in reversed(tree):
            cols, rows = [b_l[rows], c_l[rows]] + cols, at[rows]
        rows = np.column_stack([self.k[rows]] + cols[::2] + cols[1::2] + [c])
        del cols  # so that the screen runs beside one copy of the rows
        if "multiplicity_integrality" in self._on and len(rows):
            cuts = [("multiplicity_integrality", ~_screen(rows))]
            rows = rows[self._cut(kills, held, vr, cuts)[0]]
        return rows

    def _cut(self, kills, held, vr, cuts):
        """The places of the rows (at valency places vr) that pass each cut,
        (name, fails) in order, and each valency's rows then, from held: each
        kill counts one array (one np.bincount of the rows a cut keeps)."""
        ok, keep = np.ones(len(vr), bool), slice(None)
        for name, fails in cuts:
            ok &= ~fails
            now = np.bincount(vr[keep := np.flatnonzero(ok)], minlength=len(self.k))
            kills[name] += held - now
            held = now
        return keep, held


def _groups(v: np.ndarray, n: np.ndarray) -> list:
    """Row ranges [lo, hi) of the prefixes v (valency places, in order), each
    of whole valencies whose options n sum to at most _PASS_ROWS, or of one."""
    if not len(v) or v[0] == v[-1] or n.sum() <= _PASS_ROWS:
        return [(0, len(v))] if len(v) else []
    firsts = np.flatnonzero(np.diff(v, prepend=-1))
    bounds, held = [0], 0
    for first, m in zip(firsts.tolist(), np.add.reduceat(n, firsts).tolist()):
        if held and held + m > _PASS_ROWS:
            bounds.append(first)
            held = 0
        held += m
    return list(zip(bounds, bounds[1:] + [len(v)]))


def _suffix_sums(x: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each element's sum of x from it up to its end (exclusive).  An int64
    sum over several valencies may wrap, but each one taken is a count of
    one valency, below 2^63, so it is exact modulo 2^64."""
    total = np.append(np.cumsum(x[::-1])[::-1], x[:0].sum())
    return total[:-1] - total[end]


def _runs(n: np.ndarray, start=0) -> tuple[np.ndarray, np.ndarray]:
    """For runs of lengths n laid end to end, each element's run and start
    plus its place in it."""
    at = np.repeat(np.arange(len(n)), n)
    return at, np.arange(len(at)) - (np.cumsum(n) - n - start)[at]


def _screen(rows: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 2D) matrix of b_0..b_{D-1}, c_1..c_D the float
    multiplicity screen keeps.

    theta_min's multiplicity decides first: a row where it is fractional
    under SCREEN_MARGIN is killed.  Every other row, an integral-looking one
    or one the Newton pass left undecided (NaN), goes through
    multiplicities_float at every eigenvalue and is kept unless one of them
    is fractional."""
    keep = ~_fractional(theta_min_multiplicity_float(rows)[1])
    rest = np.flatnonzero(keep)
    if rest.size:
        keep[rest] = ~_fractional(multiplicities_float(rows[rest])).any(axis=1)
    return keep


def _fractional(m: np.ndarray) -> np.ndarray:
    """Where the float multiplicities m lie further than SCREEN_MARGIN
    (relative) from an integer; never at NaN or inf."""
    with np.errstate(invalid="ignore"):
        return np.abs(m - np.rint(m)) > SCREEN_MARGIN * np.maximum(1.0, np.abs(m))


def _walk_group(spec: SearchSpec,
                spaces) -> Iterator[tuple[int, list[IntersectionArray], PruningStats]]:
    """Each valency of the spaces (_KSpace runs) that the iterable spaces
    gives, in its order, with the arrays that its run's level pass keeps, in
    walk order, and the stats of their kills."""
    for space in spaces:
        for k, rows, stats in space.run():
            yield k, [IntersectionArray(tuple(row[:spec.D]), tuple(row[spec.D:]))
                      for row in rows.tolist()], stats


def _run_group(spec: SearchSpec, spaces) -> list:
    """(k, survivors as (array, report) pairs, stats) for each valency of the
    spaces, in order.  Each array's enabled checks are decided one at a time in
    DEFAULT_CHECKS order on one ArrayChecks, and the first that fails kills
    it: theta_min alone decides the checks that read only theta_min, and
    theta_min's multiplicity, where it is not integral, fails
    multiplicity_integrality without the rest of the spectrum.  An
    odd-girth check reached with no failure but an undecided entry leaves a
    warning.  A survivor's full_report is built on what its checks found."""
    parts, enabled = [], [c for c in DEFAULT_CHECKS if c in spec.checks]
    for k, arrays, stats in _walk_group(spec, spaces):
        survivors = []
        for arr in arrays:
            checks = ArrayChecks(arr, spec.theta_ratio)
            try:
                for name in enabled:
                    verdict = checks.verdict(name)
                    if verdict == FAIL:
                        stats.kill(name)
                        break
                    if name == "odd_girth_inequality" and verdict == INCONCLUSIVE:
                        stats.warnings.append(
                            f"{format_array(arr)}: odd-girth inequality inconclusive")
                else:
                    report = full_report(arr, spec.theta_ratio, checks)
                    if report.spectrum is None:
                        raise SpectralError(report.checks[0].witness["error"])
                    survivors.append((arr, report))
            except SpectralError as exc:
                raise SpectralError(f"{format_array(arr)}: {exc}") from exc
        stats.survivors = len(survivors)
        parts.append((k, survivors, stats))
    return parts


def _claims(runs, counter, stalled=lambda: None) -> Iterator[list]:
    """The runs that this process claims in turn from the shared counter, its lock held
    for the read and the increment; stalled() runs while a holder keeps it past 0.1 s."""
    lock = counter.get_lock()
    while True:
        while not lock.acquire(timeout=0.1):
            stalled()
        i, counter.value = counter.value, counter.value + 1
        lock.release()
        if i >= len(runs):
            return
        yield runs[i]


def _send_share(conn, spec: SearchSpec, runs, counter) -> None:
    """A child's share: send (True, the parts of what it claims) or (False, the exception)."""
    try:
        conn.send((True, _run_group(spec, map(partial(_KSpace, spec), _claims(runs, counter)))))
    except Exception as exc:
        conn.send((False, exc))


def _dtype_runs(spec: SearchSpec, ks) -> list[list[int]]:
    """The valencies of ks of each dtype, as one run each."""
    return [list(run) for _dt, run in itertools.groupby(ks, lambda k: _dtype(spec, k))]


def _shares(spec: SearchSpec, ks) -> list[list[int]]:
    """The runs that processes claim: each dtype's valencies in runs of 8,
    the largest valencies first.  A run's cost rises steeply with k, so the
    small runs claimed last even out the processes' loads."""
    return [run[i:i + 8] for run in _dtype_runs(spec, ks) for i in range(0, len(run), 8)][::-1]


def _in_process(spec: SearchSpec, shares) -> list[_KSpace] | None:
    """The _KSpace runs that count the arrays of shares (see _shares), its
    largest first and, where that falls short, the rest in their dtype runs,
    to be walked in process; None where they reach _FORK_ARRAYS."""
    spaces = []
    for runs in (shares[:1], _dtype_runs(spec, range(spec.k_min, shares[0][0]))):
        spaces += map(partial(_KSpace, spec), runs)
        if sum(sum(space._generated.tolist()) for space in spaces) >= _FORK_ARRAYS:
            return None
    return spaces


def enumerate_arrays(spec: SearchSpec, jobs: int = 1) -> ClassificationResult:
    """Exhaust the search space; deterministic output order (k, c-sequence).

    In process each dtype's valencies are one run.  With jobs > 1, a space
    of more than one run of _shares and at least _FORK_ARRAYS arrays is
    walked by the caller and up to jobs - 1 forked children, which claim the
    runs of _shares one at a time, largest valencies first, from a shared
    counter (a multiprocessing.Value; a process's first costs about 7 ms),
    one process per run at most; the results merge in valency order, as in
    process.  Any other space is walked in process whatever jobs is, on the
    spaces that counted it where jobs > 1.  A child's exception is raised
    here, and a child that exits without sending, even holding the
    counter's lock, raises RuntimeError naming its exit code.  Every child
    is joined on every path, terminated first if alive."""
    ks = range(spec.k_min, spec.k_max + 1)
    runs = _shares(spec, ks) if jobs > 1 else []
    spaces = (_in_process(spec, runs) if len(runs) > 1
              else map(partial(_KSpace, spec), _dtype_runs(spec, ks)))
    jobs = 1 if spaces is not None else min(jobs, len(runs))
    pipes, parts = {}, []  # pipes: read end -> child, until read

    def receive(timeout=None):  # the parts of each child whose pipe is ready in time
        for recv in multiprocessing.connection.wait(list(pipes), timeout):  # loaded by Pipe
            try:
                ok, out = recv.recv()
            except EOFError:  # it died before sending
                ok, out = False, None
            (child := pipes.pop(recv)).join()
            if not ok:
                raise out or RuntimeError(f"a child exited with code {child.exitcode} "
                                          "before sending its valencies")
            parts.extend(out)

    try:
        if jobs > 1:
            counter = multiprocessing.Value("i", 0)
            for _ in range(1, jobs):
                recv, send = multiprocessing.Pipe(duplex=False)
                pipes[recv] = multiprocessing.Process(target=_send_share,
                                                      args=(send, spec, runs, counter))
                pipes[recv].start()
                send.close()
            spaces = map(partial(_KSpace, spec), _claims(runs, counter, lambda: receive(0)))
        parts += _run_group(spec, spaces)
        while pipes:
            receive()
    finally:
        for child in pipes.values():  # each child read is joined
            child.terminate()  # a no-op once the child has exited
            child.join()
    stats, found = PruningStats(), []
    for _k, pairs, st in sorted(parts, key=lambda part: part[0]):
        stats, found = stats.merged_with(st), found + pairs
    found.sort(key=lambda pair: (pair[0].k, pair[0].c, pair[0].b))
    reports = {format_array(a): report for a, report in found}
    return ClassificationResult(spec, tuple(a for a, _report in found), reports, stats)


# ---------------------------------------------------------------------------
# cap derivations


def pentagon_exclusion_cap(theta_ratio: Fraction):
    """Largest k where theta <= ratio*k can coexist with the girth-5 cycle
    inequality theta >= (-2k - sqrt(5) + 1)/(sqrt(5) + 1); None if unbounded.
    With rho = -ratio and e = rho^2 + rho - 1 that is k <= ((1 - rho) sqrt(5) +
    3 rho - 1)/(2e), unbounded exactly when rho <= 0 or e <= 0.  sqrt(5) is the
    sqrt_bounds end that raises the bound, so its floor is the exact one unless
    an integer lies within |1 - rho| 2^-64 / 2e above the bound."""
    rho = -Fraction(theta_ratio)
    e = rho * rho + rho - 1
    if rho <= 0 or e <= 0:
        return None
    v = (max((1 - rho) * s for s in sqrt_bounds(Fraction(5))) + 3 * rho - 1) / (2 * e)
    return v.numerator // v.denominator


def _eta_poly(k: int, p_values, cs) -> list:
    """Coefficients (low to high) of F(theta) = B_t sum_{i<=t} p_i u_i(theta),
    a_i = 0 below t, cs = (c_1, ..., c_{t-1}).  With b_0 = k, b_i = k - c_i
    and B_i = b_0 ... b_{i-1} > 0, B_i u_i is the minor P_i of the partial
    array, so F = sum p_i (b_i ... b_{t-1}) P_i is an integer polynomial with
    the sign of the sum."""
    bs = [k] + [k - c for c in cs]  # b_0, ..., b_{t-1}
    minors = minor_polys([0] * len(bs), [b * c for b, c in zip(bs, cs)])
    F = []
    for p, P, b in zip(p_values, minors, [1] + bs):
        F = [b * f + p * x for f, x in zip(F + [0], P)]
    return F


def _has_positive_root(G) -> bool:
    """Whether G (low to high, G(0) != 0) has a root x > 0: none without a
    coefficient sign change (Descartes), else a Sturm chain G, G', -rem, ...
    counts them as its sign changes at 0 minus those at +infinity."""
    if _sign_changes(G) == 0:
        return False
    chain = [[Fraction(g) for g in G]]
    while chain[0][-1] == 0:
        chain[0].pop()
    chain.append([i * g for i, g in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:  # ends at a constant, or at [] past the gcd
        r, d = chain[-2], chain[-1]
        while len(r) >= len(d):
            r = [x - r[-1] / d[-1] * y for x, y in zip(r, [0] * (len(r) - len(d)) + d)][:-1]
        while r and r[-1] == 0:
            r.pop()
        chain.append([-x for x in r])
    return (_sign_changes(s[0] for s in chain if s)
            > _sign_changes(s[-1] for s in chain if s))


def _nonnegative_below_cut(F, k: int, cut: Fraction) -> bool:
    """Is F(theta) >= 0 for some theta in (-k, cut]?  At the cut, where G(0)
    has F's sign, or at a root of F inside, a root x > 0 of G."""
    G = moebius(F, cut.numerator, -k * cut.denominator, cut.denominator)
    return G[0] >= 0 or _has_positive_root(G)


def _negative_from(values) -> int | None:
    """Least M >= 0 where the integer polynomial g with g(m) = values[m], of
    degree < len(values), is negative and has no positive forward
    difference; None if its top nonzero difference is not negative.  By
    Newton's forward form g(M + y) = sum_j (difference j at M) C(y, j), g < 0
    then holds at every integer y >= 0."""
    d = list(values)
    for j in range(1, len(d)):  # d[j] becomes difference j at 0
        d[j:] = [y - x for x, y in zip(d[j - 1:], d[j:])]
    if next((x for x in reversed(d) if x), 0) >= 0:
        return None
    M = 0
    while d[0] >= 0 or max(d[1:], default=0) > 0:  # the differences at M + 1
        d, M = [x + y for x, y in zip(d, d[1:])] + d[-1:], M + 1
    return M


def _c3_top(k: int, c3_ratio_cap) -> int:
    """The larger c_3 endpoint, floor(c3_ratio_cap * k) below k."""
    return k - 1 if c3_ratio_cap is None else min(k - 1, int(Fraction(c3_ratio_cap) * k))


def eta_feasible(k: int, t: int, p_values, theta_ratio, c2_values=(1, 2), c3_ratio_cap=None):
    """eta_exclusion_cap's question at the one valency k."""
    cut, hi = Fraction(theta_ratio) * k, _c3_top(k, c3_ratio_cap)
    cases = {(1, c2, c3)[:t - 1] for c2 in c2_values if c2 < k and (t < 4 or c2 <= hi)
             for c3 in (c2, hi)}  # the c_3 endpoints (dropped when t < 4)
    return any(_nonnegative_below_cut(_eta_poly(k, p_values, cs), k, cut) for cs in cases)


def eta_scan_end(t: int, p_values, theta_ratio, c2_values=(1, 2), c3_ratio_cap=None) -> int:
    """K_0 of eta_exclusion_cap's proof, the largest b(M - 1) + r over the
    classes k = bm + r and G's coefficients: eta_feasible is false past it."""
    (P, Q), K0 = Fraction(theta_ratio).as_integer_ratio(), 0
    for c2, top in [(c2, top) for c2 in c2_values for top in (False, True)[:1 + (t == 4)]]:
        b = Fraction(c3_ratio_cap or 1).denominator if top else 1
        for r in range(1, b + 1):
            G = [moebius(_eta_poly(k, p_values, (1, c2, _c3_top(k, c3_ratio_cap) if top
                                                 else c2)[:t - 1]), P * k, -k * Q, Q)
                 for k in (b * m + r for m in range(t + 1))]
            for i, values in enumerate(zip(*G)):
                if (M := _negative_from(values)) is None:
                    raise CapDerivationError(f"eta scan end: x^{i} of G is >= 0 for large "
                                             f"k = {b}m + {r} at c_2 = {c2}, top c_3 {top}")
                K0 = max(K0, b * (M - 1) + r)
    return K0


def eta_exclusion_cap(t: int, p_values, theta_ratio: Fraction, c2_values=(1, 2),
                      c3_ratio_cap: Fraction | None = None):
    """Largest k >= 3 where sum_{i<=t} p_i u_i >= 0 for some theta in
    (-k, ratio*k], c_1 = 1, c_2 in c2_values and (t = 4) integral c_3 in
    [c_2, c3_ratio_cap*k] (below k without a cap); None if there is none.

    p_values are the integer cycle-polynomial values at an integral
    eigenvalue eta.  c_3 enters only u_4 = (theta u_3 - c_3 u_2)/(k - c_3),
    a Moebius function of c_3 with its pole at k, so the best c_3 is an
    endpoint at every theta.  eta_feasible decides each k exactly.  It is
    not monotone below the cap (floor(c3_cap * k) jumps with k), so every k
    in [3, K_0] is tried, and none past K_0 = eta_scan_end is feasible:
    for ratio = P/Q, each coefficient of G = moebius(F, Pk, -kQ, Q), G(0) =
    Q^n F(cut) among them, has degree <= n = t in k and c_3, as F's theta^j
    coefficient has degree <= n - j.  On each class k = bm + r, r = 1..b (b
    the cap's denominator at the top c_3, else 1), c_3 is affine in m, so
    each is an integer polynomial g(m) given by its values at m = 0..n, and
    g(m) < 0 from _negative_from's M on (if its top nonzero forward
    difference is not negative, CapDerivationError).  Past every
    b(M - 1) + r, G(0) < 0 and G has no root x > 0: all its coefficients
    are negative.
    """
    args = (t, p_values, theta_ratio, c2_values, c3_ratio_cap)
    return max((k for k in range(3, eta_scan_end(*args) + 1) if eta_feasible(k, *args)),
               default=None)


def _floor4(x: Fraction) -> Fraction:
    """Round a lower bound down to 4 decimals (stays a valid lower bound)."""
    return Fraction((x.numerator * 10**4) // x.denominator, 10**4)


def _ceil4(x: Fraction) -> Fraction:
    """Round an upper bound up to 4 decimals (stays a valid upper bound)."""
    return -_floor4(-x)


@dataclass(frozen=True)
class CapStep:
    name: str
    raw: Fraction | int
    published: Fraction

    def fmt(self) -> str:
        return f"{self.name} = {float(self.published):.4f}"


@dataclass(frozen=True)
class CapDerivation:
    D: int
    branch: str
    anchor: int
    steps: tuple[CapStep, ...]
    k_max: int

    def step(self, name: str) -> CapStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def valency_cap(D: int, branch: str = "main") -> CapDerivation:
    """Replay the valency-cap pipeline at its anchor valency, for the
    classification's ratio theta_min <= -(D-1)/D k and c_2 <= 2.

    The |u_i| chain is evaluated exactly at the anchor; each intermediate is
    then published with outward 4-decimal rounding (lower bounds floored,
    upper bounds ceiled) and later stages consume the published values, so
    every constant of the audited derivation is reproducible and every
    rounding step weakens, never strengthens, the chain.  Every raw value is
    a Fraction (low_c3_cap an int), exact or, where a square root enters
    (c4_over_k_lower, c3_over_k_upper, c5_over_k_lower), a bound on its safe
    side within 2^-64, from the matching end of sqrt_bounds.  The last step
    is multiplicity_upper_bound of the published u_i and tail bound: every
    valency k >= anchor has m >= k, so k_max is its floor (m is integral),
    or anchor - 1 where it falls below the anchor.
    """
    if (D, branch) not in ((4, "main"), (5, "a4"), (5, "main")):
        raise CapDerivationError(f"no cap pipeline for D={D} branch={branch!r}")
    theta_ratio, c2_max = Fraction(-(D - 1), D), 2
    rho = -theta_ratio
    steps: list[CapStep] = []
    low = 0  # the a4 branch's cap below its anchor

    def publish(name, raw, upper=False):
        steps.append(CapStep(name, raw, _ceil4(raw) if upper else _floor4(raw)))
        return steps[-1].published

    def publish_u_chain(anchor):
        lows = abs_u_lower_bounds(anchor, (rho, 1), [1, c2_max])
        return [1, *(publish(f"u{i}_lower", lows[i]) for i in (1, 2, 3))]

    if D == 4:
        anchor = 36
        u = publish_u_chain(anchor)
        c4r = publish("c4_over_k_lower",
                      implied_last_c_lower(4, anchor, theta_ratio * anchor) / anchor)
        tail = 1 + 1 / c4r
    elif branch == "a4":
        anchor = 24
        low = eta_exclusion_cap(4, p_polynomials(4, -1), theta_ratio, tuple(range(1, c2_max + 1)),
                                c3_ratio_cap=Fraction(3750, 10000))
        steps.append(CapStep("low_c3_cap", low, Fraction(low)))
        u = publish_u_chain(anchor)
        x_hi = (1 - Fraction(3750, 10000)) / Fraction(3750, 10000)
        tail = 1 + x_hi + x_hi * x_hi
    else:
        anchor = 71
        u = publish_u_chain(anchor)
        # m >= k >= anchor forces the tail term of the multiplicity bound
        # above anchor: anchor <= (1/u3^2)(1 + x + x^2), x = (k - c3)/c3, so x
        # is at least (sqrt(4 anchor u3^2 - 3) - 1)/2, here bounded from below
        x_lo = (sqrt_bounds(4 * anchor * u[3] * u[3] - 3)[0] - 1) / 2
        c3r = publish("c3_over_k_upper", 1 / (1 + x_lo), upper=True)
        u.append(publish("u4_lower",
                         abs_u_lower_bounds(anchor, (rho, 1), [1, c2_max, c3r * anchor])[4]))
        c5r = publish("c5_over_k_lower",
                      implied_last_c_lower(5, anchor, theta_ratio * anchor) / anchor)
        tail = 1 + 1 / c5r
    mbound = multiplicity_upper_bound(u, tail)
    publish("multiplicity_bound", mbound, upper=True)
    return CapDerivation(D, branch, anchor, tuple(steps),
                         max(low, anchor - 1, math.floor(mbound)))


# ---------------------------------------------------------------------------
# the classification pipeline

GRAPH_NAMES = {text: name for _graph, text, name in WITNESSES}


def named(arr: IntersectionArray) -> str:
    """The array's text, followed by its graph's name for a witness."""
    text = format_array(arr)
    return f"{text}  ({GRAPH_NAMES[text]})" if text in GRAPH_NAMES else text


@dataclass(frozen=True)
class Stage:
    name: str
    lines: tuple[str, ...]
    arrays: tuple[IntersectionArray, ...]
    stats: PruningStats | None


@dataclass(frozen=True)
class DiameterClassification:
    D: int
    stages: tuple[Stage, ...]
    arrays: tuple[IntersectionArray, ...]
    discrepancies: tuple[str, ...]


def classify_diameter(D: int, jobs: int = 1) -> DiameterClassification:
    """Full case analysis for theta_min <= -(D-1)/D k, D in {4, 5}: one loop
    over the stages, each a list of its lines and the spaces it enumerates.

    One rule sorts every survivor: a bipartite one (every a_i = 0) is set
    aside as killed["bipartite"], and any other joins the stage's arrays, as
    a discrepancy unless it is a witness of diameter D in the space.  A
    missing witness is one too."""
    if D not in (4, 5):
        raise SearchSpecError("classification covers D in {4, 5}")
    ratio = Fraction(-(D - 1), D)

    def space(k_min, k_max, a_pattern, c2_set=(1, 2)):
        return SearchSpec(D, k_min, k_max, a_pattern, c2_set, ratio)

    def capped(branch, a_pattern, suffix=""):
        cap = valency_cap(D, branch)
        return [*(s.fmt() for s in cap.steps), f"k <= {cap.k_max}{suffix}",
                space(5, cap.k_max, a_pattern)]

    cap2 = pentagon_exclusion_cap(ratio)
    a3 = []
    for c2 in (1, 2):
        cap3 = eta_exclusion_cap(3, p_polynomials(3, 2), ratio, (c2,))
        a3.append(f"eta = 2 inequality forces k <= {cap3} when c_2 = {c2}")
        if cap3 is not None and cap3 >= 5:
            a3.append(space(5, cap3, ZERO * 2 + NONZERO + FREE * (D - 3), (c2,)))
    if D == 5:
        # k = 5, c_2 = 2, a_3 != 0, D = 5 admits no graph (classification of known
        # small-valency results).  Under the default checks c2_bound already kills
        # all 30 arrays of that space; the line stays as the paper's argument.
        a3.append("k = 5 case covered by the catalog exclusion: "
                  "no graph exists with D=5, k=5, c_2=2, a_3 != 0")
    plans = [
        ("k <= 4", "small-valency catalog (k <= 4)", [space(2, 4, FREE * D, (1, 2, 3, 4))]),
        ("a2", "a_2 != 0 excluded", [
            f"girth-5 cycle inequality forces k <= {cap2}",
            space(5, cap2, ZERO + NONZERO + FREE * (D - 2)) if cap2 is not None and cap2 >= 5
            else "below the k >= 5 regime: branch closed"]),
        ("a3", "a_3 != 0 excluded", a3)]
    if D == 5:
        plans.append(("a4", "a_4 != 0 excluded", capped("a4", "000+*", " on this branch")))
    plans.append(("main", f"main enumeration (a_i = 0 below D, a_{D} != 0)",
                  capped("main", ZERO * (D - 1) + NONZERO)))

    witnesses = [parse_array(text) for _graph, text, _name in WITNESSES]
    stages, discrepancies = [], []
    for key, name, items in plans:
        lines, arrays, stats = [], [], None
        for item in items:
            if isinstance(item, str):
                lines.append(item)
                continue
            res = enumerate_arrays(item, jobs)
            run, kept = res.stats, [a for a in res.survivors if a.t is not None]
            if len(kept) < run.survivors:
                run.kill("bipartite", run.survivors - len(kept))
                run.survivors = len(kept)
            if key != "k <= 4":  # that stage names its arrays instead
                only_c2 = f", c_2 = {item.c2_set[0]}" if len(item.c2_set) == 1 else ""
                lines.append(f"enumeration k in [{item.k_min},{item.k_max}]{only_c2}: "
                             f"{run.survivors} survivors")
            expected = [w for w in witnesses if item.contains(w)]
            unexpected = [arr for arr in kept if arr not in expected]
            discrepancies += [f"{key} stage: unexpected survivor {format_array(arr)}"
                              for arr in unexpected]
            discrepancies += [f"{key} stage: missing {format_array(w)}"
                              for w in expected if w not in kept]
            arrays += [w for w in expected if w in kept] + unexpected
            stats = run if stats is None else stats.merged_with(run)
        if key == "k <= 4":
            lines += [named(arr) for arr in arrays]
        stages.append(Stage(name, tuple(lines), tuple(arrays), stats))
    arrays = tuple(arr for stage in stages for arr in stage.arrays)
    return DiameterClassification(D, tuple(stages), arrays, tuple(discrepancies))
