"""Pruned exhaustive enumeration of intersection arrays and the diameter-4/5
classification pipeline.

The enumerator walks (c_i, a_i) level by level under the structural
constraints (monotone c, monotone b, b_i >= 1, a-pattern), pruning whole
subtrees as soon as a prefix is doomed:

* a_1 >= 1 cannot meet theta_min <= ratio*k when ratio < -1/2;
* c_2 above the closed-form bound (2k - 2*theta)/(4 - 3*theta - k), evaluated
  at theta = ratio*k where the bound is largest, is impossible;
* k_i = k_{i-1} b_{i-1} / c_i must stay integral.

The walk takes one numpy pass per level: np.repeat expands every live prefix
into its options, in walk order, and the level's prunings kill options as
masks, each kill counting every array below the option from a table of
completion counts built once per valency, so the statistics cover the full
search space at array granularity.  A row keeps its parent's index at each
level, and tr(L^2), k_i and the Sturm minors of L at the cut ratio*k advance
by one recurrence step per level; at the leaf (a_D = k - c_D) the trace
identity (k^2 + (ratio*k)^2 <= tr(L^2)) and the exact Sturm count (theta_min
<= ratio*k) decide, and the columns of the rows kept are gathered once.  It
runs on int64, or on Python ints where an a-priori bound on the valency's
values reaches 2^63.  The rows it keeps wait across consecutive valencies
until about _SCREEN_ROWS of them go through one batched float screen of the
Biggs multiplicities (see _screen and _walk_group), which decides at
theta_min first and sends to eigvalsh only the rows it leaves undecided or
integral-looking there; each row's verdict is its own, whatever its batch.
Only the rows it keeps become arrays, and each gets one full_report (one
exact spectrum).  The first check in DEFAULT_CHECKS order that is enabled
and that the report fails kills the array, so a c2_bound or a1_zero failure
at the array's own theta_min counts even where the walk's cuts at ratio*k
let it through; a survivor keeps its report.  Each valency keeps its own
results and statistics; with jobs > 1 the caller and jobs - 1 forked
children claim valencies one at a time, largest first, from a shared counter,
and the parts merge in valency order, so no output depends on process count.

classify_diameter runs the paper's stages in one loop: k <= 4, the a_2, a_3
and (D = 5) a_4 exclusions under their derived caps, and the main space.
Each survivor that is not bipartite must be a witness in its stage's space.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import IntersectionArray, format_array, parse_array
from .feasibility import FAIL, INCONCLUSIVE, full_report, p_polynomials
from .oracle import WITNESSES
from .spectral import (SpectralError, _sign_changes, abs_u_lower_bounds,
                       implied_last_c_lower, minor_polys, multiplicities_float,
                       spectrum,  # not called here; perfbench's tracer test rebinds it
                       sqrt_bounds, theta_min_multiplicity_float)

ZERO, NONZERO, FREE = "0", "+", "*"

# A float multiplicity this far (relative) from an integer is fractional: real
# survivors' multiplicities come out within ~1e-10 of integers, and borderline
# values fall through to the exact spectrum.
SCREEN_MARGIN = 1e-4

# The float screen takes the leaf rows of consecutive valencies in batches of
# about this many rows: numpy's per-call cost is spread over many rows while
# a batch's float temporaries stay near a megabyte.
_SCREEN_ROWS = 4096

DEFAULT_CHECKS = ("a1_zero", "c2_bound", "k_integrality", "trace_vs_ratio",
                  "theta_ratio", "multiplicity_integrality",
                  "odd_girth_inequality", "trace_square")


class SearchSpecError(ValueError):
    pass


def _require_known_checks(names):
    unknown = sorted(set(names) - set(DEFAULT_CHECKS))
    if unknown:
        raise SearchSpecError(f"unknown checks {unknown}; known: {', '.join(DEFAULT_CHECKS)}")


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
        _require_known_checks(self.checks)

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
            ratio = obj.get("theta_ratio")
            if ratio is not None:
                ratio = Fraction(str(ratio))
            if type(obj["D"]) is not int:
                raise TypeError(f"D must be an integer, got {obj['D']!r}")
            k_min, k_max = _json_ints("k_range", obj["k_range"], 2)
            return cls(
                D=obj["D"], k_min=k_min, k_max=k_max,
                a_pattern=str(obj["a_pattern"]),
                c2_set=tuple(sorted(_json_ints("c2_set", obj.get("c2_set", [1, 2])))),
                theta_ratio=ratio,
                checks=tuple(obj.get("checks", DEFAULT_CHECKS)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SearchSpecError(f"bad search spec: {exc}") from exc


def _json_ints(key: str, value, n: int | None = None) -> list[int]:
    """value if it is a list of JSON integers, of length n unless n is None;
    a string, a float or a bool is no integer, and no entry is converted,
    truncated or dropped."""
    if (not isinstance(value, list) or n not in (None, len(value))
            or any(type(x) is not int for x in value)):
        raise TypeError(f"{key} must be a list of {n or 'some'} integers, got {value!r}")
    return value


def default_spec(D: int) -> SearchSpec:
    """The main-branch space: all a_i zero below the diameter, a_D nonzero,
    c_2 in {1, 2}, theta_min <= -(D-1)/D k, valency capped by valency_cap."""
    cap = valency_cap(D).k_max
    return SearchSpec(D, 5, cap, ZERO * (D - 1) + NONZERO,
                      (1, 2), Fraction(-(D - 1), D))


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

    def consistent(self) -> bool:
        return self.generated == self.survivors + sum(self.killed.values())

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


class _KSpace:
    """The search space at one valency, decided one level at a time (see run)."""

    def __init__(self, k: int, spec: SearchSpec):
        self.k = k
        self.spec = spec
        cut = None if spec.theta_ratio is None else spec.theta_ratio * k
        self._a1_prune = (
            "a1_zero" in spec.checks
            and spec.theta_ratio is not None and spec.theta_ratio < Fraction(-1, 2))
        on = set(spec.checks) - ({"trace_vs_ratio", "theta_ratio"} if cut is None else set())
        self._k_integral, self._trace_cut, self._sturm_cut = (
            name in on for name in ("k_integrality", "trace_vs_ratio", "theta_ratio"))
        # cut = p/q < 0; no cut reads the placeholder -1
        self._p, self._q = p, q = (-1, 1) if cut is None else (cut.numerator, cut.denominator)
        # floor(c2_upper_bound(k, cut)) in ints; inside its gate 4q - 3p - kq > 8q(k - 1)/7
        gated = ("c2_bound" in spec.checks and cut is not None and spec.a_pattern[0] == ZERO
                 and -k * q < p and 7 * p < (12 - 5 * k) * q)
        self._c2_cap = (2 * k * q - 2 * p) // (4 * q - 3 * p - k * q) if gated else None
        self._trace_lhs = (k * q) ** 2 + p ** 2
        # run computes nothing larger: |phi_l| <= (|p| + kq)^l, as every leading
        # block of L has its eigenvalues in [-k, k]; tr q^2 <= 3 (D + 1) k^2 q^2;
        # k_l <= k^l; and a completion count <= C(k + D, D) C(k + F, F), for the
        # monotone c and for the monotone b at the F levels below D where a_i
        # may be nonzero (elsewhere b_i = k - c_i, and b_D = 0)
        D, F = spec.D, len(spec.a_pattern[:-1].replace(ZERO, ""))
        big = max((abs(p) + k * q) ** (D + 1), 3 * (D + 1) * (k * q) ** 2,
                  math.comb(k + D, D) * math.comb(k + F, F))
        self.dtype = np.int64 if big < 2 ** 63 else object  # object: Python ints, exact

    def _options(self, level: int):
        """The options (c, b) of a level before the prunings, a = k - c - b,
        in walk order: c increasing, then a increasing (b decreasing).  A
        prefix that ends in c', b' takes those with c >= c' and b <= b'."""
        k, D, kind = self.k, self.spec.D, self.spec.a_pattern[level - 1]
        c = (np.arange(1, k + 1) if level > 2
             else np.array(sorted({1} if level == 1 else {*self.spec.c2_set})))
        c = c[c <= k]
        top = k - c - (kind == NONZERO)  # the largest b where a >= 1, or a >= 0
        hi = np.minimum(top, k if level < D else 0)  # b_D = 0
        lo = np.maximum(top if kind == ZERO else 0, level < D)  # a = 0 fixes b; b >= 1 above D
        at, i = _runs(np.maximum(hi - lo + 1, 0))
        return c[at], hi[at] - i

    def _completions(self, levels: list) -> list:
        """counts[l][c, b]: the arrays below a prefix of l - 1 levels that ends
        in c_{l-1} = c, b_{l-1} = b (c_0 = 1, b_0 = k), before any pruning."""
        counts = [np.ones((self.k + 1, self.k + 1), self.dtype)]  # past the leaf
        for c, b in reversed(levels):
            w = np.zeros_like(counts[0])
            w[c, b] = counts[0][c, b]
            counts.insert(0, w[::-1].cumsum(0)[::-1].cumsum(1))  # c >= c', b <= b'
        return [None] + counts

    def run(self) -> tuple[np.ndarray, PruningStats]:
        """The leaf rows at this valency that the prunings keep, as one (n, 2D)
        int matrix of b_0..b_{D-1}, c_1..c_D in walk order, and the stats of
        their kills; the float screen comes after.

        Level by level, np.repeat expands every live prefix into its options
        in walk order, and the level's checks kill options as masks, in
        DEFAULT_CHECKS order, each kill weighted by the arrays below the
        option (one at the leaf).  tr(L^2), k_l b_l and the Sturm minors at
        the cut advance by one step for the options kept, and each keeps its
        parent's index; at the leaf the trace and Sturm cuts apply to them."""
        k, D, p, q, dt = self.k, self.spec.D, self._p, self._q, self.dtype
        levels = [self._options(level) for level in range(1, D + 1)]
        counts = self._completions(levels)
        stats = PruningStats(generated=int(counts[1][1, k]))
        # per live prefix of l - 1 levels: c_{l-1}, b_{l-1} (c_0 = 1, b_0 = k),
        # k_{l-1} b_{l-1}, tr = sum a_i^2 + 2 sum b_{i-1} c_i so far, the minors
        # phi_{l-1}, phi_l at cut = p/q (times q^l) and whether phi_0..phi_l alternate
        # in sign, none zero (phi_0 = 1, phi_1 = p < 0); tree[l - 1]: level l's parents, c, b
        c, b, tree = np.array([1]), np.array([k]), []
        kb, tr, f0, f1 = (np.array([x], dt) for x in (k, 0, 1, p))
        alternate = np.array([True])

        def drop(name, fails):  # each live option that fails, with the arrays below it
            fails &= ok
            stats.kill(name, int(fails.sum() if below is None else below[c[fails], b[fails]].sum()))
            ok[fails] = False

        for level, (c_opt, b_opt) in enumerate(levels, 1):
            # a prefix takes the options from its first c >= c_{l-1} on
            start = np.searchsorted(c_opt, c)
            at, i = _runs(len(c_opt) - start)
            opt, b_prev = start[at] + i, b[at]
            c, b = c_opt[opt], b_opt[opt]
            below, ok = None if level == D else counts[level + 1], b <= b_prev
            if level == 1 and self._a1_prune:
                drop("a1_zero", c + b != k)  # a_1 != 0
            if level == 2 and self._c2_cap is not None:
                drop("c2_bound", c > self._c2_cap)
            if level >= 2 and self._k_integral:  # k_l = k_{l-1} b_{l-1} / c_l
                drop("k_integrality", kb[at] % c.astype(dt) != 0)
            at, c, b = at[ok], c[ok], b[ok]
            tree.append((at, c, b))
            # Python ints on the object path, so that no product wraps
            a_l, c_l, bc = (x.astype(dt, copy=False) for x in (k - c - b, c, b_prev[ok] * c))
            # phi_{l+1} = (p - a_l q) phi_l - b_{l-1} c_l q^2 phi_{l-1}
            f0, f1 = f1[at], (p - a_l * q) * f1[at] - bc * (q * q) * f0[at]
            alternate = alternate[at] & ((f1 > 0) if level % 2 else (f1 < 0))
            tr = tr[at] + a_l * a_l + 2 * bc
            kb = kb[at] // c_l * b.astype(dt) if level < D else None  # b_D = 0
        ok = np.ones(len(at), bool)
        if self._trace_cut:  # k^2 + cut^2 <= tr(L^2), times q^2
            drop("trace_vs_ratio", self._trace_lhs > tr * (q * q))
        if self._sturm_cut:  # D + 1 sign changes: no eigenvalue <= cut
            drop("theta_ratio", alternate)
        rows, cols = np.flatnonzero(ok), []  # b_1, c_1, .., b_D, c_D of the rows kept
        for at, c, b in reversed(tree):
            cols, rows = [b[rows], c[rows]] + cols, at[rows]
        return np.column_stack([np.full(len(rows), k)] + cols[:-2:2] + cols[1::2]), stats


def _runs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of lengths n laid end to end, each element's run and its place in it."""
    at = np.repeat(np.arange(len(n)), n)
    return at, np.arange(len(at)) - (np.cumsum(n) - n)[at]


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
                ks) -> Iterator[tuple[int, list[IntersectionArray], PruningStats]]:
    """Each valency k that the iterable ks gives, in its order, with the
    arrays that its level pass and the float screen keep, in walk order, and
    the stats of their kills.

    The leaf rows of consecutive valencies wait in one list until it holds
    _SCREEN_ROWS rows, or ks ends, and are then screened in one _screen
    call, so a batch holds fewer than _SCREEN_ROWS rows plus one valency's.
    A row's verdict does not depend on its batch."""
    screen = "multiplicity_integrality" in spec.checks
    waiting, stack, n = [], [], 0  # the valencies and the leaf rows not yet screened
    for k in itertools.chain(ks, [None]):  # None: ks has ended
        if k is not None:
            rows, stats = _KSpace(k, spec).run()
            waiting.append((k, len(rows), stats))
            stack.append(rows)
            n += len(rows)
        if not waiting or (n < _SCREEN_ROWS and k is not None):
            continue
        # drop the per-valency rows, so that the screen runs beside one copy
        batch, stack, rows = np.vstack(stack), [], None
        keep = _screen(batch) if screen and n else np.ones(n, bool)
        at = 0
        for k, count, stats in waiting:
            rows, kept, at = batch[at:at + count], keep[at:at + count], at + count
            if not kept.all():
                stats.kill("multiplicity_integrality", int((~kept).sum()))
                rows = rows[kept]
            yield k, [IntersectionArray(tuple(row[:spec.D]), tuple(row[spec.D:]))
                      for row in rows.tolist()], stats
        waiting, n = [], 0


def _run_group(spec: SearchSpec, ks) -> list:
    """(k, survivors as (array, report) pairs, stats) for each valency of ks,
    in order: the first check in DEFAULT_CHECKS order that is enabled and
    that an array's one full_report fails kills it, and an odd-girth check
    reached with no failure but an undecided entry leaves a warning."""
    parts = []
    for k, arrays, stats in _walk_group(spec, ks):
        survivors = []
        for arr in arrays:
            report = full_report(arr, spec.theta_ratio)
            if report.spectrum is None:
                raise SpectralError(f"{format_array(arr)}: {report.checks[0].witness['error']}")
            for name in (c for c in DEFAULT_CHECKS if c in spec.checks):
                verdict = report.verdict(name)
                if verdict == FAIL:
                    stats.kill(name)
                    break
                if name == "odd_girth_inequality" and verdict == INCONCLUSIVE:
                    stats.warnings.append(f"{format_array(arr)}: odd-girth inequality inconclusive")
            else:
                survivors.append((arr, report))
        stats.survivors = len(survivors)
        parts.append((k, survivors, stats))
    return parts


def _claims(ks, counter, stalled=lambda: None) -> Iterator[int]:
    """The valencies of ks that this process claims in turn from the shared counter, its lock
    held for the read and the increment; stalled() runs while a holder keeps it past 0.1 s."""
    lock = counter.get_lock()
    while True:
        while not lock.acquire(timeout=0.1):
            stalled()
        i, counter.value = counter.value, counter.value + 1
        lock.release()
        if i >= len(ks):
            return
        yield ks[i]


def _send_share(conn, spec: SearchSpec, ks, counter) -> None:
    """A child's share: send (True, the parts of what it claims) or (False, the exception)."""
    try:
        conn.send((True, _run_group(spec, _claims(ks, counter))))
    except Exception as exc:
        conn.send((False, exc))


def enumerate_arrays(spec: SearchSpec, jobs: int = 1) -> ClassificationResult:
    """Exhaust the search space; deterministic output order (k, c-sequence).

    With jobs > 1 (one valency runs in process) the caller and jobs - 1
    forked children claim the valencies one at a time, largest first, from a
    shared counter (a multiprocessing.Value; a process's first costs about
    7 ms); the results merge in valency order, as in process.  A child's
    exception is raised here, and a child that exits without sending, even
    holding the counter's lock, raises RuntimeError naming its exit code.
    Every child is joined on every path, terminated first if alive."""
    ks = range(spec.k_min, spec.k_max + 1)
    jobs, pipes, parts = min(jobs, len(ks)), {}, []  # pipes: read end -> child, until read

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
            ks, counter = ks[::-1], multiprocessing.Value("i", 0)
            for _ in range(1, jobs):
                recv, send = multiprocessing.Pipe(duplex=False)
                pipes[recv] = multiprocessing.Process(target=_send_share,
                                                      args=(send, spec, ks, counter))
                pipes[recv].start()
                send.close()
            ks = _claims(ks, counter, lambda: receive(0))
        parts += _run_group(spec, ks)
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


def _cut_poly(F, k: int, P: int, Q: int) -> list:
    """G(x) = Q^n (1+x)^n F((P - kQx)/(Q(1+x))), n = deg F, low to high: its
    roots x > 0 are those of F in (-k, P/Q), and G(0) = Q^n F(P/Q)."""
    G, Dpow = [F[-1]], [1]
    for f in reversed(F[:-1]):  # homogeneous Horner in P - kQx and Q(1+x)
        Dpow = [Q * (x + y) for x, y in zip(Dpow + [0], [0] + Dpow)]
        G = [P * x - k * Q * y + f * d for x, y, d in zip(G + [0], [0] + G, Dpow)]
    return G


def _nonnegative_below_cut(F, k: int, cut: Fraction) -> bool:
    """Is F(theta) >= 0 for some theta in (-k, cut]?  At the cut, where G(0)
    has F's sign, or at a root of F inside, a root x > 0 of G."""
    G = _cut_poly(F, k, cut.numerator, cut.denominator)
    return G[0] >= 0 or _has_positive_root(G)


def _interpolate(values) -> list[int]:
    """(n-1)! times the polynomial of degree < n = len(values) through the
    (m, values[m]), low to high: Newton's sum_j (forward difference d_j) C(m, j)."""
    n, coeffs, falling, diffs = len(values), [0] * len(values), [1], list(values)
    for j in range(n):  # falling = m(m-1)...(m-j+1) = j! C(m, j)
        w = diffs[0] * math.factorial(n - 1) // math.factorial(j)
        coeffs = [c + w * x for c, x in zip(coeffs, falling + [0] * n)]
        falling = [y - j * x for x, y in zip(falling + [0], [0] + falling)]
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return coeffs


def _shift_bound(g) -> int | None:
    """Least K >= 0 where g(K + y) has no positive coefficient, so g < 0 past K, for g
    with a negative leading coefficient, else None.  Putting 1 + y for y keeps the
    coefficients non-positive, so doubling then bisection finds K."""
    if next((x for x in reversed(g) if x), 0) >= 0:
        return None

    def settled(K):  # the Taylor shift g(K + y) = sum_j y^j sum_i C(i, j) K^(i-j) g_i
        return all(sum(math.comb(i, j) * K ** (i - j) * x for i, x in enumerate(g[j:], j)) <= 0
                   for j in range(len(g)))

    hi = 0
    while not settled(hi):
        hi = 2 * hi + 1
    return bisect_left(range(hi // 2, hi + 1), True, key=settled) + hi // 2


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
    """K_0 of eta_exclusion_cap's proof: eta_feasible is false past it."""
    (P, Q), K0 = Fraction(theta_ratio).as_integer_ratio(), 0
    for c2, top in [(c2, top) for c2 in c2_values for top in (False, True)[:1 + (t == 4)]]:
        b = Fraction(c3_ratio_cap or 1).denominator if top else 1
        for r in range(1, b + 1):
            G = [_cut_poly(_eta_poly(k, p_values, (1, c2, _c3_top(k, c3_ratio_cap) if top
                                                   else c2)[:t - 1]), k, P * k, Q)
                 for k in (b * m + r for m in range(t + 1))]
            for i, values in enumerate(zip(*G)):
                if (M := _shift_bound(_interpolate(values))) is None:
                    raise CapDerivationError(f"eta scan end: x^{i} of G is >= 0 for large "
                                             f"k = {b}m + {r} at c_2 = {c2}, top c_3 {top}")
                K0 = max(K0, b * M + r)
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
    for ratio = P/Q, each coefficient of G = _cut_poly(F, k, Pk, Q), G(0) =
    Q^n F(cut) among them, has degree <= n = t in k and c_3, as F's theta^j
    coefficient has degree <= n - j.  On each class k = bm + r, r = 1..b (b
    the cap's denominator at the top c_3, else 1), c_3 is affine in m, so
    each is an integer polynomial g(m), exact from its values at m = 0..n
    and negative past _shift_bound's M (if its leading coefficient is not
    negative, CapDerivationError).  Past every bM + r, G(0) < 0 and G has
    no root x > 0: all its coefficients are negative.
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
    side within 2^-64, from the matching end of sqrt_bounds.
    """
    theta_ratio, c2_max = Fraction(-(D - 1), D), 2
    rho = -theta_ratio
    steps: list[CapStep] = []

    def publish(name, raw, upper=False):
        pub = _ceil4(raw) if upper else _floor4(raw)
        steps.append(CapStep(name, raw, pub))
        return pub

    def publish_u_chain(anchor):
        lows = abs_u_lower_bounds(anchor, (rho, 1), [1, c2_max])
        return [publish(f"u{i}_lower", lows[i]) for i in (1, 2, 3)]

    if D == 4 and branch == "main":
        anchor = 36
        u1, u2, u3 = publish_u_chain(anchor)
        c4r = publish("c4_over_k_lower",
                      implied_last_c_lower(4, anchor, theta_ratio * anchor) / anchor)
        mbound = max(1 / (u1 * u1), 1 / (u2 * u2), (1 / (u3 * u3)) * (1 + 1 / c4r))
        steps.append(CapStep("multiplicity_bound", mbound, _ceil4(mbound)))
        if not mbound < anchor:
            raise CapDerivationError(
                f"multiplicity_bound: expected a contradiction below k = {anchor}, "
                f"got {float(mbound):.4f}")
        return CapDerivation(D, branch, anchor, tuple(steps), anchor - 1)

    if D == 5 and branch == "a4":
        anchor = 24
        split = eta_exclusion_cap(4, p_polynomials(4, -1), theta_ratio, tuple(range(1, c2_max + 1)),
                                  c3_ratio_cap=Fraction(3750, 10000))
        steps.append(CapStep("low_c3_cap", split, Fraction(split)))
        u1, u2, u3 = publish_u_chain(anchor)
        x_hi = (1 - Fraction(3750, 10000)) / Fraction(3750, 10000)
        mbound = max(1 / (u1 * u1), 1 / (u2 * u2), (1 / (u3 * u3)) * (1 + x_hi + x_hi * x_hi))
        steps.append(CapStep("multiplicity_bound", mbound, _ceil4(mbound)))
        high = max(anchor - 1, mbound.numerator // mbound.denominator)  # m integral
        return CapDerivation(D, branch, anchor, tuple(steps), max(split, high))

    if D == 5 and branch == "main":
        anchor = 71
        u1, u2, u3 = publish_u_chain(anchor)
        # m >= k >= anchor forces the tail term of the multiplicity bound
        # above anchor: anchor <= (1/u3^2)(1 + x + x^2), x = (k - c3)/c3, so x
        # is at least (sqrt(4 anchor u3^2 - 3) - 1)/2, here bounded from below
        x_lo = (sqrt_bounds(4 * anchor * u3 * u3 - 3)[0] - 1) / 2
        c3r = publish("c3_over_k_upper", 1 / (1 + x_lo), upper=True)
        u4 = publish("u4_lower", abs_u_lower_bounds(anchor, (rho, 1), [1, c2_max, c3r * anchor])[4])
        c5r = publish("c5_over_k_lower",
                      implied_last_c_lower(5, anchor, theta_ratio * anchor) / anchor)
        mbound = max(1 / (u1 * u1), 1 / (u2 * u2), 1 / (u3 * u3), (1 / (u4 * u4)) * (1 + 1 / c5r))
        steps.append(CapStep("multiplicity_bound", mbound, _ceil4(mbound)))
        cap = max(anchor - 1, mbound.numerator // mbound.denominator)
        return CapDerivation(D, branch, anchor, tuple(steps), cap)

    raise CapDerivationError(f"no cap pipeline for D={D} branch={branch!r}")


# ---------------------------------------------------------------------------
# the classification pipeline

# k = 5, c_2 = 2, a_3 != 0, D = 5 admits no graph (classification of known
# small-valency results).  Under the default checks c2_bound already kills all
# 30 arrays of that space; the line stays as the paper's argument.
_CATALOG_EXCLUSION_D5_K5 = "no graph exists with D=5, k=5, c_2=2, a_3 != 0"

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


def classify_diameter(D: int, jobs: int = 1,
                      disable_checks: tuple[str, ...] = ()) -> DiameterClassification:
    """Full case analysis for theta_min <= -(D-1)/D k, D in {4, 5}: one loop
    over the stages, each a list of its lines and the spaces it enumerates.

    One rule sorts every survivor: a bipartite one (every a_i = 0) is set
    aside as killed["bipartite"], the a_3 catalog exclusion gets its line,
    and any other joins the stage's arrays, as a discrepancy unless it is a
    witness of diameter D in the space.  A missing witness is one too."""
    if D not in (4, 5):
        raise SearchSpecError("classification covers D in {4, 5}")
    _require_known_checks(disable_checks)
    ratio = Fraction(-(D - 1), D)
    checks = tuple(c for c in DEFAULT_CHECKS if c not in disable_checks)

    def space(k_min, k_max, a_pattern, c2_set=(1, 2)):
        return SearchSpec(D, k_min, k_max, a_pattern, c2_set, ratio, checks)

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
        a3.append("k = 5 case covered by the catalog exclusion: " + _CATALOG_EXCLUSION_D5_K5)
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
            expected, unexpected = [w for w in witnesses if item.contains(w)], []
            for arr in kept:
                if key == "a3" and D == 5 and arr.k == 5 and arr.c[1] == 2:
                    lines.append(f"{format_array(arr)} excluded: " + _CATALOG_EXCLUSION_D5_K5)
                elif arr not in expected:
                    unexpected.append(arr)
                    discrepancies.append(f"{key} stage: unexpected survivor {format_array(arr)}")
            discrepancies.extend(f"{key} stage: missing {format_array(w)}"
                                 for w in expected if w not in kept)
            arrays += [w for w in expected if w in kept] + unexpected
            stats = run if stats is None else stats.merged_with(run)
        if key == "k <= 4":
            lines += [named(arr) for arr in arrays]
        stages.append(Stage(name, tuple(lines), tuple(arrays), stats))
    arrays = tuple(arr for stage in stages for arr in stage.arrays)
    return DiameterClassification(D, tuple(stages), arrays, tuple(discrepancies))
