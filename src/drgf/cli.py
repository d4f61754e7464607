"""Command-line front end.

Exit codes: 0 success (and, for verdict-producing commands, a pass),
1 semantic failure (feasibility fail, classification discrepancy, oracle
disagreement), 2 usage or parse errors, 3 an inconclusive feasibility report
(no check fails, but at least one could not be decided).

Each subcommand names its usage errors, which main alone turns into one
`error: ...` line and exit 2: check ArrayFormatError; enumerate
SearchSpecError, CapDerivationError, OSError and JSONDecodeError; theorem2
SearchSpecError; bound BoundError; verify OracleError and OSError.  Any other
exception propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from mpmath import mp

from . import bound, oracle, search
from .core import ArrayFormatError, format_array, parse_array
from .feasibility import full_report
from .spectral import as_mpf, num_str, spectrum, workdps

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE = 0, 1, 2, 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _jobs(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive worker count: {text!r}")
    return int(text)


def _girth_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range GMIN..GMAX: {text!r}")


def _nstr(x, digits: int = 10) -> str:
    with workdps():
        return mp.nstr(as_mpf(x), digits)


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    arr = parse_array(args.array)
    rep = full_report(arr, theta_ratio=args.theta_ratio)
    if args.json:
        print(json.dumps(rep.to_json_dict()))
    else:
        print(f"array {format_array(arr)}  D={arr.D} k={arr.k} v={arr.v}")
        for e in rep.checks:
            print(f"  {e.name:32s} {e.verdict}")
        print(f"overall: {rep.overall}")
    return {"pass": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE}.get(rep.overall, EXIT_FAIL)


# ------------------------------------------------------------ enumerate

def _spec_from_args(args) -> search.SearchSpec:
    if args.spec:
        flags = ("diameter", "k_min", "k_max", "a_pattern", "c2", "theta_ratio")
        if given := ["--" + f.replace("_", "-") for f in flags if getattr(args, f) is not None]:
            raise search.SearchSpecError(f"--spec FILE sets the whole space: drop {', '.join(given)}")
        with open(args.spec) as fh:
            return search.SearchSpec.from_json_dict(json.load(fh))
    if args.diameter is None:
        raise search.SearchSpecError("need --spec FILE or --diameter D")
    D = args.diameter
    return search.SearchSpec(
        D=D,
        k_min=args.k_min if args.k_min is not None else 5,
        k_max=args.k_max if args.k_max is not None else search.valency_cap(D).k_max,
        a_pattern=args.a_pattern or "0" * (D - 1) + "+",
        c2_set=args.c2 or (1, 2),
        theta_ratio=args.theta_ratio if args.theta_ratio is not None
        else Fraction(-(D - 1), D) if D > 1 else None,  # -(D-1)/D is 0 at D = 1
    )


def cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    out = open(args.csv, "w", newline="") if args.csv else None  # fail before the run
    result = search.enumerate_arrays(spec, jobs=args.jobs)
    rows = []
    for arr in result.survivors:
        sp = result.reports[format_array(arr)].spectrum
        rows.append({
            "array": format_array(arr), "k": arr.k, "D": arr.D,
            "v": arr.v.numerator if arr.v.denominator == 1 else num_str(arr.v),
            "odd_girth": arr.g if arr.g else "bipartite",
            "theta_min": _nstr(sp.theta_min, 12),
        })
    if args.json:
        print(json.dumps({
            "spec": spec.to_json_dict(),
            "survivors": rows,
            "stats": result.stats.to_json_dict(),
        }))
    else:
        for row in rows:
            print(f"survivor {row['array']}")
        print(f"generated {result.stats.generated}")
        for name, n in sorted(result.stats.killed.items()):
            print(f"  killed by {name:28s} {n}")
        print(f"survivors {result.stats.survivors}")
    if out:
        with out:
            w = csv.DictWriter(out, fieldnames=["array", "k", "D", "v",
                                                "odd_girth", "theta_min"])
            w.writeheader()
            w.writerows(rows)
    return EXIT_OK


# ------------------------------------------------------------- theorem2

def cmd_theorem2(args) -> int:
    result = search.classify_diameter(args.diameter, jobs=args.jobs)
    if args.json:
        print(json.dumps({
            "D": result.D,
            "stages": [{"name": s.name, "lines": list(s.lines),
                        "arrays": [format_array(a) for a in s.arrays],
                        "stats": s.stats.to_json_dict() if s.stats else None}
                       for s in result.stages],
            "arrays": [format_array(a) for a in result.arrays],
            "discrepancies": list(result.discrepancies),
        }))
    else:
        D = result.D
        print(f"classification for diameter {D}, theta_min <= -{D - 1}/{D} k")
        for s in result.stages:
            print(f"[stage] {s.name}")
            for line in s.lines:
                print(f"  {line}")
        print(f"result: {len(result.arrays)} arrays")
        for arr in result.arrays:
            print(f"  {search.named(arr)}")
        for d in result.discrepancies:
            print(f"DISCREPANCY: {d}")
    return EXIT_FAIL if result.discrepancies else EXIT_OK


# ----------------------------------------------------------------- bound

def cmd_bound(args) -> int:
    g = args.girth
    if args.table:
        if args.zeta is not None:
            raise bound.BoundError("--zeta goes with --girth, not --table")
        rows = bound.bound_table(*args.table, args.mode)
        print("g,zeta_star,epsilon1,theta_over_k")
        for gg, z, e, th in rows:
            print(f"{gg},{_nstr(z)},{_nstr(e)},{_nstr(th)}")
        return EXIT_OK
    params = bound.epsilon1(g, args.mode, zeta=args.zeta)
    print(f"odd girth g = {g} (t = {params.t}), mode = {params.mode}")
    star = " (zeta*)" if args.zeta is None else ""
    print(f"zeta = {_nstr(params.zeta)}{star}")
    print(f"M1 = {_nstr(params.M1)}, M2 = {_nstr(params.M2)}")
    if params.epsilon1 is None:
        print("no root in (-1, 0): no information at this zeta")
        return EXIT_OK
    print(f"epsilon1 = {_nstr(params.epsilon1)}")
    tb = params.theta_over_k
    print(f"theta/k >= {_nstr(tb)}  (conservative 2dp: {bound.conservative_2dp(tb)})")
    print(f"cycle-graph gap = {_nstr(bound.polygon_epsilon_upper(g))}"
          "  (bounds the full constant, not epsilon1)")
    if (z := params.zeta if args.zeta is None else args.zeta) > 0:
        print(f"diameter bound = {bound.diameter_bound(params.t, z)}")
    print(f"note: {bound.EPSILON_CAVEAT}")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    g = oracle.build(args.graph)
    if args.export:
        g.write_edge_list(args.export)
    print(f"graph {g.name}: {g.n} vertices, {len(g.edges)} edges")
    arr, witness = oracle.verify_distance_regular(g)
    if arr is None:
        print(f"not distance-regular: witness (x, y, i) = {witness}")
        return EXIT_FAIL
    print(f"intersection array (BFS): {format_array(arr)}")
    og = oracle.odd_girth_bruteforce(g)
    print(f"odd girth (BFS): {og}")
    vals, mults = oracle.spectrum_bruteforce(g)
    print("spectrum (dense): " + ", ".join(
        f"{v:.6f}^{m}" for v, m in zip(vals, mults)))

    sp = spectrum(arr)
    agree_spec = len(vals) == len(sp.thetas) and all(
        abs(float(as_mpf(t)) - v) < 1e-7 for t, v in zip(sp.thetas, vals))
    agree_mult = tuple(mults) == sp.mults
    og_arr = arr.g if arr.g is not None else oracle.BIPARTITE
    agree_og = og == og_arr
    catalog = dict(oracle.CATALOG)
    agree_arr = True
    print("agreement with array-derived values:")
    if g.name in catalog:
        agree_arr = format_array(arr) == catalog[g.name]
        print(f"  intersection array vs catalog: {'agree' if agree_arr else 'DISAGREE'}")
    print(f"  spectrum: {'agree' if agree_spec else 'DISAGREE'}")
    print(f"  multiplicities: {'agree' if agree_mult else 'DISAGREE'}")
    print(f"  odd girth: {'agree' if agree_og else 'DISAGREE'}")
    all_ok = agree_arr and agree_spec and agree_mult and agree_og
    return EXIT_OK if all_ok else EXIT_FAIL


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drgf",
        description="Distance-regular graph intersection-array toolkit: "
                    "feasibility checks, spectral odd-girth bounds, "
                    "classification searches, and brute-force graph oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the feasibility battery on one array")
    p.add_argument("array", help="intersection array, e.g. '{3,2;1,1}'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--theta-ratio", type=_fraction, default=None,
                   help="also require theta_min <= RATIO * k (e.g. --theta-ratio=-3/4)")
    p.set_defaults(func=cmd_check, usage_errors=ArrayFormatError)

    p = sub.add_parser("enumerate", help="exhaust a search space of arrays")
    p.add_argument("--spec", help="JSON search-spec file")
    p.add_argument("--diameter", "-d", type=int)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--a-pattern", help="one char per a_1..a_D: 0 zero, + nonzero, * free")
    p.add_argument("--c2", type=_int_list,
                   help="comma list of allowed c_2 values (default 1,2)")
    p.add_argument("--theta-ratio", type=_fraction, default=None,
                   help="require theta_min <= RATIO * k (e.g. --theta-ratio=-3/4)")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", help="write survivors to a CSV file")
    p.set_defaults(func=cmd_enumerate, usage_errors=(
        search.SearchSpecError, search.CapDerivationError, OSError, json.JSONDecodeError))

    p = sub.add_parser("theorem2", help="reproduce the diameter-4/5 classification")
    p.add_argument("--diameter", "-d", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theorem2, usage_errors=search.SearchSpecError)

    p = sub.add_parser("bound", help="odd-girth smallest-eigenvalue bound")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--girth", "-g", type=int)
    what.add_argument("--table", type=_girth_range, metavar="GMIN..GMAX",
                      help="emit a CSV table over a girth range")
    p.add_argument("--zeta", type=_fraction, default=None,
                   help="branch parameter in [0, 1/2]; default zeta*")
    p.add_argument("--mode", default=bound.MODE_GENERAL, choices=bound.MODES)
    p.set_defaults(func=cmd_bound, usage_errors=bound.BoundError)

    p = sub.add_parser("verify", help="brute-force check a named witness graph")
    p.add_argument("graph", help="cycle:N, odd_graph:M, folded_cube:N, coxeter")
    p.add_argument("--export", help="write the edge list to a file")
    p.set_defaults(func=cmd_verify, usage_errors=(oracle.OracleError, OSError))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except args.usage_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
