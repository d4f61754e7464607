"""Alternating parent/change pairs of perfbench/run.py, summarised as a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        --seeds 2101-2110

DIR is a git checkout (the directory holding src/drgf and perfbench/) of each
side.  The script stops before any run unless both hold the same bytes in
perfbench/ and BENCHMARK.json; the workloads and the run length are those
of BENCHMARK.json.  For each workload, pair i runs the seed at position i on
both sides, the parent first in odd pairs and the change first in even ones.
Every end-to-end metric is summarised by each side's median and inclusive
quartiles, by the number of pairs in which the change read lower and by each
pair's change/parent ratio, with two verdicts (see verdict): whether the
change shows a gain, and whether its median is past the metric's regression
bound in BENCHMARK.json.  The ratios tell a load drift, which moves both
sides of a pair, from an effect, which moves the ratio.  Then
one traced run per side (parent first) is made for each workload, with the
first seed.  Runs are sequential: nothing else of this script runs while one
is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SKIPPED = {"__pycache__", ".perfbench_out"}


def bench_files(root: Path) -> dict:
    """The bytes of BENCHMARK.json and of every file under perfbench/, by relative path."""
    files = [root / "BENCHMARK.json"] + [
        p for p in sorted((root / "perfbench").rglob("*"))
        if p.is_file() and not SKIPPED & set(p.relative_to(root).parts)]
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON object on the last output line of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def verdict(parent: list[float], change: list[float], metric: dict) -> dict:
    """The gain rule and the regression bound for one metric of BENCHMARK.json,
    every one of which is better lower.

    A gain needs the change to read lower in at least nine tenths of the
    pairs, a tie counting for neither side, and the medians to differ by more
    than the parent's interquartile range.  past_bound says whether the
    change's median exceeds the parent's times 1 + metric["bound"].
    pair_ratios holds each pair's change/parent (None where the parent read 0).
    """
    lower = sum(c < p for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gap = round(p["median"] - c["median"], 4)
    return {"change_lower_in_pairs": f"{lower}/{len(parent)}",
            "pair_ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
            "median_gap": gap, "parent_iqr": p["iqr"],
            "gain": lower >= 0.9 * len(parent) and gap > p["iqr"],
            "bound": metric["bound"],
            "past_bound": c["median"] > p["median"] * (1 + metric["bound"])}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = next((ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo")
                if ln.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "platform": platform.platform()}


def pairs(sides: dict, workload: str, seeds: list[int], seconds: float,
          metrics: list[dict]) -> dict:
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], workload, seed, seconds, 0))
            print(f"{workload} pair {i + 1} seed {seed} {side}: "
                  f"op_s {runs[side][-1]['metrics']['op_s']['value']:.4f}", file=sys.stderr)
    out = {"pairs": len(seeds), "seeds": seeds,
           "correct": all(r["correct"] for rs in runs.values() for r in rs),
           "failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
           "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()}}
    for metric in metrics:
        name = metric["name"]
        values = {s: [round(r["metrics"][name]["value"], 4) for r in rs] for s, rs in runs.items()}
        out[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                     "parent": summary(values["parent"]), "change": summary(values["change"]),
                     **verdict(values["parent"], values["change"], metric),
                     "parent_runs": values["parent"], "change_runs": values["change"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="FIRST-LAST")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_files, change_files = (bench_files(root) for root in sides.values())
    if parent_files != change_files:
        differ = sorted(p for p in parent_files.keys() | change_files.keys()
                        if parent_files.get(p) != change_files.get(p))
        sys.exit(f"error: the checkouts differ in {', '.join(differ)}")
    spec = json.loads(change_files["BENCHMARK.json"])
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    bench = {
        "what": "Parent and change medians and quartiles of the end-to-end metrics of "
                "perfbench/run.py, from the last JSON line of each run, over "
                f"{len(args.seeds)} alternating pairs per workload (odd pairs run the parent "
                "first, even pairs the change); each side ran from its own checkout, whose "
                "perfbench/ and BENCHMARK.json were checked to be byte-identical first. "
                "gain: lower in at least 9/10 of the pairs (ties count for neither side) and a "
                "median gap above the parent's IQR; past_bound: the change's median above the "
                "parent's times 1 + the BENCHMARK.json bound; pair_ratios: each pair's "
                "change/parent, in pair order.",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "parent_sha": git(sides["parent"], "rev-parse", "HEAD"),
        "change": git(sides["change"], "log", "-1", "--format=%H %s"),
        "machine": machine(),
        "workloads": {w: pairs(sides, w, args.seeds, seconds, spec["end_to_end"])
                      for w in workloads},
    }
    seed = args.seeds[0]
    traced = {w: {s: run(root, w, seed, seconds, 1)["metrics"] for s, root in sides.items()}
              for w in workloads}
    bench["traced_runs"] = {
        "what": f"One traced run per side for each --workload value (python3 perfbench/run.py "
                f"--workload <workload> --seed {seed} --seconds {seconds} --trace 1), parent "
                "first; a traced run traces the same operations whatever its --workload, so "
                "the pairs are samples of one measurement. Single runs, noise not measured.",
        "workloads": {w: {name: {s: round(traced[w][s][name]["value"], 4) for s in sides}
                          for name in traced[w]["parent"]} for w in workloads},
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
