"""drgf benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {theorem2,enumerate-jobs2,audit} \\
        --seed N --seconds T --trace {0,1}

Run it from the root of a drgf checkout (the directory holding src/drgf).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of
the run goes to .perfbench_out/.  See perfbench/README.md for the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("theorem2", "enumerate-jobs2", "audit")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACE_SEED = 0
CHILD_TIMEOUT_S = 60
# No operation starts once the run could not finish it by this deadline.
DEADLINE_S = 140

KILL_CHECKS = ("a1_zero", "c2_bound", "k_integrality", "trace_vs_ratio",
               "theta_ratio", "multiplicity_integrality",
               "odd_girth_inequality", "trace_square")
TREE_KILLS = ("a1_zero", "c2_bound", "k_integrality")
LAYER_FUNCTIONS = ("spectral.eigenvalues_float", "spectral.sturm_count_leq",
                   "spectral.trace_of_l_squared", "spectral.abs_u_lower_bounds",
                   "spectral.spectrum", "feasibility.full_report",
                   "feasibility.check_odd_girth_inequality", "bound.bound_table",
                   "bound.epsilon1", "oracle.build", "oracle.verify_distance_regular",
                   "oracle.spectrum_bruteforce", "oracle.odd_girth_bruteforce")
CAPS = ("search.valency_cap", "search.pentagon_exclusion_cap",
        "search.eta_exclusion_cap")


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root, code_args):
    """Run a fresh interpreter and return the float on its last output line."""
    out = subprocess.run([sys.executable] + code_args, cwd=root, env=child_env(root),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"child {code_args} failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def setup_seconds(root, workload, seed):
    """Fresh process start until the workload's inputs are ready, drgf
    import included; perf_counter is CLOCK_MONOTONIC, shared by processes."""
    t0 = time.perf_counter()
    ready = run_child(root, [str(HERE / "run.py"), "--setup-only", "--workload",
                             workload, "--seed", str(seed)])
    return ready - t0


def cli_import_seconds(root):
    code = ("import time; t = time.perf_counter(); import drgf.cli; "
            "print(time.perf_counter() - t)")
    return run_child(root, ["-c", code])


def cpu_seconds():
    """User + system CPU of this process, its threads and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest resident set of this process or of any reaped child (pool
    workers and the set-up interpreters), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_facts():
    import mpmath
    import numpy
    import scipy
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "mpmath": mpmath.__version__,
             "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        with open("/proc/self/status") as fh:
            threads = [ln.split()[1] for ln in fh if ln.startswith("Threads:")]
        facts["process_threads"] = int(threads[0])
    except OSError:
        pass
    return facts


class Runner:
    """Times whole operations and collects their check results."""

    def __init__(self, start):
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = []
        self.cpu = []

    def op(self, fn, check):
        """(output, wall seconds) of one operation, or None if it raised."""
        self.attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(cpu_seconds() - c0)
        self.problems += check(out)
        return out, self.wall[-1]

    def loop(self, workload, seconds, between):
        """Whole operations until `seconds` have passed (at least one);
        between(elapsed) runs before each operation, outside its timing."""
        t_loop = time.perf_counter()
        while True:
            between(time.perf_counter() - t_loop)
            self.op(workload.run, workload.check)
            now = time.perf_counter()
            longest = max(self.wall, default=now - t_loop)
            if now - t_loop >= seconds or now - self.start + longest > DEADLINE_S:
                return


def end_to_end(root, args, start):
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(start)
    runner.problems += workload.warm_up()
    setups = []

    def sample_setup(elapsed):
        # The machine's speed drifts over tens of seconds, so the set-up
        # samples are spread over the run (at most one between operations,
        # the rest at the end) rather than taken back to back.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_seconds(root, args.workload, args.seed))

    runner.loop(workload, args.seconds, sample_setup)
    while len(setups) < SETUP_REPEATS:
        sample_setup(args.seconds)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_s": {"value": statistics.median(runner.wall or [0.0]), "unit": "s"},
        "cpu_s": {"value": statistics.median(runner.cpu or [0.0]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    record = {"setup_s": setups, "op_s": runner.wall, "cpu_s": runner.cpu}
    return runner, metrics, record


def traced(root, args, start):
    """One traced operation of every workload (enumerate-jobs2 run serially,
    since wrappers do not reach pool workers), the same operations untraced,
    and one jobs=2 operation for the pool efficiency.

    The audit's must-fail set comes from TRACE_SEED whatever --seed is: the
    Sturm isolation of a random array takes an array-dependent number of
    calls, and the counts of a traced run must repeat exactly."""
    import workloads
    from tracer import Tracer

    imports = [cli_import_seconds(root) for _ in range(IMPORT_REPEATS)]
    theorem2 = workloads.Theorem2(TRACE_SEED)
    enum = workloads.EnumerateJobs2(TRACE_SEED)
    audit = workloads.Audit(TRACE_SEED)
    serial = ((theorem2.run, theorem2.check),
              (lambda: workloads.enumerate_specs(enum.specs, jobs=1), enum.check),
              (audit.run, audit.check))
    runner = Runner(start)
    runner.problems += audit.warm_up()
    tracer = Tracer()
    untraced, traced_ops = [], []
    for fn, check in serial:
        untraced.append(runner.op(fn, check))
        with tracer:
            traced_ops.append(runner.op(fn, check))
    if runner.failed:
        return runner, {}, {}
    enum.reference = workloads.enumeration_outputs(traced_ops[1][0])
    pool = runner.op(enum.run, enum.check)
    if pool is None:
        return runner, {}, {}

    stats = tracer.enumerations
    killed = {name: sum(s["killed"].get(name, 0) for s in stats) for name in KILL_CHECKS}
    survivors = sum(s["survivors"] for s in stats)
    enum_name = "search.enumerate_arrays"
    screens = tracer.calls("spectral.eigenvalues_float", {enum_name})
    exact = tracer.calls("spectral.spectrum", {enum_name})
    m = {
        "search.enumerate_s": tracer.seconds(enum_name),
        "search.enumerate_calls": tracer.calls(enum_name),
        "search.walk_self_s": tracer.self_seconds(enum_name),
        "search.caps_s": sum(tracer.seconds(n, exclude_parents=CAPS) for n in CAPS),
        "search.valency_cap_s": tracer.seconds("search.valency_cap"),
        "search.valency_cap_calls": tracer.calls("search.valency_cap"),
        "search.eta_exclusion_cap_s": tracer.seconds("search.eta_exclusion_cap"),
        "search.eta_exclusion_cap_calls": tracer.calls("search.eta_exclusion_cap"),
        "search.generated": sum(s["generated"] for s in stats),
        "search.candidates": survivors + sum(
            v for k, v in killed.items() if k not in TREE_KILLS),
        "search.survivors": survivors,
    }
    m.update({f"search.killed.{k}": v for k, v in killed.items()})
    m["search.screen_decided_ratio"] = (screens - exact) / screens if screens else 0.0
    m["search.pool_efficiency"] = untraced[1][1] / (2 * pool[1])
    for name in LAYER_FUNCTIONS:
        m[f"{name}_s"] = tracer.seconds(name)
        m[f"{name}_calls"] = tracer.calls(name)
    m["cli.import_s"] = statistics.median(imports)
    m["trace.overhead_s"] = sum(t for _o, t in traced_ops) - sum(t for _o, t in untraced)
    ratios = ("search.screen_decided_ratio", "search.pool_efficiency")
    metrics = {name: {"value": v, "unit": "s" if name.endswith("_s") else
                      "ratio" if name in ratios else "count"}
               for name, v in m.items()}
    record = {"op_s": runner.wall, "cli_import_s": imports, "spans": tracer.to_json(),
              "enumerations": stats}
    return runner, metrics, record


def main(argv=None):
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import drgf, build the inputs, print the clock and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "drgf" / "__init__.py").is_file():
        print(f"error: {root} holds no src/drgf; run from a drgf checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter())
        return 0

    measure = traced if args.trace else end_to_end
    runner, metrics, record = measure(root, args, start)
    correct = not runner.problems
    for p in runner.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record.update(args=vars(args), machine=machine_facts(), problems=runner.problems,
                  metrics=metrics, wall_s=time.perf_counter() - start)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
