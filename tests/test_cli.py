import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "drgf", *args],
                          capture_output=True, text=True, env=e)


def test_check_pass_exit0():
    r = run_cli("check", "{9,8,7,6;1,2,3,4}")
    assert r.returncode == 0
    assert "overall: pass" in r.stdout


def test_check_fail_exit1():
    r = run_cli("check", "{5,3,2,2;1,2,1,2}")
    assert r.returncode == 1
    assert "overall: fail" in r.stdout


def test_check_inconclusive_exit3(monkeypatch, capsys):
    from drgf import cli, feasibility
    monkeypatch.setattr(feasibility, "INEQ_PASS_TOL", -1e9)  # nothing passes
    assert cli.main(["check", "{9,8,7,6;1,2,3,4}"]) == cli.EXIT_INCONCLUSIVE == 3
    assert "overall: inconclusive" in capsys.readouterr().out


def test_check_without_a_spectrum_exit3(monkeypatch, capsys):
    from drgf import cli, feasibility
    from drgf.spectral import SpectralError

    def broken(arr, roots=None):
        raise SpectralError("no spectrum")

    monkeypatch.setattr(feasibility, "spectrum", broken)
    assert cli.main(["check", "{9,8,7,6;1,2,3,4}"]) == cli.EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "overall: inconclusive" in out and " fail" not in out


def test_check_lets_a_bug_in_the_spectrum_propagate(monkeypatch, capsys):
    # only a spectrum that fails to isolate reads inconclusive: any other
    # exception is a bug, neither a verdict nor a usage error
    from drgf import cli, feasibility

    def broken(arr, roots=None):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(feasibility, "spectrum", broken)
    with pytest.raises(ZeroDivisionError, match="bug"):
        cli.main(["check", "{9,8,7,6;1,2,3,4}"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("e, c, code, failing", [
    (128, 2**127, 1, ["multiplicity_integrality"]), (1100, 1, 0, [])],
    ids=["k=2^128", "k=2^1100"])
def test_check_decides_past_the_float_range(capsys, e, c, code, failing):
    # {k, k-1, c; 1, 1, k-1}: at k = 2^128 a one-root box is wider than
    # 2^120, so refine_root's last grid unit is wider than 2^-49 and the
    # enclosure must cover it; at k = 2^1100 no float holds k
    from drgf import cli
    k = 2**e
    assert cli.main(["check", "--json", f"{{{k},{k - 1},{c};1,1,{k - 1}}}"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert [ch["name"] for ch in doc["checks"] if ch["verdict"] == "fail"] == failing
    assert "inconclusive" not in {ch["verdict"] for ch in doc["checks"]}


def test_check_decides_spectrum_with_zero_eigenvalue():
    r = run_cli("check", "--json", "{6,5,5,4,2;1,1,2,2,3}")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert "spectrum" not in verdicts  # only present when the spectrum fails
    assert "inconclusive" not in verdicts.values()
    assert verdicts["multiplicity_integrality"] == "fail"
    assert verdicts["spectrum_sum_rules"] == "pass"


def test_check_parse_error_exit2():
    r = run_cli("check", "{3,2,2;1,2,1}")  # a_2 < 0: malformed array
    assert r.returncode == 2


def test_check_json_schema():
    r = run_cli("check", "--json", "{5,4,4,3;1,1,2,2}")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert list(doc.keys()) == ["array", "checks", "overall"]
    assert doc["overall"] == "pass"
    names = [c["name"] for c in doc["checks"]]
    assert "multiplicity_integrality" in names and "c2_bound" in names


def test_check_theta_ratio_flag():
    r = run_cli("check", "--theta-ratio=-9/10", "{5,4,4,3;1,1,2,2}")
    assert r.returncode == 1  # theta_min = -4 > -4.5


# the seven witness graphs of the classification, then arrays on either side
# of the a1_zero and c2_bound gates
CHECK_JSON_ARRAYS = [
    "{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}", "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}",
    "{2,1,1,1,1;1,1,1,1,1}", "{6,5,5,4,4;1,1,2,2,3}", "{11,10,9,8,7;1,2,3,4,5}",
    "{2;1}", "{3,1;1,3}", "{3,2;1,3}", "{5,4;1,2}", "{7,6;1,3}", "{8,7,5;1,1,4}"]


def test_check_json_matches_fixture(capsys):
    # every verdict and witness of check --json, byte for byte, one line each
    from drgf import cli
    for text in CHECK_JSON_ARRAYS:
        cli.main(["check", "--json", "--theta-ratio=-1/2", text])
    assert capsys.readouterr().out == (FIXTURES / "check_json.txt").read_text()


def test_enumerate_d4_default():
    r = run_cli("enumerate", "-d", "4")
    assert r.returncode == 0
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("survivor {")]
    assert lines == ["survivor {5,4,4,3;1,1,2,2}", "survivor {9,8,7,6;1,2,3,4}"]
    assert "generated" in r.stdout


def test_enumerate_csv_and_empty_spec(tmp_path):
    spec = {"D": 4, "k_range": [5, 8], "a_pattern": "00+*", "c2_set": [2],
            "theta_ratio": "-3/4"}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    r = run_cli("enumerate", "--spec", str(spec_file), "--csv", str(out_csv))
    assert r.returncode == 0  # empty result is still a success
    rows = list(csv.DictReader(out_csv.open()))
    assert rows == []

    r = run_cli("enumerate", "-d", "4", "--csv", str(out_csv))
    rows = list(csv.DictReader(out_csv.open()))
    assert [row["array"] for row in rows] == ["{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
    assert rows[0]["v"] == "126" and rows[0]["odd_girth"] == "9"


def test_enumerate_json():
    r = run_cli("enumerate", "-d", "4", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert [row["array"] for row in doc["survivors"]] == \
        ["{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
    assert doc["survivors"][0]["theta_min"] == "-4.0"
    stats = doc["stats"]
    assert stats["generated"] == stats["survivors"] + sum(stats["killed"].values())


def test_enumerate_prints_v_exactly(tmp_path):
    # without k_integrality, survivors may have a fractional vertex count
    spec = {"D": 4, "k_range": [5, 6], "a_pattern": "000+", "c2_set": [1, 2],
            "theta_ratio": "-3/4", "checks": ["trace_vs_ratio"]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    r = run_cli("enumerate", "--spec", str(spec_file), "--json", "--csv", str(out_csv))
    assert r.returncode == 0
    rows = json.loads(r.stdout)["survivors"]
    assert len(rows) == 41
    v = {row["array"]: row["v"] for row in rows}
    assert v["{5,4,4,4;1,1,1,3}"] == "638/3"
    assert v["{5,4,4,3;1,1,2,2}"] == 126
    assert sum(isinstance(x, str) for x in v.values()) == 12
    csv_v = {row["array"]: row["v"] for row in csv.DictReader(out_csv.open())}
    assert csv_v == {a: str(x) for a, x in v.items()}


def test_enumerate_bad_spec_exit2(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text('{"D": 4}')
    assert run_cli("enumerate", "--spec", str(spec_file)).returncode == 2
    assert run_cli("enumerate").returncode == 2
    spec_file.write_text('{"D": 4, "k_range": [5, 8], "a_pattern": "000+", '
                         '"checks": "theta_ratio"}')
    r = run_cli("enumerate", "--spec", str(spec_file))
    assert r.returncode == 2 and "checks must be a list of strings" in r.stderr


@pytest.mark.parametrize("text, named", [
    ("[1, 2]", "the top level must be a JSON object, got [1, 2]"),
    ('"x"', "the top level must be a JSON object, got 'x'"),
    ("4", "the top level must be a JSON object, got 4"),
    ('{"D": 4, "k_range": [5, 8], "a_pattern": "000+", "theta_ratio": "1/0"}', ""),
    ('{"D": 4, "k_range": [5, 8], "a_pattern": "000+", "theta-ratio": "-3/4"}',
     "unknown keys ['theta-ratio']")],
    ids=["list", "string", "number", "zero-denominator", "unknown-key"])
def test_enumerate_spec_not_read_exit2(tmp_path, capsys, text, named):
    # a file that is no object, a ratio with a zero denominator and a key the
    # reader does not know each stop the run with one error line: a
    # misspelt key would otherwise run the space without its setting
    from drgf import cli
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    assert cli.main(["enumerate", "--spec", str(spec_file)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad search spec: ") and named in err
    assert err.count("\n") == 1


def test_enumerate_json_spec_reads_back(tmp_path, capsys):
    # every key that --json writes under "spec" is one the spec reader knows,
    # and the file runs the same space to the same survivors and counts
    from drgf import cli
    assert cli.main(["enumerate", "-d", "4", "--k-max", "9", "--theta-ratio=-3/4",
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["spec"]) == {"D", "k_range", "a_pattern", "c2_set", "theta_ratio", "checks"}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc["spec"]))
    assert cli.main(["enumerate", "--spec", str(spec_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


@pytest.mark.parametrize("flags, named", [
    (["--k-max", "30", "--theta-ratio=-1/2"], "--k-max, --theta-ratio"),
    (["-d", "5"], "--diameter"), (["--k-min", "6"], "--k-min"),
    (["--a-pattern", "00++"], "--a-pattern"), (["--c2", "1"], "--c2")])
def test_enumerate_spec_with_space_flags_exit2(tmp_path, capsys, flags, named):
    # the file sets the whole space, so a flag beside it would be ignored
    from drgf import cli
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"D": 4, "k_range": [5, 8], "a_pattern": "000+", '
                         '"theta_ratio": "-3/4"}')
    assert cli.main(["enumerate", "--spec", str(spec_file), *flags]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --spec FILE sets the whole space: drop {named}\n"


def test_enumerate_bad_c2_exit2():
    r = run_cli("enumerate", "-d", "4", "--c2", "a,b")
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr


def test_enumerate_d1_without_a_ratio():
    # -(D-1)/D is 0 at D = 1, which is no ratio: that space gets no ratio cut
    r = run_cli("enumerate", "-d", "1", "--k-max", "6", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["spec"]["theta_ratio"] is None
    assert [row["array"] for row in doc["survivors"]] == ["{5;1}", "{6;1}"]
    assert doc["stats"]["generated"] == 2


def test_enumerate_with_k_max_derives_no_cap(monkeypatch, capsys):
    from drgf import cli, search

    def no_cap(*args):
        raise AssertionError("valency_cap called")

    monkeypatch.setattr(search, "valency_cap", no_cap)
    assert cli.main(["enumerate", "-d", "5", "--k-max", "6"]) == cli.EXIT_OK
    assert "survivor {6,5,5,4,4;1,1,2,2,3}\n" in capsys.readouterr().out  # O_6


def test_enumerate_without_a_cap_pipeline_exit2():
    # no valency cap exists for D = 3, with or without other bounds, and
    # D = 0 has no ratio -(D-1)/D
    for args in (("-d", "3"), ("-d", "3", "--k-min", "5"), ("-d", "0", "--k-max", "4"),
                 ("-d", "0")):
        r = run_cli("enumerate", *args)
        assert r.returncode == 2, args
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("enumerate", "-d", "4", "--k-max", "9", "--csv", "/nonexistent-dir/x.csv"),
    ("verify", "cycle:9", "--export", "/nonexistent-dir/x")])
def test_unwritable_output_path_exit2(args):
    # the path fails before any work: nothing is printed to stdout
    r = run_cli(*args)
    assert r.returncode == 2
    assert "error: " in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_import_loads_no_scipy():
    # drgf depends on numpy and mpmath only; the graph oracles run on numpy
    code = ("import sys, drgf.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "[]", r.stderr


def test_theorem2_d4_matches_fixture():
    r = run_cli("theorem2", "--diameter", "4")
    assert r.returncode == 0
    assert r.stdout == (FIXTURES / "theorem2_d4.txt").read_text()


def test_theorem2_d5_jobs2_matches_fixture():
    # the D = 5 main space (2,117,200 arrays) forks one child at --jobs 2
    r = subprocess.run([sys.executable, "-m", "drgf", "theorem2", "-d", "5", "--jobs", "2"],
                       capture_output=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (FIXTURES / "theorem2_d5.txt").read_bytes()


def test_enumerate_d5_json_is_the_same_at_any_jobs():
    # --jobs 2 and 3 fork one and two children on the main space
    outs = [subprocess.run([sys.executable, "-m", "drgf", "enumerate", "-d", "5", "--json",
                            "--jobs", jobs], capture_output=True) for jobs in ("1", "2", "3")]
    assert [r.returncode for r in outs] == [0, 0, 0]
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout
    assert json.loads(outs[0].stdout)["stats"]["generated"] == 2_117_200


def test_theorem2_writes_nothing_to_stderr():
    # no warning path is left: a logging warning would reach stderr through
    # Python's last-resort handler
    for d in ("4", "5"):
        r = run_cli("theorem2", "--diameter", d)
        assert r.returncode == 0
        assert r.stderr == ""


def test_theorem2_bad_diameter_exit2():
    assert run_cli("theorem2", "--diameter", "6").returncode == 2


def test_theorem2_lets_a_spectral_error_propagate(monkeypatch, capsys):
    # theorem2's one usage error is SearchSpecError: a failed spectrum is not
    # the caller's mistake, so it is not an exit 2
    from drgf import cli, search
    from drgf.spectral import SpectralError

    def broken(D, jobs=1):
        raise SpectralError("no spectrum")

    monkeypatch.setattr(search, "classify_diameter", broken)
    with pytest.raises(SpectralError, match="no spectrum"):
        cli.main(["theorem2", "-d", "4"])
    assert capsys.readouterr().err == ""


def test_theorem2_discrepancy_injection(monkeypatch, capsys):
    # without the Coxeter graph in the witness table, its array survives the
    # k <= 4 stage unexpected
    from drgf import cli, search
    monkeypatch.setattr(search, "WITNESSES",
                        tuple(row for row in search.WITNESSES if row[0] != "coxeter"))
    assert cli.main(["theorem2", "--diameter", "4"]) == cli.EXIT_FAIL
    out = capsys.readouterr().out
    assert "DISCREPANCY: k <= 4 stage: unexpected survivor {3,2,2,1;1,1,1,2}\n" in out


def test_theorem2_json():
    r = run_cli("theorem2", "--diameter", "4", "--json")
    doc = json.loads(r.stdout)
    assert doc["D"] == 4 and doc["discrepancies"] == []
    assert doc["arrays"] == ["{3,2,2,1;1,1,1,2}", "{2,1,1,1;1,1,1,1}",
                             "{5,4,4,3;1,1,2,2}", "{9,8,7,6;1,2,3,4}"]
    stats = [s["stats"] for s in doc["stages"]]
    assert stats[1] is None  # the a_2 branch closes below k = 5
    for st in stats[:1] + stats[2:]:
        assert st["generated"] == st["survivors"] + sum(st["killed"].values())
        assert st["warnings"] == []
    assert stats[0]["generated"] == 140 and stats[0]["killed"]["bipartite"] == 7
    assert stats[0]["survivors"] == 2 == len(doc["stages"][0]["arrays"])
    assert stats[3]["survivors"] == 2 and stats[3]["killed"]["theta_ratio"] == 596


@pytest.mark.parametrize("command", [["enumerate", "-d", "4"], ["theorem2", "-d", "4"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit2(command, jobs, capsys):
    from drgf import cli
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


def test_theorem2_has_no_disable_check_flag(capsys):
    from drgf import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(["theorem2", "--diameter", "4", "--disable-check", "trace_square"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --disable-check" in capsys.readouterr().err


def test_bound_sharp_g5_remark():
    r = run_cli("bound", "--girth", "5", "--zeta=1/10", "--mode", "sharp-g5")
    assert r.returncode == 0
    assert "conservative 2dp: -0.78" in r.stdout
    assert "diameter bound = 800" in r.stdout


def test_bound_even_girth_exit2():
    for g in ("4", "6"):
        r = run_cli("bound", "--girth", g)
        assert r.returncode == 2
        assert f"need odd girth >= 5, got {g}" in r.stderr and "Traceback" not in r.stderr


def test_bound_needs_one_of_girth_and_table():
    for args in ((), ("-g", "5", "--table", "5..7")):
        r = run_cli("bound", *args)
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr


def test_bound_default_zeta_star():
    r = run_cli("bound", "--girth", "5")
    assert "zeta = 0.07725424859 (zeta*)" in r.stdout
    assert "epsilon1 = 0.1729090847" in r.stdout
    assert "note:" in r.stdout


def test_bound_unknown_mode_exit2():
    r = run_cli("bound", "-g", "5", "--mode", "bogus")
    assert r.returncode == 2
    assert "invalid choice: 'bogus'" in r.stderr and "Traceback" not in r.stderr


def test_bound_bad_table_exit2():
    r = run_cli("bound", "--table", "5..x")
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr


def test_bound_table_with_zeta_exit2():
    # the table prints zeta* for each girth, so a --zeta would be ignored
    r = run_cli("bound", "--table", "5..7", "--zeta", "1/4")
    assert r.returncode == 2 and r.stdout == ""
    assert "error: --zeta goes with --girth, not --table" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("table", ["9..5", "6..6"])
def test_bound_table_without_an_odd_girth_exit2(table):
    # like an empty k range for enumerate: an error, not a bare CSV header
    r = run_cli("bound", "--table", table)
    assert r.returncode == 2 and r.stdout == ""
    assert f"error: no odd girth in {table}" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, fixture", [
    (("--table", "5..101"), "bound_table_5_101.csv"),
    (("-g", "5", "--zeta=1/10", "--mode", "sharp-g5"), "bound_g5_sharp.txt")])
def test_bound_matches_fixture(args, fixture):
    r = subprocess.run([sys.executable, "-m", "drgf", "bound", *args], capture_output=True)
    assert r.returncode == 0
    assert r.stdout == (FIXTURES / fixture).read_bytes()


def test_bound_table_csv():
    r = run_cli("bound", "--table", "5..13")
    assert r.returncode == 0
    assert r.stdout == (
        "g,zeta_star,epsilon1,theta_over_k\n"
        "5,0.07725424859,0.1729090847,-0.8270909153\n"
        "7,0.02506055424,0.1292584188,-0.8707415812\n"
        "9,0.01136363636,0.1028205989,-0.8971794011\n"
        "11,0.005786613576,0.08525864942,-0.9147413506\n"
        "13,0.003092149229,0.07278335045,-0.9272166496\n")


def test_verify_odd_graph6():
    r = run_cli("verify", "odd_graph:6")
    assert r.returncode == 0
    assert "intersection array (BFS): {6,5,5,4,4;1,1,2,2,3}" in r.stdout
    assert "DISAGREE" not in r.stdout


def test_verify_coxeter_and_cycle():
    r = run_cli("verify", "coxeter")
    assert r.returncode == 0
    assert "{3,2,2,1;1,1,1,2}" in r.stdout
    r = run_cli("verify", "cycle:9")
    assert r.returncode == 0
    assert "{2,1,1,1;1,1,1,1}" in r.stdout


def test_verify_unknown_exit2():
    assert run_cli("verify", "petersen").returncode == 2


def test_verify_past_the_dense_oracle_exit2(capsys, monkeypatch):
    # odd_graph:8 has 6435 vertices, past the dense oracle's 4096: build
    # refuses it before it is made, so one error line and no traceback, with
    # no graph line and no all-sources BFS pass run first
    from drgf import cli, oracle
    passes = []
    monkeypatch.setattr(oracle.Graph, "bfs", property(lambda g: passes.append(g.name)))
    assert cli.main(["verify", "odd_graph:8"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph too large for the dense oracle\n"
    assert passes == []


@pytest.mark.parametrize("graph", ["folded_cube:41", "odd_graph:1000000", "cycle:300000000"])
def test_verify_refuses_a_huge_graph_at_once(capsys, graph):
    # refused before anything is allocated or counted: folded_cube:41 would
    # hold 2^40 vertices and odd_graph:1000000 C(1999999, 999999)
    from drgf import cli
    t0 = time.perf_counter()
    assert cli.main(["verify", graph]) == cli.EXIT_USAGE
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph too large for the dense oracle\n"


def test_verify_export(tmp_path):
    out = tmp_path / "edges.txt"
    r = run_cli("verify", "cycle:9", "--export", str(out))
    assert r.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 9


def test_theorem2_d5_ignores_a_precision_variable():
    # the working precision is fixed: at 15 digits the mpf eigenvalues and
    # multiplicities would keep 15 digits, and no variable may change that
    r = run_cli("theorem2", "-d", "5", env={"DRGF_PRECISION": "15"})
    assert r.returncode == 0, r.stderr
    assert r.stdout == (FIXTURES / "theorem2_d5.txt").read_text()


def test_src_reads_no_environment():
    for path in (Path(__file__).parent.parent / "src" / "drgf").rglob("*.py"):
        assert not re.search(r"\benviron\b|getenv", path.read_text()), path.name
