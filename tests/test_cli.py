import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsphere
from qsphere import cli
from qsphere.cli import run
from qsphere.casimir import compress_identify
from qsphere.ncalg import NCPoly
from qsphere.qcore import QParams, tau
from qsphere.report import canonical_json
from qsphere.reps import evaluate, load_matrix


def run_json(argv, capsys):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_relations_command_passes(capsys):
    code, report = run_json(
        ["relations", "--alg", "bl", "--l", "1", "--q", "0.5", "--N", "24"],
        capsys)
    assert code == 0
    assert report["checks"][0]["status"] == "pass"
    assert all(d["residual"] <= 1e-11
               for d in report["checks"][0]["details"])


def test_casimir_reports_spectrum(capsys):
    code, report = run_json(["casimir", "--x", "0.7", "--N", "16"], capsys)
    assert code == 0
    params = report["checks"][0]["params"]
    p = QParams(0.5)
    assert params["tau_lower"] == pytest.approx(tau(p, -0.3), abs=1e-15)
    assert params["tau_upper"] == pytest.approx(tau(p, 1.7), abs=1e-15)


def test_orbit_witness(capsys):
    code, report = run_json(["orbit", "--x", "0.3", "--y", "1.7"], capsys)
    assert code == 0
    assert report["checks"][0]["params"]["witness"] == -2


def test_orbit_failure_exit_code(capsys):
    assert run(["orbit", "--x", "0.3", "--y", "0.4"]) == 1


def test_picard_standard(capsys):
    code, report = run_json(["picard", "--x", "standard"], capsys)
    assert code == 0
    assert report["checks"][0]["params"]["group"] == "Z"


def test_usage_error_exit_code(capsys):
    for argv, flag in ((["nonsense"], "nonsense"),
                       (["orbit", "--x", "0.3"], "--y"),
                       (["theta", "--N", "abc"], "--N"),
                       (["oracle", "--count", "0"], "--count"),
                       (["relations", "--q", "1.5"], "--q"),
                       (["relations", "--q", "nan"], "--q"),
                       (["theta", "--N", "3"], "--N"),
                       (["casimir", "--x", "nan"], "--x"),
                       (["theta", "--l", "0.3"], "--l"),
                       (["ergodic", "--D", "9"], "--D"),
                       (["compress", "--N", "4"], "--N"),
                       (["compress", "--N", "5"], "--N"),
                       (["functional", "--N", "20"], "--N"),
                       (["all", "--N", "21"], "--N"),
                       (["theorem2", "--l", "0"], "--l"),
                       (["theta", "--l", "0.5", "--N", "12", "--tol",
                         "1e-30"], "--tol"),
                       (["picard", "--x", "2", "--alg", "uqsu2"], "--alg"),
                       (["all", "--tol", "1e-3"], "--tol"),
                       (["all", "--alg", "bl"], "--alg"),
                       # found only inside the suite: the monomial images of
                       # degree <= D are dependent on the rank window
                       (["ergodic", "--q", "0.3", "--l", "1"], "--D"),
                       (["ergodic", "--q", "0.37", "--x", "2.0", "--l", "0.5",
                         "--N", "24"], "--D")):
        assert run(argv + ["--json"]) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and flag in out.err, argv


def test_overflowing_compress_size_is_refused(capsys):
    # compress's tensor Zi reaches q^-(2N+|x|): at q = 0.5 and x = 0.7 that
    # overflows float64 from N = 512 on, and `all` runs compress at x = 0.7
    for argv in (["compress", "--N", "512"], ["all", "--N", "512"],
                 ["compress", "--q", "0.05", "--x", "40", "--N", "100"]):
        assert run(argv + ["--json"]) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and "--N" in out.err, argv
    for argv in (["compress", "--N", "511"], ["all", "--N", "511"],
                 ["compress", "--q", "0.05", "--N", "100"]):
        assert cli._input_error(cli.build_parser().parse_args(argv)) is None


@pytest.mark.parametrize("argv, edge, passing", [
    # the Casimir eigenvectors form q^-2x: x = 500 stays below 2^1024
    (["casimir", "--x", "1100", "--N", "8"],
     ["casimir", "--x", "500", "--N", "8"],
     ["casimir", "--x", "8", "--N", "8"]),
    # tau(x)/q of the podles presentation
    (["relations", "--x", "1100", "--N", "8"],
     ["relations", "--x", "1000", "--N", "8"],
     ["relations", "--x", "8", "--N", "8"]),
    (["functional", "--x", "1100", "--N", "24"],
     ["functional", "--x", "1000", "--N", "24"],
     ["functional", "--x", "8", "--N", "24"]),
    # theta's ladder coefficients form q^-(4l+1/2)
    (["theta", "--l", "600", "--N", "2408"],
     ["theta", "--l", "255", "--N", "1024"],
     ["theta", "--l", "1", "--N", "8"]),
])
def test_overflowing_q_powers_are_refused(argv, edge, passing, capsys):
    assert run(argv + ["--json"]) == 2, argv
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "overflows float64" in out.err, argv
    # below the overflow the command is not refused, and runs
    assert cli._input_error(cli.build_parser().parse_args(edge)) is None
    assert run(passing + ["--json"]) == 0, passing


def test_all_keeps_reports_when_monomials_are_dependent(capsys):
    # at q = 0.3 the degree-6 monomial images of the l = 0 ergodic suite
    # are dependent on the rank window: ergodic alone is a usage error, but
    # under `all` it fails and every other suite still reports
    code = run(["all", "--q", "0.3", "--N", "24", "--count", "10", "--json"])
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert code == 1
    assert "--D" not in out.err and "dependent" in out.err
    checks = {c["check"]: c for c in report["checks"]}
    assert len(checks) == 13
    ergodic = checks.pop("ergodic")
    assert ergodic["status"] == "fail" and ergodic["max_residual"] == "inf"
    assert [d["item"] for d in ergodic["details"]] == ["dependent_monomials"]
    assert all(c["status"] == "pass" for c in checks.values())
    assert run(["ergodic", "--q", "0.3", "--x", "1.0", "--l", "0", "--N",
                "24", "--json"]) == 2


SMALL_ALL = ["all", "--N", "24", "--D", "3", "--count", "10"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1])
def test_all_equals_its_suites_run_in_one_process(seed, capsys):
    # `all` certifies half its suites in a forked worker; its report is the
    # one of the same suites called one after another in this process
    p, N, D, count = QParams(0.5), 24, 3, 10
    x, L = cli.ALL_COMPRESS_X, cli.ALL_L
    reports = (
        cli.suite_relations(p, 1.0, L["relations"], N, cli.TOL_RELATIONS,
                            ["podles", "uqmp", "bl"])
        + cli.suite_casimir(p, x, N) + cli.suite_compress(p, x, N)
        + cli.suite_theta(p, L["theta"], N)
        + cli.suite_functional(p, 1.0, L["functional"], N)
        + cli.suite_ergodic(p, 1.0, L["ergodic"], D, N)
        + cli.suite_theorem2(p, L["theorem2"], N)
        + cli.suite_orbit(p, 0.3, 1.7) + cli.suite_picard(p, 0.0)
        + cli.suite_oracle(p, 1.0, L["oracle"], N, seed, count))
    assert run(SMALL_ALL + ["--seed", str(seed), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == canonical_json(reports, qsphere.__version__) + "\n"
    _no_child_left()


def test_all_raises_the_exception_of_its_worker(monkeypatch, capsys):
    assert "functional" in cli.ALL_WORKER

    def fail(*args):
        raise LookupError(os.getpid())
    monkeypatch.setattr(cli, "suite_functional", fail)
    with pytest.raises(LookupError) as info:
        run(SMALL_ALL)
    assert info.value.args[0] != os.getpid()
    _no_child_left()


def test_all_reports_a_worker_that_exits_without_reports(monkeypatch,
                                                         capsys):
    assert "compress" in cli.ALL_WORKER
    parent = os.getpid()

    def die(*args):
        assert os.getpid() != parent
        os._exit(3)
    monkeypatch.setattr(cli, "suite_compress", die)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        run(SMALL_ALL)
    _no_child_left()


def test_all_reaps_its_worker_when_its_own_half_raises(monkeypatch, capsys):
    assert "casimir" not in cli.ALL_WORKER

    def fail(*args):
        raise LookupError(os.getpid())
    monkeypatch.setattr(cli, "suite_casimir", fail)
    with pytest.raises(LookupError) as info:
        run(SMALL_ALL)
    assert info.value.args[0] == os.getpid()
    _no_child_left()


def test_casimir_without_interior_spectrum_fails(capsys):
    # at N = 4 every eigenvector reaches the truncation edge
    code, report = run_json(["casimir", "--N", "4"], capsys)
    assert code == 1
    details = {d["item"]: d["residual"] for d in report["checks"][0]["details"]}
    assert details["spectrum_plus"] == details["spectrum_minus"] == "inf"


def test_negative_value_in_scientific_notation(capsys):
    assert run(["theta", "--l", "0.5", "--N", "12", "--x", "-1e-3"]) == 0


def test_json_deterministic(capsys):
    argv = ["casimir", "--x", "0.35", "--N", "16", "--json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second and first


# SHA-256 of the canonical JSON of suites computed in mpmath alone, so the
# bytes do not depend on the platform's BLAS or libm; a change to the exact
# walks that moves any residual bit moves a digest
GOLDEN_REPORTS = {
    ("functional", "--x", "1.0", "--l", "0.5", "--N", "24"):
        "c7248f5f50e88a2f2415dc9df437c17b38854fc34907738d4bf9a9c0776b2976",
    ("theta", "--l", "1", "--N", "16"):
        "b7b3eed960dd5fb97ddb0b963fd81a244b44f7ae05d4763e702236d9182a005f",
    ("relations", "--x", "1.0", "--l", "1", "--N", "16"):
        "b9a1af45ee96413cdb8c86d4d8ba45b34589b173734d81d5ea5573a019dcef29",
}


def _report_digest(argv, capsys):
    assert run(list(argv) + ["--json"]) == 0
    payload = capsys.readouterr().out.rstrip("\n")
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
def test_exact_walk_reports_are_golden(argv, capsys):
    assert _report_digest(argv, capsys) == GOLDEN_REPORTS[argv]


# SHA-256 of the canonical JSON of the float oracle path: the step
# coefficients of the shift arrays and the normal forms' rewriting are
# double-precision Python arithmetic, so the bytes depend on libm's `pow`
# (glibc, as on CI); words are walked down shift arrays, never multiplied
# as dense matrices, so they do not depend on BLAS
GOLDEN_FLOAT_REPORTS = {
    ("oracle", "--x", "1.0", "--l", "0.5", "--N", "32", "--count", "40",
     "--seed", "3"):
        "9077418f764a2580d05f07c7b9206b66831dbc06f3818c4b9e7f0636afe2a7da",
    # the compression U^H G U and its relations: the eigenvector entries,
    # step coefficients and tau are double-precision Python arithmetic, so
    # the bytes depend on libm's `pow` (glibc, as on CI); U^H G U is walked
    # on weighted shifts, never multiplied as dense matrices, so they do not
    # depend on BLAS
    ("compress", "--x", "0.7", "--N", "16"):
        "f4954b605cf61dc6dd736d79e2df3483b52ad56551df9d67a61e2ce32635577b",
    # the Casimir splitting and the theorem2 basis change, block and base
    # case: the eigenvector entries, step coefficients and tau are
    # double-precision Python arithmetic, so the bytes depend on libm's
    # `pow` (glibc, as on CI); every product and the 2x2 block eigenvalues
    # are walked or taken elementwise on weighted shifts, never multiplied
    # or diagonalized as dense matrices, so they do not depend on BLAS or
    # LAPACK
    ("casimir", "--x", "0.7", "--N", "16"):
        "c875001d56a9d52ed6fc8f861abba726cf3d3b4b63d3f6a2569c482e38d5af21",
    ("theorem2", "--l", "0.5", "--N", "16"):
        "09c519515f572d0aaddef079eb374544a2552e8f14d8afc8e9c353cf54b49414",
}


@pytest.mark.parametrize("argv", list(GOLDEN_FLOAT_REPORTS))
def test_float_oracle_report_is_golden(argv, capsys):
    assert _report_digest(argv, capsys) == GOLDEN_FLOAT_REPORTS[argv]


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(["theta", "--l", "0.5", "--N", "16", "--json",
                "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["checks"][0]["check"] == "theta"


def test_dump_writes_matrix_files(tmp_path, capsys):
    prefix = tmp_path / "dump"
    code = run(["relations", "--alg", "podles", "--x", "1.0", "--N", "12",
                "--dump", str(prefix)])
    assert code == 0
    M = load_matrix(f"{prefix}.podles.X.txt")
    assert M.shape == (24, 24)


def test_compress_dump_writes_evaluated_windows(tmp_path, capsys):
    prefix = tmp_path / "dump"
    assert run(["compress", "--x", "0.7", "--N", "16", "--dump",
                str(prefix)]) == 0
    p = QParams(0.5)
    for sign in ("plus", "minus"):
        for branch, tag in ((1, "up"), (-1, "down")):
            crep, _ = compress_identify(p, 0.7, sign, branch, 16)
            for g in ("X", "Y", "Z"):
                got = load_matrix(f"{prefix}.compress.{sign}.{tag}.{g}.txt")
                want = evaluate(NCPoly({(g,): 1.0}), crep)
                assert got.shape == (crep.N, crep.N)
                assert got.tobytes() == want.tobytes(), (sign, tag, g)


def _no_suite(monkeypatch):
    import qsphere.cli as cli

    def refuse(*args):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(cli, "_suites", refuse)


def test_out_to_missing_directory_is_usage_error(tmp_path, capsys,
                                                 monkeypatch):
    _no_suite(monkeypatch)
    path = tmp_path / "missing" / "r.json"
    assert run(["orbit", "--x", "0.3", "--y", "1.7", "--json",
                "--out", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--out" in out.err
    assert not path.parent.exists()


def test_dump_to_missing_directory_is_usage_error(tmp_path, capsys,
                                                  monkeypatch):
    _no_suite(monkeypatch)
    prefix = tmp_path / "missing" / "dump"
    assert run(["relations", "--alg", "podles", "--N", "12",
                "--dump", str(prefix)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--dump" in out.err
    assert not prefix.parent.exists()


@pytest.mark.parametrize("argv", [
    ["theta"], ["functional"], ["ergodic"], ["theorem2"],
    ["orbit", "--x", "0.3", "--y", "1.7"], ["picard"], ["oracle"], ["all"],
    ["relations", "--alg", "uqsu2"]])
def test_dump_where_nothing_is_dumped_is_usage_error(argv, tmp_path, capsys,
                                                     monkeypatch):
    _no_suite(monkeypatch)
    assert run(argv + ["--dump", str(tmp_path / "dump")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--dump" in out.err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsphere", "picard", "--x", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "picard" in proc.stdout


# Runs argv[1:] and prints its exit code and peak RSS in kilobytes to
# stderr.  At exec Linux keeps the peak RSS of the process a child was
# spawned from, so a command spawned straight from a large test process
# reports that process's peak; spawned from this small interpreter, it
# reports its own.
_PEAK_PROBE = """import os, subprocess, sys
pid = subprocess.Popen(sys.argv[1:]).pid
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def _child_peak(argv):
    """Run the command in a fresh interpreter: its report and its peak RSS
    in kilobytes (Linux)."""
    src = str(Path(qsphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE,
         sys.executable, "-m", "qsphere", *argv, "--json"],
        capture_output=True, env=env)
    code, peak = map(int, proc.stderr.split()[-2:])
    assert code == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout), peak


def test_ergodic_peak_memory():
    # the ergodic suite at the parameters `all` uses peaks at about 42 MB; a
    # dense 12288 x 340 complex commutator system for the bl(0) tensor
    # units, or a QR of it, lifts the child's peak RSS to about 236 MB, and
    # walking every monomial image's commutators in one stack to about 49
    report, peak = _child_peak(["ergodic", "--x", "1.0", "--l", "0"])
    assert report["checks"][0]["status"] == "pass"
    assert peak < 64 * 1024


@pytest.mark.parametrize("argv", [["casimir", "--N", "512"],
                                  ["theorem2", "--l", "0.5", "--N", "512"]])
def test_large_window_peak_memory(argv):
    # the Casimir splitting and the theorem2 basis change are walked on
    # two-entry weighted shifts; dense (2N)^2 and (4M)^2 products of them
    # peak at about 250 and 640 MB here
    report, peak = _child_peak(argv)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert peak < 100 * 1024
