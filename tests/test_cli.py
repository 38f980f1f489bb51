import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qsphere
from qsphere import cli
from qsphere.cli import run
from qsphere.casimir import compress_identify
from qsphere.ncalg import (
    NCPoly,
    RewriteCapError,
    make_presentation,
    random_words,
)
from qsphere.qcore import QParams, tau
from qsphere.report import VerificationReport, canonical_json
from qsphere.reps import evaluate, load_matrix

from normal_basis import in_basis


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


@pytest.mark.parametrize("argv, line", [
    # argparse's own wording, as Python 3.11 prints it
    (["nonsense"], "argument command: invalid choice: 'nonsense' (choose "
     "from 'relations', 'casimir', 'compress', 'theta', 'functional', "
     "'ergodic', 'theorem2', 'orbit', 'picard', 'oracle', 'all')"),
    (["all", "--N", "21"], "--N must be at least 22 for all, got 21"),
    (["functional", "--N", "20"],
     "--N must be at least 24 for functional at --l 1, got 20"),
    (["compress", "--N", "5"], "--N must be at least 6 for compress, got 5"),
    (["all", "--N", "512"], "all forms q^-1024.7, which overflows float64 "
     "at --q 0.5; lower --x, --l or --N"),
])
def test_refusal_lines_are_exact(argv, line, capsys):
    assert run(argv + ["--json"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"verify: error: {line}\n")


def test_all_runs_from_its_floor():
    # functional at --l 0.5 needs N >= 22, the largest floor of `all`'s suites
    assert cli._input_error(cli.build_parser().parse_args(
        ["all", "--N", "22"])) is None


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
])
def test_overflowing_q_powers_are_refused(argv, edge, passing, capsys):
    assert run(argv + ["--json"]) == 2, argv
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "overflows float64" in out.err, argv
    # below the overflow the command is not refused, and runs
    assert cli._input_error(cli.build_parser().parse_args(edge)) is None
    assert run(passing + ["--json"]) == 0, passing


def test_theta_at_large_l_is_not_refused():
    # theta forms no float q-power: its ladder is built in the walk's mp
    # context, so an l whose q^-(4l+1/2) overflows float64 is not refused
    # (not run here: that walk is huge)
    assert cli._input_error(cli.build_parser().parse_args(
        ["theta", "--l", "600", "--N", "2408"])) is None


@pytest.mark.parametrize("argv", [
    ["theta", "--q", "0.1", "--l", "2", "--N", "48"],
    ["theta", "--q", "0.1", "--l", "3", "--N", "48"],
    ["theta", "--q", "0.05", "--l", "2", "--N", "32"],
    ["theta", "--q", "0.05", "--l", "3", "--N", "48"],
    ["theta", "--q", "0.2", "--l", "3", "--N", "48"],
])
def test_theta_ladder_laws_hold_at_small_q(argv, capsys):
    # the E and F laws' coefficients are computed in the walk's context:
    # float ones left residuals up to 1.6e-3 here, above TOL_THETA
    code, report = run_json(argv, capsys)
    assert code == 0
    details = report["checks"][0]["details"]
    assert len(details) == 3 * (4 * int(argv[4]) + 1)
    assert all(float(d["residual"]) <= 1e-30 for d in details
               if d["item"][0] in "EF"), details


@pytest.mark.parametrize("command", ["casimir", "compress", "oracle",
                                     "ergodic"])
def test_reach_that_itself_overflows_is_refused(command, capsys):
    # at |x| = 1e308 the reach 2|x| is inf, and q^-inf raises nothing
    assert run([command, "--x", "1e308", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"verify: error: {command} forms q^-inf, which "
                       "overflows float64 at --q 0.5; lower --x, --l or "
                       "--N\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_relations_refuses_a_tol_that_certifies_nothing(tol, capsys):
    # nan and a negative threshold fail every residual, inf passes them all
    assert run(["relations", "--tol", tol, "--N", "8", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--tol" in out.err


def test_relations_tol_zero_is_read_as_zero(capsys):
    _, report = run_json(["relations", "--alg", "uqsu2", "--tol", "0"],
                         capsys)
    check = report["checks"][0]
    assert check["params"]["tol"] == 0.0
    assert {d["threshold"] for d in check["details"]} == {0.0}


@pytest.mark.parametrize("argv, code, witness", [
    (["--x", "1e9", "--y", "1"], 0, 1 - 10**9),
    # both signs match; the smaller |m| is the witness
    (["--x", "-999999999.5", "--y", "-0.5"], 0, 10**9 - 1),
    (["--x", "1e308", "--y", "-1e308"], 0, 0),
    (["--x", "-1e308", "--y", "1e308"], 0, 0),
    (["--x", "1e308", "--y", "1"], 1, None),
    (["--x", "0.5", "--y", "1e9"], 1, None),
])
def test_orbit_at_large_parameters_reports(argv, code, witness, capsys):
    # the witness search tests two integers, however far apart x and y lie
    got, report = run_json(["orbit", *argv], capsys)
    assert got == code
    assert report["checks"][0]["params"]["witness"] == witness


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
    # one of the same suites called one after another in this
    # process; `all`'s arguments are spelled here apart from cli.ALL_ARGS
    p, N, D, count = QParams(0.5), 24, 3, 10
    reports = (
        cli.suite_relations(p, 1.0, 1.0, N, cli.TOL_RELATIONS,
                            ["podles", "uqmp", "bl"])
        + cli.suite_casimir(p, 0.7, N) + cli.suite_compress(p, 0.7, N)
        + cli.suite_theta(p, 1.0, N) + cli.suite_functional(p, 1.0, 0.5, N)
        + cli.suite_ergodic(p, 1.0, 0.0, D, N)
        + cli.suite_theorem2(p, 0.5, N)
        + cli.suite_orbit(p, 0.3, 1.7) + cli.suite_picard(p, 0.0)
        + cli.suite_oracle(p, 1.0, 0.5, N, seed, count))
    assert run(SMALL_ALL + ["--seed", str(seed), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == canonical_json(reports, qsphere.__version__) + "\n"
    _no_child_left()


SUITE_NAMES = ("relations", "casimir", "compress", "theta", "functional",
               "ergodic", "theorem2", "orbit", "picard", "oracle")


def test_every_command_calls_its_suite_function(monkeypatch, capsys):
    # each command, and `all` from both of its processes, reports what the
    # module's suite_<name> returns at the time of the call: the benchmark
    # traces the suites by rebinding these attributes
    def stub(name):
        rpt = VerificationReport(f"stub_{name}", {})
        rpt.add("stub", 0.0, 0.0)   # a report with no detail fails
        return [rpt]

    for name in SUITE_NAMES:
        monkeypatch.setattr(cli, f"suite_{name}",
                            lambda *args, name=name: stub(name))
    for name in SUITE_NAMES:
        argv = [name] + (["--y", "1.7"] if name == "orbit" else [])
        code, report = run_json(argv, capsys)
        assert code == 0
        assert [c["check"] for c in report["checks"]] == [f"stub_{name}"]
    code, report = run_json(["all"], capsys)
    assert code == 0
    assert sorted(c["check"] for c in report["checks"]) == sorted(
        f"stub_{name}" for name in SUITE_NAMES)
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
        "996daaeca21748b151d0edaf74dddddd811117809022f26c824399daf0b4a10c",
    ("relations", "--x", "1.0", "--l", "1", "--N", "16"):
        "b9a1af45ee96413cdb8c86d4d8ba45b34589b173734d81d5ea5573a019dcef29",
    # the benchmark's own exact-walk invocations (perfbench's `walks_exact`)
    ("functional", "--x", "1.0", "--l", "0.5", "--N", "64"):
        "545307fe79551389994af19115d449890540d24c01aa345dd1362e3911bcf563",
    ("theta", "--l", "1", "--N", "64"):
        "4461db043ad379043ac6fc3030d050c891b74cae76b2f80d74b914c4ee7ecfc3",
    ("relations", "--x", "1.0", "--l", "1", "--N", "64"):
        "4f767cbfc8f364b1202bc6c13612faecc1c5c89e921908cacdc989a961271697",
    # small q: long product-form recipes, and walks at high precision
    ("relations", "--q", "0.3", "--l", "2", "--N", "40"):
        "1f7a36926ef59b39e831b52c2cd5b9f536d9edddb6694b7d3288b5b12c8b7746",
    ("theta", "--q", "0.2", "--l", "1.5", "--N", "48"):
        "85a1f0f20afcae323ddfb173e119986498818777ad2950ba1bf4b521039206bd",
    # the invariant functional across its word screen's cases: the minus
    # family, non-integer x, l = 0 and l = 2
    ("functional", "--q", "0.3", "--x", "1.0", "--l", "1.5", "--N", "48"):
        "717c4638e3dc7bc4884019323af9c1ddc4e34a8a1351bf64582d2629e1acc0bf",
    ("functional", "--x", "0.35", "--l", "0", "--N", "40"):
        "2c42b4ce3083d9db2ff7f10e0fd28806efe3d94f6204e0698e16d134b3b9cb0b",
    ("functional", "--x", "-2.5", "--l", "2", "--N", "48"):
        "864e9c42559a8a675cca225bfe9aa68af218869cd0e1124d2df622e0d219a826",
    ("functional", "--q", "0.8", "--x", "2.0", "--l", "1", "--N", "64"):
        "4d6ed38c0124831ac7e74783026a3b89435c96170ebb6f858cd692f6c99115c8",
    # the adjoint action's K, E and F terms on theta's ladder at l = 1/2
    # and at l = 2, q = 0.8, and the functional at small q and non-integer x
    ("theta", "--l", "0.5", "--N", "32"):
        "8f1448b3dc46a4579658f650538cb80078bb84a484996e1e92fea3b927eef0a0",
    ("theta", "--q", "0.8", "--l", "2", "--N", "48"):
        "6e5173e7ab6d67425c56701ca4b403c5cab7b2aa3c232b7266e50eb074d58c63",
    # small q, where float ladder coefficients failed the E and F laws
    ("theta", "--q", "0.1", "--l", "2", "--N", "48"):
        "c93cd2a520868b2a0363dfed65ef2986770810da20a7ad249b660a32eb168538",
    ("functional", "--q", "0.2", "--x", "0.35", "--l", "0.5", "--N", "40"):
        "198c6d555dd6d56e86ee159d8bd581808dd307a01b21f3ea9c50650573c565d2",
}


def _assert_golden(argv, capsys, digest, code=0):
    """Run argv with --json and compare the SHA-256 of its report with
    `digest`; a mismatch lists the report's details, item and residual, so
    that a re-pin can be audited detail by detail."""
    assert run(list(argv) + ["--json"]) == code
    payload = capsys.readouterr().out.rstrip("\n")
    got = hashlib.sha256(payload.encode()).hexdigest()
    assert got == digest, "\n".join(
        [f"digest {got}, pinned {digest}; details:"]
        + [f"  {check['check']} {d['item']}: {d['residual']}"
           for check in json.loads(payload)["checks"]
           for d in check["details"]])


def test_golden_mismatch_lists_the_details(capsys):
    with pytest.raises(AssertionError) as err:
        _assert_golden(["theta", "--l", "0.5", "--N", "12"], capsys, "0")
    lines = [ln.strip() for ln in str(err.value).splitlines()]
    assert lines[0].startswith("digest ")
    assert lines[0].endswith(", pinned 0; details:")
    details = [ln.split() for ln in lines if ln.startswith("theta ")]
    assert len(details) == 9 and ["theta", "K_s+0:"] in [
        d[:2] for d in details]


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
def test_exact_walk_reports_are_golden(argv, capsys):
    _assert_golden(argv, capsys, GOLDEN_REPORTS[argv])


# SHA-256 of the canonical JSON of the float oracle path: the step
# coefficients of the shift arrays and the normal forms' rewriting are
# double-precision Python arithmetic, so the bytes depend on libm's `pow`
# (glibc, as on CI); words are walked down shift arrays, never multiplied
# as dense matrices, so they do not depend on BLAS
GOLDEN_FLOAT_REPORTS = {
    ("oracle", "--x", "1.0", "--l", "0.5", "--N", "32", "--count", "40",
     "--seed", "3"):
        "9077418f764a2580d05f07c7b9206b66831dbc06f3818c4b9e7f0636afe2a7da",
    # the benchmark's own oracle sets (perfbench's `oracle_wide` at seed 0):
    # 200 draws each, many of them repeated, at N = 128
    ("oracle", "--x", "1.0", "--l", "0.5", "--N", "128", "--count", "200",
     "--seed", "0"):
        "fa7f74efc6e02cbd43d1d8ab46cb3f00e7a95467591625a23adabb8f06aa50ed",
    ("oracle", "--x", "1.0", "--l", "0.5", "--N", "128", "--count", "200",
     "--seed", "1"):
        "026a0574328a3d6ae597431745fcf1133cf4ad0ef831353df4a0ed737ec630e6",
    ("oracle", "--x", "1.0", "--l", "0.5", "--N", "128", "--count", "200",
     "--seed", "2"):
        "750d1be3a770cf43a0b5d42fc0882e085720228c02246bcf5e75e257fa61a54b",
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
        "38eef6bc98ab7b9edbbd5357ffeff960ea61cedc6e0067047a6b1e50a95562b9",
    # at small q, with the mp spin-block walks of casimir_invariance
    ("casimir", "--q", "0.3", "--x", "2.5", "--N", "32"):
        "589f70eb4c08f6bee46e77256d4d77f616a954550de1fa3c9bfa7e7bd7c99ab8",
    # near q = 1 and at non-integer x: the Casimir invariance's adjoint
    # action walked as spin blocks, beside float shifts that depend on libm
    ("casimir", "--q", "0.8", "--x", "1.3", "--N", "24"):
        "a6b9f1f485602f636a64cb3e9dd19d9f6744928b5f85cf63543d5a717d56b96f",
    ("theorem2", "--l", "0.5", "--N", "16"):
        "09c519515f572d0aaddef079eb374544a2552e8f14d8afc8e9c353cf54b49414",
    # every suite at the arguments `all` gives it, half of them certified in
    # the forked worker; ergodic's rank decisions and kernel residuals come
    # from LAPACK's SVD, so these bytes also depend on numpy's bundled
    # OpenBLAS (the version CI pins)
    ("all", "--seed", "0"):
        "800d93b7f0a65fb0539f1de298fd1d4a2f6555c0a2fdaac2789a51eab33112d1",
    ("all", "--N", "24", "--D", "3", "--count", "10", "--seed", "0"):
        "5dc386b86ef6be94322f2f012bac225b77fa60b7c0c6f3ca859e05a28a7fe703",
}


@pytest.mark.parametrize("argv", list(GOLDEN_FLOAT_REPORTS))
def test_float_oracle_report_is_golden(argv, capsys):
    _assert_golden(argv, capsys, GOLDEN_FLOAT_REPORTS[argv])


def test_failing_oracle_report_is_golden(capsys):
    # oracle_bl fails at 5.2e8: normal-form coefficients up to 3.7e17
    # cancel, so any change in the order the terms are summed moves the
    # low bits of the residual, and with them this digest
    argv = ["oracle", "--x", "0.7", "--l", "1.5", "--N", "40", "--count",
            "300", "--seed", "9"]
    _assert_golden(argv, capsys, (
        "0362681f728a9bb4b0a64656aa8470f6011c7448516484180d66846e7fa982a6"),
        code=1)


# `oracle --l L` at the default seed: oracle_bl fails at 5.4e6 (l = 1.5) and
# 7.7e21 (l = 2) by the same cancellation of large normal-form coefficients,
# and oracle_podles passes
FAILING_BL_ORACLE_REPORTS = {
    "1.5": "0ef1c1939eef8e1f16c41f3a3f9bcabb5a81ddb27ca758edb511c8f174fc086a",
    "2": "d88d9c07993ea5eccc3d21bfef704eec1c60745a1f3198997a69d8631ab5e38c",
}


@pytest.mark.parametrize("l", list(FAILING_BL_ORACLE_REPORTS))
def test_failing_default_seed_bl_oracle_is_golden(l, capsys):
    _assert_golden(["oracle", "--l", l], capsys,
                   FAILING_BL_ORACLE_REPORTS[l], code=1)


def test_failing_all_report_is_golden(capsys):
    # at q = 0.3 ergodic's degree-6 monomial images are dependent: `all`
    # exits 1 with ergodic's `dependent_monomials` detail, and every other
    # suite's report stands
    argv = ["all", "--q", "0.3", "--N", "24", "--count", "10"]
    _assert_golden(argv, capsys, (
        "33d390e0b1d9995469d5272bbf15c57542c7c2d0c9d3d42d35ba2a60b604e682"),
        code=1)


@pytest.mark.parametrize("fault", ["cap", "span"])
def test_oracle_counts_a_repeated_word_per_draw(fault, monkeypatch):
    # the oracle normalises a word drawn k times once, and still adds k to
    # cap_hits when its rewriting hits the cap, or to basis_span_failures
    # when its normal form leaves the basis
    p = QParams(0.5)
    pres = make_presentation("podles", p, x=1.0)
    draws = Counter(random_words(pres, 40, 6, seed=3))
    word = max((w for w in draws if not in_basis(w, pres)),
               key=draws.get)
    assert draws[word] > 1
    normal_form = cli.normal_form

    def faulty(poly, pres):
        if pres.name != "podles" or set(poly.terms) != {word}:
            return normal_form(poly, pres)
        if fault == "cap":
            raise RewriteCapError("injected")
        return poly

    monkeypatch.setattr(cli, "normal_form", faulty)
    podles, bl = cli.suite_oracle(p, 1.0, 0.5, 16, 3, 40)
    got = {d.item: d.residual for d in podles.details}
    assert got["cap_hits"] == (draws[word] if fault == "cap" else 0)
    assert got["basis_span_failures"] == (
        draws[word] if fault == "span" else 0)
    assert all(d.residual == 0 for d in bl.details
               if d.item != "residual")


def test_certification_never_imports_numpy_ma():
    # numpy's plain np.unique imports numpy.ma on its first call, 10-14 ms
    # of every process; the commands take sorted unions (reps.union)
    # instead.  `all`'s forked half certifies relations, functional,
    # compress and theorem2, so they run here on their own as well
    commands = [["oracle", "--N", "16", "--count", "10"],
                ["all", "--N", "24", "--D", "3", "--count", "10"],
                ["relations", "--N", "16"], ["relations", "--alg", "uqsu2"],
                ["functional", "--N", "24"], ["compress", "--N", "16"],
                ["theorem2", "--l", "0.5", "--N", "16"]]
    probe = ("import io, contextlib, sys\n"
             "from qsphere.cli import run\n"
             "for argv in %r:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert run(argv) == 0, argv\n"
             "    assert 'numpy.ma' not in sys.modules, argv\n") % commands
    src = str(Path(qsphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# Runs the command line on argv[2:] with `cli.<argv[1]>` wrapped, and prints
# as JSON its exit code and whether numpy was loaded after `import
# qsphere.cli`, at the wrapped function's first call, and at the end.
_NUMPY_PROBE = """import contextlib, io, json, sys
import qsphere.cli as cli
seen = {"import": "numpy" in sys.modules}
name, fn = sys.argv[1], getattr(cli, sys.argv[1])
def noted(*args):
    seen.setdefault("hook", "numpy" in sys.modules)
    return fn(*args)
setattr(cli, name, noted)
with contextlib.redirect_stdout(io.StringIO()):
    seen["code"] = cli.run(sys.argv[2:])
seen["end"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def _probe(script, argv, env=None):
    """Run `script` with argv in a fresh interpreter that imports this
    checkout's package; its stdout."""
    src = str(Path(qsphere.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("hook, argv, loads", [
    ("suite_relations", ["relations", "--N", "16"], False),
    ("suite_theta", ["theta", "--N", "8"], False),
    ("suite_functional", ["functional", "--N", "24"], False),
    ("suite_oracle", ["oracle", "--N", "16", "--count", "10"], True),
    ("_with_worker", SMALL_ALL, True),
    ("suite_orbit", ["orbit", "--x", "0.3", "--y", "1.7"], False),
    ("suite_picard", ["picard", "--x", "2"], False)])
def test_numpy_loads_only_for_float_commands(hook, argv, loads):
    # importing the command line loads no numpy, and neither do the
    # commands that certify in mpmath alone or compute no operator; a float
    # command loads it
    # before its first suite, and `all` before it forks its worker
    seen = json.loads(_probe(_NUMPY_PROBE, [hook, *argv]))
    assert seen == {"import": False, "hook": loads, "code": 0, "end": loads}


# Runs the command line on argv[3:] with `cli.<argv[2]>` wrapped, with every
# import of mpmath failing when argv[1] is "block", and prints as JSON its
# exit code and whether mpmath was loaded after `import qsphere.cli`, at the
# wrapped function's first call, and at the end.
_MPMATH_PROBE = """import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["mpmath"] = None
import qsphere.cli as cli
def loaded():
    return sys.modules.get("mpmath") is not None
seen = {"import": loaded()}
name, fn = sys.argv[2], getattr(cli, sys.argv[2])
def noted(*args):
    seen.setdefault("hook", loaded())
    return fn(*args)
setattr(cli, name, noted)
with contextlib.redirect_stdout(io.StringIO()):
    seen["code"] = cli.run(sys.argv[3:])
seen["end"] = loaded()
print(json.dumps(seen))
"""


@pytest.mark.parametrize("exact, hook, argv", [
    (False, "suite_oracle", ["oracle", "--N", "16", "--count", "10"]),
    (False, "suite_ergodic", ["ergodic", "--N", "16", "--D", "3"]),
    (False, "suite_compress", ["compress", "--N", "16"]),
    (False, "suite_theorem2", ["theorem2", "--l", "0.5", "--N", "16"]),
    (False, "suite_orbit", ["orbit", "--x", "0.3", "--y", "1.7"]),
    (False, "suite_picard", ["picard", "--x", "2"]),
    (False, "suite_relations", ["relations", "--alg", "uqsu2"]),
    (True, "suite_relations", ["relations", "--N", "16"]),
    (True, "suite_casimir", ["casimir", "--N", "16"]),
    (True, "suite_theta", ["theta", "--N", "8"]),
    (True, "suite_functional", ["functional", "--N", "24"]),
    (True, "_with_worker", SMALL_ALL)])
def test_mpmath_loads_only_for_exact_commands(exact, hook, argv):
    # importing the command line loads no mpmath; the commands that walk
    # only floats or compute no operator pass with every import of it
    # failing, and a command that walks exactly loads it before its first
    # suite, `all` before it forks its worker
    seen = json.loads(_probe(_MPMATH_PROBE,
                             ["load" if exact else "block", hook, *argv]))
    assert seen == {"import": False, "hook": exact, "code": 0, "end": exact}


# Runs the command line on each argv of the JSON list argv[1], in order, and
# prints as JSON which of the modules it watches were loaded after `import
# qsphere.cli` and after each command.
_LEAN_PROBE = """import contextlib, io, json, sys
import qsphere.cli as cli
def loaded():
    return [m for m in ("dataclasses", "inspect", "pickle") if m in sys.modules]
seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def test_numpy_free_commands_load_no_dataclasses_inspect_or_pickle():
    # the commands that load no numpy load none of these either: pickle is
    # read only by `all`'s fork, and nothing reads dataclasses (which loads
    # inspect, dis, ast and tokenize)
    commands = [["relations", "--N", "16"], ["theta", "--N", "8"],
                ["functional", "--N", "24"],
                ["orbit", "--x", "0.3", "--y", "1.7"], ["picard", "--x", "2"]]
    seen = json.loads(_probe(_LEAN_PROBE, [json.dumps(commands)]))
    assert seen == {name: [] for name in
                    ("import", "relations", "theta", "functional", "orbit",
                     "picard")}


# Runs the command line on argv[1:] and prints how many threads the process
# had at each os.fork call, one count per line.
_FORK_PROBE = """import contextlib, io, os, sys
import qsphere.cli as cli
fork, threads = os.fork, []
def counted():
    threads.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
print(*threads, sep="\\n")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc (Linux)")
def test_all_forks_from_one_thread():
    # OpenBLAS starts a thread per core when numpy loads unless told
    # otherwise, and from Python 3.12 on os.fork warns in a process with
    # threads; the command line asks for one thread unless the user chose
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    assert _probe(_FORK_PROBE, SMALL_ALL, env).split() == ["1"]


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


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys,
                                               monkeypatch):
    _no_suite(monkeypatch)
    assert run(["orbit", "--x", "0.3", "--y", "1.3",
                "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("verify: error: --out: ")
    assert list(tmp_path.iterdir()) == []


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
