import json
import math

from qsphere.cli import run
from qsphere.ncalg import make_presentation
from qsphere.qcore import QParams
from qsphere.report import VerificationReport, canonical_json, max_or_nan
from qsphere import labels, reps
from qsphere.labels import (
    combos_residual,
    relation_check,
    rep_podles,
)

NAN = float("nan")
INF = float("inf")

# canonical bytes of a finite report, as written before non-finite values
# were given a serialization
FINITE_JSON = (
    '{"checks":[{"check":"bad","details":[{"item":"x","residual":'
    '0.10000000000000001,"threshold":0.01}],"max_residual":'
    '0.10000000000000001,"params":{"q":0.29999999999999999},"status":"fail"},'
    '{"check":"c","details":[{"item":"a","residual":2.4999999999999999e-13,'
    '"threshold":9.9999999999999998e-13},{"item":"b","residual":'
    '9.9999999999999994e-12,"threshold":9.9999999999999994e-12}],'
    '"max_residual":9.9999999999999994e-12,"params":{"N":16,"alg":null,'
    '"q":0.5},"status":"pass"}],"version":"0.1.0"}')


def test_finite_report_bytes_unchanged():
    r = VerificationReport("c", {"q": 0.5, "N": 16, "alg": None})
    r.add("b", 1e-11, 1e-11)
    r.add("a", 2.5e-13, 1e-12)
    s = VerificationReport("bad", {"q": 0.3})
    s.add("x", 0.1, 0.01)
    assert canonical_json([r, s], "0.1.0") == FINITE_JSON


def test_max_or_nan():
    assert max_or_nan() == 0.0
    assert max_or_nan(0.5, 2.0, 1.0) == 2.0
    assert max_or_nan(3.0, INF) == INF
    for args in ((0.0, NAN), (NAN, 1.0), (1.0, NAN, INF)):
        assert math.isnan(max_or_nan(*args)), args


def test_nonfinite_residuals_fail_with_valid_json():
    for bad, text in ((NAN, "nan"), (INF, "inf")):
        rpt = VerificationReport("c", {"q": 0.5})
        rpt.add("good", 1e-13, 1e-11)
        rpt.add("bad", bad, 1e-11)
        assert rpt.status == "fail"
        obj = json.loads(canonical_json([rpt], "0.1.0"))
        check = obj["checks"][0]
        assert check["status"] == "fail"
        assert check["max_residual"] == text
        assert {d["item"]: d["residual"] for d in check["details"]} == {
            "bad": text, "good": 1e-13}
        assert any(text in line for line in rpt.summary_lines())
    rpt = VerificationReport("c", {"x": -INF})
    assert json.loads(canonical_json([rpt], "0.1.0"))[
        "checks"][0]["params"]["x"] == "-inf"


def test_nan_residuals_propagate_through_walks():
    p = QParams(0.5)
    rep = rep_podles(p, NAN, "direct_sum", 8)
    pres = make_presentation("podles", p, x=1.0)
    assert any(math.isnan(r) for r in relation_check(pres, rep).values())
    # combos_residual takes its precision from the rep's x, so the NaN
    # enters through a combo coefficient on a finite rep
    finite = rep_podles(p, 1.0, "direct_sum", 8)
    assert math.isnan(combos_residual(finite, [(NAN, [("Z", False)])], [], 8))


def _strict_json(text):
    """json.loads refusing the bare NaN and Infinity literals it accepts by
    default, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_a_check_that_evaluated_nothing_fails():
    # walking no columns, or a window without a label, reads NaN, not the
    # 0.0 that an empty maximum would give, so such a detail cannot pass
    rep = rep_podles(QParams(0.5), 1.0, "direct_sum", 8)
    X = rep.shifts("X", 12)
    assert reps.walk_defect([[X]], [[X]], [0]) == 0.0
    for cols in ([], range(0)):
        assert math.isnan(reps.walk_defect([[X]], [[X]], cols))
        assert math.isnan(reps.walk_defect([[X]], [], cols))
    Z = [(1.0, [("Z", False)])]
    assert labels.combos_residuals(rep, [(Z, Z)], 1) == [0.0]
    empty = labels.combos_residuals(rep, [(Z, Z), (Z, []), ([], [])], 0)
    assert len(empty) == 3 and all(math.isnan(r) for r in empty)
    rpt = VerificationReport("c", {"q": 0.5})
    rpt.add("walked", reps.walk_defect([[X]], [[X]], [0]), 1e-11)
    rpt.add("no_columns", reps.walk_defect([[X]], [[X]], []), 1e-11)
    rpt.add("no_labels", empty[0], 1e-11)
    assert rpt.status == "fail"
    check = _strict_json(canonical_json([rpt], "0.1.0"))["checks"][0]
    assert check["status"] == "fail" and check["max_residual"] == "nan"
    assert {d["item"]: d["residual"] for d in check["details"]} == {
        "walked": 0.0, "no_columns": "nan", "no_labels": "nan"}


def test_a_report_with_no_details_fails():
    # a suite that produced no detail certified nothing: relation_check on
    # a presentation with no defining rule is one such
    p = QParams(0.5)
    pres = make_presentation("uqmp", p)
    pres.rules = tuple(r for r in pres.rules if not r.defining)
    assert relation_check(pres, rep_podles(p, 1.0, "direct_sum", 8)) == {}
    rpt = VerificationReport("c", {"q": 0.5})
    assert rpt.status == "fail"
    check = _strict_json(canonical_json([rpt], "0.1.0"))["checks"][0]
    assert check["status"] == "fail" and check["details"] == []
    assert next(rpt.summary_lines()).startswith("[FAIL]")
    rpt.add("held", 0.0, 1e-11)
    assert rpt.status == "pass"


def test_nan_oracle_residual_fails_cli(capsys, monkeypatch):
    monkeypatch.setattr(reps, "residuals",
                        lambda pairs, rep: [NAN for _ in pairs])
    code = run(["oracle", "--N", "8", "--count", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    for check in report["checks"]:
        assert check["status"] == "fail"
        assert check["max_residual"] == "nan"
