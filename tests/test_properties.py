"""Property test of the command line: every run over a small parameter box
ends in a report or in a one-line usage error, never in a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.cli import run

# functional and all need N >= 20 and 22 and take seconds; they are left out
COMMANDS = ("relations", "casimir", "compress", "theta", "ergodic", "oracle",
            "theorem2", "orbit", "picard")


# seven examples per command, 63 in all
@pytest.mark.parametrize("cmd", COMMANDS)
@settings(max_examples=7, derandomize=True, deadline=None)
@given(q=st.floats(0.05, 0.95),
       x=st.floats(-6.0, 6.0),
       y=st.floats(-6.0, 6.0),
       l=st.sampled_from((0, 0.5, 1, 1.5)),
       N=st.integers(3, 20),
       D=st.integers(0, 3),
       count=st.integers(1, 5))
def test_every_run_reports_or_fails_cleanly(cmd, q, x, y, l, N, D, count):
    argv = [cmd, "--q", repr(q), "--x", repr(x), "--y", repr(y),
            "--l", repr(l), "--N", str(N), "--D", str(D),
            "--count", str(count), "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        return
    assert code in (0, 1), argv
    report = json.loads(out.getvalue())
    passed = all(c["status"] == "pass" for c in report["checks"])
    assert (code == 0) == passed, argv
