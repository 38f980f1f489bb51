import math

import pytest

from qsphere.qcore import QParams, q_pochhammer, tau


P5 = QParams(0.5)


def test_tau_at_zero():
    assert tau(P5, 0.0) == 0.0


def test_tau_direct_values():
    # direct evaluation: 2 - 0.5
    assert tau(P5, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert tau(P5, -1.0) == pytest.approx(-1.5, abs=1e-15)


def test_tau_is_odd():
    for x in (0.3, 1.7, 2.5, 10.0):
        assert tau(P5, -x) == pytest.approx(-tau(P5, x), abs=1e-12)


def test_tau_at_infinity():
    assert tau(P5, math.inf) == math.inf
    assert tau(P5, -math.inf) == -math.inf


def test_tau_decreasing_in_q_for_positive_x():
    qs = [0.2, 0.4, 0.6, 0.8]
    vals = [tau(QParams(q), 1.3) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lambda_is_negative_reciprocal():
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        assert p.lam < 0
        assert p.lam == pytest.approx(1.0 / (q - 1.0 / q), abs=1e-16)


def test_qparams_rejects_bad_q():
    with pytest.raises(ValueError):
        QParams(0.0)
    with pytest.raises(ValueError):
        QParams(1.0)
    with pytest.raises(ValueError):
        QParams(1.3)


def test_qparams_warns_outside_safe_range():
    with pytest.warns(UserWarning):
        QParams(0.99)


def test_pochhammer_empty_product():
    assert q_pochhammer(3.7, 0.9, 0) == 1.0


def test_pochhammer_two_factors():
    # (1 - 0.5)(1 - 0.125)
    assert q_pochhammer(0.5, 0.25, 2) == pytest.approx(0.4375, abs=1e-15)


def test_pochhammer_vanishes_at_one():
    assert q_pochhammer(1.0, 0.25, 3) == 0.0


def test_pochhammer_recurrence():
    a, base = 0.7, 0.36
    for r in range(6):
        lhs = q_pochhammer(a, base, r + 1)
        rhs = q_pochhammer(a, base, r) * (1 - base**r * a)
        assert lhs == pytest.approx(rhs, rel=1e-14)



def test_pochhammer_refuses_non_integer_r():
    for r in (-1, 2.5, math.inf):
        with pytest.raises(ValueError):
            q_pochhammer(0.5, 0.25, r)
