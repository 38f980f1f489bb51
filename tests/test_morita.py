import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qsphere.qcore import QParams
from qsphere.morita import (
    a0_block,
    basis_change,
    basis_change_checks,
    podles_part_compression,
    rp2_suite,
)
from qsphere.ncalg import LCG, a_gen
from qsphere.orbits import orbit_equivalent, picard_group
from qsphere.labels import rep_bl
from qsphere.reps import adjoint, max_abs, summed

import reference_orbit
from closed_form import eigvec_vector

P = QParams(0.5)
Q = P.q


def _scatter(shifts, n, m):
    A = np.zeros((n, m), dtype=np.complex128)
    for tgt, coef in shifts:
        cols = np.flatnonzero(tgt >= 0)
        A[tgt[cols], cols] += coef[cols]
    return A


def test_orbit_examples():
    assert orbit_equivalent(0.3, 1.7) == (True, -2)
    assert orbit_equivalent(1.2, 1.2) == (True, 0)
    assert orbit_equivalent(0.3, 0.4) == (False, None)
    assert orbit_equivalent("standard", 0.5) == (False, None)
    assert orbit_equivalent("standard", "standard") == (True, None)


def test_orbit_witness_definition():
    flag, m = orbit_equivalent(0.35, 2.65)
    assert flag and abs(abs(0.35 + m) - 2.65) < 1e-12


def test_orbit_is_equivalence_relation():
    rng = LCG(7)
    base = [rng.below(400) / 100.0 - 2.0 for _ in range(8)]
    params = base + [abs(b + rng.below(5) - 2) for b in base]
    for x in params:
        assert orbit_equivalent(x, x)[0]
    for x in params:
        for y in params:
            assert orbit_equivalent(x, y)[0] == orbit_equivalent(y, x)[0]
    for x in params:
        for y in params:
            for z in params:
                if orbit_equivalent(x, y)[0] and orbit_equivalent(y, z)[0]:
                    assert orbit_equivalent(x, z)[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=st.floats(-25, 25), k=st.integers(-25, 25),
       sign=st.sampled_from([1, -1]),
       eps=st.sampled_from([0.0, 4e-13, -9e-13, 1e-12, 3e-12, 0.25, 0.5]))
def test_orbit_matches_the_scan(x, k, sign, eps):
    # the two-candidate witness against the scan over every shift, on pairs
    # at, near and off an orbit; the scan's range stays small here
    y = sign * (x + k) + eps
    assume(abs(x) + abs(y) <= 50)
    assert orbit_equivalent(x, y) == reference_orbit.orbit_equivalent(x, y)


def test_orbit_matches_the_scan_on_half_integers():
    # both signs match at once, and the smaller |m| must win
    for x in range(-40, 41):
        for y in range(-40, 41):
            a, b = x / 4, y / 4
            assert (orbit_equivalent(a, b)
                    == reference_orbit.orbit_equivalent(a, b)), (a, b)


def test_picard_table():
    assert picard_group("standard") == "Z"
    assert picard_group(2.0) == "Z2"
    assert picard_group(0.0) == "Z2"
    assert picard_group(0.7) == "trivial"


def test_basis_change_column_norm_identity():
    # scalar oracle: (1 -+ q^(2k+4l+2)) + q^(4l) (1 +- q^(2k+2)) = 1 + q^(4l)
    for l in (0, 0.5, 1):
        for k in range(6):
            for sgn in (+1, -1):
                lhs = (1 - sgn * Q ** (2 * k + 4 * l + 2)
                       + Q ** (4 * l) * (1 + sgn * Q ** (2 * k + 2)))
                assert lhs == pytest.approx(1 + Q ** (4 * l), rel=1e-15)


def test_basis_change_orthonormal_and_complete():
    for l in (0, 0.5, 1, 1.5):
        res = basis_change_checks(basis_change(P, l, 20), 20)
        assert res["orthonormal_up"] < 1e-13
        assert res["orthonormal_down"] < 1e-13
        assert res["completeness"] < 1e-12


def test_basis_change_columns_are_casimir_eigenvectors():
    l = 0.5
    M = 16
    bc = basis_change(P, l, M)
    twol = 1
    N = bc.N_new
    W_up = _scatter(bc.W_up, 4 * M, 2 * N)
    W_down = _scatter(bc.W_down, 4 * M, 2 * N)

    def embed(vec, summand):
        out = np.zeros(4 * M, dtype=np.complex128)
        for j in range(M):
            for sp in (0, 1):
                inner = j if summand == "-" else M + j
                out[2 * inner + sp] = vec[2 * j + sp]
        return out

    for k in (0, 1, 5):
        col = W_up[:, k]
        xi = eigvec_vector(P, 2 * l, "minus", 1, k, M)
        assert max_abs(col - embed(xi, "-")) < 1e-13
    for j, col_pos in ((0, N), (3, N + 3)):
        col = W_up[:, col_pos]
        xi = eigvec_vector(P, 2 * l, "plus", 1, j, M)
        assert max_abs(col - embed(xi, "+")) < 1e-13
    for k in (0, 2):
        col = W_down[:, k]
        xi = eigvec_vector(P, 2 * l, "minus", -1, k, M)
        assert max_abs(col - embed(xi, "-")) < 1e-13


def test_a0_block_matches_neighbour_levels():
    for l, branch in [(0.5, 1), (0.5, -1), (1, 1), (1, -1), (1.5, 1),
                      (1.5, -1)]:
        _, rep = a0_block(P, l, branch, 24, basis_change(P, l, 24))
        assert rep["match"] < 1e-10, (l, branch, rep)
        assert rep["wrong_summand"] < 1e-11, (l, branch, rep)
        assert rep["cross"] < 1e-11, (l, branch, rep)


def test_a0_block_rejects_level_zero_down():
    with pytest.raises(ValueError):
        a0_block(P, 0, -1, 16, basis_change(P, 0, 16))


def test_podles_part_compression():
    for l in (0, 0.5, 1):
        res = podles_part_compression(P, l, 20, basis_change(P, l, 20))
        assert max(res.values()) < 1e-10, (l, res)


def test_rp2_suite():
    res = rp2_suite(P, 20)
    assert res["involution"] < 1e-13
    assert res["projections"] < 1e-13
    assert res["antipodal_conjugation"] < 1e-13
    assert res["projection_swap"] < 1e-12
    assert res["even_subalgebra"] == 0.0


# -- reference: the two-entry splitting vectors and the kron assembly the
#    basis change and the middle graded block were first written with

def _ref_bc_vector(p, l, which, mu, k, M):
    q = p.q
    twol = int(2 * l)
    denom = math.sqrt(1 + q ** (4 * l))
    v = np.zeros(4 * M, dtype=np.complex128)
    up = mu == "+"
    if which == 1:
        c_plus = (-math.sqrt(1 - q ** (2 * k + 4 * l + 2)) if up
                  else math.sqrt(1 + q ** (2 * k + 4 * l + 2)))
        c_minus = q ** (2 * l) * (math.sqrt(1 + q ** (2 * k + 2)) if up
                                  else math.sqrt(1 - q ** (2 * k + 2)))
        spots = [(k, 0, c_plus), (k + 1, 1, c_minus)]
        if 2 * k + 4 * l + 2 == 0:
            spots = spots[1:]
        if not up and 2 * k + 2 == 0:
            spots = spots[:1]
    else:
        c_plus = q ** (2 * l) * (math.sqrt(1 + q ** (2 * k)) if up
                                 else -math.sqrt(1 - q ** (2 * k)))
        c_minus = (math.sqrt(1 - q ** (2 * k + 4 * l)) if up
                   else math.sqrt(1 + q ** (2 * k + 4 * l)))
        spots = [(k - 1, 0, c_plus), (k, 1, c_minus)]
        if not up and k == 0:
            spots = spots[1:]
        if up and 2 * k + 4 * l == 0:
            spots = spots[:1]
    for kk, sp, c in spots:
        inner = kk if mu == "-" else M + kk + twol
        v[2 * inner + sp] = c / denom
    return v


def _ref_basis_change(p, l, M):
    twol = int(2 * l)
    N = M - 1

    def columns(which, minus_ks, plus_ks):
        cols = [_ref_bc_vector(p, l, which, "-", k, M) for k in minus_ks]
        cols += [_ref_bc_vector(p, l, which, "+", k, M) for k in plus_ks]
        return np.column_stack(cols)

    all_up = columns(1, range(M - 1), range(-(twol + 1), M - 1 - twol))
    all_down = columns(-1, range(M), range(-(twol - 1), M - twol))
    covered = np.array([i for i in range(4 * M)
                        if i not in (2 * (M - 1), 2 * (2 * M - 1))])
    return {
        "W_up": columns(1, range(N), range(-(twol + 1), N - 1 - twol)),
        "W_down": columns(-1, range(N), range(-(twol - 1), N + 1 - twol)),
        "p_up": all_up @ all_up.conj().T,
        "p_down": all_down @ all_down.conj().T,
        "covered": covered,
    }


def _ref_a0_block(p, l, branch, M):
    q = p.q
    rep = rep_bl(p, l, M)
    A0 = rep.matrix(a_gen(0), M)
    Am1 = rep.matrix(a_gen(-1), M)
    Ap1 = rep.matrix(a_gen(1), M)
    Z = rep.matrix("Z", M)
    I = np.eye(2 * M, dtype=np.complex128)
    if branch == 1:
        Bpp = -A0 @ (I - q ** (4 * l + 2) * Z @ Z)
        Bpm = q ** (2 * l) * Am1 @ (I + q ** (-2 * l - 1) * Z) @ (
            I + q ** (2 * l - 1) * Z)
        Bmp = -(q ** (2 * l)) * Ap1 @ (I - q ** (-2 * l + 1) * Z) @ (
            I - q ** (2 * l + 1) * Z)
        Bmm = q ** (4 * l) * A0 @ (I - q ** (-4 * l - 2) * Z @ Z)
    else:
        Bpp = -(q ** (4 * l)) * A0
        Bpm = -(q ** (2 * l)) * Am1
        Bmp = q ** (2 * l) * Ap1
        Bmm = A0

    def unit(row, col):
        E = np.zeros((2, 2), dtype=np.complex128)
        E[row, col] = 1.0
        return E

    return (np.kron(Bpp, unit(0, 0)) + np.kron(Bpm, unit(0, 1))
            + np.kron(Bmp, unit(1, 0)) + np.kron(Bmm, unit(1, 1))
            ) / (1 + q ** (4 * l))


def test_basis_change_matches_reference_bits():
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        for l in (0, 0.5, 1, 1.5, 2):
            for M in (8, 17, 24):
                bc = basis_change(p, l, M)
                ref = _ref_basis_change(p, l, M)
                n = 4 * M
                got = {"W_up": _scatter(bc.W_up, n, 2 * bc.N_new),
                       "W_down": _scatter(bc.W_down, n, 2 * bc.N_new)}
                for name, U in (("p_up", bc.U_up), ("p_down", bc.U_down)):
                    got[name] = _scatter(summed([U, adjoint(U, n)], n), n, n)
                for name, A in got.items():
                    assert A.tobytes() == ref[name].tobytes(), (q, l, M, name)
                cov = bc.covered
                assert cov.tobytes() == ref["covered"].tobytes(), (q, l, M)
                # A(+-1) exist from l = 1/2, and the level l + 1/2 needs
                # M - 1 >= 4(l + 1/2) + 4
                if l == 0 or M < 4 * l + 7:
                    continue
                for branch in (1, -1):
                    block, _ = a0_block(p, l, branch, M, bc)
                    want = _ref_a0_block(p, l, branch, M)
                    got = _scatter(block, 4 * M, 4 * M)
                    assert got.tobytes() == want.tobytes(), (q, l, M, branch)
