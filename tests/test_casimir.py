import hashlib
import json
import math

import numpy as np
import pytest

from qsphere.qcore import QParams, tau
from qsphere.casimir import (
    SPECTRUM_EDGE,
    branch_indices,
    casimir_matrix,
    closed_form_eigvecs,
    compress_identify,
    covered_indices,
    eigvec_shifts,
    numeric_interior_spectrum,
)
from qsphere.cli import run
from qsphere.labels import rep_podles
from qsphere.reps import TensorRep, adjoint, max_abs, summed

from closed_form import eigvec_vector

P = QParams(0.5)
Q = P.q

SIGNS = ("plus", "minus")
BRANCHES = (1, -1)
XS = (0.35, 1.0, 2.5)


@pytest.mark.parametrize("q, x, N", [(0.5, 0.7, 64), (0.5, 0.35, 16),
                                     (0.3, 2.5, 24), (0.37, 0.7, 16),
                                     (0.7, -0.4, 20)])
def test_casimir_matrix_is_exactly_hermitian(q, x, N):
    # the coaction gives X (x) F and Y (x) EK one coefficient, lam_inv, and
    # the X and Y steps between two labels share their factors, so the
    # mirrored entries carry the same bits
    for sign in SIGNS:
        T2 = casimir_matrix(QParams(q), x, sign, N)
        assert np.array_equal(T2, T2.conj().T), (q, x, N, sign)


def _scatter(shifts, n, m):
    A = np.zeros((n, m), dtype=np.complex128)
    for tgt, coef in shifts:
        cols = np.flatnonzero(tgt >= 0)
        A[tgt[cols], cols] += coef[cols]
    return A


def eigvec_columns(p, x, sign, branch, N):
    """One eigenvector family as dense columns, stacked from the closed
    form."""
    return np.column_stack([eigvec_vector(p, x, sign, branch, k, N)
                            for k in branch_indices(sign, branch, N)])


def eigenprojection(p, x, sign, branch, N):
    U = eigvec_columns(p, x, sign, branch, N)
    return U @ U.conj().T


@pytest.mark.parametrize("q, x, N", [(0.5, 0.7, 64), (0.5, 0.35, 16),
                                     (0.3, 2.5, 24), (0.8, -0.4, 20)])
def test_casimir_matrix_is_scattered_tensor_t(q, x, N):
    for sign in SIGNS:
        p = QParams(q)
        shifts = TensorRep(rep_podles(p, x, sign, N)).shifts("T", N)
        want = _scatter(shifts, 2 * N, 2 * N)
        assert casimir_matrix(p, x, sign, N).tobytes() == want.tobytes()


def test_eigvec_shifts_are_the_closed_form_columns():
    for x in XS:
        for sign in SIGNS:
            for branch in BRANCHES:
                U = eigvec_columns(P, x, sign, branch, 16)
                shifts = eigvec_shifts(P, x, sign, branch, 16)
                got = _scatter(shifts, 32, U.shape[1])
                assert got.tobytes() == U.tobytes()
                # the walked projection U U^H, each entry one product
                proj = summed([shifts, adjoint(shifts, 32)], 32)
                want = eigenprojection(P, x, sign, branch, 16)
                assert max_abs(_scatter(proj, 32, 32) - want) <= 1e-16


def test_compression_matches_dense_products():
    # U^H G U walked on shifts against the dense product of the scattered
    # tensor generator and the eigenvector columns
    N = 20
    for x in XS:
        for sign in SIGNS:
            for branch in BRANCHES:
                crep, _ = compress_identify(P, x, sign, branch, N)
                U = eigvec_columns(P, x, sign, branch, N)
                K = U.shape[1]
                tensor = TensorRep(rep_podles(P, x, sign, N))
                for g in ("X", "Y", "Z", "Zi", "T"):
                    G = _scatter(tensor.shifts(g, N), 2 * N, 2 * N)
                    want = U.conj().T @ G @ U
                    got = _scatter(crep.shifts(g, K), K, K)
                    assert max_abs(got - want) <= 1e-15 * max(
                        1.0, max_abs(want)), (x, sign, branch, g)


def test_casimir_block_structure_matches_closed_form():
    x, N = 0.7, 16
    T2 = casimir_matrix(P, x, "plus", N)
    lam_inv = Q - 1 / Q
    for k in range(6):
        a = tau(P, x) / Q - (1 / Q - Q) * Q ** (2 * k - x + 2)
        b = tau(P, x) * Q + (1 / Q - Q) * Q ** (2 * k - x + 2)
        c = lam_inv * math.sqrt(
            (1 - Q ** (2 * k + 2)) * (1 + Q ** (2 * k - 2 * x + 2)))
        i, j = 2 * k, 2 * (k + 1) + 1
        assert T2[i, i] == pytest.approx(a, abs=1e-13)
        assert T2[j, j] == pytest.approx(b, abs=1e-13)
        assert T2[i, j] == pytest.approx(c, abs=1e-13)
        assert T2[j, i] == pytest.approx(c, abs=1e-13)
        # the 2x2 block is the whole story for these two columns
        col = T2[:, i].copy()
        col[[i, j]] = 0.0
        assert max_abs(col) < 1e-13


def test_casimir_orphan_eigenvalue():
    x, N = 0.7, 12
    T2 = casimir_matrix(P, x, "plus", N)
    assert T2[1, 1] == pytest.approx(tau(P, x + 1), abs=1e-13)
    col = T2[:, 1].copy()
    col[1] = 0.0
    assert max_abs(col) < 1e-13


def test_casimir_is_selfadjoint():
    T2 = casimir_matrix(P, 1.0, "minus", 24)
    assert max_abs(T2 - T2.conj().T) < 1e-12


def test_minus_matrix_mirrors_plus():
    for x in (0.35, 1.7):
        A = casimir_matrix(P, x, "minus", 16)
        B = casimir_matrix(P, -x, "plus", 16)
        assert max_abs(A + B) < 1e-12


def test_closed_form_eigvec_residuals():
    N = 32
    for x in XS:
        for sign in SIGNS:
            T2 = casimir_matrix(P, x, sign, N)
            for branch in BRANCHES:
                val = tau(P, x + branch)
                for k in branch_indices(sign, branch, N):
                    v = eigvec_vector(P, x, sign, branch, k, N)
                    assert np.linalg.norm(T2 @ v - val * v) < 1e-12


def test_closed_form_eigvec_matches_reference_bits():
    # non-integer x: the exponents (2k - 2x) + 2 and (2k + 2) - 2x round
    # differently at x = 1/3 for k = 1, 2, 3, 4, 7, 8, ...
    text = repr([(q, x, sign, branch, k,
                  [(slot, v.hex()) for slot, v in vec])
                 for q in (0.3, 0.8) for x in (1 / 3, -1.3, 8)
                 for sign in SIGNS for branch in BRANCHES
                 for k, vec in zip(branch_indices(sign, branch, 64),
                                   closed_form_eigvecs(QParams(q), x, sign,
                                                       branch, 64),
                                   strict=True)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5e3a7bebfc6f06bd7fd23a05118fc023db0897a2827fbbbaa5bf563cce25e65d")


def test_first_plus_branch_vector_is_orphan():
    v = eigvec_vector(P, 0.7, "plus", 1, 0, 12)
    want = np.zeros(24)
    want[1] = 1.0
    assert np.linalg.norm(v - want) < 1e-13


def test_eigvec_orthonormality_and_cross_branch():
    N = 24
    for sign in SIGNS:
        U = eigvec_columns(P, 1.3, sign, 1, N)
        V = eigvec_columns(P, 1.3, sign, -1, N)
        both = np.hstack([U, V])
        gram = both.conj().T @ both
        assert max_abs(gram - np.eye(gram.shape[0])) < 1e-12


def test_eigenprojection_properties():
    N = 24
    x = 0.35
    for sign in SIGNS:
        T2 = casimir_matrix(P, x, sign, N)
        ps = {}
        for branch in BRANCHES:
            p = eigenprojection(P, x, sign, branch, N)
            ps[branch] = p
            assert max_abs(p @ p - p) < 1e-12
            assert max_abs(p - p.conj().T) < 1e-13
            val = tau(P, x + branch)
            assert max_abs(p @ T2 - val * p) < 1e-11
            k_count = len(branch_indices(sign, branch, N))
            assert np.trace(p).real == pytest.approx(k_count, abs=1e-10)
        cov = covered_indices(N)
        total = (ps[1] + ps[-1])[np.ix_(cov, cov)]
        assert max_abs(total - np.eye(len(cov))) < 1e-11


def test_minus_projections_mirror_plus_with_branches_swapped():
    N, x = 16, 0.8
    for branch in BRANCHES:
        a = eigenprojection(P, x, "minus", branch, N)
        b = eigenprojection(P, -x, "plus", -branch, N)
        assert max_abs(a - b) < 1e-12


def test_numeric_interior_spectrum_two_valued():
    # at N = 32 the slots below 2(N - SPECTRUM_EDGE) = 56 hold the orphan
    # singleton at slot 1 and the 27 blocks (2k, 2k + 3) with k <= 26
    assert SPECTRUM_EDGE == 4
    for x in XS:
        for sign in SIGNS:
            vals = numeric_interior_spectrum(P, x, sign, 32)
            assert len(vals) == 1 + 2 * 27, (x, sign)
            lo, hi = tau(P, x - 1), tau(P, x + 1)
            dist = np.minimum(np.abs(vals - lo), np.abs(vals - hi))
            assert dist.max() < 1e-9


@pytest.mark.parametrize("q, x, N", [(0.5, 0.7, 64), (0.3, 2.5, 24),
                                     (0.8, -0.4, 20), (0.5, 0.7, 5)])
def test_numeric_interior_spectrum_matches_dense_eigenvalues(q, x, N):
    # every interior block's eigenvalues are eigenvalues of the dense window
    p = QParams(q)
    for sign in SIGNS:
        vals = numeric_interior_spectrum(p, x, sign, N)
        dense = np.linalg.eigvalsh(casimir_matrix(p, x, sign, N))
        gap = np.abs(vals[:, None] - dense[None, :]).min(axis=1)
        assert gap.max(initial=0.0) < 1e-12, (q, x, N, sign)
        # the orphan singleton and the blocks (2k, 2k + 3) with k <= N - 6
        assert len(vals) == 1 + 2 * (N - 5), (q, x, N, sign)


def _extra_t_shift(kind):
    """An entry T lacks, which breaks its 2x2 block form: a superdiagonal
    (a second off-diagonal entry in each column), or one entry coupling the
    orphan slot 1 to slot 0 (a pair that is not mutual)."""
    def shift(n):
        tgt = np.full(n, -1, dtype=np.intp)
        coef = np.zeros(n, dtype=np.complex128)
        if kind == "superdiagonal":
            tgt[:-1], coef[:-1] = np.arange(1, n), 1e-3
        else:
            tgt[1], coef[1] = 0, 1e-3
        return tgt, coef
    return shift


@pytest.mark.parametrize("kind", ["superdiagonal", "one_sided"])
def test_spectrum_without_block_form_reads_inf(kind, monkeypatch, capsys):
    import qsphere.casimir as casimir
    extra = _extra_t_shift(kind)

    class Broken(TensorRep):
        def shifts(self, g, M):
            out = super().shifts(g, M)
            return out + [extra(self.dim(M))] if g == "T" else out

    monkeypatch.setattr(casimir, "TensorRep", Broken)
    for sign in SIGNS:
        assert numeric_interior_spectrum(P, 0.7, sign, 16).tolist() == [
            math.inf]
    assert run(["casimir", "--x", "0.7", "--N", "16", "--json"]) == 1
    details = {d["item"]: d["residual"] for d in
               json.loads(capsys.readouterr().out)["checks"][0]["details"]}
    assert details["spectrum_plus"] == details["spectrum_minus"] == "inf"


def test_compress_identify_matches_shifted_representation():
    N = 32
    for x in XS:
        for sign in SIGNS:
            for branch in BRANCHES:
                crep, res = compress_identify(P, x, sign, branch, N)
                gen_res = max(v for k, v in res.items()
                              if k.startswith("generator_"))
                assert gen_res < 1e-10, (x, sign, branch, res)
                assert res["t_scalar"] < 1e-11
                assert res["relations"] < 1e-10
                if sign == "plus":
                    assert res["z_positive_distinct"] == 0.0
