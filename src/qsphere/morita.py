"""Orbit arithmetic and Picard classification of the sphere parameters, and
the concrete chain of equivalences through the graded algebras: the basis
change splitting (double space) x C^2 into the two neighbouring double
spaces, read from the Casimir eigenvectors at x = 2l (bl(l)'s double space
is podles(2l)'s with the plus labels moved up by 2l), the explicit block
formulas for the middle graded generator, and the projective-plane base case.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .casimir import covered_indices, eigvec_columns, eigvec_shifts
from .qcore import QParams
from .ncalg import NCPoly, a_gen, basis_words, make_presentation, normal_form
from .report import max_or_nan
from .reps import TensorRep, compress, max_abs, on_support, rep_bl, walk

STANDARD = "standard"
ORBIT_TOL = 1e-12     # |x + m| against |y| in orbit_equivalent
INTEGER_TOL = 1e-9    # distance to the nearest integer in picard_group


def _is_standard(a) -> bool:
    return isinstance(a, str) and a.lower() in (STANDARD, "inf", "infinity")


def orbit_equivalent(a, b):
    """Whether two sphere parameters lie on one equivalence orbit; finite
    parameters are equivalent iff some integer shift matches them up to sign.
    Returns (flag, witness integer or None)."""
    if _is_standard(a) or _is_standard(b):
        return (_is_standard(a) and _is_standard(b), None)
    x, y = float(a), float(b)
    reach = int(math.ceil(abs(x) + abs(y))) + 1
    for m in sorted(range(-reach, reach + 1), key=lambda v: (abs(v), v)):
        if abs(abs(x + m) - abs(y)) <= ORBIT_TOL:
            return (True, m)
    return (False, None)


def picard_group(a) -> str:
    """Self-equivalence class group of one sphere: Z for the standard sphere,
    Z2 at integer parameters, trivial otherwise.

    Integer detection classifies the input parameter, it is not a numerical
    discovery.
    """
    if _is_standard(a):
        return "Z"
    x = float(a)
    return "Z2" if abs(x - round(x)) <= INTEGER_TOL else "trivial"


# ---------------------------------------------------------------------------
# basis change on (double space) x C^2
# ---------------------------------------------------------------------------

class BasisChange(NamedTuple):
    """Isometries from the two neighbouring double-space layouts into
    (double space at l) x C^2, the summand projections, and the tensor slots
    the two families span (all but each summand's top spin-plus slot)."""

    N_new: int
    W_up: np.ndarray
    W_down: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    covered: np.ndarray


def basis_change(p: QParams, l, M: int) -> BasisChange:
    """Each family is one Casimir branch at x = 2l: the minus eigenvectors on
    tensor slots [0, 2M) and the plus ones on [2M, 4M), since bl(l)'s "+"
    summand is podles(2l)'s plus series with labels moved up by 2l.  W_up and
    W_down keep the leading M-1 of each; the projections use all."""
    if l < 0 or (2 * l) != int(2 * l):
        raise ValueError(f"l must be a nonnegative half-integer, got {l}")
    N = M - 1

    def family(branch):
        minus, plus = (eigvec_columns(p, 2 * l, sign, branch, M)
                       for sign in ("minus", "plus"))
        k = minus.shape[1]
        full = np.zeros((4 * M, k + plus.shape[1]), dtype=np.complex128)
        full[:2 * M, :k] = minus
        full[2 * M:, k:] = plus
        return full[:, np.r_[:N, k:k + N]], full @ full.conj().T

    (W_up, p_up), (W_down, p_down) = family(1), family(-1)
    half = covered_indices(M)
    return BasisChange(N, W_up, W_down, p_up, p_down,
                       np.concatenate([half, half + 2 * M]))


def a0_block(p: QParams, l, branch: int, M: int):
    """The middle graded generator of the neighbouring algebra, assembled as
    a 2x2 block operator over the level-l images, together with its
    compression residuals.

    branch=+1 targets level l+1/2, branch=-1 (l>0 only) targets l-1/2.
    """
    q = p.q
    if branch == -1 and l == 0:
        raise ValueError("the downward block needs l > 0")
    rep = rep_bl(p, l, M)
    A0 = rep.matrix(a_gen(0), M)
    Am1 = rep.matrix(a_gen(-1), M)
    Ap1 = rep.matrix(a_gen(1), M)
    Z = rep.matrix("Z", M)
    I = np.eye(2 * M, dtype=np.complex128)
    if branch == 1:
        # self-adjointness of the block pins the second upper-right factor to
        # exponent 2l-1 (its adjoint then reproduces the lower-left entry)
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
    # slot 2j+s carries spin s, so B_ij fills rows i::2, columns j::2 (added
    # onto zeros: no entry is a negative zero).  The normalized splitting
    # vectors force an overall 1/(1+q^(4l)); with it the compression
    # reproduces the neighbour-level generator exactly
    block = np.zeros((4 * M, 4 * M), dtype=np.complex128)
    for (i, j), B in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                         (Bpp, Bpm, Bmp, Bmm)):
        block[i::2, j::2] += B
    block /= 1 + q ** (4 * l)

    bc = basis_change(p, l, M)
    W_right = bc.W_up if branch == 1 else bc.W_down
    W_wrong = bc.W_down if branch == 1 else bc.W_up
    target = rep_bl(p, l + branch / 2, bc.N_new)
    want = target.matrix(a_gen(0), bc.N_new)
    report = {
        "match": max_abs(W_right.conj().T @ block @ W_right - want),
        "wrong_summand": max_abs(W_wrong.conj().T @ block @ W_wrong),
        "cross": max_or_nan(
            max_abs(W_wrong.conj().T @ block @ W_right),
            max_abs(W_right.conj().T @ block @ W_wrong)),
    }
    return block, report


def podles_part_compression(p: QParams, l, M: int) -> dict:
    """Compress the coaction-tensored sphere generators by either family,
    `basis_change`'s W_up or W_down as two weighted shifts, and match them
    against the neighbouring double-space representation."""
    rep2 = TensorRep(rep_bl(p, l, M))
    out = {}
    for branch in [1] + ([-1] if l > 0 else []):
        minus, plus = (eigvec_shifts(p, 2 * l, sign, branch, M, M - 1)
                       for sign in ("minus", "plus"))
        U = [(np.concatenate([tm, np.where(tp >= 0, tp + 2 * M, -1)]),
              np.concatenate([cm, cp]))
             for (tm, cm), (tp, cp) in zip(minus, plus)]
        target = rep_bl(p, l + branch / 2, M - 1)
        n = target.dim(M - 1)
        for g in ("X", "Y", "Z"):
            cols, rows, val = compress(U, rep2.shifts(g, M), 4 * M)
            tc, tr, tv = walk(target, (g,), M - 1, np.arange(n))
            got, want = on_support([(rows * n + cols, val)],
                                   [(tr * n + tc, tv)])
            out[f"{'up' if branch == 1 else 'down'}_{g}"] = max_abs(got - want)
    return out


def basis_change_checks(p: QParams, l, M: int) -> dict:
    """Orthonormality and completeness residuals of the basis change."""
    bc = basis_change(p, l, M)
    out = {}
    for name, W in (("up", bc.W_up), ("down", bc.W_down)):
        gram = W.conj().T @ W
        out[f"orthonormal_{name}"] = max_abs(gram - np.eye(gram.shape[0]))
    cov = bc.covered
    total = (bc.p_up + bc.p_down)[np.ix_(cov, cov)]
    out["completeness"] = max_abs(total - np.eye(len(cov)))
    return out


def rp2_suite(p: QParams, N: int) -> dict:
    """Base-case checks in the level-0 algebra: the graded involution, the
    antipodal conjugation, the projection swap under the involution, and the
    closure of the even subalgebra."""
    q = p.q
    M = N + 4
    rep = rep_bl(p, 0, M)
    A0 = rep.matrix(a_gen(0), M)
    I = np.eye(2 * M, dtype=np.complex128)
    p_plus = (I + A0) / 2
    p_minus = (I - A0) / 2
    out = {
        "involution": max_or_nan(
            max_abs(A0 @ A0 - I),
            max_abs(A0 - A0.conj().T)),
        "projections": max_or_nan(
            max_abs(p_plus @ p_plus - p_plus),
            max_abs(p_plus @ p_minus),
            max_abs(p_plus + p_minus - I)),
    }
    conj = 0.0
    for g in ("X", "Y", "Z"):
        G = rep.matrix(g, M)
        conj = max_or_nan(conj, max_abs(A0 @ G @ A0 + G))
    out["antipodal_conjugation"] = conj

    bc = basis_change(p, 0, M)
    A0t = np.zeros((4 * M, 4 * M), dtype=np.complex128)
    A0t[0::2, 0::2] = A0t[1::2, 1::2] = A0   # A0 x I on the tensor slots
    cov = bc.covered
    swap = (A0t @ bc.p_up @ A0t - bc.p_down)[np.ix_(cov, cov)]
    out["projection_swap"] = max_abs(swap)

    # even part of the equatorial sphere closes under multiplication
    pres = make_presentation("podles", p, x=0.0)
    evens = [w for w in basis_words(pres, 3) if len(w) % 2 == 0]
    odd_leak = 0.0
    for u in evens:
        for v in evens:
            nf = normal_form(NCPoly({u + v: 1.0}), pres)
            for w, c in nf.terms.items():
                if len(w) % 2:
                    odd_leak = max_or_nan(odd_leak, abs(c))
    out["even_subalgebra"] = odd_leak
    return out
