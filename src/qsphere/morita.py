"""The concrete chain of equivalences through the graded algebras: the basis
change splitting (double space) x C^2 into the two neighbouring double
spaces, read from the Casimir eigenvectors at x = 2l (bl(l)'s double space
is podles(2l)'s with the plus labels moved up by 2l), the explicit block
formulas for the middle graded generator, and the projective-plane base case.
Every operator is a list of weighted shifts: the eigenvectors two entries
each, the block four lifted shifts, and each identity is walked as a
difference of products (`reps.walk_defect`).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .casimir import covered_indices, eigvec_shifts
from .qcore import QParams
from .ncalg import NCPoly, a_gen, basis_words, make_presentation, normal_form
from .report import max_or_nan
from .labels import rep_bl
from .reps import TensorRep, adjoint, lift, walk_defect


# ---------------------------------------------------------------------------
# basis change on (double space) x C^2
# ---------------------------------------------------------------------------

class BasisChange(NamedTuple):
    """Isometries from the two neighbouring double-space layouts into
    (double space at l) x C^2, the whole families whose U U^H are the
    summand projections, each as two one-to-one weighted shifts (minus
    columns, then plus), and the tensor slots the two families span (all
    but each summand's top spin-plus slot)."""

    N_new: int
    W_up: list
    W_down: list
    U_up: list
    U_down: list
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
        minus, plus = (eigvec_shifts(p, 2 * l, sign, branch, M)
                       for sign in ("minus", "plus"))
        k = len(minus[0][0])
        full = [(np.concatenate([tm, np.where(tp >= 0, tp + 2 * M, -1)]),
                 np.concatenate([cm, cp]))
                for (tm, cm), (tp, cp) in zip(minus, plus)]
        lead = np.r_[:N, k:k + N]
        return [(t[lead], c[lead]) for t, c in full], full

    (W_up, U_up), (W_down, U_down) = family(1), family(-1)
    half = covered_indices(M)
    return BasisChange(N, W_up, W_down, U_up, U_down,
                       np.concatenate([half, half + 2 * M]))


def a0_block(p: QParams, l, branch: int, M: int, bc: BasisChange):
    """The middle graded generator of the neighbouring algebra, assembled as
    a 2x2 block operator over the level-l images, together with its
    compression residuals by `bc` = `basis_change(p, l, M)`.  The block is
    four weighted shifts on the tensor slots, one per block entry.

    branch=+1 targets level l+1/2, branch=-1 (l>0 only) targets l-1/2.
    """
    q = p.q
    if branch == -1 and l == 0:
        raise ValueError("the downward block needs l > 0")
    rep = rep_bl(p, l, M)
    tgt0, A0 = rep.shift(a_gen(0), M)
    tgtm, Am1 = rep.shift(a_gen(-1), M)
    tgtp, Ap1 = rep.shift(a_gen(1), M)
    z = rep.shift("Z", M)[1]   # Z is diagonal: its shift keeps each label
    # each entry B_ij is one A-shift times diagonals in Z, its coefficients
    # multiplied in the order of the operator product, left to right
    if branch == 1:
        # self-adjointness of the block pins the second upper-right factor to
        # exponent 2l-1 (its adjoint then reproduces the lower-left entry)
        Bpp = -A0 * (1 - q ** (4 * l + 2) * z * z)
        Bpm = q ** (2 * l) * Am1 * (1 + q ** (-2 * l - 1) * z) * (
            1 + q ** (2 * l - 1) * z)
        Bmp = -(q ** (2 * l)) * Ap1 * (1 - q ** (-2 * l + 1) * z) * (
            1 - q ** (2 * l + 1) * z)
        Bmm = q ** (4 * l) * A0 * (1 - q ** (-4 * l - 2) * z * z)
    else:
        Bpp = -(q ** (4 * l)) * A0
        Bpm = -(q ** (2 * l)) * Am1
        Bmp = q ** (2 * l) * Ap1
        Bmm = A0
    # slot 2j+s carries spin s, so B_ij maps spin j to spin i.  The
    # normalized splitting vectors force an overall 1/(1+q^(4l)); with it
    # the compression reproduces the neighbour-level generator exactly
    scale = 1 + q ** (4 * l)
    block = [lift(tgt, B / scale, i, j) for (i, j), tgt, B in zip(
        ((0, 0), (0, 1), (1, 0), (1, 1)), (tgt0, tgtm, tgtp, tgt0),
        (Bpp, Bpm, Bmp, Bmm))]

    W_right = bc.W_up if branch == 1 else bc.W_down
    W_wrong = bc.W_down if branch == 1 else bc.W_up
    target = rep_bl(p, l + branch / 2, bc.N_new)
    cols = np.arange(target.dim(bc.N_new))

    def defect(V, W, want):
        return walk_defect([[adjoint(V, 4 * M), block, W]], want, cols)

    report = {
        "match": defect(W_right, W_right,
                        [[target.shifts(a_gen(0), bc.N_new)]]),
        "wrong_summand": defect(W_wrong, W_wrong, []),
        "cross": max_or_nan(defect(W_wrong, W_right, []),
                            defect(W_right, W_wrong, [])),
    }
    return block, report


def podles_part_compression(p: QParams, l, M: int, bc: BasisChange) -> dict:
    """Compress the coaction-tensored sphere generators by either family,
    W_up or W_down, of `bc` = `basis_change(p, l, M)`, and match them
    against the neighbouring double-space representation."""
    rep2 = TensorRep(rep_bl(p, l, M))
    out = {}
    for branch, tag in [(1, "up")] + ([(-1, "down")] if l > 0 else []):
        U = bc.W_up if branch == 1 else bc.W_down
        target = rep_bl(p, l + branch / 2, M - 1)
        for g in ("X", "Y", "Z"):
            out[f"{tag}_{g}"] = walk_defect(
                [[adjoint(U, 4 * M), rep2.shifts(g, M), U]],
                [[target.shifts(g, M - 1)]], np.arange(target.dim(M - 1)))
    return out


def basis_change_checks(bc: BasisChange, M: int) -> dict:
    """Orthonormality and completeness residuals of `bc`, the basis change
    at internal size M."""
    n = 4 * M
    out = {f"orthonormal_{name}": walk_defect(
        [[adjoint(W, n), W]], [[]], np.arange(len(W[0][0])))
        for name, W in (("up", bc.W_up), ("down", bc.W_down))}
    # the projections U U^H; neither family touches the uncovered slots
    out["completeness"] = walk_defect(
        [[U, adjoint(U, n)] for U in (bc.U_up, bc.U_down)], [[]], bc.covered)
    return out


def rp2_suite(p: QParams, N: int) -> dict:
    """Base-case checks in the level-0 algebra: the graded involution, the
    antipodal conjugation, the projection swap under the involution, and the
    closure of the even subalgebra."""
    M = N + 4
    rep = rep_bl(p, 0, M)
    n = rep.dim(M)
    slots = np.arange(n)
    tgt, coef = rep.shift(a_gen(0), M)
    A0 = [(tgt, coef)]
    half = (slots, np.full(n, 0.5, dtype=np.complex128))
    p_plus = [half, (tgt, coef / 2)]     # (I + A0) / 2
    p_minus = [half, (tgt, -coef / 2)]   # (I - A0) / 2
    out = {
        "involution": max_or_nan(
            walk_defect([[A0, A0]], [[]], slots),
            walk_defect([[A0]], [[adjoint(A0, n)]], slots)),
        "projections": max_or_nan(
            walk_defect([[p_plus, p_plus]], [[p_plus]], slots),
            walk_defect([[p_plus, p_minus]], [], slots),
            walk_defect([[p_plus], [p_minus]], [[]], slots)),
        "antipodal_conjugation": max_or_nan(*(
            walk_defect([[A0, G, A0]], [[-1.0, G]], slots)
            for G in (rep.shifts(g, M) for g in ("X", "Y", "Z")))),
    }
    # A0 x I; A0 swaps the two summands label by label, so the swapped
    # projection stays off the uncovered slots
    bc = basis_change(p, 0, M)
    A0t = [lift(tgt, coef, s, s) for s in (0, 1)]
    out["projection_swap"] = walk_defect(
        [[A0t, bc.U_up, adjoint(bc.U_up, 4 * M), A0t]],
        [[bc.U_down, adjoint(bc.U_down, 4 * M)]], bc.covered)

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
