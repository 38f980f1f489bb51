"""Orbit arithmetic and Picard classification of the sphere parameters, and
the concrete chain of equivalences through the graded algebras: the basis
change splitting (double space) x C^2 into the two neighbouring double
spaces, the explicit block formulas for the middle graded generator, and the
projective-plane base case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import QParams
from .ncalg import NCPoly, a_gen, basis_words, make_presentation, normal_form
from .report import max_or_nan
from .reps import TensorRep, max_abs, rep_bl

STANDARD = "standard"


def _is_standard(a) -> bool:
    return isinstance(a, str) and a.lower() in (STANDARD, "inf", "infinity")


def orbit_equivalent(a, b, tol: float = 1e-12):
    """Whether two sphere parameters lie on one equivalence orbit; finite
    parameters are equivalent iff some integer shift matches them up to sign.
    Returns (flag, witness integer or None)."""
    if _is_standard(a) or _is_standard(b):
        return (_is_standard(a) and _is_standard(b), None)
    x, y = float(a), float(b)
    reach = int(math.ceil(abs(x) + abs(y))) + 1
    for m in sorted(range(-reach, reach + 1), key=lambda v: (abs(v), v)):
        if abs(abs(x + m) - abs(y)) <= tol:
            return (True, m)
    return (False, None)


def picard_group(a, tol: float = 1e-9) -> str:
    """Self-equivalence class group of one sphere: Z for the standard sphere,
    Z2 at integer parameters, trivial otherwise.

    Integer detection classifies the input parameter, it is not a numerical
    discovery.
    """
    if _is_standard(a):
        return "Z"
    x = float(a)
    return "Z2" if abs(x - round(x)) <= tol else "trivial"


# ---------------------------------------------------------------------------
# basis change on (double space) x C^2
# ---------------------------------------------------------------------------

def _slot(inner: int, sp: int) -> int:
    return 2 * inner + sp


def _inner_index(M: int, twol: int, fam: str, k: int):
    if fam == "-":
        return k if 0 <= k < M else None
    j = k + twol
    return M + j if 0 <= j < M else None


def _bc_vector(p: QParams, l, which: int, mu: str, k: int, M: int):
    """One new-basis vector on the 4M-dimensional tensor space.

    which=+1 builds the (l+1/2) family, which=-1 the (l-1/2) family; mu is
    the summand the vector lives on.  Components with exactly-zero closed
    form coefficients are simply not placed.
    """
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
        inner = _inner_index(M, twol, mu, kk)
        if inner is None:
            raise IndexError(
                f"basis-change component ({mu},{kk}) outside internal size")
        v[_slot(inner, sp)] = c / denom
    return v


@dataclass
class BasisChange:
    """Isometries from the two neighbouring double-space layouts into
    (double space at l) x C^2, with the summand projections."""

    p: QParams
    l: float
    M: int
    N_new: int = field(init=False)
    W_up: np.ndarray = field(init=False)
    W_down: np.ndarray = field(init=False)
    p_up: np.ndarray = field(init=False)
    p_down: np.ndarray = field(init=False)

    def __post_init__(self):
        p, l, M = self.p, self.l, self.M
        twol = int(2 * l)
        N = M - 1
        self.N_new = N

        def columns(which, minus_ks, plus_ks):
            cols = [_bc_vector(p, l, which, "-", k, M) for k in minus_ks]
            cols += [_bc_vector(p, l, which, "+", k, M) for k in plus_ks]
            return np.column_stack(cols)

        # window-aligned isometries, ordered like the target double layout
        self.W_up = columns(
            1, range(N), range(-(twol + 1), N - 1 - twol))
        self.W_down = columns(
            -1, range(N), range(-(twol - 1), N + 1 - twol))
        # projections from every available column
        all_up = columns(1, range(M - 1), range(-(twol + 1), M - 1 - twol))
        all_down = columns(-1, range(M), range(-(twol - 1), M - twol))
        self.p_up = all_up @ all_up.conj().T
        self.p_down = all_down @ all_down.conj().T

    def covered_indices(self) -> np.ndarray:
        """Tensor slots spanned by the two families together (everything but
        the top spin-plus slot of each summand)."""
        M = self.M
        cut = {_slot(M - 1, 0), _slot(2 * M - 1, 0)}
        return np.array([i for i in range(4 * M) if i not in cut])


def basis_change(p: QParams, l, M: int) -> BasisChange:
    if l < 0 or (2 * l) != int(2 * l):
        raise ValueError(f"l must be a nonnegative half-integer, got {l}")
    return BasisChange(p, l, M)


def _spin_unit(row: int, col: int) -> np.ndarray:
    E = np.zeros((2, 2), dtype=np.complex128)
    E[row, col] = 1.0
    return E


def a0_block(p: QParams, l, branch: int, M: int):
    """The middle graded generator of the neighbouring algebra, assembled as
    a 2x2 block operator over the level-l images, together with its
    compression residuals.

    branch=+1 targets level l+1/2, branch=-1 (l>0 only) targets l-1/2.
    """
    q = p.q
    twol = int(2 * l)
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
    # the normalized splitting vectors force an overall 1/(1+q^(4l)); with it
    # the compression reproduces the neighbour-level generator exactly
    block = (np.kron(Bpp, _spin_unit(0, 0)) + np.kron(Bpm, _spin_unit(0, 1))
             + np.kron(Bmp, _spin_unit(1, 0)) + np.kron(Bmm, _spin_unit(1, 1))
             ) / (1 + q ** (4 * l))

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
    """Compress the coaction-tensored sphere generators by either family and
    match them against the neighbouring double-space representation."""
    rep2 = TensorRep(rep_bl(p, l, M))
    bc = basis_change(p, l, M)
    out = {}
    branches = [(1, bc.W_up)] + ([(-1, bc.W_down)] if l > 0 else [])
    for branch, W in branches:
        target = rep_bl(p, l + branch / 2, bc.N_new)
        for g in ("X", "Y", "Z"):
            got = W.conj().T @ rep2.matrix(g, M) @ W
            out[f"{'up' if branch == 1 else 'down'}_{g}"] = max_abs(
                got - target.matrix(g, bc.N_new))
    return out


def basis_change_checks(p: QParams, l, M: int) -> dict:
    """Orthonormality and completeness residuals of the basis change."""
    bc = basis_change(p, l, M)
    out = {}
    for name, W in (("up", bc.W_up), ("down", bc.W_down)):
        gram = W.conj().T @ W
        out[f"orthonormal_{name}"] = max_abs(gram - np.eye(gram.shape[0]))
    cov = bc.covered_indices()
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
    A0t = np.kron(A0, np.eye(2, dtype=np.complex128))
    cov = bc.covered_indices()
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
