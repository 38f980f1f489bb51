"""Spectral splitting of the coaction-twisted Casimir matrix.

The Casimir image under the tensored representation has a two-point spectrum
{tau(x-1), tau(x+1)}; its eigenvectors are known in closed form, and
compressing the twisted representation by either eigenprojection reproduces
the series representation at the shifted parameter x +- 1.  This is the
engine behind the equivalence orbit x -> x + Z.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import QParams, tau
from .ncalg import make_presentation
from .report import max_or_nan
from .reps import (
    MatrixRep,
    TensorRep,
    max_abs,
    rep_podles,
    relation_check,
)

SPECTRUM_EDGE = 4
SPECTRUM_MASS_TOL = 1e-10


def _norm_sign(sign) -> int:
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be plus or minus, got {sign!r}")
    return 1 if sign == "plus" else -1


def _norm_branch(branch) -> int:
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    return branch


def casimir_matrix(p: QParams, x: float, sign, N: int) -> np.ndarray:
    """Casimir image on the tensor window (2N x 2N).  It is a sum of
    weighted shifts, so each window entry is the infinite operator's."""
    _norm_sign(sign)   # a series, not their direct sum
    return TensorRep(rep_podles(p, x, sign, N)).matrix("T", N)


def branch_indices(sign, branch, N: int) -> range:
    """Valid eigenvector indices k for one (sign, branch) family at window N.

    The family whose support sits at (k-1, k) carries the boundary vector and
    ranges over 0..N-1; the (k, k+1) family stops at N-2.
    """
    lower = (_norm_sign(sign) != _norm_branch(branch))
    return range(N - 1) if lower else range(N)


def closed_form_eigvec(p: QParams, x: float, sign, branch, k: int,
                       N: int) -> np.ndarray:
    """Unit eigenvector of the Casimir matrix at tau(x + branch).

    Components live in the tensor basis (index 2j for e_j x e_+, 2j+1 for
    e_j x e_-).
    """
    sgn, br = _norm_sign(sign), _norm_branch(branch)
    if k not in branch_indices(sign, branch, N):
        raise ValueError(f"k={k} outside the branch range at N={N}")
    q = p.q
    qx = q**x
    denom = math.sqrt(1 + q ** (2 * x))
    v = np.zeros(2 * N, dtype=np.complex128)
    if sgn == 1 and br == 1:
        if k >= 1:
            v[2 * (k - 1)] = -math.sqrt(1 - q ** (2 * k)) / denom
        v[2 * k + 1] = qx * math.sqrt(1 + q ** (2 * k - 2 * x)) / denom
    elif sgn == 1 and br == -1:
        v[2 * k] = qx * math.sqrt(1 + q ** (2 * k - 2 * x + 2)) / denom
        v[2 * (k + 1) + 1] = math.sqrt(1 - q ** (2 * k + 2)) / denom
    elif sgn == -1 and br == 1:
        v[2 * k] = math.sqrt(1 + q ** (2 * k + 2 * x + 2)) / denom
        v[2 * (k + 1) + 1] = qx * math.sqrt(1 - q ** (2 * k + 2)) / denom
    else:
        if k >= 1:
            v[2 * (k - 1)] = -qx * math.sqrt(1 - q ** (2 * k)) / denom
        v[2 * k + 1] = math.sqrt(1 + q ** (2 * k + 2 * x)) / denom
    return v


def eigvec_columns(p: QParams, x: float, sign, branch, N: int) -> np.ndarray:
    ks = branch_indices(sign, branch, N)
    return np.column_stack(
        [closed_form_eigvec(p, x, sign, branch, k, N) for k in ks])


def eigenprojection(p: QParams, x: float, sign, branch, N: int) -> np.ndarray:
    U = eigvec_columns(p, x, sign, branch, N)
    return U @ U.conj().T


def covered_indices(N: int) -> np.ndarray:
    """Tensor-window indices spanned by the two eigenvector families (all
    slots except the top spin-plus one)."""
    return np.array([i for i in range(2 * N) if i != 2 * (N - 1)])


def numeric_interior_spectrum(p: QParams, x: float, sign, N: int):
    """Eigenvalues of the windowed Casimir matrix whose eigenvectors carry no
    mass (below SPECTRUM_MASS_TOL) within SPECTRUM_EDGE slots of the
    truncation boundary.

    Boundary rows of a truncated banded matrix pollute edge eigenpairs; the
    support filter keeps only pairs that belong to the infinite operator.
    """
    vals, vecs = np.linalg.eigh(casimir_matrix(p, x, sign, N))
    edge_slots = np.arange(2 * (N - SPECTRUM_EDGE), 2 * N)
    keep = []
    for i in range(len(vals)):
        if np.linalg.norm(vecs[edge_slots, i]) < SPECTRUM_MASS_TOL:
            keep.append(vals[i])
    return np.array(keep)


def compress_identify(p: QParams, x: float, sign, branch, N: int):
    """Compress the tensored representation by one eigenprojection and match
    it, generator by generator, against the series representation at x+-1.

    Returns (compressed representation, residual report).
    """
    br = _norm_branch(branch)
    rep2 = TensorRep(rep_podles(p, x, sign, N))
    U = eigvec_columns(p, x, sign, branch, N)
    K = U.shape[1]
    target = rep_podles(p, x + br, sign, K)
    compressed = {}
    residuals = {}
    for g in ("X", "Y", "Z", "Zi"):
        Gc = U.conj().T @ rep2.matrix(g, N) @ U
        compressed[g] = Gc
        diff = np.abs(Gc - target.matrix(g, K))
        if g == "Zi":
            # the localization inverse has entries ~ q^(-2k); certify it
            # entrywise relative to their size
            diff = diff / (1.0 + np.abs(target.matrix(g, K)))
        residuals[f"generator_{g}"] = float(diff.max())
    T2 = casimir_matrix(p, x, sign, N)
    Tc = U.conj().T @ T2 @ U
    compressed["T"] = Tc
    tval = tau(p, x + br)
    residuals["t_scalar"] = max_abs(Tc - tval * np.eye(K))

    crep = MatrixRep(compressed, N=max(4, K - 8), pad=2)
    pres = make_presentation("podles", p, x=x + br)
    rel = relation_check(pres, crep)
    residuals["relations"] = max_or_nan(*rel.values())

    zdiag = np.diag(compressed["Z"]).real
    if sign == "plus":
        gaps = np.diff(np.sort(zdiag))
        residuals["z_positive_distinct"] = (
            0.0 if (zdiag.min() > 0 and gaps.min() > 0) else 1.0)
    return crep, residuals
