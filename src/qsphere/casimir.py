"""Spectral splitting of the coaction-twisted Casimir matrix.

The Casimir image under the tensored representation has a two-point spectrum
{tau(x-1), tau(x+1)}; its eigenvectors are known in closed form, two entries
each, and compressing the twisted representation by either eigenprojection,
on weighted shifts, reproduces the series representation at the shifted
parameter x +- 1.  This is the engine behind the equivalence orbit x -> x + Z.
On the window the image is a direct sum of 2x2 blocks and singletons, so its
interior spectrum is read off elementwise; every operator here is a list of
weighted shifts, and the dense matrix is only written for --dump.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import FloatCtx, QParams, _sqrt_coeff
from .ncalg import NCPoly, make_presentation
from .report import max_or_nan
from .labels import podles_x_factors, rep_podles, relation_check
from .reps import (ShiftRep, TensorRep, compress, evaluate, max_abs,
                   on_support, summed, walk, walk_shifts)

SPECTRUM_EDGE = 4


def _norm_sign(sign) -> int:
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be plus or minus, got {sign!r}")
    return 1 if sign == "plus" else -1


def _norm_branch(branch) -> int:
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    return branch


def casimir_matrix(p: QParams, x: float, sign, N: int) -> np.ndarray:
    """Casimir image on the tensor window (2N x 2N) as a dense array, for
    --dump: T's weighted shifts added up.  Each entry is the operator's."""
    _norm_sign(sign)   # a series, not their direct sum
    tensor = TensorRep(rep_podles(p, x, sign, N))
    return evaluate(NCPoly({("T",): 1.0}), tensor)


def branch_indices(sign, branch, N: int) -> range:
    """Valid eigenvector indices k for one (sign, branch) family at window N.

    The family whose support sits at (k-1, k) carries the boundary vector and
    ranges over 0..N-1; the (k, k+1) family stops at N-2.
    """
    lower = (_norm_sign(sign) != _norm_branch(branch))
    return range(N - 1) if lower else range(N)


def closed_form_eigvecs(p: QParams, x: float, sign, branch, N: int) -> list:
    """Unit eigenvectors of the Casimir matrix at tau(x + branch), vector k
    for each k of `branch_indices`, each as its nonzero entries [(slot,
    value)] in slot order; the float context, q^x and the norm are built
    once for the family.

    Slots are the tensor basis (index 2j for e_j x e_+, 2j+1 for
    e_j x e_-).  The two entries are the square roots of the two factors
    of the podles X step from label j (`podles_x_factors`), j = k on the
    branch that matches the sign and k + 1 on the other: sqrt(1 - q^(2j))
    and sqrt(1 + q^(2j -+ 2x)), the series' x-weight q^x on the second
    (plus) or the first (minus), over the norm sqrt(1 + q^(2x)).
    """
    sgn, br = _norm_sign(sign), _norm_branch(branch)
    ctx = FloatCtx(p.q, float(x))
    qx, denom = ctx.qpow(0, 1), _sqrt_coeff(ctx, [(-1, 0, 2)])
    vectors = []
    for k in branch_indices(sign, branch, N):
        j = k if sgn == br else k + 1
        # an exact zero factor (j = 0) leaves the first vector one entry
        a, b = (_sqrt_coeff(ctx, [f]) or 0.0
                for f in podles_x_factors(sgn, j))
        a, b = (a, qx * b) if sgn == 1 else (qx * a, b)
        low, high = (-a, b) if sgn == br else (b, a)
        pairs = ((2 * j - 2, low / denom), (2 * j + 1, high / denom))
        vectors.append([(slot, c) for slot, c in pairs if c != 0])
    return vectors


def eigvec_shifts(p: QParams, x: float, sign, branch, N: int) -> list:
    """The eigenvectors of one family (`closed_form_eigvecs`) in two-entry
    form: two one-to-one weighted shifts (supports are disjoint), column j
    going to the slots of vector j's nonzero entries."""
    vectors = closed_form_eigvecs(p, x, sign, branch, N)
    shifts = [(np.full(len(vectors), -1, dtype=np.intp),
               np.zeros(len(vectors), dtype=np.complex128))
              for _ in range(2)]
    for j, vec in enumerate(vectors):
        for (tgt, coef), (slot, v) in zip(shifts, vec):
            tgt[j], coef[j] = slot, v
    return shifts


def covered_indices(N: int) -> np.ndarray:
    """Tensor-window indices spanned by the two eigenvector families (all
    slots except the top spin-plus one)."""
    return np.array([i for i in range(2 * N) if i != 2 * (N - 1)])


def tensor_t(p: QParams, x: float, sign, N: int) -> list:
    """The Casimir image T on the tensor window (size N, 2N slots), one
    weighted shift per diagonal, with the entries of `casimir_matrix`."""
    _norm_sign(sign)   # a series, not their direct sum
    return summed([TensorRep(rep_podles(p, x, sign, N)).shifts("T", N)],
                  2 * N)


def numeric_interior_spectrum(p: QParams, x: float, sign, N: int):
    """Eigenvalues of the windowed Casimir matrix, read off the 2x2 blocks
    and singletons it splits into: (a+d)/2 +- hypot((a-d)/2, |b|) for a
    block [[a, b], [b*, d]], its diagonal entry for a singleton.  Only the
    blocks whose slots all lie below 2(N - SPECTRUM_EDGE) are kept: boundary
    rows of the truncation pollute the edge ones, the interior ones belong
    to the infinite operator.

    If T does not split so (a column with two nonzero off-diagonal entries,
    or a pair that is not mutual) the spectrum is the one value inf.
    """
    n, edge = 2 * N, 2 * (N - SPECTRUM_EDGE)
    cols, rows, val = walk_shifts([tensor_t(p, x, sign, N)], np.arange(n))
    on, off = rows == cols, (rows != cols) & (val != 0)
    diag, coupling = np.zeros(n), np.zeros(n)
    partner = np.full(n, -1, dtype=np.intp)
    diag[cols[on]] = val[on].real
    partner[cols[off]], coupling[cols[off]] = rows[off], np.abs(val[off])
    if (np.bincount(cols[off], minlength=n).max(initial=0) > 1
            or np.any(partner[rows[off]] != cols[off])):
        return np.array([math.inf])
    slots = np.arange(max(edge, 0))
    single = slots[partner[slots] < 0]
    lead = slots[(partner[slots] > slots) & (partner[slots] < edge)]
    a, d = diag[lead], diag[partner[lead]]
    radius = np.hypot((a - d) / 2, coupling[lead])
    return np.concatenate([diag[single], (a + d) / 2 - radius,
                           (a + d) / 2 + radius])


def compress_identify(p: QParams, x: float, sign, branch, N: int):
    """Compress the tensored representation by one eigenprojection and match
    it, generator by generator, against the series representation at x+-1.

    Returns (compressed representation, residual report).
    """
    br = _norm_branch(branch)
    rep2 = TensorRep(rep_podles(p, x, sign, N))
    U = eigvec_shifts(p, x, sign, branch, N)
    K = len(U[0][0])
    target = rep_podles(p, x + br, sign, K)   # T acts as tau(x + br)
    compressed, residuals = {}, {}
    for g in ("X", "Y", "Z", "Zi", "T"):
        cols, rows, val = compressed[g] = compress(U, rep2.shifts(g, N), 2 * N)
        tc, tr, tv = walk(target, (g,), K, np.arange(K))
        _, (got, want) = on_support([(rows * K + cols, val)],
                                    [(tr * K + tc, tv)])
        diff = np.abs(got - want)
        if g == "Zi":
            # the localization inverse has entries ~ q^(-2k); certify it
            # entrywise relative to their size
            diff = diff / (1.0 + np.abs(want))
        residuals["t_scalar" if g == "T" else f"generator_{g}"] = max_abs(diff)

    crep = ShiftRep(compressed, K, N=max(4, K - 8), pad=2)
    rel = relation_check(make_presentation("podles", p, x=x + br), crep)
    residuals["relations"] = max_or_nan(*rel.values())

    if sign == "plus":
        cols, rows, val = compressed["Z"]
        zdiag = np.zeros(K)
        zdiag[cols[rows == cols]] = val[rows == cols].real
        gaps = np.diff(np.sort(zdiag))
        residuals["z_positive_distinct"] = (
            0.0 if (zdiag.min() > 0 and gaps.min() > 0) else 1.0)
    return crep, residuals
