"""Invariant subspaces: the joint kernel of the adjoint action on the
monomials of bounded degree, imposed as commutators with the implementing
representation and decided by small SVDs (numpy's float layer).  The action
itself, walked exactly, is in `invariance`.
"""

from __future__ import annotations

import numpy as np

from .ncalg import Presentation, basis_words, is_a_gen
from .reps import TensorRep, max_abs, union, walk, walk_difference
from .invariance import DependentMonomialsError
# names of `invariance` that the benchmark's tracer wraps as `action.*`
# (perfbench/layers.py)
from .invariance import (  # noqa: F401
    casimir_invariance,
    invariance_defects,
    spin2l_check,
)

SV_THRESHOLD = 1e-8   # invariant_subspace's relative kernel cut
IMAGE_GROUP = 32      # monomial images whose commutators are walked at once


def _implementers(rep, M: int) -> list:
    """The implementers Z', X', Y' at internal size M, each a list of
    weighted shifts (tgt, coef): a label representation's implementer
    letters, which absorb the sign operator of a two-summand space, or a
    tensor representation's own shifts, which absorb it themselves."""
    if isinstance(rep, TensorRep):
        return [rep.shifts(g, M) for g in ("Z", "X", "Y")]
    return [[rep.shift(g, M, True)] for g in ("Z", "X", "Y")]


def _block_diagonal(shifts, n: int):
    """One weighted shift acting as shifts[c], each on range(n), on the
    block [c n, (c+1) n)."""
    return (np.concatenate([np.where(tgt >= 0, tgt + c * n, -1)
                            for c, (tgt, _) in enumerate(shifts)]),
            np.concatenate([coef for _, coef in shifts]))


def _commutator_system(images, impls, idx, pos) -> list:
    """Columns of the commutator system, one per monomial image (a weighted
    shift A on range(n)), as (rows, values) of their nonzero entries: the
    window entries (columns and rows idx) of [Z', A], [A, X'], [A, Y'],
    each flattened row-major, stacked; impls are the implementers' shifts,
    and pos maps range(n) to window positions or -1.

    The images are one block-diagonal shift, every implementer shift
    copied onto each block, and each commutator is one walked difference
    over the window columns of all blocks, its rows cropped to the window
    and its exact zeros dropped."""
    nw, n = len(idx), len(pos)
    A = [_block_diagonal(images, n)]
    cols = (np.arange(len(images))[:, None] * n + idx).reshape(-1)
    found = []
    for piece, shifts in enumerate(impls):
        G = [_block_diagonal([s] * len(images), n) for s in shifts]
        # [Z', A] = Z'A - AZ', [A, X'] = AX' - X'A, [A, Y'] = AY' - Y'A
        ga, ag = [[G, A]], [[A, G]]
        rows, at, diff = walk_difference(
            *((ga, ag) if piece == 0 else (ag, ga)), cols)
        i = pos[rows % n]
        kept = (i >= 0) & (diff != 0)
        at = at[kept]
        found.append((at // nw, piece * nw * nw + i[kept] * nw + at % nw,
                      diff[kept]))
    block, key, val = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(block, kind="stable")
    ends = np.searchsorted(block[order], np.arange(len(images) + 1))
    return [(key[order[a:b]], val[order[a:b]])
            for a, b in zip(ends[:-1], ends[1:])]


def _column_blocks(columns):
    """Split sparse columns, given as (rows, values), into the connected
    components of their column-row incidence: two columns share a block
    when a chain of shared rows links them.  Returns (column indices, row
    indices, dense block) per block, ordered by first column; a column
    with no nonzero entry is a block of its own with no rows.  The blocks
    share no row and no column, so the matrix is their direct sum."""
    flat = np.concatenate([r for r, _ in columns])
    col = np.repeat(np.arange(len(columns)), [len(r) for r, _ in columns])
    order = np.lexsort((col, flat))
    flat, col = flat[order], col[order]
    shared = flat[1:] == flat[:-1]
    # each linked pair of columns (a, b) once, as the integer a*n + b
    n = len(columns)
    links = union([col[:-1][shared] * n + col[1:][shared]])
    root = list(range(len(columns)))

    def find(j):
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for link in links.tolist():
        a, b = (find(j) for j in divmod(link, n))
        if a != b:
            root[max(a, b)] = min(a, b)
    members = {}
    for j in range(len(columns)):
        members.setdefault(find(j), []).append(j)
    out = []
    for cols in members.values():
        rows = union([columns[j][0] for j in cols])
        block = np.zeros((len(rows), len(cols)), dtype=np.complex128)
        for k, j in enumerate(cols):
            r, v = columns[j]
            block[np.searchsorted(rows, r), k] = v
        out.append((np.array(cols), rows, block))
    return out


def _block_svd(block):
    """Singular values of one block, padded with zeros up to its width, and
    a full square basis Vh of right singular vectors: a block with fewer
    rows than columns has those extra kernel directions, and a block with
    no rows is all kernel, with singular values exactly 0."""
    h, w = block.shape
    if h == 0:
        return np.zeros(w), np.eye(w, dtype=np.complex128)
    s, vh = np.linalg.svd(block, full_matrices=h < w)[1:]
    return np.concatenate([s, np.zeros(w - len(s))]), vh


def invariant_subspace(pres: Presentation, rep, D: int,
                       rank_window: int = 24, tensor_units: bool = False
                       ) -> dict:
    """Dimension and basis of the joint kernel of (ad_K - id, ad_E, ad_F) on
    the span of normal-form monomials of degree <= D.

    The conditions are imposed in the equivalent commutator form
    [M, Z'] = [M, X'] = [M, Y'] = 0 (the implementer diagonal is invertible,
    so the solution set is identical), which keeps the system free of the
    q^(-2k) noise amplification of the normalized action.  The system is
    restricted to a sub-window of exact entries; each monomial image is a
    weighted shift (lifted to rows 2r+a, columns 2c+b for a tensor unit),
    and so is each term of an implementer, so the commutators are walked
    differences of products (`_commutator_system`), entry for entry the
    dense products, read as each column's nonzero (row, value) pairs.

    A monomial reaches only its own diagonals, so the system (and the
    matrix of monomial windows) is a direct sum of small blocks; they are
    found as the connected components of the column-row incidence, which
    needs no assumption about which monomials couple.  Each block gets one
    small dense SVD, its singular values padded with zeros up to its
    width; a block with no rows (the unit) is all kernel.  The global
    threshold SV_THRESHOLD * max(1, largest singular value) is applied to
    the singular values of all blocks together, and each kernel vector is
    embedded at its block's columns.  Raises DependentMonomialsError when
    the smallest singular value of the monomial windows falls below 1e-10
    times the largest.  Returns the kernel dimension, coefficient basis,
    monomial labels, the blocks (columns, row count, padded singular values)
    and singular-value gap diagnostics.
    """
    if D > 8:
        raise ValueError("degree guard: D must stay <= 8")
    words = basis_words(pres, D)
    maxshift = max([1] + [abs(g[1]) for w in words for g in w if is_a_gen(g)])
    M = rank_window + rep.pad * (D * maxshift + 2) + 2
    if tensor_units:
        impl = TensorRep(rep, absorb_sign=True)
        units = [divmod(i, 2) for i in range(4)]
    else:
        impl = rep
        units = [None]
    idx = impl.window_indices(M, rank_window)
    nw, dim = len(idx), impl.dim(M)
    pos = np.full(dim, -1, dtype=np.intp)
    pos[idx] = np.arange(nw)

    impls = _implementers(impl, M)
    labels, mono, images, system = [], [], [], []
    for k, w in enumerate(words):
        base_cols, base_rows, val = walk(rep, w, M, np.arange(rep.dim(M)))
        for i, unit in enumerate(units):
            if unit is None:
                labels.append(w)
                cols, rows = base_cols, base_rows
            else:
                labels.append((w, i))
                cols, rows = 2 * base_cols + unit[1], 2 * base_rows + unit[0]
            in_win = (pos[cols] >= 0) & (pos[rows] >= 0)
            scale = max(max_abs(val[in_win]), 1e-300)
            v = val / scale
            keep = in_win & (v != 0)
            mono.append((pos[rows[keep]] * nw + pos[cols[keep]], v[keep]))
            tgt = np.full(dim, -1, dtype=np.intp)
            coef = np.zeros(dim, dtype=np.complex128)
            tgt[cols], coef[cols] = rows, v
            images.append((tgt, coef))
        if len(images) >= IMAGE_GROUP or k == len(words) - 1:
            system += _commutator_system(images, impls, idx, pos)
            images = []

    mono_sv = np.concatenate([_block_svd(b)[0]
                              for _, _, b in _column_blocks(mono)])
    if mono_sv.min() < 1e-10 * mono_sv.max():
        raise DependentMonomialsError(
            f"monomial images nearly dependent at D = {D} (sv ratio "
            f"{mono_sv.min() / mono_sv.max():.2e})")

    blocks, vhs = [], []
    for cols, rows, b in _column_blocks(system):
        s, vh = _block_svd(b)
        blocks.append({"columns": cols, "rows": len(rows), "svals": s})
        vhs.append(vh)
    ranked = sorted(((s, n, k) for n, blk in enumerate(blocks)
                     for k, s in enumerate(blk["svals"])),
                    key=lambda e: -e[0])
    svals = np.array([s for s, _, _ in ranked])
    thr = SV_THRESHOLD * max(1.0, float(svals[0]))
    small = [(n, k) for s, n, k in ranked if s < thr]
    kernel = np.zeros((len(labels), len(small)), dtype=np.complex128)
    for c, (n, k) in enumerate(small):
        kernel[blocks[n]["columns"], c] = vhs[n][k].conj()
    first = len(ranked) - len(small)
    sv_in_kernel = float(svals[first]) if small else 0.0
    sv_above = float(svals[first - 1]) if small and first > 0 else float(
        svals[-1])
    return {
        "dim": len(small),
        "kernel": kernel,
        "labels": labels,
        "blocks": blocks,
        "sv_largest_zero": sv_in_kernel,
        "sv_smallest_nonzero": sv_above,
    }


def kernel_residual(result: dict, label) -> float:
    """Distance of the coefficient unit vector of `label` from the kernel."""
    labels = result["labels"]
    if label not in labels:
        return 1.0
    v = np.zeros(len(labels), dtype=np.complex128)
    v[labels.index(label)] = 1.0
    Kr = result["kernel"]
    proj = Kr @ (Kr.conj().T @ v)
    return float(np.linalg.norm(v - proj))
