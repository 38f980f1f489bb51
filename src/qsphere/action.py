"""The right module structure computed through implementing representations:
the inner adjoint action as segment combos walked exactly, the spin-ladder
laws for the grading-odd generators, the invariance of the Casimir under the
tensored representation, the truncation defects of the invariant functional
(a weighted trace with density |Z|), and invariant-subspace computation.

On a two-summand space the implementer absorbs the sign operator e (the
images e*b), which is what makes the action close on the summand-swapping
generators; on summand-preserving elements the sign cancels and the absorbed
and naive actions agree.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from mpmath.libmp import fnan, fzero, mpf_add, mpf_mul, mpf_neg, round_nearest

from .qcore import FloatCtx, QParams, _sqrt_coeff, q_pochhammer
from .ncalg import Presentation, a_gen, basis_words, is_a_gen
from .reps import (
    TensorRep,
    absorb_sign,
    combos_residuals,
    max_abs,
    mp_ctx,
    mp_magnitude,
    rep_bl,
    rep_podles,
    step_tables,
    trie_walks,
    union,
    walk,
    walk_difference,
    walk_dps,
)

_RND = round_nearest
SV_THRESHOLD = 1e-8   # invariant_subspace's relative kernel cut
IMAGE_GROUP = 32      # monomial images whose commutators are walked at once


# ---------------------------------------------------------------------------
# adjoint action as segment combos (walked exactly in mp arithmetic)
# ---------------------------------------------------------------------------

# the adjoint action of U_q(su2), the one place its letters are written:
# each generator's terms as (sign, implementer letters left of M, letters
# right of M); ad_K M = Z M Zi, ad_E M = sqrt(q) lam (Zi M X - Zi X M) and
# ad_F M = q^(-3/2) lam (M Y Zi - Y M Zi), lam = 1/(q - q^-1)
_AD = {
    "K": ((1, ("Z",), ("Zi",)),),
    "E": ((1, ("Zi",), ("X",)), (-1, ("Zi", "X"), ())),
    "F": ((1, (), ("Y", "Zi")), (-1, ("Y",), ("Zi",))),
}


def _ad_segments(left, segs, right) -> list:
    """The segments of one `_AD` term around the segments of M."""
    return ([(g, True) for g in left] + list(segs)
            + [(g, True) for g in right])


def combo_ad(g: str, combos: list, p: QParams) -> list:
    """Apply one adjoint generator to segment combos (implementer letters):
    each combo becomes one combo per term of `_AD[g]`, in term order, with
    coefficient sign * (scale * coefficient); K's is kept as it is."""
    if g not in _AD:
        raise KeyError(f"adjoint action has no generator {g}")
    scale = {"K": None, "E": math.sqrt(p.q) * p.lam,
             "F": (p.q ** -1.5) * p.lam}[g]
    return [(coef if scale is None else sign * (scale * coef),
             _ad_segments(left, segs, right))
            for coef, segs in combos for sign, left, right in _AD[g]]


# ---------------------------------------------------------------------------
# the spin-ladder family
# ---------------------------------------------------------------------------

def lambda_s(p: QParams, l, s: int) -> float:
    """Positive normalization making the graded generators a spin-2l ladder."""
    twol = int(2 * l)
    q2 = p.q ** 2
    num = q_pochhammer(p.q ** (2 * twol - 2 * s + 2), q2, s + twol).real
    den = q_pochhammer(q2, q2, s + twol).real
    return p.q ** (s * (s - 1) / 2) * math.sqrt(num / den)


def ladder_coeff_e(p: QParams, l, s: int) -> float:
    """Coefficient in theta_s <| E = c * theta_(s-1); zero exactly at the
    lowest weight s = -2l, where its first factor vanishes."""
    twol = int(2 * l)
    c = _sqrt_coeff(FloatCtx(p.q),
                    [(1, 2 * twol + 2 * s, 0), (1, 2 * twol - 2 * s + 2, 0)])
    return 0.0 if c is None else p.q ** (-s - twol + 0.5) * p.lam * c


def ladder_coeff_f(p: QParams, l, s: int) -> float:
    """Coefficient in theta_s <| F = c * theta_(s+1); zero exactly at the
    highest weight s = 2l, where its second factor vanishes."""
    twol = int(2 * l)
    c = _sqrt_coeff(FloatCtx(p.q),
                    [(1, 2 * twol + 2 * s + 2, 0), (1, 2 * twol - 2 * s, 0)])
    return 0.0 if c is None else p.q ** (s - twol - 0.5) * p.lam * c


def spin2l_laws(p: QParams, l) -> dict:
    """The K/E/F ladder laws of every component, the highest/lowest weight
    vanishing included, as {name: (combos, target combos)}."""
    twol = int(2 * l)
    out = {}
    for s in range(-twol, twol + 1):
        th = [(lambda_s(p, l, s), [(a_gen(s), False)])]
        tgt_k = [(p.q ** (2 * s) * lambda_s(p, l, s), [(a_gen(s), False)])]
        tgt_e = ([(ladder_coeff_e(p, l, s) * lambda_s(p, l, s - 1),
                   [(a_gen(s - 1), False)])] if s > -twol else [])
        tgt_f = ([(ladder_coeff_f(p, l, s) * lambda_s(p, l, s + 1),
                   [(a_gen(s + 1), False)])] if s < twol else [])
        for g, tgt in (("K", tgt_k), ("E", tgt_e), ("F", tgt_f)):
            out[f"{g}_s{s:+d}"] = (combo_ad(g, th, p), tgt)
    return out


def spin2l_check(p: QParams, l, N: int) -> dict:
    """Residuals of the ladder laws (`spin2l_laws`), walked in one
    `combos_residuals` call in mp arithmetic so that the inverse-diagonal
    factor of the action does not amplify rounding noise."""
    laws = spin2l_laws(p, l)
    return dict(zip(laws, combos_residuals(rep_bl(p, l, N),
                                           list(laws.values()), N)))


def casimir_invariance(p: QParams, x: float, N: int) -> dict:
    """Residuals of ad_K(T2)=T2, ad_E(T2)=0, ad_F(T2)=0 on the tensor window
    of the plus series, the implementer being the tensored representation
    itself; the three walked in one `combos_residuals` call."""
    rep2 = TensorRep(rep_podles(p, x, "plus", N))
    tw = [(1.0, [("T", False)])]
    return dict(zip("KEF", combos_residuals(rep2, [
        (combo_ad("K", tw, p), tw), (combo_ad("E", tw, p), []),
        (combo_ad("F", tw, p), [])], N)))


# ---------------------------------------------------------------------------
# invariant functionals
# ---------------------------------------------------------------------------

def invariance_defects(words, rep, W: int) -> list:
    """Truncation defects of the invariant functional under the adjoint
    action of K, E, F: one {"K", "E", "F": defect} per monomial of `words`.

    The functional is the trace weighted by the density |Z|, the power
    q^(n+mx) of `zexp` at each label.  The infinite-rank functional is
    exactly invariant, so the truncated value of phi(ad(M)) equals minus the
    discarded tail; summing the tail directly keeps the result accurate
    relative to its own size ~ q^(2W), which a head summation (absolute
    error ~1e-16 * |M|) cannot resolve.  The tail terms sit far below
    double precision, so they are walked exactly, in one context set up once
    per call, as one prefix trie of every word's walks (`reps.trie_walks`).

    Only diagonals are read.  Each generator is a pair of walks built from
    `_AD` with M's plain letters, ad_K M against M and the + term of ad_E
    and ad_F against the - term, summed as d * pref * (a - b) over the tail
    labels, each term's sign read from `_AD`.  Both walks of a pair make the
    same move and can return to their label only if it cancels.  A pair
    whose move does not cancel is not walked and sums to 0, or to NaN where
    a density or its prefactor is not finite, as its zero differences
    would.  A live pair skips a label where both walks read 0 and its
    factors are finite."""
    if len(rep.families) != 2:
        raise ValueError("invariance defects live on double spaces")
    q = rep.meta["q"]
    tail = max(8, int(math.ceil(16.0 * math.log(10)
                                / (2.0 * abs(math.log(q)))))) + 4
    dps = walk_dps(rep, W + tail, slack=25)
    with mp.workdps(dps):
        ctx = mp_ctx(q, rep.meta.get("x", 0.0), dps)
        prec = ctx.prec
        lam = 1 / (ctx.qpow(1) - ctx.qpow(-1))
        pref_e = (ctx.sqrt(ctx.qpow(1)) * lam)._mpf_
        pref_f = (ctx.qpow(-1) * ctx.sqrt(ctx.qpow(-1)) * lam)._mpf_
        labels = [(fam, k) for fam, kmin in rep.families
                  for k in range(kmin + W, kmin + W + tail)]
        densities = [ctx.qpow(*rep.zexp(*label)[1:])._mpf_ for label in labels]
        finite = all(_finite(d) for d in densities)
        # per generator: its prefactor, whether that is finite, and its
        # pair's two terms
        pairs = []
        for g, pref in (("K", None), ("E", pref_e), ("F", pref_f)):
            terms = _AD[g]
            if len(terms) == 1:
                terms += ((-1, (), ()),)   # ad_K M against M
            pairs.append((pref, pref is None or _finite(pref), terms))
        # each word's K, E and F sums in turn; per live pair, its sum's
        # index, prefactor, ok and two walks as (sign, path number)
        sums, live, paths = [], [], {}
        for word in words:
            mw = [(h, False) for h in word]
            for pref, ok, terms in pairs:
                _, left, right = terms[0]
                moves = [rep.move(h) for h in (*left, *word, *right)]
                if sum(d for d, _ in moves) or sum(s for _, s in moves) % 2:
                    sums.append(fzero if finite and ok else fnan)
                    continue
                live.append((len(sums), pref, ok, [(sign, paths.setdefault(
                    tuple(reversed(_ad_segments(left, mw, right))),
                    len(paths))) for sign, left, right in terms]))
                sums.append(fzero)
        walks = trie_walks(step_tables(rep, ctx), paths, labels)
        for (label, ends), d in zip(walks, densities):
            diag = [e[0][1] if e and e[0][0] == label else fzero for e in ends]
            for j, pref, ok, ((sa, ia), (sb, ib)) in live:
                a = diag[ia] if sa > 0 else mpf_neg(diag[ia])
                b = diag[ib] if sb > 0 else mpf_neg(diag[ib])
                # sums[j] += d * pref * (a + b), each term's sign in its
                # value; zero terms times a finite factor add an exact 0
                if a == b == fzero and _finite(d) and ok:
                    continue
                f = d if pref is None else mpf_mul(d, pref, prec, _RND)
                sums[j] = mpf_add(sums[j], mpf_mul(
                    f, mpf_add(a, b, prec, _RND), prec, _RND), prec, _RND)
        return [{key: mp_magnitude(v) for key, v in zip("KEF", sums[i:i + 3])}
                for i in range(0, len(sums), 3)]


def _finite(v) -> bool:
    """Whether a raw mpf is a number: nonzero mantissa, or exactly 0."""
    return bool(v[1]) or v == fzero


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------

class DependentMonomialsError(ArithmeticError):
    """The monomial images on the rank window are numerically dependent at
    the requested degree, so no kernel can be read off; a smaller D can."""


def _implementers(rep, M: int) -> list:
    """The implementers Z', X', Y' at internal size M, each a list of
    weighted shifts (tgt, coef).  On a two-summand label representation
    they absorb the sign operator; a tensor representation absorbs it in
    its own shifts."""
    own = isinstance(rep, TensorRep)
    return [[(tgt, coef if own else absorb_sign(rep, M, tgt, coef))
             for tgt, coef in rep.shifts(g, M)] for g in ("Z", "X", "Y")]


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
