"""The inner adjoint action as segment combos walked exactly, with no numpy:
the spin-ladder laws for the grading-odd generators, the invariance of the
Casimir under the tensored representation, and the truncation defects of the
invariant functional (a weighted trace with density |Z|).  Invariant
subspaces, which take SVDs, are in `action`.

On a two-summand space the implementer absorbs the sign operator e (the
images e*b), which is what makes the action close on the summand-swapping
generators; on summand-preserving elements the sign cancels and the absorbed
and naive actions agree.
"""

from __future__ import annotations

import math

from .qcore import FloatCtx, QParams, _sqrt_coeff, q_pochhammer
from .ncalg import a_gen
from .labels import (
    combos_residuals,
    rep_bl,
    rep_podles,
    step_tables,
    trie_walks,
    walk_dps,
)


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
    itself; the three walked in one `combos_residuals` call.  Only the
    casimir command, which loads numpy anyway, asks for it."""
    from .reps import TensorRep
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
    per call (the representation's shared mp context, `mpscalar.mp_ctx`),
    as one prefix trie of every word's walks (`labels.trie_walks`),
    and summed through the context's scalar interface alone.

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
    from . import mpscalar   # loaded already by a command that walks exactly
    ctx = mpscalar.mp_ctx(rep, walk_dps(rep, W + tail, slack=25))
    mul, add, zero, finite = ctx.mul, ctx.add, ctx.zero, ctx.is_finite
    q1, qm1 = ctx.qpow(1), ctx.qpow(-1)
    lam = ctx.inv(ctx.sub(q1, qm1))
    pref_e = mul(ctx.sqrt(q1), lam)
    pref_f = mul(mul(qm1, ctx.sqrt(qm1)), lam)
    labels = [(fam, k) for fam, kmin in rep.families
              for k in range(kmin + W, kmin + W + tail)]
    densities = [ctx.qpow(*rep.zexp(*label)[1:]) for label in labels]
    dense = all(finite(d) for d in densities)
    # per generator: its prefactor, whether that is finite, and its
    # pair's two terms
    pairs = []
    for g, pref in (("K", None), ("E", pref_e), ("F", pref_f)):
        terms = _AD[g]
        if len(terms) == 1:
            terms += ((-1, (), ()),)   # ad_K M against M
        pairs.append((pref, pref is None or finite(pref), terms))
    # each word's K, E and F sums in turn; per live pair, its sum's
    # index, prefactor, ok and two walks as (sign, path number)
    sums, live, paths = [], [], {}
    for word in words:
        mw = [(h, False) for h in word]
        for pref, ok, terms in pairs:
            _, left, right = terms[0]
            moves = [rep.move(h) for h in (*left, *word, *right)]
            if sum(d for d, _ in moves) or sum(s for _, s in moves) % 2:
                sums.append(zero if dense and ok else ctx.nan)
                continue
            live.append((len(sums), pref, ok, [(sign, paths.setdefault(
                tuple(reversed(_ad_segments(left, mw, right))),
                len(paths))) for sign, left, right in terms]))
            sums.append(zero)
    walks = trie_walks(step_tables(rep, ctx), paths, labels)
    for (label, ends), d in zip(walks, densities):
        diag = [e[0][1] if e and e[0][0] == label else zero for e in ends]
        for j, pref, ok, ((sa, ia), (sb, ib)) in live:
            a = diag[ia] if sa > 0 else ctx.neg(diag[ia])
            b = diag[ib] if sb > 0 else ctx.neg(diag[ib])
            # sums[j] += d * pref * (a + b), each term's sign in its
            # value; zero terms times a finite factor add an exact 0
            if a == b == zero and finite(d) and ok:
                continue
            f = d if pref is None else mul(d, pref)
            sums[j] = add(sums[j], mul(f, add(a, b)))
    return [{key: ctx.magnitude(v) for key, v in zip("KEF", sums[i:i + 3])}
            for i in range(0, len(sums), 3)]


class DependentMonomialsError(ArithmeticError):
    """The monomial images on the rank window are numerically dependent at
    the requested degree, so no kernel can be read off; a smaller D can.
    `action.invariant_subspace` raises it; it is defined here, with no
    numpy, so that the command line can catch it."""
