"""The inner adjoint action as segment combos walked exactly, with no numpy:
the spin-ladder laws for the grading-odd generators, the invariance of the
Casimir under the tensored representation, and the truncation defects of the
invariant functional (a weighted trace with density |Z|).  Invariant
subspaces, which take SVDs, are in `action`.  The adjoint action's letters
and E and F scales live in `_AD`; every coefficient is computed in the
context its check walks in (`walk_ctx`).

On a two-summand space the implementer absorbs the sign operator e (the
images e*b), which is what makes the action close on the summand-swapping
generators; on summand-preserving elements the sign cancels and the absorbed
and naive actions agree.
"""

from __future__ import annotations

import math

from .qcore import QParams, _sqrt_coeff, lam_of
from .ncalg import a_gen
from .labels import (
    combos_residuals,
    rep_bl,
    rep_podles,
    step_tables,
    tensor_residuals,
    trie_walks,
    walk_ctx,
    walk_dps,
)


# ---------------------------------------------------------------------------
# adjoint action as segment combos (walked exactly in mp arithmetic)
# ---------------------------------------------------------------------------

# the adjoint action of U_q(su2), the one place its letters and scales are
# written: each generator's scale q^(h/2) lam as h (None for K's 1), and its
# terms as (sign, implementer letters left of M, letters right of M);
# ad_K M = Z M Zi, ad_E M = sqrt(q) lam (Zi M X - Zi X M) and
# ad_F M = q^(-3/2) lam (M Y Zi - Y M Zi), lam = 1/(q - q^-1)
_AD = {
    "K": (None, ((1, ("Z",), ("Zi",)),)),
    "E": (1, ((1, ("Zi",), ("X",)), (-1, ("Zi", "X"), ()))),
    "F": (-3, ((1, (), ("Y", "Zi")), (-1, ("Y",), ("Zi",)))),
}


def _half_lam(ctx, h):
    """q^(h/2) lam in the arithmetic of ctx; None (an exact 1) for None."""
    return None if h is None else ctx.mul(ctx.sqrt(ctx.qpow(h)), lam_of(ctx))


def _ad_segments(left, segs, right) -> list:
    """The segments of one `_AD` term around the segments of M."""
    return ([(g, True) for g in left] + list(segs)
            + [(g, True) for g in right])


def combo_ad(g: str, combos: list, ctx) -> list:
    """Apply one adjoint generator to segment combos (implementer letters),
    their coefficients values of ctx: each combo becomes one combo per term
    of `_AD[g]`, in term order, with coefficient sign * (scale *
    coefficient) in the arithmetic of ctx; K's is kept as it is."""
    h, terms = _AD[g]   # a KeyError for a generator it has not
    scale = _half_lam(ctx, h)
    return [(coef if scale is None else ctx.scale(sign, ctx.mul(scale, coef)),
             _ad_segments(left, segs, right))
            for coef, segs in combos for sign, left, right in terms]


# ---------------------------------------------------------------------------
# the spin-ladder family
# ---------------------------------------------------------------------------

def pochhammer_factors(n: int, r: int) -> list:
    """The q-shifted factorial (q^n; q^2)_r = prod_{k<r} (1 - q^(n+2k)) as
    a factor list of `qcore._sqrt_coeff`, empty (a product of 1) at r = 0."""
    if r < 0 or r % 1:   # inf % 1 is nan, so r = inf is refused too
        raise ValueError(f"r must be a nonnegative integer, got {r}")
    return [(1, n + 2 * k, 0) for k in range(r)]


def lambda_s(ctx, l, s: int):
    """Positive normalization making the graded generators a spin-2l
    ladder, q^(s(s-1)/2) sqrt((q^(4l-2s+2); q^2)_(s+2l) / (q^2; q^2)_(s+2l)),
    in the arithmetic of ctx."""
    twol = int(2 * l)
    num = _sqrt_coeff(ctx, pochhammer_factors(2 * twol - 2 * s + 2, s + twol))
    den = _sqrt_coeff(ctx, pochhammer_factors(2, s + twol))
    return ctx.mul(ctx.qpow(s * (s - 1) // 2), ctx.mul(num, ctx.inv(den)))


def ladder_coeff(ctx, l, s: int):
    """c in theta_s <| E = c theta_(s-1) and theta_(s-1) <| F = q^(2s-2) c
    theta_s, in the arithmetic of ctx; None where it vanishes exactly, at
    the lowest weight s = -2l and above the highest, s = 2l + 1."""
    twol = int(2 * l)
    c = _sqrt_coeff(ctx, [(1, 2 * twol + 2 * s, 0),
                          (1, 2 * twol - 2 * s + 2, 0)])
    return c and ctx.mul(_half_lam(ctx, 1 - 2 * s - 2 * twol), c)


def spin2l_laws(ctx, l) -> dict:
    """The K/E/F ladder laws of every component, the highest/lowest weight
    vanishing included, as {name: (combos, target combos)}, their
    coefficients values of ctx."""
    twol = int(2 * l)
    lam = {s: lambda_s(ctx, l, s) for s in range(-twol, twol + 1)}
    out = {}
    for s, th in lam.items():
        f = ladder_coeff(ctx, l, s + 1)
        # theta_s <| g = c * theta_t, c None where it vanishes exactly
        for g, c, t in (("K", ctx.qpow(2 * s), s),
                        ("E", ladder_coeff(ctx, l, s), s - 1),
                        ("F", f and ctx.mul(ctx.qpow(2 * s), f), s + 1)):
            tgt = [] if c is None else [(ctx.mul(c, lam[t]),
                                         [(a_gen(t), False)])]
            out[f"{g}_s{s:+d}"] = (
                combo_ad(g, [(th, [(a_gen(s), False)])], ctx), tgt)
    return out


def spin2l_check(p: QParams, l, N: int) -> dict:
    """Residuals of the ladder laws (`spin2l_laws`), built and walked in one
    `combos_residuals` call in mp arithmetic so that the inverse-diagonal
    factor of the action does not amplify rounding noise."""
    rep = rep_bl(p, l, N)
    laws = spin2l_laws(walk_ctx(rep, N), l)
    return dict(zip(laws, combos_residuals(rep, list(laws.values()), N)))


def casimir_invariance(p: QParams, x: float, N: int) -> dict:
    """Residuals of ad_K(T2)=T2, ad_E(T2)=0, ad_F(T2)=0 on the tensor window
    of the plus series, the implementer being the tensored representation
    itself; the three built in the walk's context and walked as spin blocks
    on the plus series, in one `combos_residuals` call
    (`labels.tensor_residuals`), with no numpy."""
    rep = rep_podles(p, x, "plus", N)
    ctx = walk_ctx(rep, N)
    tw = [(ctx.one, [("T", False)])]
    return dict(zip("KEF", tensor_residuals(rep, [
        (combo_ad("K", tw, ctx), tw), (combo_ad("E", tw, ctx), []),
        (combo_ad("F", tw, ctx), [])], N)))


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
    per call (the representation's shared mp context, `labels.walk_ctx`),
    as one prefix trie of every word's walks (`labels.trie_walks`),
    and summed through the context's scalar interface alone.

    Only diagonals are read.  Each generator is a pair of walks built from
    `_AD` with M's plain letters, ad_K M against M and the + term of ad_E
    and ad_F against the - term, summed as d * pref * (a - b) over the tail
    labels, each term's sign and the prefactor (its scale) read from
    `_AD`.  Both walks of a pair make the
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
    ctx = walk_ctx(rep, W, walk_dps(rep, W + tail, slack=25))
    mul, add, zero, finite = ctx.mul, ctx.add, ctx.zero, ctx.is_finite
    labels = [(fam, k) for fam, kmin in rep.families
              for k in range(kmin + W, kmin + W + tail)]
    densities = [ctx.qpow(*rep.zexp(*label)[1:]) for label in labels]
    dense = all(finite(d) for d in densities)
    # per generator: its prefactor, whether that is finite, and its
    # pair's two terms
    pairs = []
    for h, terms in _AD.values():
        pref = _half_lam(ctx, h)
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
        diag = [e[1] if e is not None and e[0] == label else zero
                for e in ends]
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
