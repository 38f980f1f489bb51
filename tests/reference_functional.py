"""The six-walk loop that the per-word screen of
`invariance.invariance_defects` replaced, kept for tests that compare the two:
every tail label walks all six diagonal walks of the defects, whatever the
word's move, through a label-first diagonal walk of its own, and a walk
that dies or does not return reads as an exact 0.  It reads only the
kernel's step tables (one raw coefficient per step), not its trie walk,
and walks one path at a time.  Its prefactors and densities are mpf objects of
the reference scalar context (`reference_scalar`)."""

import math

import mpmath as mp
from mpmath.libmp import fone, fzero, mpf_add, mpf_mul, mpf_sub, round_nearest

from qsphere.labels import step_tables, walk_dps
from qsphere.mpscalar import mp_ctx
from reference_scalar import MPObjectCtx

_RND = round_nearest


def segment_path(tables, segs) -> list:
    """The step tables of `segs` (an operator product) in walk order, right
    to left."""
    return [tables[seg] for seg in reversed(segs)]


def _finite(v) -> bool:
    return bool(v[1]) or v == fzero


def walk_diagonal(path, label, prec):
    """Raw diagonal entry at `label` of the product walked by `path`: its
    labels are followed first, and only a walk back to `label` multiplies,
    in walk order, the first coefficient starting the product."""
    end, coeffs = label, []
    for table in path:
        hit = table[end]
        if hit is None:
            return fzero
        end, c = hit
        coeffs.append(c)
    if end != label:
        return fzero
    p = coeffs[0] if coeffs else fone
    for c in coeffs[1:]:
        p = mpf_mul(p, c, prec, _RND)
    return p


def defect_sums(word, rep, W):
    """The raw mpf tail sums for K, E and F, whose magnitudes
    `invariance.invariance_defects` returns for `word`."""
    q = rep.meta["q"]
    tail = max(8, int(math.ceil(16.0 * math.log(10)
                                / (2.0 * abs(math.log(q)))))) + 4
    dps = walk_dps(rep, W + tail, slack=25)
    with mp.workdps(dps):
        ctx = MPObjectCtx(q, rep.meta.get("x", 0.0), dps)
        prec = ctx.prec
        lam = 1 / (ctx.qpow(1) - ctx.qpow(-1))
        pref_e = (ctx.sqrt(ctx.qpow(1)) * lam)._mpf_
        pref_f = (ctx.sqrt(ctx.qpow(-3)) * lam)._mpf_
        tables = step_tables(rep, mp_ctx(rep, dps))
        Z, Zi, X, Y = (tables[(g, True)] for g in ("Z", "Zi", "X", "Y"))
        mw = segment_path(tables, [(g, False) for g in word])
        # walk order of M, ad_K: Z M Zi, ad_E: Zi M X - Zi X M, ad_F:
        # M Y Zi - Y M Zi (implementer letters)
        walks = (mw, [Zi] + mw + [Z], [X] + mw + [Zi], mw + [X, Zi],
                 [Zi, Y] + mw, [Zi] + mw + [Y])
        sums = [fzero, fzero, fzero]
        for fam, kmin in rep.families:
            for k in range(kmin + W, kmin + W + tail):
                label = (fam, k)
                _, n, m = rep.zexp(fam, k)
                d = ctx.qpow(n, m)._mpf_
                dm, vk, ve1, ve2, vf1, vf2 = (
                    walk_diagonal(path, label, prec) for path in walks)
                terms = ((vk, dm, None), (ve1, ve2, pref_e), (vf1, vf2, pref_f))
                for i, (a, b, pref) in enumerate(terms):
                    if (a == b == fzero and _finite(d)
                            and (pref is None or _finite(pref))):
                        continue
                    f = d if pref is None else mpf_mul(d, pref, prec, _RND)
                    sums[i] = mpf_add(sums[i], mpf_mul(
                        f, mpf_sub(a, b, prec, _RND), prec, _RND), prec, _RND)
        return sums
