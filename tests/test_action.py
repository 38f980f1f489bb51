import math

import mpmath as mp
import numpy as np
import pytest

from qsphere.qcore import QParams
from qsphere.ncalg import (
    NCPoly,
    a_gen,
    basis_words,
    is_a_gen,
    make_presentation,
    random_words,
)
from qsphere import action, mpscalar
from qsphere.action import invariant_subspace, kernel_residual
from qsphere.invariance import (
    invariance_defects,
    ladder_coeff_e,
    ladder_coeff_f,
    lambda_s,
    spin2l_check,
)
from qsphere.labels import rep_bl, rep_podles
from qsphere.reps import TensorRep, max_abs
from reference_scalar import MPObjectCtx

P = QParams(0.5)
Q = P.q


def _plain_combos(poly):
    """Plain-letter combos of a polynomial."""
    return [(c, [(g, False) for g in w]) for w, c in poly.terms.items()]


def _sign_operator(rep, M):
    """The sign operator of a double space as a dense diagonal matrix: -1 on
    the first summand, +1 on the second."""
    e = np.ones(rep.dim(M))
    e[:M] = -1.0
    return np.diag(e).astype(np.complex128)


def test_casimir_matrix_is_invariant():
    from qsphere.invariance import casimir_invariance
    res = casimir_invariance(P, 0.7, 24)
    assert max(res.values()) < 1e-11, res


def test_lambda_lowest_weight_closed_form():
    # both q-factorials are empty products at s = -2l
    for l in (0.5, 1, 1.5, 2):
        twol = int(2 * l)
        want = Q ** (twol * (twol + 1) / 2)
        assert lambda_s(P, l, -twol) == pytest.approx(want, rel=1e-14)


def test_ladder_boundary_vanishing():
    for l in (0.5, 1, 2):
        twol = int(2 * l)
        assert ladder_coeff_e(P, l, -twol) == 0.0
        assert ladder_coeff_f(P, l, twol) == 0.0
        for s in range(-twol + 1, twol + 1):
            assert ladder_coeff_e(P, l, s) != 0.0


def test_highest_and_lowest_weight_killed():
    # ad_E of the lowest weight and ad_F of the highest are checked against 0
    res = spin2l_check(P, 1, 16)
    assert res["E_s-2"] < 1e-12
    assert res["F_s+2"] < 1e-12


def test_spin2l_check_small_l():
    res = spin2l_check(P, 0.5, 24)
    assert len(res) == 9
    assert max(res.values()) <= 1e-11
    assert max(v for k, v in res.items() if k.startswith("K")) <= 1e-13


def test_ad_composition_q_commutation():
    # from KE = q^2 EK as a right action: ad_E after ad_K = q^2 ad_K after ad_E
    from qsphere.invariance import combo_ad
    from qsphere.labels import combos_residual
    rep = rep_bl(P, 0.5, 16)
    pres = make_presentation("bl", P, l=0.5)
    for w in random_words(pres, 8, 3, seed=17):
        base = _plain_combos(NCPoly({w: 1.0}))
        lhs = combo_ad("E", combo_ad("K", base, P), P)
        rhs = [(Q**2 * c, segs)
               for c, segs in combo_ad("K", combo_ad("E", base, P), P)]
        assert combos_residual(rep, lhs, rhs, 16) < 1e-10, w


def _parent_combo_ad(g, combos, p):
    """combo_ad as it was written out per generator before `_AD`."""
    q, lam = p.q, p.lam
    out = []
    for coef, segs in combos:
        if g == "K":
            out.append((coef, [("Z", True)] + segs + [("Zi", True)]))
        elif g == "E":
            c = math.sqrt(q) * lam * coef
            out.append((c, [("Zi", True)] + segs + [("X", True)]))
            out.append((-c, [("Zi", True), ("X", True)] + segs))
        elif g == "F":
            c = (q ** -1.5) * lam * coef
            out.append((c, segs + [("Y", True), ("Zi", True)]))
            out.append((-c, [("Y", True)] + segs + [("Zi", True)]))
    return out


def _bits(combos):
    """Combos with each coefficient as its type and exact bits."""
    return [(type(c), c.hex() if isinstance(c, float) else c, segs)
            for c, segs in combos]


def test_combo_ad_matches_written_out_action():
    from qsphere.invariance import combo_ad
    segs = [[], [(a_gen(1), False)], [("X", False), ("Y", True)],
            [("T", False), ("Zi", False), ("X", True)]]
    for p in (P, QParams(0.3), QParams(0.83)):
        for coefs in ((1, -3, 0), (1.0, -0.3, 2.7182818, 0.0, -0.0)):
            combos = [(c, list(sg)) for c in coefs for sg in segs]
            for g in "KEF":
                assert (_bits(combo_ad(g, combos, p))
                        == _bits(_parent_combo_ad(g, combos, p))), (p, g)
    with pytest.raises(KeyError):
        combo_ad("T", [(1.0, [])], P)


def _star(poly):
    """The *-map of the bl algebras: reverse words, X* = Y, Y* = X, Z* = Z,
    A(s)* = (-1)^s A(-s), conjugate coefficients."""
    out = {}
    for w, c in poly.terms.items():
        sign, letters = 1, []
        for g in reversed(w):
            if is_a_gen(g):
                sign *= (-1) ** g[1]
                letters.append(a_gen(-g[1]))
            else:
                letters.append({"X": "Y", "Y": "X", "Z": "Z"}[g])
        nw = tuple(letters)
        out[nw] = out.get(nw, 0.0) + sign * c.conjugate()
    return NCPoly(out)


def _walk_column(rep, combos, label, ctx):
    """Column `label` of sum(coef * product of segments) on a label rep,
    each step taken by rep.step and multiplied as it goes; an implementer
    letter absorbs the sign operator where it lands in the "-" summand:
    {row label: value}."""
    rows = {}
    for coef, segs in combos:
        fam, k, val = label[0], label[1], 1
        for g, impl in reversed(segs):
            hit = rep.step(g, fam, k, ctx)
            if hit is None:
                break
            (fam, k), c = hit
            val *= -c if impl and fam == "-" else c
        else:
            rows[(fam, k)] = rows.get((fam, k), 0) + coef * val
    return rows


def test_ad_e_star_is_minus_q2_ad_f():
    # frozen regression: (ad_E M)^* = -q^2 ad_F(M^*)
    import mpmath as mp
    from qsphere.invariance import combo_ad
    from qsphere.labels import walk_dps, window_labels
    rep = rep_bl(P, 1, 16)
    pres = make_presentation("bl", P, l=1)
    W = 16
    dps = walk_dps(rep, W)
    inside = set(window_labels(rep, W))
    for w in random_words(pres, 8, 3, seed=19):
        poly = NCPoly({w: 1.0 + 0.25j})
        lhs_combos = combo_ad("E", _plain_combos(poly), P)
        rhs_combos = [(-(Q**2) * c, segs)
                      for c, segs in combo_ad(
                          "F", _plain_combos(_star(poly)), P)]
        with mp.workdps(dps):
            ctx = MPObjectCtx(Q, rep.meta["x"], dps=dps)
            lhs_entries, rhs_entries = {}, {}
            for col in window_labels(rep, W):
                for row, v in _walk_column(rep, lhs_combos, col, ctx).items():
                    if row in inside:
                        lhs_entries[(row, col)] = v
                for row, v in _walk_column(rep, rhs_combos, col, ctx).items():
                    if row in inside:
                        rhs_entries[(row, col)] = v
            worst = 0.0
            for (row, col) in set(lhs_entries) | {
                    (c, r) for (r, c) in rhs_entries}:
                a = lhs_entries.get((row, col), 0)
                b = rhs_entries.get((col, row), 0)
                a = mp.mpc(a).conjugate()
                worst = max(worst, float(abs(a - b)))
        assert worst < 1e-11, w


def _img(rep, word, M):
    A = np.eye(rep.dim(M), dtype=np.complex128)
    for g in reversed(word):
        A = rep.matrix(g, M) @ A
    return A


def test_invariance_defect_matches_direct_trace_at_small_window():
    # at W=8 the head sum still resolves the tail above double rounding:
    # the functional's density on the window, and ad_E as dense products
    # of the implementers, which absorb the sign operator
    W = 8
    x = 1.0
    rep = rep_podles(P, x, "direct_sum", W)
    M = W + 40
    e = _sign_operator(rep, M)
    Zi, X = (e @ rep.matrix(g, M) for g in ("Zi", "X"))
    idx = np.ix_(*[rep.window_indices(M, W)] * 2)
    j = np.arange(W)
    dens = np.concatenate([Q ** (2 * j + x + 1), Q ** (2 * j - x + 1)])
    words = [("Y",), ("Y", "Z"), ("X",), ("Z", "X")]
    for word, d in zip(words, invariance_defects(words, rep, W)):
        A = _img(rep, word, M)
        adE = (math.sqrt(Q) * P.lam * (Zi @ (A @ X - X @ A)))[idx]
        direct = abs(np.sum(dens * np.diag(adE)))
        assert d["E"] == pytest.approx(direct, rel=1e-6, abs=1e-14), word


def test_invariance_defects_memoised_match_fresh_context(monkeypatch):
    from reference_scalar import fresh_mp_ctx

    cases = [(rep_podles(P, 1.0, "direct_sum", 12), ("Y", "Z"), ("X",)),
             (rep_bl(P, 0.5, 12), (a_gen(1), "Y"), ("Z", a_gen(-1)))]
    shared = [invariance_defects(words, rep, 12) for rep, *words in cases]
    # an unshared context: its own step tables compute every step again
    monkeypatch.setattr(mpscalar, "mp_ctx", fresh_mp_ctx)
    assert shared == [invariance_defects(words, rep, 12)
                      for rep, *words in cases]


def _reference_walk(rep, segments, fam, k, ctx, absorb):
    """The walk that multiplies each coefficient as it steps: None where a
    step dies, else (end label, value)."""
    cf, ck, val = fam, k, 1.0
    for g, impl in reversed(segments):
        hit = rep.step(g, cf, ck, ctx)
        if hit is None:
            return None
        (cf, ck), c = hit
        val *= -c if impl and absorb and cf == "-" else c
    return (cf, ck), val


def _reference_diag_walk(rep, segments, fam, k, ctx, absorb):
    """The diagonal entry of `_reference_walk`: 0 off its label."""
    hit = _reference_walk(rep, segments, fam, k, ctx, absorb)
    return 0.0 if hit is None or hit[0] != (fam, k) else hit[1]


def _reference_density(rep, fam, k, ctx):
    """The functional's density at a label, written per representation."""
    if any(is_a_gen(g) for g in rep._steps):   # bl(l), whose x is 2l
        return ctx.qpow(2 * k + int(rep.meta["x"]) + 1)
    return ctx.qpow(2 * k + 1, 1 if fam == "-" else -1)


def _reference_invariance_defects(word, rep, W):
    """invariance_defects with six full walks per tail label, each
    multiplying as it goes."""
    import mpmath as mp

    from qsphere.labels import walk_dps
    q = rep.meta["q"]
    tail = max(8, int(math.ceil(16.0 * math.log(10)
                                / (2.0 * abs(math.log(q)))))) + 4
    dps = walk_dps(rep, W + tail, slack=25)
    mw = [(g, False) for g in word]
    with mp.workdps(dps):
        ctx = MPObjectCtx(q, rep.meta.get("x", 0.0), dps)

        def diag(segments, fam, k):
            return _reference_diag_walk(rep, segments, fam, k, ctx, True)

        lam = 1 / (ctx.qpow(1) - ctx.qpow(-1))
        pref_e = ctx.sqrt(ctx.qpow(1)) * lam
        pref_f = ctx.qpow(-1) * ctx.sqrt(ctx.qpow(-1)) * lam
        sK = sE = sF = mp.mpf(0)
        for fam, kmin in rep.families:
            for k in range(kmin + W, kmin + W + tail):
                d = _reference_density(rep, fam, k, ctx)
                dm = diag(mw, fam, k)
                sK += d * (diag([("Z", True)] + mw + [("Zi", True)], fam, k)
                           - dm)
                sE += d * pref_e * (
                    diag([("Zi", True)] + mw + [("X", True)], fam, k)
                    - diag([("Zi", True), ("X", True)] + mw, fam, k))
                sF += d * pref_f * (
                    diag(mw + [("Y", True), ("Zi", True)], fam, k)
                    - diag([("Y", True)] + mw + [("Zi", True)], fam, k))
        return {"K": float(abs(sK)), "E": float(abs(sE)), "F": float(abs(sF))}


def test_label_first_diag_walk_matches_multiplying_walk(monkeypatch):
    import mpmath as mp

    from qsphere.labels import step_tables, trie_walks
    from qsphere.mpscalar import mp_ctx

    p = QParams(0.37)
    plain = [("Z",), ("X", "Y"), ("Y", "Z", "X"),       # net shift 0
             ("Y",), ("Z", "Y"), ("X",), ("X", "Zi"),    # +1, -1
             ("Y", "Y"), ("X", "Z", "X")]                # +2, -2
    graded = [(a_gen(0),), (a_gen(1), a_gen(-1)), (a_gen(-1), "Y"),
              (a_gen(1),), (a_gen(1), "X", a_gen(1)), (a_gen(-1), "X")]
    cases = [(rep_podles(p, 1.3, "direct_sum", 12), plain),
             (rep_podles(p, 2.5, "direct_sum", 12), plain),
             (rep_bl(p, 0.5, 12), plain + graded),
             (rep_bl(p, 1, 12), plain + graded)]
    returned = vanished = 0
    for rep, words in cases:
        ctx = MPObjectCtx(p.q, rep.meta.get("x", 0.0), 40)
        tables = step_tables(rep, mp_ctx(rep, 40))
        calls = []
        step = rep.step
        monkeypatch.setattr(rep, "step",
                            lambda *a: calls.append(a) or step(*a))
        for word in words:
            mw = [(g, False) for g in word]
            # the defects' pairs of implementer letters, and single ones,
            # whose absorbed sign survives on the "-" family
            segment_lists = [mw, [("Z", True)] + mw + [("Zi", True)],
                             [("Zi", True), ("X", True)] + mw,
                             [("Y", True)] + mw + [("Zi", True)],
                             [("Z", True)] + mw, mw + [("Y", True)]]
            for segments in segment_lists:
                for absorb in (True, False):
                    path = tuple((g, impl and absorb)
                                 for g, impl in reversed(segments))
                    for fam, kmin in rep.families:
                        for k in range(kmin, kmin + 6):
                            with mp.workdps(40):
                                calls.clear()
                                (_, ends), = trie_walks(tables, {path: 0},
                                                        [(fam, k)])
                                got = ends[0][0] if ends[0] else None
                                n_got = len(calls)
                                calls.clear()
                                want = _reference_walk(
                                    rep, segments, fam, k, ctx, absorb)
                            where = (word, segments, fam, k)
                            assert (got is None) == (want is None), where
                            if got is not None:
                                assert got[0] == want[0], where
                                assert got[1] == want[1]._mpf_, where
                            # steps come from the kernel's memo
                            assert n_got <= len(calls) and len(calls) > 0
                            returned += (want is not None
                                         and want[0] == (fam, k))
                            vanished += want is None
        monkeypatch.undo()
    assert returned > 0 and vanished > 0

    assert ([d for rep, words in cases
             for d in invariance_defects(words, rep, 12)]
            == [_reference_invariance_defects(w, rep, 12)
                for rep, words in cases for w in words])


def test_screened_defects_match_six_walk_reference(monkeypatch,
                                                   functional_walks):
    # the per-word screen against the loop that walks all six walks at
    # every tail label: the raw sums, bit for bit
    import reference_functional
    from qsphere.mpscalar import MPCtx

    monkeypatch.setattr(MPCtx, "magnitude", staticmethod(lambda v: v))

    def raw(words, rep, W):
        return [list(d.values()) for d in invariance_defects(words, rep, W)]

    W = 12
    cases = [(make_presentation("podles", p, x=x),
              rep_podles(p, x, "direct_sum", W))
             for p in (P, QParams(0.3), QParams(0.8))
             for x in (1.0, 0.35, -2.5)]
    cases[3:3] = [(make_presentation("bl", P, l=l), rep_bl(P, l, W))
                  for l in (0, 0.5, 1, 1.5, 2)]
    cases += [(make_presentation("bl", p, l=l), rep_bl(p, l, W))
              for p in (QParams(0.3), QParams(0.8)) for l in (1, 2)]
    live_words = []
    for pres, rep in cases:
        words = basis_words(pres, 4)
        live = []
        for w in words:
            functional_walks.clear()
            assert (raw([w], rep, W)
                    == [reference_functional.defect_sums(w, rep, W)]), w
            live.append(sum(len(paths) for paths, _ in functional_walks))
        assert set(live) <= {0, 2}
        live_words.append((sum(n > 0 for n in live), len(words)))
        # one call for every word gives the sums of one call per word
        assert raw(words, rep, W) == [raw([w], rep, W)[0] for w in words]
    # podles at x = 1 and bl(0.5)
    assert live_words[0] == (13, 25) and live_words[4] == (13, 49)
    # a NaN density poisons every sum, screened walks or not
    nan_rep = rep_podles(P, float("nan"), "direct_sum", 8)
    words = basis_words(make_presentation("podles", P, x=1.0), 2)
    got = raw(words, nan_rep, 8)
    assert got == [reference_functional.defect_sums(w, nan_rep, 8)
                   for w in words]
    assert all(math.isnan(mp.make_mpf(v)) for d in got for v in d)


def test_functional_paths_walk_at_a_generic_label():
    # the exact walker is context-generic: every path of the functional's
    # six walks per basis word of degree <= 4 walks through the real steps,
    # step tables and trie walker in a symbolic context from a generic
    # label K + a, and each end, read at K = 30, is the float walk's from
    # label 30 + a
    from generic_label import Affine, MonomialCtx, at, same_value
    from qsphere.invariance import _AD, _ad_segments
    from qsphere.labels import step_tables, trie_walks
    from qsphere.qcore import FloatCtx
    K = 30
    cases = [(make_presentation("bl", P, l=1.5), rep_bl(P, 1.5, 12), 388),
             (make_presentation("podles", P, x=1.0),
              rep_podles(P, 1.0, "direct_sum", 8), 148)]
    for pres, rep, count in cases:
        paths = {}
        for word in basis_words(pres, 4):
            mw = [(h, False) for h in word]
            for segs in [mw] + [_ad_segments(left, mw, right)
                                for terms in _AD.values()
                                for _, left, right in terms]:
                paths.setdefault(tuple(reversed(segs)), len(paths))
        assert len(paths) == count
        x = rep.meta["x"]
        generic = [(fam, Affine(1, a)) for fam, _ in rep.families
                   for a in (-2, 0, 3)]
        walks = zip(
            trie_walks(step_tables(rep, MonomialCtx()), paths, generic),
            trie_walks(step_tables(rep, FloatCtx(Q, x)), paths,
                       [at(label, K) for label in generic]))
        for (label, ends), (_, want) in walks:
            for got, ref in zip(ends, want):
                (end, v), = got      # no walk dies from a generic label
                (end_f, v_f), = ref
                assert at(end, K) == end_f, (label, end)
                assert same_value(v.value(K, Q, x), v_f), (label, end)


def test_live_pairs_return_and_dead_pairs_read_zero(functional_walks):
    # every basis word of degree <= 4: a pair whose move cancels walks
    # back to each tail label, where no step dies, and any other pair
    # walks nothing and reads 0
    from qsphere.invariance import _AD
    W = 12
    cases = ([(make_presentation("podles", P, x=x),
               rep_podles(P, x, "direct_sum", W)) for x in (1.0, 0.35, -2.5)]
             + [(make_presentation("bl", P, l=l), rep_bl(P, l, W))
                for l in (0, 0.5, 1, 1.5, 2)])
    total = 0
    for pres, rep in cases:
        words = basis_words(pres, 4)
        for w in words:
            functional_walks.clear()
            d, = invariance_defects([w], rep, W)
            live = 0
            for g in "KEF":
                # the pair's letters: its first term's, as M's own move
                letters = _AD[g][0][1] + _AD[g][0][2] + tuple(w)
                dk = sum(rep.move(h)[0] for h in letters)
                swaps = sum(rep.move(h)[1] for h in letters)
                if dk == 0 and swaps % 2 == 0:
                    live += 1
                else:
                    assert d[g] == 0.0, (w, g)
            (paths, walked), = functional_walks
            assert len(paths) == 2 * live, w
            # one end per (tail label, registered path), back at its label
            assert all(len(end) == 1 and end[0][0] == label
                       for label, ends in walked for end in ends), w
            total += sum(len(ends) for _, ends in walked)
    assert total == 12896


def test_non_finite_x_reads_nan():
    # walk_dps takes its precision from W alone, and NaN steps give NaN
    from qsphere.invariance import combo_ad
    from qsphere.labels import combos_residual, walk_dps
    rep = rep_podles(P, float("nan"), "direct_sum", 8)
    assert walk_dps(rep, 8) == walk_dps(rep_podles(P, 0.0, "plus", 8), 8)
    for d in invariance_defects([("Y",), ("X", "Y")], rep, 8):
        assert all(math.isnan(v) for v in d.values()), d
    base = [(1.0, [("X", False), ("Y", False)])]
    assert math.isnan(combos_residual(rep, combo_ad("K", base, P), base, 8))


def test_invariance_defect_bound_and_slope():
    x = 1.0
    pres = make_presentation("podles", P, x=x)
    from qsphere.ncalg import basis_words
    words = [w for w in basis_words(pres, 4) if w]
    for W in (32, 48):
        rep = rep_podles(P, x, "direct_sum", W)
        worst = {"K": 0.0, "E": 0.0, "F": 0.0}
        for d in invariance_defects(words, rep, W):
            for key in worst:
                worst[key] = max(worst[key], d[key])
        bound = 100 * Q ** (2 * (W - 8))
        assert max(worst.values()) <= bound, (W, worst)
        if W == 32:
            low = dict(worst)
    high = worst
    for key in ("E", "F"):
        slope = (math.log(high[key]) - math.log(low[key])) / (48 - 32)
        assert abs(slope - 2 * math.log(Q)) <= 0.2 * abs(2 * math.log(Q)), key


def test_invariant_subspace_podles_and_bl():
    pres = make_presentation("podles", P, x=1.0)
    rep = rep_podles(P, 1.0, "direct_sum", 24)
    out = invariant_subspace(pres, rep, 4)
    assert out["dim"] == 1
    assert kernel_residual(out, ()) <= 1e-8

    pres_b = make_presentation("bl", P, l=0.5)
    rep_b = rep_bl(P, 0.5, 24)
    out_b = invariant_subspace(pres_b, rep_b, 4)
    assert out_b["dim"] == 1


def test_invariant_subspace_bl0_two_dimensional():
    pres = make_presentation("bl", P, l=0)
    rep = rep_bl(P, 0, 24)
    out = invariant_subspace(pres, rep, 4)
    assert out["dim"] == 2
    assert kernel_residual(out, ()) <= 1e-8
    assert kernel_residual(out, (a_gen(0),)) <= 1e-8


def test_invariant_subspace_bl0_tensor_is_four_dimensional():
    pres = make_presentation("bl", P, l=0)
    rep = rep_bl(P, 0, 24)
    out = invariant_subspace(pres, rep, 4, rank_window=16, tensor_units=True)
    assert out["dim"] == 4


def _spin_entry(a, b, v):
    S = np.zeros((2, 2), dtype=np.complex128)
    S[a, b] = v
    return S


def _kron_tensor_implementers(Z, X, Y, q):
    """The coaction-twisted Z, X, Y on space (x) C^2 as Kronecker products
    of base matrices with the spin-1/2 coefficients in closed form (spin 0
    is e_+, spin 1 is e_-): Z (x) diag(q, q^-1), X (x) 1 + Z (x) lam_inv
    e_-e_+^T and Y (x) 1 + Z (x) lam_inv e_+e_-^T, lam_inv = q - q^-1."""
    lam_inv = q - q ** -1
    I2 = np.eye(2, dtype=np.complex128)
    return (np.kron(Z, _spin_entry(0, 0, q) + _spin_entry(1, 1, q ** -1)),
            np.kron(X, I2) + np.kron(Z, _spin_entry(1, 0, lam_inv)),
            np.kron(Y, I2) + np.kron(Z, _spin_entry(0, 1, lam_inv)))


def _dense_commutator_system(pres, rep, D, rank_window, tensor_units):
    """The ergodic system as dense products: each basis image (a unit
    tensored on for tensor_units), scaled by its window maximum, then
    Z@A - A@Z, A@X - X@A and A@Y - Y@A cropped to the window.  The
    implementers Z, X, Y absorb the sign operator e as the products e@G;
    on the tensor units they are the coaction-twisted images of those."""
    words = basis_words(pres, D)
    maxshift = max([1] + [abs(g[1]) for w in words for g in w if is_a_gen(g)])
    M = rank_window + rep.pad * (D * maxshift + 2) + 2
    e = _sign_operator(rep, M)
    Z, X, Y = (e @ rep.matrix(g, M) for g in ("Z", "X", "Y"))
    impl = rep
    if tensor_units:
        impl = TensorRep(rep)
        Z, X, Y = _kron_tensor_implementers(Z, X, Y, rep.meta["q"])
    idx = np.ix_(*[impl.window_indices(M, rank_window)] * 2)
    mono, system = [], []
    for w in words:
        B = _img(rep, w, M)
        for i in range(4 if tensor_units else 1):
            A = B
            if tensor_units:
                unit = np.zeros((2, 2), dtype=np.complex128)
                unit[divmod(i, 2)] = 1.0
                A = np.kron(B, unit)
            scale = max(max_abs(A[idx]), 1e-300)
            A = A / scale
            mono.append(A[idx].reshape(-1))
            system.append(np.concatenate([
                (Z @ A - A @ Z)[idx].reshape(-1),
                (A @ X - X @ A)[idx].reshape(-1),
                (A @ Y - Y @ A)[idx].reshape(-1)]))
    return np.stack(mono, axis=1), np.stack(system, axis=1)


def _scatter_blocks(blocks, shape):
    """The matrix whose direct summands are the given (columns, rows,
    dense block) triples; the blocks must share no row and no column."""
    full = np.zeros(shape, dtype=np.complex128)
    if blocks:
        cols = np.concatenate([c for c, _, _ in blocks])
        rows = np.concatenate([r for _, r, _ in blocks])
        assert sorted(cols.tolist()) == list(range(shape[1]))
        assert len(np.unique(rows)) == len(rows)
    for cols, rows, block in blocks:
        full[np.ix_(rows, cols)] = block
    return full


def test_invariant_subspace_system_matches_dense_products(monkeypatch):
    # q = 0.37: at q = 0.5 most entries and scales are powers of two, whose
    # products and quotients round exactly in any order
    p = QParams(0.37)
    cases = [(make_presentation("podles", p, x=1.3),
              rep_podles(p, 1.3, "direct_sum", 24), 3, 8, False),
             (make_presentation("bl", p, l=0.5), rep_bl(p, 0.5, 24), 3, 8,
              False),
             (make_presentation("bl", p, l=0), rep_bl(p, 0, 24), 2, 6, True)]
    column_blocks = action._column_blocks
    for pres, rep, D, rank_window, tensor_units in cases:
        # the monomial windows are split first, the commutator system second
        split = []
        monkeypatch.setattr(action, "_column_blocks",
                            lambda cols: split.append(column_blocks(cols))
                            or split[-1])
        out = invariant_subspace(pres, rep, D, rank_window=rank_window,
                                 tensor_units=tensor_units)
        monkeypatch.undo()
        mono, system = _dense_commutator_system(pres, rep, D, rank_window,
                                                tensor_units)
        assert len(split) == 2
        assert np.array_equal(_scatter_blocks(split[0], mono.shape), mono)
        assert np.array_equal(_scatter_blocks(split[1], system.shape),
                              system)
        assert [b["columns"].tolist() for b in out["blocks"]] == [
            c.tolist() for c, _, _ in split[1]]
        # a different factorisation: singular values and kernel projector
        # agree to rounding, not bit for bit
        svals, Vh = np.linalg.svd(system, full_matrices=False)[1:]
        small = np.flatnonzero(svals < 1e-8 * max(1.0, svals[0]))
        assert out["dim"] == len(small) > 0
        blk_sv = np.sort(np.concatenate(
            [b["svals"] for b in out["blocks"]]))[::-1]
        assert max_abs(blk_sv - svals) <= 1e-13 * svals[0]
        assert abs(out["sv_largest_zero"] - svals[small[0]]) <= (
            1e-13 * svals[0])
        assert abs(out["sv_smallest_nonzero"] - svals[small[0] - 1]) <= (
            1e-13 * svals[0])
        K, Kd = out["kernel"], Vh.conj().T[:, small]
        assert max_abs(K @ K.conj().T - Kd @ Kd.conj().T) <= 1e-10


def test_invariant_subspace_blocks_at_suite_parameters():
    # the ergodic suite's systems at q = 0.5, x = 1, l = 0, D = 6, N = 64
    pres = make_presentation("podles", P, x=1.0)
    pres_b = make_presentation("bl", P, l=0)
    rep_b = rep_bl(P, 0, 64)
    outs = [invariant_subspace(pres, rep_podles(P, 1.0, "direct_sum", 64), 6),
            invariant_subspace(pres_b, rep_b, 6),
            invariant_subspace(pres_b, rep_b, 6, rank_window=16,
                               tensor_units=True)]
    assert [len(out["blocks"]) for out in outs] == [14, 26, 28]
    assert [max(len(b["columns"]) for b in out["blocks"])
            for out in outs] == [6, 6, 26]
    assert [out["dim"] for out in outs] == [1, 2, 4]
    for out in outs[:2]:
        unit = out["labels"].index(())
        (blk,) = [b for b in out["blocks"] if unit in b["columns"]]
        assert blk["columns"].tolist() == [unit]
        assert blk["rows"] == 0
        assert blk["svals"].tolist() == [0.0]
        assert out["sv_largest_zero"] == 0.0
        assert kernel_residual(out, ()) == 0.0
