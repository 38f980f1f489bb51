import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import finf, fnan, fninf, fzero, mpf_neg

import reference_residual
from qsphere import labels, reps
from reference_scalar import MPObjectCtx, raw
from qsphere.qcore import QParams, _sqrt_coeff
from qsphere.report import max_or_nan
from qsphere.ncalg import (
    NCPoly,
    RewriteCapError,
    a_gen,
    is_a_gen,
    make_presentation,
    normal_form,
    parse,
    random_words,
)
from qsphere.labels import (
    MPCtx,
    _tensor_terms,
    combos_residual,
    combos_residuals,
    mp_ctx,
    relation_check,
    rep_bl,
    rep_podles,
    step_tables,
    trie_walks,
    walk_dps,
    window_labels,
)
from qsphere.reps import (
    FloatCtx,
    ShiftRep,
    TensorRep,
    dump_matrix,
    evaluate,
    lift,
    load_matrix,
    max_abs,
    poly_allowance,
    residuals,
    spin_half,
    walk,
)

P = QParams(0.5)
Q = P.q


def _labels(rep, M):
    """The labels of a label representation at internal size M, in basis
    order."""
    return [(f, k) for f, kmin in rep.families for k in range(kmin, kmin + M)]


def _index(rep, fam, k, M):
    """The basis position of label (fam, k) at internal size M."""
    return _labels(rep, M).index((fam, k))


def _gens(rep):
    """The generators a podles or bl label representation steps, Z and Zi
    included; on a tensor representation, those of the coaction table whose
    base generator is there."""
    if isinstance(rep, TensorRep):
        return [g for g in ("X", "Y", "Z", "Zi", "T") if g in _gens(rep.base)]
    return list(rep._steps)


def test_podles_plus_entries():
    rep = rep_podles(P, 1.0, "plus", 8)
    Z = rep.matrix("Z", 8)
    assert Z[0, 0] == pytest.approx(1.0, abs=1e-15)          # q^(2*0-1+1)
    X = rep.matrix("X", 8)
    assert np.all(X[:, 0] == 0.0)                            # X kills e_0
    assert X[0, 1] == pytest.approx(math.sqrt(1.5), abs=1e-14)


def test_podles_minus_entries():
    rep = rep_podles(P, 0.7, "minus", 8)
    Z = rep.matrix("Z", 8)
    for k in range(8):
        assert Z[k, k] == pytest.approx(-(Q ** (2 * k + 0.7 + 1)), abs=1e-14)


def test_podles_zzi_exact_inverse():
    rep = rep_podles(P, 2.5, "direct_sum", 16)
    out = evaluate(parse("Z*Zi", make_presentation("uqmp", P)), rep)
    assert max_abs(out - np.eye(out.shape[0])) < 1.2e-16  # one ulp


def test_bl_half_a0_entries():
    rep = rep_bl(P, 0.5, 8)
    A0 = rep.matrix(a_gen(0), 8)
    for k in range(4):
        want = math.sqrt(1 - Q ** (4 * k + 4))
        got_minus = A0[_index(rep, "+", k, 8), _index(rep, "-", k, 8)]
        got_plus = A0[_index(rep, "-", k, 8), _index(rep, "+", k, 8)]
        assert got_minus == pytest.approx(want, abs=1e-14)
        assert got_plus == pytest.approx(want, abs=1e-14)


def test_bl_a_annihilates_below_floor():
    for l in (0.5, 1.5):
        rep = rep_bl(P, l, 12)
        twol = int(2 * l)
        for s in range(-twol, 0):
            A = rep.matrix(a_gen(s), 12)
            for k in range(-twol, min(-s, 12 - twol)):
                col = _index(rep, "+", k, 12)
                if k + s < 0:
                    assert np.all(A[:, col] == 0.0), (s, k)


def test_bl_restricts_to_podles_direct_sum():
    for l in (0.5, 1, 2):
        bl = rep_bl(P, l, 16)
        pod = rep_podles(P, 2 * l, "direct_sum", 16)
        for g in ("X", "Y", "Z", "Zi"):
            assert max_abs(bl.matrix(g, 16) - pod.matrix(g, 16)) < 1e-13
    # bit for bit as shifts: the "+" summand is podles(2l)'s plus series with
    # its labels moved up by 2l, which lets theorem2's basis change read the
    # Casimir eigenvectors at x = 2l
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        for l in (0, 0.5, 1, 1.5, 2):
            bl = rep_bl(p, l, 16)
            pod = rep_podles(p, 2 * l, "direct_sum", 16)
            for g in ("X", "Y", "Z", "Zi"):
                for a, b in zip(bl.shift(g, 16), pod.shift(g, 16)):
                    assert a.tobytes() == b.tobytes(), (q, l, g)


def _scatter(shifts, n, m=None):
    """The dense n x m operator of a list of weighted shifts, added up in
    list order."""
    A = np.zeros((n, n if m is None else m), dtype=np.complex128)
    for tgt, coef in shifts:
        cols = np.flatnonzero(tgt >= 0)
        A[tgt[cols], cols] += coef[cols]
    return A


def _word(*letters):
    return NCPoly({tuple(letters): 1.0})


def test_spin_half_identities():
    sp = spin_half(P)
    r = math.sqrt(Q)
    dense = {"K": [[1 / Q, 0], [0, Q]], "Ki": [[Q, 0], [0, 1 / Q]],
             "E": [[0, 0], [r, 0]], "F": [[0, 1 / r], [0, 0]]}
    for g, want in dense.items():
        assert np.array_equal(_scatter(sp.shifts(g, 2), 2), np.array(want))
        assert np.array_equal(evaluate(_word(g), sp), np.array(want))
    E, K, Ki = (evaluate(_word(g), sp) for g in ("E", "K", "Ki"))
    assert max_abs(evaluate(_word("E", "E"), sp)) == 0.0
    comm = evaluate(NCPoly({("E", "F"): 1.0, ("F", "E"): -1.0}), sp)
    assert max_abs(comm - (K - Ki) / (Q - 1 / Q)) < 1e-15
    assert max_abs(evaluate(_word("Ki", "F"), sp) - E.conj().T) < 1e-15
    assert max_abs(evaluate(NCPoly({("K", "E"): 1.0, ("E", "K"): -Q**2}),
                            sp)) < 1e-15


def test_shift_rep_clamps_to_stored_size():
    # a padded internal size past the stored one is clamped to it, so a
    # word is the product of the stored n x n operators, cropped
    rng = np.random.default_rng(5)
    n = 6
    dense = {g: np.triu(np.tril(rng.normal(size=(n, n)), 1), -1)
             for g in ("X", "Y")}
    gens = {g: _entries(A) for g, A in dense.items()}
    rep = ShiftRep(gens, n, N=5, pad=2)
    for g, A in dense.items():
        assert np.array_equal(_scatter(rep.shifts(g, 9), n), A)
        assert np.array_equal(_scatter(rep.shifts(g, 4), 4), A[:4, :4])
    X, Y = dense["X"], dense["Y"]
    got = evaluate(NCPoly({("X", "Y", "X"): 1.0, ("Y",): -0.5}), rep)
    assert max_abs(got - (X @ Y @ X - 0.5 * Y)[:5, :5]) < 1e-14
    with pytest.raises(ValueError):
        ShiftRep(gens, n, N=7, pad=2)


def _entries(A):
    rows, cols = np.nonzero(A)
    return cols, rows, A[rows, cols].astype(np.complex128)


def test_shifts_are_one_to_one():
    # the walk moves each entry of a one-shift factor to a row of its own
    reps_ = [rep_podles(P, 1.3, "direct_sum", 12), rep_bl(P, 1.5, 12),
             rep_bl(P, 0, 12)]
    reps_ += [TensorRep(r) for r in reps_[:2]]
    reps_ += [TensorRep(reps_[0], absorb_sign=True)]
    for rep in reps_:
        for g in _gens(rep):
            for tgt, _ in rep.shifts(g, 12):
                live = tgt[tgt >= 0]
                assert len(np.unique(live)) == len(live), g


def test_y_step_is_x_transpose():
    # Y = X*: the Y step at k is the X step at k + 1, so the float Y shift
    # scatters to the transpose of X's, bit for bit
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        cases = [rep_podles(p, x, v, 12) for x in (0.35, 2.5, -1.7)
                 for v in ("plus", "minus", "direct_sum")]
        cases += [rep_bl(p, l, 12) for l in (0, 0.5, 1, 2)]
        for rep in cases:
            for M in (12, 15):
                n = rep.dim(M)
                X = _scatter(rep.shifts("X", M), n)
                Y = _scatter(rep.shifts("Y", M), n)
                assert Y.tobytes() == np.ascontiguousarray(X.T).tobytes(), (
                    q, rep.meta, M)


def test_tensor_walk_matches_dense_products():
    # several shifts per generator: the walk branches and sums what lands
    # on one row; the reference multiplies the scattered matrices
    pres = make_presentation("uqmp", P)
    cases = [TensorRep(rep_podles(P, 0.7, "plus", 10)),
             TensorRep(rep_podles(P, 1.3, "direct_sum", 10),
                       absorb_sign=True)]
    for rep in cases:
        for w in random_words(pres, 30, 4, seed=8):
            poly = NCPoly({w: 1.0})
            M = rep.N + rep.pad * poly_allowance(poly)
            dim = rep.dim(M)
            term = np.eye(dim, dtype=np.complex128)
            for g in reversed(w):
                term = _scatter(rep.shifts(g, M), dim) @ term
            idx = rep.window_indices(M, rep.N)
            want = term[np.ix_(idx, idx)]
            assert max_abs(evaluate(poly, rep) - want) <= 1e-13 * max(
                1.0, max_abs(want)), w
            cols, rows, _ = walk(rep, w, M, idx)
            assert len(set(zip(cols, rows))) == len(cols)


def test_tensor_coaction_z_diagonal():
    rep = rep_podles(P, 0.7, "plus", 8)
    t2 = TensorRep(rep)
    Z2 = evaluate(_word("Z"), t2)
    assert np.array_equal(Z2, _scatter(t2.shifts("Z", 8), 16))
    assert max_abs(Z2 - np.diag(np.diag(Z2))) == 0.0
    for k in range(4):
        z = Q ** (2 * k - 0.7 + 1)
        assert Z2[2 * k, 2 * k] == pytest.approx(z * Q, abs=1e-14)
        assert Z2[2 * k + 1, 2 * k + 1] == pytest.approx(z / Q, abs=1e-14)


def test_tensor_coaction_respects_relations():
    pres = make_presentation("podles", P, x=0.7)
    rep = TensorRep(rep_podles(P, 0.7, "plus", 24))
    out = evaluate(parse("X*Z - q^2*Z*X", pres), rep)
    assert max_abs(out) < 1e-13


def test_evaluate_unit_and_casimir_combination():
    x = 1.0
    pres = make_presentation("uqmp", P)
    rep = rep_podles(P, x, "direct_sum", 24)
    assert max_abs(evaluate(parse("1", pres), rep)
                   - np.eye(48)) == 0.0
    combo = parse("Y*X - X*Y - (q^-1 - q)*T*Z + (q^-2 - q^2)*Z^2", pres)
    assert max_abs(evaluate(combo, rep)) < 1e-12


def test_t_scalar_matches_xyz_expression():
    # audit: T as tau(x) scalar versus q^-1 Zi (XY - 1 + q^2 Z^2); walked in
    # mp arithmetic since Zi entries grow like q^(-2k) toward the window edge
    pres = make_presentation("uqmp", P)

    def combos(poly):
        return [(c, [(g, False) for g in w]) for w, c in poly.terms.items()]

    for x in (0.35, 1.0, 2.5):
        rep = rep_podles(P, x, "plus", 20)
        expr = parse("q^-1*Zi*X*Y - q^-1*Zi + q*Zi*Z^2", pres)
        assert combos_residual(rep, combos(expr), combos(parse("T", pres)),
                               20) < 1e-15


def test_padded_interior_exactness():
    pres = make_presentation("bl", P, l=1)
    lean = rep_bl(P, 1, 16)
    wide = rep_bl(P, 1, 16)
    wide.pad = 4
    for w in random_words(pres, 25, 5, seed=21):
        a = evaluate(NCPoly({w: 1.0}), lean)
        b = evaluate(NCPoly({w: 1.0}), wide)
        assert max_abs(a - b) < 1e-14


def test_sigma_intertwines_plus_minus():
    # the sign link x -> -x: the minus series at x is the plus series at -x
    # with every generator negated, shift array for shift array (np.array_equal
    # does not see the sign of a zero)
    for q in (0.3, 0.5, 0.8):
        p = QParams(q)
        for x in (0.35, 1, 2.5, 7.3):
            rep_m = rep_podles(p, x, "minus", 16)
            rep_p = rep_podles(p, -x, "plus", 16)
            for g in ("X", "Y", "Z", "Zi"):
                for M in (16, 20):
                    tgt_m, coef_m = rep_m.shift(g, M)
                    tgt_p, coef_p = rep_p.shift(g, M)
                    assert np.array_equal(tgt_m, tgt_p), (q, x, g, M)
                    assert np.array_equal(coef_m, -coef_p), (q, x, g, M)


def test_star_is_adjoint_in_representation():
    # X* = Y, Z* = Z and A(s)* = (-1)^s A(-s) hold as adjoints on the window
    cases = [(rep_podles(P, 1.3, "direct_sum", 16), ()),
             (rep_bl(P, 0.5, 16), range(-1, 2)),
             (rep_bl(P, 1, 16), range(-2, 3))]
    for rep, spins in cases:
        pairs = [("X", "Y", 1), ("Y", "X", 1), ("Z", "Z", 1)]
        pairs += [(a_gen(s), a_gen(-s), (-1) ** s) for s in spins]
        for g, g_star, sign in pairs:
            adjoint = evaluate(NCPoly({(g,): 1.0}), rep).conj().T
            image = evaluate(NCPoly({(g_star,): sign}), rep)
            assert max_abs(image - adjoint) < 1e-15, (g, rep.meta)


def test_basis_monomials_linearly_independent():
    from qsphere.ncalg import basis_words
    pres = make_presentation("bl", P, l=0.5)
    rep = rep_bl(P, 0.5, 24)
    words = basis_words(pres, 5)
    vecs = np.stack([evaluate(NCPoly({w: 1.0}), rep).reshape(-1)
                     for w in words])
    svals = np.linalg.svd(vecs, compute_uv=False)
    assert svals[-1] > 1e-8 * svals[0]
    assert len(svals) == len(words)


def test_relation_check_podles_direct_sum():
    for q, x in [(0.3, 0.35), (0.5, 1.0), (0.8, 2.5)]:
        p = QParams(q)
        rep = rep_podles(p, x, "direct_sum", 32)
        # uqmp adds the Z*Zi and Zi*Z rules
        for pres in (make_presentation("podles", p, x=x),
                     make_presentation("uqmp", p)):
            res = relation_check(pres, rep)
            assert max(res.values()) <= 1e-12, (q, x, pres.name, res)


def test_relation_check_uqmp_via_podles_quotient():
    p = QParams(0.3)
    pres = make_presentation("uqmp", p)
    rep = rep_podles(p, 2.5, "direct_sum", 32)
    res = relation_check(pres, rep)
    assert max(res.values()) <= 1e-12, res


def test_relation_check_bl_all_l():
    for q in (0.3, 0.8):
        p = QParams(q)
        for l in (0, 0.5, 1, 1.5, 2):
            pres = make_presentation("bl", p, l=l)
            rep = rep_bl(p, l, 24)
            res = relation_check(pres, rep)
            assert max(res.values()) <= 1e-11, (q, l, res)


def test_relation_check_bl0_a_square_tight():
    pres = make_presentation("bl", P, l=0)
    rep = rep_bl(P, 0, 16)
    res = relation_check(pres, rep)
    assert res["A(0)*A(0)"] <= 1e-13


def test_relation_check_uqsu2_on_spin_half():
    pres = make_presentation("uqsu2", P)
    res = relation_check(pres, spin_half(P))
    assert max(res.values()) < 1e-14


def test_rep_validation_errors():
    with pytest.raises(ValueError):
        rep_podles(P, 1.0, "plus", 2)
    with pytest.raises(ValueError):
        rep_bl(P, 0.4, 16)
    with pytest.raises(ValueError):
        rep_bl(P, 2, 8)   # needs N >= 4l+4 = 12
    with pytest.raises(ValueError):
        rep_podles(P, 1.0, "sideways", 8)


def _dense_chain(poly, rep, W):
    """Reference evaluation: padded chain of dense rep.matrix products."""
    M = W + rep.pad * poly_allowance(poly)
    dim = rep.dim(M)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w, c in poly.terms.items():
        term = np.eye(dim, dtype=np.complex128)
        for g in reversed(w):
            term = rep.matrix(g, M) @ term
        acc += c * term
    idx = rep.window_indices(M, W)
    return acc[np.ix_(idx, idx)]


def _dense_from_steps(rep, g, M):
    ctx = FloatCtx(rep.meta["q"], rep.meta.get("x", 0.0))
    A = np.zeros((rep.dim(M), rep.dim(M)), dtype=np.complex128)
    for fam, k in _labels(rep, M):
        hit = rep.step(g, fam, k, ctx)
        if hit is None:
            continue
        (f2, k2), c = hit
        if 0 <= k2 - rep.kmin(f2) < M:
            A[_index(rep, f2, k2, M), _index(rep, fam, k, M)] = c
    return A


def _padded(rep, pad):
    rep.pad = pad
    return rep


def _engine_cases():
    for variant in ("direct_sum", "minus"):
        yield (make_presentation("podles", P, x=1.3),
               lambda pad, N=16, v=variant: _padded(
                   rep_podles(P, 1.3, v, N), pad))
    for l in (0.5, 1):
        yield (make_presentation("bl", P, l=l),
               lambda pad, N=16, l=l: _padded(rep_bl(P, l, N), pad))


def test_shift_walk_matches_dense_products():
    # pad 0 makes columns near the window edge walk off the internal size
    for pres, make in _engine_cases():
        for pad in (2, 0):
            rep, rep12 = make(pad), make(pad, 12)
            words = random_words(pres, 40, 7, seed=17 + pad)
            for w in words:
                poly = NCPoly({w: 1.0})
                assert np.array_equal(evaluate(poly, rep),
                                      _dense_chain(poly, rep, 16)), w
            for i in range(0, len(words) - 2, 3):
                poly = NCPoly({words[i]: 1.0, words[i + 1]: 0.5 - 0.25j,
                               words[i + 2]: -2.0})
                assert np.array_equal(evaluate(poly, rep12),
                                      _dense_chain(poly, rep12, 12))
            for g in _gens(rep):
                for M in (16, 20):
                    assert np.array_equal(rep.matrix(g, M),
                                          _dense_from_steps(rep, g, M))


def _oracle_pairs(pres, count, seed):
    """(word, normal form) for the words `verify oracle` draws at `seed`."""
    for w in random_words(pres, count, 6, seed=seed):
        poly = NCPoly({w: 1.0})
        try:
            yield poly, normal_form(poly, pres)
        except RewriteCapError:
            continue


def test_support_residual_matches_dense_difference_bits():
    # the l = 1.5 set is `oracle --x 0.7 --l 1.5 --N 40 --count 300 --seed 9`:
    # normal-form coefficients up to 3.7e17 cancel to a 5.2e8 residual, so
    # any change in the order the terms are summed moves the low bits
    cases = [(make_presentation("podles", P, x=1.0),
              rep_podles(P, 1.0, "direct_sum", 32), 60, 3, 0.0),
             (make_presentation("bl", P, l=0.5), rep_bl(P, 0.5, 32), 60, 4,
              0.0),
             (make_presentation("bl", P, l=1.5), rep_bl(P, 1.5, 40), 300, 9,
              1e8),
             (make_presentation("podles", P, x=1.0),
              rep_podles(P, float("nan"), "direct_sum", 8), 10, 5, 0.0)]
    for pres, rep, count, seed, reach in cases:
        worst = 0.0
        for poly, nf in _oracle_pairs(pres, count, seed):
            want = max_abs(evaluate(poly, rep) - evaluate(nf, rep))
            got, = residuals([(poly, nf)], rep)
            assert got.hex() == want.hex(), (next(iter(poly.terms)), got, want)
            worst = max(worst, got) if not math.isnan(got) else worst
        assert worst >= reach
    nan_rep = cases[-1][1]
    nan_res, empty = residuals([(("Z",), ("X",)), (NCPoly({}), NCPoly({}))],
                               nan_rep)
    assert math.isnan(nan_res) and empty == 0.0


def test_residuals_match_dense_difference_bits():
    # one call over a whole set shares each word's walk between the pairs
    # that hold it; each result must still be the evaluated difference's,
    # bit for bit, duplicated pairs and a NaN representation included
    cases = [(make_presentation("podles", P, x=1.0),
              rep_podles(P, 1.0, "direct_sum", 32), 60, 3),
             (make_presentation("bl", P, l=0.5), rep_bl(P, 0.5, 32), 60, 4),
             (make_presentation("bl", P, l=1.5), rep_bl(P, 1.5, 40), 300, 9),
             (make_presentation("podles", P, x=1.0),
              rep_podles(P, float("nan"), "direct_sum", 8), 10, 5)]
    for pres, rep, count, seed in cases:
        pairs = list(_oracle_pairs(pres, count, seed))
        pairs += pairs[::7] + [(("Z",), ("X",)), (NCPoly({}), NCPoly({}))]
        got = residuals(pairs, rep)
        assert len(got) == len(pairs)
        for (a, b), r in zip(pairs, got):
            want = max_abs(evaluate(a, rep) - evaluate(b, rep))
            assert r.hex() == want.hex(), (a, r, want)


def test_residuals_walk_each_word_once_at_one_size(monkeypatch):
    # one residuals call walks all its pairs at one internal size, padded
    # for the largest allowance among them: each generator's shift is built
    # at that size alone, and each distinct word is walked once, on a word
    # set whose pairs' own allowances differ
    cases = [(make_presentation("bl", P, l=1.5), rep_bl(P, 1.5, 40), 300, 9),
             (make_presentation("podles", P, x=1.0),
              rep_podles(P, 1.0, "direct_sum", 32), 60, 3)]
    walked = []

    def counted(rep, word, M, cols):
        walked.append((word, M))
        return walk(rep, word, M, cols)
    monkeypatch.setattr(reps, "walk", counted)
    for pres, rep, count, seed in cases:
        pairs = list(_oracle_pairs(pres, count, seed))
        polys = [poly for pair in pairs for poly in pair]
        own = {max(poly_allowance(a), poly_allowance(b)) for a, b in pairs}
        assert len(own) > 1, own
        M = rep.N + rep.pad * max(own)
        walked.clear()
        residuals(pairs, rep)
        words = {word for poly in polys for word in poly.terms}
        assert len(walked) == len(words), (len(walked), len(words))
        assert set(walked) == {(word, M) for word in words}
        assert {size for _, size, _ in rep._shift_cache} == {M}


def _shift_by_steps(rep, g, M):
    """Reference shift: every label's step evaluated in a fresh FloatCtx."""
    ctx = FloatCtx(rep.meta["q"], rep.meta.get("x", 0.0))
    tgt = np.full(rep.dim(M), -1, dtype=np.intp)
    coef = np.zeros(rep.dim(M), dtype=np.complex128)
    for j, (fam, k) in enumerate(_labels(rep, M)):
        hit = rep.step(g, fam, k, ctx)
        if hit is None:
            continue
        (f2, k2), c = hit
        if 0 <= k2 - rep.kmin(f2) < M:
            tgt[j] = _index(rep, f2, k2, M)
            coef[j] = c
    return tgt, coef


def test_shift_at_each_size_matches_fresh_rep_bits():
    # a rep builds a size's shift from the steps of that size's labels in
    # its one FloatCtx and caches it per size: sizes built after one
    # another, larger and smaller, must give the shift a fresh rep builds,
    # and the per-label loop in a fresh FloatCtx, bit for bit
    N = 16
    sizes = (N, N + 2, N + 10)
    for make in (lambda: rep_podles(P, 1.3, "direct_sum", N),
                 lambda: rep_bl(P, 1, N)):
        for order in (sizes, sizes[::-1], (N + 2, N + 10, N)):
            rep = make()
            for M in order:
                for g in _gens(rep):
                    fresh = make().shift(g, M)
                    for got, want in zip(rep.shift(g, M), fresh):
                        assert got.tobytes() == want.tobytes(), (g, M, order)
                    for got, want in zip(fresh, _shift_by_steps(rep, g, M)):
                        assert got.tobytes() == want.tobytes(), (g, M)


def _sign_absorbed(rep, M, tgt, coef):
    """The rule the float implementer shifts were once built by: a plain
    shift at internal size M, its coefficients negated where the target
    lies in the "-" summand."""
    minus = np.repeat([fam == "-" for fam, _ in rep.families], M)
    return np.where((tgt >= 0) & minus[tgt], -coef, coef)


def _same_shift(got, want):
    """Equal targets and equal coefficients, the real parts to the bit; a
    zero imaginary part may carry either sign."""
    return (got[0].tobytes() == want[0].tobytes()
            and got[1].real.tobytes() == want[1].real.tobytes()
            and np.array_equal(got[1].imag, want[1].imag))


def test_implementer_shifts_match_the_sign_rule_bits():
    # an implementer letter's steps, taken by LabelRep.step, give the plain
    # shift with the sign operator applied after the fact, on a label
    # representation and on its tensor with the coaction
    fl = FloatCtx(Q)
    for rep in (rep_podles(P, 1.3, "direct_sum", 12), rep_bl(P, 1, 12),
                rep_bl(P, 1.5, 12)):
        tensor = TensorRep(rep, absorb_sign=True)
        for M in (12, 20):
            for g in _gens(rep):
                want = (rep.shift(g, M)[0],
                        _sign_absorbed(rep, M, *rep.shift(g, M)))
                assert _same_shift(rep.shift(g, M, True), want), (g, M)
            for g in _gens(tensor):
                want = []
                for base_g, entries in _tensor_terms(g, fl):
                    tgt, coef = rep.shift(base_g, M)
                    coef = _sign_absorbed(rep, M, tgt, coef)
                    want += [lift(tgt, coef if v is None else coef * v,
                                  sp2, sp_in) for sp2, sp_in, v in entries]
                got = tensor.shifts(g, M)
                assert len(got) == len(want) and all(
                    _same_shift(a, b) for a, b in zip(got, want)), (g, M)
        assert any(rep.shift(g, 12, True)[1].tobytes()
                   != rep.shift(g, 12)[1].tobytes() for g in _gens(rep))


def _dense_product(factors, n):
    """A product of factors (lists of weighted shifts or scalars) as the
    chain of dense matrices and scalar multiples, applied right to left."""
    A = np.eye(n, dtype=np.complex128)
    for f in reversed(factors):
        A = f * A if isinstance(f, (int, float, complex)) else (
            _scatter(f, n) @ A)
    return A


def test_walk_difference_matches_dense_products():
    # a label representation's letters are one shift each, so every entry
    # of a product is one product of coefficients, rounded as the dense
    # chain rounds it; a tensor letter has several shifts, and where they
    # meet on one entry the dense matmul sums in its own order
    cases = [(rep_podles(P, 1.3, "direct_sum", 12), True),
             (TensorRep(rep_podles(P, 0.7, "plus", 10)), False)]
    for rep, exact in cases:
        M = rep.N + 6
        n = rep.dim(M)
        X, Y, Z, T = (rep.shifts(g, M) for g in ("X", "Y", "Z", "T"))
        cols = rep.window_indices(M, rep.N)
        sides = [([[X, Y], [0.5 - 0.25j, Z, -3.0, T]], [[Y, X], []]),
                 ([[-1.0, X, X]], [[X, 2.0, X]]),
                 ([[]], [[Z]]),
                 ([], [[X, Y, Z], [T]]),
                 ([[Y, X]], [])]
        for lhs, rhs in sides:
            rows, pos, diff = reps.walk_difference(lhs, rhs, cols)
            assert len(set(zip(rows.tolist(), pos.tolist()))) == len(rows)
            got = np.zeros((n, len(cols)), dtype=np.complex128)
            got[rows, pos] = diff
            zero = np.zeros((n, n), dtype=np.complex128)
            want = (sum((_dense_product(f, n) for f in lhs), zero)
                    - sum((_dense_product(f, n) for f in rhs), zero))[:, cols]
            if exact:
                assert np.array_equal(got, want), (lhs, rhs)
            else:
                assert max_abs(got - want) <= 1e-15 * max_abs(want)
            assert reps.walk_defect(lhs, rhs, cols) == max_abs(diff)


def test_matrix_dump_roundtrip(tmp_path):
    rep = rep_podles(P, 1.0, "plus", 6)
    A = evaluate(parse("X*Y", make_presentation("podles", P, x=1.0)), rep)
    path = tmp_path / "m.txt"
    dump_matrix(A, path)
    B = load_matrix(path)
    assert B.shape == A.shape
    assert max_abs(A - B) == 0.0


def _walk_combos(rep, combos, label, ctx):
    """Column `label` of sum(coef * product(segments)) walked on the exact
    kernel's step tables by the per-combo reference loop, as mpmath
    numbers: {row label: value}."""
    tables = step_tables(rep, ctx)
    rows = reference_residual.combo_column(
        tables, reference_residual.compile_combos(tables, combos), label)
    return {lab: mp.make_mpf(v) for lab, v in rows.items()}


def _walk_window(rep, combos, ctx, W):
    return {lab: _walk_combos(rep, combos, lab, ctx)
            for lab in window_labels(rep, W)}


_COMBOS = [(1.0, [("X", False), ("Y", True), ("Z", False)]),
           (0.3, [("Y", True), ("Zi", False), ("X", True)])]


def test_memoised_walks_match_fresh_contexts(monkeypatch):
    podles = rep_podles(P, 1.3, "direct_sum", 12)
    bl = rep_bl(P, 1, 12)
    tensor = TensorRep(rep_podles(P, 0.7, "plus", 10))
    pres_p = make_presentation("podles", P, x=1.3)
    pres_b = make_presentation("bl", P, l=1)
    tensor_combos = [(1.0, [("T", False), ("X", False)]),
                     (-0.5, [("Y", False), ("Zi", False)])]

    def run_all():
        return (relation_check(pres_p, podles), relation_check(pres_b, bl),
                combos_residual(podles, _COMBOS, [], 12),
                combos_residual(bl, _COMBOS, [(2.0, [("Z", False)])], 12),
                combos_residual(tensor, tensor_combos, [], 10))

    run_all()                      # fills the memos
    shared = run_all()             # reads them
    assert mp_ctx(Q, 1.3) is mp_ctx(Q, 1.3)
    assert any(podles._walk_memos[mp_ctx(Q, 1.3)].values())
    # an unshared context: its own step tables compute every step again
    monkeypatch.setattr(labels, "mp_ctx", MPCtx)
    assert run_all() == shared


def test_step_memo_keeps_reps_apart():
    # plus and minus share (q, x) and the family "s" but not their steps
    W = 10
    ctx = mp_ctx(Q, 1.3)
    both = {v: rep_podles(P, 1.3, v, W) for v in ("plus", "minus")}
    walked = {}
    for variant in ("plus", "minus", "plus"):
        rep = both[variant]
        got = _walk_window(rep, _COMBOS, ctx, W)
        assert got == _walk_window(rep, _COMBOS, MPCtx(Q, 1.3), W)
        walked.setdefault(variant, got)
    assert walked["plus"] != walked["minus"]


def test_step_memo_follows_precision():
    # the shared contexts of two precisions keep apart: each walks as a
    # fresh context of its own precision, under any ambient mp.workdps
    W = 10
    rep = rep_bl(P, 1.5, W)
    low = _walk_window(rep, _COMBOS, mp_ctx(Q, 3.0, 40), W)
    high = _walk_window(rep, _COMBOS, mp_ctx(Q, 3.0, 80), W)
    assert high == _walk_window(rep, _COMBOS, MPCtx(Q, 3.0, 80), W)
    assert high != low
    with mp.workdps(15):
        assert low == _walk_window(rep, _COMBOS, MPCtx(Q, 3.0, 40), W)


def test_each_step_is_computed_once_per_context(monkeypatch):
    # each (rep, generator, implementer or not, label) step is taken once
    # per context, and each root once: a Y step reads the root of the X
    # step it is the adjoint of, and an implementer letter its plain
    # step's, so they add no root; distinct steps may share a root's
    # factors (bl's A(2) and A(-2), say)
    steps, reads, roots = [], [], []
    step, sqrt_coeff, sqrt = (labels.LabelRep.step, labels._sqrt_coeff,
                              MPCtx.sqrt)

    def counted_step(rep, g, fam, k, ctx, impl=False):
        before = len(reads)
        hit = step(rep, g, fam, k, ctx, impl)
        if isinstance(ctx, MPCtx):
            steps.append(((id(rep), g, impl, fam, k, ctx), g == "Y" or impl,
                          reads[before:]))
        return hit

    def counted_read(ctx, factors):
        reads.append((ctx, tuple(factors)))
        return sqrt_coeff(ctx, factors)

    def counted_sqrt(ctx, v):   # only _sqrt_coeff takes an mp root
        roots.append(reads[-1])
        return sqrt(ctx, v)

    monkeypatch.setattr(labels.LabelRep, "step", counted_step)
    monkeypatch.setattr(labels, "_sqrt_coeff", counted_read)
    monkeypatch.setattr(MPCtx, "sqrt", counted_sqrt)
    # contexts shared between this test's checks, and no other test's roots
    monkeypatch.setattr(labels, "mp_ctx", functools.lru_cache(None)(MPCtx))
    combos = _COMBOS + [(1.0, [("Y", False), ("X", True), ("Zi", True)])]
    cases = ((rep_podles(P, 1.3, "direct_sum", 12),
              make_presentation("podles", P, x=1.3)),
             (rep_bl(P, 1, 12), make_presentation("bl", P, l=1)))
    for rep, pres in cases:
        relation_check(pres, rep)
        combos_residual(rep, combos, [(2.0, [("Z", True)])], 12)
    keys = [key for key, _, _ in steps]
    assert roots and len(set(keys)) == len(keys)
    assert len(set(roots)) == len(roots)
    assert {len(got) for _, _, got in steps} == {0, 1}
    # a derived step reads the one root of its real plain step: a Y step
    # X's at the label it lands on, an implementer letter its plain step's
    by_id, taken = {id(rep): rep for rep, _ in cases}, len(roots)
    derived = [(key, got) for key, d, got in steps if d]
    assert {g for (_, g, *_), _ in derived} >= {"Y", "X", "Z", "Zi"}
    for (rid, g, impl, fam, k, ctx), got in derived:
        before = len(reads)
        step(by_id[rid], *(("X", fam, k + 1) if g == "Y" else (g, fam, k)),
             ctx)
        assert reads[before:] == got, (g, impl, fam, k)
    assert len(roots) == taken


def test_absorbed_and_adjoint_tables_match_fresh_steps():
    W = 10
    for rep in (rep_podles(P, 1.3, "direct_sum", W),
                rep_podles(P, 1.3, "minus", W),
                rep_bl(P, 1, W), rep_bl(P, 1.5, W)):
        ctx = MPCtx(Q, rep.meta.get("x", 0.0))
        tables = step_tables(rep, ctx)
        two = len(rep.families) == 2
        labels = list(window_labels(rep, W + 2))
        seen = {"-": 0, "Y": 0}
        # an implementer letter is its plain step negated where it lands in
        # "-", and Y = X* is X's step at the label Y lands on, read back
        for g, impl in [(g, True) for g in rep._steps] + [("Y", False)]:
            for fam, k in labels:
                if g == "Y":
                    to, hit = (fam, k + 1), rep.step("X", fam, k + 1, ctx)
                else:
                    hit = rep.step(g, fam, k, ctx)
                    to = None if hit is None else hit[0]
                want = None
                if hit is not None:
                    c = hit[1]
                    if impl and two and to[0] == "-":
                        c = mpf_neg(c)
                        seen["-"] += 1
                    want = to, c
                assert tables[(g, impl)][(fam, k)] == want, (g, impl)
                assert rep.step(g, fam, k, ctx, impl) == want, (g, impl)
                seen["Y"] += g == "Y" and want is not None
        assert seen["Y"] > 0 and (seen["-"] > 0) == two


def test_diagonal_walk_multiplies_only_returning_walks(functional_walks):
    # the functional's diagonals walk only words whose moves let them
    # return: every path it gives the shared trie walker ends back at each
    # tail label it starts from
    from qsphere import invariance
    rep = rep_bl(P, 1, 12)
    returning = [("X", "Y"), ("Y", "Z", "X"), (a_gen(1), a_gen(-1))]
    leaving = [("Y",), ("X", "Zi"), ("Y", "Y"), (a_gen(1),), ("X", "X")]
    invariance.invariance_defects(returning + leaving, rep, 8)
    (paths, walked), = functional_walks
    assert paths and all(len(end) == 1 and end[0][0] == label
                         for label, ends in walked for end in ends)


def _expected_move(g):
    """Where a generator takes a label, from the algebras: X lowers it in
    its summand and Y raises it, Z, Zi and T keep it, and A(s) moves it by
    s into the other summand."""
    if is_a_gen(g):
        return g[1], True
    return {"X": -1, "Y": 1}.get(g, 0), False


def test_every_step_lands_where_its_move_says():
    cases = ([rep_podles(P, x, v, 40) for x in (1.0, 0.35, -2.5)
              for v in ("plus", "minus", "direct_sum")]
             + [rep_bl(P, l, 40) for l in (0, 0.5, 1, 1.5, 2)])
    for rep in cases:
        x = rep.meta.get("x", 0.0)
        two = len(rep.families) == 2
        for ctx in (FloatCtx(Q, x), MPCtx(Q, x)):
            tables = step_tables(rep, ctx)
            for g in rep._steps:
                dk, swap = _expected_move(g)
                assert rep.move(g) == (dk, swap), g
                landed = 0
                for fam, kmin in rep.families:
                    to = ({"+": "-", "-": "+"}[fam] if swap else fam,)
                    for k in range(kmin, kmin + 40):
                        want = to + (k + dk,)
                        hit = rep.step(g, fam, k, ctx)
                        if hit is None:
                            continue
                        landed += 1
                        assert hit[0] == want, (g, fam, k)
                        for impl in (False, True)[:1 + two]:
                            got = tables[(g, impl)][(fam, k)]
                            assert got[0] == want, (g, impl, fam, k)
                assert landed, g


def test_exact_bits_ignore_the_ambient_precision(monkeypatch):
    # an mp context binds its precision into every operation, so steps,
    # factors, step tables and residuals read the same bits under any
    # ambient mp.workdps; a context of another precision gives other bits
    from qsphere import invariance
    monkeypatch.setattr(labels, "mp_ctx", MPCtx)   # fresh tables per call
    monkeypatch.setattr(invariance, "mp_ctx", MPCtx)
    W = 10
    podles = rep_podles(P, 1.3, "direct_sum", W)
    tensor = TensorRep(rep_podles(P, 0.7, "plus", W))
    pres = make_presentation("podles", P, x=1.3)
    segs = [(g, impl) for g in podles._steps for impl in (False, True)]
    segs += [(("zf", -1, 2, 1), False), (("lead", 1, 3, -1), False)]

    def readings(dps=40):
        ctx = MPCtx(Q, 1.3, dps)
        f = ctx.factor(-1, 6, -2)
        tables, tensor_t = (step_tables(podles, ctx),
                            step_tables(tensor, MPCtx(Q, 0.7, dps)))
        return (f, [podles.step(g, *lab, ctx) for g in podles._steps
                    for lab in window_labels(podles, W)],
                [tables[seg][lab] for seg in segs
                 for lab in window_labels(podles, W)],
                [tensor_t[("T", False)][lab]
                 for lab in window_labels(tensor, W)],
                relation_check(pres, podles),
                combos_residuals(rep_bl(P, 1.5, W), [
                    (_COMBOS, []), (_COMBOS[:1], _COMBOS[1:])], W),
                invariance.invariance_defects([("X", "Y"), ("Z",)],
                                              podles, 8))

    want = readings()
    for dps in (15, 60, 200):
        with mp.workdps(dps):
            assert readings() == want, dps
    assert all(a != b for a, b in zip(readings(80)[:4], want))


def test_mp_factors_computed_once_at_their_precision():
    # a factor is computed once, at its context's precision: the memo
    # returns the same value under a foreign mp.workdps, and a factor first
    # made there has the bits of mpf arithmetic at the context's precision
    ctx = MPCtx(Q, 1.3, 40)
    ref = MPObjectCtx(Q, 1.3, 40)
    f = ctx.factor(-1, 6, -2)
    assert f == ctx.add(ctx.one, ctx.qpow(6, -2))
    assert ctx.factor(-1, 6, -2) is f
    with mp.workdps(60):
        assert ctx.factor(-1, 6, -2) is f
        g = ctx.factor(1, 6, -2)
    assert ctx.factor(1, 6, -2) is g
    with mp.workdps(ref.dps):
        assert (f, g) == (raw(ref.factor(-1, 6, -2)), raw(ref.factor(1, 6, -2)))
    fl = FloatCtx(Q, 1.3)   # the float context's factor, unmemoised
    assert fl.factor(1, 4, 1) == 1 - fl.qpow(4, 1)


def test_dropped_rep_frees_its_walk_memo_without_the_collector():
    # the rep holds its step tables, and they hold it only weakly, so both
    # go by reference counting alone
    import gc
    import weakref

    pres = make_presentation("podles", P, x=1.3)
    cases = (
        (lambda: rep_podles(P, 1.3, "direct_sum", 10),
         lambda r: relation_check(pres, r)),
        (lambda: rep_bl(P, 1, 10),
         lambda r: combos_residual(r, _COMBOS, [], 10)),
        (lambda: TensorRep(rep_podles(P, 0.7, "plus", 10)),
         lambda r: combos_residual(
             r, [(1.0, [("T", False), ("X", False)])], [], 10)))
    gc.disable()
    try:
        for make, check in cases:
            rep = make()
            check(rep)
            memo = weakref.ref(next(iter(rep._walk_memos.values())))
            gone = weakref.ref(rep)
            del rep
            assert gone() is None and memo() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the exact walk kernel against walks that multiply mpf objects as they go
# ---------------------------------------------------------------------------

def _reference_tensor_terms(g, ctx):
    q1, qm1 = ctx.qpow(1), ctx.qpow(-1)
    lam_inv = q1 - qm1
    if g == "Z":
        return [("Z", {(0, 0): q1, (1, 1): qm1})]
    if g == "Zi":
        return [("Zi", {(0, 0): qm1, (1, 1): q1})]
    if g == "X":
        return [("X", {(0, 0): 1, (1, 1): 1}), ("Z", {(1, 0): lam_inv})]
    if g == "Y":
        return [("Y", {(0, 0): 1, (1, 1): 1}), ("Z", {(0, 1): lam_inv})]
    q2, qm2 = ctx.qpow(2), ctx.qpow(-2)
    return [("T", {(0, 0): qm1, (1, 1): q1}),
            ("Z", {(0, 0): q2 - 1, (1, 1): qm2 - 1}),
            ("X", {(0, 1): lam_inv}),
            ("Y", {(1, 0): lam_inv})]


def _reference_branches(rep, g, label, ctx, impl):
    if not isinstance(rep, reps.TensorRep):
        hit = rep.step(g, label[0], label[1], ctx)
        if hit is None:
            return []
        (f2, k2), c = hit
        if impl and len(rep.families) == 2 and f2 == "-":
            c = -c
        return [((f2, k2), c)]
    fam, k, sp = label
    out = []
    for base_g, spin_entries in _reference_tensor_terms(g, ctx):
        hit = rep.base.step(base_g, fam, k, ctx)
        if hit is None:
            continue
        (f2, k2), c = hit
        if rep.absorb_sign and f2 == "-":
            c = -c
        for (sp2, sp_in), v in spin_entries.items():
            if sp_in == sp:
                out.append(((f2, k2, sp2), c * v))
    return out


def _reference_walk_combos(rep, combos, label, ctx):
    rows = {}
    for coef, segs in combos:
        frontier = {label: 1}
        for g, impl in reversed(segs):
            nxt = {}
            for lab, val in frontier.items():
                for lab2, c in _reference_branches(rep, g, lab, ctx, impl):
                    nxt[lab2] = nxt.get(lab2, 0) + val * c
            frontier = nxt
        for lab, val in frontier.items():
            rows[lab] = rows.get(lab, 0) + coef * val
    return rows


def _reference_combos_residual(rep, combos_a, combos_b, W, ctx):
    worst = 0.0
    inside = set(window_labels(rep, W))
    for label in window_labels(rep, W):
        rows = _reference_walk_combos(rep, combos_a, label, ctx)
        for lab, val in _reference_walk_combos(rep, combos_b, label,
                                               ctx).items():
            rows[lab] = rows.get(lab, 0) - val
        for lab, val in rows.items():
            if lab in inside:
                worst = max(worst, float(abs(val)))
    return worst


def _reference_rule_residual(rep, rule, W, ctx):
    def walk(items, fam, k, val):
        for item in reversed(items):
            if isinstance(item, tuple) and item[0] == "zf":
                _, sgn, n, m = item
                zsgn, zn, zm = rep.zexp(fam, k)
                val = val * (1 - sgn * zsgn * ctx.qpow(n + zn, m + zm))
                continue
            hit = rep.step(item, fam, k, ctx)
            if hit is None:
                return None
            (fam, k), c = hit
            val = val * c
        return (fam, k), val

    def accumulate(terms, fam, k, rows, sign):
        for w, c in terms.items():
            hit = walk(w, fam, k, ctx.one)
            if hit is not None:
                v = hit[1] * c.real if c.imag == 0.0 else hit[1] * mp.mpc(c)
                rows[hit[0]] = rows.get(hit[0], 0) + sign * v

    worst = 0.0
    for fam, kmin in rep.families:
        for k in range(kmin, kmin + W):
            rows = {}
            accumulate({rule.lhs: 1.0}, fam, k, rows, +1)
            if rule.recipe is None:
                accumulate(rule.rhs, fam, k, rows, -1)
            else:
                (csign, cn, cm), items = rule.recipe
                hit = walk(items, fam, k, csign * ctx.qpow(cn, cm))
                if hit is not None:
                    rows[hit[0]] = rows.get(hit[0], 0) - hit[1]
            for (rf, rk), v in rows.items():
                if rep.kmin(rf) <= rk < rep.kmin(rf) + W:
                    worst = max(worst, abs(float(v)))
    return worst


def test_combo_kernel_matches_multiplying_walks():
    W = 10
    label_combos = _COMBOS + [
        (2.0, [("Z", True), ("X", False), ("Zi", True)]),
        (3, [("Y", True), ("Y", False)]),
        (-1.5, [("X", True), ("X", True), ("Y", False), ("Y", True)])]
    tensor_combos = [(1.0, [("T", False), ("X", False)]),
                     (0.25, [("Y", True), ("Zi", False), ("T", True)]),
                     (-2.0, [("X", False), ("Y", False), ("Z", False)])]
    cases = [(rep_podles(P, 1.3, "direct_sum", W), label_combos),
             (rep_podles(P, 1.3, "minus", W), label_combos),
             (rep_bl(P, 1, W), label_combos),
             (TensorRep(rep_podles(P, 0.7, "plus", W)), tensor_combos),
             (TensorRep(rep_podles(P, 1.3, "direct_sum", W),
                        absorb_sign=True), tensor_combos)]
    for rep, combos in cases:
        x = rep.meta.get("x", 0.0)
        dps = walk_dps(rep, W)   # the precision combos_residual walks at
        ref = MPObjectCtx(Q, x, dps)
        with mp.workdps(dps):
            for ctx in (mp_ctx(Q, x, dps), MPCtx(Q, x, dps)):
                for label in window_labels(rep, W):
                    got = _walk_combos(rep, combos, label, ctx)
                    want = _reference_walk_combos(rep, combos, label, ref)
                    assert ({lab: v._mpf_ for lab, v in got.items()}
                            == {lab: v._mpf_ for lab, v in want.items()})
            want = _reference_combos_residual(rep, combos, combos[:1], W, ref)
        assert combos_residual(rep, combos, combos[:1], W) == want


def test_exact_walks_are_real():
    # a complex coefficient with zero imaginary part walks as its real part,
    # bit for bit; any other complex coefficient is refused
    segs = [("X", False), ("Y", True)]
    cases = [(rep_podles(P, 1.3, "direct_sum", 10), _COMBOS),
             (TensorRep(rep_podles(P, 0.7, "plus", 10)),
              [(1.0, [("T", False), ("X", False)])])]
    for rep, combos in cases:
        real = combos_residual(rep, combos, [(2.0, segs)], 10)
        assert real > 0
        for coef in (2 + 0j, complex(2, -0.0)):
            assert combos_residual(rep, combos, [(coef, segs)],
                                   10).hex() == real.hex()
        for coef in (2 + 1e-300j, 1j, complex(0, float("nan"))):
            with pytest.raises(ValueError):
                combos_residual(rep, combos, [(coef, segs)], 10)
            with pytest.raises(ValueError):
                combos_residual(rep, [(coef, segs)], combos, 10)


def test_relation_kernel_matches_multiplying_walks(monkeypatch):
    W = 12
    cases = [(make_presentation("podles", P, x=1.3),
              rep_podles(P, 1.3, "direct_sum", W)),
             (make_presentation("uqmp", P), rep_podles(P, 0.7, "plus", W)),
             (make_presentation("bl", P, l=1), rep_bl(P, 1, W)),
             (make_presentation("bl", P, l=1.5), rep_bl(P, 1.5, W))]
    zf_rules = 0
    for fresh in (False, True):
        if fresh:
            monkeypatch.setattr(labels, "mp_ctx", MPCtx)
        for pres, rep in cases:
            got = relation_check(pres, rep)
            with mp.workdps(labels.MP_DPS):
                ctx = MPObjectCtx(Q, rep.meta.get("x", 0.0))
                want = {r.name: _reference_rule_residual(rep, r, W, ctx)
                        for r in pres.rules if r.defining}
            assert got == want
            zf_rules += sum(any(isinstance(it, tuple) and it[0] == "zf"
                                for it in r.recipe[1])
                            for r in pres.rules
                            if r.defining and r.recipe is not None)
    assert zf_rules > 0


# ---------------------------------------------------------------------------
# the raw scalar context against mpf objects, and the walker in floats
# ---------------------------------------------------------------------------

_TENSOR_GENS = ("T", "X", "Y", "Z", "Zi")
_TENSOR_COMBOS = [(1.0, [("T", False), ("X", False)]),
                  (0.25, [("Y", True), ("Zi", False), ("T", True)]),
                  (-2.0, [("X", False), ("Y", False), ("Z", False)])]


def _bit_cases(q):
    """(rep, window, segments, combos) at q: podles at an integer and a
    non-integer x, bl(1) and a tensor, at windows 48 and 64."""
    p = QParams(q)
    label_segs = [(("zf", -1, 2, 1), False), (("lead", 1, 3, -1), False)]
    label_combos = _COMBOS + [(1, [("X", True), (("zf", 1, 1, 0), False),
                                   ("Y", False), (("lead", -1, 0, 1), False)])]
    for rep, W in ((rep_podles(p, 2.0, "direct_sum", 48), 48),
                   (rep_podles(p, 1.3, "direct_sum", 64), 64),
                   (rep_bl(p, 1, 48), 48)):
        segs = [(g, impl) for g in rep._steps for impl in (False, True)]
        yield rep, W, segs + label_segs, label_combos
    tensor = TensorRep(rep_podles(p, 1.3, "plus", 48))
    yield tensor, 48, [(g, False) for g in _TENSOR_GENS], _TENSOR_COMBOS


def _same_entry(a, b) -> bool:
    """A table entry or step of the raw context against the reference's."""
    if a is None or b is None:
        return a is b
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_entry, a, b))
    return a[:-1] == b[:-1] and a[-1] == raw(b[-1])


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.8])
def test_raw_context_matches_mpf_objects_bit_for_bit(q):
    # every step, factor, root, q-power, table entry and trie batch of the
    # raw context is the reference's mpf object to the bit, at 40 digits
    # and at the window's walk precision
    for rep, W, segs, combos in _bit_cases(q):
        base = getattr(rep, "base", rep)
        x = rep.meta.get("x", 0.0)
        window = list(window_labels(rep, W))
        paths = {tuple(reversed(segments)): i
                 for i, (_, segments) in enumerate(combos)}
        for dps in (40, walk_dps(rep, W)):
            new, ref = MPCtx(q, x, dps), MPObjectCtx(q, x, dps)
            with mp.workdps(dps):
                for g in base._steps:
                    for fam, k in window_labels(base, W + 2):
                        assert _same_entry(base.step(g, fam, k, new),
                                           base.step(g, fam, k, ref)), g
                tables = step_tables(rep, new), step_tables(rep, ref)
                for seg in segs:
                    for label in window:
                        assert _same_entry(*(t[seg][label] for t in tables))
                walks = (trie_walks(t, paths, window) for t in tables)
                for (la, got), (lb, want) in zip(*walks):
                    assert la == lb and len(got) == len(want)
                    for a, b in zip(got, want):
                        assert list(a) == [(lab, raw(v)) for lab, v in b]
                assert new.roots and new._factors.keys() == ref._factors.keys()
                for key, v in new._factors.items():
                    assert v == raw(ref._factors[key])
                for key, v in new.roots.items():
                    assert v == raw(_sqrt_coeff(ref, key))
                for key, v in new._cache.items():
                    assert v == raw(ref.qpow(*key))


def test_float_trie_walk_matches_walk_shifts():
    # the step tables and the trie walker run in the float context as well,
    # and read what the float engine's walk of the same words reads
    W, M = 16, 24
    words = [("X", "Y"), ("Y", "Z", "X"), ("Zi", "X", "Y", "Y"), ("Z",)]
    cases = [(rep_podles(P, 1.3, "direct_sum", W), words),
             (rep_bl(P, 1, W), words + [(a_gen(1), "Y", a_gen(-2))])]
    for rep, batch in cases:
        ctx = FloatCtx(Q, rep.meta["x"])
        paths = {tuple((g, False) for g in reversed(w)): i
                 for i, w in enumerate(batch)}
        window = list(window_labels(rep, W))
        walked = dict(trie_walks(step_tables(rep, ctx), paths, window))
        cols = rep.window_indices(M, W)
        for i, w in enumerate(batch):
            pos, rows, val = reps.walk_shifts([rep.shifts(g, M) for g in w],
                                              cols)
            want = {window[j]: ((rep.families[r // M][0],
                                 rep.families[r // M][1] + r % M), v)
                    for j, r, v in zip(pos, rows, val)}
            got = {label: ends[i][0] for label, ends in walked.items()
                   if ends[i]}
            assert got.keys() == want.keys() and got, w
            for label, (end, v) in got.items():
                assert end == want[label][0], (w, label)
                assert abs(v - want[label][1]) <= 1e-15 * abs(v), (w, label)


# ---------------------------------------------------------------------------
# the prefix-trie walk against the per-identity loop it replaced
# ---------------------------------------------------------------------------

def _same(got, want):
    """Bit-identical floats, NaN where the reference reads NaN."""
    return got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


def test_trie_residuals_match_per_identity_loop():
    from qsphere.invariance import combo_ad, spin2l_laws
    ref = reference_residual.reference_residual
    N = 16
    checked = 0
    cases = ([(make_presentation("podles", P, x=x),
               rep_podles(P, x, "direct_sum", N)) for x in (1, 0.35, -2.5)]
             + [(make_presentation("uqmp", P), rep_podles(P, 0.7, "plus", N))]
             + [(make_presentation("bl", P, l=l), rep_bl(P, l, N))
                for l in (0, 0.5, 1, 1.5, 2)])
    for pres, rep in cases:
        got = relation_check(pres, rep)
        want = reference_residual.reference_relation_check(pres, rep)
        assert list(got) == list(want)
        assert all(_same(got[k], want[k]) for k in want), (pres.name, got)
        checked += len(want)
    for l in (0.5, 1, 2):
        laws = spin2l_laws(P, l)
        rep = rep_bl(P, l, N)
        got = combos_residuals(rep, list(laws.values()), N)
        assert len(laws) == 3 * (4 * l + 1)
        for g, (name, (lhs, rhs)) in zip(got, laws.items()):
            assert _same(g, ref(rep, lhs, rhs, N)), (l, name)
        checked += len(laws)
    tw = [(1.0, [("T", False)])]
    for x in (0.7, -2.5):
        rep = TensorRep(rep_podles(P, x, "plus", 12))
        pairs = [(combo_ad("K", tw, P), tw), (combo_ad("E", tw, P), []),
                 (combo_ad("F", tw, P), [])]
        for g, (lhs, rhs) in zip(combos_residuals(rep, pairs, 12), pairs):
            assert _same(g, ref(rep, lhs, rhs, 12)), x
            checked += 1
    # the NaN-x rep, an empty right side, paths that die at the family
    # edge (X lowers the label, so X X dies from k = 0 and 1), and
    # coefficients of exactly 1 and not 1, all in one call
    nan_rep = rep_podles(P, float("nan"), "direct_sum", 8)
    base = [(1.0, [("X", False), ("Y", False)])]
    edge = [(1, [("X", False), ("X", False)]),
            (0.75, [("Y", True), ("X", False), ("X", True)])]
    for rep, pairs in (
            (nan_rep, [(combo_ad("K", base, P), base), (base, [])]),
            (rep_podles(P, 1.3, "direct_sum", 8),
             [(edge, []), ([], edge), (edge, base), (base, edge[:1]),
              (_COMBOS, _COMBOS[1:]), ([], [])])):
        got = combos_residuals(rep, pairs, 8)
        for g, (lhs, rhs) in zip(got, pairs):
            assert _same(g, ref(rep, lhs, rhs, 8)), (lhs, rhs)
            checked += 1
        if rep is nan_rep:
            assert all(math.isnan(g) for g in got)
        else:
            assert got[-1] == 0.0 and all(g > 0 for g in got[:-1])
    assert checked > 100


def _raw(sign, man, exp):
    """A normalized raw mpf (sign, odd mantissa, exponent, bit count)."""
    if man == 0:
        return fzero
    while man % 2 == 0:
        man, exp = man // 2, exp + 1
    return (sign, man, exp, man.bit_length())


_RAW_MPF = st.one_of(
    st.sampled_from((fzero, finf, fninf, fnan)),
    st.builds(_raw, st.integers(0, 1), st.integers(0, 2 ** 60),
              st.integers(-1200, 1100)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=st.lists(_RAW_MPF, max_size=12),
       ties=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12),
                               st.integers(1, 2 ** 12)), max_size=6),
       top=st.integers(-1080, 1030))
def test_largest_row_converts_once(rows, ties, top):
    # `ties` are mantissas of every bit count placed at one exponent + bit
    # count, each also with the opposite sign; the running largest raw row,
    # converted once, reads as converting every row and taking max_or_nan
    for sign, bc, man in ties:
        man = (man % (1 << bc)) | (1 << (bc - 1)) | 1
        rows += [_raw(sign, man, top - bc), _raw(1 - sign, man, top - bc)]
    want = max_or_nan(0.0, *map(labels.mp_magnitude, rows))
    for order in (rows, rows[::-1]):
        got = labels.mp_magnitude(
            functools.reduce(labels._larger, order, fzero))
        assert _same(got, want), order
