import hashlib

import pytest

from qsphere import ncalg
from qsphere.qcore import QParams
from qsphere.ncalg import (
    LCG,
    NCPoly,
    ParseError,
    RewriteCapError,
    a_gen,
    basis_words,
    format_poly,
    grade,
    is_a_gen,
    is_basis_word,
    make_presentation,
    normal_form,
    parse,
    random_words,
    word_name,
)

P = QParams(0.5)
Q = P.q

# the *-structure on the named generators, g* = sign * word; A(s)* is
# (-1)^s A(-s)
_STAR = {"X": (1, ("Y",)), "Y": (1, ("X",)), "Z": (1, ("Z",)),
         "Zi": (1, ("Zi",)), "T": (1, ("T",)), "E": (1, ("Ki", "F")),
         "F": (1, ("E", "K")), "K": (1, ("K",)), "Ki": (1, ("Ki",))}


def _star(poly):
    """Reverse words, star each generator, conjugate coefficients."""
    out = {}
    for w, c in poly.terms.items():
        sign, letters = 1, []
        for g in reversed(w):
            s, gw = (((-1) ** g[1], (a_gen(-g[1]),)) if is_a_gen(g)
                     else _STAR[g])
            sign *= s
            letters.extend(gw)
        nw = tuple(letters)
        out[nw] = out.get(nw, 0.0) + sign * c.conjugate()
    return NCPoly(out)


def _max_diff(a, b):
    """Largest coefficient difference of two polynomials, word by word."""
    return max((abs(a.terms.get(w, 0.0) - b.terms.get(w, 0.0))
                for w in set(a.terms) | set(b.terms)), default=0.0)


@pytest.fixture(scope="module")
def uqmp():
    return make_presentation("uqmp", P)


@pytest.fixture(scope="module")
def podles():
    return make_presentation("podles", P, x=1.0)


@pytest.fixture(scope="module")
def bl_half():
    return make_presentation("bl", P, l=0.5)


@pytest.fixture(scope="module")
def bl_one():
    return make_presentation("bl", P, l=1)


# -- parsing ---------------------------------------------------------------

def test_parse_two_term_relation(uqmp):
    poly = parse("X*Z - q^2*Z*X", uqmp)
    assert poly.terms == {("X", "Z"): 1.0, ("Z", "X"): -(Q**2)}


def test_parse_unit(uqmp):
    assert parse("1", uqmp).terms == {(): 1.0}


def test_parse_powers_and_imaginary(uqmp):
    poly = parse("2.5i*X^3 + q^-2*Z", uqmp)
    assert poly.terms[("X", "X", "X")] == 2.5j
    assert poly.terms[("Z",)] == Q**-2


def test_parse_a_generator(bl_half):
    poly = parse("A(-1)*A(1)", bl_half)
    assert poly.terms == {(a_gen(-1), a_gen(1)): 1.0}


def test_parse_syntax_error_carries_position(uqmp):
    with pytest.raises(ParseError) as err:
        parse("X*Z +* Z", uqmp)
    assert err.value.pos == 5


def test_parse_unknown_generator(podles):
    with pytest.raises(ParseError):
        parse("X*K", podles)


def test_parse_a_out_of_range(bl_half):
    with pytest.raises(ParseError):
        parse("A(2)", bl_half)


def test_format_parse_roundtrip_random(uqmp, bl_one):
    for pres in (uqmp, bl_one):
        words = random_words(pres, 200, 6, seed=11)
        rng = LCG(23)
        for i, w in enumerate(words):
            c = complex(1 + rng.below(7) * 0.25, rng.below(5) * 0.5 - 1.0)
            poly = NCPoly({w: c, (): -0.75})
            again = parse(format_poly(poly, pres), pres)
            assert again == poly, f"word {i}: {word_name(w)}"


# -- presentations and rules -------------------------------------------------

def test_uqsu2_ke_rule():
    pres = make_presentation("uqsu2", P)
    rule = {r.name: r for r in pres.rules}["K*E"]
    assert rule.rhs == {("E", "K"): Q**2}


def test_podles_xy_rule_is_product_expansion(podles):
    # oracle: expand (1 - q^(x+1) Z)(1 + q^(-x+1) Z) directly
    x = 1.0
    a, b = Q ** (x + 1), Q ** (-x + 1)
    expected = {(): 1.0, ("Z",): b - a, ("Z", "Z"): -a * b}
    rule = {r.name: r for r in podles.rules}["X*Y"]
    assert set(rule.rhs) == set(expected)
    for w, c in expected.items():
        assert rule.rhs[w] == pytest.approx(c, rel=1e-14)


def test_bl0_a_square_rule_is_unit():
    pres = make_presentation("bl", P, l=0)
    rule = {r.name: r for r in pres.rules}["A(0)*A(0)"]
    assert rule.rhs == {(): 1.0}


def _rule_table_text(pres):
    """Every rule (name, lhs, rhs coefficients as hex, recipe, defining) in
    priority order, with the generators, grading, weights and precedence."""
    rules = [(r.name, r.lhs, [(w, c.hex()) for w, c in r.rhs.items()],
              r.recipe, r.defining) for r in pres.rules]
    return repr((pres.generators, rules, list(pres.grading.items()),
                 list(pres.weights.items()), list(pres.prec.items())))


# SHA-256 of _rule_table_text per (q, presentation, parameters)
_RULE_TABLE_DIGESTS = {
    (0.3, "uqsu2", None):
        "04014abded45dbe1a3c53583c6c82a8885e4ed4756d2842d6dc7570df7b102ae",
    (0.3, "uqmp", None):
        "c216bb4fd91ef78393910a90e7196e89c9678e06849dc531288ad21399956039",
    (0.3, "podles", 0.35):
        "ec1b370853f1c32c29541300e2657197706258e5549e9f552176ffc56bc65cd8",
    (0.3, "podles", 2.5):
        "175cac68c635b83e517e7ae660b80c0e2dbbadc75021d3aa30cc47974ad6219e",
    (0.3, "bl", 0):
        "8f9f72039727140a58fc5c9597faa29f0399e738fd0c58d345345bbaf7ed6a9b",
    (0.3, "bl", 0.5):
        "e39c35f6fbe8c982b937ac47f79e3a2c9844cb1f65073e119fac4271dd3b4e1d",
    (0.3, "bl", 1.5):
        "ae8d6bf2cd42aed010ec414d260df1891a149b20e7fbea44215437e1784f01f2",
    # l >= 1: the A(s)*A(-s) rules carry exact -0.0 coefficients
    (0.3, "bl", 1):
        "5841581da2a698d35ff07281998cb940bab7e82f4daecf2cf4d700b073357794",
    (0.3, "bl", 3):
        "413edb5ad813961db8ea0a34713f4c0799734d10464c5e101a82a16384c6803f",
    (0.1, "bl", 2):
        "557f3b63b4c299730a2ef71a1bb2280d2f285d2dd397e18e4060b78ad12707d2",
    (0.5, "uqsu2", None):
        "c28a998d4464767bd305224b7f4d0f34e0c29502f10418997982f392adf988db",
    (0.5, "uqmp", None):
        "4a632a46fa6cb53b0e7f40a97c2f40648c2984f63fb59d4561305a2f9e95fa7b",
    (0.5, "podles", 0.35):
        "fa2d2bef1b0274cb68ba6fab1862a29a8d65f6faa69866ac8d54782e3c211429",
    (0.5, "podles", 2.5):
        "abd8810bee894739445f557184b39402a3ed259333661731e1c858d73e7954da",
    (0.5, "bl", 0):
        "7bd26d73aa02a3c93c88ef1b349a797134edf842ce7bb5741d2155ae96d616ff",
    (0.5, "bl", 0.5):
        "dc2b4708032643195ab2f6f83af3b53edb1aebbad4d244916a56504a86e33dda",
    (0.5, "bl", 1.5):
        "be1546a0cdb50dccec75b37727da75b59108b8c9a502441139f42fa6f778a369",
    (0.5, "bl", 1):
        "605afe1c4f894d19ec0d0fe0e381db2ad5e1e0bf0c5200c5a0a81c56722c73ce",
}


def test_rule_tables_match_reference_bits():
    for (q, name, arg), digest in _RULE_TABLE_DIGESTS.items():
        kwargs = {"podles": {"x": arg}, "bl": {"l": arg}}.get(name, {})
        pres = make_presentation(name, QParams(q), **kwargs)
        text = _rule_table_text(pres).encode()
        assert hashlib.sha256(text).hexdigest() == digest, (q, name, arg)


def test_grading_covers_exactly_the_generators():
    for name, kwargs in (("uqsu2", {}), ("uqmp", {}), ("podles", {"x": 0.7}),
                         ("bl", {"l": 1.5})):
        pres = make_presentation(name, P, **kwargs)
        assert set(pres.grading) == set(pres.generators), name


def test_make_presentation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_presentation("bl", P, l=0.3)
    with pytest.raises(ValueError):
        make_presentation("podles", P, x=float("inf"))
    with pytest.raises(ValueError):
        make_presentation("nonsense", P)


# -- normal form --------------------------------------------------------------

def test_normal_form_yx_uqmp(uqmp):
    got = normal_form(parse("Y*X", uqmp), uqmp)
    want = normal_form(parse("1 + q^-1*T*Z - q^-2*Z^2", uqmp), uqmp)
    assert _max_diff(got, want) <= 1e-14


def test_normal_form_xz_podles(podles):
    got = normal_form(parse("X*Z", podles), podles)
    assert got == parse("q^2*Z*X", podles)


def test_normal_form_a1_am1_half():
    # oracle: expand (1 - q^-2 Z)(1 - Z) by hand and negate
    pres = make_presentation("bl", P, l=0.5)
    got = normal_form(parse("A(1)*A(-1)", pres), pres)
    want = NCPoly({(): -1.0, ("Z",): 1.0 + Q**-2, ("Z", "Z"): -(Q**-2)})
    assert _max_diff(got, want) <= 1e-14
    assert all(is_basis_word(w, pres) for w in got.terms)


def test_normal_form_idempotent(bl_one):
    for w in random_words(bl_one, 40, 5, seed=3):
        nf = normal_form(NCPoly({w: 1.0}), bl_one)
        assert _max_diff(normal_form(nf, bl_one), nf) <= 1e-12


def test_normal_form_lands_in_basis(podles, bl_half, bl_one):
    for pres in (podles, bl_half, bl_one):
        for w in random_words(pres, 60, 6, seed=5):
            nf = normal_form(NCPoly({w: 1.0}), pres)
            assert all(is_basis_word(v, pres) for v in nf.terms), word_name(w)


def test_normal_form_cap_raises(bl_one, monkeypatch):
    word = (a_gen(2), a_gen(2), a_gen(-2), a_gen(-2))
    monkeypatch.setattr(ncalg, "ITERATION_CAP", 1)
    with pytest.raises(RewriteCapError):
        normal_form(NCPoly({word: 1.0}), bl_one)


def test_t_elimination_rule(uqmp):
    # T = q^-1 Zi (XY - 1 + q^2 Z^2) follows from the uqmp rules
    expr = parse("q^-1*Zi*X*Y - q^-1*Zi + q*Zi*Z^2", uqmp)
    assert _max_diff(normal_form(expr, uqmp), parse("T", uqmp)) <= 1e-14


# -- star, grade -------------------------------------------------------------

def test_star_involution_on_uqsu2_after_reduction():
    pres = make_presentation("uqsu2", P)
    for g in ("E", "F", "K", "Ki"):
        twice = normal_form(_star(_star(parse(g, pres))), pres)
        assert _max_diff(twice, parse(g, pres)) <= 1e-14


def test_star_antihomomorphism(bl_one):
    words = random_words(bl_one, 30, 4, seed=9)
    for u, v in zip(words[::2], words[1::2]):
        pu, pv = NCPoly({u: 1.0}), NCPoly({v: 1.0})
        lhs = normal_form(_star(pu * pv), bl_one)
        rhs = normal_form(_star(pv) * _star(pu), bl_one)
        assert _max_diff(lhs, rhs) <= 1e-10


def test_grade_examples(podles, bl_half):
    assert grade(("X", "Z"), podles) == (-1, 0)
    assert grade((a_gen(0),), bl_half) == (0, 1)
    assert grade((), podles) == (0, 0)


def test_rewriting_preserves_grade(bl_one):
    for w in random_words(bl_one, 50, 5, seed=13):
        g = grade(w, bl_one)
        for v in normal_form(NCPoly({w: 1.0}), bl_one).terms:
            assert grade(v, bl_one) == g


# -- enumeration ---------------------------------------------------------------

def test_basis_words_are_normal_forms(bl_one):
    for w in basis_words(bl_one, 4):
        assert is_basis_word(w, bl_one)
        nf = normal_form(NCPoly({w: 1.0}), bl_one)
        assert nf == NCPoly({w: 1.0})


def test_basis_words_count_podles(podles):
    # Z^n X^m and Z^n Y^m with m+n <= D, pure powers counted once
    D = 6
    words = basis_words(podles, D)
    expected = 2 * sum(D - n + 1 for n in range(D + 1)) - (D + 1)
    assert len(words) == expected


def test_lcg_sequence_is_fixed():
    rng = LCG(0)
    assert [rng.next() for _ in range(3)] == [
        1013904223, 1196435762, 3519870697]
