import functools
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import ncalg
from qsphere.qcore import QParams
from qsphere.ncalg import (
    LCG,
    NCPoly,
    ParseError,
    Presentation,
    RewriteCapError,
    Rule,
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

import reference_rewrite

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


@pytest.mark.parametrize("rule, message", [
    (Rule(("X", "Z", "Z"), {("Z", "Z", "X"): Q**4}, "X*Z^2"),
     "lhs is not two letters"),
    (Rule(("Z",), {}, "Z"), "lhs is not two letters"),
    (Rule(("X", "Z"), {("Z", "X"): 1.0}, "X*Z again"),
     "lhs already has a rule"),
])
def test_check_rules_refuses_what_the_lhs_index_would_miss(podles, rule,
                                                           message):
    # each rule keeps the grading and lowers the order; only its lhs is
    # wrong
    bad = Presentation(podles.name, podles.generators,
                       podles.rules + (rule,), podles.grading, podles.params,
                       x=podles.x, weights=podles.weights, prec=podles.prec)
    with pytest.raises(AssertionError, match=message):
        ncalg._check_rules(bad)


def test_make_presentation_rejects_bad_parameters():
    for name, kwargs in [
            ("bl", {"l": 0.3}),
            ("podles", {"x": float("inf")}),
            ("nonsense", {}),
            # an argument the presentation does not read is refused, not
            # dropped
            ("uqmp", {"x": 0.7}),
            ("bl", {"l": 1, "x": 0.7}),
            ("uqsu2", {"x": 0.7}),
            ("podles", {"x": 0.7, "l": 1}),
            ("uqmp", {"l": 1}),
            ("uqsu2", {"l": 1}),
            ("uqsu2", {"x": 0.0, "l": 0})]:
        with pytest.raises(ValueError):
            make_presentation(name, P, **kwargs)


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


# each hand-picked case is decided by the word the second step would
# rewrite, which a cap of 1 names in its error message
@pytest.mark.parametrize("terms, stuck", [
    # Y*Z (priority 1) at position 1 beats X*Y (priority 2) at position 0
    ({("X", "Y", "Z"): 1.0}, "X*Z*Y"),
    # of the two X*Z occurrences the leftmost goes: Z*X^2*Z, not X*Z^2*X
    ({("X", "Z", "X", "Z"): 1.0}, "Z*X^2*Z"),
    # the larger Y*X*Z goes before X*Z, which comes first in the dict
    ({("X", "Z"): 1.0, ("Y", "X", "Z"): 1.0}, "Y*Z*X"),
])
def test_normal_form_selection_order(podles, monkeypatch, terms, stuck):
    monkeypatch.setattr(ncalg, "ITERATION_CAP", 1)
    for reduce in (normal_form, reference_rewrite.normal_form):
        with pytest.raises(RewriteCapError) as err:
            reduce(NCPoly(terms), podles)
        assert str(err.value).endswith(f"(stuck near {stuck})")


@functools.lru_cache(maxsize=None)
def _selection_presentation(name, arg):
    kwargs = {"podles": {"x": arg}, "bl": {"l": arg}}.get(name, {})
    return make_presentation(name, P, **kwargs)


def _outcome(reduce, poly, pres):
    """The term list (order and bits) of the normal form, or the cap error
    message."""
    try:
        return repr(list(reduce(poly, pres).terms.items()))
    except RewriteCapError as err:
        return str(err)


@pytest.mark.parametrize("name, arg", [("podles", 1.0), ("bl", 0.5),
                                       ("bl", 1), ("uqmp", None)])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_indexed_search_matches_sorted_scan(name, arg, data):
    pres = _selection_presentation(name, arg)
    word = st.lists(st.sampled_from(pres.generators), min_size=1,
                    max_size=6).map(tuple)
    coeff = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                               allow_infinity=False)
    poly = NCPoly(data.draw(st.lists(st.tuples(word, coeff), min_size=1,
                                     max_size=3)))
    for cap in (ncalg.ITERATION_CAP, 1, 3, 10):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ncalg, "ITERATION_CAP", cap)
            assert (_outcome(normal_form, poly, pres)
                    == _outcome(reference_rewrite.normal_form, poly, pres))


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


# -- normal forms pinned bit for bit ------------------------------------------

def _normal_forms_text(pres, words):
    """Each distinct word's outcome, in order of first draw."""
    return "\n".join(_outcome(normal_form, NCPoly({w: 1.0}), pres)
                     for w in dict.fromkeys(words))


# SHA-256 of _normal_forms_text per (q, presentation, parameter, seed, count)
# over random_words(pres, count, 6, seed): the returned dict's term order
# matters too, since residuals sum the terms in that order
_NORMAL_FORM_DIGESTS = {
    (0.5, "podles", 1.0, 0, 200):
        "b34b762d74cc2e931e3623d708a2a4ced54a27617e6d960cf0325a4509fdbeb6",
    (0.5, "podles", 0.35, 0, 200):
        "256a655edac1aa207bbe134f906ee850acec91e23fff25369d090b296e4c0885",
    (0.5, "bl", 0.5, 0, 200):
        "90451105e3e4c0eb8b5af05a985ca9614f1c207fbf14311e8ad8d0741dd414c2",
    (0.5, "bl", 1, 0, 200):
        "8463cb8e890df46b8dd8460b857096c8bc36008fc7a9566d806bfe66f732ab50",
    (0.3, "bl", 1, 0, 200):
        "1e6de9452cd86533f27166c46bd12ff8910b4621f08d7fb3438952b10c3c3559",
    (0.5, "uqmp", None, 0, 200):
        "7e5ec76c6c039499dadb757c7a1df140b2bd2466df83aa35e68c2deb0cc29cfe",
    (0.5, "podles", 1.0, 1, 200):
        "922468090e286d2a1510387a8ad497d2737d74e9342c407726c2c61a81021d36",
    (0.5, "podles", 0.35, 1, 200):
        "1fb612e03a07cc8e4d3a4cda78194e45bfa29755a6b15ef112d750c26b71ff25",
    (0.5, "bl", 0.5, 1, 200):
        "7ada5324ecf1a737a89f378c46995fec8518ed0728127d59ec75726054e91fe6",
    (0.5, "bl", 1, 1, 200):
        "27772330b299513b006ec95b2f3cfcf416fceb51d58cbbbb2bdb814488aeff1a",
    (0.3, "bl", 1, 1, 200):
        "797031ad0ab4f451535371adfe448f10802827441d37bddd454eea1d59d429ac",
    (0.5, "uqmp", None, 1, 200):
        "e4c1c5c3878d9b59e82770522f2c3e582390f043bc1541d4b7da7154e142188a",
    (0.5, "podles", 1.0, 2, 200):
        "5b31beabf9ae937332b94dc6921af510ca17964e338a7da20a2e2a835fb5cb62",
    (0.5, "podles", 0.35, 2, 200):
        "44300968198a7ba76a326b67552d5a404148248a3b884110e4dcedc227ed9161",
    (0.5, "bl", 0.5, 2, 200):
        "b71bca9d03c4fd9e87ddb691ee1f4354b4070714ccf39d2b50831acbdf80387d",
    (0.5, "bl", 1, 2, 200):
        "ce55540a4118a20c9b155517857c692659674e0c22096904aca9d666bd608c93",
    (0.3, "bl", 1, 2, 200):
        "94bd9ec7cec13df2046ac8e873c8ebc20f62405b9df0539841dcf6a27406833a",
    (0.5, "uqmp", None, 2, 200):
        "2b15623851e08c73bebddd5df45792f45ad4435f8ed494f74072a18a5c33e241",
    (0.5, "bl", 2, 0, 40):
        "5810fbcbf151f5e441fbcdccd71385e0886f86d1842fbc9730363b3d32f5e4be",
}


def test_normal_forms_match_reference_bits():
    for (q, name, arg, seed, count), digest in _NORMAL_FORM_DIGESTS.items():
        kwargs = {"podles": {"x": arg}, "bl": {"l": arg}}.get(name, {})
        pres = make_presentation(name, QParams(q), **kwargs)
        text = _normal_forms_text(pres, random_words(pres, count, 6, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (
            q, name, arg, seed)
