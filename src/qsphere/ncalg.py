"""Noncommutative polynomials, a small expression parser, and rewriting to
normal form for the four presented *-algebras (uqsu2, uqmp, podles, bl).

Generators are plain strings ("X", "Y", "Z", "Zi", "T", "K", "Ki", "E", "F")
or pairs ("A", s) for the grading-odd generators of the bl family.  Words are
tuples of generators; a polynomial is a dict word -> complex coefficient.

Rewrite rules are oriented by a weighted graded order (generator weights
below, letter precedence as tie-break) so that every right-hand side is
strictly smaller
than its left-hand word; termination follows, and an iteration cap guards
against implementation bugs.  Confluence is not assumed: normal forms are
certified against the truncated representations.
"""

from __future__ import annotations

import heapq
import math

from .qcore import FloatCtx, QParams, tau

Gen = object  # str or ("A", s)
Word = tuple

PRUNE_DEFAULT = 1e-14
ITERATION_CAP = 10000

_NAMED_GENS = ("X", "Y", "Z", "Zi", "T", "K", "Ki", "E", "F")


def a_gen(s: int) -> Gen:
    return ("A", int(s))


def is_a_gen(g: Gen) -> bool:
    return isinstance(g, tuple) and len(g) == 2 and g[0] == "A"


def gen_name(g: Gen) -> str:
    if is_a_gen(g):
        return f"A({g[1]})"
    return g


def word_name(w: Word) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        parts.append(gen_name(w[i]) + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(parts)


class RewriteCapError(RuntimeError):
    """Raised when a reduction exceeds the iteration cap."""


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class NCPoly:
    """Finite complex combination of words in the generators."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for w, c in dict(terms).items():
                c = complex(c)
                if abs(c) > PRUNE_DEFAULT:
                    self.terms[tuple(w)] = c

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) - c
        return NCPoly(out)

    def __mul__(self, other) -> "NCPoly":
        if not isinstance(other, NCPoly):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0.0) + c1 * c2
        return NCPoly(out)

    def __rmul__(self, scalar) -> "NCPoly":
        return self.scale(scalar)

    def scale(self, c) -> "NCPoly":
        return NCPoly({w: v * c for w, v in self.terms.items()})

    def __neg__(self) -> "NCPoly":
        return self.scale(-1.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"NCPoly({format_poly(self)})"


# ---------------------------------------------------------------------------
# rules and presentations
# ---------------------------------------------------------------------------

# recipe item: either a generator, or ("zf", sign, n, m) standing for the
# diagonal factor (1 - sign * q^(n + m*x) * Z); a recipe ((c_sign, n, m), items)
# encodes c_sign * q^(n + m*x) * items as an operator product (rightmost item
# acts first).  Recipes let relation checks evaluate product-form right-hand
# sides without expanding them, which matters for conditioning.  A rule's
# rhs is its recipe's expansion (`_expand_recipe`), except for the X*Y and
# Y*X rules of podles and bl, which keep their tau form.

def zf(sign: int, n: float, m: int):
    return ("zf", sign, n, m)


class Rule:
    """One oriented rewrite rule lhs -> rhs ({word: coefficient}), with the
    recipe its rhs expands from, if any; `defining` False marks a rewriting
    aid derived from the defining rules."""

    __slots__ = ("lhs", "rhs", "name", "recipe", "defining")

    def __init__(self, lhs: Word, rhs: dict, name: str,
                 recipe: tuple | None = None, defining: bool = True):
        self.lhs, self.rhs, self.name = lhs, rhs, name
        self.recipe, self.defining = recipe, defining


class Presentation:
    """Generators, rules ordered by priority, and the grading (gen -> (int
    degree, parity 0/1)) of one algebra, with the weights and letter
    precedence of its word order."""

    __slots__ = ("name", "generators", "rules", "grading", "params", "x",
                 "l", "weights", "prec")

    def __init__(self, name: str, generators: tuple, rules: tuple,
                 grading: dict, params: QParams, x: float | None = None,
                 l: float | None = None, weights: dict | None = None,
                 prec: dict | None = None):
        self.name, self.generators = name, generators
        self.rules, self.grading, self.params = rules, grading, params
        self.x, self.l = x, l
        self.weights = {} if weights is None else weights
        self.prec = {} if prec is None else prec

    def order_key(self, word: Word):
        wt = sum(self.weights[g] for g in word)
        return (wt, len(word), tuple(self.prec[g] for g in word))


def _weights_and_prec(gens: tuple, twol: int = 0) -> tuple[dict, dict]:
    a_weight = 4 * twol + 2
    weights, prec = {}, {}
    for g in gens:
        if is_a_gen(g):
            weights[g] = a_weight
            prec[g] = 500 + g[1]
        else:
            weights[g] = {"Z": 1, "Zi": 1, "K": 1, "Ki": 1}.get(g, 2)
            prec[g] = {"X": 1000, "Y": 990, "T": 400, "Z": 300, "Zi": 290,
                       "K": 200, "Ki": 190, "E": 100, "F": 90}[g]
    return weights, prec


def _check_rules(pres: Presentation):
    # normal_form finds a word's rule by looking up its adjacent pairs
    lhss = set()
    for rule in pres.rules:
        if len(rule.lhs) != 2:
            raise AssertionError(f"rule {rule.name}: lhs is not two letters")
        if rule.lhs in lhss:
            raise AssertionError(f"rule {rule.name}: lhs already has a rule")
        lhss.add(rule.lhs)
        lg = grade(rule.lhs, pres)
        for w, c in rule.rhs.items():
            if grade(w, pres) != lg:
                raise AssertionError(f"rule {rule.name} breaks the grading")
        lk = pres.order_key(rule.lhs)
        for w in rule.rhs:
            if not pres.order_key(w) < lk:
                raise AssertionError(
                    f"rule {rule.name}: rhs word {word_name(w)} not smaller")


def _expand_recipe(recipe, ctx) -> dict:
    """The recipe's operator product expanded into {word: coefficient}, in
    the arithmetic of ctx: items multiplied left to right, each zf factor
    contributing its 1 and then its Z term, the lead multiplied in last."""
    (c_sign, n, m), items = recipe
    terms = {(): 1.0}
    for item in items:
        if isinstance(item, tuple) and item[0] == "zf":
            c, out = item[1] * ctx.qpow(*item[2:]), {}
            for w, v in terms.items():
                out[w] = out.get(w, 0.0) + v
                out[w + ("Z",)] = out.get(w + ("Z",), 0.0) - v * c
            terms = out
        else:
            terms = {w + (item,): v for w, v in terms.items()}
    lead = c_sign * ctx.qpow(n, m)
    return {w: v * lead for w, v in terms.items()}


def make_presentation(name: str, p: QParams, x: float | None = None,
                      l=None) -> Presentation:
    """Build one of the four presentations with its oriented rule set."""
    q = p.q
    X, Y, Z, Zi, T = "X", "Y", "Z", "Zi", "T"
    twol = 0
    # uqmp, podles and bl share Z's commutation with X and Y and the grading
    # of X, Y and Z
    xz = [Rule((X, Z), {(Z, X): q**2}, "X*Z"),
          Rule((Y, Z), {(Z, Y): q**-2}, "Y*Z")]
    grading = {X: (-1, 0), Y: (1, 0), Z: (0, 0)}
    if name == "uqsu2":
        gens = ("E", "F", "K", "Ki")
        lam = p.lam
        rules = [
            Rule(("K", "Ki"), {(): 1.0}, "K*Ki"),
            Rule(("Ki", "K"), {(): 1.0}, "Ki*K"),
            Rule(("K", "E"), {("E", "K"): q**2}, "K*E"),
            Rule(("Ki", "E"), {("E", "Ki"): q**-2}, "Ki*E"),
            Rule(("K", "F"), {("F", "K"): q**-2}, "K*F"),
            Rule(("Ki", "F"), {("F", "Ki"): q**2}, "Ki*F"),
            Rule(("E", "F"), {("F", "E"): 1.0, ("K",): lam, ("Ki",): -lam},
                 "E*F"),
        ]
        grading = {"E": (1, 0), "F": (-1, 0), "K": (0, 0), "Ki": (0, 0)}
    elif name == "uqmp":
        if x is not None:
            raise ValueError("uqmp takes no x; the Casimir T stays symbolic")
        gens = (X, Y, Z, Zi, T)
        rules = [
            Rule((Z, Zi), {(): 1.0}, "Z*Zi"),
            Rule((Zi, Z), {(): 1.0}, "Zi*Z"),
            *xz,
            Rule((X, Zi), {(Zi, X): q**-2}, "X*Zi", defining=False),
            Rule((Y, Zi), {(Zi, Y): q**2}, "Y*Zi", defining=False),
            Rule((T, Z), {(Z, T): 1.0}, "T*Z", defining=False),
            Rule((T, Zi), {(Zi, T): 1.0}, "T*Zi", defining=False),
            Rule((X, T), {(T, X): 1.0}, "X*T", defining=False),
            Rule((Y, T), {(T, Y): 1.0}, "Y*T", defining=False),
            Rule((X, Y), {(): 1.0, (T, Z): q, (Z, Z): -(q**2)}, "X*Y"),
            Rule((Y, X), {(): 1.0, (T, Z): 1 / q, (Z, Z): -(q**-2)}, "Y*X"),
        ]
        grading.update({Zi: (0, 0), T: (0, 0)})
    elif name == "podles":
        if x is None or not math.isfinite(x):
            raise ValueError("podles needs a finite real x")
        t = tau(p, x)
        gens = (X, Y, Z)
        rules = [
            *xz,
            Rule((X, Y), {(): 1.0, (Z,): q * t, (Z, Z): -(q**2)}, "X*Y",
                 recipe=((1, 0, 0), (zf(1, 1, 1), zf(-1, 1, -1)))),
            Rule((Y, X), {(): 1.0, (Z,): t / q, (Z, Z): -(q**-2)}, "Y*X",
                 recipe=((1, 0, 0), (zf(1, -1, 1), zf(-1, -1, -1)))),
        ]
    elif name == "bl":
        if l is None or l < 0 or (2 * l) != int(2 * l):
            raise ValueError(f"bl needs l a nonnegative half-integer, got {l}")
        twol = int(2 * l)
        t = tau(p, twol)
        ctx = FloatCtx(q)
        a_list = [a_gen(s) for s in range(-twol, twol + 1)]
        gens = (X, Y, Z) + tuple(a_list)
        rules = xz

        def graded(lhs, name, lead, items):
            recipe = (lead, tuple(items))
            rules.append(Rule(lhs, _expand_recipe(recipe, ctx), name,
                              recipe=recipe))

        for s in range(-twol, twol + 1):
            graded((a_gen(s), Z), f"A({s})*Z", (-1, -2 * s, 0), (Z, a_gen(s)))
        rules += [
            Rule((X, Y), {(): 1.0, (Z,): q * t, (Z, Z): -(q**2)}, "X*Y",
                 recipe=((1, 0, 0), (zf(1, twol + 1, 0), zf(-1, -twol + 1, 0)))),
            Rule((Y, X), {(): 1.0, (Z,): t / q, (Z, Z): -(q**-2)}, "Y*X",
                 recipe=((1, 0, 0), (zf(1, twol - 1, 0), zf(-1, -twol - 1, 0)))),
        ]
        for s in range(-twol, twol + 1):
            A, Am, Ap = a_gen(s), a_gen(s - 1), a_gen(s + 1)
            graded((X, A), f"X*A({s})", (-1, 0, 0),
                   (Am, zf(-1, 2 * s + twol - 1, 0)) if s > -twol else (A, X))
            graded((Y, A), f"Y*A({s})", (-1, 0, 0),
                   (Ap, zf(1, 2 * s - twol + 1, 0)) if s < twol else (A, Y))
            # starred companions, moving A to the front of X/Y powers
            if s > -twol:
                graded((A, X), f"A({s})*X", (1, 0, 0),
                       (zf(1, -2 * s - twol + 1, 0), Am))
            if s < twol:
                graded((A, Y), f"A({s})*Y", (1, 0, 0),
                       (zf(-1, -2 * s + twol - 1, 0), Ap))
        for s in range(-twol, twol + 1):
            for sp in range(-twol, twol + 1):
                if s + sp <= 0:
                    head, m = X, -(s + sp)
                    exps1 = [2 * sp - twol + 1 + 2 * j for j in range(s + twol)]
                    exps2 = [-twol + 1 + 2 * j for j in range(sp + twol)]
                else:
                    head, m = Y, s + sp
                    exps1 = [2 * sp - twol + 1 + 2 * j for j in range(twol - sp)]
                    exps2 = [2 * s + 2 * sp - twol + 1 + 2 * j
                             for j in range(twol - s)]
                graded((a_gen(s), a_gen(sp)), f"A({s})*A({sp})",
                       (-1 if s % 2 else 1, 0, 0),
                       [head] * m + [zf(1, e, 0) for e in exps1]
                       + [zf(-1, e, 0) for e in exps2])
        for s in range(-twol, twol + 1):
            grading[a_gen(s)] = (s, 1)
    else:
        raise ValueError(f"unknown presentation {name!r}")
    weights, prec = _weights_and_prec(gens, twol)
    pres = Presentation(name, gens, tuple(rules), grading, p,
                        x=x if name == "podles" else None,
                        l=l if name == "bl" else None,
                        weights=weights, prec=prec)
    _check_rules(pres)
    return pres


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def normal_form(poly: NCPoly, pres: Presentation) -> NCPoly:
    """Reduce until no rule applies, raising RewriteCapError after
    ITERATION_CAP (read at call time) rewriting steps.

    Deterministic strategy: largest reducible word first; within a word,
    rules in priority order, leftmost occurrence.  Every lhs is two letters
    and has one rule (`_check_rules`), so a word's rewrite is the least
    (priority, position) among its adjacent pairs looked up by lhs.  A heap
    on the negated order key holds the reducible words, pushed as they enter
    the terms; an entry whose word has left the terms is skipped.  Matches
    and keys are memoised per word for the call.
    """
    rank = {rule.lhs: k for k, rule in enumerate(pres.rules)}
    memo, heap = {}, []

    def push(w):
        if w not in memo:
            hits = [(rank[w[i:i + 2]], i) for i in range(len(w) - 1)
                    if w[i:i + 2] in rank]
            memo[w] = None
            if hits:
                wt, n, prec = pres.order_key(w)
                memo[w] = ((-wt, -n, tuple(-p for p in prec)), w, *min(hits))
        if memo[w] is not None:
            heapq.heappush(heap, memo[w])

    terms = dict(poly.terms)
    for w in terms:
        push(w)
    steps = 0
    while heap:
        _, w, k, i = heapq.heappop(heap)
        if w not in terms:
            continue
        steps += 1
        if steps > ITERATION_CAP:
            raise RewriteCapError(
                f"iteration cap {ITERATION_CAP} exceeded in {pres.name} "
                f"(stuck near {word_name(w)})")
        c = terms.pop(w)
        pre, suf = w[:i], w[i + 2:]
        for rw, rc in pres.rules[k].rhs.items():
            nw = pre + rw + suf
            nc = terms.get(nw, 0.0) + c * rc
            if abs(nc) > PRUNE_DEFAULT:
                if nw not in terms:
                    push(nw)
                terms[nw] = nc
            elif nw in terms:
                del terms[nw]
    return NCPoly(terms)


def grade(word: Word, pres: Presentation) -> tuple[int, int]:
    d = par = 0
    for g in word:
        gd, gp = pres.grading[g]
        d += gd
        par ^= gp
    return (d, par)


# ---------------------------------------------------------------------------
# parser / formatter
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i) from None
            if j < n and text[j] == "i":
                toks.append(("num", complex(0.0, val), i))
                j += 1
            else:
                toks.append(("num", complex(val, 0.0), i))
            i = j
            continue
        if ch == "q":
            toks.append(("q", "q", i))
            i += 1
            continue
        if ch == "A":
            j = i + 1
            if j >= n or text[j] != "(":
                raise ParseError("expected '(' after A", i)
            j += 1
            k = j
            if k < n and text[k] in "+-":
                k += 1
            while k < n and text[k].isdigit():
                k += 1
            if k == j or k >= n or text[k] != ")":
                raise ParseError("expected A(<signed integer>)", i)
            toks.append(("gen", a_gen(int(text[j:k])), i))
            i = k + 1
            continue
        if ch.isalpha():
            two = text[i:i + 2]
            if two in ("Zi", "Ki"):
                toks.append(("gen", two, i))
                i += 2
                continue
            if ch in "XYZTKEF":
                toks.append(("gen", ch, i))
                i += 1
                continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, toks, pres: Presentation):
        self.toks = toks
        self.pos = 0
        self.pres = pres

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        elif self.peek()[0] == "+":
            self.take()
        kind, val, at = self.take("num")
        if val.imag != 0 or val.real != int(val.real):
            raise ParseError("exponent must be an integer", at)
        return sign * int(val.real)

    def expr(self) -> NCPoly:
        sign = 1.0
        if self.peek()[0] in ("+", "-"):
            sign = -1.0 if self.take()[0] == "-" else 1.0
        out = self.term().scale(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> NCPoly:
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> NCPoly:
        kind, val, at = self.peek()
        if kind == "num":
            self.take()
            return NCPoly({(): val})
        if kind == "q":
            self.take()
            e = 1
            if self.peek()[0] == "^":
                self.take()
                e = self.signed_int()
            return NCPoly({(): self.pres.params.q ** e})
        if kind == "gen":
            self.take()
            if val not in self.pres.generators:
                raise ParseError(
                    f"unknown generator {gen_name(val)} for {self.pres.name}", at)
            e = 1
            if self.peek()[0] == "^":
                self.take()
                e = self.signed_int()
                if e < 0:
                    raise ParseError("generator powers must be nonnegative", at)
            return NCPoly({(val,) * e: 1.0})
        if kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        raise ParseError(f"unexpected token {kind!r}", at)


def parse(text: str, pres: Presentation) -> NCPoly:
    """Parse an expression over the presentation's generators."""
    parser = _Parser(_tokenize(text), pres)
    out = parser.expr()
    parser.take("end")
    return out


def format_poly(poly: NCPoly, pres: Presentation | None = None) -> str:
    """Render a polynomial; format_poly . parse is the identity on values."""
    if poly.is_zero():
        return "0"
    key = pres.order_key if pres is not None else (lambda w: (len(w), str(w)))
    pieces = []
    for w in sorted(poly.terms, key=key, reverse=True):
        c = poly.terms[w]
        for val, suffix in ((c.real, ""), (c.imag, "i")):
            if val == 0.0:
                continue
            coeff = f"{abs(val)!r}{suffix}"
            body = coeff if not w else f"{coeff}*{word_name(w)}"
            pieces.append(("- " if val < 0 else "+ ") + body)
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# word sampling and basis enumeration
# ---------------------------------------------------------------------------

class LCG:
    """Deterministic 32-bit linear congruential generator.

    state <- (1664525 * state + 1013904223) mod 2^32.  Used for all seeded
    sampling so that reports are reproducible across platforms.
    """

    def __init__(self, seed: int = 0):
        self.state = seed & 0xFFFFFFFF

    def next(self) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFFFFFF
        return self.state

    def below(self, n: int) -> int:
        return self.next() % n


def random_words(pres: Presentation, count: int, maxlen: int,
                 seed: int = 0) -> list[Word]:
    rng = LCG(seed)
    gens = pres.generators
    out = []
    for _ in range(count):
        length = 1 + rng.below(maxlen)
        out.append(tuple(gens[rng.below(len(gens))] for _ in range(length)))
    return out


def basis_words(pres: Presentation, max_degree: int) -> list[Word]:
    """Normal-form basis monomials of total degree <= max_degree."""
    X, Y, Z = "X", "Y", "Z"
    words = set()
    if pres.name == "podles":
        for n in range(max_degree + 1):
            for m in range(max_degree - n + 1):
                words.add((Z,) * n + (X,) * m)
                words.add((Z,) * n + (Y,) * m)
    elif pres.name == "bl":
        twol = int(2 * pres.l)
        for n in range(max_degree + 1):
            for m in range(max_degree - n + 1):
                words.add((Z,) * n + (X,) * m)
                words.add((Z,) * n + (Y,) * m)
            if n < max_degree:
                for s in range(-twol, twol + 1):
                    words.add((Z,) * n + (a_gen(s),))
                for m in range(1, max_degree - n):
                    words.add((Z,) * n + (a_gen(-twol),) + (X,) * m)
                    words.add((Z,) * n + (a_gen(twol),) + (Y,) * m)
    else:
        raise ValueError(f"no basis enumeration for {pres.name}")
    return sorted(words, key=pres.order_key)


def is_basis_word(word: Word, pres: Presentation) -> bool:
    """Membership in the normal-form monomial basis (structural test)."""
    i = 0
    while i < len(word) and word[i] in ("Z", "Zi"):
        i += 1
    if any(g in ("Z", "Zi") for g in word[i:]):
        return False
    rest = word[i:]
    if pres.name == "uqmp":
        while rest and rest[0] == "T":
            rest = rest[1:]
    if not rest:
        return True
    if pres.name in ("podles", "uqmp"):
        return all(g == rest[0] for g in rest) and rest[0] in ("X", "Y")
    if pres.name == "bl":
        twol = int(2 * pres.l)
        if is_a_gen(rest[0]):
            s, tail = rest[0][1], rest[1:]
            if any(is_a_gen(g) for g in tail):
                return False
            if not tail:
                return True
            if all(g == "X" for g in tail):
                return s == -twol
            if all(g == "Y" for g in tail):
                return s == twol
            return False
        return all(g == rest[0] for g in rest) and rest[0] in ("X", "Y")
    raise ValueError(f"no basis test for {pres.name}")
