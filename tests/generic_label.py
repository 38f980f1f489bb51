"""A generic label and a symbolic scalar context, kept for the test that the
exact walker stays context-generic: the real step functions, `_sqrt_coeff`,
the step tables and `trie_walks` run on them unchanged.

`Affine` is a label c*K + a in one generic integer K, taken as large: it
supports integer arithmetic, is hashable (as its constant when c is 0), and
reads `k + s < 0` as False and `2K == 0` as False.  `MonomialCtx` computes
on monomials: a value is a sign, a q-exponent pair (n, m) standing for
q^(n + m*x), with n affine in K, and the half-powers of the factors
1 - s*q^(n' + m'*x) it carries.  It multiplies, negates, inverts and takes
the square roots of products of factors, which is all a walk on a label
representation asks of a context without the T step and the recipe
segments; `value` evaluates a monomial at a concrete K.
"""

import math


class Affine:
    """c*K + a for a generic integer K."""

    __slots__ = ("c", "a")

    def __init__(self, c: int, a: int):
        self.c, self.a = c, a

    @staticmethod
    def of(v) -> "Affine":
        return v if isinstance(v, Affine) else Affine(0, v)

    def __add__(self, other):
        other = Affine.of(other)
        return Affine(self.c + other.c, self.a + other.a)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.c, -self.a)

    def __sub__(self, other):
        return self + -Affine.of(other)

    def __mul__(self, n: int):
        if isinstance(n, Affine):
            raise TypeError("a generic label times a label is not affine")
        return Affine(self.c * n, self.a * n)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = Affine.of(other)
        return (self.c, self.a) == (other.c, other.a)

    def __hash__(self):
        return hash(self.a) if self.c == 0 else hash((self.c, self.a))

    def __lt__(self, other):
        diff = self - other   # K dominates: its sign decides
        return diff.c < 0 if diff.c else diff.a < 0

    def at(self, K: int) -> int:
        return self.c * K + self.a

    def __repr__(self):
        return f"{self.c}K{self.a:+d}"


def at(v, K: int):
    """A label, exponent or factor with every generic part read at K."""
    if isinstance(v, Affine):
        return v.at(K)
    if isinstance(v, tuple):
        return tuple(at(e, K) for e in v)
    return v


class Mono:
    """sign * q^(n + m*x) * prod over `halves` of factor^(e/2), factor
    (s, n', m') meaning 1 - s*q^(n' + m'*x)."""

    __slots__ = ("sign", "n", "m", "halves")

    def __init__(self, sign, n, m, halves=()):
        self.sign, self.n, self.m = sign, Affine.of(n), m
        self.halves = {f: e for f, e in dict(halves).items() if e}

    def value(self, K: int, q: float, x: float) -> float:
        v = self.sign * q ** (self.n.at(K) + self.m * x)
        for (s, n, m), e in self.halves.items():
            v *= (1 - s * q ** (at(n, K) + m * x)) ** (e / 2)
        return v


class MonomialCtx:
    """The scalar interface on monomials (`Mono`); no square root of
    anything but a product of factors."""

    roots = None

    def __init__(self):
        self.one = Mono(1, 0, 0)

    @staticmethod
    def qpow(n, m=0):
        return Mono(1, n, m)

    @staticmethod
    def factor(sign, n, m=0):
        return Mono(1, 0, 0, {(sign, n, m): 2})

    @staticmethod
    def mul(a, b):
        halves = dict(a.halves)
        for f, e in b.halves.items():
            halves[f] = halves.get(f, 0) + e
        return Mono(a.sign * b.sign, a.n + b.n, a.m + b.m, halves)

    @staticmethod
    def neg(v):
        return Mono(-v.sign, v.n, v.m, v.halves)

    @staticmethod
    def scale(s: int, v):
        if abs(s) != 1:
            raise ArithmeticError(f"a monomial scaled by {s}")
        return Mono(s * v.sign, v.n, v.m, v.halves)

    @staticmethod
    def inv(v):
        return Mono(v.sign, -v.n, -v.m,
                    {f: -e for f, e in v.halves.items()})

    @staticmethod
    def sqrt(v):
        if v.sign != 1 or v.n != 0 or v.m != 0 or any(
                e % 2 for e in v.halves.values()):
            raise ArithmeticError("square root of a non-square monomial")
        return Mono(1, 0, 0, {f: e // 2 for f, e in v.halves.items()})

    @staticmethod
    def is_negative(v) -> bool:
        # a product of factors, each positive for the generic label
        return v.sign < 0


def same_value(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
