"""Scalar layer: q-dependent constants and special functions.

Everything downstream works at a fixed deformation parameter 0 < q < 1.
The derived constant lam = (q - 1/q)^-1 is negative on that range.  The
coefficient formulas, the step tables and the trie walkers compute in a
scalar context, through one interface: `one`, `zero`, `mul`, `add`, `sub`,
`neg`, `scale` (int times value), `inv`, `sqrt`, `is_negative`, `qpow` and
`factor`.  `FloatCtx` here does so in double precision; `mpscalar.MPCtx` in
raw mpmath values at its own precision, the exact walk kernel's arithmetic.
The exact checks' reductions compute through that interface too, and
through five more operations, which `MPCtx` gives and `FloatCtx` does not:
`nan`, `number` (a real Python coefficient as a value, `real_coefficient`),
`magnitude` (|value| as a float), `larger` (the larger of two values in
magnitude, NaN above an infinity above every number) and `is_finite`.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings

Q_SAFE_RANGE = (0.05, 0.95)


class QParams:
    """Deformation parameter q with its derived constant lam; immutable,
    equal and hashed by q."""

    __slots__ = ("q", "lam")

    def __init__(self, q: float):
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
        if not (Q_SAFE_RANGE[0] <= q <= Q_SAFE_RANGE[1]):
            warnings.warn(
                f"q={q} outside [{Q_SAFE_RANGE[0]}, {Q_SAFE_RANGE[1]}]: "
                "powers q^-x become badly conditioned",
                stacklevel=2,
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", 1.0 / (q - 1.0 / q))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):   # pickle and copy rebuild it from q
        return QParams, (self.q,)

    def __eq__(self, other):
        return self.q == other.q if type(other) is QParams else NotImplemented

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"QParams(q={self.q!r}, lam={self.lam!r})"


class FloatCtx:
    """q-power arithmetic in double precision; exponents are pairs (n, m)
    standing for n + m*x."""

    def __init__(self, q: float, x: float = 0.0):
        self.q = q
        self.x = x
        self._cache: dict = {}

    def qpow(self, n, m=0):
        key = (n, m)
        v = self._cache.get(key)
        if v is None:
            v = self.q ** (n + m * self.x)
            self._cache[key] = v
        return v

    def factor(self, sign, n, m=0):  # no memo: float steps are taken once
        return 1 - sign * self.qpow(n, m)

    one, zero, roots = 1.0, 0.0, None   # no root memo either
    mul = scale = staticmethod(operator.mul)
    add, sub = staticmethod(operator.add), staticmethod(operator.sub)
    neg, sqrt = staticmethod(operator.neg), staticmethod(math.sqrt)
    inv = staticmethod(functools.partial(operator.truediv, 1))
    is_negative = staticmethod(functools.partial(operator.gt, 0))  # 0 > v


def real_coefficient(c):
    """A coefficient of an exact walk as a real number: a complex one with
    zero imaginary part as its real part, any other complex one refused,
    since the exact walks are real."""
    if isinstance(c, complex):
        if c.imag != 0.0:
            raise ValueError(f"exact walks are real, got coefficient {c!r}")
        return c.real
    return c


def _sqrt_coeff(ctx, factors):
    """sqrt of a product of (sign, n, m) factors meaning (1 - sign*q^(n+mx)),
    in the arithmetic of ctx, memoised by factor tuple in `ctx.roots` unless
    that is None.

    Each factor comes from `ctx.factor`.  Exact zeros are decided by exponent
    arithmetic; a negative factor means an index-logic bug and raises.
    """
    roots = ctx.roots
    if roots is not None:
        key = tuple(factors)
        root = roots.get(key)
        if root is not None:
            return root
    prod, factor, mul = ctx.one, ctx.factor, ctx.mul
    for sign, n, m in factors:
        if sign == 1 and n == 0 and m == 0:
            return None
        prod = mul(prod, factor(sign, n, m))
    if ctx.is_negative(prod):
        raise ArithmeticError("negative value under square root")
    root = ctx.sqrt(prod)
    if roots is not None:
        roots[key] = root
    return root


def tau_of(ctx):
    """q^-x - q^x in the arithmetic of ctx (x the context's)."""
    return ctx.sub(ctx.qpow(0, -1), ctx.qpow(0, 1))


def tau(p: QParams, x: float) -> float:
    """q^-x - q^x.  Total on [-inf, +inf]; strictly increasing, odd in x."""
    return tau_of(FloatCtx(p.q, x))


def q_pochhammer(a: complex, base: float, r) -> complex:
    """prod_{k=0}^{r-1} (1 - base^k a); the empty product (r=0) is 1.

    The base is explicit because downstream formulas mix base q and base q^2.
    """
    if r < 0 or r % 1:   # inf % 1 is nan, so r = inf is refused too
        raise ValueError(f"r must be a nonnegative integer, got {r}")
    out = 1.0
    term = complex(a)
    for _ in range(int(r)):
        out *= 1.0 - term
        term *= base
    return out

