"""The exact kernel's scalar context as it was before its values became raw,
kept for tests that compare the two bit for bit: mpf objects, computed by
mpmath's operators at the precision the caller holds (`with
mp.workdps(ctx.dps)`).  It has the scalar interface of `qcore.FloatCtx` and
`mpscalar.MPCtx`, so the step functions, the step tables, the trie walk
and the exact checks' reductions run in it unchanged, and each of its
values' `_mpf_` is the raw value that `mpscalar.MPCtx` gives."""

import functools
import operator

import mpmath as mp

from qsphere.labels import MP_DPS
from qsphere.mpscalar import MPCtx
from qsphere.qcore import real_coefficient


class MPObjectCtx:
    """q-power arithmetic on mpf objects at `dps` digits (`prec` bits): its
    q-powers enter that precision themselves, every other operation
    computes at the ambient one.  Factors are computed once, roots every
    time (no `roots` memo)."""

    roots = None
    one, zero, nan = mp.mpf(1), mp.mpf(0), mp.mpf("nan")
    mul = scale = staticmethod(operator.mul)
    add, sub = staticmethod(operator.add), staticmethod(operator.sub)
    neg, sqrt = staticmethod(operator.neg), staticmethod(mp.sqrt)
    inv = staticmethod(functools.partial(operator.truediv, 1))
    is_finite = staticmethod(mp.isfinite)

    def __init__(self, q: float, x: float = 0.0, dps: int = MP_DPS):
        self.dps = dps
        with mp.workdps(dps):
            self.prec = mp.mp.prec
            self.q = mp.mpf(q)
            self.qx = mp.power(self.q, mp.mpf(x))
        self._cache: dict = {}
        self._factors: dict = {}

    def qpow(self, n, m=0):
        key = (n, m)
        v = self._cache.get(key)
        if v is None:
            with mp.workdps(self.dps):
                v = mp.power(self.q, n)
                if m:
                    v *= mp.power(self.qx, m)
            self._cache[key] = v
        return v

    def factor(self, sign, n, m=0):
        """1 - sign*q^(n+mx), computed once, at the context's precision."""
        v = self._factors.get((sign, n, m))
        if v is None:
            if mp.mp.prec != self.prec:
                raise ArithmeticError(
                    f"{self.prec}-bit context used at {mp.mp.prec} bits")
            v = self._factors[(sign, n, m)] = 1 - sign * self.qpow(n, m)
        return v

    @staticmethod
    def is_negative(v) -> bool:
        return v < 0

    @staticmethod
    def number(c):
        return mp.mpf(real_coefficient(c))

    @staticmethod
    def magnitude(v) -> float:
        return float(abs(v))

    @staticmethod
    def larger(a, b):
        """a or b, whichever is larger in magnitude (a on a tie), NaN above
        an infinity above every number, compared as mpf objects."""
        if mp.isnan(b) or not mp.isnan(a) and abs(b) > abs(a):
            return b
        return a


def raw(v):
    """The raw mpf of a value of either context."""
    return getattr(v, "_mpf_", v)


def fresh_mp_ctx(rep, dps: int) -> MPCtx:
    """An unshared mp context of rep's (q, x) at `dps` digits, in place of
    the representation's shared one (`mpscalar.mp_ctx`): its step tables
    compute every step again."""
    return MPCtx(rep.meta["q"], rep.meta.get("x", 0.0), dps)
