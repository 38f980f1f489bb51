"""The exact kernel's scalar context as it was before its values became raw,
kept for tests that compare the two bit for bit: mpf objects, computed by
mpmath's operators at the precision the caller holds (`with
mp.workdps(ctx.dps)`).  It has the scalar interface of `qcore.FloatCtx` and
`labels.MPCtx`, so the step functions, the step tables and the trie walk
run in it unchanged, and each of its values' `_mpf_` is the raw value that
`labels.MPCtx` gives."""

import functools
import operator

import mpmath as mp

from qsphere.labels import MP_DPS


class MPObjectCtx:
    """q-power arithmetic on mpf objects at `dps` digits (`prec` bits): its
    q-powers enter that precision themselves, every other operation
    computes at the ambient one.  Factors are computed once, roots every
    time (no `roots` memo)."""

    roots = None
    one, zero = mp.mpf(1), mp.mpf(0)
    mul = scale = staticmethod(operator.mul)
    add, sub = staticmethod(operator.add), staticmethod(operator.sub)
    neg, sqrt = staticmethod(operator.neg), staticmethod(mp.sqrt)
    inv = staticmethod(functools.partial(operator.truediv, 1))

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


def raw(v):
    """The raw mpf of a value of either context."""
    return getattr(v, "_mpf_", v)
