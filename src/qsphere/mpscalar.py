"""The mpmath scalar context of the exact walks, the one module that imports
mpmath: `MPCtx`, the scalar interface of `qcore.FloatCtx` on raw libmp
values, and `mp_ctx`, which gives each representation its shared context.

No module loads this one when it loads.  The command line imports it once
in `run`, before the first suite of a command that walks exactly, and the
exact checks (`labels.combos_residuals`, `invariance.invariance_defects`)
read it from there when they run, so the commands that walk only floats or
compute no operator never import mpmath.
"""

from __future__ import annotations

from mpmath.libmp import (
    dps_to_prec,
    fnan,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_add,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from .qcore import real_coefficient
from .labels import MP_DPS

_RND = round_nearest


class MPCtx:
    """q-power arithmetic on raw mpmath values (`_mpf_` tuples) at `dps`
    digits (`prec` bits), rounded to nearest.  Each operation is the libmp
    call that mpmath's operator on mpf objects makes, at `prec`, so every
    value is bit-identical to mpf arithmetic at that precision, whatever
    the ambient one.  Factors and roots are computed once (`factor`,
    `roots`), label steps once per representation by the exact walk kernel
    (`labels.step_tables`); shared instances come from `mp_ctx`."""

    one, zero, nan = fone, fzero, fnan

    def __init__(self, q: float, x: float = 0.0, dps: int = MP_DPS):
        self.dps = dps
        self.prec = prec = dps_to_prec(dps)
        # mp.mpf(q) and mp.power(mp.mpf(q), mp.mpf(x)) at that precision
        self.q = from_float(q, prec, _RND)
        self.qx = mpf_pow(self.q, from_float(x, prec, _RND), prec, _RND)
        self._cache: dict = {}
        self._factors: dict = {}
        self.roots: dict = {}    # factor tuple -> root (qcore._sqrt_coeff)

    def qpow(self, n, m=0):
        key = (n, m)
        v = self._cache.get(key)
        if v is None:
            v = mpf_pow_int(self.q, n, self.prec, _RND)
            if m:
                v = self.mul(v, mpf_pow_int(self.qx, m, self.prec, _RND))
            self._cache[key] = v
        return v

    def factor(self, sign, n, m=0):
        """1 - sign*q^(n+mx), computed once."""
        v = self._factors.get((sign, n, m))
        if v is None:
            v = self._factors[(sign, n, m)] = self.sub(
                fone, self.scale(sign, self.qpow(n, m)))
        return v

    def mul(self, a, b):
        return mpf_mul(a, b, self.prec, _RND)

    def add(self, a, b):
        return mpf_add(a, b, self.prec, _RND)

    def sub(self, a, b):
        return mpf_sub(a, b, self.prec, _RND)

    def neg(self, v):
        return mpf_neg(v, self.prec, _RND)

    def scale(self, n: int, v):
        return mpf_mul_int(v, n, self.prec, _RND)

    def inv(self, v):
        return mpf_rdiv_int(1, v, self.prec, _RND)

    def sqrt(self, v):
        return mpf_sqrt(v, self.prec, _RND)

    @staticmethod
    def is_negative(v) -> bool:
        return v[0] == 1   # the sign bit; NaN has none

    @staticmethod
    def number(c):
        """A coefficient as a raw mpf: a raw value as it is, a real Python
        one exactly as mpmath converts it (`qcore.real_coefficient`)."""
        if type(c) is tuple:
            return c
        c = real_coefficient(c)
        return from_int(c) if isinstance(c, int) else from_float(float(c))

    @staticmethod
    def magnitude(v) -> float:
        """|v| as a float, rounded to nearest as float(abs(v)) rounds an
        mpf."""
        return abs(to_float(v, rnd=_RND))

    @staticmethod
    def larger(a, b):
        """Whichever of a and b is larger in magnitude (a on a tie), NaN
        above an infinity above every number, so that its `magnitude` reads
        max_or_nan of both magnitudes: rounding is monotone."""
        if not b[1]:                        # b is 0, an infinity or NaN
            return b if b == fnan or b != fzero and a != fnan else a
        if not a[1]:
            return b if a == fzero else a
        # exponent + bit count, then the mantissas shifted to one exponent
        if a[2] + a[3] != b[2] + b[3]:
            return a if a[2] + a[3] > b[2] + b[3] else b
        return b if b[1] << a[3] > a[1] << b[3] else a

    @staticmethod
    def is_finite(v) -> bool:
        """Whether v is a number: nonzero mantissa, or exactly 0."""
        return bool(v[1]) or v == fzero


def mp_ctx(rep, dps: int) -> MPCtx:
    """The mp context of the exact walks on `rep` at `dps` digits: made once
    per (q, x, dps) and held in the walk memo of rep, beside the step tables
    it keys, so every walk on the representation shares one context, and
    the context is freed with the representation."""
    memo = rep._walk_memos
    key = (float(rep.meta["q"]), float(rep.meta.get("x", 0.0)), int(dps))
    ctx = memo.get(key)
    if ctx is None:
        ctx = memo[key] = MPCtx(*key)
    return ctx
