"""Finite truncations of the banded representations, padded evaluation of
noncommutative polynomials, and relation-residual certification.

Every generator of the podles / bl representations acts as a weighted shift:
it maps a basis label to (at most) one other label.  Representations are
therefore stored as label-step functions.  At an internal truncation M each
generator becomes a pair of arrays (target index, coefficient) per column;
words on label representations are walked on these arrays column by column,
and dense matrices are views scattered from them.  Padded evaluation walks
at an enlarged size and crops, so retained entries are exact values of the
infinite-dimensional operators.  Label-rep residuals (`residual`) are
accumulated on the walked support only, never on a dense window.  Tensor and
explicit-matrix representations, with more than one nonzero entry per
column, still multiply dense matrices and take dense window differences.

Relation residuals are evaluated by walking words column-by-column in mpmath
arithmetic: the product-form relations of the graded algebras reach entry
magnitudes ~1e6 at small q, where double precision cannot certify 1e-11
absolute residuals.  Exact walks share one mp context per (q, x, precision)
(`mp_ctx`), and each representation memoises the label steps it has taken
in each context, so a step coefficient is computed once however many words,
columns and checks walk through it.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

from .qcore import QParams
from .ncalg import NCPoly, Presentation, Word, is_a_gen
from .report import max_or_nan

MP_DPS = 40


# ---------------------------------------------------------------------------
# scalar contexts: double precision and mpmath, sharing exponent-pair powers
# ---------------------------------------------------------------------------

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

    sqrt = staticmethod(math.sqrt)
    one = 1.0
    memo_steps = False

    @staticmethod
    def to_float(v):
        return float(v)


class MPCtx:
    """q-power arithmetic in mpmath at `dps` digits.  Label steps taken in
    it are memoised (see LabelRep.step); shared instances come from
    `mp_ctx`."""

    memo_steps = True

    def __init__(self, q: float, x: float = 0.0, dps: int = MP_DPS):
        self.dps = dps
        with mp.workdps(dps):
            self.q = mp.mpf(q)
            self.qx = mp.power(self.q, mp.mpf(x))
        self._cache: dict = {}

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

    @staticmethod
    def sqrt(v):
        return mp.sqrt(v)

    one = mp.mpf(1)

    @staticmethod
    def to_float(v):
        return float(v)


@functools.lru_cache(maxsize=64)
def _shared_mp_ctx(q: float, x: float, dps: int) -> MPCtx:
    return MPCtx(q, x, dps)


def mp_ctx(q, x=0.0, dps: int = MP_DPS) -> MPCtx:
    """The mp context shared by every exact walk at (q, x, dps)."""
    return _shared_mp_ctx(float(q), float(x), int(dps))


# ---------------------------------------------------------------------------
# label-backed representations
# ---------------------------------------------------------------------------

def _allow(g) -> int:
    return max(1, abs(g[1])) if is_a_gen(g) else 1


def poly_allowance(poly) -> int:
    words = poly.terms if isinstance(poly, NCPoly) else {tuple(poly): 1.0}
    return max((sum(_allow(g) for g in w) for w in words), default=1) or 1


class LabelRep:
    """A representation whose generators are weighted shifts on labeled bases.

    families: tuple of (name, kmin); family `f` truncated at internal size M
    carries labels k = kmin .. kmin+M-1.  The window (size N) is the leading
    N labels of each family.
    """

    def __init__(self, families, steps, zexps, gens, N: int, pad: int, meta: dict):
        self.families = tuple(families)
        self._steps = steps      # dict gen -> fn(fam, k, ctx) -> None | (fam, k, coeff)
        self._zexps = zexps      # dict fam -> fn(k) -> (sign, n, m)
        self.gens = tuple(gens)
        self.N = N
        self.pad = pad
        self.meta = dict(meta)
        self._shift_cache: dict = {}
        self._mat_cache: dict = {}
        self._step_memos: dict = {}  # mp context -> {(g, fam, k): step}

    # -- label bookkeeping
    def kmin(self, fam):
        return dict(self.families)[fam]

    def dim(self, M: int) -> int:
        return M * len(self.families)

    def index(self, fam, k, M: int) -> int:
        for pos, (f, kmin) in enumerate(self.families):
            if f == fam:
                j = k - kmin
                if 0 <= j < M:
                    return pos * M + j
                raise IndexError(f"label ({fam},{k}) outside internal size {M}")
        raise KeyError(fam)

    def labels(self, M: int):
        for f, kmin in self.families:
            for k in range(kmin, kmin + M):
                yield (f, k)

    def window_indices(self, M: int, W: int) -> np.ndarray:
        out = []
        for pos in range(len(self.families)):
            out.extend(range(pos * M, pos * M + W))
        return np.array(out, dtype=int)

    def step(self, g, fam, k, ctx):
        """Move of generator g from label (fam, k): None or (fam2, k2, coeff).

        In an mp context the move is computed once, at the context's
        precision, and then read from this rep's memo for that context."""
        if not ctx.memo_steps:
            return self._steps[g](fam, k, ctx)
        memo = self._step_memos.get(ctx)
        if memo is None:
            memo = self._step_memos[ctx] = {}
        key = (g, fam, k)
        try:
            return memo[key]
        except KeyError:
            pass
        with mp.workdps(ctx.dps):
            hit = memo[key] = self._steps[g](fam, k, ctx)
        return hit

    def zexp(self, fam, k):
        return self._zexps[fam](k)

    # -- weighted-shift form and the views built from it
    def shift(self, g, M: int):
        """Generator g at internal size M as a weighted shift: column j goes
        to row tgt[j] with coefficient coef[j]; tgt[j] is -1 where the step
        returns None or leaves the internal size."""
        key = (g, M)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        ctx = FloatCtx(self.meta["q"], self.meta.get("x", 0.0))
        tgt = np.full(self.dim(M), -1, dtype=np.intp)
        coef = np.zeros(self.dim(M), dtype=np.complex128)
        for j, (fam, k) in enumerate(self.labels(M)):
            hit = self.step(g, fam, k, ctx)
            if hit is None:
                continue
            f2, k2, c = hit
            if 0 <= k2 - self.kmin(f2) < M:
                tgt[j] = self.index(f2, k2, M)
                coef[j] = c
        self._shift_cache[key] = (tgt, coef)
        return tgt, coef

    def walk(self, word: Word, M: int, cols: np.ndarray):
        """Columns `cols` of the word's product at internal size M, letters
        applied right to left: (positions into cols, rows, values) of the
        columns that survive; the others are zero."""
        pos = np.arange(len(cols))
        rows = np.asarray(cols, dtype=np.intp)
        val = np.ones(len(cols), dtype=np.complex128)
        for g in reversed(word):
            tgt, coef = self.shift(g, M)
            val = coef[rows] * val
            rows = tgt[rows]
            live = rows >= 0
            if not live.all():
                pos, rows, val = pos[live], rows[live], val[live]
        return pos, rows, val

    def matrix(self, g, M: int) -> np.ndarray:
        key = (g, M)
        cached = self._mat_cache.get(key)
        if cached is not None:
            return cached
        tgt, coef = self.shift(g, M)
        cols = np.flatnonzero(tgt >= 0)
        A = np.zeros((self.dim(M), self.dim(M)), dtype=np.complex128)
        A[tgt[cols], cols] = coef[cols]
        self._mat_cache[key] = A
        return A


def _sqrt_coeff(ctx, factors):
    """sqrt of a product of (sign, n, m) factors meaning (1 - sign*q^(n+mx)).

    Exact zeros are decided by exponent arithmetic; a negative factor means an
    index-logic bug and raises.
    """
    prod = ctx.one
    for sign, n, m in factors:
        if sign == 1 and n == 0 and m == 0:
            return None
        f = 1 - sign * ctx.qpow(n, m)
        prod = prod * f
    if prod < 0:
        raise ArithmeticError("negative value under square root")
    return ctx.sqrt(prod)


def _podles_family_steps(x_sign_flip: bool, rep_sign: int):
    """Steps for one summand of a podles representation.

    For the plus series Z e_k = q^(2k-x+1) and X uses (1+q^(2k-2x)); the
    minus series carries an overall sign and x -> -x in the exponents, and
    x_sign_flip alone gives the plus series at parameter -x.
    """
    s = rep_sign
    mm = 1 if x_sign_flip else -1   # m-component of the Z exponent pair
    # T acts as the scalar tau of the sphere parameter: tau(x) on both the
    # plus and minus series at x, tau(-x) on the parameter-flipped series.
    mt = 1 if (x_sign_flip and rep_sign == 1) else -1

    def Z(fam, k, ctx):
        return (fam, k, s * ctx.qpow(2 * k + 1, mm))

    def Zi(fam, k, ctx):
        return (fam, k, s * (1 / ctx.qpow(2 * k + 1, mm)))

    def X(fam, k, ctx):
        if k == 0:
            return None
        c = _sqrt_coeff(ctx, [(1, 2 * k, 0), (-1, 2 * k, 2 * mm)])
        return None if c is None else (fam, k - 1, s * c)

    def Y(fam, k, ctx):
        c = _sqrt_coeff(ctx, [(1, 2 * k + 2, 0), (-1, 2 * k + 2, 2 * mm)])
        return None if c is None else (fam, k + 1, s * c)

    def T(fam, k, ctx):
        return (fam, k, ctx.qpow(0, mt) - ctx.qpow(0, -mt))

    def zexp(k):
        return (s, 2 * k + 1, mm)

    return {"X": X, "Y": Y, "Z": Z, "Zi": Zi, "T": T}, zexp


def rep_podles(p: QParams, x: float, variant: str, N: int,
               pad: int = 2) -> LabelRep:
    """Truncation of the irreducible series representations.

    variant: plus | minus | direct_sum (minus + plus summands) |
    a_variant (plus at -x + plus at x; equal to sign-operator times direct_sum).
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    plus_steps, plus_z = _podles_family_steps(False, +1)
    minus_steps, minus_z = _podles_family_steps(True, -1)
    aflip_steps, aflip_z = _podles_family_steps(True, +1)
    meta = {"q": p.q, "x": x, "variant": variant, "kind": "podles"}
    if variant in ("plus", "minus"):
        fam_steps = {"s": plus_steps if variant == "plus" else minus_steps}
        fam_z = {"s": plus_z if variant == "plus" else minus_z}
        families = (("s", 0),)
    elif variant == "direct_sum":
        fam_steps = {"-": minus_steps, "+": plus_steps}
        fam_z = {"-": minus_z, "+": plus_z}
        families = (("-", 0), ("+", 0))
    elif variant == "a_variant":
        fam_steps = {"-": aflip_steps, "+": plus_steps}
        fam_z = {"-": aflip_z, "+": plus_z}
        families = (("-", 0), ("+", 0))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    def make_step(g):
        def step(fam, k, ctx):
            return fam_steps[fam][g](fam, k, ctx)
        return step

    steps = {g: make_step(g) for g in ("X", "Y", "Z", "Zi", "T")}
    return LabelRep(families, steps, fam_z, ("X", "Y", "Z", "Zi", "T"),
                    N, pad, meta)


def rep_bl(p: QParams, l, N: int, pad: int = 2) -> LabelRep:
    """Truncation of the banded representation of the bl(l) algebra."""
    if l is None or l < 0 or (2 * l) != int(2 * l):
        raise ValueError(f"l must be a nonnegative half-integer, got {l}")
    twol = int(2 * l)
    if N < 4 * l + 4:
        raise ValueError(f"N must be at least 4l+4 = {4 * l + 4}")
    meta = {"q": p.q, "x": float(twol), "l": l, "kind": "bl"}

    def Z(fam, k, ctx):
        sgn = 1 if fam == "+" else -1
        return (fam, k, sgn * ctx.qpow(2 * k + twol + 1))

    def Zi(fam, k, ctx):
        sgn = 1 if fam == "+" else -1
        return (fam, k, sgn * (1 / ctx.qpow(2 * k + twol + 1)))

    def X(fam, k, ctx):
        if fam == "+":
            c = _sqrt_coeff(ctx, [(-1, 2 * k, 0), (1, 2 * k + 2 * twol, 0)])
            return None if c is None else ("+", k - 1, c)
        if k == 0:
            return None
        c = _sqrt_coeff(ctx, [(1, 2 * k, 0), (-1, 2 * k + 2 * twol, 0)])
        return None if c is None else ("-", k - 1, -c)

    def Y(fam, k, ctx):
        if fam == "+":
            c = _sqrt_coeff(ctx, [(-1, 2 * k + 2, 0),
                                  (1, 2 * k + 2 + 2 * twol, 0)])
            return None if c is None else ("+", k + 1, c)
        c = _sqrt_coeff(ctx, [(1, 2 * k + 2, 0),
                              (-1, 2 * k + 2 + 2 * twol, 0)])
        return None if c is None else ("-", k + 1, -c)

    def make_A(s):
        def A(fam, k, ctx):
            if fam == "+":
                if k + s < 0:
                    return None
                c = _sqrt_coeff(
                    ctx,
                    [(1, 2 * k + 2 * s + 2 + 2 * j, 0) for j in range(twol - s)]
                    + [(-1, 2 * k + 2 + 2 * j, 0) for j in range(twol + s)])
                return None if c is None else ("-", k + s, c)
            c = _sqrt_coeff(
                ctx,
                [(-1, 2 * k + 2 * s + 2 + 2 * j, 0) for j in range(twol - s)]
                + [(1, 2 * k + 2 + 2 * j, 0) for j in range(twol + s)])
            sign = -1 if s % 2 else 1
            return None if c is None else ("+", k + s, sign * c)
        return A

    steps = {"X": X, "Y": Y, "Z": Z, "Zi": Zi}
    gens = ["X", "Y", "Z", "Zi"]
    for s in range(-twol, twol + 1):
        steps[("A", s)] = make_A(s)
        gens.append(("A", s))
    zexps = {"-": lambda k: (-1, 2 * k + twol + 1, 0),
             "+": lambda k: (1, 2 * k + twol + 1, 0)}
    return LabelRep((("-", 0), ("+", -twol)), steps, zexps, gens, N, pad, meta)


def sign_operator(rep, M: int) -> np.ndarray:
    """diag(-1 on the first summand, +1 on the second) of a double space."""
    if len(rep.families) != 2:
        raise ValueError("sign operator needs a two-summand space")
    e = np.ones(rep.dim(M))
    e[:M] = -1.0
    return np.diag(e).astype(np.complex128)


# ---------------------------------------------------------------------------
# spin 1/2 and the coaction-tensored representation
# ---------------------------------------------------------------------------

def spin_half(p: QParams) -> dict:
    """K, Ki, E, F on C^2 with basis (e_+, e_-)."""
    q = p.q
    K = np.diag([1 / q, q]).astype(np.complex128)
    Ki = np.diag([q, 1 / q]).astype(np.complex128)
    E = np.array([[0, 0], [math.sqrt(q), 0]], dtype=np.complex128)
    F = np.array([[0, 1 / math.sqrt(q)], [0, 0]], dtype=np.complex128)
    return {"K": K, "Ki": Ki, "E": E, "F": F}


class TensorRep:
    """space (x) C^2 carrying the coaction-twisted generator images."""

    def __init__(self, base, absorb_sign: bool = False):
        self.base = base
        self.absorb_sign = absorb_sign
        self.N = base.N
        self.pad = base.pad
        self.meta = dict(base.meta)
        self.meta["tensor"] = True
        self.gens = tuple(g for g in ("X", "Y", "Z", "Zi", "T")
                          if g in base.gens)
        p = QParams(self.meta["q"], tol=1e-11)
        self._spin = spin_half(p)
        self._mat_cache: dict = {}

    def dim(self, M: int) -> int:
        return 2 * self.base.dim(M)

    def window_indices(self, M: int, W: int) -> np.ndarray:
        inner = self.base.window_indices(M, W)
        return np.stack([2 * inner, 2 * inner + 1], axis=1).reshape(-1)

    def _base_matrix(self, g, M):
        B = self.base.matrix(g, M)
        if self.absorb_sign:
            e = np.asarray(np.diag(sign_operator(self.base, M))).real
            B = e[:, None] * B
        return B

    def matrix(self, g, M: int) -> np.ndarray:
        key = (g, M)
        cached = self._mat_cache.get(key)
        if cached is not None:
            return cached
        q = self.meta["q"]
        lam_inv = q - 1 / q
        sp = self._spin
        I2 = np.eye(2, dtype=np.complex128)
        Xb = lambda: self._base_matrix("X", M)
        Yb = lambda: self._base_matrix("Y", M)
        Zb = lambda: self._base_matrix("Z", M)
        Zib = lambda: self._base_matrix("Zi", M)
        if g == "Z":
            A = np.kron(Zb(), sp["Ki"])
        elif g == "Zi":
            A = np.kron(Zib(), sp["K"])
        elif g == "X":
            A = np.kron(Xb(), I2) + np.kron(
                Zb(), (lam_inv / math.sqrt(q)) * sp["E"])
        elif g == "Y":
            A = np.kron(Yb(), I2) + np.kron(
                Zb(), (lam_inv / math.sqrt(q)) * (sp["Ki"] @ sp["F"]))
        elif g == "T":
            if "T" not in self.base.gens:
                raise KeyError("base representation carries no T image")
            mid = (lam_inv**2) * (sp["F"] @ sp["E"]) - (sp["K"] - sp["Ki"]) / q
            A = (np.kron(self._base_matrix("T", M), sp["K"])
                 + np.kron(Zb(), mid)
                 + np.kron(Xb(), (lam_inv * math.sqrt(q)) * sp["F"])
                 + np.kron(Yb(), (lam_inv * math.sqrt(q)) * (sp["E"] @ sp["K"])))
        else:
            raise KeyError(f"tensor representation has no generator {g}")
        self._mat_cache[key] = A
        return A


def tensor_coaction(rep, absorb_sign: bool = False) -> TensorRep:
    return TensorRep(rep, absorb_sign=absorb_sign)


class MatrixRep:
    """Representation given by explicit matrices on a single labeled family.

    Used for compressed representations; evaluation crops within the stored
    size, so the usable window is the stored size minus the padding reserve.
    """

    def __init__(self, gens: dict, N: int, pad: int, meta: dict):
        sizes = {A.shape[0] for A in gens.values()}
        if len(sizes) != 1:
            raise ValueError("generator matrices must share a dimension")
        self.size = sizes.pop()
        self._gens = {g: np.asarray(A, dtype=np.complex128)
                      for g, A in gens.items()}
        self.gens = tuple(self._gens)
        self.N = N
        self.pad = pad
        self.meta = dict(meta)
        self.families = (("s", 0),)

    def dim(self, M: int) -> int:
        return M

    def matrix(self, g, M: int) -> np.ndarray:
        if M > self.size:
            raise ValueError(
                f"requested internal size {M} exceeds stored size {self.size}")
        return self._gens[g][:M, :M]

    def window_indices(self, M: int, W: int) -> np.ndarray:
        return np.arange(W)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _window_terms(poly: NCPoly, rep: LabelRep, W: int):
    """Each word of `poly` walked down the window columns of a label rep at
    its padded internal size: per term, the (window row, window column,
    coefficient * value) of the entries it reaches inside the window.
    Within one term each column, hence each entry, appears at most once."""
    M = W + rep.pad * poly_allowance(poly)
    idx = rep.window_indices(M, W)
    where = np.full(rep.dim(M), -1, dtype=np.intp)
    where[idx] = np.arange(len(idx))
    for w, c in poly.terms.items():
        cols, rows, val = rep.walk(w, M, idx)
        rows = where[rows]
        kept = rows >= 0
        yield rows[kept], cols[kept], c * val[kept]


def _as_poly(poly) -> NCPoly:
    return poly if isinstance(poly, NCPoly) else NCPoly({tuple(poly): 1.0})


def evaluate(poly, rep, window: int = None) -> np.ndarray:
    """Coefficient-weighted sum of word-wise products, computed at the padded
    internal size and cropped to the window.

    On a label representation each word is walked down the window columns
    only; columns evolve independently, so the crop equals the padded dense
    product's.  Other representations multiply dense matrices."""
    poly = _as_poly(poly)
    W = rep.N if window is None else window
    if isinstance(rep, LabelRep):
        acc = np.zeros((rep.dim(W), rep.dim(W)), dtype=np.complex128)
        for rows, cols, val in _window_terms(poly, rep, W):
            acc[rows, cols] += val
        return acc
    M = W + rep.pad * poly_allowance(poly)
    if isinstance(rep, MatrixRep):
        M = min(M, rep.size)
        if M < W:
            raise ValueError("window exceeds stored matrix size")
    dim = rep.dim(M)
    idx = rep.window_indices(M, W)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w, c in poly.terms.items():
        term = np.eye(dim, dtype=np.complex128)
        for g in reversed(w):
            term = rep.matrix(g, M) @ term
        acc += c * term
    return acc[np.ix_(idx, idx)]


def max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def residual(poly_a, poly_b, rep, window: int = None) -> float:
    """max |evaluate(poly_a) - evaluate(poly_b)| over the window.

    On a label representation both sides are accumulated, term by term in
    the order `evaluate` adds them, on the window entries their walks reach
    and nowhere else; every other entry is 0 - 0.  The result is therefore
    bit-identical to the dense difference.  Other representations take the
    dense difference."""
    poly_a, poly_b = _as_poly(poly_a), _as_poly(poly_b)
    W = rep.N if window is None else window
    if not isinstance(rep, LabelRep):
        return max_abs(evaluate(poly_a, rep, W) - evaluate(poly_b, rep, W))
    n = rep.dim(W)
    sides = [[(rows * n + cols, val)
              for rows, cols, val in _window_terms(poly, rep, W)]
             for poly in (poly_a, poly_b)]
    flats = [flat for terms in sides for flat, _ in terms]
    support = np.unique(np.concatenate(flats)) if flats else np.empty(0, int)
    accs = []
    for terms in sides:
        acc = np.zeros(len(support), dtype=np.complex128)
        for flat, val in terms:
            acc[np.searchsorted(support, flat)] += val
        accs.append(acc)
    return max_abs(accs[0] - accs[1])


# ---------------------------------------------------------------------------
# precise relation residuals (column walks in mpmath)
# ---------------------------------------------------------------------------

def _walk_word(rep, word: Word, fam, k, ctx):
    val = ctx.one
    cf, ck = fam, k
    for g in reversed(word):
        hit = rep.step(g, cf, ck, ctx)
        if hit is None:
            return None
        cf, ck, c = hit
        val = val * c
    return (cf, ck, val)


def _walk_recipe(rep, recipe, fam, k, ctx):
    (csign, cn, cm), items = recipe
    val = csign * ctx.qpow(cn, cm)
    cf, ck = fam, k
    for item in reversed(items):
        if isinstance(item, tuple) and len(item) == 4 and item[0] == "zf":
            _, sgn, n, m = item
            zsgn, zn, zm = rep.zexp(cf, ck)
            val = val * (1 - sgn * zsgn * ctx.qpow(n + zn, m + zm))
        else:
            hit = rep.step(item, cf, ck, ctx)
            if hit is None:
                return None
            cf, ck, c = hit
            val = val * c
    return (cf, ck, val)


def _accumulate(rep, terms: dict, fam, k, ctx, rows: dict, sign: int):
    for w, c in terms.items():
        hit = _walk_word(rep, w, fam, k, ctx)
        if hit is None:
            continue
        v = hit[2] * c.real if c.imag == 0.0 else hit[2] * mp.mpc(c)
        rows[hit[:2]] = rows.get(hit[:2], 0) + sign * v


def _rule_residual(rep, rule, W: int, ctx) -> float:
    worst = 0.0
    kmins = dict(rep.families)
    for fam, kmin in rep.families:
        for k in range(kmin, kmin + W):
            rows: dict = {}
            _accumulate(rep, {rule.lhs: 1.0}, fam, k, ctx, rows, +1)
            if rule.recipe is not None:
                rhs_hit = _walk_recipe(rep, rule.recipe, fam, k, ctx)
                if rhs_hit is not None:
                    rows[rhs_hit[:2]] = rows.get(rhs_hit[:2], 0) - rhs_hit[2]
            else:
                _accumulate(rep, rule.rhs, fam, k, ctx, rows, -1)
            for (rf, rk), v in rows.items():
                if not (kmins[rf] <= rk < kmins[rf] + W):
                    continue
                worst = max_or_nan(worst, abs(ctx.to_float(v)))
    return worst


def mp_poly_residual(rep, poly_a, poly_b, window: int = None) -> float:
    """max |poly_a - poly_b| over window columns, walked in mpmath."""
    W = rep.N if window is None else window
    kmins = dict(rep.families)
    worst = 0.0
    with mp.workdps(MP_DPS):
        ctx = mp_ctx(rep.meta["q"], rep.meta.get("x", 0.0))
        for fam, kmin in rep.families:
            for k in range(kmin, kmin + W):
                rows: dict = {}
                _accumulate(rep, poly_a.terms, fam, k, ctx, rows, +1)
                _accumulate(rep, poly_b.terms, fam, k, ctx, rows, -1)
                for (rf, rk), v in rows.items():
                    if kmins[rf] <= rk < kmins[rf] + W:
                        worst = max_or_nan(worst, abs(ctx.to_float(v)))
    return worst


def relation_check(pres: Presentation, rep, window: int = None,
                   precise: bool = True, include_derived: bool = False) -> dict:
    """Residual of every defining relation of `pres` in `rep`:
    {rule name: max |lhs - rhs|} over the padded-interior window.

    Rules tagged as derived rewriting aids (conjugation by the unbounded
    Z^-1, centrality of T) are skipped unless include_derived is set; their
    operator entries grow like q^(-2k), so absolute residuals at the window
    edge are not meaningful certificates.
    """
    W = rep.N if window is None else window
    rules = [r for r in pres.rules if r.defining or include_derived]
    out = {}
    if precise and isinstance(rep, LabelRep):
        with mp.workdps(MP_DPS):
            ctx = mp_ctx(rep.meta["q"], rep.meta.get("x", 0.0))
            for rule in rules:
                out[rule.name] = _rule_residual(rep, rule, W, ctx)
        return out
    for rule in rules:
        out[rule.name] = residual(NCPoly({rule.lhs: 1.0}), NCPoly(rule.rhs),
                                  rep, window=W)
    return out


# ---------------------------------------------------------------------------
# branched label walks (shared by the adjoint-action residual checks)
#
# A "segment" is (generator, impl) where impl selects the sign-absorbed
# implementer letter on two-summand spaces; a "combo" is (coefficient,
# [segments]) and stands for coefficient * (operator product of the segments).
# Walking combos column-by-column evaluates them exactly on the infinite
# operators; with an mpmath context the precision can be chosen against the
# q^(-2k) growth of the localization inverse.
# ---------------------------------------------------------------------------

def step_branches(rep, g, label, ctx, impl: bool = False):
    """All (target label, coefficient) moves of one generator from a label."""
    if isinstance(rep, LabelRep):
        fam, k = label
        hit = rep.step(g, fam, k, ctx)
        if hit is None:
            return []
        f2, k2, c = hit
        if impl and len(rep.families) == 2 and f2 == "-":
            c = -c
        return [((f2, k2), c)]
    if isinstance(rep, TensorRep):
        fam, k, sp = label
        out = []
        for base_g, spin_entries in _tensor_terms(rep, g, ctx):
            hit = rep.base.step(base_g, fam, k, ctx)
            if hit is None:
                continue
            f2, k2, c = hit
            if rep.absorb_sign and f2 == "-":
                c = -c
            for (sp2, sp_in), v in spin_entries.items():
                if sp_in == sp:
                    out.append(((f2, k2, sp2), c * v))
        return out
    raise TypeError(f"no label walk for {type(rep).__name__}")


def _tensor_terms(rep: TensorRep, g, ctx):
    """Kron decomposition of a tensor generator: [(base generator, spin
    entries {(row_spin, col_spin): value})]; spin 0 is e_+, spin 1 is e_-."""
    q1, qm1 = ctx.qpow(1), ctx.qpow(-1)
    lam_inv = q1 - qm1
    if g == "Z":
        return [("Z", {(0, 0): q1, (1, 1): qm1})]
    if g == "Zi":
        return [("Zi", {(0, 0): qm1, (1, 1): q1})]
    if g == "X":
        return [("X", {(0, 0): 1, (1, 1): 1}),
                ("Z", {(1, 0): lam_inv})]
    if g == "Y":
        return [("Y", {(0, 0): 1, (1, 1): 1}),
                ("Z", {(0, 1): lam_inv})]
    if g == "T":
        q2, qm2 = ctx.qpow(2), ctx.qpow(-2)
        return [("T", {(0, 0): qm1, (1, 1): q1}),
                ("Z", {(0, 0): q2 - 1, (1, 1): qm2 - 1}),
                ("X", {(0, 1): lam_inv}),
                ("Y", {(1, 0): lam_inv})]
    raise KeyError(f"tensor walk has no generator {g}")


def window_labels(rep, W: int):
    if isinstance(rep, TensorRep):
        for fam, kmin in rep.base.families:
            for k in range(kmin, kmin + W):
                yield (fam, k, 0)
                yield (fam, k, 1)
        return
    for fam, kmin in rep.families:
        for k in range(kmin, kmin + W):
            yield (fam, k)


def label_in_window(rep, label, W: int) -> bool:
    fams = dict(rep.base.families if isinstance(rep, TensorRep)
                else rep.families)
    fam, k = label[0], label[1]
    return fams[fam] <= k < fams[fam] + W


def walk_combos(rep, combos, label, ctx) -> dict:
    """Column `label` of sum(coef * product(segments)): {row label: value}."""
    rows: dict = {}
    for coef, segs in combos:
        frontier = {label: 1}
        for g, impl in reversed(segs):
            nxt: dict = {}
            for lab, val in frontier.items():
                for lab2, c in step_branches(rep, g, lab, ctx, impl):
                    nxt[lab2] = nxt.get(lab2, 0) + val * c
            frontier = nxt
            if not frontier:
                break
        for lab, val in frontier.items():
            rows[lab] = rows.get(lab, 0) + coef * val
    return rows


def walk_dps(rep, W: int, slack: int = 30) -> int:
    """mpmath digits needed so residuals stay meaningful against the q^(-2k)
    growth of inverse-diagonal entries over the window."""
    q = rep.meta["q"]
    x = abs(rep.meta.get("x", 0.0))
    exponent = 2 * W + 2 * x + 16
    return int(math.ceil(exponent * math.log10(1.0 / q))) + slack


def combos_residual(rep, combos_a, combos_b, W: int,
                    dps: int = None) -> float:
    """max |combos_a - combos_b| over window columns and rows, walked in mp
    arithmetic at window-adaptive precision."""
    if dps is None:
        dps = walk_dps(rep, W)
    worst = 0.0
    with mp.workdps(dps):
        ctx = mp_ctx(rep.meta["q"], rep.meta.get("x", 0.0), dps)
        for label in window_labels(rep, W):
            rows = walk_combos(rep, combos_a, label, ctx)
            for lab, val in walk_combos(rep, combos_b, label, ctx).items():
                rows[lab] = rows.get(lab, 0) - val
            for lab, val in rows.items():
                if label_in_window(rep, lab, W):
                    worst = max_or_nan(worst, float(abs(val)))
    return worst


# ---------------------------------------------------------------------------
# matrix text dumps
# ---------------------------------------------------------------------------

def dump_matrix(A: np.ndarray, path) -> None:
    """Text format: header 'rows cols', then one 're im' entry per line,
    row-major."""
    A = np.asarray(A, dtype=np.complex128)
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for z in A.reshape(-1):
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        rows, cols = map(int, fh.readline().split())
        data = [complex(float(re), float(im))
                for re, im in (line.split() for line in fh)]
    if len(data) != rows * cols:
        raise ValueError("matrix dump has wrong entry count")
    return np.array(data, dtype=np.complex128).reshape(rows, cols)
