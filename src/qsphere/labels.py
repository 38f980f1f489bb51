"""Label representations and the exact walk kernel, with no numpy.

A podles / bl generator is a weighted shift on a labelled basis: each
generator declares its move (a label offset, and whether it swaps the "+"
and "-" summands) once, and its coefficient from each label is a label
step (square roots through `qcore._sqrt_coeff`) through the scalar
interface of a context, `qcore.FloatCtx` or `MPCtx` (`LabelRep.step`, the
one derivation of a step, an adjoint's and an implementer letter's
included).  The coaction's one table (`_tensor_terms`) gives the
generators of the coaction-tensored representation (`reps.TensorRep`).
The float views of a label representation (`shift`, `matrix`) import numpy
inside the call and are kept per (generator, internal size, implementer
or not); a shift takes its labels' steps in the representation's one
`FloatCtx`.  The float walks are in `reps`.

Relation residuals, adjoint-action residuals and invariant-functional tail
defects are walked label by label on raw mpmath values (`MPCtx`) through
one exact walk kernel (see its section), since the graded algebras' entries
reach ~1e6 at small q, where double precision cannot certify 1e-11
absolute residuals.  Every exact check walks its paths as one prefix trie
(`trie_walks`, which runs in any scalar context): a batch of identities,
combos against combos (a relation rule is walked as combos too), is one
`combos_residuals` call, and the functional's diagonals are one
`invariance.invariance_defects` call.
"""

from __future__ import annotations

import functools
import math
import weakref

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

from .qcore import FloatCtx, QParams, _sqrt_coeff, tau_of
from .ncalg import NCPoly, Presentation

MP_DPS = 40


# ---------------------------------------------------------------------------
# the mpmath scalar context, with the interface of qcore.FloatCtx
# ---------------------------------------------------------------------------

_RND = round_nearest


class MPCtx:
    """q-power arithmetic on raw mpmath values (`_mpf_` tuples) at `dps`
    digits (`prec` bits), rounded to nearest.  Each operation is the libmp
    call that mpmath's operator on mpf objects makes, at `prec`, so every
    value is bit-identical to mpf arithmetic at that precision, whatever
    the ambient one.  Factors and roots are computed once (`factor`,
    `roots`), label steps once per representation by the exact walk kernel
    (see step_tables); shared instances come from `mp_ctx`."""

    one, zero = fone, fzero

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


@functools.lru_cache(maxsize=64)
def _shared_mp_ctx(q: float, x: float, dps: int) -> MPCtx:
    return MPCtx(q, x, dps)


def mp_ctx(q, x=0.0, dps: int = MP_DPS) -> MPCtx:
    """The mp context shared by every exact walk at (q, x, dps)."""
    return _shared_mp_ctx(float(q), float(x), int(dps))


# ---------------------------------------------------------------------------
# label-backed representations
# ---------------------------------------------------------------------------

class LabelRep:
    """A representation whose generators are weighted shifts on labeled bases.

    families: tuple of (name, kmin); family `f` truncated at internal size M
    carries labels k = kmin .. kmin+M-1.  The window (size N) is the leading
    N labels of each family.  The diagonal Z e_k = sign*q^(n+mx) e_k and its
    inverse Zi are built from `zexp`, the one source of that power.

    steps: gen -> (move, coefficient function or None where the walk dies).
    A move (k-offset, swap) takes (fam, k) to (fam, k + offset), in the other
    summand ("+" <-> "-") with swap.  Z, Zi (no move), each adjoint (gen ->
    real gen, the opposite move) and each implementer letter (`step` with
    impl) are derived here.
    """

    def __init__(self, families, steps, zexps, N: int, meta: dict, adjoints):
        self.families = tuple(families)
        self._steps = {**steps, **_z_steps(zexps), **{
            y: _adjoint_step(*steps[x]) for y, x in adjoints.items()}}
        self._zexps = zexps      # dict fam -> fn(k) -> (sign, n, m)
        self.N = N
        self.pad = 2             # labels padded per reps.poly_allowance unit
        self.meta = meta         # "q" and "x", read by the step contexts
        self._float_ctx = FloatCtx(meta["q"], meta.get("x", 0.0))
        self._shift_cache: dict = {}
        self._mat_cache: dict = {}
        self._walk_memos: dict = {}  # scalar context -> _SegmentTables

    # -- label bookkeeping
    def kmin(self, fam):
        return dict(self.families)[fam]

    def dim(self, M: int) -> int:
        return M * len(self.families)

    def window_indices(self, M: int, W: int):
        import numpy as np
        out = []
        for pos in range(len(self.families)):
            out.extend(range(pos * M, pos * M + W))
        return np.array(out, dtype=int)

    def step(self, g, fam, k, ctx, impl=False):
        """Step of generator g from label (fam, k): None or ((fam2, k2),
        coeff), g's move and the coefficient in the arithmetic of the scalar
        context ctx (the exact kernel memoises it: `step_tables`).  With
        impl, the implementer letter: g times the sign operator of the
        two-summand space, its coefficient negated where it lands in "-"."""
        (dk, swap), coeff = self._steps[g]
        c = coeff(fam, k, ctx)
        if c is None:
            return None
        fam2 = _SWAP[fam] if swap else fam
        return (fam2, k + dk), ctx.neg(c) if impl and fam2 == "-" else c

    def move(self, g):  # (k-offset, swap), see the class docstring
        return self._steps[g][0]

    def zexp(self, fam, k):
        return self._zexps[fam](k)

    # -- weighted-shift form and the views built from it, in numpy, which
    # each imports in the call: no exact walk reads them
    def shift(self, g, M: int, impl: bool = False):
        """Generator g (its implementer letter with impl) at internal size M
        as a weighted shift: column j goes to row tgt[j] with coefficient
        coef[j]; tgt[j] is -1 where the step returns None or leaves the
        internal size.  Each of the first M labels' steps is taken in the
        rep's one FloatCtx."""
        key = (g, M, impl)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        import numpy as np
        tgt = np.full(self.dim(M), -1, dtype=np.intp)
        coef = np.zeros(self.dim(M), dtype=np.complex128)
        # label (fam, k) sits at index base[fam] + k at size M
        base = {f: pos * M - kmin
                for pos, (f, kmin) in enumerate(self.families)}
        for fam, kmin in self.families:
            for k in range(kmin, kmin + M):
                hit = self.step(g, fam, k, self._float_ctx, impl)
                if hit is None:
                    continue
                (f2, k2), c = hit
                if 0 <= k2 - self.kmin(f2) < M:
                    tgt[base[fam] + k] = base[f2] + k2
                    coef[base[fam] + k] = c
        self._shift_cache[key] = (tgt, coef)
        return tgt, coef

    def shifts(self, g, M: int) -> tuple:
        return (self.shift(g, M),)

    def matrix(self, g, M: int):
        key = (g, M)
        cached = self._mat_cache.get(key)
        if cached is not None:
            return cached
        import numpy as np
        tgt, coef = self.shift(g, M)
        cols = np.flatnonzero(tgt >= 0)
        A = np.zeros((self.dim(M), self.dim(M)), dtype=np.complex128)
        A[tgt[cols], cols] = coef[cols]
        self._mat_cache[key] = A
        return A


_SWAP = {"+": "-", "-": "+"}


def _z_steps(zexps) -> dict:
    """The Z and Zi steps of a label representation, from its Z exponents."""
    def Z(fam, k, ctx):
        s, n, m = zexps[fam](k)
        return ctx.scale(s, ctx.qpow(n, m))

    def Zi(fam, k, ctx):
        s, n, m = zexps[fam](k)
        return ctx.scale(s, ctx.inv(ctx.qpow(n, m)))

    return {"Z": ((0, False), Z), "Zi": ((0, False), Zi)}


def _adjoint_step(move, X):
    """Y = X* for a real step X with `move`: Y makes the opposite move (the
    swap is its own inverse), and its coefficient from a label is X's from
    the label Y lands on."""
    dk, swap = move

    def Y(fam, k, ctx):
        return X(_SWAP[fam] if swap else fam, k - dk, ctx)
    return (-dk, swap), Y


def podles_x_factors(rep_sign: int, k: int) -> list:
    """The (sign, n, m) factors under the square root of the podles X step
    from label k: (1 - q^(2k)) and (1 + q^(2k - 2x)) for the plus series,
    x -> -x for the minus series (rep_sign -1).  The Casimir eigenvectors
    take their entries from the same two factors."""
    return [(1, 2 * k, 0), (-1, 2 * k, -2 * rep_sign)]


def rep_podles(p: QParams, x: float, variant: str, N: int) -> LabelRep:
    """Truncation of the irreducible series representations.

    variant: plus | minus | direct_sum (minus + plus summands).  For the
    plus series Z e_k = q^(2k-x+1) e_k and X uses (1+q^(2k-2x)); the minus
    series (sign -1) carries an overall sign and x -> -x in the exponents.
    T acts as the scalar tau(x) on both.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    signs = {"plus": {"s": 1}, "minus": {"s": -1},
             "direct_sum": {"-": -1, "+": 1}}.get(variant)
    if signs is None:
        raise ValueError(f"unknown variant {variant!r}")

    def X(fam, k, ctx):
        c = _sqrt_coeff(ctx, podles_x_factors(signs[fam], k))
        return None if c is None else ctx.scale(signs[fam], c)

    # X lowers the label in its family, T keeps it
    steps = {"X": ((-1, False), X),
             "T": ((0, False), lambda fam, k, ctx: tau_of(ctx))}
    zexps = {fam: (lambda k, s=s: (s, 2 * k + 1, -s))
             for fam, s in signs.items()}
    return LabelRep([(fam, 0) for fam in signs], steps, zexps, N,
                    {"q": p.q, "x": x}, {"Y": "X"})


def rep_bl(p: QParams, l, N: int) -> LabelRep:
    """Truncation of the banded representation of the bl(l) algebra."""
    if l is None or l < 0 or (2 * l) != int(2 * l):
        raise ValueError(f"l must be a nonnegative half-integer, got {l}")
    twol = int(2 * l)
    if N < 4 * l + 4:
        raise ValueError(f"N must be at least 4l+4 = {4 * l + 4}")

    def X(fam, k, ctx):
        sg = 1 if fam == "+" else -1
        c = _sqrt_coeff(ctx, [(-sg, 2 * k, 0), (sg, 2 * k + 2 * twol, 0)])
        return None if c is None else (c if sg == 1 else ctx.neg(c))

    def make_A(s):
        def A(fam, k, ctx):
            if fam == "+":
                if k + s < 0:
                    return None
                return _sqrt_coeff(
                    ctx,
                    [(1, 2 * k + 2 * s + 2 + 2 * j, 0) for j in range(twol - s)]
                    + [(-1, 2 * k + 2 + 2 * j, 0) for j in range(twol + s)])
            c = _sqrt_coeff(
                ctx,
                [(-1, 2 * k + 2 * s + 2 + 2 * j, 0) for j in range(twol - s)]
                + [(1, 2 * k + 2 + 2 * j, 0) for j in range(twol + s)])
            sign = -1 if s % 2 else 1
            return None if c is None else ctx.scale(sign, c)
        return A

    # X lowers the label in its family; A(s) moves it by s into the other
    steps = {"X": ((-1, False), X)}
    for s in range(-twol, twol + 1):
        steps[("A", s)] = ((s, True), make_A(s))
    zexps = {"-": lambda k: (-1, 2 * k + twol + 1, 0),
             "+": lambda k: (1, 2 * k + twol + 1, 0)}
    return LabelRep((("-", 0), ("+", -twol)), steps, zexps, N,
                    {"q": p.q, "x": float(twol)}, {"Y": "X"})

# ---------------------------------------------------------------------------
# the coaction, read by the float tensor generators and the exact walks
# ---------------------------------------------------------------------------

def _tensor_terms(g, ctx):
    """The coaction: tensor generator g as [(base generator, [(row spin,
    column spin, value)])], values in the arithmetic of ctx and None
    standing for an exact 1; spin 0 is e_+, spin 1 is e_-."""
    q1, qm1 = ctx.qpow(1), ctx.qpow(-1)
    lam_inv = ctx.sub(q1, qm1)
    if g == "Z":
        return [("Z", [(0, 0, q1), (1, 1, qm1)])]
    if g == "Zi":
        return [("Zi", [(0, 0, qm1), (1, 1, q1)])]
    if g == "X":
        return [("X", [(0, 0, None), (1, 1, None)]),
                ("Z", [(1, 0, lam_inv)])]
    if g == "Y":
        return [("Y", [(0, 0, None), (1, 1, None)]),
                ("Z", [(0, 1, lam_inv)])]
    if g == "T":
        return [("T", [(0, 0, qm1), (1, 1, q1)]),
                ("Z", [(0, 0, ctx.sub(ctx.qpow(2), ctx.one)),
                       (1, 1, ctx.sub(ctx.qpow(-2), ctx.one))]),
                ("X", [(0, 1, lam_inv)]),
                ("Y", [(1, 0, lam_inv)])]
    raise KeyError(f"tensor representation has no generator {g}")


# ---------------------------------------------------------------------------
# the exact walk kernel
#
# Every exact check reads columns of operator products label by label in
# mpmath arithmetic, exactly on the infinite operators at a precision chosen
# against the q^(-2k) growth of the localization inverse.  A "segment" is
# (generator, impl): impl selects the implementer letter, which on a
# two-summand space absorbs the sign operator, so its coefficient is negated
# where the step lands in the "-" family.  A recipe item ("zf", sign, n, m)
# is one more segment kind, the diagonal factor 1 - sign*q^(n+mx)*Z, and so
# is a recipe's lead ("lead", sign, n, m), the scalar sign*q^(n+mx).  A
# "combo" (coefficient, [segments]) is a real Python coefficient times the
# operator product of the segments; the kernel is real throughout.  It walks
# label representations and tensors of one (`reps.TensorRep`), whose steps
# branch.
#
# The step tables and the trie walkers compute only through their context's
# scalar interface (`qcore`): an `MPCtx` computes on raw mpmath values, each
# operation bound to its own precision, bit-identical to mpf objects.
# Steps are memoised per (representation, context, segment) as
# `LabelRep.step` returns them, (target label, coefficient), the one place
# a label step is derived, for the float shifts too: an implementer
# letter's and an adjoint's steps included.  The context computes each
# factor 1 - sign*q^(n+mx) and each root of a factor list once, so a step
# that reads another's root (an implementer letter, an adjoint) takes no
# square root again.
#
# A walk multiplies its steps' coefficients in walk order with the
# context's `mul`, the first coefficient starting the product exactly.
# `trie_walks` walks every path of a check as one prefix trie: a node's
# product is its parent's times the step (on a tensor representation, a
# branching walk's frontier, summed with `add`), formed once for all paths
# through it.  The exact checks' reductions (`combos_residuals`,
# `invariance.invariance_defects`) call libmp as mpmath's operators do (a
# coefficient of exactly 1 leaves the value as mpf_mul would).
# ---------------------------------------------------------------------------

class _StepTable(dict):
    """label -> step of one segment, computed by `fill` on first use and
    kept.  A step is None (the walk dies) or, on a label representation,
    (target label, coefficient in the tables' context); on a tensor
    representation it is a list of such branches."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, label):
        hit = self[label] = self.fill(label)
        return hit


class _SegmentTables(dict):
    """The step tables of one representation in one scalar context, one per
    segment, made on first use.  The rep holds them (`step_tables`), so they
    hold it only weakly, and no fill holds them: both are freed as soon as
    the rep is dropped, without the cycle collector."""

    def __init__(self, rep, ctx):
        super().__init__()
        self.rep = weakref.ref(rep)
        self.ctx = ctx

    def __missing__(self, seg):
        g, impl = seg
        rep = self.rep()
        if not isinstance(rep, LabelRep):
            fill = self._tensor_step(g)
        elif isinstance(g, tuple) and g[0] == "zf":
            fill = self._zf_step(*g[1:])
        elif isinstance(g, tuple) and g[0] == "lead":
            fill = self._lead_step(*g[1:])
        else:
            fill = self._label_step(g, impl)
        table = self[seg] = _StepTable(fill)
        return table

    def _label_step(self, g, impl):
        rep, ctx = self.rep, self.ctx
        return lambda label: rep().step(g, label[0], label[1], ctx, impl)

    def _zf_step(self, sign, n, m):
        zexps, ctx = self.rep()._zexps, self.ctx

        def fill(label):
            zsign, zn, zm = zexps[label[0]](label[1])
            return label, ctx.factor(sign * zsign, n + zn, m + zm)
        return fill

    def _lead_step(self, sign, n, m):
        lead = self.ctx.scale(sign, self.ctx.qpow(n, m))
        return lambda label: (label, lead)

    def _tensor_step(self, g):
        rep, ctx = self.rep(), self.ctx
        terms = [(step_tables(rep.base, ctx)[(base_g, rep.absorb_sign)],
                  entries) for base_g, entries in _tensor_terms(g, ctx)]

        def fill(label):
            fam, k, sp = label
            out = []
            for table, entries in terms:
                hit = table[(fam, k)]
                if hit is None:
                    continue
                (f2, k2), c = hit
                for sp2, sp_in, v in entries:
                    if sp_in == sp:
                        out.append(((f2, k2, sp2),
                                    c if v is None else ctx.mul(c, v)))
            return out
        return fill


def step_tables(rep, ctx) -> _SegmentTables:
    """The step tables of `rep` in the scalar context `ctx`, one shared set
    per (rep, ctx)."""
    tables = rep._walk_memos.get(ctx)
    if tables is None:
        tables = rep._walk_memos[ctx] = _SegmentTables(rep, ctx)
    return tables


def mp_magnitude(v) -> float:
    """|v| as a float for a raw mpf, rounded to nearest as float(abs(v))
    rounds an mpf."""
    return abs(to_float(v, rnd=_RND))


def _raw_number(c):
    """A real Python coefficient as a raw mpf, exactly as mpmath converts
    it; a complex one with zero imaginary part walks as its real part."""
    if isinstance(c, complex):
        if c.imag != 0.0:
            raise ValueError(f"exact walks are real, got coefficient {c!r}")
        c = c.real
    if isinstance(c, int):
        return from_int(c)
    return from_float(float(c))


def window_labels(rep, W: int):
    tensor = not isinstance(rep, LabelRep)
    for fam, kmin in (rep.base if tensor else rep).families:
        for k in range(kmin, kmin + W):
            yield from ((fam, k, 0), (fam, k, 1)) if tensor else ((fam, k),)


def _poly_combos(terms: dict) -> list:
    """Plain-letter combos of a polynomial's terms."""
    return [(c, [(g, False) for g in w]) for w, c in terms.items()]


def _rule_combos(rule) -> list:
    """A rule's right-hand side as combos: its terms, or its recipe's
    product with the lead as the last segment, walked first, so the lead
    starts the product."""
    if rule.recipe is None:
        return _poly_combos(rule.rhs)
    lead, items = rule.recipe
    return [(1, [(it, False) for it in (*items, ("lead", *lead))])]


def _trie(tables, node) -> tuple:
    """The edges out of a node of a dict trie {segment: child, None: path
    number} as nested tuples (step table, path number or None, edges)."""
    return tuple((tables[seg], child.pop(None, None), _trie(tables, child))
                 for seg, child in node.items())


def _label_trie(edges, label, p, ends, mul):
    """Walk `label` down trie edges on a label representation, p the
    product so far (None for the exact 1 a walk starts from)."""
    for table, leaf, below in edges:
        hit = table[label]
        if hit is not None:
            lab, c = hit
            if p is not None:
                c = mul(p, c)
            if leaf is not None:
                ends[leaf] = ((lab, c),)
            if below:
                _label_trie(below, lab, c, ends, mul)


def _branch_trie(edges, frontier, ends, mul, add):
    """Walk a frontier {label: value, None for an exact 1} down trie edges
    on a tensor representation, whose steps branch."""
    for table, leaf, below in edges:
        nxt: dict = {}
        for lab, val in frontier.items():
            for lab2, c in table[lab]:
                p = c if val is None else mul(val, c)
                old = nxt.get(lab2)
                nxt[lab2] = p if old is None else add(old, p)
        if nxt:
            if leaf is not None:
                ends[leaf] = list(nxt.items())
            _branch_trie(below, nxt, ends, mul, add)


def trie_walks(tables, paths, labels):
    """Walk the numbered paths {segments in walk order: path number} as one
    prefix trie of `tables` from each label in turn, in the arithmetic of
    their context, yielding (label, ends): ends[i] is path i's (end label,
    value) pairs, () where it dies (one pair on a label representation)."""
    root = {}
    for path, i in paths.items():
        functools.reduce(lambda node, seg: node.setdefault(seg, {}), path,
                         root)[None] = i
    empty, edges = root.pop(None, None), _trie(tables, root)
    ctx, branched = tables.ctx, not isinstance(tables.rep(), LabelRep)
    for label in labels:
        ends = [()] * len(paths)
        if empty is not None:
            ends[empty] = ((label, ctx.one),)
        if branched:
            _branch_trie(edges, {label: None}, ends, ctx.mul, ctx.add)
        else:
            _label_trie(edges, label, None, ends, ctx.mul)
        yield label, ends


def _larger(a, b):
    """Whichever of the raw mpfs a and b is larger in magnitude (a on a
    tie), NaN above an infinity above every number, so that converting it
    to float reads max_or_nan of both magnitudes: rounding is monotone."""
    if not b[1]:                        # b is 0, an infinity or NaN
        return b if b == fnan or b != fzero and a != fnan else a
    if not a[1]:
        return b if a == fzero else a
    if a[2] + a[3] != b[2] + b[3]:      # exponent + bit count, then mantissa
        return a if a[2] + a[3] > b[2] + b[3] else b
    return b if b[1] << a[3] > a[1] << b[3] else a   # shifted to one exponent


def combos_residuals(rep, pairs, W: int, dps: int | None = None) -> list:
    """max |combos_a - combos_b| over window columns and rows for each pair
    (combos_a, combos_b), walked in the shared mp context of `rep` at `dps`
    digits (window-adaptive, `walk_dps`, by default).  The distinct paths of
    all the pairs are one trie, walked from each window label; then each
    pair adds its combos into its rows in combo order, combos_b subtracted
    one by one, and keeps its largest window row (`_larger`), converted to
    float once.  Every pair reads NaN when the window has no label, so that
    a check that evaluated nothing fails."""
    inside = set(window_labels(rep, W))
    if not inside:
        return [math.nan] * len(pairs)
    dps = walk_dps(rep, W) if dps is None else dps
    ctx = mp_ctx(rep.meta["q"], rep.meta.get("x", 0.0), dps)
    prec, tables, paths = ctx.prec, step_tables(rep, ctx), {}
    # each pair's combos as (path number, raw coefficient or None for
    # an exact 1, whether it is subtracted)
    terms = [[(paths.setdefault(tuple(reversed(segs)), len(paths)),
               None if (c := _raw_number(coef)) == fone else c, sub)
              for sub, side in enumerate(pair) for coef, segs in side]
             for pair in pairs]
    largest = [fzero] * len(pairs)
    for _, ends in trie_walks(tables, paths, window_labels(rep, W)):
        for j, combos in enumerate(terms):
            rows: dict = {}
            for i, coef, sub in combos:
                for lab, val in ends[i]:
                    term = (val if coef is None
                            else mpf_mul(val, coef, prec, _RND))
                    old = rows.get(lab)
                    if sub:
                        term = mpf_sub(fzero if old is None else old,
                                       term, prec, _RND)
                    elif old is not None:
                        term = mpf_add(old, term, prec, _RND)
                    rows[lab] = term
            for lab, v in rows.items():
                if lab in inside:
                    largest[j] = _larger(largest[j], v)
    return [mp_magnitude(v) for v in largest]


def relation_check(pres: Presentation, rep) -> dict:
    """Residual of every defining relation of `pres` in `rep`, {rule name:
    max |lhs - rhs|} over its padded-interior window (size rep.N): all rules
    walked exactly in one `combos_residuals` call at MP_DPS digits on a
    label representation, and in one float `reps.residuals` call on any
    other.  Rules tagged as derived rewriting aids (conjugation by the
    unbounded Z^-1, centrality of T) are skipped: their entries grow like
    q^(-2k), so absolute residuals at the window edge certify nothing."""
    rules = [r for r in pres.rules if r.defining]
    if isinstance(rep, LabelRep):
        found = combos_residuals(rep, [
            (_poly_combos({r.lhs: 1.0}), _rule_combos(r)) for r in rules],
            rep.N, MP_DPS)
    else:
        from .reps import residuals   # the float walk, in numpy
        found = residuals(
            [(NCPoly({r.lhs: 1.0}), NCPoly(r.rhs)) for r in rules], rep)
    return {r.name: v for r, v in zip(rules, found)}


def walk_dps(rep, W: int, slack: int = 30) -> int:
    """mpmath digits needed so residuals stay meaningful against the q^(-2k)
    growth of inverse-diagonal entries over the window."""
    q = rep.meta["q"]
    x = rep.meta.get("x", 0.0)
    # a non-finite x makes every entry NaN, which no precision resolves
    x = abs(x) if math.isfinite(x) else 0.0
    exponent = 2 * W + 2 * x + 16
    return int(math.ceil(exponent * math.log10(1.0 / q))) + slack


def combos_residual(rep, combos_a, combos_b, W: int) -> float:
    """max |combos_a - combos_b| over the window (`combos_residuals`)."""
    return combos_residuals(rep, [(combos_a, combos_b)], W)[0]
