"""The float walks: weighted shifts, padded evaluation of noncommutative
polynomials, and float residuals.  numpy is imported here and by the other
float modules (`action`, `casimir`, `morita`) only, so the commands that
certify in mpmath alone never load it; the label representations and the
exact walk kernel are in `labels`.

The one float form of an operator is a list of one-to-one weighted shifts
(tgt, coef): column j goes to row tgt[j] (nowhere where it is -1) with
coefficient coef[j].  A podles / bl generator, or its implementer letter,
is one shift per internal truncation M, read from the steps of its first M
labels in the representation's one `FloatCtx` and kept per (generator, M,
implementer or not) (`labels.LabelRep.shift`).  A tensor generator is
several shifts, read from one coaction table (`labels._tensor_terms`); the
spin-1/2 module and compressions store theirs (`ShiftRep`).  One walk
(`walk_shifts`; a factor may be a scalar) serves every float certificate
as a walked difference of products (`walk_difference`); `residuals` walks
all its pairs at one internal size and each word once.  Padded evaluation
walks at an enlarged size and crops, so retained entries are exact values
of the infinite-dimensional operators; a size padded for more than a word
needs gives the same entries.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import FloatCtx, QParams
from .ncalg import NCPoly, Word, is_a_gen
from .labels import _tensor_terms
# names of `labels` that the benchmark's tracer wraps as `reps.*`
# (perfbench/layers.py); `MPCtx` comes from `__getattr__`
from .labels import (  # noqa: F401
    LabelRep,
    combos_residual,
    relation_check,
)


def __getattr__(name):
    """`reps.MPCtx`, which the benchmark's tracer wraps, read from
    `mpscalar` on first access: the float commands load this module, and
    must not load mpmath with it."""
    if name == "MPCtx":
        from .mpscalar import MPCtx
        return MPCtx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# padding allowance
# ---------------------------------------------------------------------------

def _allow(g) -> int:
    return max(1, abs(g[1])) if is_a_gen(g) else 1


def poly_allowance(poly) -> int:
    words = _as_poly(poly).terms
    return max((sum(_allow(g) for g in w) for w in words), default=1) or 1


# ---------------------------------------------------------------------------
# stored shifts (spin 1/2, compressions) and the coaction-tensored rep
# ---------------------------------------------------------------------------

class ShiftRep:
    """Generators stored as entries (columns, rows, values) on `size` labels
    and read as one weighted shift per diagonal.  A larger internal size is
    clamped to the stored one."""

    def __init__(self, gens: dict, size: int, N: int, pad: int):
        if N > size:
            raise ValueError("window exceeds stored size")
        self._gens, self.size, self.N, self.pad = gens, size, N, pad

    def dim(self, M: int) -> int:
        return min(M, self.size)

    def window_indices(self, M: int, W: int) -> np.ndarray:
        return np.arange(W)

    def shifts(self, g, M: int) -> list:
        return diagonals(*self._gens[g], self.dim(M))


def union(arrays) -> np.ndarray:
    """The distinct values of a list of integer arrays, sorted, as
    np.unique returns them (an empty intp array for none).  A plain
    np.unique call imports numpy.ma, which certification never needs."""
    flat = (np.sort(np.concatenate(arrays)) if arrays
            else np.empty(0, dtype=np.intp))
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    return flat[first]


def diagonals(cols, rows, val, n: int) -> list:
    """Entries (columns, rows, values), each (column, row) once, as one
    one-to-one weighted shift on range(n) per diagonal; entries outside
    range(n) are dropped."""
    out = []
    for d in union([rows - cols]):
        on = (rows - cols == d) & (rows < n) & (cols < n)
        tgt = np.full(n, -1, dtype=np.intp)
        coef = np.zeros(n, dtype=np.complex128)
        tgt[cols[on]], coef[cols[on]] = rows[on], val[on]
        out.append((tgt, coef))
    return out or [(np.full(n, -1, dtype=np.intp), np.zeros(n))]


def summed(factors, n: int) -> list:
    """A product of operators on range(n) with each entry summed and
    rounded once, as a dense product rounds it: its walk (`walk_shifts`)
    split into diagonals."""
    return diagonals(*walk_shifts(factors, np.arange(n)), n)


def spin_half(p: QParams) -> ShiftRep:
    """K, Ki, E, F on C^2 with basis (e_+, e_-)."""
    q, r = p.q, math.sqrt(p.q)
    ops = {"K": ([0, 1], [0, 1], [1 / q, q]),
           "Ki": ([0, 1], [0, 1], [q, 1 / q]),
           "E": ([0], [1], [r]), "F": ([1], [0], [1 / r])}
    return ShiftRep({g: (np.array(cols), np.array(rows),
                         np.array(val, np.complex128))
                     for g, (cols, rows, val) in ops.items()}, 2, N=2, pad=0)


class TensorRep:
    """space (x) C^2 carrying the coaction-twisted generator images; basis
    index 2i + spin for base index i.  With absorb_sign the base images
    are the implementer letters, which absorb the sign operator of a double
    space (`labels.LabelRep.step`)."""

    def __init__(self, base, absorb_sign: bool = False):
        self.base = base
        self.absorb_sign = absorb_sign
        self.N = base.N
        self.pad = base.pad
        self.meta = base.meta

    def dim(self, M: int) -> int:
        return 2 * self.base.dim(M)

    def window_indices(self, M: int, W: int) -> np.ndarray:
        inner = self.base.window_indices(M, W)
        return np.stack([2 * inner, 2 * inner + 1], axis=1).reshape(-1)

    def shifts(self, g, M: int) -> list:
        """Generator g at internal size M as weighted shifts, one per spin
        entry of each coaction term, in term order; tgt is -1 on the
        columns of the other spin and where the base step dies."""
        out = []
        for base_g, entries in _tensor_terms(g, FloatCtx(self.meta["q"])):
            tgt, coef = self.base.shift(base_g, M, self.absorb_sign)
            for sp2, sp_in, v in entries:
                out.append(lift(tgt, coef if v is None else coef * v,
                                sp2, sp_in))
        return out


def lift(tgt, coef, out_spin: int, in_spin: int):
    """A weighted shift on a base space lifted to the tensor slots
    2i + spin: column 2j + in_spin goes to row 2 tgt[j] + out_spin, and the
    columns of the other spin go nowhere."""
    n = 2 * len(tgt)
    t = np.full(n, -1, dtype=np.intp)
    c = np.zeros(n, dtype=np.complex128)
    t[in_spin::2] = np.where(tgt >= 0, 2 * tgt + out_spin, -1)
    c[in_spin::2] = coef
    return t, c


# ---------------------------------------------------------------------------
# the float walk and evaluation
# ---------------------------------------------------------------------------

def walk_shifts(factors, cols):
    """Columns `cols` of a product of operators, each a list of weighted
    shifts or a scalar, applied right to left: (positions into cols, rows,
    values) of the entries that survive, each (position, row) once.  A
    scalar multiplies every value where it stands; a factor of several
    shifts branches each entry and sums what lands on one row."""
    pos = np.arange(len(cols))
    rows = np.asarray(cols, dtype=np.intp)
    val = np.ones(len(cols), dtype=np.complex128)
    for shifts in reversed(factors):
        if isinstance(shifts, (int, float, complex)):
            val = shifts * val
            continue
        if len(shifts) > 1:
            pos = np.tile(pos, len(shifts))
            val = np.concatenate([coef[rows] * val for _, coef in shifts])
            rows = np.concatenate([tgt[rows] for tgt, _ in shifts])
        else:
            (tgt, coef), = shifts
            val = coef[rows] * val
            rows = tgt[rows]
        live = rows >= 0
        if not live.all():
            pos, rows, val = pos[live], rows[live], val[live]
        if len(shifts) > 1 and len(rows):
            width = rows.max() + 1
            key, inv = np.unique(pos * width + rows, return_inverse=True)
            summed = np.zeros(len(key), dtype=np.complex128)
            np.add.at(summed, inv, val)
            pos, rows, val = key // width, key % width, summed
    return pos, rows, val


def walk(rep, word: Word, M: int, cols):
    return walk_shifts([rep.shifts(g, M) for g in word], cols)


def adjoint(U, n: int) -> list:
    """U^H for U a list of one-to-one shifts into range(n): each shift
    reversed, its coefficients conjugated."""
    UH = []
    for tgt, coef in U:
        cols = np.flatnonzero(tgt >= 0)
        t, c = np.full(n, -1, dtype=np.intp), np.zeros(n, dtype=np.complex128)
        t[tgt[cols]], c[tgt[cols]] = cols, coef[cols].conj()
        UH.append((t, c))
    return UH


def compress(U, G, n: int):
    """Entries (column, row, value) of U^H G U, for U a list of one-to-one
    shifts into range(n) and G an operator on range(n)."""
    return walk_shifts([adjoint(U, n), G, U], np.arange(len(U[0][0])))


def on_support(*sides):
    """Sides of (flat index, value) terms, each index once per term, summed
    term by term on the union of the indices: that union, sorted, and one
    array per side."""
    support = union([flat for terms in sides for flat, _ in terms])
    accs = []
    for terms in sides:
        acc = np.zeros(len(support), dtype=np.complex128)
        for flat, val in terms:
            acc[np.searchsorted(support, flat)] += val
        accs.append(acc)
    return support, accs


def walk_difference(lhs, rhs, cols):
    """Entries of sum(lhs) - sum(rhs) in the columns `cols`: each side a
    list of products (lists of factors, see `walk_shifts`; the empty
    product is the identity), walked down `cols` and summed term by term
    (`walked_difference`).  Returns (rows, positions into cols,
    differences)."""
    return walked_difference(*(
        [walk_shifts(factors, cols) for factors in side]
        for side in (lhs, rhs)), len(cols))


def walked_difference(lhs, rhs, w: int):
    """sum(lhs) - sum(rhs) for sides of walks (positions into w columns,
    rows, values; see `walk_shifts`), summed term by term on the union of
    their supports (`on_support`): (rows, positions, differences)."""
    support, (got, want) = on_support(*(
        [(rows * w + pos, val) for pos, rows, val in side]
        for side in (lhs, rhs)))
    return support // w, support % w, got - want


def walk_defect(lhs, rhs, cols) -> float:
    """max |sum(lhs) - sum(rhs)| in the columns `cols` (`walk_difference`);
    NaN for no columns, so that a check that evaluated nothing fails."""
    if len(cols) == 0:
        return math.nan
    return max_abs(walk_difference(lhs, rhs, cols)[2])


def _as_poly(poly) -> NCPoly:
    return poly if isinstance(poly, NCPoly) else NCPoly({tuple(poly): 1.0})


def _window_differences(pairs, rep):
    """For each pair (poly_a, poly_b), the window entries of poly_a - poly_b:
    (window rows, window columns, differences).  Every pair is walked at
    one internal size, padded for the largest allowance among them; no walk
    from a window column reaches its edge, so each retained entry is the
    one any size padded for its own words gives.  A term's word is walked
    down the window columns once across the pairs; the term is that walk
    times its coefficient, c * values, as `walk_shifts` applies the product
    [c, *letters]."""
    pairs = [(_as_poly(a), _as_poly(b)) for a, b in pairs]
    M = rep.N + rep.pad * max(
        (poly_allowance(poly) for pair in pairs for poly in pair), default=1)
    idx = rep.window_indices(M, rep.N)
    where = np.full(rep.dim(M), -1, dtype=np.intp)
    where[idx] = np.arange(len(idx))
    walks = {}
    for pair in pairs:
        sides = []
        for poly in pair:
            terms = []
            for word, c in poly.terms.items():
                got = walks.get(word)
                if got is None:
                    got = walks[word] = walk(rep, word, M, idx)
                pos, rows, val = got
                terms.append((pos, rows, c * val))
            sides.append(terms)
        rows, cols, diff = walked_difference(*sides, len(idx))
        rows = where[rows]
        kept = rows >= 0
        yield rows[kept], cols[kept], diff[kept]


def evaluate(poly, rep) -> np.ndarray:
    """Coefficient-weighted sum of word-wise products at the padded internal
    size, cropped to the window (size rep.N), as a dense array."""
    acc = np.zeros((rep.dim(rep.N),) * 2, dtype=np.complex128)
    (rows, cols, val), = _window_differences([(poly, NCPoly({}))], rep)
    acc[rows, cols] = val
    return acc


def max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def residuals(pairs, rep) -> list:
    """max |evaluate(poly_a) - evaluate(poly_b)| over the window, for each
    pair (poly_a, poly_b).

    Both sides are summed, term by term in the order `evaluate` adds them,
    on the entries their walks reach; every other entry is 0 - 0, so each
    result is bit-identical to the evaluated difference.  All the pairs are
    walked at one internal size, and a word once for all of them
    (`_window_differences`)."""
    return [max_abs(diff) for _, _, diff in _window_differences(pairs, rep)]

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
