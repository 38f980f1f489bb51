"""The per-identity exact residual loop that the prefix-trie walk of
`labels.combos_residuals` replaced, kept for tests that compare the two:
every combo of every identity walks its own path from every window label
(`walk_path`), its coefficient times that product is added to (or, on the
right side, subtracted from) its row in combo order, and each window row is
converted to float and folded into the residual one by one.  It reads only
the kernel's step tables (one raw coefficient per step), not its trie: it
walks one path at a time, through its own copies of the per-path walk
(`walk_path`, `segment_path`) that the kernel no longer has.

On the tensor with the coaction it keeps its own copy of the coaction
(`coaction`) and two references built on it, not on the kernel's tables:
the spin-block expansion that `labels.tensor_residuals` makes, in the
kernel's order (`spin_blocks`, walked block by block on the base
representation by `reference_tensor_residual`), and the walk that branches
on the labels (fam, k, spin) of a `reps.TensorRep` from its base's steps,
summing what lands on one label (`branch_walk`)."""

import mpmath as mp
from mpmath.libmp import (fone, fzero, mpf_add, mpf_mul, mpf_sub,
                          round_nearest)

from qsphere.report import max_or_nan
from qsphere.labels import MP_DPS, step_tables, walk_dps, window_labels
from qsphere.mpscalar import MPCtx, mp_ctx
from reference_scalar import MPObjectCtx, raw

_RND = round_nearest


def segment_path(tables, segs) -> list:
    """The step tables of `segs` (an operator product) in walk order, right
    to left."""
    return [tables[seg] for seg in reversed(segs)]


def walk_path(path, label, prec: int):
    """Walk `label` through the step tables of `path` on a label
    representation: None where a step dies, else (end label, raw product),
    the labels followed first (the empty path's product is 1)."""
    coeffs = []
    for table in path:
        hit = table[label]
        if hit is None:
            return None
        label, c = hit
        coeffs.append(c)
    it = iter(coeffs)
    p = next(it, fone)
    for c in it:
        p = mpf_mul(p, c, prec, _RND)
    return label, p


def compile_combos(tables, combos) -> list:
    """Combos as (path, raw coefficient)."""
    return [(segment_path(tables, segs), MPCtx.number(coef))
            for coef, segs in combos]


def coaction(g, ctx) -> list:
    """The coaction, copied here: tensor generator g as [(base generator,
    {(row spin, column spin): value})], values in the arithmetic of ctx,
    spin 0 being e_+ and spin 1 e_-."""
    one, q1, qm1 = ctx.one, ctx.qpow(1), ctx.qpow(-1)
    lam_inv = ctx.sub(q1, qm1)
    return {
        "Z": [("Z", {(0, 0): q1, (1, 1): qm1})],
        "Zi": [("Zi", {(0, 0): qm1, (1, 1): q1})],
        "X": [("X", {(0, 0): one, (1, 1): one}), ("Z", {(1, 0): lam_inv})],
        "Y": [("Y", {(0, 0): one, (1, 1): one}), ("Z", {(0, 1): lam_inv})],
        "T": [("T", {(0, 0): qm1, (1, 1): q1}),
              ("Z", {(0, 0): ctx.sub(ctx.qpow(2), one),
                     (1, 1): ctx.sub(ctx.qpow(-2), one)}),
              ("X", {(0, 1): lam_inv}), ("Y", {(1, 0): lam_inv})],
    }[g]


def spin_blocks(combos, ctx) -> dict:
    """Combos of tensor generators as {(row spin, column spin): combos of
    plain base letters}: a product's block is the sum over chains of
    coaction entries whose spins meet, each chain's coefficient the combo's
    times its values in segment order, multiplied in ctx as the kernel
    multiplies them (a value of exactly 1 too, which leaves it as it is)."""
    out = {}
    for coef, segs in combos:
        chain = [(sp, sp, ctx.number(coef), []) for sp in (0, 1)]
        for g, _ in segs:
            chain = [(row, col2, ctx.mul(c, v), base + [(base_g, False)])
                     for row, col, c, base in chain
                     for base_g, entries in coaction(g, ctx)
                     for (row2, col2), v in entries.items() if row2 == col]
        for row, col, c, base in chain:
            out.setdefault((row, col), []).append((c, base))
    return out


def tensor_branches(rep, g, label, ctx) -> list:
    """The steps of tensor generator g from label (fam, k, spin) of the
    tensor representation `rep`: [(end label, value)], in `coaction` order,
    from its base's steps (implementer letters with `rep.absorb_sign`)."""
    fam, k, sp = label
    out = []
    for base_g, entries in coaction(g, ctx):
        hit = rep.base.step(base_g, fam, k, ctx, rep.absorb_sign)
        if hit is None:
            continue
        (f2, k2), c = hit
        out += [((f2, k2, row), ctx.mul(c, v))
                for (row, col), v in entries.items() if col == sp]
    return out


def branch_walk(rep, segs, label, ctx) -> dict:
    """{end label: value} of the product of tensor generators `segs` (right
    to left) from `label` of the tensor representation `rep`: each step
    multiplies the value reaching a label and sums what lands on one label,
    in frontier order, through ctx's interface."""
    frontier = {label: ctx.one}
    for g, _ in reversed(segs):
        nxt = {}
        for lab, val in frontier.items():
            for lab2, c in tensor_branches(rep, g, lab, ctx):
                p = ctx.mul(val, c)
                nxt[lab2] = p if lab2 not in nxt else ctx.add(nxt[lab2], p)
        frontier = nxt
    return frontier


def combo_column(tables, combos, label, rows=None, sub=False) -> dict:
    """Column `label` of compiled combos: each coef * product is added to
    (with `sub`, subtracted from) its row of `rows`, in combo order, a
    missing row standing for 0; {row label: raw value}."""
    prec = tables.ctx.prec
    rows = {} if rows is None else rows
    for path, coef in combos:
        hit = walk_path(path, label, prec)
        if hit is None:
            continue
        lab, val = hit
        term = val if coef == fone else mpf_mul(val, coef, prec, _RND)
        old = rows.get(lab)
        if sub:
            term = mpf_sub(fzero if old is None else old, term, prec, _RND)
        elif old is not None:
            term = mpf_add(old, term, prec, _RND)
        rows[lab] = term
    return rows


def termwise_residual(rep, W: int, tables, lhs, rhs) -> float:
    """max |lhs - rhs| over window columns and rows, every rhs combo
    subtracted from the lhs sum one by one."""
    inside = set(window_labels(rep, W))
    worst = 0.0
    for label in window_labels(rep, W):
        rows = combo_column(tables, rhs, label,
                            combo_column(tables, lhs, label), sub=True)
        for lab, val in rows.items():
            if lab in inside:
                worst = max_or_nan(worst, MPCtx.magnitude(val))
    return worst


def reference_residual(rep, lhs, rhs, W: int, dps: int = None) -> float:
    """max |lhs - rhs| for combos walked in the shared mp context of `rep`
    at `dps` digits (window-adaptive, `walk_dps`, by default)."""
    dps = walk_dps(rep, W) if dps is None else dps
    tables = step_tables(rep, mp_ctx(rep, dps))
    return termwise_residual(rep, W, tables, compile_combos(tables, lhs),
                             compile_combos(tables, rhs))


def reference_tensor_residual(rep, lhs, rhs, W: int) -> float:
    """max |lhs - rhs| for combos of tensor generators on the window of
    rep (x) C^2: each side's spin blocks (`spin_blocks`), expanded in mpf
    objects at the walk's precision, walked on `rep` block by block
    (`reference_residual`), and the largest of the four blocks' residuals."""
    dps = walk_dps(rep, W)
    with mp.workdps(dps):
        ctx = MPObjectCtx(rep.meta["q"], rep.meta.get("x", 0.0), dps)
        a, b = ({blk: [(raw(c), segs) for c, segs in combos]
                 for blk, combos in spin_blocks(mpf_objects(side),
                                                ctx).items()}
                for side in (lhs, rhs))
    return max_or_nan(*(reference_residual(rep, a.get(blk, []),
                                           b.get(blk, []), W, dps)
                        for blk in ((0, 0), (0, 1), (1, 0), (1, 1))))


def mpf_objects(combos) -> list:
    """Combos with each raw coefficient as an mpf object."""
    return [(mp.make_mpf(c) if type(c) is tuple else c, segs)
            for c, segs in combos]


def reference_relation_check(pres, rep) -> dict:
    """`labels.relation_check` on a label representation, one rule at a
    time."""
    from qsphere.labels import _poly_combos, _rule_combos
    return {r.name: reference_residual(rep, _poly_combos({r.lhs: 1.0}),
                                       _rule_combos(r), rep.N, MP_DPS)
            for r in pres.rules if r.defining}
