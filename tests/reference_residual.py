"""The per-identity exact residual loop that the prefix-trie walk of
`labels.combos_residuals` replaced, kept for tests that compare the two:
every combo of every identity walks its own path from every window label
(`walk_path`, or a branching walk on a tensor representation), its
coefficient times that product is added to (or, on the right side,
subtracted from) its row in combo order, and each window row is converted
to float and folded into the residual one by one.  It reads only the
kernel's step tables (one raw coefficient per step), not its trie: it
walks one path at a time, through its own copies of the per-path walk
(`walk_path`, `segment_path`) that the kernel no longer has."""

from mpmath.libmp import (fone, fzero, mpf_add, mpf_mul, mpf_sub,
                          round_nearest)

from qsphere.report import max_or_nan
from qsphere.labels import MP_DPS, step_tables, walk_dps, window_labels
from qsphere.mpscalar import MPCtx, mp_ctx
from qsphere.reps import TensorRep

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


def branch_walk(path, label, prec: int) -> dict:
    """{end label: raw value} of a walk that branches: each step multiplies
    the value reaching a label and sums what lands on one label, in frontier
    order; None stands for the exact 1 a walk starts from."""
    frontier = {label: None}
    for table in path:
        nxt = {}
        for lab, val in frontier.items():
            for lab2, c in table[lab]:
                p = c if val is None else mpf_mul(val, c, prec, _RND)
                old = nxt.get(lab2)
                nxt[lab2] = p if old is None else mpf_add(old, p, prec, _RND)
        frontier = nxt
        if not frontier:
            break
    return {lab: fone if val is None else val
            for lab, val in frontier.items()}


def combo_column(tables, combos, label, rows=None, sub=False) -> dict:
    """Column `label` of compiled combos: each coef * product is added to
    (with `sub`, subtracted from) its row of `rows`, in combo order, a
    missing row standing for 0; {row label: raw value}."""
    prec = tables.ctx.prec
    branched = isinstance(tables.rep(), TensorRep)
    rows = {} if rows is None else rows
    for path, coef in combos:
        if branched:
            ends = branch_walk(path, label, prec).items()
        else:
            hit = walk_path(path, label, prec)
            ends = () if hit is None else (hit,)
        for lab, val in ends:
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


def reference_relation_check(pres, rep) -> dict:
    """`labels.relation_check` on a label representation, one rule at a
    time."""
    from qsphere.labels import _poly_combos, _rule_combos
    return {r.name: reference_residual(rep, _poly_combos({r.lhs: 1.0}),
                                       _rule_combos(r), rep.N, MP_DPS)
            for r in pres.rules if r.defining}
