"""Command-line front end: named check suites with deterministic,
machine-readable reports.

Commands: relations, casimir, compress, theta, functional, ergodic,
theorem2, orbit, picard, oracle, all.  Exit code 0 iff every check passes,
1 on check failure, 2 on usage errors.  With --json the canonical report
replaces the human-readable summary on stdout (or goes to --out).

Each suite has one call (`_suite_calls`), which reads its arguments from a
namespace.  A single command passes the command line's; `all` runs every
suite on the command line's namespace under the flags `ALL_ARGS` sets for
it, and refuses where one of those suite runs would.

The modules imported here load no numpy, no mpmath, no dataclasses (nor
the inspect it brings) and no pickle: `all`'s fork imports pickle and
signal in the call.  A command that walks float shifts (`_walks_floats`)
loads numpy, with the float layer (`reps`, `action`, `casimir`, `morita`),
once in `run` before its first suite; the suites take their float names by
function-local imports.  A command that walks exactly (`_walks_exact`)
loads mpmath with `mpscalar`, the one module that imports it, there too,
so `all` loads both before it forks.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

from . import __version__
from .qcore import QParams, tau
from .ncalg import (
    NCPoly,
    a_gen,
    basis_words,
    make_presentation,
    normal_form,
    random_words,
    RewriteCapError,
)
from .labels import relation_check, rep_bl, rep_podles
from .invariance import (
    DependentMonomialsError,
    casimir_invariance,
    invariance_defects,
    spin2l_check,
)
from .report import VerificationReport, canonical_json, max_or_nan

TOL_RELATIONS = 1e-11
TOL_XI = 1e-12
TOL_SPECTRUM = 1e-9
TOL_COMPLETENESS = 1e-11
TOL_COMPRESS = 1e-10
TOL_COMPRESS_T = 1e-11
TOL_THETA = 1e-10
TOL_ERGODIC = 1e-8
TOL_THEOREM2 = 1e-10
TOL_SUPPORT = 1e-11
TOL_RP2 = 1e-12
TOL_ORACLE = 1e-9
SLOPE_MARGIN = 0.2

# every suite in report order, with the flags `all` sets for it; the rest
# it reads from the command line (oracle's --N capped at 48, `_all_args`)
ALL_ARGS = {
    "relations": {"x": 1.0, "l": 1.0}, "casimir": {"x": 0.7},
    "compress": {"x": 0.7}, "theta": {"l": 1.0},
    "functional": {"x": 1.0, "l": 0.5}, "ergodic": {"x": 1.0, "l": 0.0},
    "theorem2": {"l": 0.5}, "orbit": {"x": 0.3, "y": 1.7},
    "picard": {"x": 0.0}, "oracle": {"x": 1.0, "l": 0.5}}
# the suites of `all` that a forked worker certifies while this process
# certifies the rest.  At the defaults the halves are about even: run alone
# after the float modules load, the worker's takes 0.125 s and this
# process's 0.155 s in reference-host seconds (0.13 and 0.17 s wall;
# medians of 15 fresh processes each, 2-vCPU VM).
# Ergodic stays here, so LAPACK never runs in the forked child and its
# dependent-monomials message goes to this process's stderr
ALL_WORKER = ("relations", "functional", "compress", "theorem2")


def _params(p, **extra):
    out = {"q": p.q}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_relations(p, x, l, N, tol, algs, dump=None):
    reports = []
    sphere = None   # podles and uqmp read one representation, one step table
    for alg in algs:
        rpt = VerificationReport(
            f"relations_{alg}",
            _params(p, alg=alg, x=(x if alg in ("podles", "uqmp") else None),
                    l=(l if alg == "bl" else None), N=N, tol=tol))
        if alg in ("podles", "uqmp"):
            if sphere is None:
                sphere = rep_podles(p, x, "direct_sum", N)
            rep = sphere
            residuals = relation_check(make_presentation(
                alg, p, x=x if alg == "podles" else None), rep)
        elif alg == "bl":
            sphere = None   # bl does not read the sphere's step tables
            rep = rep_bl(p, l, N)
            residuals = relation_check(make_presentation("bl", p, l=l), rep)
        elif alg == "uqsu2":
            from .reps import spin_half
            rep = spin_half(p)
            residuals = relation_check(make_presentation("uqsu2", p), rep)
        else:
            raise ValueError(f"unknown algebra {alg!r}")
        for name, r in residuals.items():
            rpt.add(name, r, tol)
        if dump and alg != "uqsu2":
            from .reps import dump_matrix, evaluate
            for g in ("X", "Y", "Z"):
                dump_matrix(evaluate(NCPoly({(g,): 1.0}), rep),
                            f"{dump}.{alg}.{g}.txt")
        reports.append(rpt)
    return reports


def suite_casimir(p, x, N, dump=None):
    rpt = VerificationReport(
        "casimir",
        _params(p, x=x, N=N, tau_lower=tau(p, x - 1), tau_upper=tau(p, x + 1)))
    import numpy as np
    from .casimir import (casimir_matrix, covered_indices, eigvec_shifts,
                          numeric_interior_spectrum, tensor_t)
    from .reps import (adjoint, dump_matrix, max_abs, summed, walk_defect,
                       walk_difference)
    n = 2 * N
    slots = np.arange(n)
    for sign in ("plus", "minus"):
        T = tensor_t(p, x, sign, N)
        rpt.add(f"selfadjoint_{sign}",
                walk_defect([[T]], [[adjoint(T, n)]], slots), TOL_XI)
        U = {b: eigvec_shifts(p, x, sign, b, N) for b in (1, -1)}
        # the eigenprojections U U^H, each entry rounded once
        ps = {b: summed([U[b], adjoint(U[b], n)], n) for b in (1, -1)}
        gram = 0.0
        for b, tag in ((1, "upper"), (-1, "lower")):
            val = tau(p, x + b)
            ks = np.arange(len(U[b][0][0]))
            _, pos, diff = walk_difference([[T, U[b]]], [[val, U[b]]], ks)
            norms = np.sqrt(np.bincount(pos, diff.real ** 2 + diff.imag ** 2))
            rpt.add(f"xi_residual_{sign}_{tag}", max_abs(norms), TOL_XI)
            for c in (1, -1):
                gram = max_or_nan(gram, walk_defect(
                    [[adjoint(U[c], n), U[b]]], [[]] if c == b else [], ks))
            rpt.add(f"projection_idempotent_{sign}_{tag}",
                    walk_defect([[ps[b], ps[b]]], [[ps[b]]], slots), TOL_XI)
            rpt.add(f"projection_eigen_{sign}_{tag}", walk_defect(
                [[ps[b], T]], [[val, ps[b]]], slots),
                TOL_COMPLETENESS)
        rpt.add(f"orthonormality_{sign}", gram, TOL_XI)
        # neither family touches the uncovered slot
        rpt.add(f"completeness_{sign}", walk_defect(
            [[ps[1]], [ps[-1]]], [[]], covered_indices(N)), TOL_COMPLETENESS)
        spectrum = numeric_interior_spectrum(p, x, sign, N)
        lo, hi = tau(p, x - 1), tau(p, x + 1)
        dist = np.minimum(np.abs(spectrum - lo), np.abs(spectrum - hi))
        # no eigenpair clear of the truncation edge certifies nothing
        rpt.add(f"spectrum_{sign}",
                float(dist.max()) if dist.size else math.inf, TOL_SPECTRUM)
        if dump:
            dump_matrix(casimir_matrix(p, x, sign, N),
                        f"{dump}.casimir.{sign}.txt")
    inv = casimir_invariance(p, x, N)
    for g, r in inv.items():
        rpt.add(f"invariance_{g}", r, TOL_COMPLETENESS)
    return [rpt]


def suite_compress(p, x, N, dump=None):
    from .casimir import compress_identify
    from .reps import dump_matrix, evaluate
    rpt = VerificationReport("compress", _params(p, x=x, N=N))
    for sign in ("plus", "minus"):
        for branch, tag in ((1, "up"), (-1, "down")):
            crep, res = compress_identify(p, x, sign, branch, N)
            for key, r in res.items():
                if key.startswith("generator_"):
                    rpt.add(f"{key}_{sign}_{tag}", r, TOL_COMPRESS)
            rpt.add(f"t_scalar_{sign}_{tag}", res["t_scalar"], TOL_COMPRESS_T)
            rpt.add(f"relations_{sign}_{tag}", res["relations"], TOL_COMPRESS)
            if sign == "plus":
                rpt.add(f"z_positive_distinct_{tag}",
                        res["z_positive_distinct"], 0.0)
            if dump:
                for g in ("X", "Y", "Z"):
                    dump_matrix(evaluate(NCPoly({(g,): 1.0}), crep),
                                f"{dump}.compress.{sign}.{tag}.{g}.txt")
    return [rpt]


def suite_theta(p, l, N):
    rpt = VerificationReport("theta", _params(p, l=l, N=N, tol=TOL_THETA))
    for name, r in spin2l_check(p, l, N).items():
        rpt.add(name, r, TOL_THETA)
    return [rpt]


def suite_functional(p, x, l, N):
    rpt = VerificationReport("functional", _params(p, x=x, l=l, N=N))
    windows = (N - 16, N)
    slope_target = 2.0 * math.log(p.q)
    for tag, pres, rep_of in (
        ("podles", make_presentation("podles", p, x=x),
         lambda W: rep_podles(p, x, "direct_sum", W)),
        ("bl", make_presentation("bl", p, l=l),
         lambda W: rep_bl(p, l, W)),
    ):
        words = basis_words(pres, 4)
        worst = {}
        for W in windows:
            rep = rep_of(W)
            acc = {"K": 0.0, "E": 0.0, "F": 0.0}
            for d in invariance_defects(words, rep, W):
                for key in acc:
                    acc[key] = max_or_nan(acc[key], d[key])
            worst[W] = acc
            bound = 100.0 * p.q ** (2 * (W - 8))
            rpt.add(f"{tag}_bound_N{W}", max_or_nan(*acc.values()), bound)
        for key in ("E", "F"):
            lo, hi = worst[windows[0]][key], worst[windows[1]][key]
            if lo <= 0 or hi <= 0:
                rpt.add(f"{tag}_slope_{key}", 0.0,
                        SLOPE_MARGIN * abs(slope_target))
                continue
            slope = (math.log(hi) - math.log(lo)) / (windows[1] - windows[0])
            rpt.add(f"{tag}_slope_{key}", abs(slope - slope_target),
                    SLOPE_MARGIN * abs(slope_target))
    return [rpt]


def _ergodic_report(p, x, l, D, N):
    return VerificationReport(
        "ergodic", _params(p, x=x, l=l, D=D, N=N, rank_window=min(24, N)))


def suite_ergodic(p, x, l, D, N):
    from .action import invariant_subspace, kernel_residual
    rank_window = min(24, N)
    rpt = _ergodic_report(p, x, l, D, N)
    pres = make_presentation("podles", p, x=x)
    rep = rep_podles(p, x, "direct_sum", N)
    out = invariant_subspace(pres, rep, D, rank_window=rank_window)
    rpt.add("podles_dim", abs(out["dim"] - 1), 0.0)
    rpt.add("podles_sv_gap",
            out["sv_largest_zero"] / max(out["sv_smallest_nonzero"], 1e-300),
            1e-3)
    pres_b = make_presentation("bl", p, l=l)
    rep_b = rep_bl(p, l, N)
    out_b = invariant_subspace(pres_b, rep_b, D, rank_window=rank_window)
    expected = 2 if l == 0 else 1
    rpt.add("bl_dim", abs(out_b["dim"] - expected), 0.0)
    if l == 0:
        rpt.add("bl0_basis_unit", kernel_residual(out_b, ()), TOL_ERGODIC)
        rpt.add("bl0_basis_a0", kernel_residual(out_b, (a_gen(0),)),
                TOL_ERGODIC)
        out_t = invariant_subspace(pres_b, rep_b, D,
                                   rank_window=min(16, rank_window),
                                   tensor_units=True)
        rpt.add("b0m2_dim", abs(out_t["dim"] - 4), 0.0)
    return [rpt]


def suite_theorem2(p, l, N):
    from .morita import (a0_block, basis_change, basis_change_checks,
                         podles_part_compression, rp2_suite)
    rpt = VerificationReport("theorem2", _params(p, l=l, N=N))
    bc = basis_change(p, l, N)
    for name, r in basis_change_checks(bc, N).items():
        rpt.add(name, r, TOL_COMPLETENESS)
    branches = [(1, "up")] + ([(-1, "down")] if l > 0 else [])
    for branch, tag in branches:
        _, res = a0_block(p, l, branch, N, bc)
        rpt.add(f"a0_match_{tag}", res["match"], TOL_THEOREM2)
        rpt.add(f"a0_wrong_summand_{tag}", res["wrong_summand"], TOL_SUPPORT)
        rpt.add(f"a0_cross_{tag}", res["cross"], TOL_SUPPORT)
    for name, r in podles_part_compression(p, l, N, bc).items():
        rpt.add(f"sphere_compress_{name}", r, TOL_THEOREM2)
    for name, r in rp2_suite(p, N).items():
        rpt.add(f"rp2_{name}", r, TOL_RP2)
    return [rpt]


def suite_orbit(p, x, y):
    from .orbits import orbit_equivalent
    eq, m = orbit_equivalent(x, y)
    rpt = VerificationReport(
        "orbit", _params(p, x=_param_repr(x), y=_param_repr(y),
                         equivalent=eq, witness=m))
    rpt.add("orbit_equivalent", 0.0 if eq else 1.0, 0.0)
    if eq and m is not None:
        rpt.add("witness_identity",
                abs(abs(float(x) + m) - abs(float(y))), 1e-12)
    return [rpt]


def suite_picard(p, x):
    from .orbits import picard_group
    group = picard_group(x)
    rpt = VerificationReport(
        "picard", _params(p, x=_param_repr(x), group=group))
    rpt.add("classified", 0.0, 0.0)
    return [rpt]


def suite_oracle(p, x, l, N, seed, count):
    from .reps import residuals
    reports = []
    targets = [("podles", make_presentation("podles", p, x=x),
                rep_podles(p, x, "direct_sum", N)),
               ("bl", make_presentation("bl", p, l=l), rep_bl(p, l, N))]
    for tag, pres, rep in targets:
        rpt = VerificationReport(
            f"oracle_{tag}",
            _params(p, x=(x if tag == "podles" else None),
                    l=(l if tag == "bl" else None), N=N, seed=seed,
                    count=count))
        # a word drawn again is certified once and counted per draw
        pairs, counts, cap_hits = [], [], 0
        for w, draws in Counter(random_words(pres, count, 6,
                                             seed=seed)).items():
            poly = NCPoly({w: 1.0})
            try:
                nf = normal_form(poly, pres)
            except RewriteCapError:
                cap_hits += draws
                continue
            pairs.append((poly, nf))
            counts.append(draws)
        # the normal-form basis up to the longest normal-form term
        basis = set(basis_words(pres, max(
            (len(v) for _, nf in pairs for v in nf.terms), default=0)))
        span_fail = sum(draws for (_, nf), draws in zip(pairs, counts)
                        if not basis.issuperset(nf.terms))
        rpt.add("residual", max_or_nan(*residuals(pairs, rep)), TOL_ORACLE)
        rpt.add("cap_hits", float(cap_hits), 0.0)
        rpt.add("basis_span_failures", float(span_fail), 0.0)
        reports.append(rpt)
    return reports


def _param_repr(v):
    return v if isinstance(v, str) else float(v)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _sphere_param(text: str):
    if text.lower() in ("standard", "inf", "infinity"):
        return "standard"
    return float(text)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one line: exit 2, no usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# value flags whose negative values may be written in scientific notation
SIGNED_FLAGS = ("--q", "--x", "--y")


def _glue_negative_values(argv):
    """Join '--x -1e-3' into '--x=-1e-3'.  argparse takes a token starting
    with '-' for an option unless it looks like '-1' or '-.5', so it would
    read '-1e-3' as a flag and report a missing argument."""
    out = []
    for tok in argv:
        if out and out[-1] in SIGNED_FLAGS and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="verify",
        description="certify the quantized-sphere algebra identities at "
                    "finite truncation")
    ap.add_argument("command", choices=[*ALL_ARGS, "all"])
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--x", type=_sphere_param, default=0.7)
    ap.add_argument("--y", type=_sphere_param, default=None)
    ap.add_argument("--l", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--D", type=int, default=6)
    ap.add_argument("--tol", type=float, default=None,
                    help="threshold of the relations residuals (default "
                         f"{TOL_RELATIONS:g}); every other command, all "
                         "included, refuses it")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--alg", default=None,
                    choices=["podles", "uqmp", "bl", "uqsu2"],
                    help="the one algebra relations checks; every other "
                         "command refuses it")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--out", default=None, metavar="PATH")
    ap.add_argument("--dump", default=None, metavar="PATH")
    return ap


def _min_N(cmd: str, a) -> int:
    """Smallest --N at which `cmd` builds its representations at the
    arguments `a`: rep_podles needs N >= 4 and rep_bl(l) N >= 4l+4;
    functional's lower window is N-16, and theorem2 compares with
    bl(l+1/2) at N-1.  compress builds its compressed representations from
    K = N-1 eigenvectors per family; at N = 5 the stored size K = 4 equals
    their window, which leaves no padding, so their relations would be read
    at the truncation edge."""
    bl = int(4 * a.l) + 4
    if cmd in ("theta", "ergodic", "oracle"):
        return bl
    if cmd == "relations":
        return bl if a.alg in (None, "bl") else 4
    if cmd == "functional":
        return bl + 16
    if cmd == "theorem2":
        return bl + 3
    if cmd == "compress":
        return 6
    return 4


def _reach(cmd: str, a) -> float:
    """The largest E for which `cmd` forms q^-E in double precision: 2|x|
    in the podles shifts and Casimir eigenvectors, |x|+1 in tau(x)/q, 6l in
    the bl rules, 4l+2 in theorem2's block, 2N+|x| in compress's tensor
    Zi."""
    x = abs(a.x) if isinstance(a.x, float) else 0.0
    pod, bl, alg = max(2 * x, x + 1), 6 * a.l, a.alg
    return {"relations": max(pod if a.dump and alg != "bl" else 0,
                             x + 1 if alg in (None, "podles") else 0,
                             bl if alg in (None, "bl") else 0),
            "casimir": pod, "compress": max(pod, 2 * a.N + x),
            "functional": max(x + 1, bl),
            "ergodic": max(pod, bl), "theorem2": 4 * a.l + 2,
            "oracle": max(pod, bl)}.get(cmd, 0.0)


def _input_error(args):
    """Why the parsed arguments cannot be run, or None."""
    for flag, v in (("--x", args.x), ("--y", args.y)):
        if isinstance(v, float) and not math.isfinite(v):
            return f"{flag} must be finite or 'standard', got {v}"
    if not 0.0 < args.q < 1.0:
        return f"--q must lie strictly between 0 and 1, got {args.q}"
    if args.N < 4:
        return f"--N must be at least 4, got {args.N}"
    if args.count < 1:
        return f"--count must be at least 1, got {args.count}"
    if not (args.l >= 0 and (2 * args.l).is_integer()):
        return f"--l must be a nonnegative half-integer, got {args.l}"
    if not 0 <= args.D <= 8:
        return f"--D must lie between 0 and 8, got {args.D}"
    if args.command == "theorem2" and args.l == 0:
        return "theorem2 needs --l > 0: the l = 0 block has no A(+-1)"
    for flag, v in (("--tol", args.tol), ("--alg", args.alg)):
        if v is not None and args.command != "relations":
            return f"{flag}: only relations reads it, not {args.command}"
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        return f"--tol must be finite and nonnegative, got {args.tol}"
    what = args.command
    if what == "relations" and args.alg == "uqsu2":
        what += " --alg uqsu2"
    if args.dump and what not in ("relations", "casimir", "compress"):
        return f"--dump: {what} writes no matrix files"
    for flag, path in (("--out", args.out), ("--dump", args.dump)):
        folder = os.path.dirname(path or "") or "."
        if path and not os.path.isdir(folder):
            return f"{flag}: no directory {folder}"
    if args.out and os.path.isdir(args.out):
        return f"--out: {args.out} is a directory, not a file"
    # `all` refuses where one of its suites would
    runs = (_all_args(args) if args.command == "all"
            else {args.command: args}).items()
    need = max(_min_N(cmd, a) for cmd, a in runs)
    if args.N < need:
        at = (f" at --l {args.l:g}"
              if "l" in ALL_ARGS.get(args.command, {}) else "")
        return (f"--N must be at least {need} for {args.command}{at}, "
                f"got {args.N}")
    # 2|x| itself overflows to inf at |x| > 8.9e307, and q^-inf raises
    # nothing, so the guard reads the power's value too
    reach = max(_reach(cmd, a) for cmd, a in runs)
    try:
        fits = math.isfinite(args.q ** -reach)
    except OverflowError:
        fits = False
    if not fits:
        return (f"{args.command} forms q^-{reach:g}, which overflows "
                f"float64 at --q {args.q:g}; lower --x, --l or --N")
    return None


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_negative_values(argv))
        if isinstance(args.x, str) and args.command not in ("orbit", "picard"):
            ap.error("only orbit/picard accept the standard sphere")
        if args.command == "orbit" and args.y is None:
            ap.error("orbit needs --y")
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    problem = _input_error(args)
    if problem:
        print(f"{ap.prog}: error: {problem}", file=sys.stderr)
        return 2
    # one OpenBLAS thread unless the user set it, before numpy can load:
    # the only LAPACK calls are ergodic's small SVDs, and `all` forks
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if _walks_exact(args):
        from . import mpscalar  # noqa: F401  (mpmath, for the exact walks)
    if _walks_floats(args):
        from . import action, morita  # noqa: F401  (the whole float layer)
    p = QParams(args.q)
    try:
        reports = _suites(args, p)
    except DependentMonomialsError as e:
        # the one usage error that only a suite can find: at these
        # parameters the rank window cannot separate the degree-D monomials
        print(f"{ap.prog}: error: {args.command}: {e}; lower --D",
              file=sys.stderr)
        return 2

    if args.json or args.out:
        payload = canonical_json(reports, __version__)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        if args.json and not args.out:
            sys.stdout.write(payload)
            sys.stdout.write("\n")
    if not (args.json and not args.out):
        for rpt in sorted(reports, key=lambda r: r.check):
            for line in rpt.summary_lines():
                print(line)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _walks_exact(args) -> bool:
    """Whether the command walks exactly, so needs mpmath: relations on
    label representations (every algebra but uqsu2), casimir for its
    invariance, theta, functional and all."""
    if args.command == "relations":
        return args.alg != "uqsu2"
    return args.command in ("all", "casimir", "theta", "functional")


def _walks_floats(args) -> bool:
    """Whether the command walks float shifts, so needs numpy: every
    command but theta, functional and relations on label representations,
    which certify in mpmath alone, and orbit and picard, which compute no
    operator (`orbits` is plain arithmetic on the parameters)."""
    if args.command == "relations":
        return args.alg == "uqsu2" or bool(args.dump)
    return args.command in ("all", "oracle", "casimir", "compress",
                            "ergodic", "theorem2")


def _suites(args, p) -> list:
    """The reports of the suites the command runs."""
    if args.command != "all":
        return _suite_calls(args, p)[args.command]()
    calls = {name: _suite_calls(a, p)[name]
             for name, a in _all_args(args).items()}
    theirs, mine = _with_worker(
        lambda: {name: calls[name]() for name in ALL_WORKER},
        lambda: {name: call() for name, call in calls.items()
                 if name not in ALL_WORKER})
    done = {**theirs, **mine}
    return [rpt for name in calls for rpt in done[name]]


def _all_args(args) -> dict:
    """`all`'s suites in report order, each with the command line's
    namespace under the flags `all` sets for it."""
    return {name: argparse.Namespace(**{
                **vars(args), **flags,
                "N": min(args.N, 48) if name == "oracle" else args.N})
            for name, flags in ALL_ARGS.items()}


def _suite_calls(a, p) -> dict:
    """Every suite as a call that returns its reports, its arguments read
    from the namespace `a`.  Built per call, so a suite function rebound on
    this module is the one called."""
    ergodic = _all_ergodic if a.command == "all" else suite_ergodic
    return {
        "relations": lambda: suite_relations(
            p, a.x, a.l, a.N,
            TOL_RELATIONS if a.tol is None else a.tol,
            [a.alg] if a.alg else ["podles", "uqmp", "bl"], a.dump),
        "casimir": lambda: suite_casimir(p, a.x, a.N, a.dump),
        "compress": lambda: suite_compress(p, a.x, a.N, a.dump),
        "theta": lambda: suite_theta(p, a.l, a.N),
        "functional": lambda: suite_functional(p, a.x, a.l, a.N),
        "ergodic": lambda: ergodic(p, a.x, a.l, a.D, a.N),
        "theorem2": lambda: suite_theorem2(p, a.l, a.N),
        "orbit": lambda: suite_orbit(p, a.x, a.y),
        "picard": lambda: suite_picard(p, a.x),
        "oracle": lambda: suite_oracle(p, a.x, a.l, a.N, a.seed, a.count),
    }


def _all_ergodic(p, x, l, D, N):
    try:
        return suite_ergodic(p, x, l, D, N)
    except DependentMonomialsError as e:
        # the other suites' reports stand; ergodic certified nothing
        print(f"verify: all: ergodic: {e}", file=sys.stderr)
        rpt = _ergodic_report(p, x, l, D, N)
        rpt.add("dependent_monomials", math.inf, 0.0)
        return [rpt]


def _with_worker(worker, parent):
    """(worker(), parent()), with worker() computed in a forked child while
    this process computes parent().  The child sends its result, or the
    exception it raised, pickled through a pipe, and that exception is
    raised here.  No child outlives the call: it is reaped on every path,
    and killed first when parent() raises."""
    import pickle
    import signal
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            try:
                out = worker()
            except BaseException as exc:
                out = exc
            with open(wfd, "wb") as pipe:
                pickle.dump(out, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        try:
            mine = parent()
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the forked worker of `all` exited with status "
                           f"{code} before sending its reports")
    theirs = pickle.loads(data)
    if isinstance(theirs, BaseException):
        raise theirs
    return theirs, mine


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
