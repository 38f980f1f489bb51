"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see them)."""

import json
import math
import subprocess
import sys

import numpy as np

from qsphere.qcore import QParams, tau
from qsphere.ncalg import (
    NCPoly,
    RewriteCapError,
    a_gen,
    basis_words,
    make_presentation,
    normal_form,
    random_words,
)
from qsphere.labels import relation_check, rep_bl, rep_podles
from qsphere.reps import evaluate, max_abs
from qsphere.casimir import (
    branch_indices,
    casimir_matrix,
    compress_identify,
    covered_indices,
    numeric_interior_spectrum,
)
from qsphere.action import invariant_subspace, kernel_residual
from qsphere.invariance import invariance_defects, spin2l_check
from qsphere.orbits import orbit_equivalent, picard_group
from qsphere.morita import (
    a0_block,
    basis_change,
    rp2_suite,
)

from closed_form import eigvec_vector
from normal_basis import in_basis

N = 64
QS = (0.3, 0.5, 0.8)
XS = (0.35, 1.0, 2.5)
LS = (0, 0.5, 1, 1.5, 2)
P5 = QParams(0.5)


def _line(num, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {title}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_relation_suites():
    tol = 1e-11
    worst = 0.0
    for q in QS:
        p = QParams(q)
        for x in XS:
            rep = rep_podles(p, x, "direct_sum", N)
            for pres in (make_presentation("podles", p, x=x),
                         make_presentation("uqmp", p)):
                worst = max(worst, max(relation_check(pres, rep).values()))
        for l in LS:
            pres = make_presentation("bl", p, l=l)
            rep = rep_bl(p, l, N)
            worst = max(worst, max(relation_check(pres, rep).values()))
    _line(1, "defining relations (podles, uqmp, bl)", worst <= tol,
          f"max residual {worst:.3e} <= {tol:.0e}")


def test_criterion_02_casimir_split():
    worst_xi, worst_spectrum, worst_comp = 0.0, 0.0, 0.0
    for x in XS:
        for sign in ("plus", "minus"):
            T2 = casimir_matrix(P5, x, sign, N)
            ps = {}
            for branch in (1, -1):
                val = tau(P5, x + branch)
                U = np.column_stack([
                    eigvec_vector(P5, x, sign, branch, k, N)
                    for k in branch_indices(sign, branch, N)])
                resid = T2 @ U - val * U
                worst_xi = max(worst_xi, float(
                    np.linalg.norm(resid, axis=0).max()))
                ps[branch] = U @ U.conj().T
            spectrum = numeric_interior_spectrum(P5, x, sign, N)
            lo, hi = tau(P5, x - 1), tau(P5, x + 1)
            worst_spectrum = max(worst_spectrum, float(np.minimum(
                np.abs(spectrum - lo), np.abs(spectrum - hi)).max()))
            cov = covered_indices(N)
            total = (ps[1] + ps[-1])[np.ix_(cov, cov)]
            worst_comp = max(worst_comp,
                             max_abs(total - np.eye(len(cov))))
    ok = worst_xi <= 1e-12 and worst_spectrum <= 1e-9 and worst_comp <= 1e-11
    _line(2, "Casimir spectral split", ok,
          f"xi {worst_xi:.3e} <= 1e-12, spectrum {worst_spectrum:.3e} <= 1e-9, "
          f"completeness {worst_comp:.3e} <= 1e-11")


def test_criterion_03_compression_identification():
    worst_gen, worst_t = 0.0, 0.0
    for x in XS:
        for sign in ("plus", "minus"):
            for branch in (1, -1):
                _, res = compress_identify(P5, x, sign, branch, N)
                worst_gen = max(worst_gen, max(
                    v for k, v in res.items() if k.startswith("generator_")))
                worst_t = max(worst_t, res["t_scalar"])
    ok = worst_gen <= 1e-10 and worst_t <= 1e-11
    _line(3, "eigenprojection compression matches shifted series", ok,
          f"generators {worst_gen:.3e} <= 1e-10, T {worst_t:.3e} <= 1e-11")


def test_criterion_04_theta_spin_law():
    worst = 0.0
    for l in (0.5, 1, 1.5, 2):
        worst = max(worst, max(spin2l_check(P5, l, N).values()))
    _line(4, "spin-2l ladder laws", worst <= 1e-10,
          f"max residual {worst:.3e} <= 1e-10")


def test_criterion_05_invariant_functionals():
    windows = (48, 64)
    slope_target = 2.0 * math.log(P5.q)
    worst_rel, worst_slope = 0.0, 0.0
    cases = [("podles", x, lambda W, x=x: rep_podles(P5, x, "direct_sum", W),
              make_presentation("podles", P5, x=x)) for x in XS]
    cases += [("bl", l, lambda W, l=l: rep_bl(P5, l, W),
               make_presentation("bl", P5, l=l)) for l in (0.5, 1)]
    for tag, pv, rep_of, pres in cases:
        words = basis_words(pres, 4)
        acc = {}
        for W in windows:
            rep = rep_of(W)
            top = {"K": 0.0, "E": 0.0, "F": 0.0}
            for d in invariance_defects(words, rep, W):
                for key in top:
                    top[key] = max(top[key], d[key])
            bound = 100.0 * P5.q ** (2 * (W - 8))
            worst_rel = max(worst_rel, max(top.values()) / bound)
            acc[W] = top
        for key in ("E", "F"):
            slope = (math.log(acc[64][key]) - math.log(acc[48][key])) / 16.0
            worst_slope = max(worst_slope,
                              abs(slope - slope_target) / abs(slope_target))
    ok = worst_rel <= 1.0 and worst_slope <= 0.2
    _line(5, "invariant functionals (bound + decay slope)", ok,
          f"bound ratio {worst_rel:.3e} <= 1, slope deviation "
          f"{worst_slope:.3f} <= 0.2")


def test_criterion_06_ergodicity():
    D = 6
    fails = []
    for x in (0.35, 1.0):
        pres = make_presentation("podles", P5, x=x)
        rep = rep_podles(P5, x, "direct_sum", N)
        dim = invariant_subspace(pres, rep, D)["dim"]
        if dim != 1:
            fails.append(f"podles({x}) dim {dim}")
    for l in (0.5, 1):
        pres = make_presentation("bl", P5, l=l)
        dim = invariant_subspace(pres, rep_bl(P5, l, N), D)["dim"]
        if dim != 1:
            fails.append(f"bl({l}) dim {dim}")
    pres0 = make_presentation("bl", P5, l=0)
    rep0 = rep_bl(P5, 0, N)
    out0 = invariant_subspace(pres0, rep0, D)
    if out0["dim"] != 2:
        fails.append(f"bl(0) dim {out0['dim']}")
    basis_res = max(kernel_residual(out0, ()),
                    kernel_residual(out0, (a_gen(0),)))
    if basis_res > 1e-8:
        fails.append(f"bl(0) basis residual {basis_res:.2e}")
    out_t = invariant_subspace(pres0, rep0, D, rank_window=16,
                               tensor_units=True)
    if out_t["dim"] != 4:
        fails.append(f"B0(x)M2 dim {out_t['dim']}")
    _line(6, "ergodicity / invariant subspaces", not fails,
          "dims 1/1/2(basis ok)/4" if not fails else "; ".join(fails))


def test_criterion_07_theorem2_blocks():
    worst_match, worst_support = 0.0, 0.0
    for l in (0.5, 1, 1.5):
        bc = basis_change(P5, l, N)
        for branch in (1, -1):
            _, res = a0_block(P5, l, branch, N, bc)
            worst_match = max(worst_match, res["match"])
            worst_support = max(worst_support, res["wrong_summand"],
                                res["cross"])
    rp2 = rp2_suite(P5, N)
    worst_rp2 = max(rp2.values())
    ok = (worst_match <= 1e-10 and worst_support <= 1e-11
          and worst_rp2 <= 1e-12)
    _line(7, "block identities and projective-plane base case", ok,
          f"match {worst_match:.3e} <= 1e-10, support {worst_support:.3e} "
          f"<= 1e-11, base case {worst_rp2:.3e} <= 1e-12")


def test_criterion_08_rewriting_oracle():
    worst = 0.0
    cap_hits, span_fails = 0, 0
    targets = [(make_presentation("podles", P5, x=x),
                rep_podles(P5, x, "direct_sum", N)) for x in XS]
    targets += [(make_presentation("bl", P5, l=l), rep_bl(P5, l, N))
                for l in (0, 0.5, 1)]
    for pres, rep in targets:
        for w in random_words(pres, 200, 6, seed=0):
            poly = NCPoly({w: 1.0})
            try:
                nf = normal_form(poly, pres)
            except RewriteCapError:
                cap_hits += 1
                continue
            if not all(in_basis(v, pres) for v in nf.terms):
                span_fails += 1
            worst = max(worst,
                        max_abs(evaluate(poly, rep) - evaluate(nf, rep)))
    ok = worst <= 1e-9 and cap_hits == 0 and span_fails == 0
    _line(8, "rewriting oracle (1200 seeded words)", ok,
          f"residual {worst:.3e} <= 1e-9, cap hits {cap_hits}, "
          f"basis failures {span_fails}")


def test_criterion_09_orbit_picard_tables():
    fails = []
    if orbit_equivalent(0.3, 1.7) != (True, -2):
        fails.append("orbit(0.3,1.7)")
    if orbit_equivalent(0.3, 0.4)[0]:
        fails.append("orbit(0.3,0.4)")
    for x in (0.0, 0.6, 1.7):
        if not orbit_equivalent(x, x)[0]:
            fails.append(f"orbit({x},{x})")
    for y in (0.0, 0.5, 2.0):
        if orbit_equivalent("standard", y)[0]:
            fails.append(f"orbit(standard,{y})")
    table = {"standard": "Z", 2.0: "Z2", 0.0: "Z2", 0.7: "trivial"}
    for xv, want in table.items():
        if picard_group(xv) != want:
            fails.append(f"picard({xv})")
    _line(9, "orbit and Picard tables", not fails,
          "exact" if not fails else "; ".join(fails))


def test_criterion_10_deterministic_reports():
    cmd = [sys.executable, "-m", "qsphere", "all", "--json", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 100)
    payload = json.loads(first.stdout) if ok else {}
    _line(10, "byte-identical seeded reports", ok,
          f"{len(first.stdout)} bytes, {len(payload.get('checks', []))} "
          f"checks, exit {first.returncode}")
