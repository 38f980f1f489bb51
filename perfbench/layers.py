"""Per-layer instrumentation installed from outside the program.

Each entry of LAYERS names a public function or method of `qsphere` (or
numpy) and how it is recorded:

- "span": calls, inclusive seconds and self seconds (inclusive minus the
  time of the traced calls made inside it), kept as running sums;
- "leaf": a hot function, counted with accumulated time, no span per call;
- "count": a hot function, counted only.

Some entries also count an extra event ("hits"): for `MPCtx.qpow` and
`LabelRep.matrix` a call whose key is already cached on that object, for
`normal_form` a raised RewriteCapError.

A module-level function is replaced in every loaded `qsphere` module whose
namespace holds it, so `qsphere.cli.evaluate` is patched as well as
`qsphere.reps.evaluate`.  Methods are replaced on their class.
"""

from __future__ import annotations

import importlib
import sys
import time

SUITE_NAMES = ("relations", "casimir", "compress", "theta", "functional",
               "ergodic", "theorem2", "oracle")

# (metric prefix, module, attribute, kind)
LAYERS = tuple(
    [(f"cli.suite_{s}", "qsphere.cli", f"suite_{s}", "span")
     for s in SUITE_NAMES]
    + [
        ("reps.LabelRep.step", "qsphere.reps", "LabelRep.step", "leaf"),
        ("reps.MPCtx.qpow", "qsphere.reps", "MPCtx.qpow", "count"),
        ("reps.FloatCtx.qpow", "qsphere.reps", "FloatCtx.qpow", "count"),
        ("reps.combos_residual", "qsphere.reps", "combos_residual", "span"),
        ("reps.relation_check", "qsphere.reps", "relation_check", "span"),
        ("reps.evaluate", "qsphere.reps", "evaluate", "span"),
        ("reps.LabelRep.matrix", "qsphere.reps", "LabelRep.matrix", "span"),
        ("action.invariance_defects", "qsphere.action", "invariance_defects",
         "span"),
        ("action.spin2l_check", "qsphere.action", "spin2l_check", "span"),
        ("action.casimir_invariance", "qsphere.action", "casimir_invariance",
         "span"),
        ("action.invariant_subspace", "qsphere.action", "invariant_subspace",
         "span"),
        ("numpy.linalg.svd", "numpy.linalg", "svd", "span"),
        ("ncalg.normal_form", "qsphere.ncalg", "normal_form", "span"),
        ("ncalg.make_presentation", "qsphere.ncalg", "make_presentation",
         "span"),
        ("casimir.casimir_matrix", "qsphere.casimir", "casimir_matrix",
         "span"),
        ("casimir.compress_identify", "qsphere.casimir", "compress_identify",
         "span"),
        ("casimir.numeric_interior_spectrum", "qsphere.casimir",
         "numeric_interior_spectrum", "span"),
        ("morita.basis_change", "qsphere.morita", "basis_change", "span"),
        ("morita.a0_block", "qsphere.morita", "a0_block", "span"),
        ("morita.rp2_suite", "qsphere.morita", "rp2_suite", "span"),
        ("report.canonical_json", "qsphere.report", "canonical_json", "span"),
    ])

SUITES = tuple(f"cli.suite_{s}" for s in SUITE_NAMES)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.hits = 0


class Tracer:
    """Running sums per layer.  `first_suite` is the clock reading at the
    first suite call, where the certification time starts."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in LAYERS}
        # child-time accumulators of the open spans; [0] is the root
        self._stack = [0.0]
        self.first_suite = None

    def _span(self, st: Stat, fn, reused=None, failure=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if reused is not None and reused(*args):
                st.hits += 1
            st.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if failure is not None and isinstance(exc, failure):
                    st.hits += 1
                raise
            finally:
                dt = clock() - t0
                st.active -= 1
                st.calls += 1
                st.self_s += dt - stack.pop()
                if not st.active:
                    st.total_s += dt
                stack[-1] += dt

        return wrapper

    def _leaf(self, st: Stat, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            st.calls += 1
            st.total_s += dt
            st.self_s += dt
            stack[-1] += dt
            return out

        return wrapper

    @staticmethod
    def _count(st: Stat, fn, reused=None):
        def wrapper(*args, **kwargs):
            st.calls += 1
            if reused is not None and reused(*args):
                st.hits += 1
            return fn(*args, **kwargs)
        return wrapper

    def _first_call(self, fn):
        def wrapper(*args, **kwargs):
            if self.first_suite is None:
                self.first_suite = time.perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    def install(self, full: bool) -> None:
        """Wrap the suites (always, to time the first suite call) and, when
        `full`, every entry of LAYERS."""
        from qsphere.ncalg import RewriteCapError

        def qpow_seen(ctx, n, m=0):
            return (n, m) in ctx._cache

        def matrix_seen(rep, g, M):
            return (g, M) in rep._mat_cache

        for name, modname, attr, kind in LAYERS:
            st = self.stats[name]
            if name in SUITES:
                make = (lambda fn, st=st: self._first_call(
                    self._span(st, fn) if full else fn))
            elif not full:
                continue
            elif kind == "leaf":
                make = (lambda fn, st=st: self._leaf(st, fn))
            elif kind == "count":
                seen = qpow_seen if name == "reps.MPCtx.qpow" else None
                make = (lambda fn, st=st, seen=seen:
                        self._count(st, fn, reused=seen))
            else:
                seen = matrix_seen if name == "reps.LabelRep.matrix" else None
                fail = (RewriteCapError if name == "ncalg.normal_form"
                        else None)
                make = (lambda fn, st=st, seen=seen, fail=fail:
                        self._span(st, fn, reused=seen, failure=fail))
            _replace(modname, attr, make)

    def snapshot(self) -> dict:
        """Plain numbers per layer: calls, inclusive s, self_s and hits."""
        return {name: {"calls": st.calls, "s": st.total_s,
                       "self_s": st.self_s, "hits": st.hits}
                for name, st in self.stats.items()}


def _replace(modname: str, attr: str, make) -> None:
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if name != modname and name.split(".")[0] != "qsphere":
            continue
        ns = mod.__dict__
        for key, val in list(ns.items()):
            if val is original:
                ns[key] = wrapped
