"""Benchmark of the qsphere certifier, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload all_default --seed 0 --seconds 40 --trace 0

Each pass runs the workload's `python -m qsphere ...` invocations the way a
shell user does, one fresh interpreter per invocation (through
perfbench/child.py), with the workload seed passed on as `--seed` (as
sub-seeds for `oracle_wide`, see SUBSEEDS).  Passes repeat until the next
one would end after `--seconds`.

--trace 0 reports the end-to-end metrics (medians over the passes).  Their
times are in reference-host seconds: each wall interval is scaled by the
host speed the child measured during it (hostspeed.py); the wall medians are
in the run record.
--trace 1 alternates an untraced pass with a traced one and reports the
per-layer metrics of the traced passes plus the tracing overhead.

Every invocation must exit 0, every check must report "pass", and each
invocation's canonical JSON must be byte-identical across all passes of the
run, traced or not.  The last stdout line is the result object; the line
before it records the machine, the report hashes and every check's
max_residual.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

from layers import SUITES  # noqa: E402  (perfbench/ is sys.path[0])

# Workloads: the qsphere invocations of one pass; `--seed S --json` is
# appended to each.  TINY holds the same commands at tiny sizes for
# perfbench/selftest.py.  A workload in SUBSEEDS runs each command once per
# sub-seed k*S, k*S+1, ..., k*S+k-1 of the run's seed S: the work of one
# `oracle` invocation and the sizes it allocates depend on its random words,
# so a pass over several word sets varies less from seed to seed.
WORKLOADS = {
    "all_default": [["all"]],
    "oracle_wide": [["oracle", "--x", "1.0", "--l", "0.5", "--N", "128",
                     "--count", "200"]],
    "walks_exact": [["functional", "--x", "1.0", "--l", "0.5", "--N", "64"],
                    ["theta", "--l", "1", "--N", "64"],
                    ["relations", "--x", "1.0", "--l", "1", "--N", "64"]],
}
TINY = {
    "all_default": [["all", "--N", "24", "--D", "3", "--count", "10"]],
    "oracle_wide": [["oracle", "--x", "1.0", "--l", "0.5", "--N", "16",
                     "--count", "10"]],
    "walks_exact": [["functional", "--x", "1.0", "--l", "0.5", "--N", "24"],
                    ["theta", "--l", "1", "--N", "8"],
                    ["relations", "--x", "1.0", "--l", "1", "--N", "8"]],
}

SUBSEEDS = {"oracle_wide": 3}

SETUP_PROBES = 3          # set-up-only invocations before each round
DEADLINE_S = 170.0        # a run is abandoned as failed after this long

END_TO_END = {"setup_s": "s", "certify_s": "s", "peak_rss_mb": "MB"}


# Per-layer metrics: "<layer>.<field>", the layer named as in layers.LAYERS.
# Fields: calls; s, the inclusive reference-host seconds (each invocation's
# wall seconds times its certify scale) of the outermost calls (for
# reps.evaluate its self time: minus the matrix builds inside it);
# reuse_ratio, calls whose key was already cached on that object / calls;
# cap_hits, RewriteCapError raised.
LAYER_METRICS = (
    [f"{name}.s" for name in SUITES]
    + ["reps.LabelRep.step.calls", "reps.LabelRep.step.s",
       "reps.MPCtx.qpow.calls", "reps.MPCtx.qpow.reuse_ratio",
       "reps.FloatCtx.qpow.calls",
       "reps.combos_residual.calls", "reps.combos_residual.s",
       "reps.relation_check.s",
       "reps.evaluate.calls", "reps.evaluate.s",
       "reps.LabelRep.matrix.calls", "reps.LabelRep.matrix.s",
       "reps.LabelRep.matrix.reuse_ratio",
       "action.invariance_defects.calls", "action.invariance_defects.s",
       "action.spin2l_check.s", "action.casimir_invariance.s",
       "action.invariant_subspace.calls", "action.invariant_subspace.s",
       "numpy.linalg.svd.calls", "numpy.linalg.svd.s",
       "ncalg.normal_form.calls", "ncalg.normal_form.s",
       "ncalg.normal_form.cap_hits", "ncalg.make_presentation.s",
       "casimir.casimir_matrix.s", "casimir.compress_identify.s",
       "casimir.numeric_interior_spectrum.s",
       "morita.basis_change.s", "morita.a0_block.s", "morita.rp2_suite.s",
       "report.canonical_json.s"])
UNITS = {"calls": "count", "s": "s", "reuse_ratio": "ratio",
         "cap_hits": "count"}

PER_LAYER = {m: UNITS[m.rsplit(".", 1)[1]] for m in LAYER_METRICS}
PER_LAYER.update({"fail_ratio": "ratio", "trace.base_certify_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"})


# ---------------------------------------------------------------------------
# one invocation, one pass
# ---------------------------------------------------------------------------

class Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds

    def left(self) -> float:
        return max(0.1, self.at - time.perf_counter())


def invoke(args, trace: bool, deadline: Deadline) -> dict:
    """Spawn child.py once; return its wall and host-speed-scaled times,
    exit code, stdout and the peak RSS from the child's own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rfd, wfd = os.pipe()
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(wfd), "1" if trace else "0", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        pass_fds=(wfd,))
    os.close(wfd)
    timer = threading.Timer(deadline.left(), proc.kill)
    timer.start()
    chunks = {}

    def drain(key, f):
        with f:
            chunks[key] = f.read()

    readers = [threading.Thread(target=drain, args=("err", proc.stderr)),
               threading.Thread(target=drain,
                                args=("info", os.fdopen(rfd, "rb")))]
    for t in readers:
        t.start()
    with proc.stdout:
        out = proc.stdout.read()
    for t in readers:
        t.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    try:
        info = json.loads(chunks["info"] or b"null")
    except json.JSONDecodeError:
        info = None
    rec = {"stdout": out, "stderr": chunks["err"],
           "rss_mb": usage.ru_maxrss / 1024.0, "ok": False}
    if not info or not info["module"].startswith(str(SRC)):
        return rec
    rec["setup_wall"] = info["ready"] - spawned
    rec["setup"] = rec["setup_wall"] * info["setup_scale"]
    if args and info.get("first_suite") is not None:
        rec["certify_wall"] = info["end"] - info["first_suite"]
        rec["certify"] = rec["certify_wall"] * info["certify_scale"]
        # layer seconds take the invocation's scale, as certify_s does
        rec["layers"] = info.get("layers") and {
            name: dict(v, s=v["s"] * info["certify_scale"],
                       self_s=v["self_s"] * info["certify_scale"])
            for name, v in info["layers"].items()}
    rec["ok"] = proc.returncode == 0 and (not args or "certify" in rec)
    return rec


def invocations(workload: str, seed: int, tiny: bool) -> list:
    """The argument lists of one pass."""
    k = SUBSEEDS.get(workload, 1)
    return [cmd + ["--seed", str(k * seed + j), "--json"]
            for cmd in (TINY if tiny else WORKLOADS)[workload]
            for j in range(k)]


def run_pass(commands, trace: bool, deadline: Deadline) -> dict:
    recs = [invoke(cmd, trace, deadline) for cmd in commands]
    return {"recs": recs, "trace": trace,
            "certify": sum(r.get("certify", 0.0) for r in recs),
            "certify_wall": sum(r.get("certify_wall", 0.0) for r in recs),
            "rss_mb": max(r["rss_mb"] for r in recs)}


# ---------------------------------------------------------------------------
# correctness and aggregation
# ---------------------------------------------------------------------------

def check_passes(passes) -> dict:
    """Failures, attempts, report hashes and residuals over all passes.  An
    invocation that crashes or exits non-zero counts as one more attempted
    and failed check."""
    attempted = failed = 0
    identical = True
    reference = [r["stdout"] for r in passes[0]["recs"]]
    residuals = {}
    for ps in passes:
        for i, rec in enumerate(ps["recs"]):
            identical &= rec["stdout"] == reference[i]
            try:
                checks = json.loads(rec["stdout"])["checks"]
            except (ValueError, KeyError, TypeError):
                checks = []
            bad_exit = not rec["ok"]
            attempted += len(checks) + bad_exit
            failed += sum(c["status"] != "pass" for c in checks) + bad_exit
            for c in checks:
                residuals[c["check"]] = c["max_residual"]
    return {"attempted": attempted, "failed": failed, "identical": identical,
            "sha256": [hashlib.sha256(s).hexdigest() for s in reference],
            "max_residual": residuals}


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def layer_metrics(traced) -> dict:
    """Medians over the traced passes of the per-layer sums."""
    per_pass = []
    for ps in traced:
        tot = {}
        for rec in ps["recs"]:
            for name, v in (rec.get("layers") or {}).items():
                acc = tot.setdefault(name, dict.fromkeys(v, 0))
                for k in v:
                    acc[k] += v[k]
        per_pass.append(tot)
    out = {}
    for metric in LAYER_METRICS:
        layer, field = metric.rsplit(".", 1)
        vals = []
        for tot in per_pass:
            st = tot[layer]
            if field == "reuse_ratio":
                vals.append(st["hits"] / st["calls"] if st["calls"] else 0.0)
            elif field == "cap_hits":
                vals.append(st["hits"])
            elif field == "s" and layer == "reps.evaluate":
                vals.append(st["self_s"])
            else:
                vals.append(st[field])
        mid = (statistics.median_low if field in ("calls", "cap_hits")
               else statistics.median)
        out[metric] = {"value": mid(vals),
                       "unit": PER_LAYER[metric]}
    return out


def machine_facts() -> dict:
    import mpmath
    import numpy

    facts = {"nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "mpmath": mpmath.__version__,
             "mpmath_backend": mpmath.libmp.BACKEND}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                facts[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads():
    """OpenBLAS thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "qsphere" / "cli.py").is_file():
        print(f"perfbench: no qsphere sources under {SRC}", file=sys.stderr)
        return 2

    commands = invocations(args.workload, args.seed, args.tiny)
    trace = bool(args.trace)
    deadline = Deadline(DEADLINE_S)
    start = time.perf_counter()
    setups, passes = [], []
    while True:
        t0 = time.perf_counter()
        setups += [invoke([], False, deadline) for _ in range(SETUP_PROBES)]
        passes.append(run_pass(commands, False, deadline))
        if trace:
            passes.append(run_pass(commands, True, deadline))
        now = time.perf_counter()
        took = now - t0    # the next round is expected to take as long
        if now - start + took > args.seconds or now + took > deadline.at:
            break

    plain = [ps for ps in passes if not ps["trace"]]
    traced = [ps for ps in passes if ps["trace"]]
    chk = check_passes(passes)
    setup_samples = [r["setup"] for r in setups if r["ok"]] + [
        r["setup"] for ps in passes for r in ps["recs"] if "setup" in r]
    correct = (chk["failed"] == 0 and chk["identical"]
               and all(r["ok"] for r in setups))
    samples = {"setup_s": setup_samples,
               "certify_s": [ps["certify"] for ps in plain],
               "peak_rss_mb": [ps["rss_mb"] for ps in plain],
               "setup_wall_s": [r["setup_wall"] for r in setups if r["ok"]]
               + [r["setup_wall"] for ps in passes for r in ps["recs"]
                  if "setup_wall" in r],
               "certify_wall_s": [ps["certify_wall"] for ps in plain]}
    if trace:
        samples["traced_certify_s"] = [ps["certify"] for ps in traced]
    stats = {k: {"n": len(v), "q1_median_q3": quartiles(v)}
             for k, v in samples.items() if v}

    if trace:
        metrics = layer_metrics(traced)
        base = statistics.median(samples["certify_s"])
        over = statistics.median(samples["traced_certify_s"]) - base
        metrics.update({
            "fail_ratio": {"value": chk["failed"] / chk["attempted"],
                           "unit": "ratio"},
            "trace.base_certify_s": {"value": base, "unit": "s"},
            "trace.overhead_s": {"value": over, "unit": "s"},
            "trace.overhead_ratio": {"value": over / base if base else 0.0,
                                     "unit": "ratio"}})
    else:
        metrics = {k: {"value": statistics.median(samples[k]),
                       "unit": END_TO_END[k]} for k in END_TO_END}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "tiny": args.tiny,
              "commands": commands,
              "passes": len(plain), "traced_passes": len(traced),
              "wall_s": time.perf_counter() - start,
              "reports_identical": chk["identical"],
              "sha256": chk["sha256"], "max_residual": chk["max_residual"],
              "samples": stats, "machine": machine_facts()}
    for ps in passes:
        for rec in ps["recs"]:
            if not rec["ok"]:
                sys.stderr.write(rec["stderr"].decode(errors="replace")[-2000:])
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": chk["attempted"],
                      "failed": chk["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
