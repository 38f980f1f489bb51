"""Quick self-test of the benchmark runner, perfbench/run.py.

Runs every workload once at tiny problem sizes, untraced and traced, and
checks the result line: its keys, that the run was correct, and that the
metrics are exactly those BENCHMARK.json lists, each with its unit.  It also
checks the structural facts the workloads were chosen for: `oracle_wide`
makes no mpmath qpow call and `walks_exact` no dense evaluation.

Usage (from the root of a checkout):  python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMED = {  # metric names the ROADMAP and README refer to
    0: ["setup_s", "certify_s", "peak_rss_mb"],
    1: ["fail_ratio", "trace.overhead_s", "trace.overhead_ratio",
        "reps.LabelRep.step.calls", "reps.MPCtx.qpow.calls",
        "reps.evaluate.s", "cli.suite_oracle.s"],
}


def fail(msg: str) -> None:
    raise SystemExit(f"selftest: {msg}")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: "
             f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace in (0, 1):
        missing = set(NAMED[trace]) - set(wanted[trace])
        if missing:
            fail(f"BENCHMARK.json lacks {sorted(missing)}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], trace)
            tag = f"{w['name']} trace={trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{tag}: not a correct run: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                fail(f"{tag}: metrics differ from BENCHMARK.json: "
                     f"{sorted(diff)}")
            if trace:
                m = res["metrics"]
                if w["name"] == "oracle_wide" and m["reps.MPCtx.qpow.calls"]["value"]:
                    fail("oracle_wide made mpmath qpow calls")
                if w["name"] == "walks_exact" and m["reps.evaluate.calls"]["value"]:
                    fail("walks_exact made dense evaluations")
            print(f"ok  {tag}  attempted={res['attempted']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
