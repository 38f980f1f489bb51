"""One `python -m qsphere ...` invocation, timed from inside.

Usage: child.py FD TRACE [qsphere arguments...]

Imports `qsphere.cli` (the end of set-up), installs the layer wrappers (only
the first-suite clock when TRACE is 0), then runs the `qsphere` package as
`python -m qsphere` would.  After the report is written and stdout flushed it
writes one JSON object with its clock readings, the host-speed scale of its
set-up and certification intervals (hostspeed.py, sampled from the first
line on) and its layer sums to file descriptor FD.  With no qsphere
arguments it stops after set-up.  All clock readings are
`time.perf_counter()`, which is CLOCK_MONOTONIC on Linux and so comparable
with the parent's readings.
"""

import json
import os
import sys
import time

from hostspeed import Probe

started = time.perf_counter()
probe = Probe()
probe.start()
fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]

import qsphere.cli  # noqa: E402  (the import is what set-up measures)

probe.tick()
ready = time.perf_counter()
info = {"ready": ready, "module": qsphere.cli.__file__,
        "setup_scale": probe.scale(started, ready)}
code = 0
if argv:
    import runpy

    from layers import Tracer

    tracer = Tracer()
    tracer.install(full=trace)
    sys.argv = ["qsphere"] + argv
    try:
        runpy.run_module("qsphere", run_name="__main__")
    except SystemExit as exc:
        code = 1 if isinstance(exc.code, str) else (exc.code or 0)
    sys.stdout.flush()
    probe.tick()
    end = time.perf_counter()
    info.update(end=end, first_suite=tracer.first_suite, exit=code)
    if tracer.first_suite is not None:
        info["certify_scale"] = probe.scale(tracer.first_suite, end)
    if trace:
        info["layers"] = tracer.snapshot()
probe.stop()
with os.fdopen(fd, "w") as out:
    json.dump(info, out)
sys.exit(code)
