"""Run one bour4 CLI command in this fresh interpreter and record its timings.

Usage: python child.py RECORD TRACE ARGS...

Imports ``bour4.cli`` and calls its ``main`` with ARGS, as ``python -m
bour4.cli ARGS...`` would, then writes RECORD as JSON: the CLOCK_MONOTONIC
time at which the import finished (the parent took the same clock at spawn,
so the difference is the command's set-up time), the exit code, the child's
view of LB_QUAD_TOL, its peak resident set size, and with TRACE = 1 the
per-layer trace.  Exits with the command's exit code.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``ru_maxrss`` would also count the parent's memory: the child is spawned
    with vfork, and exec records the high-water mark of the address space it
    leaves.  ``VmHWM`` covers only the address space of this program.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    record_path, trace, *argv = sys.argv[1:]
    import bour4.cli
    imported = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rc = bour4.cli.main(argv)
    sys.stdout.flush()
    record = {"imported": imported, "rc": rc,
              "lb_quad_tol": os.environ.get("LB_QUAD_TOL")}
    if tracer is not None:
        record["trace"] = tracer.summary()
    record["peak_rss_kb"] = peak_rss_kb()
    with open(record_path, "w") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
