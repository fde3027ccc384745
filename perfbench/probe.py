"""Time one set-up of a benchmark workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Nothing but ``time`` is imported before ``import plectic`` (the interpreter
has loaded ``sys`` and ``os`` by then), so the import is timed as
``python -m plectic.cli`` pays it.  Set-up is that import plus building the
workload's fixed objects and its first pass's inputs; the benchmark's own
modules are imported in between and not counted.  Prints one JSON line:
``start`` (CLOCK_MONOTONIC at this file's first statement), ``import_s``,
``setup_s`` and ``reference_s``, the time of pace.py's compute reference
right after the set-up, by which the benchmark scales the set-up's work
after the import.
"""
import time

START = time.monotonic()
T0 = time.perf_counter()
import plectic  # noqa: E402,F401
T1 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import pace  # noqa: E402  (this file's directory is sys.path[0])
import workloads  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t2 = time.perf_counter()
    wl = workloads.build(name, seed, root, workdir)
    wl.ops_for(0)
    t3 = time.perf_counter()
    wl.close()
    print(json.dumps({"start": START, "import_s": T1 - T0, "setup_s": (T1 - T0) + (t3 - t2),
                      "reference_s": pace.reference_s()}))


if __name__ == "__main__":
    main()
