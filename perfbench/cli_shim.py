"""One traced ``plectic`` CLI call, for the benchmark's traced cli run.

Usage: python3 cli_shim.py STATS_JSON [plectic arguments...]

Behaves like ``python -m plectic.cli`` (same stdout, stderr and exit code)
with the benchmark's tracer installed, and writes the tracer's summary and
spans to STATS_JSON.  Needs ``src`` on PYTHONPATH.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plectic.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = plectic.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
