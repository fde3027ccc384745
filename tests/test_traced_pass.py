"""One traced pass of the structures, conjugates and observables benchmark
workloads.

The benchmark's tracer (perfbench/tracer.py) wraps the library's layer
functions by module attribute name and hooks the scalar constructors, so a
renamed layer function, or a coefficient or matrix row its hooks cannot
read, fails the traced benchmark run.  These tests run the benchmark's own
files, unedited, so that such a fault shows in the test suite as well.
"""
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPANS = {
    "structures": ("mover.move_points", "mover.jacobian_determinant",
                   "mover.realify_and_check", "exterior.pullback",
                   "classify.extract_acs", "linalg.nullspace"),
    "conjugates": ("exterior.constant_linear_pullback", "classify.classify6"),
    "observables": ("hdw.ham_vector_field", "linalg.solve"),
}


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_pass_fails_no_operation(name, tmp_path):
    wl = workloads.build(name, 1, ROOT, str(tmp_path))
    t = tracer.Tracer()
    _elapsed, times, failures = run.run_pass(wl, wl.ops_for(0), t)
    assert failures == [] and len(times) >= run.MIN_OPS
    calls = t.summary()["calls"]
    for span in SPANS[name]:
        assert calls[span] > 0, span
