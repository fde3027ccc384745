"""Tests of the benchmark's own machinery."""
import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_traced_observables_pass_records_calls_at_every_binding_site(tmp_path):
    from plectic import exterior, linfty

    wl = workloads.build("observables", 7, ROOT, str(tmp_path))
    ops = wl.ops_for(0)[:5]  # one operation of each kind
    t = tracer.Tracer()
    _elapsed, times, failures = run.run_pass(wl, ops, t)
    assert failures == [] and len(times) == 5
    calls = t.summary()["calls"]
    assert calls["exterior.interior"] > 0
    assert calls["linfty.l_k"] > 0
    assert calls["linalg.solve"] > 0
    # l_k calls interior through linfty's own imported name
    names = [s[0] for s in t.spans]
    assert any(name == "exterior.interior" and names[parent] == "linfty.l_k"
               for name, _start, _end, parent in t.spans if parent >= 0)
    # uninstall restores the originals everywhere
    assert linfty.interior is exterior.interior
    assert not hasattr(exterior.interior, "__wrapped__")


def test_no_pass_repeats_an_earlier_pass_inputs(tmp_path):
    for name in ("conjugates", "observables", "structures"):
        wl = workloads.build(name, 7, ROOT, str(tmp_path))
        first, second = wl.ops_for(0), wl.ops_for(1)
        assert [label for label, _op in first] == [label for label, _op in second]
        for (label, a), (_label, b) in zip(first, second):
            assert str(a.args) != str(b.args), f"{name} {label} repeats its inputs"
        assert str(wl.ops_for(0)[0][1].args) == str(first[0][1].args)  # the seed fixes them


def test_meter_samples_during_a_long_operation_and_leaves_its_samples_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with pace.Meter() as meter:
        mark = meter.start()
        t0 = time.perf_counter()
        busy(0.35)
        wall = time.perf_counter() - t0
        scaled = meter.stop(mark)
    during = meter.samples[mark[0]:]
    assert len(during) >= 2  # the timer sampled while the operation ran
    refs = meter.samples[mark[0] - 1:]
    unscaled = scaled * sum(refs) / (len(refs) * pace.NOMINAL_S)
    assert unscaled < wall - sum(during) * 0.9  # the samples' own time is left out


def test_wrong_answer_is_a_failure():
    identity = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    w = workloads.catalog.product6()
    assert workloads._conjugate_op(w, identity, workloads.PRODUCT) is None
    assert workloads._conjugate_op(w, identity, workloads.COMPLEX) is not None


def test_cli_payloads_cover_every_subcommand():
    import random

    from plectic.cli import COMMANDS

    payloads = workloads.cli_payloads(random.Random(0))
    assert {cmd for cmd, *_rest in payloads} == set(COMMANDS)
    assert {code for *_rest, code, _check in payloads} == {0, 1, 2}


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
