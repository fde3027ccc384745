"""plectic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload conjugates --seed 1 --seconds 20 --trace 0

Workloads: conjugates, observables, structures, cli (see perfbench/NOTES.md).
The run first sets the workload up SETUP_PROBES times, each in a fresh
interpreter (probe.py), and reports the median set-up time.  It then runs
whole passes over the workload's (at least 100) operations, each pass with
fresh inputs drawn from --seed before it is timed, for about --seconds, and
checks every answer against what the generator knows.  Times are scaled to
a fixed reference speed (pace.py), so other tenants' load on the machine
does not read as a change of plectic.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(traced passes alternate with untraced ones, whose difference is the
tracing overhead).  The last stdout line is one JSON object {"correct",
"attempted", "failed", "metrics"}; the exit code is 1 when any operation
failed and 2 when plectic's sources are missing.
"""
import argparse
import gc
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("conjugates", "observables", "structures", "cli")
SETUP_PROBES = 9
MIN_OPS = 100  # distinct operations per pass, so ten lie beyond op_p90_ms

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probes(args, spawn, env):
    """Set the workload up SETUP_PROBES times, each in a fresh interpreter (probe.py).

    Returns one record per probe: ``setup_s``, ``import_s``,
    ``interp_start_s`` (launch to the probe's first statement) and
    ``scaled_s``, the set-up time at the reference speeds: the import scaled
    by the process reference sampled before and after the probe, the rest
    by the compute reference sampled before the launch (here) and right
    after the set-up (in the probe).
    """
    argv = [sys.executable, os.path.join(HERE, "probe.py"), args.workload, str(args.seed)]
    records = []
    with pace.ProcessMeter() as process:
        for _ in range(SETUP_PROBES):
            workdir = tempfile.mkdtemp(prefix="probe-", dir=SCRATCH)
            try:
                mark = process.start()
                before = pace.reference_s()
                launched = time.monotonic()  # CLOCK_MONOTONIC is system-wide on Linux
                code, stdout, stderr, _rss = spawn(argv + [workdir], env, workdir)
                import_scale = process.scale(mark)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if code != 0:
                raise RuntimeError(f"setup probe exited {code}: {stderr.strip()}")
            rec = json.loads(stdout.splitlines()[-1])
            rec["interp_start_s"] = rec.pop("start") - launched
            compute_scale = pace.NOMINAL_S * 2 / (before + rec.pop("reference_s"))
            rec["scaled_s"] = (rec["import_s"] * import_scale
                               + (rec["setup_s"] - rec["import_s"]) * compute_scale)
            records.append(rec)
    return records


def fresh_ops(wl, p):
    """Pass p's operations, drawn from the seed before any of them is timed."""
    gc.unfreeze()  # let the collector free the last pass's inputs
    ops = wl.ops_for(p)
    if len(ops) < MIN_OPS:
        raise ValueError(f"a workload needs at least {MIN_OPS} operations per pass")
    gc.collect()
    gc.freeze()  # keep the new inputs out of the collector's way while timing
    return ops


def run_pass(wl, ops, tracer=None, meter=None):
    """One pass over ops; returns (seconds, op seconds, failures).

    With a ``pace.Meter``, each operation's seconds are scaled to the
    reference speed (see pace.py); the pass's seconds are wall time.
    """
    times, failures = [], []
    if tracer is not None:
        wl.start_trace(tracer)
    try:
        start = time.perf_counter()
        for label, op in ops:
            mark = meter.start() if meter is not None else time.perf_counter()
            try:
                err = op() if tracer is None else tracer.call(f"op.{label}", op)
            except Exception as exc:  # a raising operation is a failed operation
                err = f"{type(exc).__name__}: {exc}"
            times.append(meter.stop(mark) if meter is not None else time.perf_counter() - mark)
            if err:
                failures.append(f"{label}: {err}")
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            wl.stop_trace(tracer)
    return elapsed, times, failures


def timed_run(wl, seconds, probes):
    # Whole passes, each with fresh inputs, while the next one is expected
    # to end within --seconds (at least one).  Every operation's time is
    # scaled to the reference speed, so a stretch in which other tenants
    # slow the machine does not read as a slower plectic; the quantiles are
    # over every operation of the run.
    times, failures, passes = [], [], 0
    with wl.meter() as meter:
        start = time.perf_counter()
        while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            _elapsed, t, fails = run_pass(wl, fresh_ops(wl, passes), meter=meter)
            times += t
            failures += fails
            passes += 1
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": statistics.median(r["scaled_s"] for r in probes),
        "peak_rss_mb": wl.peak_rss_mb(),
        "ok_ratio": (len(times) - len(failures)) / len(times),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    kinds = {}  # per label: operations and the sum of their times
    for label, t in zip(wl.labels * passes, times):
        n, ms = kinds.get(label, (0, 0.0))
        kinds[label] = (n + 1, ms + t * 1000)
    refs = sorted(meter.samples)
    return metrics, len(times), failures, {
        "passes": passes, "samples": len(times), "kinds_ms": kinds,
        "reference_ms": {"kind": type(meter).__name__, "min": refs[0] * 1000,
                         "median": statistics.median(refs) * 1000,
                         "max": refs[-1] * 1000, "samples": len(refs)},
        "setup_probes": probes}


def traced_run(wl, seconds, probes, name):
    import tracer as tr

    plain, traced, summaries, spans, failures = [], [], [], [], []
    attempted, p = 0, 0
    solved = set()  # linalg.repeat_ratio counts repeats over the whole run
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        elapsed, times, fails = run_pass(wl, fresh_ops(wl, p))
        plain.append(elapsed)
        t = tr.Tracer(solved)
        elapsed_t, times_t, fails_t = run_pass(wl, fresh_ops(wl, p + 1), t)
        traced.append(elapsed_t)
        summaries.append(t.summary())
        spans.append({"spans": t.spans, "children": [c["spans"] for c in t.children]})
        attempted += len(times) + len(times_t)
        failures += fails + fails_t
        p += 2
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tr.per_layer_metrics(tr.merge(summaries), len(traced), overhead,
                                   statistics.median(r["interp_start_s"] for r in probes),
                                   statistics.median(r["import_s"] for r in probes))
    span_file = os.path.join(SCRATCH, f"spans-{name}.json.gz")
    with gzip.open(span_file, "wt") as fh:
        json.dump({"workload": name, "fields": ["name", "start", "end", "parent"],
                   "passes": spans}, fh)
    return metrics, attempted, failures, {"passes": len(traced),
                                          "spans": os.path.relpath(span_file, ROOT),
                                          "untraced_pass_s": statistics.median(plain),
                                          "traced_pass_s": statistics.median(traced)}


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plectic", "__init__.py")):
        print(f"perfbench: no plectic sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(SCRATCH, exist_ok=True)

    import workloads

    probes = setup_probes(args, workloads.spawn, workloads.child_env(ROOT))
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        try:
            if args.trace:
                result = traced_run(wl, args.seconds, probes, args.workload)
            else:
                result = timed_run(wl, args.seconds, probes)
            metrics, attempted, failures, info = result
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{len(failures)} failed")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha(),
            "failures": failures[:5], **info}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
