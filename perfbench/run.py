"""Seeded end-to-end and per-layer benchmark of the mrws command line.

    python3 perfbench/run.py --workload analyze-curved --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` and
driven in-process through ``mrws.cli.main``, one invocation list (a session)
after another, in one process with one BLAS thread. A run

1. times the set-up (import mrws, build the seeded spaces with ``builders``
   and write their JSON) several times and keeps the median;
2. warms up on tiny spaces, so one-off costs of the first LP and the first
   eigendecomposition fall outside the timed sessions;
3. repeats sessions for ``--seconds`` (at least two), checks every
   invocation's exit code and output, and takes the median session time;
4. divides both times by the machine's current slowdown, measured by the
   calibration unit in ``speed.py`` between invocations (untimed).

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates plain and traced sessions and reports the per-layer metrics of
the traced ones, per session; ``trace_overhead_s`` is the difference of the
two session medians. The last line of stdout is the result object; run
details (versions, thread counts, session times, failures) go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 5
MIN_SESSIONS = 2
CAL_EVERY_S = 0.5  # one calibration unit per this much invocation time
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# MRWS_THREADS would switch the program to its thread pool; timed runs never set it
FORBIDDEN_ARGS = ("--threads", "--timings")

LAYERS = ("builders", "core", "connectivity", "spectral", "linalg", "geometry",
          "curvature", "transport", "heat", "cli")
# (metric, source, unit): source "layer" sums a layer's self time, "count" reads
# a counter of the same name, and calls, raised or self_s read that total of
# the span the name starts with
PER_LAYER = (
    [(f"{layer}.self_s", "layer", "s") for layer in LAYERS]
    + [
        ("curvature.ollivier_global.calls", "calls", "count"),
        ("curvature.ollivier_global.repeat_calls", "count", "count"),
        ("curvature.ollivier_global.self_s", "self_s", "s"),
        ("curvature.ollivier_kappa.calls", "calls", "count"),
        ("curvature.be_best_constant.calls", "calls", "count"),
        ("curvature.be_best_constant.repeat_calls", "count", "count"),
        ("curvature.be_best_constant.self_s", "self_s", "s"),
        ("linalg.eigh.calls", "calls", "count"),
        ("linalg.eigh.self_s", "self_s", "s"),
        ("transport.wasserstein.calls", "calls", "count"),
        ("transport.wasserstein.self_s", "self_s", "s"),
        ("transport.lp.calls", "calls", "count"),
        ("transport.lp.self_s", "self_s", "s"),
        ("transport.lp.vars", "count", "count.computed"),
        ("transport.verify_transport_inequality.calls", "calls", "count"),
        ("transport.verify_transport_inequality.self_s", "self_s", "s"),
        ("transport.verify_transport_inequality.raised", "raised", "count"),
        ("geometry.cheeger.calls", "calls", "count"),
        ("geometry.cheeger.self_s", "self_s", "s"),
        ("geometry.bipartitions", "count", "count.computed"),
        ("heat.heat_evolve.calls", "count", "count"),
        ("heat.series.self_s", "self_s", "s"),
        ("heat.spectral.self_s", "self_s", "s"),
        ("heat.rk4.self_s", "self_s", "s"),
        ("core.validate_space.self_s", "self_s", "s"),
        ("core.space_from_json.self_s", "self_s", "s"),
        ("connectivity.invariant_blocks.calls", "calls", "count"),
        ("connectivity.invariant_blocks.repeat_calls", "count", "count"),
        ("spectral.spectral_gap.calls", "calls", "count"),
        ("spectral.spectral_gap.self_s", "self_s", "s"),
        ("spectral.spectral_gap.repeat_calls", "count", "count"),
        ("spectral.decomposition.calls", "calls", "count"),
        ("cli.main.calls", "calls", "count"),
    ]
)


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def import_mrws():
    """Import mrws afresh from src/ and return the module table."""
    for name in [m for m in sys.modules if m == "mrws" or m.startswith("mrws.")]:
        del sys.modules[name]
    importlib.import_module("mrws.cli")
    return sys.modules


def run_session(cli, invocations, cal=None):
    """One pass over the invocation list: (wall seconds, results, unit times).

    With a calibration, units run after each invocation, outside the timed
    region: one per ``CAL_EVERY_S`` of the invocation's time, at least two.
    """
    results, units, wall = [], [], 0.0
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(inv.argv))
            except Exception as e:  # an escaped exception is a failed invocation
                rc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        wall += elapsed
        results.append((rc, out.getvalue()))
        if cal:
            units += [cal.unit() for _ in range(max(2, round(elapsed / CAL_EVERY_S)))]
    return wall, results, units


class Tally:
    """Failure accounting over every invocation the run attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = {}

    def add(self, invocations, results):
        for inv, (rc, out) in zip(invocations, results):
            self.attempted += 1
            try:
                verdict = inv.check(rc, out)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                verdict = (f"malformed output: {type(e).__name__}: {e}", False)
            if verdict is None:
                continue
            reason, known = verdict
            self.failed += 1
            self.unexpected += not known
            self.reasons[inv.label] = ("known: " if known else "") + reason


def warm_up(builders, core, cli, workdir):
    """Untimed invocations on tiny spaces that reach the LP solver, the
    eigensolvers, every heat route and the JSON paths once."""
    path = str(workdir / "warm.json")
    field = str(workdir / "warm_field.json")
    with open(path, "w") as fh:
        json.dump(core.space_to_json(builders.fixture("P3")), fh)
    with open(field, "w") as fh:
        json.dump({"values": [1.0, 0.0, 0.0]}, fh)
    argvs = [["analyze", path, "--trials", "5"], ["curvature", path, "--ollivier", "edges"],
             ["validate", path], ["cheeger", path, "--sweep"]]
    argvs += [["heat", path, "--init", field, "--method", m, "--grid", "0.5,1"]
              for m in ("series", "spectral", "rk4")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            cli.main(argv)


def per_layer_metrics(summary, sessions, traced_wall, overhead, builders_s):
    """Per traced session, except builders.self_s, which is per set-up."""
    metrics = {}
    for name, source, unit in PER_LAYER:
        if source == "layer":
            v = summary["layer_self_s"][name.split(".", 1)[0]]
        elif source == "count":
            v = summary["counts"][name]
        else:
            v = summary[source][name.rsplit(".", 1)[0]]
        metrics[name] = {"value": v / sessions, "unit": unit}
    metrics["builders.self_s"]["value"] = builders_s
    metrics["traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["unattributed_s"] = {"value": traced_wall - summary["covered_s"] / sessions, "unit": "s"}
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mrws" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {SRC / 'mrws'} is missing")
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MRWS_THREADS", None)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    mods = import_mrws()  # untimed first import: numpy, scipy and bytecode
    if not Path(mods["mrws"].__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"mrws imported from {mods['mrws'].__file__}, not from {SRC}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    cal = None if args.trace else speed.Calibration()
    try:
        setup_units = [cal.unit() for _ in range(3)] if cal else []
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            mods = import_mrws()
            prepared = workloads.setup(args.workload, mods["mrws.builders"], mods["mrws.core"],
                                       args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_units += [cal.unit() for _ in range(3)] if cal else []
        builders, core, cli = mods["mrws.builders"], mods["mrws.core"], mods["mrws.cli"]
        invocations = workloads.plan(args.workload, prepared, workdir)
        for inv in invocations:
            if any(a in FORBIDDEN_ARGS for a in inv.argv):
                return fail(f"timed invocation passes a forbidden option: {inv.argv}")
        warm_up(builders, core, cli, workdir)

        tally = Tally()
        plain, traced, units = [], [], setup_units
        tracer = spans.Tracer()
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            wall, results, session_units = run_session(cli, invocations, cal)
            plain.append(wall)
            units += session_units
            tally.add(invocations, results)
            if args.trace:
                tracer.install()
                try:
                    wall, results, _ = run_session(cli, invocations)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                tally.add(invocations, results)
            now = time.perf_counter()
            done = len(plain) >= (1 if args.trace else MIN_SESSIONS)
            if done and now - start + (now - pass_start) > args.seconds:
                break

        if args.trace:
            setup_tracer = spans.Tracer()
            setup_tracer.install()
            try:
                workloads.setup(args.workload, builders, core, args.seed, workdir)
            finally:
                setup_tracer.uninstall()
            builders_s = setup_tracer.summary()["layer_self_s"]["builders"]
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, len(traced), statistics.fmean(traced),
                                        statistics.median(traced) - statistics.median(plain),
                                        builders_s)
            with open(WORK / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
                json.dump(tracer.export(), fh)
        else:
            slowdown = statistics.fmean(units) / speed.UNIT_REF_S
            metrics = {
                "wall_s": {"value": statistics.median(plain) / slowdown, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times) / slowdown, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
                "ok_share": {"value": (tally.attempted - tally.failed) / tally.attempted,
                             "unit": "ratio"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "numpy": np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "session_s": plain, "traced_session_s": traced,
        "setup_s": setup_times, "calibration_units_s": units,
        "failures": tally.reasons,
    }
    sys.stderr.write(json.dumps(info) + "\n")
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
