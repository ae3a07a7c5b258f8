"""Regenerate ``reference.json`` from the program in ``src/``.

    python3 perfbench/make_reference.py

It runs the relabelling-invariant parts of every checked output once, on the
base spaces in their own labelling, and stores them. Run it only when an
answer is meant to change; the benchmark compares every later run with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mrws import builders, cli, core  # noqa: E402

import workloads  # noqa: E402


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def ratio_class(value):
    if isinstance(value, dict):
        return value  # {"skipped": reason}
    if value is None:
        return "unbounded"
    return "bounded" if value <= 1.0 + 1e-9 else "violated"


def main():
    ref = {"analyze": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in ("analyze-small", "analyze-curved"):
            for name, space, graph in workloads.base_spaces(workload, builders):
                path = str(Path(tmp) / "space.json")
                workloads.write_space(core, space, path, graph)
                o = run(["analyze", path])
                ref["analyze"][name] = {
                    "n": o["space_summary"]["n"],
                    "total_mass": o["space_summary"]["total_mass"],
                    "connectivity": o["connectivity"],
                    "cheeger": o["cheeger"],
                    "curvature": o["curvature"],
                    "theta_m": o["transport"]["theta_m"],
                    "max_ratios": {k: ratio_class(v) for k, v in o["transport"]["max_ratios"].items()},
                }
        ((_, space, graph),) = workloads.base_spaces("grid-curvature", builders)
        path = str(Path(tmp) / "space.json")
        workloads.write_space(core, space, path, graph)
        cu = run(["curvature", path, "--be", "2,inf", "--ollivier", "edges"])
        ch = run(["cheeger", path])
        ref["grid-curvature"] = {"be": cu["be"], "kappa_global": cu["kappa_global"],
                                 "kappa_pairs": cu["kappa_pairs"], "cheeger_upper": ch["upper"]}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
