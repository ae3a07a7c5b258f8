"""Command-line front end: build spaces, run each analysis, or the full report.

Every subcommand prints one JSON document to stdout. Output is deterministic:
keys are sorted and floats are rendered with 17 significant digits, so equal
inputs give byte-identical reports (timings are opt-in precisely because they
would break that).

Every input document is read as bytes and decoded as UTF-8, whatever the
locale.

Exit codes: 0 success, 1 structural error, 2 validation failure,
3 hypothesis failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np
import orjson

from . import __version__, builders, connectivity, curvature, geometry, spectral, transport
from .core import (HypothesisError, ScalarField, StructuralError, space_from_json,
                   space_to_json, validate_space)
from .heat import heat_trajectory

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    def render(o):
        if isinstance(o, bool) or o is None or isinstance(o, (int, str)):
            return json.dumps(o)
        if isinstance(o, float):
            if math.isnan(o) or math.isinf(o):
                return json.dumps(None)
            return format(o, ".17g")
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return render(o.item())
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize {type(o)}")
    return render(obj)


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


def _read_json(path):
    """The JSON document at ``path``, and its bytes.

    orjson parses it where it can. What orjson refuses (NaN, Infinity, 1e400,
    a BOM, invalid UTF-8, a lone surrogate), and a document whose labels hold
    an integer too wide for 64 bits, which orjson would round to a float, go
    to ``json``; so every input gives the object, or the error, ``json`` gives.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    else:
        if not (isinstance(obj, dict) and _wide_int(obj.get("labels"))):
            return obj, raw
    return json.loads(raw.decode()), raw


def _wide_int(x) -> bool:
    """Whether x holds an integral float of magnitude 2^63 or more: where
    orjson gives one, the document may have held a wider integer."""
    if isinstance(x, float):
        return abs(x) >= 2.0 ** 63 and x.is_integer()
    if isinstance(x, list):
        return any(map(_wide_int, x))
    if isinstance(x, dict):
        return any(map(_wide_int, x.values()))
    return False


def _load_space(path):
    return space_from_json(_read_json(path)[0])


def _load_field(space, path) -> ScalarField:
    obj, _ = _read_json(path)
    if not isinstance(obj, dict) or "values" not in obj:
        raise StructuralError("field JSON must be an object with a 'values' array")
    return ScalarField(space, np.asarray(obj["values"], dtype=float))


def _parse_index_set(space, text):
    """Boolean mask of the points of a comma-separated list, so that a
    resolved position is never read again as a label. A token names the
    point whose label prints as it, and is a position only when no label
    does; a token that is one point's label and another point's position is
    refused."""
    mask = np.zeros(space.n, dtype=bool)
    for tok in filter(None, (t.strip() for t in text.split(","))):
        pos = int(tok) if tok.lstrip("-").isdigit() else None
        named = [i for i, lab in enumerate(space.labels) if str(lab) == tok]
        if pos is not None and 0 <= pos < space.n and pos not in named:
            named.append(pos)
        if len(named) > 1:
            a, b = (f"point {i} (label {space.labels[i]!r})" for i in named[:2])
            raise StructuralError(f"point {tok!r} is ambiguous: it names {a} and {b}")
        mask[named[0] if named else space.index(tok if pos is None else pos)] = True
    return mask


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_build(args) -> int:
    if args.family == "graph":
        space = builders.from_weighted_graph(builders.read_edge_csv(args.path))
    elif args.family == "cloud":
        space = builders.epsilon_step_from_point_cloud(builders.read_point_csv(args.path), args.eps)
    else:
        if not args.interval:
            raise StructuralError("grid build needs at least one --interval a b")
        space = builders.grid_kernel_neumann(args.interval, h=args.h, radius=args.radius)
    _emit(space_to_json(space))
    return EXIT_OK


def _cmd_validate(args) -> int:
    space = _load_space(args.space)
    report = validate_space(space)
    _emit({
        "ok": report.ok,
        "checks": [{"axiom": c.axiom, "residual": c.residual, "tolerance": c.tolerance, "ok": c.ok}
                   for c in report.checks],
    })
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_connect(args) -> int:
    space = _load_space(args.space)
    erg = connectivity.is_ergodic(space)
    blocks = connectivity.invariant_blocks(space)
    out = {
        "m_connected": connectivity.is_m_connected(space),
        "ergodic": erg.ergodic,
        "blocks": [[int(i) for i in b.indices] for b in blocks.blocks],
        "n_set": None,
        "h_set": None,
    }
    if args.set:
        reach = connectivity.reachability(space, _parse_index_set(space, args.set))
        out["n_set"] = [int(i) for i in reach.n_set.indices]
        out["h_set"] = [int(i) for i in reach.h_set.indices]
        out["first_hit"] = [int(k) for k in reach.first_hit]
    _emit(out)
    return EXIT_OK


def _cmd_heat(args) -> int:
    space = _load_space(args.space)
    u0 = _load_field(space, args.init)
    times = [float(t) for t in args.grid.split(",")] if args.grid else [args.t]
    traj = heat_trajectory(space, u0, times, method=args.method, tol=args.tol)
    _emit({"times": list(traj.times), "states": [st.values.tolist() for st in traj.states]})
    return EXIT_OK


def _cmd_spectral(args) -> int:
    space = _load_space(args.space)
    rep = spectral.spectral_gap(space, fit_decay=True)
    _emit({"gap": rep.gap, "spectrum": rep.spectrum.tolist(), "gap_ibe": rep.gap_ibe,
           "decay_fit": rep.decay_fit, "kernel_dim": rep.kernel_dim})
    return EXIT_OK


def _cmd_cheeger(args) -> int:
    space = _load_space(args.space)
    mode = "sweep" if args.sweep or (not args.exact and space.n > geometry.EXACT_ENUM_LIMIT) else "exact"
    res = geometry.cheeger(space, mode=mode)
    _emit({"lower": res.lower, "upper": res.upper, "exact": res.exact,
           "witness": [int(i) for i in res.witness_set.indices]})
    return EXIT_OK


def _cmd_geometry(args) -> int:
    space = _load_space(args.space)
    subset = _parse_index_set(space, args.set)
    per = geometry.perimeter(space, subset)  # the interaction with the complement
    _emit({"perimeter": per, "interaction_complement": per,
           "mean_curvature": geometry.mean_curvature(space, subset).values.tolist()})
    return EXIT_OK


def _cmd_curvature(args) -> int:
    space = _load_space(args.space)
    be = {}
    for tok in (args.be.split(",") if args.be else []):
        tok = tok.strip()
        be[tok] = curvature.be_best_constant(space, float(tok)).k_best_global  # float("inf") is inf
    policy = "all_pairs" if args.ollivier == "all" else "support_edges"
    res = curvature.ollivier_global(space, policy=policy)
    pairs = [[int(i), int(j), float(k)] for (i, j), k in sorted(res.kappa_pairs.items())]
    kappa = curvature.kappa_global(space) if policy == "all_pairs" else res.kappa_global  # as analyze
    _emit({"be": be, "kappa_global": kappa, "kappa_pairs": pairs})
    return EXIT_OK


def _cmd_transport(args) -> int:
    space = _load_space(args.space)
    mu = _load_field(space, args.mu).values
    nu2 = _load_field(space, args.nu).values if args.nu else space.nu
    plan = transport.wasserstein(space, mu, nu2, p=args.p)
    _emit({"cost": plan.cost, "plan": plan.coupling.tolist(), "dual_gap": plan.duality_gap})
    return EXIT_OK


def _cmd_verify(args) -> int:
    space = _load_space(args.space)
    ratio = transport.verify_transport_inequality(space, args.inequality, args.trials, rng=0)
    _emit({"inequality": args.inequality, "trials": args.trials,
           "max_ratio": ratio, "holds": bool(ratio <= 1.0 + 1e-9)})
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1 (got {args.trials})")
    obj, raw = _read_json(args.space)
    space = space_from_json(obj)

    timings = {}

    def clock(name, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            timings[name] = time.perf_counter() - t0

    report = clock("validate", lambda: validate_space(space))
    if not report.ok:
        _emit({"error": "space fails validation",
               "violations": [{"axiom": c.axiom, "residual": c.residual} for c in report.violations]})
        return EXIT_VALIDATION

    erg = clock("connectivity", lambda: connectivity.is_ergodic(space))
    blocks = connectivity.invariant_blocks(space)
    spect = clock("spectral", lambda: spectral.spectral_gap(space, fit_decay=True))
    mode = "exact" if space.n <= geometry.EXACT_ENUM_LIMIT else "sweep"
    ch = clock("cheeger", lambda: geometry.cheeger(space, mode=mode))

    be_ns = [tok.strip() for tok in args.be.split(",")] if args.be else ["2", "inf"]
    be = {}
    for tok in be_ns:
        be[tok] = clock(f"be_{tok}", lambda t=tok: curvature.be_best_constant(space, float(t))).k_best_global
    kappa = clock("ollivier", lambda: curvature.kappa_global(space))
    curv = {"kappa_global": kappa, "be": be}
    if kappa is None:  # over the pair LP budget: the support edges bound kappa above
        curv["kappa_upper_bound"] = clock("ollivier_edges", lambda: curvature.ollivier_global(
            space, "support_edges")).kappa_global

    stats = transport.transport_stats(space)
    ratios = {}
    for kind in ("ti_be", "ti_ollivier", "te"):
        try:
            ratios[kind] = clock(f"verify_{kind}", lambda k=kind: transport.verify_transport_inequality(
                space, k, trials=args.trials, rng=0))
        except HypothesisError as e:
            ratios[kind] = {"skipped": str(e)}

    # internal consistency of the reported constants; the curvature-dimension
    # bound on the gap is a global statement and needs ergodicity (the
    # pointwise constant can be positive on a space of several blocks)
    gap, h = spect.gap, ch.upper
    checks = [h * h / 2.0 <= gap + 1e-8, gap <= 2.0 * ch.upper + 1e-8]
    if kappa is not None and math.isfinite(kappa) and kappa > 0:
        checks.append(kappa <= gap + 1e-8)
    k_inf = be.get("inf")
    if erg.ergodic and k_inf is not None and math.isfinite(k_inf) and k_inf > 0:
        checks.append(k_inf <= gap + 1e-8)
    if not all(checks):
        raise RuntimeError("internally inconsistent report; refusing to emit")

    out = {
        "space_summary": {
            "n": space.n,
            "total_mass": space.total_mass,
            "max_residual": max(c.residual for c in report.checks),
        },
        "connectivity": {
            "m_connected": connectivity.is_m_connected(space),
            "ergodic": erg.ergodic,
            "blocks": blocks.count,
        },
        "spectral": {
            "gap": spect.gap,
            "gap_ibe": spect.gap_ibe,
            "spectrum_head": spect.spectrum[: min(8, space.n)].tolist(),
            "decay_fit": spect.decay_fit,
        },
        "cheeger": {"lower": ch.lower, "upper": ch.upper, "exact": ch.exact},
        "curvature": curv,
        "transport": {"theta_m": stats.theta_m, "max_ratios": ratios},
        "provenance": {
            "tool_version": __version__,
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "timings_s": {k: round(v, 6) for k, v in timings.items()} if args.timings else None,
        },
    }
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache  # built on the first main call, then reused
def _build_parser() -> _Parser:
    p = _Parser(prog="mrws", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a space and print its JSON")
    bs = b.add_subparsers(dest="family", required=True)
    bg = bs.add_parser("graph")
    bg.add_argument("path")
    bc = bs.add_parser("cloud")
    bc.add_argument("path")
    bc.add_argument("--eps", type=float, required=True)
    br = bs.add_parser("grid")
    br.add_argument("--interval", nargs=2, type=float, action="append", metavar=("A", "B"))
    br.add_argument("--h", type=float, required=True)
    br.add_argument("--radius", type=float, required=True)
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("validate", help="check the space axioms")
    v.add_argument("space")
    v.set_defaults(fn=_cmd_validate)

    c = sub.add_parser("connect", help="connectivity and reachability")
    c.add_argument("space")
    c.add_argument("--set", default=None)
    c.set_defaults(fn=_cmd_connect)

    h = sub.add_parser("heat", help="evolve an initial field")
    h.add_argument("space")
    h.add_argument("--init", required=True)
    h.add_argument("--t", type=float, default=1.0)
    h.add_argument("--method", choices=("series", "spectral", "rk4"), default="series")
    h.add_argument("--tol", type=float, default=1e-12,
                   help="sup-norm error budget: the series truncation and, past t = 512 under every "
                        "method, the distance to the stationary limit once a decay certificate "
                        "puts the flow within it")
    h.add_argument("--grid", default=None)
    h.set_defaults(fn=_cmd_heat)

    s = sub.add_parser("spectral", help="spectrum and gap")
    s.add_argument("space")
    s.set_defaults(fn=_cmd_spectral)

    ch = sub.add_parser("cheeger", help="Cheeger constant")
    ch.add_argument("space")
    g = ch.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true")
    g.add_argument("--sweep", action="store_true")
    ch.set_defaults(fn=_cmd_cheeger)

    ge = sub.add_parser("geometry", help="perimeter and curvature of a subset")
    ge.add_argument("space")
    ge.add_argument("--set", required=True)
    ge.set_defaults(fn=_cmd_geometry)

    cu = sub.add_parser("curvature", help="curvature constants")
    cu.add_argument("space")
    cu.add_argument("--be", default="2,inf")
    cu.add_argument("--ollivier", choices=("all", "edges"), default="all")
    cu.set_defaults(fn=_cmd_curvature)

    t = sub.add_parser("transport", help="optimal transport between two fields")
    t.add_argument("space")
    t.add_argument("--mu", required=True)
    t.add_argument("--nu", default=None)
    t.add_argument("--p", type=int, choices=(1, 2), default=1)
    t.set_defaults(fn=_cmd_transport)

    ve = sub.add_parser("verify", help="stress a transport inequality")
    ve.add_argument("space")
    ve.add_argument("--inequality", choices=transport.KINDS, required=True)
    ve.add_argument("--trials", type=int, default=200)
    ve.set_defaults(fn=_cmd_verify)

    a = sub.add_parser("analyze", help="full analysis report")
    a.add_argument("space")
    a.add_argument("--be", default=None)
    a.add_argument("--trials", type=int, default=50)
    a.add_argument("--timings", action="store_true")
    a.set_defaults(fn=_cmd_analyze)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.fn(args)
    except StructuralError as e:
        sys.stderr.write(f"mrws: structural error: {e}\n")
        return EXIT_STRUCTURAL
    except HypothesisError as e:
        sys.stderr.write(f"mrws: hypothesis failure: {e}\n")
        return EXIT_HYPOTHESIS
    except (OSError, json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"mrws: error: {e}\n")
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    raise SystemExit(main())
