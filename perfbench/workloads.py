"""The benchmark's workloads: seeded inputs, the invocations of one session,
and the checks on every invocation's output.

Each workload draws a fixed family of base spaces and lets the seed choose a
random relabelling (a permutation of the points) of each, or, for
``grid-heat``, the initial field. Every reported quantity that the checks
compare with ``reference.json`` is invariant under relabelling, so one stored
reference serves every seed, and the work per session does not depend on
the seed. Quantities that do depend on the labelling (the spectrum-based
decay fit, Cheeger witnesses, heat states) are recomputed here by
independent numpy code instead.

A check returns None when the output is right, otherwise ``(reason,
known)``. ``known`` marks the one wrong answer the program is known to give
at this commit: the heat series returns zeros once its e^{-t} prefactor
underflows (t > 745). It still counts as a failed invocation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# fixed draws for the random base spaces; the run seed only relabels them
SMALL_RANDOM = dict(n=24, rng=0, density=0.2)
CURVED_RANDOM = dict(n=40, rng=0, density=0.5)
GRID = dict(intervals=[(0.0, 1.0)], h=1 / 199, radius=0.02)
HEAT_GRID = dict(intervals=[(0.0, 1.0)], h=1 / 699, radius=0.2)
HEAT_RUNS = (  # (method, time grid); one invocation each
    ("series", "0.5,2,8,32"), ("series", "128,512"), ("series", "760,900"),
    ("spectral", "0.5,2,8,32"), ("spectral", "128,512"), ("spectral", "760,900"),
    ("rk4", "4,32"),
)


@dataclass(frozen=True)
class Invocation:
    label: str  # names the invocation in failure reports, without file paths
    argv: list
    check: Callable  # (exit code, stdout) -> None | (reason, known)


@dataclass(frozen=True)
class Prepared:
    """A space as written for the program, with what the checks need."""

    name: str
    path: str
    perm: np.ndarray  # point i of the written space is point perm[i] of the base space
    kernel: np.ndarray
    measure: np.ndarray


# ---------------------------------------------------------------------------
# inputs


def base_spaces(workload, builders):
    """(name, base space, write metric as graph_shortest_path) per input."""
    if workload == "analyze-small":
        r = SMALL_RANDOM
        return [("P3", builders.fixture("P3"), False),
                ("K3", builders.fixture("K3"), False),
                ("TwoBlock(0.1)", builders.fixture("TwoBlock(0.1)"), False),
                ("random24", builders.random_reversible_space(
                    r["n"], np.random.default_rng(r["rng"]), density=r["density"]), True)]
    if workload == "analyze-curved":
        r = CURVED_RANDOM
        return [("random40", builders.random_reversible_space(
            r["n"], np.random.default_rng(r["rng"]), density=r["density"]), True)]
    if workload == "grid-curvature":
        g = GRID
        return [("grid200", builders.grid_kernel_neumann(g["intervals"], h=g["h"], radius=g["radius"]),
                 False)]
    if workload == "grid-heat":
        g = HEAT_GRID
        return [("grid700", builders.grid_kernel_neumann(g["intervals"], h=g["h"], radius=g["radius"]),
                 False)]
    raise KeyError(workload)


def write_space(core, space, path, graph_metric):
    doc = core.space_to_json(space)
    if graph_metric:
        doc["metric"] = {"type": "graph_shortest_path"}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def setup(workload, builders, core, seed, workdir):
    """Build the seeded inputs with ``builders`` and write their JSON.

    This is the work ``setup_s`` times. The seed relabels every base space;
    for ``grid-heat`` it draws the initial field instead.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k, (name, base, graph_metric) in enumerate(base_spaces(workload, builders)):
        if workload == "grid-heat":
            perm, space = np.arange(base.n), base
            field = rng.random(base.n)
            with open(Path(workdir) / "init.json", "w") as fh:
                json.dump({"values": field.tolist()}, fh)
        else:
            perm = rng.permutation(base.n)
            space = core.Space(tuple(base.labels[i] for i in perm),
                               base.metric[np.ix_(perm, perm)], base.kernel[np.ix_(perm, perm)],
                               base.measure[perm], base.metric_sentinel)
        path = str(Path(workdir) / f"space{k}.json")
        write_space(core, space, path, graph_metric)
        out.append(Prepared(name, path, perm, np.array(space.kernel), np.array(space.measure)))
    return out


# ---------------------------------------------------------------------------
# independent reference computations


def spectrum(kernel, measure):
    """Eigenvalues of the generator on L^2(nu), ascending, with eigenvectors
    of the symmetrized kernel and s = sqrt(nu)."""
    nu = measure / measure.sum()
    s = np.sqrt(nu)
    S = s[:, None] * kernel / s[None, :]
    mu, U = np.linalg.eigh(0.5 * (S + S.T))
    return (1.0 - mu)[::-1], U[:, ::-1], s


def spectral_fields(kernel, measure, zero_tol=1e-10):
    """gap, gap_ibe, kernel dimension and decay fit, by their definitions."""
    lam, U, s = spectrum(kernel, measure)
    n = len(lam)
    kdim = int(np.count_nonzero(np.abs(lam) <= zero_tol))
    ergodic = kdim == 1 and n > 1
    gap = float(lam[1]) if ergodic else 0.0
    gap_ibe = float(lam[lam > zero_tol].min()) if ergodic else None
    fit = None
    if gap > 0:
        nu = s * s
        f = np.zeros(n)
        f[0] = 1.0
        w = U.T @ (s * f)
        ts = np.linspace(0.5, 5.0, 10)
        norms = [math.sqrt(float(nu @ ((U @ (np.exp(-t * lam) * w)) / s - nu[0]) ** 2)) for t in ts]
        fit = float(-np.polyfit(ts, np.log(norms), 1)[0])
    return {"lam": lam, "gap": gap, "gap_ibe": gap_ibe, "kernel_dim": kdim, "decay_fit": fit}


class Mismatches(list):
    def close(self, what, got, want, tol):
        if want is None or got is None:
            if got is not want:
                self.append(f"{what}: {got!r} != {want!r}")
        elif not abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want))):
            self.append(f"{what}: {got!r} != {want!r}")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: {got!r} != {want!r}")

    def verdict(self):
        return ("; ".join(self[:4]), False) if self else None


def _parse(rc, out):
    if rc != 0:
        return None, (f"exit code {rc}", False)
    try:
        return json.loads(out), None
    except ValueError as e:
        return None, (f"unparseable output: {e}", False)


# ---------------------------------------------------------------------------
# checks


def check_analyze(p: Prepared, ref):
    spec = spectral_fields(p.kernel, p.measure)
    with open(p.path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()

    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        m = Mismatches()
        m.equal("n", o["space_summary"]["n"], ref["n"])
        m.close("total_mass", o["space_summary"]["total_mass"], ref["total_mass"], 1e-12)
        if not o["space_summary"]["max_residual"] <= 1e-9:
            m.append(f"max_residual {o['space_summary']['max_residual']}")
        m.equal("connectivity", o["connectivity"], ref["connectivity"])
        sp = o["spectral"]
        m.close("gap", sp["gap"], spec["gap"], 1e-9)
        m.close("gap_ibe", sp["gap_ibe"], spec["gap_ibe"], 1e-9)
        head = spec["lam"][: min(8, ref["n"])]
        got = np.asarray(sp["spectrum_head"], dtype=float)
        if got.shape != head.shape or np.abs(got - head).max() > 1e-9:
            m.append("spectrum_head")
        m.close("decay_fit", sp["decay_fit"], spec["decay_fit"], 1e-6)
        for k in ("lower", "upper"):
            m.close(f"cheeger.{k}", o["cheeger"][k], ref["cheeger"][k], 1e-9)
        m.equal("cheeger.exact", o["cheeger"]["exact"], ref["cheeger"]["exact"])
        m.close("kappa_global", o["curvature"]["kappa_global"], ref["curvature"]["kappa_global"], 1e-9)
        m.equal("be keys", sorted(o["curvature"]["be"]), sorted(ref["curvature"]["be"]))
        for k, v in ref["curvature"]["be"].items():
            m.close(f"be.{k}", o["curvature"]["be"].get(k), v, 1e-8)
        m.close("theta_m", o["transport"]["theta_m"], ref["theta_m"], 1e-12)
        for kind, want in ref["max_ratios"].items():
            got = o["transport"]["max_ratios"].get(kind)
            if want == "bounded":  # the inequality holds: ratio at most one
                if not (isinstance(got, (int, float)) and 0.0 <= got <= 1.0 + 1e-9):
                    m.append(f"{kind}: {got!r} is not a ratio <= 1")
            elif want == "violated":  # fails on a non-ergodic space, as it must
                if not (isinstance(got, (int, float)) and got > 1.0 + 1e-9):
                    m.append(f"{kind}: {got!r} is not a ratio > 1")
            elif want == "unbounded":  # a block indicator breaks it: ratio inf, printed null
                m.equal(kind, got, None)
            else:  # an expected skip is part of the right answer
                m.equal(kind, got, want)
        m.equal("input_sha256", o["provenance"]["input_sha256"], sha)
        m.equal("timings_s", o["provenance"]["timings_s"], None)
        return m.verdict()

    return check


def check_validate(p: Prepared):
    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        m = Mismatches()
        m.equal("ok", o["ok"], True)
        for c in o["checks"]:
            if not (c["ok"] and c["residual"] <= c["tolerance"]):
                m.append(f"axiom {c['axiom']}")
        return m.verdict()
    return check


def check_spectral(p: Prepared):
    spec = spectral_fields(p.kernel, p.measure)

    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        m = Mismatches()
        if np.abs(np.asarray(o["spectrum"]) - spec["lam"]).max() > 1e-9:
            m.append("spectrum")
        for k in ("gap", "gap_ibe"):
            m.close(k, o[k], spec[k], 1e-9)
        m.equal("kernel_dim", o["kernel_dim"], spec["kernel_dim"])
        m.close("decay_fit", o["decay_fit"], spec["decay_fit"], 1e-6)
        return m.verdict()
    return check


def check_cheeger_sweep(p: Prepared, ref):
    gap = spectral_fields(p.kernel, p.measure)["gap"]
    nu = p.measure / p.measure.sum()
    Q = nu[:, None] * p.kernel

    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        m = Mismatches()
        m.equal("exact", o["exact"], False)
        m.close("lower", o["lower"], gap / 2.0, 1e-9)
        m.close("upper", o["upper"], ref["cheeger_upper"], 1e-9)
        mask = np.zeros(len(nu), dtype=bool)
        mask[np.asarray(o["witness"], dtype=int)] = True
        mass = float(nu[mask].sum())
        if not 0.0 < mass <= 0.5 + 1e-12:
            m.append(f"witness mass {mass}")
        else:
            m.close("witness ratio", float(Q[np.ix_(mask, ~mask)].sum()) / mass, o["upper"], 1e-9)
        return m.verdict()
    return check


def check_curvature_edges(p: Prepared, ref):
    adj = (p.kernel > 0) | (p.kernel.T > 0)
    edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(adj, 1)))}
    base = {(int(i), int(j)): k for i, j, k in ref["kappa_pairs"]}

    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        m = Mismatches()
        for k, v in ref["be"].items():
            m.close(f"be.{k}", o["be"].get(k), v, 1e-8)
        m.close("kappa_global", o["kappa_global"], ref["kappa_global"], 1e-9)
        pairs = {(int(i), int(j)): k for i, j, k in o["kappa_pairs"]}
        if set(pairs) != edges:
            m.append("kappa_pairs are not the support edges")
        else:
            worst = max(abs(k - base[tuple(sorted((int(p.perm[i]), int(p.perm[j]))))])
                        for (i, j), k in pairs.items())
            if worst > 1e-9:
                m.append(f"kappa_pairs off by {worst:.3g}")
        return m.verdict()
    return check


def check_heat(p: Prepared, eig, u0, method, grid):
    """States against an independent eigendecomposition ``eig`` of the same
    flow and, past the mixing time, against the stationary limit (the
    nu-average)."""
    lam, U, s = eig
    w = U.T @ (s * u0)
    times = [0.0] + [float(t) for t in grid.split(",")]
    nu = p.measure / p.measure.sum()
    limit = float(nu @ u0)
    tol = 1e-8 * max(1.0, float(np.abs(u0).max()))
    want = [(U @ (np.exp(-t * lam) * w)) / s for t in times]

    def check(rc, out):
        o, bad = _parse(rc, out)
        if bad:
            return bad
        if o["times"] != times or len(o["states"]) != len(times):
            return f"times {o['times']!r}", False
        wrong = []
        for t, state, ref in zip(times, o["states"], want):
            u = np.array([np.nan if v is None else v for v in state], dtype=float)
            err = float(np.abs(u - ref).max()) if u.shape == ref.shape else math.inf
            if t >= 700.0:
                err = max(err, float(np.abs(u - limit).max()))
            if not err <= tol:
                wrong.append(t)
        if not wrong:
            return None
        known = method == "series" and all(math.exp(-t) == 0.0 for t in wrong)
        return f"{method} states wrong at t={wrong}", known

    return check


# ---------------------------------------------------------------------------
# sessions


def plan(workload, prepared, workdir):
    """The invocations of one session, each with its check."""
    reference = json.loads(REFERENCE_FILE.read_text())
    if workload in ("analyze-small", "analyze-curved"):
        return [Invocation(f"analyze {p.name}", ["analyze", p.path],
                           check_analyze(p, reference["analyze"][p.name]))
                for p in prepared]
    (p,) = prepared
    if workload == "grid-curvature":
        ref = reference["grid-curvature"]
        return [Invocation("validate", ["validate", p.path], check_validate(p)),
                Invocation("spectral", ["spectral", p.path], check_spectral(p)),
                Invocation("cheeger", ["cheeger", p.path], check_cheeger_sweep(p, ref)),
                Invocation("curvature", ["curvature", p.path, "--be", "2,inf", "--ollivier", "edges"],
                           check_curvature_edges(p, ref))]
    init = str(Path(workdir) / "init.json")
    with open(init) as fh:
        u0 = np.asarray(json.load(fh)["values"], dtype=float)
    eig = spectrum(p.kernel, p.measure)
    return [Invocation(f"heat {method} {grid}",
                       ["heat", p.path, "--init", init, "--method", method, "--grid", grid],
                       check_heat(p, eig, u0, method, grid))
            for method, grid in HEAT_RUNS]


WORKLOADS = ("analyze-small", "analyze-curved", "grid-curvature", "grid-heat")
