"""Outside-in tracer for the mrws layers.

The tracer wraps the public functions of every ``mrws`` module at every
module that binds them (``mrws.transport.wasserstein`` and
``mrws.curvature.wasserstein`` are the same function, bound twice), plus two
foreign calls that dominate some workloads: ``scipy.optimize.linprog`` as
bound in ``mrws.transport`` (span ``transport.lp``) and numpy's symmetric
eigensolvers (span ``linalg.eigh``). Nothing inside the program changes;
``uninstall`` puts every original binding back.

Each call becomes a span (name, start, end, parent, raised). A span that ends
in an exception is kept and marked raised. A layer's self time is the sum of
its spans' durations minus the part covered by their child spans, so the
layers' self times plus the time outside every span add up to the traced
wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# module -> layer; _linalg is part of the spectral layer
LAYER_OF_MODULE = {
    "mrws.builders": "builders",
    "mrws.core": "core",
    "mrws.connectivity": "connectivity",
    "mrws.spectral": "spectral",
    "mrws._linalg": "spectral",
    "mrws.geometry": "geometry",
    "mrws.curvature": "curvature",
    "mrws.transport": "transport",
    "mrws.heat": "heat",
    "mrws.cli": "cli",
}

# calls whose space object and arguments can repeat an earlier call of the
# same invocation; every repeat is work a per-space cache would save
REPEAT_TRACKED = frozenset({
    "curvature.ollivier_global",
    "curvature.be_best_constant",
    "spectral.spectral_gap",
    "connectivity.invariant_blocks",
})


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, raised]
        self.counts = Counter()
        self._stack = []
        self._seen = set()
        self._alive = []  # keeps argument objects alive so their ids stay unique
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public mrws function at each module binding it."""
        import numpy as np

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "mrws" or name.startswith("mrws.")}
        wrappers = {}
        for modname, layer in LAYER_OF_MODULE.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)
        transport = modules["mrws.transport"]
        self._patch(transport, "linprog", self._wrap("transport.lp", transport.linprog))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._wrap("linalg.eigh", getattr(np.linalg, attr)))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _wrap(self, name, fn):
        hook = self._hook_for(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            renamed = hook(args, kwargs) if hook else None
            return self._call(renamed or name, fn, args, kwargs)

        return traced

    # -- per-function bookkeeping ------------------------------------------

    def _hook_for(self, name, fn):
        if name == "transport.lp":
            def lp(args, kwargs):
                c = args[0] if args else kwargs["c"]
                self.counts["transport.lp.vars"] += len(c)
            return lp
        if name == "linalg.eigh":
            return None
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "cli.main":
            def cli(args, kwargs):
                if not self._stack:  # a new invocation: repeats are counted within it
                    self._seen.clear()
                    self._alive.clear()
            return cli
        if name == "heat.heat_evolve":
            def heat(args, kwargs):
                self.counts["heat.heat_evolve.calls"] += 1
                return f"heat.{bound(args, kwargs)['method']}"
            return heat
        if name == "geometry.cheeger":
            from mrws import geometry

            def cheeger(args, kwargs):
                a = bound(args, kwargs)
                n = a["space"].n
                if a["mode"] == "exact" and 2 <= n <= geometry.EXACT_ENUM_LIMIT:
                    self.counts["geometry.bipartitions"] += (1 << (n - 1)) - 1
            return cheeger
        if name in REPEAT_TRACKED:
            def repeat(args, kwargs):
                key = [name]
                for k, v in bound(args, kwargs).items():
                    if isinstance(v, (int, float, str, bool, type(None))):
                        key.append((k, v))
                    else:
                        self._alive.append(v)
                        key.append((k, id(v)))
                key = tuple(key)
                if key in self._seen:
                    self.counts[f"{name}.repeat_calls"] += 1
                self._seen.add(key)
            return repeat
        return None

    def _call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- aggregation -----------------------------------------------------------

    def summary(self):
        """Totals over all spans: per span name calls, raised and self time,
        per layer self time, and the time covered by top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, raised, self_s = Counter(), Counter(), defaultdict(float)
        layer_s, covered = defaultdict(float), 0.0
        for (name, start, end, parent, err), inner in zip(self.spans, child):
            own = (end - start) - inner
            calls[name] += 1
            raised[name] += err
            self_s[name] += own
            layer_s[name.split(".", 1)[0]] += own
            if parent < 0:
                covered += end - start
        return {"calls": calls, "raised": raised, "self_s": self_s,
                "layer_self_s": layer_s, "covered_s": covered, "counts": Counter(self.counts)}

    def export(self):
        """Spans as plain records, for writing out at the end of a run."""
        return [{"name": n, "start": s, "end": e, "parent": p, "raised": r}
                for n, s, e, p, r in self.spans]
