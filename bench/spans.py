"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the plap modules by rebinding module
attributes in this process, so that plap itself is not changed.  A function
is rebound in every plap namespace that holds it: the package, the modules
that imported it by name, and its own module, because `plap.cli` calls the
other layers through module attributes (`radial_ode.radial_exterior_eigen`).
Inside `plap.indicial` the module's own scalar helpers are left unwrapped:
`indicial_roots` calls them several times per root solve, and their cost is
counted as `indicial_roots` time.

Two foreign names are wrapped where plap imported them, to split the
numerical kernels: `plap.radial_ode.solve_ivp` and `plap.grid_pde.splu`
(whose factor object is proxied so that its `solve` becomes the
`grid_pde.lu_solve` span).

Spans are kept in memory as (name, start, end, parent, op) rows and written
out by `Tracer.dump` at the end of the run; counters taken from return
values (`nfev`, `SolveStats`, `bisection_iters`) and raised exception
classes are attached to their span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("indicial", "radial_ode", "blowup", "grid_pde", "cli")


class _TracedLU:
    """Factor object proxy whose `solve` is a traced call."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []     # [name_id, start, end, parent, op]
        self.info = {}      # span index -> counters from the return value
        self._stack = []
        self.op = -1
        self._restore = []

    # --- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        spans, stack, info = self.spans, self._stack, self.info
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                row[2] = clock()
                stack.pop()
                info[idx] = {"raised": type(exc).__name__}
                raise
            row[2] = clock()
            stack.pop()
            if after is not None:
                out = after(idx, out, kwargs)
            return out

        return traced

    # --- counters taken from return values -----------------------------------

    def _after_solve_ivp(self, idx, sol, kwargs):
        self.info[idx] = {"nfev": int(sol.nfev),
                          "method": str(kwargs.get("method", "RK45"))}
        return sol

    def _after_shoot(self, idx, shot, _kwargs):
        self.info[idx] = {"bisection_iters": int(shot.bisection_iters)}
        return shot

    def _after_dirichlet(self, idx, out, _kwargs):
        stats = out[1]
        self.info[idx] = {"newton_iters": int(stats.newton_iters),
                          "damping_events": int(stats.damping_events)}
        return out

    def _after_splu(self, _idx, lu, _kwargs):
        return _TracedLU(lu, self.wrap("grid_pde.lu_solve", lu.solve))

    # --- installing and removing the wrappers --------------------------------

    def install(self):
        """Rebind the layer functions in every plap namespace."""
        after = {"radial_ode.radial_exterior_eigen": self._after_shoot,
                 "grid_pde.solve_dirichlet": self._after_dirichlet}
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"plap.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                targets[obj] = (name, self.wrap(name, obj, after.get(name)))
        radial_ode = sys.modules["plap.radial_ode"]
        grid_pde = sys.modules["plap.grid_pde"]
        targets[radial_ode.solve_ivp] = (
            "radial_ode.solve_ivp",
            self.wrap("radial_ode.solve_ivp", radial_ode.solve_ivp,
                      self._after_solve_ivp))
        targets[grid_pde.splu] = (
            "grid_pde.splu",
            self.wrap("grid_pde.splu", grid_pde.splu, self._after_splu))

        for mod_name in sorted(sys.modules):
            if mod_name != "plap" and not mod_name.startswith("plap."):
                continue
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in targets:
                    continue
                name, wrapped = targets[obj]
                if mod_name == "plap.indicial" and name.startswith("indicial."):
                    continue  # scalar helpers stay inside indicial_roots
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output --------------------------------------------------------------

    def dump(self, path):
        """Write every span and its counters to one .npz file."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        info_idx = np.array(sorted(self.info), dtype=np.int64)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=arr[:, 0].astype(np.int32), start=arr[:, 1],
                 end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                 op=arr[:, 4].astype(np.int32), info_span=info_idx,
                 info=np.array([repr(self.info[i]) for i in info_idx], dtype=str))


class SpanTable:
    """Per-span derived quantities: duration, self time, module ancestry."""

    def __init__(self, tracer: Tracer, ops=None):
        """Spans of all operations, or of operations 0 .. ops-1 only."""
        self.tracer = tracer
        spans = tracer.spans
        if ops is not None:
            spans = [s for s in spans if s[4] < ops]
        count = len(spans)
        self.name = [tracer.names[s[0]] for s in spans]
        self.layer = [n.split(".", 1)[0] for n in self.name]
        self.parent = [s[3] for s in spans]
        self.op = [s[4] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(count)]
        # top[i]: no ancestor of span i belongs to the same layer, so its
        # duration counts once toward that layer's busy time
        self.top = [True] * count
        layers_above = [frozenset()] * count
        for i in range(count):
            par = self.parent[i]
            if par >= 0:
                layers_above[i] = layers_above[par] | {self.layer[par]}
                self.top[i] = self.layer[i] not in layers_above[i]

    def calls(self, name):
        return sum(1 for n in self.name if n == name)

    def busy(self, name):
        return sum(d for n, d in zip(self.name, self.dur) if n == name)

    def self_busy(self, name):
        return sum(d for n, d in zip(self.name, self.self_time) if n == name)

    def layer_busy(self, layer):
        return sum(d for lay, d, top in zip(self.layer, self.dur, self.top)
                   if lay == layer and top)

    def layer_self(self, layer):
        return sum(d for lay, d in zip(self.layer, self.self_time) if lay == layer)

    def info(self, name, key):
        info = self.tracer.info
        return sum(info.get(i, {}).get(key, 0)
                   for i, n in enumerate(self.name) if n == name)

    def raised(self, name, exc_name):
        info = self.tracer.info
        return sum(1 for i, n in enumerate(self.name)
                   if n == name and info.get(i, {}).get("raised") == exc_name)

    def shoot_ivp(self, method):
        """(calls, nfev, busy) of solve_ivp calls made directly by
        radial_exterior_eigen with the given method: RK45 is the outward
        classifier of the bisection, DOP853 the inward ratio-flow pass."""
        calls = nfev = 0
        busy = 0.0
        info = self.tracer.info
        for i, n in enumerate(self.name):
            par = self.parent[i]
            if (n == "radial_ode.solve_ivp" and par >= 0
                    and self.name[par] == "radial_ode.radial_exterior_eigen"
                    and info.get(i, {}).get("method") == method):
                calls += 1
                nfev += info[i]["nfev"]
                busy += self.dur[i]
        return calls, nfev, busy

    def op_counts(self):
        """Per-operation counters that must repeat exactly for equal inputs:
        span counts by name (indicial_roots split by calling cli step),
        nfev sums and bisection iterations."""
        per_op = defaultdict(Counter)
        info = self.tracer.info
        for i, n in enumerate(self.name):
            c = per_op[self.op[i]]
            c[n] += 1
            if n == "indicial.indicial_roots":
                par = self.parent[i]
                while par >= 0 and not self.name[par].startswith("cli.step_"):
                    par = self.parent[par]
                caller = self.name[par] if par >= 0 else "-"
                c[f"indicial.indicial_roots<{caller}"] += 1
            for key, val in info.get(i, {}).items():
                if isinstance(val, int):
                    c[f"{n}.{key}"] += val
        return per_op
