"""Spans around the calls into each legclair module, for the traced run.

The package carries no tracing of its own: the traced run wraps its public
functions and methods from outside and restores them afterwards.  A function
imported with ``from .expr import eval_dual2`` is a separate binding in every
module that imports it, so each binding found in a ``legclair`` module is
wrapped.  A named boundary that no longer exists raises ``BoundaryMissing``
instead of silently reporting an empty layer.

Spans are aggregated in memory as they close: calls, self time and failures
per span name, call counts per (parent, child) edge, and inclusive counts of
selected inner spans within selected scopes.  Keeping every span would mean
millions of records per run; the aggregates are what the metrics need.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# span name -> (module, function)
FUNCTIONS = {
    "expr.eval_dual2": ("legclair.expr", "eval_dual2"),
    "expr.evaluate": ("legclair.expr", "evaluate"),
    "expr.parse": ("legclair.expr", "parse"),
    "partition.partition_indices": ("legclair.partition", "partition_indices"),
    "dynamics.integrate_el": ("legclair.dynamics", "integrate_el"),
    "dynamics.integrate_ham": ("legclair.dynamics", "integrate_ham"),
    "dynamics.write_trajectory_csv": ("legclair.dynamics",
                                      "write_trajectory_csv"),
    "dynamics.compare_trajectories": ("legclair.dynamics",
                                      "compare_trajectories"),
    "cli.main": ("legclair.cli", "main"),
    "cli.load_problem": ("legclair.cli", "load_problem"),
    "cli.cmd_analyze": ("legclair.cli", "cmd_analyze"),
    "cli.cmd_transform": ("legclair.cli", "cmd_transform"),
    "cli.cmd_integrate": ("legclair.cli", "cmd_integrate"),
    "cli.cmd_verify": ("legclair.cli", "cmd_verify"),
    "cli.run_property_suite": ("legclair.cli", "run_property_suite"),
}

# (span name, module, class, method)
METHODS = (
    ("clairaut.solve", "legclair.clairaut", "EnvelopeSolver", "solve"),
    ("clairaut.value", "legclair.clairaut", "MixedHamiltonian", "value"),
    ("clairaut.psi", "legclair.clairaut", "MixedHamiltonian", "psi"),
    ("clairaut.h_zero", "legclair.clairaut", "MixedHamiltonian", "h_zero"),
    ("clairaut.inverse_transform", "legclair.clairaut", "MixedHamiltonian",
     "inverse_transform"),
    ("clairaut.clairaut_residual", "legclair.clairaut", "MixedHamiltonian",
     "clairaut_residual"),
    ("dynamics.gauge", "legclair.dynamics", "GaugeChoice", "value"),
    ("dynamics.gauge", "legclair.dynamics", "GaugeChoice", "jacobian"),
)

SPANS = tuple(FUNCTIONS) + tuple(dict.fromkeys(m[0] for m in METHODS))

# Inner spans counted inclusively inside each scope span (per RK4 step).
SCOPES = ("dynamics.integrate_el", "dynamics.integrate_ham")
SCOPED = ("expr.eval_dual2", "clairaut.solve")


class BoundaryMissing(RuntimeError):
    """A traced function or method is gone from the package."""


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.edges = defaultdict(int)     # (parent or None, child) -> calls
        self.scoped = defaultdict(int)    # (scope, inner) -> calls
        self.sites = defaultdict(list)    # span -> bindings wrapped
        self._stack = []                  # open spans: [name, child seconds]
        self._patches = []

    def _wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        errors, edges, scoped = self.errors, self.edges, self.scoped
        is_scope = name in SCOPES
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            if is_scope:
                before = [calls[inner] for inner in SCOPED]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if not ok:
                    errors[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[parent[0], name] += 1
                else:
                    edges[None, name] += 1
                if is_scope:
                    for inner, count in zip(SCOPED, before):
                        scoped[name, inner] += calls[inner] - count

        return span

    def _patch(self, owner, attr, name, original):
        setattr(owner, attr, self._wrap(name, original))
        self._patches.append((owner, attr, original))

    def install(self):
        import legclair  # noqa: F401  (loads every module of the package)

        self.sites.clear()
        modules = {
            mname: module for mname, module in sorted(sys.modules.items())
            if mname == "legclair" or mname.startswith("legclair.")
        }
        for name, (mname, attr) in FUNCTIONS.items():
            original = getattr(modules.get(mname), attr, None)
            if not callable(original):
                raise BoundaryMissing(
                    f"{mname}.{attr} no longer exists; span {name!r} "
                    "cannot be recorded"
                )
            for site_module, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, name, original)
                        self.sites[name].append(f"{site_module}.{key}")
        for name, mname, cls, meth in METHODS:
            owner = getattr(modules.get(mname), cls, None)
            original = vars(owner).get(meth) if owner is not None else None
            if not callable(original):
                raise BoundaryMissing(
                    f"{mname}.{cls}.{meth} no longer exists; span {name!r} "
                    "cannot be recorded"
                )
            self._patch(owner, meth, name, original)
            self.sites[name].append(f"{mname}.{cls}.{meth}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()
