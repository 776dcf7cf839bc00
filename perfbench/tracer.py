"""Per-layer tracing from outside the package.

The traced run wraps the public functions below before the tasks start.
Each function is replaced in every ``forestmaps`` module that holds a
reference to it (``critical`` binds ``psi_numeric`` at import, so patching
``hyp`` alone would miss those calls), and a method is replaced under every
name its class binds it to (``UPoly.__rmul__`` is ``__mul__``).  A wrapper
records a span per call; the self time of a span is its duration minus the
time its child spans cover.  Spans are aggregated per function in memory.
Untraced runs never import this module, so they run the package unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

TARGETS = (
    "upoly.UPoly.__mul__",
    "series.ZSeries.__mul__",
    "trees.phi_theta_tables",
    "solver.compose_biv",
    "solver.solve_rs",
    "solver.solve_s_tilde",
    "fast.cubic_rs_coeffs",
    "fast.quartic_r_coeffs",
    "fast.quartic_series",
    "fast.cubic_fprime_coeffs",
    "fast.conv_trunc",
    "fast.quartic_fseries_float",
    "fast.cubic_fprime_float",
    "maps.enumerate_maps",
    "maps.forest_poly",
    "maps.bernardi_activities",
    "deverify.check_de",
    "deverify.check_identity",
    "hyp.psi_numeric",
    "hyp.phi_numeric",
    "critical.radius",
    "critical.quartic_tau",
    "critical.s_tilde_characteristic",
    "critical.cubic_characteristic_positive",
    "asymptotics.log_singularity_probe",
    "asymptotics.cubic_beta_fit",
    "asymptotics.coefficient_asymptotic_check",
    "randmodel.kappa",
    "randmodel.finite_n_expectations",
    "cli.main",
)

# functions whose (kind, argument, digits, method) tuples are counted
HYP = ("hyp.psi_numeric", "hyp.phi_numeric")


def _hyp_key(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    kind, x, prec, method = bound.arguments.values()
    return kind, repr(x), prec.working_digits, method


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.keys = {name: set() for name in HYP}
        self.maps_returned = 0
        self.bindings = {name: [] for name in TARGETS}
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        keys = self.keys.get(name)
        signature = inspect.signature(fn) if keys is not None else None
        count_maps = name == "maps.enumerate_maps"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if keys is not None:
                keys.add(_hyp_key(signature, args, kwargs))
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                stack[-1] += dt
            if count_maps:
                self.maps_returned += len(out)
            return out

        return span

    def _patch(self, owner, attr, orig, wrapper, name):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        self.bindings[name].append("%s.%s" % (getattr(owner, "__name__", owner), attr))

    def install(self):
        import forestmaps

        modules = [importlib.import_module("forestmaps." + m.name)
                   for m in pkgutil.iter_modules(forestmaps.__path__)]
        modules.append(forestmaps)
        for name in TARGETS:
            mod_name, *path = name.split(".")
            mod = sys.modules["forestmaps." + mod_name]
            if len(path) == 2:  # a method: every class attribute bound to it
                cls = getattr(mod, path[0])
                orig = cls.__dict__[path[1]]
                wrapper = self._wrap(name, orig)
                for attr, value in list(vars(cls).items()):
                    if value is orig:
                        self._patch(cls, attr, orig, wrapper, name)
            else:  # a function: every module that imported it
                orig = getattr(mod, path[0])
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, orig, wrapper, name)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-function calls and self time, hyp distinct-argument counts,
        maps returned by enumerate_maps, and where each name was patched."""
        stats = {}
        for name in TARGETS:
            stats[name + ".calls"] = self.calls[name]
            stats[name + ".self_s"] = self.self_s[name]
        for name in HYP:
            stats[name + ".distinct"] = len(self.keys[name])
        stats["maps.enumerate_maps.maps"] = self.maps_returned
        return {"stats": stats, "bindings": self.bindings}
