"""Per-layer tracing for the traced benchmark run.

Spans come from this file only: each public function of the program is
replaced, where its caller looks it up, by a wrapper that records a span
(name, duration, time covered by child spans) or just counts calls. A
layer's self time is its span time minus the time its direct child spans
cover. Aggregates are kept in memory per round; nothing inside `src/`
changes.

A wrapped name that the program no longer has (a later change removed or
renamed it) is recorded as missing; every metric that depends on it is
then reported with value None instead of failing the workload.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (owner, attribute, span name, hook); owner is "module" or "module:Class".
# Hook "count" only counts calls (no span); the others measure extra values
# on the call, see Tracer._span.
TARGETS = (
    ("hypnls.expcli", "main", "expcli.main", None),
    ("hypnls.expcli", "evolve_run", "evolve.run", "monitor"),
    ("hypnls.evolve:_CNStepper", "step", "evolve.step", "count"),
    ("hypnls.evolve", "solve_banded", "evolve.tridiag_solve", None),
    ("hypnls.functionals", "compute_diagnostics", "functionals.diagnostics", None),
    ("hypnls.functionals", "localized_virial_rhs", "functionals.loc_virial", None),
    ("hypnls.functionals", "quadrature", "hypgeom.quadrature", None),
    ("hypnls.spectral", "quadrature", "hypgeom.quadrature", None),
    ("hypnls.functionals", "dirichlet_energy", "hypgeom.dirichlet", None),
    ("hypnls.groundstate", "solve_ground_state", "groundstate.solve", None),
    ("hypnls.groundstate", "shooting_classifier", "groundstate.shooting", None),
    ("hypnls.groundstate", "mass_constrained_minimize", "groundstate.mass_curve",
     "flow_steps"),
    ("hypnls.groundstate", "solve_banded", "groundstate.banded_solve", None),
    ("hypnls.spectral:SpectralTransform", "__init__", "spectral.setup", "kernel_bytes"),
    ("hypnls.spectral:SpectralTransform", "forward", "spectral.transform", None),
    ("hypnls.spectral:SpectralTransform", "inverse", "spectral.transform", None),
    ("hypnls.spectral:SpectralTransform", "inverse_many", "spectral.transform", None),
    ("hypnls.expcli", "write_text_atomic", "expcli.write", "bytes_written"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value from the Tracer, targets needed)
# targets are "owner.attribute" strings as in TARGETS
METRICS = {
    "evolve.run_s": ("s", lambda tr: tr.time["evolve.run"],
                     ["hypnls.expcli.evolve_run"]),
    "evolve.self_s": ("s", lambda tr: tr.self_time["evolve.run"],
                      ["hypnls.expcli.evolve_run", "hypnls.evolve.solve_banded",
                       "hypnls.functionals.compute_diagnostics"]),
    "evolve.steps": ("count", lambda tr: tr.calls["evolve.step"],
                     ["hypnls.evolve:_CNStepper.step"]),
    "evolve.tridiag_solves": ("count", lambda tr: tr.calls["evolve.tridiag_solve"],
                              ["hypnls.evolve.solve_banded"]),
    "evolve.tridiag_solve_s": ("s", lambda tr: tr.time["evolve.tridiag_solve"],
                               ["hypnls.evolve.solve_banded"]),
    "evolve.solves_per_step": (
        "solves/step",
        lambda tr: _ratio(tr.calls["evolve.tridiag_solve"], tr.calls["evolve.step"]),
        ["hypnls.evolve.solve_banded", "hypnls.evolve:_CNStepper.step"],
    ),
    "functionals.diagnostics_calls": (
        "count", lambda tr: tr.calls["functionals.diagnostics"],
        ["hypnls.functionals.compute_diagnostics"],
    ),
    "functionals.diagnostics_s": (
        "s", lambda tr: tr.time["functionals.diagnostics"],
        ["hypnls.functionals.compute_diagnostics"],
    ),
    "functionals.loc_virial_calls": (
        "count", lambda tr: tr.calls["functionals.loc_virial"],
        ["hypnls.functionals.localized_virial_rhs"],
    ),
    "functionals.loc_virial_s": (
        "s", lambda tr: tr.time["functionals.loc_virial"],
        ["hypnls.functionals.localized_virial_rhs"],
    ),
    "hypgeom.quadrature_calls": (
        "count", lambda tr: tr.calls["hypgeom.quadrature"],
        ["hypnls.functionals.quadrature", "hypnls.spectral.quadrature"],
    ),
    "hypgeom.dirichlet_calls": (
        "count", lambda tr: tr.calls["hypgeom.dirichlet"],
        ["hypnls.functionals.dirichlet_energy"],
    ),
    "hypgeom.kernel_s": (
        "s", lambda tr: tr.time["hypgeom.quadrature"] + tr.time["hypgeom.dirichlet"],
        ["hypnls.functionals.quadrature", "hypnls.spectral.quadrature",
         "hypnls.functionals.dirichlet_energy"],
    ),
    "groundstate.solve_s": ("s", lambda tr: tr.time["groundstate.solve"],
                            ["hypnls.groundstate.solve_ground_state"]),
    "groundstate.shooting_calls": (
        "count", lambda tr: tr.calls["groundstate.shooting"],
        ["hypnls.groundstate.shooting_classifier"],
    ),
    "groundstate.shooting_s": (
        "s", lambda tr: tr.time["groundstate.shooting"],
        ["hypnls.groundstate.shooting_classifier"],
    ),
    "groundstate.mass_curve_s": (
        "s", lambda tr: tr.time["groundstate.mass_curve"],
        ["hypnls.groundstate.mass_constrained_minimize"],
    ),
    "groundstate.flow_steps": (
        "count", lambda tr: tr.counters["flow_steps"],
        ["hypnls.groundstate.mass_constrained_minimize", "MassCurvePoint.iterations"],
    ),
    "groundstate.banded_solves": (
        "count", lambda tr: tr.calls["groundstate.banded_solve"],
        ["hypnls.groundstate.solve_banded"],
    ),
    "spectral.transform_calls": (
        "count", lambda tr: tr.calls["spectral.transform"],
        ["hypnls.spectral:SpectralTransform.forward",
         "hypnls.spectral:SpectralTransform.inverse"],
    ),
    "spectral.transform_s": (
        "s", lambda tr: tr.time["spectral.transform"],
        ["hypnls.spectral:SpectralTransform.forward",
         "hypnls.spectral:SpectralTransform.inverse"],
    ),
    "spectral.setup_s": ("s", lambda tr: tr.time["spectral.setup"],
                         ["hypnls.spectral:SpectralTransform.__init__"]),
    # computed from the shapes of the transform's arrays, not measured
    "spectral.kernel_bytes": (
        "bytes-computed", lambda tr: tr.counters["kernel_bytes"],
        ["hypnls.spectral:SpectralTransform.__init__"],
    ),
    "expcli.main_s": ("s", lambda tr: tr.time["expcli.main"], ["hypnls.expcli.main"]),
    "expcli.write_s": ("s", lambda tr: tr.time["expcli.write"],
                       ["hypnls.expcli.write_text_atomic"]),
    "expcli.bytes_written": ("bytes", lambda tr: tr.counters["bytes_written"],
                             ["hypnls.expcli.write_text_atomic"]),
}


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    """Span and count aggregates for one round at a time."""

    def __init__(self):
        self.missing = set()
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []  # per open span: time covered by its child spans

    # -- wrappers ----------------------------------------------------------

    def _span(self, func, name, hook=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if hook == "monitor" and kwargs.get("monitor") is not None:
                kwargs["monitor"] = tracer._span(kwargs["monitor"], "expcli.monitor")
            stack = tracer._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                tracer.calls[name] += 1
                tracer.time[name] += duration
                tracer.self_time[name] += duration - children
                if stack:
                    stack[-1] += duration
            if hook == "flow_steps":
                steps = getattr(result, "iterations", None)
                if steps is None:
                    tracer.missing.add("MassCurvePoint.iterations")
                else:
                    tracer.counters["flow_steps"] += int(steps)
            elif hook == "kernel_bytes":
                tracer.counters["kernel_bytes"] += _array_bytes(args[0])
            elif hook == "bytes_written":
                text = args[1] if len(args) > 1 else kwargs.get("text", "")
                tracer.counters["bytes_written"] += len(text.encode())
            return result

        return wrapper

    def _count(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            tracer.calls[name] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; record the others as missing."""
        for owner_path, attr, name, hook in TARGETS:
            owner = _resolve(owner_path)
            func = getattr(owner, attr, None) if owner is not None else None
            if func is None:
                self.missing.add(f"{owner_path}.{attr}")
                continue
            if hook == "count":
                wrapped = self._count(func, name)
            else:
                wrapped = self._span(func, name, hook)
            setattr(owner, attr, wrapped)
        return self

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of the current round; None where a target is missing."""
        out = {}
        for name, (_, value, needs) in METRICS.items():
            if any(need in self.missing for need in needs):
                out[name] = None
            else:
                out[name] = value(self)
        return out


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner
