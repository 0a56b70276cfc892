"""Every name the layer tracer of perfbench/tracing.py wraps still resolves.

The tracer replaces each target where its callers look it up. A target the
program no longer has is only recorded as missing, and its metrics read
null, so a rename would pass every other test; this one fails instead.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from hypnls.groundstate import MassCurvePoint

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# still listed by the tracer, but the method is gone: the transform metrics
# read forward and inverse
STALE = {"hypnls.spectral:SpectralTransform.inverse_many"}
# not wrapped yet, kept under its name for the tracer; the experiment
# functions are what the subcommands and the acceptance gates share
PREREGISTERED = (
    ("hypnls.hypgeom", "solve_banded"),
    ("hypnls.expcli", "dichotomy_row"),
    ("hypnls.expcli", "virial_sweep"),
    ("hypnls.expcli", "inequality_scan"),
    ("hypnls.expcli", "mass_curve_sweep"),
    ("hypnls.expcli", "spectral_family"),
)


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]


def test_traced_names_resolve():
    targets = [
        (owner_path, attr)
        for owner_path, attr in _tracer_targets() + list(PREREGISTERED)
        if f"{owner_path}.{attr}" not in STALE
    ]
    missing = []
    for owner_path, attr in targets:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
    assert len(targets) >= 18
    # the flow_steps metric reads this field of the mass curve's result
    assert "iterations" in {f.name for f in dataclasses.fields(MassCurvePoint)}
